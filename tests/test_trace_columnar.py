"""Columnar trace generation for the seven case studies.

Every case study builds its trace as :class:`TraceBatch` runs by NumPy
broadcasting over its loop nest.  These tests hold it to the scalar
per-access generators kept in :mod:`tests.trace_oracle` (all five columns,
record for record), to exact batch boundaries, to replayability, and to the
sha256 digests of the traces at the benchmark's pinned sizes, recorded from
the scalar generators.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.trace.batch import DEFAULT_BATCH_SIZE, TraceBatch, as_batches
from repro.workloads.registry import resolve_workload

from .trace_oracle import oracle_trace

STUDIES = ("symmetrization", "nw", "adi", "fft", "tinydnn", "kripke", "himeno")

#: Small sizes of each study: the benchmark's smoke sizes, then off-default
#: shapes (odd and non-cubic extents, several sweeps/steps/iterations).
SIZES: Dict[str, List[Dict[str, object]]] = {
    "symmetrization": [{"n": 32, "sweeps": 1}, {"n": 7, "sweeps": 3}],
    "nw": [{"n": 64}, {"n": 16}, {"n": 48}],
    "adi": [{"n": 32, "steps": 1}, {"n": 16, "steps": 2}, {"n": 5, "steps": 1}],
    "fft": [{"n": 16}, {"n": 4}, {"n": 32}],
    "tinydnn": [{"in_size": 64, "out_size": 32}, {"in_size": 7, "out_size": 5}],
    "kripke": [
        {"groups": 4, "directions": 4, "zones": 16, "sweeps": 1},
        {"groups": 3, "directions": 5, "zones": 7, "sweeps": 2},
    ],
    "himeno": [
        {"dims": (8, 8, 8), "iterations": 1},
        {"dims": (5, 9, 6), "iterations": 2},
    ],
}

DIFFERENTIAL = [
    pytest.param(spec, params, id=f"{spec}-{'-'.join(map(str, params.values()))}")
    for study in STUDIES
    for spec in (study, f"{study}:optimized")
    for params in SIZES[study]
]

#: sha256 of the concatenated records and trace length at the sizes
#: ``perfbench/cases.py`` pins, as the scalar generators produced them
#: (``kripke:optimized``: with the IPs of its row-order image).
PINNED: List[Tuple[str, Dict[str, object], int, str]] = [
    ("symmetrization", {"n": 128, "sweeps": 2}, 98_304,
     "5c1d43cdb5f3f74ac175b7adba0b8a226a5df33c67525fc0a73279d97371a5e2"),
    ("symmetrization:optimized", {"n": 128, "sweeps": 2}, 98_304,
     "90f4d11069d0b5d3f63350755a9b643ef45388790d8293446491059bee909333"),
    ("nw", {"n": 512}, 3_478_018,
     "2784d55e5bdf78b83344c394b509c5a7da01b9f1108bd7308cc0533f783c8194"),
    ("nw:optimized", {"n": 512}, 3_478_018,
     "dcce9b9cd0db6609d142b9327a6c3064a70f1a84d5412f7ec99a2ac5b1bc8647"),
    ("adi", {"n": 256, "steps": 1}, 1_161_288,
     "f430dd29b0f3d340f28664becb234fb098ef544fffa994f698b153247576253b"),
    ("adi:optimized", {"n": 256, "steps": 1}, 1_161_288,
     "7b540a7581df078cfd7a9baa6f6198a54968bb67d13d85bd4c99346e4a7ad66f"),
    ("fft", {"n": 128}, 630_784,
     "f52a42abba41c666192f436f2047960a11a59cd0c3dfff327f18f2bcf9bb5d9e"),
    ("fft:optimized", {"n": 128}, 630_784,
     "3210a183f587eda5f469be3e68067538defbc95b9715ab05c0ca5611c17abbf2"),
    ("tinydnn", {"in_size": 512, "out_size": 256}, 786_432,
     "d0d2bd7ae6153e0c310ce8deb6cccd19617298f330d3894f1844539174aed87e"),
    ("tinydnn:optimized", {"in_size": 512, "out_size": 256}, 786_432,
     "dc6237824991d64c8616715e8b39b75b27ddb072b6b540c3edefcce271cd8d65"),
    ("kripke", {"groups": 32, "directions": 32, "zones": 128, "sweeps": 2}, 270_592,
     "4810432407c0daa86fd2f1ea49c3c8ad9671536bff9d17395c7def2200092fb5"),
    # Re-pinned when the image began to follow the row-order nest that
    # runs, g(d(w, z(vol, psi))): the vol and w statements moved, so their
    # IPs did.  Every other column is unchanged (see
    # test_kripke_row_order_moves_only_ips).
    ("kripke:optimized", {"groups": 32, "directions": 32, "zones": 128, "sweeps": 2}, 526_336,
     "827e45261c1d77cb548a5d74cf479f7af2280426bcb347794b181cfa14194cfb"),
    ("himeno", {"dims": (32, 32, 32), "iterations": 1}, 702_000,
     "36284ccabdd2b4343a6680a6be4c3e928c4836df6af7726339915c00f65fef70"),
    ("himeno:optimized", {"dims": (32, 32, 32), "iterations": 1}, 702_000,
     "d43bc296532c979252428cb70c4af2b225d1a320764e0f93bcdbf9a6fe143bee"),
]


def _batches(spec: str, params: Dict[str, object]) -> List[TraceBatch]:
    batches = list(resolve_workload(spec, **params).trace())
    assert all(isinstance(batch, TraceBatch) for batch in batches)
    return batches


def _assert_exact_boundaries(batches: List[TraceBatch]) -> None:
    assert batches, "empty trace"
    assert all(len(batch) == DEFAULT_BATCH_SIZE for batch in batches[:-1])
    assert 0 < len(batches[-1]) <= DEFAULT_BATCH_SIZE


@pytest.mark.parametrize("spec,params", DIFFERENTIAL)
def test_columnar_trace_matches_scalar_oracle(spec, params):
    batches = _batches(spec, params)
    oracle = TraceBatch.concat(as_batches(oracle_trace(resolve_workload(spec, **params))))
    generated = TraceBatch.concat(batches)
    assert len(generated) == len(oracle)
    for column in ("ip", "address", "kind", "size", "thread_id"):
        np.testing.assert_array_equal(
            getattr(generated, column), getattr(oracle, column), err_msg=column
        )
    assert generated == oracle
    _assert_exact_boundaries(batches)


@pytest.mark.parametrize("spec,params", DIFFERENTIAL[::3])
def test_trace_replays_identically(spec, params):
    workload = resolve_workload(spec, **params)
    first, second = list(workload.trace()), list(workload.trace())
    assert first == second


@pytest.mark.parametrize(
    "spec,params,length,digest", PINNED, ids=[case[0] for case in PINNED]
)
def test_pinned_size_digest(spec, params, length, digest):
    sha = hashlib.sha256()
    batches = 0
    count = 0
    last = 0
    for batch in resolve_workload(spec, **params).trace():
        # Only the final batch may be short.
        assert last in (0, DEFAULT_BATCH_SIZE)
        sha.update(batch.records.tobytes())
        batches += 1
        count += len(batch)
        last = len(batch)
    assert count == length
    assert batches == -(-length // DEFAULT_BATCH_SIZE)
    assert sha.hexdigest() == digest


def test_kripke_row_order_moves_only_ips():
    """The row-order image moved the vol and w statements, and with them
    their IPs; the address, kind, size and thread columns are the ones the
    column-order generator produced before the move.

    The digest hashes, batch after batch, the bytes of each of the four
    columns in turn; this same loop run on the generator that declared the
    column-order image (commit 0e829fa) gives the pinned value.
    """
    sha = hashlib.sha256()
    workload = resolve_workload(
        "kripke:optimized", groups=32, directions=32, zones=128, sweeps=2
    )
    for batch in workload.trace():
        for column in ("address", "kind", "size", "thread_id"):
            sha.update(batch.records[column].tobytes())
    assert sha.hexdigest() == (
        "8a2291c5b8834f8afcfc9eb2a915cd0b66cc6abd3c682380374cd25fe012c0e6"
    )
    assert (workload.ip_w, workload.ip_vol) == (0x400014, 0x400024)
