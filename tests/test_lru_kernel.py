"""The compiled LRU loop: it builds, falls back, and matches the scalar path.

The kernel path of :meth:`SetAssociativeCache.access_arrays` must be
bit-identical to the scalar reference — every ``BatchResult`` column and
the stats — on any geometry, hashed or not, and so must the Python loop
it replaces when no compiler is available.  First use is lazy and must be
safe under threads; the status (compiled, or why not) reaches the
metrics registry and through it the run manifest.
"""

from __future__ import annotations

import json
import shutil
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import lru_kernel
from repro.cache.geometry import CacheGeometry
from repro.cache.hashing import XorFoldedGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.cli import main
from repro.engine.sharded import ShardedCacheSimulator
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.trace.batch import iter_batches
from repro.trace.record import AccessKind, MemoryAccess
from repro.trace.synthetic import uniform_trace, zipf_trace

DISABLED = lru_kernel.KernelStatus(None, "disabled")


@contextmanager
def kernel_status(status):
    """Run the block with the process's kernel handle set to ``status``."""
    saved = lru_kernel._status
    lru_kernel._status = status
    try:
        yield
    finally:
        lru_kernel._status = saved


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """No kernel resolved yet in this process, and an empty cache dir."""
    monkeypatch.setattr(lru_kernel, "_status", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro" / "kernels"


def compiled_status():
    status = lru_kernel.load()
    if status.library is None:
        pytest.skip(f"compiled LRU loop unavailable: {status.reason}")
    return status


def scalar_columns(cache, trace):
    """The scalar reference as BatchResult-shaped columns."""
    results = [r for access in trace for r in cache.access_record(access)]
    return {
        "hit": [r.hit for r in results],
        "set_index": [r.set_index for r in results],
        "tag": [r.tag for r in results],
        "evicted": [r.evicted_tag is not None for r in results],
        "evicted_tag": [r.evicted_tag or 0 for r in results],
        "cold": [r.cold for r in results],
    }


def batched_columns(cache, trace, batch_size):
    columns = {name: [] for name in
               ("hit", "set_index", "tag", "evicted", "evicted_tag", "cold")}
    for batch in iter_batches(iter(trace), batch_size):
        result = cache.access_batch(batch, split_lines=True)
        for name in columns:
            columns[name].extend(getattr(result, name).tolist())
    return columns


def geometry_strategy():
    return st.builds(
        lambda ways, set_bits, folds, line_bits: (
            XorFoldedGeometry(
                line_size=1 << line_bits, num_sets=1 << set_bits, ways=ways,
                fold_levels=folds,
            )
            if folds
            else CacheGeometry(
                line_size=1 << line_bits, num_sets=1 << set_bits, ways=ways
            )
        ),
        ways=st.integers(1, 16),
        set_bits=st.integers(0, 7),
        folds=st.integers(0, 2),
        line_bits=st.sampled_from([4, 6]),
    )


@st.composite
def line_streams(draw):
    """A geometry and a stream over a small pool of lines, some records
    straddling a line boundary (line 0 included)."""
    geometry = draw(geometry_strategy())
    pool = draw(st.integers(1, 4 * geometry.num_sets * geometry.ways + 1))
    line_size = geometry.line_size
    access = st.builds(
        lambda line, offset, size: MemoryAccess(
            ip=0x400100, address=line * line_size + offset,
            kind=AccessKind.LOAD, size=size,
        ),
        line=st.integers(0, pool),
        offset=st.integers(0, line_size - 1),
        size=st.integers(1, 2 * line_size),
    )
    return geometry, draw(st.lists(access, max_size=600))


@given(stream=line_streams(), batch_size=st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_compiled_and_python_loops_match_scalar(stream, batch_size):
    geometry, trace = stream
    reference_cache = SetAssociativeCache(geometry)
    reference = scalar_columns(reference_cache, trace)
    modes = [DISABLED]
    if lru_kernel.load().library is not None:
        modes.append(lru_kernel.load())
    for status in modes:
        with kernel_status(status):
            cache = SetAssociativeCache(geometry)
            got = batched_columns(cache, trace, batch_size)
        assert got == reference, status.reason
        assert cache.stats.as_dict() == reference_cache.stats.as_dict()


def test_cc_on_path_means_the_compiled_loop_loads():
    """CI hosts have a compiler: a benchmark there must never measure the
    Python fallback by accident."""
    if shutil.which(lru_kernel.COMPILER) is None:
        pytest.skip("no C compiler on PATH")
    assert lru_kernel.load().reason == "compiled"


def test_missing_compiler_falls_back_with_identical_results(
    fresh_kernel, monkeypatch
):
    monkeypatch.setattr(lru_kernel, "COMPILER", "no-such-c-compiler")
    trace = list(zipf_trace(4000, 900, seed=3))
    fallback = SetAssociativeCache().run_trace_batched(iter(trace), 257)
    assert lru_kernel.load() == lru_kernel.KernelStatus(None, "no_compiler")
    assert not fresh_kernel.exists()
    reference = SetAssociativeCache().run_trace(iter(trace))
    assert fallback.as_dict() == reference.as_dict()


def test_threads_reaching_first_use_share_one_library(fresh_kernel):
    addresses = np.fromiter(
        (a.address for a in uniform_trace(5000, 3000, seed=1)), dtype=np.uint64
    )
    ips = np.zeros(addresses.size, dtype=np.uint64)
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    outcomes = [None] * threads_count

    def first_use(index):
        barrier.wait(timeout=30)
        result = SetAssociativeCache().access_arrays(addresses, ips)
        outcomes[index] = (lru_kernel.load(), result)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=first_use, args=(index,))
            for index in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    statuses = [status for status, _ in outcomes]
    if statuses[0].library is None:
        pytest.skip(f"compiled LRU loop unavailable: {statuses[0].reason}")
    assert all(status.library is statuses[0].library for status in statuses)
    assert [path.suffix for path in fresh_kernel.iterdir()] == [".so"]
    reference = outcomes[0][1]
    for _, result in outcomes[1:]:
        for got, want in zip(result, reference):
            np.testing.assert_array_equal(got, want)


def _counters_after_batches():
    registry = MetricsRegistry()
    trace = list(zipf_trace(300, 500, seed=4))
    with use_registry(registry):
        SetAssociativeCache().run_trace_batched(iter(trace), 100)
    return registry.snapshot()["counters"]


@pytest.mark.parametrize(
    "setup, reason",
    [
        (lambda mp, tmp: None, "compiled"),
        (lambda mp, tmp: mp.setattr(lru_kernel, "COMPILER", "no-such-cc"),
         "no_compiler"),
        (lambda mp, tmp: mp.setattr(lru_kernel, "FLAGS", ("--no-such-flag",)),
         "build_failed"),
        (lambda mp, tmp: (tmp.write_text("a file"),
                          mp.setenv("XDG_CACHE_HOME", str(tmp))),
         "unwritable"),
        (lambda mp, tmp: mp.setattr(lru_kernel, "_status", DISABLED),
         "disabled"),
    ],
    ids=["compiled", "no_compiler", "build_failed", "unwritable", "disabled"],
)
def test_each_kernel_state_reaches_metrics_and_manifest(
    fresh_kernel, monkeypatch, tmp_path, setup, reason
):
    setup(monkeypatch, tmp_path / "blocker")
    if reason == "compiled":
        compiled_status()
    counters = _counters_after_batches()
    kernel = {
        name: value for name, value in counters.items()
        if name.startswith("engine.kernel.")
    }
    assert kernel == {lru_kernel.counter_name(reason): 3}
    assert lru_kernel.load().reason == reason
    manifest = RunManifest(command="simulate", metrics={"counters": counters})
    assert manifest.lru_kernel() == {reason: 3}
    label = "compiled C loop" if reason == "compiled" else f"Python loop ({reason})"
    assert f"lru kernel: {label}: 3 batches" in manifest.render()


def test_non_lru_policies_charge_no_kernel_counter():
    registry = MetricsRegistry()
    with use_registry(registry):
        SetAssociativeCache(policy="fifo").run_trace_batched(
            zipf_trace(500, 200, seed=1), 100
        )
    counters = registry.snapshot()["counters"]
    assert not [name for name in counters if name.startswith("engine.kernel.")]


def test_sharded_workers_report_the_inherited_kernel():
    status = compiled_status()
    registry = MetricsRegistry()
    trace = list(iter_batches(zipf_trace(3000, 900, seed=2), 1000))
    with use_registry(registry), ShardedCacheSimulator(workers=2) as simulator:
        for batch in trace:
            simulator.access_batch(batch)
    counters = registry.snapshot()["counters"]
    assert counters[lru_kernel.counter_name(status.reason)] == len(trace)
    assert counters["engine.sharded.batches"] == len(trace)


def test_inspect_answers_whether_the_run_used_the_compiled_loop(
    tmp_path, capsys
):
    compiled_status()
    report = tmp_path / "report.txt"
    assert main(
        ["analyze", "symmetrization", "--period", "50", "-o", str(report)]
    ) == 0
    manifest = report.with_name(report.name + ".manifest.json")
    record = json.loads(manifest.read_text())
    assert record["metrics"]["counters"]["engine.kernel.compiled"] > 0
    capsys.readouterr()
    assert main(["inspect", str(manifest)]) == 0
    assert "lru kernel: compiled C loop" in capsys.readouterr().out


def test_large_geometry_converts_only_on_switching_paths():
    """A batched-only run packs the LRU state once; scalar calls after it
    unpack once, and the contents survive both moves."""
    compiled_status()
    geometry = CacheGeometry.from_capacity(8 * 1024 * 1024, ways=16)
    cache = SetAssociativeCache(geometry)
    addresses = np.arange(0, 64 * 200_000, 64, dtype=np.uint64)
    ips = np.zeros(addresses.size, dtype=np.uint64)
    cache.access_arrays(addresses[:100_000], ips[:100_000])
    table = cache._lru_table
    cache.access_arrays(addresses[100_000:], ips[100_000:])
    assert cache._lru_table is table
    assert cache.contains(int(addresses[-1]))
    assert cache._lru_table is None
    assert cache.access(int(addresses[-1])).hit
    result = cache.access_arrays(addresses[:1], ips[:1])
    assert not result.hit[0] and not result.cold[0]
