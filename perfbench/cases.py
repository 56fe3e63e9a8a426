"""The ``casestudies`` inputs: the paper's seven case studies, both variants.

Sizes are pinned here instead of taken from the registry defaults, so a
later change of those defaults cannot silently change what this workload
measures; they equal the registry defaults at the commit that introduced
the benchmark.  ``accesses`` is the trace length those sizes generate, an
exact output check on trace generation.

Labels: the paper finds conflicts in every original and removes them with
the variant the registry calls ``optimized``, so originals are labelled
conflict and optimized variants clear.  Sources:

- symmetrization: PAPER.md / EXPERIMENTS.md Figure 2 (the 64 B row pad
  removes up to 91.4% of the misses of the column walk);
- nw, fft, adi, tinydnn, kripke, himeno: EXPERIMENTS.md Table 3 (padding
  or loop-order fixes that the paper reports as speedups on Broadwell and
  Skylake).

Baseline when the benchmark was introduced, period 1212, seed 0: 11 of 14
verdicts match.  The three misses are the originals of symmetrization, nw
and himeno, which come back clear or unclassified ("ok?") because too few
samples reach their hot loops at this period (ROADMAP item 5).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: The paper's recommended mean sampling period.
PERIOD = 1212


class Case(NamedTuple):
    """One case-study run: registry spec, pinned sizes, label, trace length."""

    spec: str
    params: Dict[str, object]
    conflict: bool
    accesses: Optional[int]


_STUDIES: List[Tuple[str, Dict[str, object], int, int]] = [
    # name, pinned sizes, accesses (original), accesses (optimized)
    ("symmetrization", {"n": 128, "sweeps": 2}, 98_304, 98_304),
    ("nw", {"n": 512}, 3_478_018, 3_478_018),
    ("adi", {"n": 256, "steps": 1}, 1_161_288, 1_161_288),
    ("fft", {"n": 128}, 630_784, 630_784),
    ("tinydnn", {"in_size": 512, "out_size": 256}, 786_432, 786_432),
    ("kripke", {"groups": 32, "directions": 32, "zones": 128, "sweeps": 2},
     270_592, 526_336),
    ("himeno", {"dims": (32, 32, 32), "iterations": 1}, 702_000, 702_000),
]

CASES: List[Case] = [
    case
    for name, params, original, optimized in _STUDIES
    for case in (
        Case(name, params, True, original),
        Case(f"{name}:optimized", params, False, optimized),
    )
]

#: Small sizes with the same structure, for the benchmark's own smoke test.
SMOKE_PARAMS: Dict[str, Dict[str, object]] = {
    "symmetrization": {"n": 32, "sweeps": 1},
    "nw": {"n": 64},
    "adi": {"n": 32, "steps": 1},
    "fft": {"n": 16},
    "tinydnn": {"in_size": 64, "out_size": 32},
    "kripke": {"groups": 4, "directions": 4, "zones": 16, "sweeps": 1},
    "himeno": {"dims": (8, 8, 8), "iterations": 1},
}


def smoke_cases() -> List[Case]:
    """:data:`CASES` at :data:`SMOKE_PARAMS` sizes (trace lengths not pinned)."""
    return [
        Case(case.spec, SMOKE_PARAMS[case.spec.partition(":")[0]], case.conflict, None)
        for case in CASES
    ]
