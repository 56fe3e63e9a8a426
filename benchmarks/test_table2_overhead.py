"""Table 2 — per-application profile: target-loop contribution, CCProf
overhead vs simulation overhead, and active inner-loop counts.

Paper: the six case studies' target loops contribute 5.1-99% of L1 misses;
CCProf's whole-application overhead is 1.1x-27x (median 1.37x) while
selective loop simulation costs 15.8x-4664x (median 264x) — the headline
"at least an order of magnitude lower than simulators".

Two overhead views are produced:

- *measured on this substrate*: wall-clock of (trace generation + PEBS-like
  sampling) and of (trace generation + full three-C simulation), each
  normalized to producing the same scalar record stream both passes
  consume — our sampling-vs-simulation ratio;
- *paper-calibrated model*: the Figure 8 overhead model evaluated at the
  run's own sample density, giving the hardware-scale numbers.
"""

from __future__ import annotations

import time

from repro.cache.classify import ThreeCClassifier
from repro.cache.geometry import CacheGeometry
from repro.core.attribution import attribute_code
from repro.pmu.overhead import OverheadModel
from repro.pmu.periods import UniformJitterPeriod
from repro.pmu.sampler import AddressSampler
from repro.program.symbols import Symbolizer
from repro.reporting.tables import Table
from repro.trace.batch import as_access_stream
from repro.workloads.adi import AdiWorkload
from repro.workloads.fft import Fft2dWorkload
from repro.workloads.himeno import HimenoWorkload
from repro.workloads.kripke import KripkeWorkload
from repro.workloads.nw import NeedlemanWunschWorkload
from repro.workloads.tinydnn import TinyDnnFcWorkload

from benchmarks.conftest import emit

CASE_STUDIES = [
    ("NW", lambda: NeedlemanWunschWorkload.original(n=256)),
    ("MKL FFT", lambda: Fft2dWorkload.original(n=128)),
    ("ADI", lambda: AdiWorkload.original(n=256)),
    ("Tiny_DNN", lambda: TinyDnnFcWorkload.original()),
    ("Kripke", lambda: KripkeWorkload.original()),
    ("HimenoBMT", lambda: HimenoWorkload.original()),
]

SAMPLE_PERIOD = 211


def _wall(fn, repetitions: int = 2) -> float:
    """Best-of-N wall time: the standard defense against scheduler noise."""
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _profile_one(name, factory, geometry):
    # Baseline: the cost of producing the record stream both passes read.
    baseline = _wall(lambda: sum(1 for _ in as_access_stream(factory().trace())))

    # CCProf: stream + sampling (cache state + countdown handler).
    sampler = AddressSampler(geometry, period=UniformJitterPeriod(SAMPLE_PERIOD))
    holder = {}
    ccprof_time = _wall(
        lambda: holder.__setitem__("result", sampler.run(factory().trace()))
    )
    result = holder["result"]

    # Simulation: stream + full three-C classification (the ground truth a
    # simulator-based study needs).
    simulation_time = _wall(
        lambda: ThreeCClassifier(geometry).run_trace(factory().trace())
    )

    workload = factory()
    code = attribute_code(result.samples, Symbolizer(workload.image))
    hot = code.loops[0] if code.loops else None
    inner_loops = sum(
        1
        for function in workload.image.functions
        for loop in workload.image.loop_forest(function.name)
        if loop.is_innermost
    )
    model = OverheadModel.calibrated()
    modelled = model.overhead_for_run(
        result.total_events, result.sample_count, result.total_accesses
    )
    return {
        "app": name,
        "loop": hot.loop_name if hot else "-",
        "contribution": hot.share if hot else 0.0,
        "ccprof_measured": ccprof_time / baseline,
        "simulation_measured": simulation_time / baseline,
        "ccprof_modelled": modelled,
        "inner_loops": inner_loops,
    }


def _run():
    geometry = CacheGeometry()
    return [_profile_one(name, factory, geometry) for name, factory in CASE_STUDIES]


def test_table2_overhead_comparison(benchmark, result_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    table = Table(
        title="Table 2 - target loops, CCProf vs simulation overhead",
        headers=[
            "application",
            "target loop",
            "loop contrib",
            "CCProf (measured)",
            "simulation (measured)",
            "CCProf (hw model)",
            "# inner loops",
        ],
    )
    for row in rows:
        table.add_row(
            row["app"],
            row["loop"],
            f"{row['contribution']:.1%}",
            f"{row['ccprof_measured']:.2f}x",
            f"{row['simulation_measured']:.2f}x",
            f"{row['ccprof_modelled']:.2f}x",
            row["inner_loops"],
        )
    notes = (
        "paper: CCProf whole-app overhead 1.1x-27x (median 1.37x); "
        "loop simulation 15.8x-4664x (median 264x)"
    )
    emit(result_dir, "table2_overhead.txt", table.render() + "\n" + notes)

    # Shape: full simulation costs more on top of the trace than sampling
    # does (sampling's marginal work is the L1 state plus a rare handler;
    # classification adds a shadow cache and per-access classing).  Judged
    # per app with a noise margin and strictly on the suite median, since
    # the quantities are wall-clock measurements.
    import statistics

    for row in rows:
        assert row["simulation_measured"] > 0.8 * row["ccprof_measured"], row["app"]
    median_simulation = statistics.median(r["simulation_measured"] for r in rows)
    median_ccprof = statistics.median(r["ccprof_measured"] for r in rows)
    assert median_simulation > median_ccprof
    # The hot loop the sampler finds is a real loop with high contribution.
    for row in rows:
        assert row["contribution"] > 0.3
    # NW has by far the most inner loops (11 declared, Table 4).
    nw = next(row for row in rows if row["app"] == "NW")
    assert nw["inner_loops"] >= 10
