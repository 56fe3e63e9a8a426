#!/usr/bin/env python
"""Simulation vs sampling: same verdict, very different cost (paper §5.3).

The paper validates CCProf against the Dinero IV trace-driven simulator.
This example runs both observation channels on the Tiny-DNN forward layer:

1. dumps a Dinero-format ``.din`` trace and runs the Dinero-style front end
   (exact misses, three-C classification, exact RCD);
2. runs the PEBS-like sampler at the paper's recommended period;
3. compares the conflict verdicts and the measured wall-clock cost of each.

Run:
    python examples/simulator_vs_sampling.py
"""

import tempfile
import time
from pathlib import Path

from repro import CacheGeometry, CCProf, UniformJitterPeriod
from repro.cache import ThreeCClassifier
from repro.cache.dinero import format_dinero_report, simulate_dinero_trace
from repro.core.contribution import contribution_factor
from repro.core.rcd import RcdAnalysis
from repro.trace import write_dinero_trace
from repro.trace.batch import as_access_stream
from repro.workloads import TinyDnnFcWorkload

GEOMETRY = CacheGeometry()


def main() -> None:
    workload = TinyDnnFcWorkload.original()

    # --- channel 1: full trace + simulation (the Dinero IV path) ---
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "tinydnn.din"
        count = write_dinero_trace(trace_path, workload.trace())
        stats = simulate_dinero_trace(trace_path, spec="32k:64:8:lru")
        print(format_dinero_report(stats, title="tiny-dnn forward"))
    simulation_seconds = time.perf_counter() - start

    # Exact RCD + three-C ground truth from the same trace.
    classifier = ThreeCClassifier(GEOMETRY)
    sets = []
    for access in as_access_stream(workload.trace()):
        outcome = classifier.classify_record(access)
        if outcome.value != "hit":
            sets.append(GEOMETRY.set_index(access.address))
    exact_cf = contribution_factor(
        RcdAnalysis.from_set_sequence(sets, GEOMETRY.num_sets)
    )
    print(
        f"\nground truth: {classifier.counts.conflict} conflict misses "
        f"({classifier.counts.conflict_fraction():.1%} of misses), "
        f"exact cf = {exact_cf:.3f}"
    )

    # --- channel 2: PEBS-like sampling (the CCProf path) ---
    start = time.perf_counter()
    profiler = CCProf(period=UniformJitterPeriod(1212), seed=3)
    report = profiler.run(TinyDnnFcWorkload.original())
    sampling_seconds = time.perf_counter() - start
    print("\n" + report.render())

    # --- the paper's point ---
    hot = report.loops[0]
    print(
        f"\nverdict agreement: exact cf {exact_cf:.3f} vs sampled cf "
        f"{hot.contribution_factor:.3f} -> both "
        f"{'conflict' if report.has_conflicts else 'clean'}"
    )
    print(
        f"cost on this substrate: simulation {simulation_seconds:.2f}s "
        f"({count} trace records) vs sampling {sampling_seconds:.2f}s "
        f"({report.total_samples} samples)"
    )
    print(
        "paper, real hardware: simulation ~264x median overhead vs CCProf "
        "1.37x median"
    )


if __name__ == "__main__":
    main()
