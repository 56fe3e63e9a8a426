"""Ablation — how fast does the sampled-RCD approximation degrade?

The paper argues (§3.3) that RCD derived from address sampling "holds the
property of original RCD".  This bench quantifies that claim: for one
conflicting and one balanced workload it measures the absolute error of the
sampled contribution factor against the exact (full-simulation) value as
the sampling period grows, and checks the error is driven by sample count
(decays toward fine periods), while classification stays correct deep into
coarse periods.
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.contribution import contribution_factor
from repro.core.rcd import RcdAnalysis
from repro.pmu.periods import UniformJitterPeriod
from repro.pmu.sampler import AddressSampler
from repro.reporting.tables import Table
from repro.trace.batch import as_access_stream
from repro.workloads.adi import AdiWorkload
from repro.workloads.rodinia import make_rodinia_workload

from benchmarks.conftest import emit

PERIODS = [5, 17, 61, 211, 797]


def _exact_cf(factory, geometry):
    cache = SetAssociativeCache(geometry)
    sets = []
    for access in as_access_stream(factory().trace()):
        if cache.access(access.address, access.ip).miss:
            sets.append(geometry.set_index(access.address))
    return contribution_factor(RcdAnalysis.from_set_sequence(sets, geometry.num_sets))


def _sampled_cf(factory, geometry, period, seed=0):
    sampler = AddressSampler(geometry, period=UniformJitterPeriod(period), seed=seed)
    result = sampler.run(factory().trace())
    analysis = RcdAnalysis.from_addresses(
        (sample.address for sample in result.samples), geometry
    )
    return contribution_factor(analysis), result.sample_count


def _run():
    geometry = CacheGeometry()
    subjects = {
        "adi (conflict)": lambda: AdiWorkload.original(n=128),
        "hotspot (clean)": lambda: make_rodinia_workload("hotspot"),
    }
    rows = []
    for name, factory in subjects.items():
        exact = _exact_cf(factory, geometry)
        for period in PERIODS:
            cf, samples = _sampled_cf(factory, geometry, period)
            rows.append((name, period, exact, cf, samples, abs(cf - exact)))
    return rows


def test_ablation_rcd_approximation_error(benchmark, result_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    table = Table(
        title="Ablation - sampled cf error vs sampling period",
        headers=["workload", "period", "exact cf", "sampled cf", "samples", "|error|"],
    )
    for name, period, exact, cf, samples, error in rows:
        table.add_row(name, period, f"{exact:.3f}", f"{cf:.3f}", samples, f"{error:.3f}")
    emit(result_dir, "ablation_rcd_approximation.txt", table.render())

    # Fine sampling approximates the exact cf closely for both workloads.
    fine = [row for row in rows if row[1] == PERIODS[0]]
    for name, _period, _exact, _cf, _samples, error in fine:
        assert error < 0.1, f"{name}: error {error:.3f} at period {PERIODS[0]}"
    # Classification survives every period: the conflict workload's sampled
    # cf stays above the clean workload's at equal periods.
    by_period = {}
    for name, period, _exact, cf, _samples, _error in rows:
        by_period.setdefault(period, {})[name] = cf
    for period, values in by_period.items():
        if min(v for v in values.values()) == 0.0 and len(values) < 2:
            continue
        assert values["adi (conflict)"] > values["hotspot (clean)"], period
