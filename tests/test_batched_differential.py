"""Differential tests: every engine must equal the scalar reference.

A fast engine is only allowed to be *faster* — every observable
(per-access hit/miss, evicted tags, cold bits, stats, RCD observations,
captured samples, truncation state) must match the scalar per-access
reference bit for bit, across all four replacement policies.  These
tests are the contract that keeps the fast paths honest.  The cache and
sampler cases run twice for LRU: on the compiled loop (wherever a C
compiler is available) and, in the ``*PythonLoop`` subclasses, on the
Python per-set loop it falls back to.

The registry-driven half (:class:`TestRegistryDifferential`) parametrizes
over the ``engine_backend`` fixture (every backend in the
:mod:`repro.engine` registry), so registering a new backend opts it into
the whole differential suite with no test edits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import lru_kernel
from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.conflict_period import ConflictPeriodAnalysis
from repro.core.exact import ExactRcdMeasurer
from repro.core.profiler import CCProf
from repro.pmu.event import ALL_LOADS_EVENT, L1_HIT_EVENT
from repro.pmu.periods import FixedPeriod, UniformJitterPeriod
from repro.pmu.sampler import AddressSampler
from repro.robustness.budget import SamplingBudget
from repro.trace.batch import iter_batches
from repro.trace.record import AccessKind, MemoryAccess
from repro.trace.synthetic import markov_trace, uniform_trace, zipf_trace
from repro.workloads.base import TraceWorkload

POLICIES = ("lru", "fifo", "random", "plru")


class ZipfWorkload(TraceWorkload):
    """A tiny deterministic workload for engine-parity checks."""

    name = "zipf-diff"

    def trace(self):
        return zipf_trace(20_000, 2048, seed=3, ip=0x400100)

#: Hypothesis strategy: one access touching few sets (to force conflicts),
#: mixing loads/stores and line-straddling sizes.
access_strategy = st.builds(
    MemoryAccess,
    ip=st.sampled_from([0x400100, 0x400200, 0x400300]),
    address=st.integers(min_value=0x1000, max_value=0x1000 + 64 * 64 * 4),
    kind=st.sampled_from([AccessKind.LOAD, AccessKind.STORE]),
    size=st.integers(min_value=1, max_value=128),
    thread_id=st.integers(min_value=0, max_value=3),
)


def scalar_reference(cache: SetAssociativeCache, trace):
    """Flatten access_record over a trace (line-split reference results)."""
    results = []
    for access in trace:
        outcome = cache.access_record(access)
        results.extend(outcome if isinstance(outcome, list) else [outcome])
    return results


class TestCacheDifferential:
    @pytest.mark.parametrize("policy", POLICIES)
    @given(trace=st.lists(access_strategy, max_size=300), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_scalar_access_for_access(self, policy, trace, data):
        batch_size = data.draw(st.integers(min_value=1, max_value=64))
        geometry = CacheGeometry()
        scalar_cache = SetAssociativeCache(geometry, policy=policy, seed=11)
        batched_cache = SetAssociativeCache(geometry, policy=policy, seed=11)
        reference = scalar_reference(scalar_cache, trace)
        got = []
        for batch in iter_batches(iter(trace), batch_size):
            got.extend(
                batched_cache.access_batch(batch, split_lines=True).scalar_results()
            )
        assert got == reference
        assert scalar_cache.stats.as_dict() == batched_cache.stats.as_dict()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_synthetic_mix_all_policies(self, policy):
        trace = (
            list(uniform_trace(1500, 700, seed=1))
            + list(zipf_trace(1500, 900, seed=2))
            + list(markov_trace(1500, 800, seed=3))
        )
        scalar_cache = SetAssociativeCache(CacheGeometry(), policy=policy, seed=5)
        batched_cache = SetAssociativeCache(CacheGeometry(), policy=policy, seed=5)
        reference = scalar_reference(scalar_cache, trace)
        got = []
        for batch in iter_batches(iter(trace), 257):
            got.extend(
                batched_cache.access_batch(batch, split_lines=True).scalar_results()
            )
        assert got == reference
        assert scalar_cache.stats.as_dict() == batched_cache.stats.as_dict()

    def test_scalar_and_batched_calls_interleave_on_shared_state(self):
        trace = list(zipf_trace(3000, 900, seed=9))
        reference_cache = SetAssociativeCache(CacheGeometry(), seed=3)
        reference = scalar_reference(reference_cache, trace)
        mixed_cache = SetAssociativeCache(CacheGeometry(), seed=3)
        got = []
        for index, batch in enumerate(iter_batches(iter(trace), 100)):
            if index % 2:
                got.extend(
                    mixed_cache.access_batch(batch, split_lines=True).scalar_results()
                )
            else:
                got.extend(scalar_reference(mixed_cache, batch.to_accesses()))
        assert got == reference
        assert mixed_cache.stats.as_dict() == reference_cache.stats.as_dict()

    def test_run_trace_batched_equals_run_trace(self):
        trace = list(markov_trace(4000, 600, seed=4))
        scalar_cache = SetAssociativeCache(CacheGeometry())
        batched_cache = SetAssociativeCache(CacheGeometry())
        scalar_stats = scalar_cache.run_trace(iter(trace))
        batched_stats = batched_cache.run_trace_batched(iter(trace), batch_size=321)
        assert scalar_stats.as_dict() == batched_stats.as_dict()


class TestSamplerDifferential:
    BUDGETS = (
        None,
        SamplingBudget(max_accesses=1234),
        SamplingBudget(max_events=200),
        SamplingBudget(max_samples=3),
        SamplingBudget(max_accesses=5000, max_events=900, max_samples=7),
    )

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize(
        "period", [FixedPeriod(7), UniformJitterPeriod(37), UniformJitterPeriod(1212)]
    )
    def test_run_batched_equals_run(self, budget, period):
        trace = list(zipf_trace(4000, 900, seed=2)) + list(
            uniform_trace(4000, 700, seed=3)
        )
        scalar = AddressSampler(
            geometry=CacheGeometry(), seed=13, period=period
        ).run(iter(trace), budget=budget)
        batched = AddressSampler(
            geometry=CacheGeometry(), seed=13, period=period
        ).run_batched(iter(trace), budget=budget, batch_size=193)
        assert scalar.samples == batched.samples
        assert scalar.total_events == batched.total_events
        assert scalar.total_accesses == batched.total_accesses
        assert scalar.truncated == batched.truncated
        assert scalar.truncation_reason == batched.truncation_reason

    @pytest.mark.parametrize("event", [ALL_LOADS_EVENT, L1_HIT_EVENT])
    def test_alternate_events_match(self, event):
        trace = list(zipf_trace(3000, 900, seed=6))
        scalar = AddressSampler(
            geometry=CacheGeometry(), seed=3, period=FixedPeriod(11), event=event
        ).run(iter(trace))
        batched = AddressSampler(
            geometry=CacheGeometry(), seed=3, period=FixedPeriod(11), event=event
        ).run_batched(iter(trace), batch_size=287)
        assert scalar.samples == batched.samples
        assert scalar.total_events == batched.total_events

    def test_trace_of_events_matches(self):
        trace = list(zipf_trace(3000, 900, seed=8))
        scalar_sampler = AddressSampler(
            geometry=CacheGeometry(), seed=3, period=FixedPeriod(11)
        )
        batched_sampler = AddressSampler(
            geometry=CacheGeometry(), seed=3, period=FixedPeriod(11)
        )
        scalar_result, scalar_events = scalar_sampler.run_with_trace_of_events(
            iter(trace)
        )
        batched_result, batched_events = (
            batched_sampler.run_with_trace_of_events_batched(iter(trace), 311)
        )
        assert scalar_events == batched_events
        assert scalar_result.samples == batched_result.samples


@pytest.fixture(scope="class")
def python_lru_loop():
    """Switch the compiled LRU loop off for a class: LRU batches run the
    Python per-set loop, the fallback on hosts without a C compiler."""
    saved = lru_kernel._status
    lru_kernel._status = lru_kernel.KernelStatus(None, "disabled")
    try:
        yield
    finally:
        lru_kernel._status = saved


@pytest.mark.usefixtures("python_lru_loop")
class TestCacheDifferentialPythonLoop(TestCacheDifferential):
    """The cache cases above, on the Python loop instead of the compiled
    one (which they use wherever a C compiler is available)."""


@pytest.mark.usefixtures("python_lru_loop")
class TestSamplerDifferentialPythonLoop(TestSamplerDifferential):
    """The ``run_batched`` sampler cases above, on the Python loop."""


class TestAnalysisDifferential:
    def test_exact_measurer_matches(self):
        trace = list(zipf_trace(4000, 900, seed=5))
        scalar = ExactRcdMeasurer(geometry=CacheGeometry()).run(iter(trace))
        batched = ExactRcdMeasurer(geometry=CacheGeometry()).run_batched(
            iter(trace), batch_size=311
        )
        assert scalar.sequences == batched.sequences
        assert scalar.total_accesses == batched.total_accesses

    def test_vector_rcd_analysis_matches_scalar(self):
        measurement = ExactRcdMeasurer(geometry=CacheGeometry()).run_batched(
            zipf_trace(5000, 900, seed=5)
        )
        scalar = measurement.analysis()
        vector = measurement.vector_analysis()
        assert scalar.histogram().counts == vector.histogram().counts
        scalar_obs = [(o.set_index, o.rcd, o.position) for o in scalar.observations]
        vector_obs = [(o.set_index, o.rcd, o.position) for o in vector.observations]
        assert scalar_obs == vector_obs
        assert scalar.mean_rcd() == pytest.approx(vector.mean_rcd())

    def test_conflict_periods_match_from_either_analysis(self):
        measurement = ExactRcdMeasurer(geometry=CacheGeometry()).run_batched(
            zipf_trace(5000, 900, seed=5)
        )
        scalar = ConflictPeriodAnalysis.from_observations(
            measurement.analysis().observations
        )
        vector = ConflictPeriodAnalysis.from_observations(
            measurement.vector_analysis()
        )
        key = lambda run: (run.set_index, run.rcd, run.length, run.start_position)
        assert [key(r) for r in scalar.runs] == [key(r) for r in vector.runs]


class TestRegistryDifferential:
    """Every registered backend vs the scalar reference, via the fixture."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_simulate_matches_scalar(self, engine_backend, policy):
        from repro.engine import get_backend

        trace = list(zipf_trace(6000, 900, seed=4)) + list(
            uniform_trace(3000, 700, seed=5)
        )
        geometry = CacheGeometry()
        reference = get_backend("scalar").simulate(
            iter(trace), geometry=geometry, policy=policy, seed=7
        )
        got = engine_backend.simulate(
            list(iter_batches(iter(trace), 701)),
            geometry=geometry,
            policy=policy,
            seed=7,
        )
        assert got.as_dict() == reference.as_dict()

    def test_simulate_with_line_straddlers(self, engine_backend):
        from repro.engine import get_backend

        trace = [
            MemoryAccess(
                ip=0x400100,
                address=0x1000 + 23 * index,
                kind=AccessKind.LOAD if index % 3 else AccessKind.STORE,
                size=1 + (index * 37) % 128,
            )
            for index in range(4000)
        ]
        geometry = CacheGeometry()
        reference = get_backend("scalar").simulate(
            iter(trace), geometry=geometry, split_lines=True
        )
        got = engine_backend.simulate(
            iter(trace), geometry=geometry, split_lines=True, batch_size=311
        )
        assert got.as_dict() == reference.as_dict()

    @pytest.mark.parametrize(
        "budget",
        [
            None,
            SamplingBudget(max_accesses=1234),
            SamplingBudget(max_events=200),
            SamplingBudget(max_samples=3),
        ],
    )
    def test_sample_matches_scalar(self, engine_backend, budget):
        trace = list(zipf_trace(4000, 900, seed=2)) + list(
            uniform_trace(2000, 700, seed=3)
        )
        scalar = AddressSampler(
            geometry=CacheGeometry(), seed=13, period=UniformJitterPeriod(37)
        ).run(iter(trace), budget=budget)
        sampler = AddressSampler(
            geometry=CacheGeometry(), seed=13, period=UniformJitterPeriod(37)
        )
        got = engine_backend.sample(
            sampler, list(iter_batches(iter(trace), 193)), budget=budget
        )
        assert got.samples == scalar.samples
        assert got.total_events == scalar.total_events
        assert got.total_accesses == scalar.total_accesses
        assert got.truncated == scalar.truncated
        assert got.truncation_reason == scalar.truncation_reason

    def test_rcd_matches_scalar(self, engine_backend):
        import numpy as np

        from repro.engine import get_backend

        addresses = np.fromiter(
            (access.address for access in zipf_trace(5000, 600, seed=11)),
            dtype=np.uint64,
        )
        geometry = CacheGeometry()
        reference = get_backend("scalar").rcd_from_addresses(addresses, geometry)
        got = engine_backend.rcd_from_addresses(addresses, geometry)
        key = lambda o: (o.set_index, o.rcd, o.position)
        assert [key(o) for o in got.observations] == [
            key(o) for o in reference.observations
        ]
        assert got.observation_count == reference.observation_count
        assert got.histogram().counts == reference.histogram().counts
        assert got.mean_rcd() == pytest.approx(reference.mean_rcd())

    def test_profiler_end_to_end_matches_scalar(self, engine_backend):
        scalar_report = CCProf(seed=5, engine="scalar").run(ZipfWorkload())
        report = CCProf(seed=5, engine=engine_backend).run(ZipfWorkload())
        assert report.render() == scalar_report.render()
        assert report.total_samples == scalar_report.total_samples
        assert report.total_events == scalar_report.total_events


class TestEndToEndEngines:
    def test_profiler_engines_produce_identical_reports(self):
        batched_report = CCProf(seed=5, engine="batched").run(ZipfWorkload())
        scalar_report = CCProf(seed=5, engine="scalar").run(ZipfWorkload())
        assert batched_report.render() == scalar_report.render()
        assert batched_report.total_samples == scalar_report.total_samples
        assert batched_report.total_events == scalar_report.total_events

    def test_unknown_engine_rejected(self):
        from repro.errors import SamplingError

        with pytest.raises(SamplingError):
            CCProf(engine="warp").run(ZipfWorkload())
