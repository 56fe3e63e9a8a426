"""Tests for the windowed phase analysis' timeline surface.

``ccprof profile --stream``, the service's ``window`` jobs and the
manifest ``timeline`` section all run :class:`~repro.core.phases.PhaseAnalyzer`.
The load-bearing suite here is the differential one: every window the
vectorized analyzer emits must be bit-identical to the scalar oracle in
``tests/phase_oracle.py`` on the same samples — every
:class:`~repro.core.phases.PhaseReport` field, the three mergeable counts,
the trailing ``min_window`` fold and every contribution-factor float.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.hashing import XorFoldedGeometry
from repro.core.phases import PhaseAnalyzer, PhaseReport
from repro.errors import AnalysisError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import Tracer, use_tracer
from repro.pmu.periods import FixedPeriod
from repro.pmu.sampler import AddressSample, AddressSampler
from tests.conftest import make_load
from tests.phase_oracle import OraclePhaseAnalyzer


def sampled(trace, geometry, period=5, policy="lru"):
    sampler = AddressSampler(
        geometry, period=FixedPeriod(period), policy=policy
    )
    return sampler.run(trace).samples


def conflict_phase(geometry, laps=300):
    for _ in range(laps):
        for i in range(12):
            yield make_load(0x1000_0000 + i * geometry.mapping_period)


def clean_phase(geometry, laps=8):
    lines = 4 * geometry.num_sets * geometry.ways
    for _ in range(laps):
        for i in range(lines):
            yield make_load(0x4000_0000 + i * geometry.line_size)


def mixed_trace(geometry):
    return itertools.chain(
        clean_phase(geometry, laps=6),
        conflict_phase(geometry, laps=120),
        clean_phase(geometry, laps=6),
    )


def analyze(samples, geometry, **kwargs):
    return PhaseAnalyzer(geometry, **kwargs).analyze(samples)


def assert_matches_oracle(samples, geometry, **kwargs):
    oracle = OraclePhaseAnalyzer(geometry, **kwargs).analyze(samples)
    assert analyze(samples, geometry, **kwargs).phases == oracle


class TestBitIdentity:
    """Vectorized == scalar oracle, field for field, float for float."""

    @pytest.mark.parametrize("policy", ["lru", "plru"])
    @pytest.mark.parametrize(
        "make_trace", [conflict_phase, clean_phase, mixed_trace]
    )
    def test_matches_batch_oracle(self, paper_l1, policy, make_trace):
        samples = sampled(make_trace(paper_l1), paper_l1, policy=policy)
        assert samples  # the workload must actually produce misses
        assert_matches_oracle(samples, paper_l1, window=128)

    @pytest.mark.parametrize(
        "window,min_window",
        [(1, 1), (4, 2), (16, 16), (64, 10), (600, 600), (600, 32)],
    )
    def test_matches_across_window_settings(self, paper_l1, window, min_window):
        samples = sampled(mixed_trace(paper_l1), paper_l1)
        assert_matches_oracle(
            samples, paper_l1, window=window, min_window=min_window
        )

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 255, 256, 257, 513])
    def test_matches_at_fold_edges(self, paper_l1, length):
        # Lengths straddling the window and min_window boundaries hit
        # every branch of the trailing-fold logic, including window >
        # trace (length < 256 -> a single undersized window) and a
        # mid-window cut (length % window != 0).
        samples = sampled(conflict_phase(paper_l1), paper_l1)[:length]
        assert_matches_oracle(samples, paper_l1, window=256)

    def test_mid_window_budget_cut_matches(self, paper_l1):
        # A sampling budget that fires mid-run truncates the stream at an
        # arbitrary window offset; the truncated stream must still agree.
        from repro.robustness.budget import SamplingBudget

        sampler = AddressSampler(
            paper_l1,
            period=FixedPeriod(5),
            budget=SamplingBudget(max_samples=333),
        )
        result = sampler.run(conflict_phase(paper_l1))
        assert result.truncated
        assert_matches_oracle(result.samples, paper_l1, window=128)

    def test_feed_addresses_matches_feed(self, paper_l1):
        # An address column and the sample records it came from agree.
        samples = sampled(mixed_trace(paper_l1), paper_l1)
        column = np.array([s.address for s in samples], dtype=np.uint64)
        assert (
            analyze(column, paper_l1, window=64)
            == analyze(samples, paper_l1, window=64)
        )

    @given(
        lines=st.lists(
            st.integers(min_value=0, max_value=(1 << 12) - 1), max_size=300
        ),
        window=st.integers(min_value=1, max_value=80),
        fold=st.integers(min_value=1, max_value=80),
        threshold=st.integers(min_value=1, max_value=40),
        hashed=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_on_random_streams(
        self, lines, window, fold, threshold, hashed
    ):
        geometry = XorFoldedGeometry() if hashed else CacheGeometry()
        samples = [
            AddressSample(ip=0, address=line * 64, event_index=i, access_index=i)
            for i, line in enumerate(lines)
        ]
        assert_matches_oracle(
            samples, geometry, window=window,
            min_window=min(fold, window), rcd_threshold=threshold,
        )


class TestWindowSummary:
    """PhaseReport as a mergeable window summary."""

    def summary(self, **kwargs):
        base = dict(
            index=0,
            first_sample=0,
            sample_count=100,
            contribution_factor=0.1,
            has_conflict=False,
            victim_sets=[1],
            rcd_observations=40,
            short_rcds=10,
            sets_touched=8,
        )
        base.update(kwargs)
        return PhaseReport(**base)

    def test_merge_adds_counts_and_recomputes_cf(self):
        left = self.summary()
        right = self.summary(
            index=1, first_sample=100, short_rcds=30,
            contribution_factor=0.3, victim_sets=[2, 3],
        )
        merged = left.merge(right)
        assert merged.sample_count == 200
        assert merged.short_rcds == 40
        assert merged.contribution_factor == 40 / 200
        assert merged.victim_sets == [1, 2, 3]
        assert merged.rcd_observations == 80
        assert merged.merged_from == 2
        assert merged.first_sample == 0 and merged.index == 0

    def test_merge_conflict_is_sticky(self):
        left = self.summary(has_conflict=True, contribution_factor=0.9)
        right = self.summary(index=1, first_sample=100, short_rcds=0)
        assert left.merge(right).has_conflict

    def test_merge_rejects_out_of_order(self):
        later = self.summary(index=1, first_sample=100)
        with pytest.raises(AnalysisError, match="later window"):
            later.merge(self.summary())


class TestTimeline:
    def test_timeline_record_coalesces_to_cap(self, paper_l1):
        samples = sampled(conflict_phase(paper_l1, laps=2000), paper_l1)
        analysis = analyze(samples, paper_l1, window=64)
        assert len(analysis.phases) > 16
        record = analysis.timeline_record(max_windows=16)
        assert record["coalesced"] is True
        assert 1 <= len(record["windows"]) <= 16
        # Coalescing never loses samples or conflicts.
        assert sum(w["samples"] for w in record["windows"]) == len(samples)
        assert any(w["conflict"] for w in record["windows"])
        assert sum(w["merged_from"] for w in record["windows"]) == len(
            analysis.phases
        )

    def test_timeline_record_validates_against_manifest_schema(self, paper_l1):
        from repro.obs.manifest import validate_timeline

        samples = sampled(mixed_trace(paper_l1), paper_l1)
        record = analyze(samples, paper_l1, window=64).timeline_record(
            engine="batched"
        )
        validate_timeline(record)  # must not raise
        assert record["version"] == 1
        assert record["total_samples"] == len(samples)
        assert record["engine"] == "batched"
        assert "fallback_from" not in record

    def test_timeline_record_rejects_bad_cap(self, paper_l1):
        analysis = analyze([], paper_l1)
        with pytest.raises(AnalysisError, match="max_windows"):
            analysis.timeline_record(max_windows=0)

    def test_transitions_and_victims(self, paper_l1):
        samples = sampled(mixed_trace(paper_l1), paper_l1)
        analysis = analyze(samples, paper_l1, window=64)
        flips = analysis.transitions()
        assert flips  # clean -> conflict -> clean flips at least once
        assert 0 < analysis.conflict_fraction < 1
        assert 0 in analysis.victim_sets()  # conflict lines map to set 0

    def test_export_jsonl(self, tmp_path, paper_l1):
        samples = sampled(mixed_trace(paper_l1), paper_l1)
        analysis = analyze(samples, paper_l1, window=64)
        path = tmp_path / "timeline.jsonl"
        count = analysis.export_jsonl(path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert count == len(records) == len(analysis.phases)
        assert [r["index"] for r in records] == list(range(count))


class TestObservability:
    def test_metrics_emitted(self, paper_l1):
        registry = MetricsRegistry(enabled=True)
        samples = sampled(conflict_phase(paper_l1), paper_l1)
        with use_registry(registry):
            analysis = analyze(samples, paper_l1, window=64)
        emitted = registry.counter("analysis.window.emitted").value
        assert emitted == len(analysis.phases)
        assert registry.counter("analysis.window.conflicts").value == len(
            analysis.conflict_phases()
        )
        assert registry.histogram("analysis.window.samples").count == emitted

    def test_trailing_fold_counted(self, paper_l1):
        registry = MetricsRegistry(enabled=True)
        samples = sampled(conflict_phase(paper_l1), paper_l1)[:300]
        with use_registry(registry):
            analysis = analyze(samples, paper_l1, window=256, min_window=64)
        assert analysis.folded
        assert registry.counter("analysis.window.folds").value == 1
        assert analysis.phases[-1].sample_count == 300

    def test_window_spans_never_land_as_roots(self, paper_l1):
        tracer = Tracer(enabled=True)
        samples = sampled(conflict_phase(paper_l1), paper_l1)
        with use_tracer(tracer):
            analyze(samples, paper_l1, window=64)
        assert tracer.roots == []  # would flood the root cap otherwise

    def test_window_spans_nest_under_enclosing_span(self, paper_l1):
        tracer = Tracer(enabled=True)
        samples = sampled(conflict_phase(paper_l1), paper_l1)
        with use_tracer(tracer):
            with tracer.span("stage"):
                analysis = analyze(samples, paper_l1, window=64)
        (root,) = tracer.roots
        window_spans = [
            child for child in root.children if child.name == "analysis.window"
        ]
        assert len(window_spans) == len(analysis.phases)


class TestValidation:
    def test_rejects_bad_window(self, paper_l1):
        with pytest.raises(AnalysisError, match="window"):
            PhaseAnalyzer(paper_l1, window=0)

    def test_rejects_bad_min_window(self, paper_l1):
        with pytest.raises(AnalysisError, match="min_window"):
            PhaseAnalyzer(paper_l1, window=16, min_window=17)

    def test_rejects_bad_threshold(self, paper_l1):
        with pytest.raises(AnalysisError, match="threshold"):
            PhaseAnalyzer(paper_l1, rcd_threshold=0)

    def test_default_min_window_clamps_to_small_windows(self, paper_l1):
        assert PhaseAnalyzer(paper_l1, window=16).min_window == 16
        assert PhaseAnalyzer(paper_l1, window=256).min_window == 32
