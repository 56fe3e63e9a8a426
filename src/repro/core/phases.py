"""Phase-aware conflict analysis.

The paper's §7.1 critique of DProf — assuming a uniform workload — cuts
both ways: even CCProf's *whole-run* contribution factor dilutes a conflict
that only exists during one program phase.  This module analyzes the sample
stream in windows, producing per-phase verdicts and the transition points
where the conflict behaviour changes; Figure 4's "locality signatures"
generalized from cache sets to program phases.

Windows are measured in samples (not time), so a fixed window corresponds
to a roughly fixed number of misses regardless of phase speed.  RCD pairs
never cross a window boundary: each window is judged as if its samples were
the whole run.  A trailing window shorter than ``min_window`` is folded
into its predecessor rather than judged alone.

Each window also carries the raw counts a rollup needs (``rcd_observations``,
``short_rcds``, ``sets_touched``), so a long timeline can be coalesced
pairwise into the bounded, versioned ``timeline`` section of a run manifest
(:meth:`PhasedAnalysis.timeline_record`) or exported one JSON record per
window (:meth:`PhasedAnalysis.export_jsonl`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Union

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.core.contribution import DEFAULT_RCD_THRESHOLD
from repro.errors import AnalysisError
from repro.obs.manifest import TIMELINE_VERSION, PathLike
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.pmu.sampler import AddressSample

#: Default fold floor for a trailing window (clamped to small windows).
DEFAULT_MIN_WINDOW = 32

#: Default cap on windows recorded into a manifest timeline.  Longer
#: runs are coalesced pairwise (see :meth:`PhaseReport.merge`) so the
#: manifest stays small; the ``coalesced`` flag records that it happened.
DEFAULT_TIMELINE_WINDOWS = 512


@dataclass(frozen=True)
class PhaseReport:
    """Verdict for one window of samples, plus the counts to merge it.

    Attributes:
        index: Ordinal of the window.
        first_sample: Index (into the analyzed sample list) of the window's
            first sample.
        sample_count: Samples in the window.
        contribution_factor: Equation 1 over the window's samples.
        has_conflict: Whether the window exceeds the cf boundary.
        victim_sets: Sets with short-RCD observations inside the window.
        rcd_observations: RCD observations in the window (samples with a
            same-set predecessor inside the window).
        short_rcds: Observations below the RCD threshold.
        sets_touched: Distinct sets the window's samples landed on.
        merged_from: How many original windows this report covers (> 1
            after a :meth:`merge` rollup).
    """

    index: int
    first_sample: int
    sample_count: int
    contribution_factor: float
    has_conflict: bool
    victim_sets: List[int]
    rcd_observations: int = 0
    short_rcds: int = 0
    sets_touched: int = 0
    merged_from: int = 1

    def merge(self, other: "PhaseReport") -> "PhaseReport":
        """Roll ``other`` (the adjacent later window) into this one.

        A rollup, not a re-analysis: RCD pairs crossing the boundary
        between the two windows are *not* re-linked, so the merged
        observation counts are a lower bound and the merged cf is
        recomputed from the summed counts.  ``has_conflict`` is sticky
        (either half conflicting marks the merged window) so coalescing
        a timeline never hides a conflict phase.
        """
        if other.first_sample < self.first_sample:
            raise AnalysisError("merge expects the later window on the right")
        samples = self.sample_count + other.sample_count
        short = self.short_rcds + other.short_rcds
        return PhaseReport(
            index=self.index,
            first_sample=self.first_sample,
            sample_count=samples,
            contribution_factor=short / samples if samples else 0.0,
            has_conflict=self.has_conflict or other.has_conflict,
            victim_sets=sorted(set(self.victim_sets) | set(other.victim_sets)),
            rcd_observations=self.rcd_observations + other.rcd_observations,
            short_rcds=short,
            sets_touched=max(self.sets_touched, other.sets_touched),
            merged_from=self.merged_from + other.merged_from,
        )

    def to_record(self) -> Dict[str, object]:
        """One JSON record (the timeline/JSONL layout)."""
        return {
            "index": self.index,
            "first_sample": self.first_sample,
            "samples": self.sample_count,
            "cf": self.contribution_factor,
            "conflict": self.has_conflict,
            "victim_sets": list(self.victim_sets),
            "rcd_observations": self.rcd_observations,
            "short_rcds": self.short_rcds,
            "sets_touched": self.sets_touched,
            "merged_from": self.merged_from,
        }


@dataclass
class PhasedAnalysis:
    """All phase verdicts for one sample stream, and the settings used."""

    phases: List[PhaseReport] = field(default_factory=list)
    window: int = 256
    min_window: int = DEFAULT_MIN_WINDOW
    rcd_threshold: int = DEFAULT_RCD_THRESHOLD
    cf_boundary: float = 0.25

    def conflict_phases(self) -> List[PhaseReport]:
        """Windows flagged as conflicting."""
        return [phase for phase in self.phases if phase.has_conflict]

    @property
    def conflict_fraction(self) -> float:
        """Share of windows that conflict — "how uniform is the problem"."""
        if not self.phases:
            return 0.0
        return len(self.conflict_phases()) / len(self.phases)

    @property
    def total_samples(self) -> int:
        """Samples analyzed across all windows."""
        return sum(phase.sample_count for phase in self.phases)

    @property
    def folded(self) -> bool:
        """Whether a short trailing window was folded into its predecessor
        (only a folded window can outgrow ``window``)."""
        return bool(self.phases) and self.phases[-1].sample_count > self.window

    def transitions(self) -> List[int]:
        """Window indices where the verdict flips (phase boundaries)."""
        flips: List[int] = []
        for previous, current in zip(self.phases, self.phases[1:]):
            if previous.has_conflict != current.has_conflict:
                flips.append(current.index)
        return flips

    @property
    def is_uniform(self) -> bool:
        """True when every window agrees — DProf's assumption holds."""
        return len(self.transitions()) == 0

    def max_contribution(self) -> float:
        """Largest per-window cf — the peak conflict intensity."""
        if not self.phases:
            raise AnalysisError("no phases analyzed")
        return max(phase.contribution_factor for phase in self.phases)

    def victim_sets(self) -> List[int]:
        """Union of victim sets across all conflicting windows."""
        victims: Set[int] = set()
        for phase in self.conflict_phases():
            victims.update(phase.victim_sets)
        return sorted(victims)

    def timeline_record(
        self, max_windows: int = DEFAULT_TIMELINE_WINDOWS, engine: str = ""
    ) -> Dict[str, object]:
        """The manifest ``timeline`` section (strict-schema, versioned).

        Timelines longer than ``max_windows`` are coalesced by pairwise
        :meth:`PhaseReport.merge` so the manifest stays bounded; the
        ``coalesced`` flag records the loss of resolution.  ``engine``
        names the engine that produced the samples.
        """
        if max_windows < 1:
            raise AnalysisError(f"max_windows must be positive: {max_windows}")
        windows = list(self.phases)
        while len(windows) > max_windows:
            merged = [
                left.merge(right)
                for left, right in zip(windows[::2], windows[1::2])
            ]
            if len(windows) % 2:
                merged.append(windows[-1])
            windows = merged
        return {
            "version": TIMELINE_VERSION,
            "window": self.window,
            "min_window": self.min_window,
            "rcd_threshold": self.rcd_threshold,
            "cf_boundary": self.cf_boundary,
            "engine": engine,
            "total_samples": self.total_samples,
            "conflict_fraction": self.conflict_fraction,
            "transitions": self.transitions(),
            "coalesced": len(windows) < len(self.phases),
            "windows": [window.to_record() for window in windows],
        }

    def export_jsonl(self, path: PathLike) -> int:
        """Write one JSON record per window; returns the count written."""
        with open(path, "w", encoding="ascii") as handle:
            for phase in self.phases:
                handle.write(json.dumps(phase.to_record(), sort_keys=True) + "\n")
        return len(self.phases)


class PhaseAnalyzer:
    """Windowed conflict analysis over a sample stream.

    Args:
        geometry: L1 geometry for set attribution.
        window: Samples per window.
        rcd_threshold: Short-RCD threshold (Equation 1's T).
        cf_boundary: Per-window conflict decision boundary.
        min_window: Trailing windows smaller than this are folded into the
            previous window rather than judged alone.  Defaults to
            :data:`DEFAULT_MIN_WINDOW`, clamped to ``window``.
    """

    def __init__(
        self,
        geometry: CacheGeometry = CacheGeometry(),
        window: int = 256,
        rcd_threshold: int = DEFAULT_RCD_THRESHOLD,
        cf_boundary: float = 0.25,
        min_window: Optional[int] = None,
    ) -> None:
        if window <= 0:
            raise AnalysisError(f"window must be positive: {window}")
        if min_window is None:
            min_window = min(DEFAULT_MIN_WINDOW, window)
        if not 0 < min_window <= window:
            raise AnalysisError(
                f"min_window must be in (0, window]: {min_window} vs {window}"
            )
        if rcd_threshold <= 0:
            raise AnalysisError(
                f"RCD threshold must be positive: {rcd_threshold}"
            )
        self.geometry = geometry
        self.window = window
        self.rcd_threshold = rcd_threshold
        self.cf_boundary = cf_boundary
        self.min_window = min_window

    def analyze(
        self, samples: Union[Iterable[AddressSample], np.ndarray]
    ) -> PhasedAnalysis:
        """Split ``samples`` (records or an address column) into windows
        and judge each."""
        if isinstance(samples, np.ndarray):
            addresses = samples.astype(np.uint64, copy=False)
        else:
            addresses = np.fromiter(
                (sample.address for sample in samples), dtype=np.uint64
            )
        analysis = PhasedAnalysis(
            window=self.window,
            min_window=self.min_window,
            rcd_threshold=self.rcd_threshold,
            cf_boundary=self.cf_boundary,
        )
        if addresses.size:
            sets = self.geometry.set_indices(addresses).astype(np.int64)
            analysis.phases = self._judge(sets)
        _record_windows(analysis)
        return analysis

    def _judge(self, sets: np.ndarray) -> List[PhaseReport]:
        """Every window's verdict and counts in one vectorized pass."""
        total = sets.size
        window = self.window
        count = -(-total // window)
        if count >= 2 and total - (count - 1) * window < self.min_window:
            count -= 1  # fold the short trailing window into its predecessor
        positions = np.arange(total, dtype=np.int64)
        window_of = np.minimum(positions // window, count - 1)

        # A stable argsort groups each set's samples in time order, so a
        # sample's previous same-set position is its left neighbour.
        order = np.argsort(sets, kind="stable")
        same_set = sets[order[1:]] == sets[order[:-1]]
        previous = np.full(total, -1, dtype=np.int64)
        previous[order[1:][same_set]] = order[:-1][same_set]
        # An RCD is observed only when the predecessor is in the same window.
        observed = previous >= window_of * window
        short = observed & (positions - previous - 1 < self.rcd_threshold)

        samples = np.bincount(window_of, minlength=count).tolist()
        observations = np.bincount(window_of[observed], minlength=count).tolist()
        shorts = np.bincount(window_of[short], minlength=count).tolist()

        # Victim sets: distinct (window, set) pairs among short RCDs, in
        # window-then-set order, cut into one slice per window.
        span = int(sets.max()) + 1
        pairs = np.unique(window_of[short] * span + sets[short])
        victims = (pairs % span).tolist()
        cuts = np.searchsorted(pairs // span, np.arange(count + 1)).tolist()

        reports: List[PhaseReport] = []
        for index in range(count):
            sample_count = samples[index]
            cf = shorts[index] / sample_count
            reports.append(
                PhaseReport(
                    index=index,
                    first_sample=index * window,
                    sample_count=sample_count,
                    contribution_factor=cf,
                    has_conflict=cf >= self.cf_boundary,
                    victim_sets=victims[cuts[index]:cuts[index + 1]],
                    rcd_observations=observations[index],
                    short_rcds=shorts[index],
                    # Each sample without an in-window predecessor is
                    # the first touch of its set in that window.
                    sets_touched=sample_count - observations[index],
                )
            )
        return reports


def _record_windows(analysis: PhasedAnalysis) -> None:
    """Charge ``analysis.window.*`` metrics and per-window trace spans."""
    registry = get_registry()
    if registry.enabled and analysis.phases:
        registry.counter("analysis.window.emitted").inc(len(analysis.phases))
        conflicts = len(analysis.conflict_phases())
        if conflicts:
            registry.counter("analysis.window.conflicts").inc(conflicts)
        if analysis.folded:
            registry.counter("analysis.window.folds").inc()
        samples = registry.histogram("analysis.window.samples")
        short_rcds = registry.histogram("analysis.window.short_rcds")
        for phase in analysis.phases:
            samples.observe(phase.sample_count)
            short_rcds.observe(phase.short_rcds)
    tracer = get_tracer()
    # Window spans nest under the enclosing stage span only: emitted as
    # roots they would flood the tracer's bounded root cap on a long run
    # (one window per `window` samples).
    if tracer.enabled and tracer.current is not None:
        for phase in analysis.phases:
            with tracer.span(
                "analysis.window",
                index=phase.index,
                samples=phase.sample_count,
                cf=round(phase.contribution_factor, 4),
                conflict=phase.has_conflict,
            ):
                pass
