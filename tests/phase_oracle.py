"""Scalar reference for the windowed phase analysis.

A direct transcription of the definition: slice the sample list into
windows, fold a short trailing window into its predecessor, and run the
scalar :class:`~repro.core.rcd.RcdAnalysis` over each slice.  The
vectorized :class:`~repro.core.phases.PhaseAnalyzer` must reproduce every
:class:`~repro.core.phases.PhaseReport` field it yields, bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.core.contribution import DEFAULT_RCD_THRESHOLD, contribution_factor
from repro.core.phases import PhaseReport
from repro.core.rcd import RcdAnalysis
from repro.pmu.sampler import AddressSample


class OraclePhaseAnalyzer:
    """Per-window scalar RCD analysis (same arguments as PhaseAnalyzer)."""

    def __init__(
        self,
        geometry: CacheGeometry = CacheGeometry(),
        window: int = 256,
        rcd_threshold: int = DEFAULT_RCD_THRESHOLD,
        cf_boundary: float = 0.25,
        min_window: int = 32,
    ) -> None:
        assert 0 < min_window <= window
        self.geometry = geometry
        self.window = window
        self.rcd_threshold = rcd_threshold
        self.cf_boundary = cf_boundary
        self.min_window = min_window

    def analyze(self, samples: Sequence[AddressSample]) -> List[PhaseReport]:
        """Split ``samples`` into windows and judge each."""
        phases: List[PhaseReport] = []
        if not samples:
            return phases
        bounds = self._window_bounds(len(samples))
        for index, (start, end) in enumerate(bounds):
            addresses = [sample.address for sample in samples[start:end]]
            rcd = RcdAnalysis.from_addresses(addresses, self.geometry)
            cf = contribution_factor(rcd, self.rcd_threshold)
            phases.append(
                PhaseReport(
                    index=index,
                    first_sample=start,
                    sample_count=len(addresses),
                    contribution_factor=cf,
                    has_conflict=cf >= self.cf_boundary,
                    victim_sets=rcd.victim_sets(self.rcd_threshold),
                    rcd_observations=rcd.observation_count,
                    short_rcds=rcd.short_rcd_count(self.rcd_threshold),
                    sets_touched=len(
                        {self.geometry.set_index(a) for a in addresses}
                    ),
                )
            )
        return phases

    def _window_bounds(self, total: int) -> List[Tuple[int, int]]:
        bounds: List[Tuple[int, int]] = []
        start = 0
        while start < total:
            end = min(start + self.window, total)
            bounds.append((start, end))
            start = end
        # Fold an undersized trailing window into its predecessor.
        if len(bounds) >= 2 and bounds[-1][1] - bounds[-1][0] < self.min_window:
            last_start, last_end = bounds.pop()
            previous_start, _ = bounds.pop()
            bounds.append((previous_start, last_end))
        return bounds
