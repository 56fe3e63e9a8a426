"""Conflict periods (CP).

Paper §3.3: *"we define the conflict period (CP) of a cache set as the
period of consecutive same value of RCD."*  A long CP means the conflict
pattern is stable long enough for sparse sampling to observe it; the
detectability condition is CP > sampling period.  HimenoBMT (§6.6) is the
paper's example of small CPs forcing high-frequency sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Union

import numpy as np

from repro.core.rcd import RcdArrayAnalysis, RcdObservation
from repro.obs.metrics import get_registry
from repro.stats.distributions import summarize


class ConflictPeriodRun(NamedTuple):
    """One maximal run of equal RCD values on one set.

    Attributes:
        set_index: The cache set.
        rcd: The repeated RCD value.
        length: Number of consecutive observations with that value.
        start_position: Miss-sequence position of the run's first
            observation.
    """

    set_index: int
    rcd: int
    length: int
    start_position: int


def conflict_periods(observations: Sequence[RcdObservation]) -> List[ConflictPeriodRun]:
    """Extract all maximal constant-RCD runs, per set.

    Observations are grouped by set (preserving order) and scanned for
    runs; single observations form runs of length 1.
    """
    by_set: Dict[int, List[RcdObservation]] = {}
    for observation in observations:
        by_set.setdefault(observation.set_index, []).append(observation)

    runs: List[ConflictPeriodRun] = []
    for set_index, entries in sorted(by_set.items()):
        run_start = 0
        for index in range(1, len(entries) + 1):
            end_of_run = index == len(entries) or entries[index].rcd != entries[run_start].rcd
            if end_of_run:
                runs.append(
                    ConflictPeriodRun(
                        set_index=set_index,
                        rcd=entries[run_start].rcd,
                        length=index - run_start,
                        start_position=entries[run_start].position,
                    )
                )
                run_start = index
    return runs


def conflict_period_arrays(
    set_index: np.ndarray, rcd: np.ndarray, position: np.ndarray
) -> List[ConflictPeriodRun]:
    """Vectorized :func:`conflict_periods` over observation columns.

    Takes the ``(set_index, rcd, position)`` columns of a
    :class:`~repro.core.rcd.RcdArrayAnalysis` (in position order) and
    extracts the same runs, in the same (set, then time) order, without a
    per-observation Python loop: a stable sort groups observations by set,
    and run boundaries fall out of one shifted comparison.
    """
    count = int(np.asarray(rcd).size)
    if not count:
        return []
    order = np.argsort(set_index, kind="stable")
    sets = np.asarray(set_index)[order]
    rcds = np.asarray(rcd)[order]
    positions = np.asarray(position)[order]
    new_run = np.empty(count, dtype=bool)
    new_run[0] = True
    new_run[1:] = (sets[1:] != sets[:-1]) | (rcds[1:] != rcds[:-1])
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, count))
    return [
        ConflictPeriodRun(
            set_index=set_value, rcd=rcd_value, length=length,
            start_position=start_position,
        )
        for set_value, rcd_value, length, start_position in zip(
            sets[starts].tolist(),
            rcds[starts].tolist(),
            lengths.tolist(),
            positions[starts].tolist(),
        )
    ]


def merge_conflict_period_runs(
    shard_runs: Sequence[List[ConflictPeriodRun]],
) -> List[ConflictPeriodRun]:
    """Deterministic merge of per-shard conflict-period runs.

    Both extractors emit runs ordered by (set, then time).  When the
    shards are contiguous *ascending* set ranges — as the sharded engine
    produces — plain concatenation preserves that order, so the merge is
    exactly what a single-process extraction over the merged observations
    yields.  (Runs never span shards: a run lives within one set.)
    """
    merged: List[ConflictPeriodRun] = []
    for runs in shard_runs:
        merged.extend(runs)
    return merged


def detectable(run: ConflictPeriodRun, sampling_period: float) -> bool:
    """The paper's detectability condition: CP larger than the period.

    A run of ``length`` same-RCD observations spans roughly
    ``length * (rcd + 1)`` misses; sampling with a mean period shorter than
    that span is expected to catch at least one of them.
    """
    span_in_misses = run.length * (run.rcd + 1)
    return span_in_misses > sampling_period


@dataclass
class ConflictPeriodAnalysis:
    """Summary of conflict-period structure in one program context."""

    runs: List[ConflictPeriodRun] = field(default_factory=list)

    @classmethod
    def from_observations(
        cls, observations: Union[Sequence[RcdObservation], RcdArrayAnalysis]
    ) -> "ConflictPeriodAnalysis":
        """Build from the RCD observations of a context.

        A columnar :class:`~repro.core.rcd.RcdArrayAnalysis` takes the
        vectorized run extraction; a scalar observation sequence takes the
        reference path.  Both produce identical runs.
        """
        if isinstance(observations, RcdArrayAnalysis):
            analysis = cls(
                runs=conflict_period_arrays(
                    observations.set_index,
                    observations.rcd,
                    observations.position,
                )
            )
        else:
            analysis = cls(runs=conflict_periods(observations))
        registry = get_registry()
        registry.counter("core.conflict_period.analyses").inc()
        registry.counter("core.conflict_period.runs_extracted").inc(
            len(analysis.runs)
        )
        return analysis

    def mean_period(self) -> float:
        """Mean run length in observations (0 when there are no runs)."""
        if not self.runs:
            return 0.0
        return sum(run.length for run in self.runs) / len(self.runs)

    def mean_span_in_misses(self) -> float:
        """Mean run span measured in misses — what the sampling period
        must undercut for detection."""
        if not self.runs:
            return 0.0
        return sum(run.length * (run.rcd + 1) for run in self.runs) / len(self.runs)

    def detectable_fraction(self, sampling_period: float) -> float:
        """Fraction of runs satisfying the CP > SP condition."""
        if not self.runs:
            return 0.0
        hits = sum(1 for run in self.runs if detectable(run, sampling_period))
        return hits / len(self.runs)

    def summary(self) -> Dict[str, float]:
        """Run-length summary statistics."""
        if not self.runs:
            return {"count": 0.0}
        return summarize([float(run.length) for run in self.runs])
