"""Re-Conflict Distance (RCD).

Definition 1 of the paper: *the Re-Conflict Distance of a cache set S for a
program context P is the number of intermediate cache misses between two
consecutive cache misses on the set S.*

Observation 2: with perfectly balanced set utilization the RCD of every set
equals the number of sets N; RCD < N marks a victim of imbalanced
utilization.

The same computation serves both observation channels:

- **exact mode** — the input is every L1 miss of a (portion of a) trace, as
  a cache simulator produces;
- **sampled mode** — the input is the sparse PEBS sample sequence.  Counting
  intermediate *samples* preserves the imbalance signature: under uniform
  set utilization, consecutive samples land on the same set once every ~N
  samples regardless of the sampling period, whereas misses concentrated on
  k < N sets drive the sampled RCD down toward k (paper §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.errors import AnalysisError
from repro.stats.distributions import EmpiricalCdf, Histogram


class RcdObservation(NamedTuple):
    """One measured RCD value.

    Attributes:
        set_index: The cache set the two bracketing misses hit.
        rcd: Intermediate misses between them.
        position: Ordinal (within the analyzed miss sequence) of the
            *second* miss — the reuse point the RCD is charged to.
    """

    set_index: int
    rcd: int
    position: int


def compute_rcds(set_sequence: Sequence[int]) -> List[RcdObservation]:
    """RCDs of a sequence of per-miss cache-set indices.

    The first miss on each set has no predecessor and produces no
    observation (matching Figure 5, where RCD exists only between
    *consecutive* misses on the same set).
    """
    last_seen: Dict[int, int] = {}
    observations: List[RcdObservation] = []
    for position, set_index in enumerate(set_sequence):
        previous = last_seen.get(set_index)
        if previous is not None:
            observations.append(
                RcdObservation(
                    set_index=set_index,
                    rcd=position - previous - 1,
                    position=position,
                )
            )
        last_seen[set_index] = position
    return observations


def compute_rcd_arrays(
    set_sequence: np.ndarray, positions: Optional[np.ndarray] = None
) -> tuple:
    """Vectorized :func:`compute_rcds` over a set-index column.

    Returns ``(set_index, rcd, position)`` int64 arrays in miss-sequence
    (position) order — the exact columnar image of the observation list
    the scalar function produces.

    The trick: a stable argsort groups equal set indices while keeping
    their positions in time order, so each observation's predecessor is
    simply its left neighbour within the group.

    ``positions`` (optional, strictly increasing, same length) maps each
    entry to its position in a larger enclosing sequence.  The sharded
    engine uses this to compute RCDs shard by shard: because an RCD pairs
    consecutive misses *of one set*, a shard holding all misses of its
    sets — tagged with their global positions — produces exactly the
    observations the global computation would (see
    :func:`merge_rcd_pieces`).
    """
    sequence = np.asarray(set_sequence, dtype=np.int64)
    count = sequence.size
    if positions is not None:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size != count:
            raise AnalysisError(
                f"positions length {positions.size} != sequence length {count}"
            )
    if count < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    order = np.argsort(sequence, kind="stable").astype(np.int64)
    grouped = sequence[order]
    has_predecessor = np.empty(count, dtype=bool)
    has_predecessor[0] = False
    has_predecessor[1:] = grouped[1:] == grouped[:-1]
    local_positions = order[has_predecessor]
    local_previous = order[np.flatnonzero(has_predecessor) - 1]
    if positions is None:
        obs_positions = local_positions
        obs_previous = local_previous
    else:
        obs_positions = positions[local_positions]
        obs_previous = positions[local_previous]
    rcds = obs_positions - obs_previous - 1
    sets = grouped[has_predecessor]
    # Back to emission (position) order to mirror the scalar scan.
    emit = np.argsort(obs_positions)
    return sets[emit], rcds[emit], obs_positions[emit]


def merge_rcd_pieces(pieces: Sequence[tuple]) -> tuple:
    """Merge per-shard ``(set_index, rcd, position)`` column triples.

    Concatenates the pieces and sorts on (global) position — the exact
    emission order :func:`compute_rcd_arrays` produces over the full
    sequence, because every set's observations live wholly inside one
    piece and already carry global positions.  The sharded engine's
    deterministic RCD merge.
    """
    pieces = [piece for piece in pieces if piece[0].size]
    if not pieces:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    if len(pieces) == 1:
        return pieces[0]
    sets = np.concatenate([piece[0] for piece in pieces])
    rcds = np.concatenate([piece[1] for piece in pieces])
    positions = np.concatenate([piece[2] for piece in pieces])
    emit = np.argsort(positions)
    return sets[emit], rcds[emit], positions[emit]


@dataclass
class RcdArrayAnalysis:
    """Columnar twin of :class:`RcdAnalysis`.

    Holds the observations as parallel int64 arrays and answers the same
    queries vectorized; :meth:`observations` materializes the scalar list
    on demand so every existing consumer (contribution factors, reports)
    composes unchanged.  Construction from a set-index column is O(n log n)
    NumPy work instead of a per-miss Python loop.
    """

    num_sets: int
    set_index: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    rcd: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    position: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    total_misses: int = 0

    @classmethod
    def from_set_sequence(
        cls, set_sequence: Sequence[int], num_sets: int
    ) -> "RcdArrayAnalysis":
        """Analyze a per-miss set-index sequence (any array-like)."""
        sequence = np.asarray(set_sequence, dtype=np.int64)
        sets, rcds, positions = compute_rcd_arrays(sequence)
        return cls(
            num_sets=num_sets,
            set_index=sets,
            rcd=rcds,
            position=positions,
            total_misses=int(sequence.size),
        )

    @classmethod
    def from_addresses(
        cls, addresses, geometry: CacheGeometry
    ) -> "RcdArrayAnalysis":
        """Analyze raw miss addresses via the geometry's index bits."""
        column = np.fromiter(
            (int(address) for address in addresses), dtype=np.uint64
        ) if not isinstance(addresses, np.ndarray) else addresses
        sequence = geometry.set_indices(column).astype(np.int64)
        return cls.from_set_sequence(sequence, geometry.num_sets)

    # -- same query API as RcdAnalysis ---------------------------------

    @property
    def observations(self) -> List[RcdObservation]:
        """Scalar observation list (materialized on demand)."""
        return [
            RcdObservation(set_index=s, rcd=r, position=p)
            for s, r, p in zip(
                self.set_index.tolist(), self.rcd.tolist(), self.position.tolist()
            )
        ]

    @property
    def observation_count(self) -> int:
        """Number of RCD observations."""
        return int(self.rcd.size)

    def histogram(self, set_index: Optional[int] = None) -> Histogram:
        """RCD histogram — for one set, or pooled across sets."""
        rcds = self.rcd
        if set_index is not None:
            rcds = rcds[self.set_index == set_index]
        histogram = Histogram()
        values, counts = np.unique(rcds, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            histogram.counts[value] = count
        return histogram

    def per_set_histograms(self) -> Dict[int, Histogram]:
        """RCD histogram keyed by set index (only sets with observations)."""
        return {
            set_index: self.histogram(set_index)
            for set_index in np.unique(self.set_index).tolist()
        }

    def cdf(self) -> EmpiricalCdf:
        """Pooled RCD CDF."""
        if not self.rcd.size:
            raise AnalysisError("no RCD observations; context saw <2 misses per set")
        return EmpiricalCdf.from_values(self.rcd.tolist())

    def short_rcd_count(self, threshold: int) -> int:
        """Observations with RCD strictly below ``threshold``."""
        return int(np.count_nonzero(self.rcd < threshold))

    def contribution_below(self, threshold: int) -> float:
        """Fraction of misses with RCD < threshold (Equation 1's cf)."""
        if self.total_misses == 0:
            return 0.0
        return self.short_rcd_count(threshold) / self.total_misses

    def mean_rcd(self) -> float:
        """Mean observed RCD."""
        if not self.rcd.size:
            raise AnalysisError("no RCD observations")
        return float(self.rcd.mean())

    def victim_sets(self, threshold: int, min_share: float = 0.0) -> List[int]:
        """Sets whose short-RCD share exceeds ``min_share``."""
        victims: List[int] = []
        sets = self.set_index
        short_mask = self.rcd < threshold
        for set_index in np.unique(sets).tolist():
            of_set = sets == set_index
            total = int(np.count_nonzero(of_set))
            short = int(np.count_nonzero(of_set & short_mask))
            if total and short / total > min_share and short > 0:
                victims.append(set_index)
        return victims

    def sets_observed(self) -> int:
        """Distinct sets with at least one observation."""
        return int(np.unique(self.set_index).size)


@dataclass
class RcdAnalysis:
    """Distributional view of a set of RCD observations.

    Built once per program context (loop); queried for the contribution
    factor, per-set histograms, and the CDF curves of Figures 7 and 9.
    """

    num_sets: int
    observations: List[RcdObservation] = field(default_factory=list)
    #: Total misses (or samples) in the context, including first-touches
    #: that yielded no observation — the denominator of Equation 1.
    total_misses: int = 0

    @classmethod
    def from_set_sequence(
        cls, set_sequence: Sequence[int], num_sets: int
    ) -> "RcdAnalysis":
        """Analyze a per-miss set-index sequence."""
        return cls(
            num_sets=num_sets,
            observations=compute_rcds(set_sequence),
            total_misses=len(set_sequence),
        )

    @classmethod
    def from_addresses(
        cls, addresses: Iterable[int], geometry: CacheGeometry
    ) -> "RcdAnalysis":
        """Analyze raw miss addresses via the geometry's index bits (§3.1)."""
        sequence = [geometry.set_index(address) for address in addresses]
        return cls.from_set_sequence(sequence, geometry.num_sets)

    @property
    def observation_count(self) -> int:
        """Number of RCD observations (misses with a same-set predecessor)."""
        return len(self.observations)

    def histogram(self, set_index: Optional[int] = None) -> Histogram:
        """RCD histogram — for one set, or pooled across sets."""
        histogram = Histogram()
        for observation in self.observations:
            if set_index is None or observation.set_index == set_index:
                histogram.add(observation.rcd)
        return histogram

    def per_set_histograms(self) -> Dict[int, Histogram]:
        """RCD histogram keyed by set index (only sets with observations)."""
        histograms: Dict[int, Histogram] = {}
        for observation in self.observations:
            histograms.setdefault(observation.set_index, Histogram()).add(
                observation.rcd
            )
        return histograms

    def cdf(self) -> EmpiricalCdf:
        """Pooled RCD CDF: the curve of Figures 7 and 9."""
        if not self.observations:
            raise AnalysisError("no RCD observations; context saw <2 misses per set")
        return EmpiricalCdf.from_values([o.rcd for o in self.observations])

    def short_rcd_count(self, threshold: int) -> int:
        """Observations with RCD strictly below ``threshold``."""
        return sum(1 for o in self.observations if o.rcd < threshold)

    def contribution_below(self, threshold: int) -> float:
        """Fraction of misses with RCD < threshold — Equation 1's cf.

        The denominator is the total misses in the context, matching
        N_total in the paper.
        """
        if self.total_misses == 0:
            return 0.0
        return self.short_rcd_count(threshold) / self.total_misses

    def mean_rcd(self) -> float:
        """Mean observed RCD; ~``num_sets`` when utilization is balanced."""
        if not self.observations:
            raise AnalysisError("no RCD observations")
        return sum(o.rcd for o in self.observations) / len(self.observations)

    def victim_sets(self, threshold: int, min_share: float = 0.0) -> List[int]:
        """Sets whose short-RCD observations exceed ``min_share`` of their
        observations — the imbalanced-utilization victims of Observation 2.
        """
        victims: List[int] = []
        for set_index, histogram in sorted(self.per_set_histograms().items()):
            short = sum(
                count for value, count in histogram.counts.items() if value < threshold
            )
            if histogram.total and short / histogram.total > min_share and short > 0:
                victims.append(set_index)
        return victims

    def sets_observed(self) -> int:
        """Distinct sets with at least one observation (Table 4's
        "# of Cache Sets utilized" as seen through misses)."""
        return len({o.set_index for o in self.observations})
