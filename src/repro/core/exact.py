"""Exact (simulator-mode) RCD measurement.

Paper §3.3: the miss sequence "can be accurately acquired by observing the
memory behavior of the application on a cache simulator" — the ground-truth
channel CCProf's sampled mode is validated against.  This module packages
that mode as a first-class API: drive a trace through the simulated L1,
collect the *complete* per-context miss sequences, and expose the same
:class:`~repro.core.rcd.RcdAnalysis` objects the sampled pipeline produces,
so exact and approximate results are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.contribution import DEFAULT_RCD_THRESHOLD, contribution_factor
from repro.core.rcd import RcdAnalysis, RcdArrayAnalysis
from repro.errors import AnalysisError
from repro.program.symbols import Symbolizer
from repro.trace.batch import (
    DEFAULT_BATCH_SIZE, TraceBatch, TraceLike, as_access_stream, as_batches,
)

#: Context key for misses outside any known loop.
GLOBAL_CONTEXT = "<all>"


@dataclass
class ExactMeasurement:
    """Complete miss sequences of one simulated run, by program context.

    Attributes:
        geometry: The simulated L1 geometry.
        sequences: Context name -> per-miss cache-set index sequence, in
            time order.  The :data:`GLOBAL_CONTEXT` entry holds every miss.
        total_accesses: Trace length.
    """

    geometry: CacheGeometry
    sequences: Dict[str, List[int]] = field(default_factory=dict)
    total_accesses: int = 0

    @property
    def total_misses(self) -> int:
        """All L1 misses observed."""
        return len(self.sequences.get(GLOBAL_CONTEXT, []))

    @property
    def miss_ratio(self) -> float:
        """Misses per access."""
        if not self.total_accesses:
            return 0.0
        return self.total_misses / self.total_accesses

    def contexts(self) -> List[str]:
        """Context names with at least one miss (global context excluded)."""
        return sorted(name for name in self.sequences if name != GLOBAL_CONTEXT)

    def analysis(self, context: str = GLOBAL_CONTEXT) -> RcdAnalysis:
        """Exact RCD analysis of one context."""
        sequence = self.sequences.get(context)
        if sequence is None:
            raise AnalysisError(f"no misses recorded for context {context!r}")
        return RcdAnalysis.from_set_sequence(sequence, self.geometry.num_sets)

    def vector_analysis(self, context: str = GLOBAL_CONTEXT) -> RcdArrayAnalysis:
        """Columnar exact RCD analysis of one context (vectorized compute,
        same observations as :meth:`analysis`)."""
        sequence = self.sequences.get(context)
        if sequence is None:
            raise AnalysisError(f"no misses recorded for context {context!r}")
        return RcdArrayAnalysis.from_set_sequence(sequence, self.geometry.num_sets)

    def contribution(
        self, context: str = GLOBAL_CONTEXT, threshold: int = DEFAULT_RCD_THRESHOLD
    ) -> float:
        """Exact contribution factor (Equation 1) of one context."""
        return contribution_factor(self.analysis(context), threshold)

    def conflicting_contexts(
        self,
        threshold: int = DEFAULT_RCD_THRESHOLD,
        cf_boundary: float = 0.25,
        min_misses: int = 32,
    ) -> List[str]:
        """Contexts whose exact cf crosses the boundary."""
        flagged = []
        for context in self.contexts():
            sequence = self.sequences[context]
            if len(sequence) < min_misses:
                continue
            if self.contribution(context, threshold) >= cf_boundary:
                flagged.append(context)
        return flagged


class ExactRcdMeasurer:
    """Runs traces through the simulator and collects exact miss sequences.

    Args:
        geometry: L1 geometry.
        symbolizer: Optional symbolizer; with one, misses are additionally
            grouped per innermost loop (code-centric contexts).
        policy: Replacement policy of the simulated L1.
    """

    def __init__(
        self,
        geometry: CacheGeometry = CacheGeometry(),
        symbolizer: Optional[Symbolizer] = None,
        policy: str = "lru",
    ) -> None:
        self.geometry = geometry
        self.symbolizer = symbolizer
        self.policy = policy

    def run(self, stream: TraceLike) -> ExactMeasurement:
        """Simulate a trace; return the complete per-context measurement."""
        cache = SetAssociativeCache(self.geometry, policy=self.policy)
        measurement = ExactMeasurement(geometry=self.geometry)
        sequences = measurement.sequences
        sequences[GLOBAL_CONTEXT] = []
        symbolizer = self.symbolizer
        set_index_of = self.geometry.set_index
        accesses = 0
        for access in as_access_stream(stream):
            accesses += 1
            if cache.access(access.address, access.ip).hit:
                continue
            set_index = set_index_of(access.address)
            sequences[GLOBAL_CONTEXT].append(set_index)
            if symbolizer is not None:
                loop_name = symbolizer.loop_of(access.ip)
                if loop_name is not None:
                    sequences.setdefault(loop_name, []).append(set_index)
        measurement.total_accesses = accesses
        return measurement

    def run_batched(
        self,
        trace: Union[TraceBatch, Iterable],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> ExactMeasurement:
        """Vectorized :meth:`run`: batched simulation, columnar miss
        extraction, identical per-context sequences.

        Accepts a batch, a batch iterable, or a scalar access stream.
        Only the misses take a Python loop (for per-loop attribution), and
        symbol lookups are memoized per unique IP.
        """
        cache = SetAssociativeCache(self.geometry, policy=self.policy)
        measurement = ExactMeasurement(geometry=self.geometry)
        sequences = measurement.sequences
        global_sequence: List[int] = []
        sequences[GLOBAL_CONTEXT] = global_sequence
        symbolizer = self.symbolizer
        loop_of: Dict[int, Optional[str]] = {}
        accesses = 0
        for batch in as_batches(trace, batch_size):
            accesses += len(batch)
            outcome = cache.access_batch(batch)
            miss_mask = outcome.miss
            if not miss_mask.any():
                continue
            miss_sets = outcome.set_index[miss_mask].astype(np.int64).tolist()
            global_sequence.extend(miss_sets)
            if symbolizer is None:
                continue
            for ip, set_index in zip(
                batch.ip[miss_mask].tolist(), miss_sets
            ):
                loop_name = loop_of.get(ip, loop_of)
                if loop_name is loop_of:  # sentinel: not looked up yet
                    loop_name = symbolizer.loop_of(ip)
                    loop_of[ip] = loop_name
                if loop_name is not None:
                    sequences.setdefault(loop_name, []).append(set_index)
        measurement.total_accesses = accesses
        return measurement

    def run_workload(self, workload) -> ExactMeasurement:
        """Convenience: measure a workload, symbolizing via its image."""
        if self.symbolizer is None and getattr(workload, "image", None) is not None:
            measurer = ExactRcdMeasurer(
                geometry=self.geometry,
                symbolizer=Symbolizer(workload.image),
                policy=self.policy,
            )
            return measurer.run(workload.trace())
        return self.run(workload.trace())
