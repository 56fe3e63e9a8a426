"""Multi-threaded profiling.

"As libmonitor captures process and thread creation, CCProf sets up the
profiling configuration for each thread/process and monitors them
individually" (paper §4), and the evaluation runs 28/8 threads — two SMT
threads per core *sharing* each L1.

This module reproduces that structure over simulated threads:

- every thread gets its own PMU sampler state (countdown, RNG, sample log),
  exactly like per-thread PMU contexts;
- threads are grouped onto cores: threads sharing a core share one
  simulated L1 (the SMT case), threads on different cores get private L1s;
- per-thread profiles can be analyzed individually or merged, mirroring
  CCProf's "serializes the profiles from different threads" step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import SamplingError
from repro.pmu.event import L1_MISS_EVENT, PmuEvent
from repro.pmu.periods import PeriodDistribution, UniformJitterPeriod
from repro.pmu.sampler import AddressSample, SamplingResult
from repro.trace.batch import as_access_stream
from repro.trace.record import MemoryAccess
from repro.trace.stream import TraceStream, interleave_round_robin


@dataclass
class MultiThreadProfile:
    """Per-thread sampling results plus run-wide totals."""

    per_thread: Dict[int, SamplingResult] = field(default_factory=dict)

    def thread(self, thread_id: int) -> SamplingResult:
        """One thread's result."""
        try:
            return self.per_thread[thread_id]
        except KeyError:
            raise SamplingError(f"no profile for thread {thread_id}") from None

    def merged(self) -> SamplingResult:
        """All threads' samples serialized into one result (time order
        approximated by access index, like CCProf's merged log)."""
        if not self.per_thread:
            raise SamplingError("no threads were profiled")
        any_result = next(iter(self.per_thread.values()))
        merged = SamplingResult(
            mean_period=any_result.mean_period, geometry=any_result.geometry
        )
        samples: List[AddressSample] = []
        for result in self.per_thread.values():
            samples.extend(result.samples)
            merged.total_events += result.total_events
            merged.total_accesses += result.total_accesses
        samples.sort(key=lambda sample: sample.access_index)
        merged.samples = samples
        return merged

    @property
    def thread_ids(self) -> List[int]:
        """Profiled thread ids, ascending."""
        return sorted(self.per_thread)


class _ThreadSamplerState:
    """Per-thread PMU context: countdown, RNG, and sample log."""

    def __init__(
        self,
        thread_id: int,
        period: PeriodDistribution,
        geometry: CacheGeometry,
        seed: int,
    ) -> None:
        self.thread_id = thread_id
        self.rng = random.Random(seed)
        self.period = period
        self.result = SamplingResult(
            mean_period=period.mean_period, geometry=geometry
        )
        self.countdown = period.next_period(self.rng)
        self.access_index = 0

    def observe(self, access: MemoryAccess, fired: bool) -> None:
        self.access_index += 1
        if not fired:
            return
        self.result.total_events += 1
        self.countdown -= 1
        if self.countdown <= 0:
            self.result.samples.append(
                AddressSample(
                    ip=access.ip,
                    address=access.address,
                    event_index=self.result.total_events - 1,
                    access_index=self.access_index - 1,
                )
            )
            self.countdown = self.period.next_period(self.rng)


class MultiThreadMonitor:
    """Profiles several threads with per-thread PMU state and shared or
    private L1s.

    Args:
        geometry: L1 geometry per core.
        period: Sampling-period distribution (shared configuration; each
            thread draws from its own RNG).
        event: Sampled event.
        seed: Base seed; thread ``t`` uses ``seed + t``.
    """

    def __init__(
        self,
        geometry: CacheGeometry = CacheGeometry(),
        period: Optional[PeriodDistribution] = None,
        event: PmuEvent = L1_MISS_EVENT,
        seed: int = 0,
    ) -> None:
        self.geometry = geometry
        self.period = period or UniformJitterPeriod(1212)
        self.event = event
        self.seed = seed

    def profile(
        self,
        threads: Dict[int, TraceStream],
        core_groups: Optional[Sequence[Sequence[int]]] = None,
        interleave_chunk: int = 4,
    ) -> MultiThreadProfile:
        """Profile every thread.

        Args:
            threads: thread id -> access stream.
            core_groups: Partition of thread ids onto cores; threads in the
                same group share one L1 (SMT siblings).  Unlisted threads
                run on private cores.  Default: all private.
            interleave_chunk: Accesses per turn when interleaving SMT
                siblings onto their shared L1.
        """
        groups = [list(group) for group in (core_groups or [])]
        grouped = {tid for group in groups for tid in group}
        for thread_id in threads:
            if thread_id not in grouped:
                groups.append([thread_id])
        for group in groups:
            for thread_id in group:
                if thread_id not in threads:
                    raise SamplingError(f"core group names unknown thread {thread_id}")

        profile = MultiThreadProfile()
        for group in groups:
            self._profile_core(group, threads, profile, interleave_chunk)
        return profile

    def _profile_core(
        self,
        group: Sequence[int],
        threads: Dict[int, TraceStream],
        profile: MultiThreadProfile,
        interleave_chunk: int,
    ) -> None:
        cache = SetAssociativeCache(self.geometry)
        states = {
            thread_id: _ThreadSamplerState(
                thread_id, self.period, self.geometry, self.seed + thread_id
            )
            for thread_id in group
        }
        def tag(thread_id: int) -> Iterable[MemoryAccess]:
            return (
                access._replace(thread_id=thread_id)
                for access in as_access_stream(threads[thread_id])
            )

        if len(group) == 1:
            stream: Iterable[MemoryAccess] = tag(group[0])
        else:
            stream = interleave_round_robin(
                [tag(thread_id) for thread_id in group], chunk=interleave_chunk
            )
        for access in stream:
            outcome = cache.access(access.address, access.ip)
            fired = self.event.matches(access, outcome)
            states[access.thread_id].observe(access, fired)
        for thread_id, state in states.items():
            state.result.total_accesses = state.access_index
            profile.per_thread[thread_id] = state.result
