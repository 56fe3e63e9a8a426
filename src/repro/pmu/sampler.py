"""The PEBS-like address sampler.

Drives a memory trace through the simulated L1, counts qualifying events
(by default L1 load misses), and emits a sample — instruction pointer plus
effective address — every time the randomized countdown expires.  This is
the lossy observation channel all of CCProf's inference is built to cope
with: between two samples, an unknown number of misses happened unseen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.obs.metrics import get_registry
from repro.pmu.event import L1_MISS_EVENT, PmuEvent
from repro.pmu.periods import PeriodDistribution, UniformJitterPeriod
from repro.robustness.budget import SamplingBudget
from repro.trace.batch import DEFAULT_BATCH_SIZE, TraceLike, as_access_stream, as_batches


class AddressSample(NamedTuple):
    """One PEBS record.

    Attributes:
        ip: Instruction pointer of the sampled instruction.
        address: Effective data address.
        event_index: Ordinal of this event among all qualifying events
            (the sampler knows it; offline analysis must not use it other
            than for diagnostics — real PEBS does not report it).
        access_index: Ordinal of the access within the whole trace.
    """

    ip: int
    address: int
    event_index: int
    access_index: int


@dataclass
class SamplingResult:
    """Everything one profiling run produces.

    Attributes:
        samples: The sparse PEBS records, in time order.
        total_events: Count of qualifying events (e.g. all L1 load misses).
        total_accesses: Length of the driven trace.
        mean_period: Mean of the configured period distribution.
        geometry: L1 geometry the run used (needed for set attribution).
        truncated: True when a watchdog budget stopped the run before the
            trace was exhausted (the profile is a valid prefix).
        truncation_reason: Which budget fired (None when not truncated).
        cache_stats: Statistics of the simulated L1 the run drove — the
            same numbers a standalone simulation of the consumed trace
            prefix would produce, attached so downstream consumers (the
            CLI compare path, manifests) need not re-simulate.
    """

    samples: List[AddressSample] = field(default_factory=list)
    total_events: int = 0
    total_accesses: int = 0
    mean_period: float = 0.0
    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    truncated: bool = False
    truncation_reason: Optional[str] = None
    cache_stats: Optional[CacheStats] = None

    @property
    def sample_count(self) -> int:
        """Number of samples captured."""
        return len(self.samples)

    @property
    def effective_period(self) -> float:
        """Observed events per sample (diagnostic)."""
        if not self.samples:
            return float("inf")
        return self.total_events / len(self.samples)

    @property
    def event_rate(self) -> float:
        """Qualifying events per access (e.g. the L1 load-miss rate)."""
        if not self.total_accesses:
            return 0.0
        return self.total_events / self.total_accesses


class AddressSampler:
    """Event-based address sampling over a simulated L1.

    Args:
        geometry: L1 cache geometry.
        period: Sampling-period distribution; defaults to a uniform jitter
            around the paper's recommended mean period of 1212.
        event: Which event to sample (default L1 load misses).
        seed: RNG seed — runs are reproducible.
        policy: L1 replacement policy.
        rng: Explicit period RNG; overrides ``seed`` when given.  A fresh
            clone is *not* taken per run in this mode, so pass a dedicated
            instance when determinism across repeated runs matters.
        budget: Watchdog limits; when a limit fires the run stops early and
            the result is flagged ``truncated``.
    """

    def __init__(
        self,
        geometry: CacheGeometry = CacheGeometry(),
        period: Optional[PeriodDistribution] = None,
        event: PmuEvent = L1_MISS_EVENT,
        seed: int = 0,
        policy: str = "lru",
        rng: Optional[random.Random] = None,
        budget: Optional[SamplingBudget] = None,
    ) -> None:
        self.geometry = geometry
        self.period = period or UniformJitterPeriod(1212)
        self.event = event
        self.policy = policy
        self.budget = budget
        self._seed = seed
        self._rng = rng

    def _fresh_rng(self) -> random.Random:
        """Per-run RNG: the explicit instance, or a fresh seeded one."""
        return self._rng if self._rng is not None else random.Random(self._seed)

    def _finish_run(
        self, result: SamplingResult, cache: SetAssociativeCache
    ) -> SamplingResult:
        """Attach the run's cache stats and charge per-run obs aggregates.

        Called once per run by every engine, so scalar and batched runs of
        the same trace record identical counter totals.
        """
        result.cache_stats = cache.stats
        cache.flush_metrics()
        registry = get_registry()
        if registry.enabled:
            registry.counter("pmu.runs").inc()
            registry.counter("pmu.samples_emitted").inc(result.sample_count)
            registry.counter("pmu.events").inc(result.total_events)
            registry.counter("pmu.accesses").inc(result.total_accesses)
            if result.truncated:
                registry.counter("pmu.truncated_runs").inc()
        return result

    def run(
        self,
        stream: TraceLike,
        budget: Optional[SamplingBudget] = None,
    ) -> SamplingResult:
        """Profile a trace; returns the sparse sample record.

        A fresh cache and RNG are created per run so repeated runs with the
        same seed are bit-identical.  A ``budget`` (argument or constructor
        default) bounds the run; exhaustion yields a truncated-but-valid
        prefix profile rather than an error.
        """
        rng = self._fresh_rng()
        cache = SetAssociativeCache(self.geometry, policy=self.policy)
        result = SamplingResult(
            mean_period=self.period.mean_period, geometry=self.geometry
        )
        budget = budget or self.budget
        tracker = (
            budget.tracker() if budget is not None and not budget.unlimited
            else None
        )
        countdown = self.period.next_period(rng)
        event_matches = self.event.matches
        cache_access = cache.access
        access_index = 0
        event_index = 0
        for access in as_access_stream(stream):
            outcome = cache_access(access.address, access.ip)
            if event_matches(access, outcome):
                event_index += 1
                countdown -= 1
                if countdown <= 0:
                    result.samples.append(
                        AddressSample(
                            ip=access.ip,
                            address=access.address,
                            event_index=event_index - 1,
                            access_index=access_index,
                        )
                    )
                    countdown = self.period.next_period(rng)
            access_index += 1
            if tracker is not None:
                reason = tracker.exhausted_after(
                    access_index, event_index, len(result.samples)
                )
                if reason is not None:
                    result.truncated = True
                    result.truncation_reason = reason
                    break
        result.total_events = event_index
        result.total_accesses = access_index
        return self._finish_run(result, cache)

    def run_batched(
        self,
        trace: TraceLike,
        budget: Optional[SamplingBudget] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache=None,
    ) -> SamplingResult:
        """Vectorized :meth:`run` over columnar trace batches.

        Accepts a :class:`~repro.trace.batch.TraceBatch`, an iterable of
        batches, or a scalar access stream (converted chunk-wise).  The
        result is access-for-access identical to :meth:`run` on the same
        trace and seed: the cache simulation, event mask, countdown walk,
        and RNG draw sequence all reproduce the scalar reference, and the
        deterministic budget limits (accesses/events/samples) truncate at
        the exact same record.  Only the wall-clock ``deadline_seconds``
        budget differs: it is checked once per batch instead of per
        access, which can only matter for a limit that is inherently
        non-deterministic anyway.

        ``cache`` injects an alternative simulation substrate — anything
        with the ``access_batch`` / ``stats`` / ``flush_metrics`` surface
        of :class:`SetAssociativeCache`.  The sharded engine passes its
        multiprocess :class:`~repro.engine.sharded.ShardedCacheSimulator`
        here, reusing this method's event mask, countdown walk, and
        budget logic unchanged (which is what makes it bit-identical).
        The caller owns the injected cache's lifecycle.
        """
        rng = self._fresh_rng()
        if cache is None:
            cache = SetAssociativeCache(self.geometry, policy=self.policy)
        result = SamplingResult(
            mean_period=self.period.mean_period, geometry=self.geometry
        )
        budget = budget or self.budget
        active = budget is not None and not budget.unlimited
        tracker = budget.tracker() if active else None
        max_accesses = budget.max_accesses if active else None
        max_events = budget.max_events if active else None
        max_samples = budget.max_samples if active else None
        has_deadline = active and budget.deadline_seconds is not None

        samples = result.samples
        next_period = self.period.next_period
        countdown = next_period(rng)
        access_index = 0
        event_index = 0
        for batch in as_batches(trace, batch_size):
            count = len(batch)
            if not count:
                continue
            outcome = cache.access_batch(batch)
            mask = np.asarray(self.event.matches_batch(batch, outcome), dtype=bool)
            event_positions = np.flatnonzero(mask)

            # Deterministic budgets map to a local cut: the 0-based batch
            # position of the access after which the scalar loop truncates.
            cut: Optional[int] = None
            if (
                max_accesses is not None
                and access_index + count >= max_accesses
            ):
                cut = max_accesses - access_index - 1
            if max_events is not None:
                needed = max_events - event_index
                if needed <= event_positions.size:
                    event_cut = int(event_positions[needed - 1])
                    if cut is None or event_cut < cut:
                        cut = event_cut
            eligible = (
                event_positions if cut is None
                else event_positions[event_positions <= cut]
            )

            # Countdown walk: the j-th eligible event of this batch fires a
            # sample when the running countdown lands on it.  One RNG draw
            # per captured sample — the same draw sequence as the scalar
            # loop, including the draw that precedes a sample-budget stop.
            ips = batch.ip
            addresses = batch.address
            total_eligible = int(eligible.size)
            pointer = countdown - 1
            sample_cut: Optional[int] = None
            while pointer < total_eligible:
                position = int(eligible[pointer])
                samples.append(
                    AddressSample(
                        ip=int(ips[position]),
                        address=int(addresses[position]),
                        event_index=event_index + pointer,
                        access_index=access_index + position,
                    )
                )
                period = next_period(rng)
                if max_samples is not None and len(samples) >= max_samples:
                    sample_cut = position
                    break
                pointer += period

            if sample_cut is not None and (cut is None or sample_cut <= cut):
                cut = sample_cut
            if cut is not None:
                access_index += cut + 1
                event_index += int(np.count_nonzero(event_positions <= cut))
                result.truncated = True
                result.truncation_reason = tracker.exhausted_now(
                    access_index, event_index, len(samples)
                )
                break
            countdown = pointer - total_eligible + 1
            access_index += count
            event_index += int(event_positions.size)
            if has_deadline:
                reason = tracker.exhausted_now(
                    access_index, event_index, len(samples)
                )
                if reason is not None:
                    result.truncated = True
                    result.truncation_reason = reason
                    break
        result.total_events = event_index
        result.total_accesses = access_index
        return self._finish_run(result, cache)

    def run_with_trace_of_events(self, stream: TraceLike) -> tuple:
        """Profile while also recording the *full* event stream.

        Returns:
            (SamplingResult, list of (ip, address) for every qualifying
            event).  This is the synthesized-simulator mode of §5.2: the
            full stream gives ground-truth RCDs, the samples give CCProf's
            approximation, from the *same* execution.
        """
        rng = self._fresh_rng()
        cache = SetAssociativeCache(self.geometry, policy=self.policy)
        result = SamplingResult(
            mean_period=self.period.mean_period, geometry=self.geometry
        )
        events: List[AddressSample] = []
        countdown = self.period.next_period(rng)
        access_index = 0
        event_index = 0
        for access in as_access_stream(stream):
            outcome = cache.access(access.address, access.ip)
            if self.event.matches(access, outcome):
                record = AddressSample(
                    ip=access.ip,
                    address=access.address,
                    event_index=event_index,
                    access_index=access_index,
                )
                events.append(record)
                event_index += 1
                countdown -= 1
                if countdown <= 0:
                    result.samples.append(record)
                    countdown = self.period.next_period(rng)
            access_index += 1
        result.total_events = event_index
        result.total_accesses = access_index
        return self._finish_run(result, cache), events

    def run_with_trace_of_events_batched(
        self, trace: TraceLike, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> tuple:
        """Vectorized :meth:`run_with_trace_of_events`.

        Same contract and bit-identical output on the same trace/seed:
        (SamplingResult, list of every qualifying event).
        """
        rng = self._fresh_rng()
        cache = SetAssociativeCache(self.geometry, policy=self.policy)
        result = SamplingResult(
            mean_period=self.period.mean_period, geometry=self.geometry
        )
        events: List[AddressSample] = []
        next_period = self.period.next_period
        countdown = next_period(rng)
        access_index = 0
        for batch in as_batches(trace, batch_size):
            count = len(batch)
            if not count:
                continue
            outcome = cache.access_batch(batch)
            mask = np.asarray(self.event.matches_batch(batch, outcome), dtype=bool)
            event_positions = np.flatnonzero(mask)
            base_ordinal = len(events)
            batch_events = [
                AddressSample(
                    ip=ip,
                    address=address,
                    event_index=base_ordinal + ordinal,
                    access_index=access_index + position,
                )
                for ordinal, (ip, address, position) in enumerate(
                    zip(
                        batch.ip[event_positions].tolist(),
                        batch.address[event_positions].tolist(),
                        event_positions.tolist(),
                    )
                )
            ]
            events.extend(batch_events)
            total = len(batch_events)
            pointer = countdown - 1
            while pointer < total:
                result.samples.append(batch_events[pointer])
                pointer += next_period(rng)
            countdown = pointer - total + 1
            access_index += count
        result.total_events = len(events)
        result.total_accesses = access_index
        return self._finish_run(result, cache), events
