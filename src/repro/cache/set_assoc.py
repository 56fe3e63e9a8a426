"""Single-level set-associative cache simulation.

This is the workhorse of the reproduction: every exact-RCD measurement,
three-C classification, and hierarchy simulation drives one or more of these
caches over a memory trace.  The access path is written for throughput —
LRU (the common case and Dinero IV's default) uses a specialized
list-per-set fast path, and its batched path runs a compiled C loop
(:mod:`repro.cache.lru_kernel`) where a C compiler is available; other
policies go through the generic
:class:`~repro.cache.replacement.ReplacementPolicy` machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Set, Union

import numpy as np

from repro.cache import lru_kernel
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.trace.batch import (
    DEFAULT_BATCH_SIZE, TraceBatch, TraceLike, as_access_stream, as_batches,
)
from repro.trace.record import MemoryAccess

if TYPE_CHECKING:
    from ctypes import CDLL


class AccessResult(NamedTuple):
    """Outcome of one cache reference.

    Attributes:
        hit: Whether the line was resident.
        set_index: Set the address maps to.
        tag: Tag of the referenced line.
        evicted_tag: Tag evicted to make room, or None (hit / cold fill into
            an empty way).
        cold: True when the referenced line had never been cached before
            (a compulsory miss in three-C terms).
    """

    hit: bool
    set_index: int
    tag: int
    evicted_tag: Optional[int]
    cold: bool

    @property
    def miss(self) -> bool:
        """Convenience inverse of :attr:`hit`."""
        return not self.hit


class BatchResult(NamedTuple):
    """Columnar outcome of one batched cache reference run.

    One entry per (line-granular) access, in trace order — the batched
    counterpart of a list of :class:`AccessResult`.

    Attributes:
        hit: Boolean hit mask.
        set_index: Set each access mapped to (u8).
        tag: Tag of each referenced line (u8).
        evicted: Boolean mask of accesses that evicted a line.
        evicted_tag: Evicted tag where ``evicted`` is set (0 elsewhere —
            consult the mask, not the value).
        cold: Boolean compulsory-miss mask.
    """

    hit: np.ndarray
    set_index: np.ndarray
    tag: np.ndarray
    evicted: np.ndarray
    evicted_tag: np.ndarray
    cold: np.ndarray

    @property
    def miss(self) -> np.ndarray:
        """Boolean miss mask (inverse of :attr:`hit`)."""
        return ~self.hit

    def __len__(self) -> int:
        return int(self.hit.size)

    def scalar_results(self) -> List[AccessResult]:
        """Materialize as per-access :class:`AccessResult` records."""
        return [
            AccessResult(
                hit=bool(h),
                set_index=s,
                tag=t,
                evicted_tag=et if e else None,
                cold=bool(c),
            )
            for h, s, t, e, et, c in zip(
                self.hit.tolist(),
                self.set_index.tolist(),
                self.tag.tolist(),
                self.evicted.tolist(),
                self.evicted_tag.tolist(),
                self.cold.tolist(),
            )
        ]


def split_line_straddlers(
    geometry: CacheGeometry,
    addresses: np.ndarray,
    ips: np.ndarray,
    sizes: np.ndarray,
) -> tuple:
    """Expand line-straddling accesses into one access per line touched.

    The columnar analogue of the loop in ``access_record``; shared by the
    single-process cache and the sharded simulator so both split
    identically.  Returns ``(addresses, ips)`` (the inputs unchanged when
    nothing straddles).
    """
    spanned = geometry.lines_spanned_array(addresses, sizes)
    if not spanned.size or int(spanned.max()) == 1:
        return addresses, ips
    row = np.repeat(np.arange(spanned.size), spanned)
    starts = np.concatenate(([0], np.cumsum(spanned)[:-1]))
    within = (np.arange(row.size) - starts[row]).astype(np.uint64)
    bases = geometry.line_addresses(addresses)
    expanded = bases[row] + within * np.uint64(geometry.line_size)
    return expanded, ips[row]


class SetAssociativeCache:
    """A set-associative cache with pluggable replacement.

    Args:
        geometry: Cache geometry (sets, ways, line size).
        policy: Replacement policy name (``lru``, ``fifo``, ``random``,
            ``plru``).
        seed: Seed for the random policy.

    The cache is indexed by virtual address, matching the paper's
    virtually-indexed L1 model (§3.1).
    """

    def __init__(
        self,
        geometry: CacheGeometry = CacheGeometry(),
        policy: str = "lru",
        seed: int = 0,
    ) -> None:
        self.geometry = geometry
        self.policy_name = policy.lower()
        self.seed = seed
        self.stats = CacheStats(geometry=geometry)
        # High-water marks of stats already flushed into obs counters, so
        # flush_metrics() charges deltas — scalar and batched runs over
        # the same trace then produce identical counter totals.
        self._flushed = (0, 0, 0, 0, 0)
        self._seen_lines: Set[int] = set()
        # LRU state in one of two forms, exactly one live at a time: a
        # list of tags per set, most recent first, plus _seen_lines
        # (scalar path, Python loop), or the compiled loop's LruTable,
        # which then also owns the seen lines.  Each path converts on its
        # first use after the other ran, so interleaved scalar and batched
        # calls share one state and a batched-only run never converts.
        self._lru_sets: Optional[List[List[int]]] = None
        self._lru_table: Optional[lru_kernel.LruTable] = None
        # LRU batches per kernel status ("compiled" or a fallback reason),
        # and the totals already charged by flush_metrics().
        self._kernel_batches: Dict[str, int] = {}
        self._kernel_flushed: Dict[str, int] = {}
        self._tags: Optional[List[List[Optional[int]]]] = None
        self._policies: Optional[List[ReplacementPolicy]] = None
        if self.policy_name == "lru":
            self._lru_sets = [[] for _ in range(geometry.num_sets)]
        else:
            self._tags = [[None] * geometry.ways for _ in range(geometry.num_sets)]
            self._policies = [
                make_policy(self.policy_name, geometry.ways, seed=seed + index)
                for index in range(geometry.num_sets)
            ]

    def reset(self) -> None:
        """Flush contents and statistics."""
        self.__init__(self.geometry, self.policy_name, self.seed)

    def access(self, address: int, ip: int = 0) -> AccessResult:
        """Reference one address; update contents and statistics.

        Accesses are modelled at line granularity; callers that care about
        line-straddling references should split them (see
        :meth:`access_record`).
        """
        geometry = self.geometry
        set_index = geometry.set_index(address)
        tag = geometry.tag(address)
        line = geometry.line_number(address)

        stats = self.stats
        stats.accesses += 1
        stats.set_accesses[set_index] += 1

        if self._policies is None:
            result = self._access_lru(set_index, tag, line)
        else:
            result = self._access_generic(set_index, tag, line)

        if result.miss:
            stats.misses += 1
            stats.set_misses[set_index] += 1
            if result.cold:
                stats.cold_misses += 1
            if result.evicted_tag is not None:
                stats.evictions += 1
            if ip:
                stats.ip_misses[ip] += 1
        else:
            stats.hits += 1
        return result

    def _access_lru(self, set_index: int, tag: int, line: int) -> AccessResult:
        ways = self.geometry.ways
        if self._lru_table is not None:
            self._unpack_lru()
        lru_set = self._lru_sets[set_index]  # type: ignore[index]
        if tag in lru_set:
            if lru_set[0] != tag:
                lru_set.remove(tag)
                lru_set.insert(0, tag)
            return AccessResult(True, set_index, tag, None, False)
        cold = line not in self._seen_lines
        if cold:
            self._seen_lines.add(line)
        evicted: Optional[int] = None
        if len(lru_set) >= ways:
            evicted = lru_set.pop()
        lru_set.insert(0, tag)
        return AccessResult(False, set_index, tag, evicted, cold)

    def _access_generic(self, set_index: int, tag: int, line: int) -> AccessResult:
        tags = self._tags[set_index]  # type: ignore[index]
        policy = self._policies[set_index]  # type: ignore[index]
        for way, resident in enumerate(tags):
            if resident == tag:
                policy.touch(way)
                return AccessResult(True, set_index, tag, None, False)
        cold = line not in self._seen_lines
        if cold:
            self._seen_lines.add(line)
        evicted: Optional[int] = None
        empty_way = next((way for way, resident in enumerate(tags) if resident is None), None)
        if empty_way is not None:
            way = empty_way
        else:
            way = policy.victim()
            evicted = tags[way]
        tags[way] = tag
        policy.fill(way)
        return AccessResult(False, set_index, tag, evicted, cold)

    def access_record(self, access: MemoryAccess) -> List[AccessResult]:
        """Reference a :class:`MemoryAccess`, splitting line-straddlers.

        Returns one :class:`AccessResult` per distinct line touched.
        """
        geometry = self.geometry
        spanned = geometry.lines_spanned(access.address, access.size)
        if spanned == 1:
            return [self.access(access.address, access.ip)]
        base = geometry.line_address(access.address)
        return [
            self.access(base + index * geometry.line_size, access.ip)
            for index in range(spanned)
        ]

    def run_trace(self, stream: TraceLike) -> CacheStats:
        """Drive a full trace through the cache; return the stats object."""
        for access in as_access_stream(stream):
            self.access_record(access)
        self.flush_metrics()
        return self.stats

    def flush_metrics(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Charge stats accrued since the last flush into obs counters.

        The batched path flushes per batch; scalar drivers flush once per
        run — per-batch/per-run aggregates only, never per-access
        callbacks.  Deltas (not totals) are charged, so interleaved scalar
        and batched calls never double-count, and a scalar run and a
        batched run over the same trace land identical counter totals.
        """
        registry = registry if registry is not None else get_registry()
        if not registry.enabled:
            return
        stats = self.stats
        accesses, hits, misses, evictions, cold = self._flushed
        if stats.accesses != accesses:
            registry.counter("cache.accesses").inc(stats.accesses - accesses)
        if stats.hits != hits:
            registry.counter("cache.hits").inc(stats.hits - hits)
        if stats.misses != misses:
            registry.counter("cache.misses").inc(stats.misses - misses)
        if stats.evictions != evictions:
            registry.counter("cache.evictions").inc(stats.evictions - evictions)
        if stats.cold_misses != cold:
            registry.counter("cache.cold_misses").inc(stats.cold_misses - cold)
        self._flushed = (
            stats.accesses, stats.hits, stats.misses, stats.evictions,
            stats.cold_misses,
        )
        for status, batches in self._kernel_batches.items():
            delta = batches - self._kernel_flushed.get(status, 0)
            if delta:
                registry.counter(lru_kernel.counter_name(status)).inc(delta)
                self._kernel_flushed[status] = batches

    # -- batched (columnar) access path --------------------------------
    #
    # The methods below are the vectorized counterpart of access() /
    # access_record() / run_trace().  Cache state is shared with the
    # scalar path (same _lru_sets / _tags / _policies / _seen_lines, or
    # the _lru_table both paths convert to and from), so scalar and
    # batched calls may be interleaved freely; the scalar path remains
    # the reference semantics and the differential tests assert
    # access-for-access equality.

    def access_batch(
        self,
        batch: TraceBatch,
        *,
        split_lines: bool = False,
    ) -> BatchResult:
        """Reference a whole :class:`TraceBatch`; update contents and stats.

        With ``split_lines=False`` (default) each record is one reference
        at its raw address — the semantics of :meth:`access`, and what the
        PEBS sampler models.  With ``split_lines=True`` line-straddling
        records are expanded into one reference per line touched — the
        semantics of :meth:`access_record` — and the result has one entry
        per expanded reference.
        """
        addresses = batch.address
        ips = batch.ip
        if split_lines:
            addresses, ips = split_line_straddlers(
                self.geometry, addresses, ips, batch.size
            )
        result = self.access_arrays(addresses, ips)
        self.flush_metrics()
        return result

    def run_trace_batched(
        self,
        trace: Union[TraceBatch, Iterable],
        batch_size: int = DEFAULT_BATCH_SIZE,
        *,
        split_lines: bool = True,
    ) -> CacheStats:
        """Batched :meth:`run_trace`: accepts a batch, batch iterable, or
        scalar access stream (converted chunk-wise).  ``split_lines``
        selects :meth:`access_record` vs :meth:`access` semantics."""
        for batch in as_batches(trace, batch_size):
            self.access_batch(batch, split_lines=split_lines)
        return self.stats

    def access_arrays(self, addresses: np.ndarray, ips: np.ndarray) -> BatchResult:
        """Reference raw address/ip columns; update contents and stats.

        The lowest-level columnar entry point — what sharded engine
        workers call on their per-shard slices.  No line splitting and no
        metrics flush here: callers own both (see :meth:`access_batch`).
        """
        geometry = self.geometry
        set_idx = geometry.set_indices(addresses)
        tags = geometry.tags(addresses)
        lines = geometry.line_numbers(addresses)

        count = int(addresses.size)
        hit = np.zeros(count, dtype=bool)
        cold = np.zeros(count, dtype=bool)
        evicted = np.zeros(count, dtype=bool)
        evicted_tag = np.zeros(count, dtype=np.uint64)
        result = BatchResult(hit, set_idx, tags, evicted, evicted_tag, cold)
        if not count:
            return result

        if self._policies is None:
            status = lru_kernel.load()
            batches = self._kernel_batches
            batches[status.reason] = batches.get(status.reason, 0) + 1
            if status.library is not None:
                # One compiled pass in trace order: sets are independent,
                # so no grouping is needed.
                self._pack_lru(status.library).access(
                    set_idx, tags, lines, hit, cold, evicted, evicted_tag
                )
                self._charge_stats(set_idx, ips, result)
                return result
            if self._lru_table is not None:
                self._unpack_lru()

        # Python loop: non-LRU policies, and LRU without the compiled
        # kernel.  Group accesses by set (stable, so intra-set order —
        # which the per-set state machines depend on — is the trace
        # order).
        order = np.argsort(set_idx, kind="stable")
        grouped_sets = set_idx[order]
        grouped_tags = tags[order]

        # Collapse consecutive same-tag references within a set: the tag
        # was the set's most recent reference, so it is resident (hit) and
        # the recency update is a no-op for every policy (LRU front stays
        # front; FIFO/random ignore hits; a PLRU touch of the just-touched
        # way rewrites the same tree bits).  Only tag-change points reach
        # the per-set state machines below.
        same_run = np.empty(count, dtype=bool)
        same_run[0] = False
        np.logical_and(
            grouped_sets[1:] == grouped_sets[:-1],
            grouped_tags[1:] == grouped_tags[:-1],
            out=same_run[1:],
        )
        if same_run.any():
            hit[order[same_run]] = True
            keep = ~same_run
            order = order[keep]
            grouped_sets = grouped_sets[keep]
            count = int(order.size)

        breaks = np.flatnonzero(grouped_sets[1:] != grouped_sets[:-1]) + 1
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [count]))

        lru_fast_path = self._policies is None
        for start, end in zip(starts.tolist(), ends.tolist()):
            positions = order[start:end]
            set_index = int(grouped_sets[start])
            if lru_fast_path:
                self._access_set_lru(
                    set_index, positions, tags, lines, hit, cold, evicted,
                    evicted_tag,
                )
            else:
                self._access_set_generic(
                    set_index, positions, tags, lines, hit, cold, evicted,
                    evicted_tag,
                )

        self._charge_stats(set_idx, ips, result)
        return result

    def _pack_lru(self, library: CDLL) -> lru_kernel.LruTable:
        """The LRU state as the compiled loop's table, moving it there
        from the Python form if that is live."""
        if self._lru_table is None:
            self._lru_table = lru_kernel.LruTable(
                library, self._lru_sets, self._seen_lines,  # type: ignore[arg-type]
                self.geometry.ways,
            )
            self._lru_sets = None
            self._seen_lines = set()
        return self._lru_table

    def _unpack_lru(self) -> None:
        """Move the LRU state out of the kernel table into Python form."""
        self._lru_sets, self._seen_lines = self._lru_table.to_python()  # type: ignore[union-attr]
        self._lru_table = None

    def _access_set_lru(
        self,
        set_index: int,
        positions: np.ndarray,
        tags: np.ndarray,
        lines: np.ndarray,
        hit: np.ndarray,
        cold: np.ndarray,
        evicted: np.ndarray,
        evicted_tag: np.ndarray,
    ) -> None:
        """Run one set's accesses through the LRU recency list.

        The inner loop works on plain Python ints (``tolist`` once per
        group) — the same state transitions as :meth:`_access_lru`, minus
        all per-access object, dispatch, and stats overhead.
        """
        ways = self.geometry.ways
        lru_set = self._lru_sets[set_index]  # type: ignore[index]
        seen = self._seen_lines
        seen_add = seen.add
        lru_remove = lru_set.remove
        lru_insert = lru_set.insert
        lru_pop = lru_set.pop
        tag_list = tags[positions].tolist()
        line_list = lines[positions].tolist()
        miss_local: List[int] = []
        miss_cold: List[bool] = []
        miss_evicted: List[bool] = []
        miss_evicted_tag: List[int] = []
        for local, tag in enumerate(tag_list):
            if tag in lru_set:
                if lru_set[0] != tag:
                    lru_remove(tag)
                    lru_insert(0, tag)
                continue
            line = line_list[local]
            is_cold = line not in seen
            if is_cold:
                seen_add(line)
            if len(lru_set) >= ways:
                miss_evicted.append(True)
                miss_evicted_tag.append(lru_pop())
            else:
                miss_evicted.append(False)
                miss_evicted_tag.append(0)
            lru_insert(0, tag)
            miss_local.append(local)
            miss_cold.append(is_cold)
        hit[positions] = True
        if miss_local:
            miss_positions = positions[miss_local]
            hit[miss_positions] = False
            cold[miss_positions] = miss_cold
            evicted[miss_positions] = miss_evicted
            evicted_tag[miss_positions] = miss_evicted_tag

    def _access_set_generic(
        self,
        set_index: int,
        positions: np.ndarray,
        tags: np.ndarray,
        lines: np.ndarray,
        hit: np.ndarray,
        cold: np.ndarray,
        evicted: np.ndarray,
        evicted_tag: np.ndarray,
    ) -> None:
        """One set's accesses through the generic replacement machinery.

        Mirrors :meth:`_access_generic` exactly — including the way-scan
        order and the per-set policy RNG consumption, which stable set
        grouping preserves."""
        resident = self._tags[set_index]  # type: ignore[index]
        policy = self._policies[set_index]  # type: ignore[index]
        seen = self._seen_lines
        tag_list = tags[positions].tolist()
        line_list = lines[positions].tolist()
        miss_local: List[int] = []
        miss_cold: List[bool] = []
        miss_evicted: List[bool] = []
        miss_evicted_tag: List[int] = []
        for local, tag in enumerate(tag_list):
            try:
                way = resident.index(tag)
            except ValueError:
                way = -1
            if way >= 0:
                policy.touch(way)
                continue
            line = line_list[local]
            is_cold = line not in seen
            if is_cold:
                seen.add(line)
            try:
                way = resident.index(None)
            except ValueError:
                way = policy.victim()
                miss_evicted.append(True)
                miss_evicted_tag.append(resident[way])
            else:
                miss_evicted.append(False)
                miss_evicted_tag.append(0)
            resident[way] = tag
            policy.fill(way)
            miss_local.append(local)
            miss_cold.append(is_cold)
        hit[positions] = True
        if miss_local:
            miss_positions = positions[miss_local]
            hit[miss_positions] = False
            cold[miss_positions] = miss_cold
            evicted[miss_positions] = miss_evicted
            evicted_tag[miss_positions] = miss_evicted_tag

    def _charge_stats(
        self, set_idx: np.ndarray, ips: np.ndarray, result: BatchResult
    ) -> None:
        """Vectorized equivalent of the per-access stats updates."""
        stats = self.stats
        count = int(set_idx.size)
        stats.accesses += count
        num_sets = self.geometry.num_sets
        access_counts = np.bincount(set_idx.astype(np.intp), minlength=num_sets)
        set_accesses = stats.set_accesses
        for index in np.flatnonzero(access_counts).tolist():
            set_accesses[index] += int(access_counts[index])

        miss_mask = result.miss
        miss_count = int(np.count_nonzero(miss_mask))
        stats.misses += miss_count
        stats.hits += count - miss_count
        if not miss_count:
            return
        stats.cold_misses += int(np.count_nonzero(result.cold))
        stats.evictions += int(np.count_nonzero(result.evicted))
        miss_counts = np.bincount(
            set_idx[miss_mask].astype(np.intp), minlength=num_sets
        )
        set_misses = stats.set_misses
        for index in np.flatnonzero(miss_counts).tolist():
            set_misses[index] += int(miss_counts[index])
        miss_ips = ips[miss_mask]
        miss_ips = miss_ips[miss_ips != 0]
        if miss_ips.size:
            unique_ips, ip_counts = np.unique(miss_ips, return_counts=True)
            stats.ip_misses.update(
                dict(zip(unique_ips.tolist(), ip_counts.tolist()))
            )

    def resident_tags(self, set_index: int) -> List[int]:
        """Tags currently resident in ``set_index`` (order unspecified)."""
        if self._policies is None:
            if self._lru_table is not None:
                self._unpack_lru()
            return list(self._lru_sets[set_index])  # type: ignore[index]
        return [tag for tag in self._tags[set_index] if tag is not None]  # type: ignore[index]

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is currently resident."""
        set_index = self.geometry.set_index(address)
        return self.geometry.tag(address) in self.resident_tags(set_index)
