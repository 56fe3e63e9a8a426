"""The sharded backend: per-set work fanned across worker processes.

Cache sets are independent state machines — a reference to set *s* never
reads or writes the recency list, replacement policy, or cold-line set of
any other set (the per-set policy RNGs are seeded ``seed + set_index``,
so their streams are independent too).  The sharded engine exploits that:
it partitions the ``num_sets`` sets into K contiguous shards and gives
each shard to a persistent worker process holding its own
:class:`~repro.cache.set_assoc.SetAssociativeCache`.

Since PR 8 the data plane is zero-copy: batch columns move through a
:class:`~repro.engine.arena.SharedTraceArena` (one named shared-memory
segment per simulator run) instead of pickled pipe payloads.  Per batch:

1. the parent computes ``set_indices``, partitions record positions by
   shard in a single stable argsort, and writes the address/ip columns
   plus the partitioned position array into the arena *once*;
2. each worker receives only a control tuple ``("batch", offset, count)``
   over its pipe — a descriptor into the shared positions array — and
   gathers its slices straight out of the mapped pages; it runs the
   ordinary per-set kernels and writes hit/cold/evicted flag bytes and
   compacted evicted tags into its own result region of the segment,
   then acknowledges with its cumulative scalar stat totals;
3. the parent scatters the shared result regions back into full-batch
   arrays.

The pipes therefore carry tens of bytes per batch instead of the full
columns; :func:`ShardedCacheSimulator.flush_metrics` charges the exact
pipe traffic to ``engine.sharded.ipc.bytes_shipped`` and the arena
charges ``engine.sharded.arena.bytes_mapped`` /
``engine.sharded.arena.created`` on creation, so the transport cost is
observable (and asserted in CI against the pre-arena pipe baseline).

Because each worker sees its sets' accesses in trace order and runs the
*same* per-set state machines as the batched engine, the scattered
:class:`~repro.cache.set_assoc.BatchResult` is bit-identical to a
single-process run — the sampler's countdown walk, executed serially in
the parent over the merged event mask, therefore reproduces the scalar
reference exactly (samples, truncation, budgets and all).

Merging is deterministic everywhere: cache stats merge by field-wise sum
(:meth:`~repro.cache.stats.CacheStats.merge`); RCD observations merge by
sorting per-shard columns on global miss position
(:func:`~repro.core.rcd.merge_rcd_pieces`), which reproduces the global
computation exactly because an RCD pairs consecutive misses *of one set*
and every set lives wholly inside one shard; conflict periods derive from
the merged RCD columns.  Obs counters are charged by the parent from the
merged stat totals under the same delta high-water-mark scheme as the
single-process engines, so per-run counter totals are identical as well
(workers run under a null registry).

The simulator can also record per-shard miss columns *during* the
simulate pass (``record_misses=True``): the per-record miss masks the
workers already produced are reused to accumulate each shard's miss set
indices at their global miss ordinals, so
:meth:`ShardedBackend.simulate_with_rcd` derives the full RCD analysis
without re-entering simulation (previously ``rcd_from_addresses`` after
a simulate re-partitioned and re-scanned everything).

For ``workers <= 1`` the backend falls back to ``batched`` outright; for
traces of known length below the crossover it does the same *without
allocating any shared-memory segment*.  The crossover defaults to
``None`` = auto: :func:`calibrated_crossover` estimates the break-even
trace length from this host's measured per-access batched cost and the
measured fixed costs (arena create/unlink, worker spawn) instead of the
old hard-coded 200k guess.  :data:`DEFAULT_CROSSOVER` remains as the
clamp midpoint and the documented fallback when measurement is
impossible.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import lru_kernel
from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import (
    BatchResult,
    SetAssociativeCache,
    split_line_straddlers,
)
from repro.cache.stats import CacheStats
from repro.core.rcd import RcdArrayAnalysis, compute_rcd_arrays, merge_rcd_pieces
from repro.engine.arena import SharedTraceArena, fork_lock
from repro.engine.base import EngineBackend, get_backend
from repro.errors import SamplingError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.pmu.sampler import AddressSampler, SamplingResult
from repro.robustness.budget import SamplingBudget
from repro.trace.batch import DEFAULT_BATCH_SIZE, TraceBatch, as_batches

#: Fallback/midpoint trace-length crossover when calibration cannot run.
#: The real default is ``crossover=None`` = auto-calibrated per host (see
#: :func:`calibrated_crossover`); an explicit integer pins it.
DEFAULT_CROSSOVER = 200_000

#: Clamp bounds for the auto-calibrated crossover: never shard traces
#: under one batch's worth of accesses, and never demand more than ~10
#: batches just to break even (a measurement that extreme is noise).
CROSSOVER_FLOOR = 32_768
CROSSOVER_CEIL = 4_000_000

#: Miss-sequence length below which the sharded RCD analysis computes its
#: per-shard pieces serially in-process (the merge is identical either
#: way; a process pool only pays off for very long exact-mode sequences).
DEFAULT_RCD_CROSSOVER = 1_000_000


def available_workers() -> int:
    """Usable CPUs for this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def default_mp_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits the interpreter), else spawn.

    The worker entry point and all shipped state (geometry, arena name,
    control tuples) are module-level / picklable, so both start methods
    work.  Fork from a *multi-threaded* parent (the service daemon) is
    made safe by :func:`repro.engine.arena.fork_lock`: every worker fork
    and every resource-tracker-touching segment operation serialize on
    it, so no child can inherit the tracker's lock in a held state (the
    classic fork-vs-threads deadlock, reproduced by the daemon load
    harness at 8 worker threads before the lock existed).
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def shard_boundaries(num_sets: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_sets)`` into up to ``shards`` contiguous ranges.

    Ranges are half-open ``(lo, hi)``, balanced to within one set, and
    never empty — asking for more shards than sets yields ``num_sets``
    singleton ranges (the K > num_sets regression case).
    """
    if num_sets <= 0:
        raise SamplingError(f"num_sets must be positive: {num_sets}")
    shards = max(1, min(int(shards), int(num_sets)))
    edges = [round(index * num_sets / shards) for index in range(shards + 1)]
    return [
        (edges[index], edges[index + 1])
        for index in range(shards)
        if edges[index + 1] > edges[index]
    ]


def known_trace_length(trace: Any) -> Optional[int]:
    """Record count of ``trace`` when knowable without consuming it."""
    if isinstance(trace, TraceBatch):
        return len(trace)
    if isinstance(trace, (list, tuple)):
        if not trace:
            return 0
        if isinstance(trace[0], TraceBatch):
            return sum(len(batch) for batch in trace)
        return len(trace)
    return None


def _shard_worker_main(
    conn: Any,
    geometry: CacheGeometry,
    policy: str,
    seed: int,
    arena_name: str,
    capacity: int,
    workers: int,
    shard_index: int,
) -> None:
    """Worker loop: one full-geometry cache fed shared-arena descriptors.

    The cache is built over the *full* geometry so per-set policy seeds
    (``seed + set_index``) match the single-process reference exactly;
    memory cost is a few empty lists per foreign set.  Workers run under
    a null metrics registry and tracer — the parent charges obs
    aggregates from the merged totals, keeping per-run counter totals
    identical to the single-process engines.

    Control protocol (pickled tuples over ``send_bytes``; the arena
    carries all bulk data):

    - ``("batch", offset, count)`` — gather ``positions[offset:offset+
      count]`` from the arena, simulate those records, write flag bytes
      (bit0=hit, bit1=cold, bit2=evicted) and compacted evicted tags to
      this worker's result region, reply ``("done", evicted_count,
      totals)``.
    - ``("remap", name, capacity)`` — detach the current segment, attach
      the named replacement (the parent grew the arena).  No reply: pipe
      FIFO order guarantees the next ``batch`` finds the new mapping.
    - ``("stats",)`` — reply with the full pickled :class:`CacheStats`.
    - ``("close",)`` — exit.
    """
    from repro.obs.metrics import NULL_REGISTRY, use_registry
    from repro.obs.tracing import NULL_TRACER, use_tracer

    with use_registry(NULL_REGISTRY), use_tracer(NULL_TRACER):
        arena = SharedTraceArena.attach(arena_name, capacity, workers)
        cache = SetAssociativeCache(geometry, policy=policy, seed=seed)
        try:
            while True:
                try:
                    message = pickle.loads(conn.recv_bytes())
                except (EOFError, OSError):
                    break
                command = message[0]
                if command == "batch":
                    offset, count = message[1], message[2]
                    positions = arena.positions[offset : offset + count]
                    # Gathers copy out of the mapped pages — the only
                    # per-record data movement on the worker side.
                    addresses = arena.address.take(positions)
                    ips = arena.ip.take(positions)
                    # Drop the view before the next remap/close: a live
                    # export would block the segment's mmap release.
                    del positions
                    result = cache.access_arrays(addresses, ips)
                    flags = (
                        result.hit.astype(np.uint8)
                        | (result.cold.astype(np.uint8) << 1)
                        | (result.evicted.astype(np.uint8) << 2)
                    )
                    np.copyto(arena.flags(shard_index)[:count], flags)
                    evicted_values = result.evicted_tag[result.evicted]
                    if evicted_values.size:
                        np.copyto(
                            arena.tags(shard_index)[: evicted_values.size],
                            evicted_values,
                        )
                    stats = cache.stats
                    conn.send_bytes(
                        pickle.dumps(
                            (
                                "done",
                                int(evicted_values.size),
                                (
                                    stats.accesses,
                                    stats.hits,
                                    stats.misses,
                                    stats.evictions,
                                    stats.cold_misses,
                                ),
                            )
                        )
                    )
                elif command == "remap":
                    arena.close()
                    arena = SharedTraceArena.attach(
                        message[1], message[2], workers
                    )
                elif command == "stats":
                    conn.send_bytes(pickle.dumps(cache.stats))
                else:  # "close"
                    break
        finally:
            # Never unlinks: workers are not owners.  The parent's
            # close() (or the resource tracker, if the parent was
            # killed) removes the name.
            arena.close()
    conn.close()


def _rcd_shard(subsequence: np.ndarray, positions: np.ndarray) -> tuple:
    """Pool task: RCD columns of one shard's misses at global positions."""
    return compute_rcd_arrays(subsequence, positions=positions)


def _partition_by_shard(
    values: np.ndarray, highs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-pass shard partition of a set-index array.

    Returns ``(order, offsets)``: one stable argsort by shard id (so
    trace order is preserved within each shard) and the prefix offsets
    delimiting each shard's run inside ``order``.  Replaces the old
    K-boolean-mask scan, which touched the full array once per shard.
    """
    shard_id = np.searchsorted(highs, values, side="right")
    order = np.argsort(shard_id, kind="stable").astype(np.int64)
    counts = np.bincount(shard_id, minlength=highs.size)
    offsets = np.zeros(highs.size + 1, dtype=np.int64)
    np.cumsum(counts[: highs.size], out=offsets[1:])
    return order, offsets


def _noop() -> None:
    """Calibration target: measures bare process spawn/join cost."""


_CALIBRATED: Dict[Tuple[int, CacheGeometry], int] = {}


def calibrated_crossover(
    workers: int,
    geometry: Optional[CacheGeometry] = None,
    *,
    refresh: bool = False,
) -> int:
    """Break-even trace length for sharding, measured on this host.

    Sharding pays a fixed setup cost — spawning ``workers`` processes
    and creating/unlinking the arena segment — and wins back roughly
    ``(1 - 1/workers)`` of the batched per-access simulation cost on
    every access (the parent-side partition/scatter work is the residual
    1/workers-ish share).  The crossover is the trace length where the
    saving covers the setup::

        crossover ~= fixed_cost / (per_access_batched * (1 - 1/workers))

    Probes are tiny (one ~16k-record batched run, one arena create, one
    no-op process round trip) and the result is cached per
    ``(workers, geometry)`` pair for the process lifetime — per-access
    cost scales with the geometry's ways, so a run that switches
    geometries mid-process re-probes rather than reusing a stale
    threshold.  The arena probe is explicitly *uncharged*
    on the metrics registry — calibration must not count as a data-plane
    allocation.  Results clamp to [:data:`CROSSOVER_FLOOR`,
    :data:`CROSSOVER_CEIL`]; any measurement failure falls back to
    :data:`DEFAULT_CROSSOVER`.
    """
    workers = max(2, int(workers))
    geometry = geometry if geometry is not None else CacheGeometry()
    key = (workers, geometry)
    if not refresh and key in _CALIBRATED:
        return _CALIBRATED[key]
    try:
        probe = 16_384
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 1 << 24, size=probe, dtype=np.uint64)
        ips = np.zeros(probe, dtype=np.uint64)
        cache = SetAssociativeCache(geometry, policy="lru", seed=0)
        per_access = min(
            _timed_seconds(lambda: cache.access_arrays(addresses, ips))
            for _ in range(3)
        ) / probe

        arena_cost = _timed_seconds(
            lambda: SharedTraceArena.create(
                DEFAULT_BATCH_SIZE, workers, charge_metrics=False
            ).close()
        )
        context = default_mp_context()

        def spawn_probe() -> None:
            process = context.Process(target=_noop)
            with fork_lock():
                process.start()
            process.join()

        fixed = arena_cost + workers * _timed_seconds(spawn_probe)
        saving = per_access * (1.0 - 1.0 / workers)
        crossover = int(fixed / max(saving, 1e-12))
    except Exception:  # pragma: no cover - calibration must never fail hard
        crossover = DEFAULT_CROSSOVER
    crossover = max(CROSSOVER_FLOOR, min(CROSSOVER_CEIL, crossover))
    _CALIBRATED[key] = crossover
    return crossover


def _timed_seconds(action: Callable[[], object]) -> float:
    start = time.perf_counter()
    action()
    return time.perf_counter() - start


class ShardedCacheSimulator:
    """A drop-in cache for ``AddressSampler.run_batched``, sharded over
    worker processes with a shared-memory data plane.

    Duck-types the slice of :class:`SetAssociativeCache` the batched
    sampler uses — ``access_batch`` / ``stats`` / ``flush_metrics`` /
    ``geometry`` — while farming the per-set state machines out to one
    process per shard.  Workers and the arena are created lazily on
    first access and must be released with :meth:`close` (or a ``with``
    block); close unlinks the shared segment even when a worker died
    mid-batch.

    With ``record_misses=True`` the simulator additionally accumulates
    each shard's miss set indices at their global miss ordinals as a
    byproduct of the scatter (reusing the worker-computed miss masks),
    so :meth:`rcd_analysis` yields the full RCD analysis with no second
    simulation pass.
    """

    def __init__(
        self,
        geometry: Optional[CacheGeometry] = None,
        policy: str = "lru",
        seed: int = 0,
        workers: int = 2,
        mp_context: Any = None,
        record_misses: bool = False,
    ) -> None:
        self.geometry = geometry or CacheGeometry()
        self.policy_name = policy.lower()
        self.seed = seed
        self.bounds = shard_boundaries(self.geometry.num_sets, workers)
        self._highs = np.asarray(
            [high for _, high in self.bounds], dtype=np.int64
        )
        self._context = mp_context or default_mp_context()
        self._shards: Optional[List[tuple]] = None  # [(process, conn), ...]
        self._arena: Optional[SharedTraceArena] = None
        self._totals = [(0, 0, 0, 0, 0)] * len(self.bounds)
        self._flushed = (0, 0, 0, 0, 0)
        self._stats_cache: Optional[CacheStats] = None
        self._bytes_shipped = 0
        self._bytes_flushed = 0
        self._batches = 0
        self._batches_flushed = 0
        self._kernel_status: Optional[str] = None
        self.record_misses = record_misses
        self._miss_sets: List[List[np.ndarray]] = [[] for _ in self.bounds]
        self._miss_positions: List[List[np.ndarray]] = [
            [] for _ in self.bounds
        ]
        self._miss_total = 0

    @property
    def workers(self) -> int:
        """Actual shard/worker count (may be below the requested K)."""
        return len(self.bounds)

    @property
    def bytes_shipped(self) -> int:
        """Cumulative pipe bytes moved (control traffic, both ways)."""
        return self._bytes_shipped

    def _ensure_pool(self, capacity_hint: int) -> None:
        if self._shards is not None:
            return
        if self.policy_name == "lru":
            # Build or load the compiled LRU loop once, before the forks:
            # workers inherit it instead of each compiling it.
            self._kernel_status = lru_kernel.load().reason
        arena = SharedTraceArena.create(
            max(int(capacity_hint), DEFAULT_BATCH_SIZE), len(self.bounds)
        )
        self._arena = arena
        shards = []
        for index in range(len(self.bounds)):
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    self.geometry,
                    self.policy_name,
                    self.seed,
                    arena.name,
                    arena.capacity,
                    arena.workers,
                    index,
                ),
                daemon=True,
            )
            # Forks serialize against tracker-touching segment ops; see
            # fork_lock.  A concurrent thread mid-attach at fork time
            # would hand the child a dead-locked tracker.
            with fork_lock():
                process.start()
            child_conn.close()
            shards.append((process, parent_conn))
        self._shards = shards

    def _ensure_capacity(self, count: int) -> None:
        """Grow the arena when a batch (e.g. after line splitting)
        exceeds its record capacity, remapping every worker."""
        arena = self._arena
        if count <= arena.capacity:
            return
        grown = SharedTraceArena.create(
            max(int(count), arena.capacity * 2), arena.workers
        )
        for _, conn in self._shards:
            self._send(conn, ("remap", grown.name, grown.capacity))
        # Unlinking while workers still hold the old mapping is safe
        # (POSIX keeps pages until the last map drops); pipe FIFO order
        # guarantees each worker remaps before its next batch.
        arena.close()
        self._arena = grown

    # -- control-plane pipe traffic (exact byte accounting) --------------

    def _send(self, conn: Any, message: tuple) -> None:
        payload = pickle.dumps(message)
        try:
            conn.send_bytes(payload)
        except (BrokenPipeError, OSError) as exc:
            raise SamplingError(
                f"shard worker pipe closed mid-{message[0]} "
                "(worker died?)"
            ) from exc
        self._bytes_shipped += len(payload)

    def _recv(self, index: int, process: Any, conn: Any) -> tuple:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise SamplingError(
                f"shard worker {index} (sets "
                f"{self.bounds[index][0]}..{self.bounds[index][1] - 1}) "
                f"died mid-batch (exit code {process.exitcode})"
            ) from exc
        self._bytes_shipped += len(payload)
        return pickle.loads(payload)

    # -- SetAssociativeCache-compatible surface --------------------------

    def access_batch(
        self, batch: TraceBatch, *, split_lines: bool = False
    ) -> BatchResult:
        """Sharded :meth:`SetAssociativeCache.access_batch`."""
        addresses = batch.address
        ips = batch.ip
        if split_lines:
            addresses, ips = split_line_straddlers(
                self.geometry, addresses, ips, batch.size
            )
        result = self.access_arrays(addresses, ips)
        self.flush_metrics()
        return result

    def access_arrays(
        self, addresses: np.ndarray, ips: np.ndarray
    ) -> BatchResult:
        """Run one batch's columns through the shared arena and merge.

        The columns and the shard-partitioned position array are written
        to the arena once; workers receive only ``(offset, count)``
        descriptors.  Sends are issued to every worker before any reply
        is awaited, so shards simulate concurrently; the parent never
        sends batch N+1 before collecting all of batch N, which bounds
        result-region reuse and rules out send/recv deadlock.
        """
        geometry = self.geometry
        set_idx = geometry.set_indices(addresses)
        tags = geometry.tags(addresses)
        count = int(addresses.size)
        hit = np.zeros(count, dtype=bool)
        cold = np.zeros(count, dtype=bool)
        evicted = np.zeros(count, dtype=bool)
        evicted_tag = np.zeros(count, dtype=np.uint64)
        result = BatchResult(hit, set_idx, tags, evicted, evicted_tag, cold)
        if not count:
            return result

        self._ensure_pool(count)
        self._ensure_capacity(count)
        arena = self._arena
        np.copyto(arena.address[:count], addresses)
        np.copyto(arena.ip[:count], ips)
        order, offsets = _partition_by_shard(set_idx, self._highs)
        np.copyto(arena.positions[:count], order)

        for index, (_, conn) in enumerate(self._shards):
            self._send(
                conn,
                (
                    "batch",
                    int(offsets[index]),
                    int(offsets[index + 1] - offsets[index]),
                ),
            )
        for index, (process, conn) in enumerate(self._shards):
            reply = self._recv(index, process, conn)
            tag_count, totals = reply[1], reply[2]
            shard_count = int(offsets[index + 1] - offsets[index])
            positions = order[offsets[index] : offsets[index + 1]]
            flags = arena.flags(index)[:shard_count]
            hit[positions] = (flags & 1) != 0
            cold[positions] = (flags & 2) != 0
            shard_evicted = (flags & 4) != 0
            evicted[positions] = shard_evicted
            if tag_count:
                evicted_tag[positions[shard_evicted]] = arena.tags(index)[
                    :tag_count
                ]
            self._totals[index] = totals
        self._batches += 1
        if self.record_misses:
            self._record_batch_misses(set_idx, hit, order, offsets)
        self._stats_cache = None
        return result

    def _record_batch_misses(
        self,
        set_idx: np.ndarray,
        hit: np.ndarray,
        order: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        """Accumulate per-shard miss columns from this batch's results.

        Reuses the worker-computed miss masks (``~hit``) — no second
        simulation or set-index pass.  Positions are *global miss
        ordinals* (index within the whole run's miss sequence), which is
        what per-shard RCD pieces need to merge back into the exact
        global analysis; they are derived from a batch-local cumsum plus
        the running total, data only the parent holds.
        """
        miss_mask = ~hit
        ordinals = np.cumsum(miss_mask, dtype=np.int64)
        batch_misses = int(ordinals[-1]) if ordinals.size else 0
        ordinals += self._miss_total - 1
        for index in range(len(self.bounds)):
            positions = order[offsets[index] : offsets[index + 1]]
            miss_positions = positions[miss_mask[positions]]
            if miss_positions.size:
                self._miss_sets[index].append(
                    set_idx[miss_positions].astype(np.int64)
                )
                self._miss_positions[index].append(ordinals[miss_positions])
        self._miss_total += batch_misses

    def rcd_analysis(self) -> RcdArrayAnalysis:
        """RCD analysis from the miss columns recorded during simulate.

        Requires ``record_misses=True``; merges the per-shard pieces on
        global miss ordinal, exactly like
        :meth:`ShardedBackend.rcd_from_set_sequence` — but without ever
        re-entering the simulate pass.
        """
        if not self.record_misses:
            raise SamplingError(
                "rcd_analysis() needs record_misses=True at construction"
            )
        pieces = []
        empty = np.empty(0, dtype=np.int64)
        for index in range(len(self.bounds)):
            if self._miss_sets[index]:
                pieces.append(
                    compute_rcd_arrays(
                        np.concatenate(self._miss_sets[index]),
                        positions=np.concatenate(self._miss_positions[index]),
                    )
                )
            else:
                pieces.append((empty, empty, empty))
        sets, rcds, positions = merge_rcd_pieces(pieces)
        return RcdArrayAnalysis(
            num_sets=self.geometry.num_sets,
            set_index=sets,
            rcd=rcds,
            position=positions,
            total_misses=self._miss_total,
        )

    @property
    def stats(self) -> CacheStats:
        """Merged stats across shards (field-wise sums; cached per batch)."""
        if self._stats_cache is not None:
            return self._stats_cache
        if self._shards is None:
            merged = CacheStats(geometry=self.geometry)
        else:
            for _, conn in self._shards:
                self._send(conn, ("stats",))
            parts = [
                self._recv(index, process, conn)
                for index, (process, conn) in enumerate(self._shards)
            ]
            merged = parts[0]
            for part in parts[1:]:
                merged = merged.merge(part)
        self._stats_cache = merged
        return merged

    def flush_metrics(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Delta high-water-mark flush over the merged shard totals.

        Same scheme as :meth:`SetAssociativeCache.flush_metrics`, driven
        by the cumulative totals each worker reports with every batch —
        no extra IPC round-trip, and per-run ``cache.*`` counter totals
        identical to the single-process engines.  Also charges the
        sharded data plane's own telemetry: ``engine.sharded.ipc.
        bytes_shipped`` (exact control-pipe bytes, both directions),
        ``engine.sharded.batches`` and, for LRU, the ``engine.kernel.*``
        counter of the compiled-loop status the workers inherit.
        """
        registry = registry if registry is not None else get_registry()
        if not registry.enabled:
            return
        totals = tuple(
            sum(shard_totals[index] for shard_totals in self._totals)
            for index in range(5)
        )
        names = (
            "cache.accesses",
            "cache.hits",
            "cache.misses",
            "cache.evictions",
            "cache.cold_misses",
        )
        for name, new, old in zip(names, totals, self._flushed):
            if new != old:
                registry.counter(name).inc(new - old)
        self._flushed = totals
        if self._bytes_shipped != self._bytes_flushed:
            registry.counter("engine.sharded.ipc.bytes_shipped").inc(
                self._bytes_shipped - self._bytes_flushed
            )
            self._bytes_flushed = self._bytes_shipped
        if self._batches != self._batches_flushed:
            batches = self._batches - self._batches_flushed
            registry.counter("engine.sharded.batches").inc(batches)
            if self._kernel_status is not None:
                registry.counter(
                    lru_kernel.counter_name(self._kernel_status)
                ).inc(batches)
            self._batches_flushed = self._batches

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down and unlink the arena (idempotent).

        Safe after worker crashes: close/join errors never skip the
        arena unlink, so no segment outlives the simulator."""
        shards, self._shards = self._shards, None
        if shards is not None:
            for _, conn in shards:
                try:
                    conn.send_bytes(pickle.dumps(("close",)))
                except (BrokenPipeError, OSError):
                    pass
                conn.close()
            for process, _ in shards:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(timeout=1.0)
        arena, self._arena = self._arena, None
        if arena is not None:
            arena.close()

    def __enter__(self) -> "ShardedCacheSimulator":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort leak guard
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass


class ShardedBackend(EngineBackend):
    """Multiprocess engine: contiguous set shards, one worker each.

    Args:
        workers: Shard/worker count; ``None`` (default) uses the host's
            usable CPU count.  Clamped to ``num_sets`` at run time.
        crossover: Known trace lengths below this fall back to the
            batched engine (process startup + arena setup dominates).
            ``None`` (default) auto-calibrates the threshold from
            measured per-access and fixed costs on first use
            (:func:`calibrated_crossover`); traces of unknown length
            (generators) are assumed large either way.
        rcd_crossover: Miss sequences below this compute their RCD shards
            serially (the merge is identical; only wall-clock differs).
        mp_context: Explicit multiprocessing context (tests use this).
    """

    name = "sharded"
    capabilities = frozenset({"columnar", "parallel", "zero-copy"})

    def __init__(
        self,
        workers: Optional[int] = None,
        crossover: Optional[int] = None,
        rcd_crossover: int = DEFAULT_RCD_CROSSOVER,
        mp_context: Any = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise SamplingError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.crossover = crossover if crossover is None else int(crossover)
        self.rcd_crossover = rcd_crossover
        self.mp_context = mp_context

    def configure(self, **options: Any) -> "ShardedBackend":
        known = {"workers", "crossover", "rcd_crossover"}
        unknown = sorted(set(options) - known)
        if unknown:
            raise SamplingError(
                f"engine {self.name!r} accepts no option(s): "
                + ", ".join(unknown)
            )
        return ShardedBackend(
            workers=options.get("workers", self.workers),
            crossover=options.get("crossover", self.crossover),
            rcd_crossover=int(
                options.get("rcd_crossover", self.rcd_crossover)
            ),
            mp_context=self.mp_context,
        )

    def worker_count(self, num_sets: int) -> int:
        """Effective shard count for a geometry."""
        workers = (
            self.workers if self.workers is not None else available_workers()
        )
        return max(1, min(int(workers), int(num_sets)))

    def effective_crossover(
        self, workers: int, geometry: Optional[CacheGeometry] = None
    ) -> int:
        """The crossover in force: pinned value or per-host calibration."""
        if self.crossover is not None:
            return self.crossover
        return calibrated_crossover(workers, geometry)

    def _fall_back(self, geometry: CacheGeometry, trace: Any) -> bool:
        workers = self.worker_count(geometry.num_sets)
        if workers <= 1:
            return True
        length = known_trace_length(trace)
        return length is not None and length < self.effective_crossover(
            workers, geometry
        )

    def sample(
        self,
        sampler: AddressSampler,
        trace: Any,
        budget: Optional[SamplingBudget] = None,
    ) -> SamplingResult:
        if self._fall_back(sampler.geometry, trace):
            return get_backend("batched").sample(sampler, trace, budget=budget)
        simulator = ShardedCacheSimulator(
            sampler.geometry,
            policy=sampler.policy,
            workers=self.worker_count(sampler.geometry.num_sets),
            mp_context=self.mp_context,
        )
        with simulator:
            return sampler.run_batched(trace, budget=budget, cache=simulator)

    def simulate(
        self,
        trace: Any,
        geometry: Optional[CacheGeometry] = None,
        policy: str = "lru",
        seed: int = 0,
        split_lines: bool = True,
        batch_size: Optional[int] = None,
    ) -> CacheStats:
        geometry = geometry or CacheGeometry()
        if self._fall_back(geometry, trace):
            return get_backend("batched").simulate(
                trace,
                geometry=geometry,
                policy=policy,
                seed=seed,
                split_lines=split_lines,
                batch_size=batch_size,
            )
        simulator = ShardedCacheSimulator(
            geometry,
            policy=policy,
            seed=seed,
            workers=self.worker_count(geometry.num_sets),
            mp_context=self.mp_context,
        )
        with simulator:
            for batch in as_batches(trace, batch_size or DEFAULT_BATCH_SIZE):
                simulator.access_batch(batch, split_lines=split_lines)
            return simulator.stats

    def simulate_with_rcd(
        self,
        trace: Any,
        geometry: Optional[CacheGeometry] = None,
        policy: str = "lru",
        seed: int = 0,
        split_lines: bool = False,
        batch_size: Optional[int] = None,
    ) -> Tuple[CacheStats, RcdArrayAnalysis]:
        """One fused pass: simulate the trace AND derive the exact RCD
        analysis from the same run's miss masks.

        Previously a sharded exact-RCD measurement simulated once for
        stats and then re-derived the miss sequence in a second pass
        (ROADMAP item 1's recompute complaint); here the per-shard miss
        columns accumulate during the (single) simulate, so the analysis
        is free.  ``split_lines`` defaults to ``False`` — the semantics
        of :class:`~repro.core.exact.ExactRcdMeasurer`.
        """
        geometry = geometry or CacheGeometry()
        if self._fall_back(geometry, trace):
            cache = SetAssociativeCache(geometry, policy=policy, seed=seed)
            miss_sets: List[np.ndarray] = []
            for batch in as_batches(trace, batch_size or DEFAULT_BATCH_SIZE):
                result = cache.access_batch(batch, split_lines=split_lines)
                miss_sets.append(result.set_index[~result.hit].astype(np.int64))
            sequence = (
                np.concatenate(miss_sets)
                if miss_sets
                else np.empty(0, dtype=np.int64)
            )
            return cache.stats, RcdArrayAnalysis.from_set_sequence(
                sequence, geometry.num_sets
            )
        simulator = ShardedCacheSimulator(
            geometry,
            policy=policy,
            seed=seed,
            workers=self.worker_count(geometry.num_sets),
            mp_context=self.mp_context,
            record_misses=True,
        )
        with simulator:
            for batch in as_batches(trace, batch_size or DEFAULT_BATCH_SIZE):
                simulator.access_batch(batch, split_lines=split_lines)
            return simulator.stats, simulator.rcd_analysis()

    def rcd_from_addresses(
        self, addresses: Any, geometry: CacheGeometry
    ) -> RcdArrayAnalysis:
        if not isinstance(addresses, np.ndarray):
            addresses = np.fromiter(
                (int(address) for address in addresses), dtype=np.uint64
            )
        sequence = geometry.set_indices(addresses).astype(np.int64)
        return self.rcd_from_set_sequence(sequence, geometry.num_sets)

    def rcd_from_set_sequence(
        self, set_sequence: Sequence[int], num_sets: int
    ) -> RcdArrayAnalysis:
        """Sharded RCD: per-shard columns at global positions, merged.

        Each shard computes observations for *its* sets only, carrying
        the misses' global sequence positions; concatenating the pieces
        and sorting on position reproduces the global analysis exactly
        (RCDs pair consecutive misses of one set, and each set lives
        wholly inside one shard).  The partition is a single stable
        argsort over shard ids, not one boolean-mask scan per shard.
        """
        sequence = np.asarray(set_sequence, dtype=np.int64)
        workers = self.worker_count(num_sets)
        if workers <= 1:
            return RcdArrayAnalysis.from_set_sequence(sequence, num_sets)
        bounds = shard_boundaries(num_sets, workers)
        highs = np.asarray([high for _, high in bounds], dtype=np.int64)
        order, offsets = _partition_by_shard(sequence, highs)
        tasks = []
        for index in range(len(bounds)):
            positions = order[offsets[index] : offsets[index + 1]]
            tasks.append((sequence[positions], positions))
        if sequence.size >= self.rcd_crossover:
            context = self.mp_context or default_mp_context()
            with context.Pool(processes=workers) as pool:
                pieces = pool.starmap(_rcd_shard, tasks)
        else:
            pieces = [_rcd_shard(subseq, pos) for subseq, pos in tasks]
        sets, rcds, positions = merge_rcd_pieces(pieces)
        return RcdArrayAnalysis(
            num_sets=num_sets,
            set_index=sets,
            rcd=rcds,
            position=positions,
            total_misses=int(sequence.size),
        )
