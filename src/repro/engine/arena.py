"""Shared-memory trace arena: the sharded engine's zero-copy data plane.

PR 7's sharded backend shipped each worker its per-shard address/ip
column *slices* through pickled pipe sends — correct, but the serialize/
copy/deserialize round trip per batch per worker is exactly the IPC
constant BENCH_2a5ed55.json shows eating the parallelism (sharded at
0.41x batched on the CI host).  The arena replaces the payload channel
with one named POSIX shared-memory segment per simulator run
(:mod:`multiprocessing.shared_memory`): the parent writes each batch's
columns into the segment once, workers map the same physical pages and
*gather* their slices directly, and results come back through per-worker
regions of the same segment.  The pipes stay, but carry only tiny
control tuples — ``(segment, offset, length)`` descriptors down,
``("done", ...)`` acknowledgements up — so bytes moved per access drop
from ~16 (two u8 columns, pickled) to well under one.

Segment layout (one segment, all offsets derived from ``capacity`` C and
worker count K)::

    address    C x u8   input column, written by the parent per batch
    ip         C x u8   input column, written by the parent per batch
    positions  C x i8   shard-partitioned record positions (the batch
                        permutation); worker k reads its contiguous run
    per worker k (result region):
      flags    C x u1   bit0=hit, bit1=cold, bit2=evicted, per record
      tags     C x u8   evicted line tags, compacted under the evicted
                        mask (first ``evicted_count`` entries valid)

Lifecycle invariants (the chaos tests scan ``/dev/shm`` for these):

- The *creating* process owns the segment and is the only one that
  unlinks it; :meth:`close` in the owner unlinks even when numpy views
  are still alive somewhere (the name is removed; pages free when the
  last map drops).
- Workers :meth:`attach` by name and detach without unlinking; a worker
  dying mid-batch therefore never strands the segment — the parent's
  ``close()`` (or context-manager exit on the raised
  :class:`~repro.errors.SamplingError`) unlinks it.
- Ownership is pid-guarded: a forked child inheriting the parent's
  arena object can never unlink the live segment from ``__del__`` at
  child exit.
- If the owner is SIGKILLed before unlinking, the stdlib resource
  tracker (which both create and attach register with) unlinks the
  leftover at tracker shutdown — crash-safe cleanup without our code
  running.

Segment names carry the :data:`ARENA_PREFIX` and the creator pid, so
:func:`list_arena_segments` can assert leak-freedom for exactly this
process's arenas without racing other test processes.
"""

from __future__ import annotations

import os
import secrets
import threading
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # the runtime factory has no usable annotation type
    from _thread import RLock as _RLockType

import numpy as np

from repro.errors import SamplingError
from repro.obs.metrics import get_registry

#: Leading component of every arena segment name (``/dev/shm`` scans key
#: on it; keep it unusual enough to never collide with foreign segments).
ARENA_PREFIX = "ccprof-arena"

#: Counter charged once per segment created (calibration probes opt out).
METRIC_CREATED = "engine.sharded.arena.created"

#: Counter charged with each created segment's byte size.
METRIC_BYTES_MAPPED = "engine.sharded.arena.bytes_mapped"

#: Serializes segment create/attach/unlink — every operation that takes
#: the stdlib resource tracker's internal lock — against worker forks.
#: Forking a multi-threaded process (the service daemon: many worker
#: threads, each spawning shard workers) copies every lock in whatever
#: state some other thread left it; a child forked while a sibling
#: thread sat inside the tracker's critical section inherits that lock
#: *held*, deadlocks in :meth:`SharedTraceArena.attach`, and the parent
#: then blocks forever in ``recv``.  Holding one process-wide lock
#: around both the tracker-touching operations and the fork itself
#: (:func:`fork_lock`, taken by the simulator around ``Process.start``)
#: guarantees the tracker lock is free at every fork instant.  Reentrant
#: because a GC-triggered ``__del__`` → ``close()`` can fire on the very
#: thread already inside a locked region.
_FORK_LOCK = threading.RLock()


def fork_lock() -> "_RLockType":
    """The data plane's fork-serialization lock (current instance).

    Returned through a function because the child-side at-fork hook
    rebinds it: the forking thread necessarily holds the lock across
    the fork, so the child would inherit it locked and self-deadlock on
    its first ``attach`` without a fresh instance.
    """
    return _FORK_LOCK


def _refresh_fork_lock() -> None:
    global _FORK_LOCK
    _FORK_LOCK = threading.RLock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython/posix
    os.register_at_fork(after_in_child=_refresh_fork_lock)


def arena_name_prefix(pid: Optional[int] = None) -> str:
    """Name prefix of arenas created by ``pid`` (default: this process)."""
    return f"{ARENA_PREFIX}-{os.getpid() if pid is None else int(pid)}-"


def list_arena_segments(prefix: Optional[str] = None) -> List[str]:
    """Names of live ``/dev/shm`` segments matching ``prefix``.

    Defaults to this process's arenas (:func:`arena_name_prefix`); the
    lifecycle tests call this after kills/shutdowns and assert ``[]``.
    On platforms without a scannable ``/dev/shm`` this returns ``[]``,
    which keeps the assertions vacuously true rather than flaky.
    """
    wanted = prefix if prefix is not None else arena_name_prefix()
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(entry for entry in entries if entry.startswith(wanted))


class SharedTraceArena:
    """One shared-memory segment holding a batch's columns and results.

    Created by the simulator parent (:meth:`create`), attached by shard
    workers (:meth:`attach`).  All numpy views are over the same mapped
    pages; the control protocol's happens-before (worker replies on its
    pipe only after writing its result region) is the only
    synchronization needed.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        capacity: int,
        workers: int,
        owner: bool,
    ) -> None:
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self.capacity = int(capacity)
        self.workers = int(workers)
        self._owner_pid = os.getpid() if owner else None
        self._views: Dict[str, np.ndarray] = {}

    # -- sizing ----------------------------------------------------------

    @staticmethod
    def required_bytes(capacity: int, workers: int) -> int:
        """Segment size for ``capacity`` records and ``workers`` regions.

        8 (address) + 8 (ip) + 8 (positions) shared bytes per record,
        plus 1 (flags) + 8 (tags) per record per worker.
        """
        return int(capacity) * (24 + 9 * int(workers))

    @property
    def name(self) -> str:
        """Segment name (attachable; visible under ``/dev/shm``)."""
        if self._segment is None:
            raise SamplingError("arena is closed")
        return self._segment.name

    # -- construction ----------------------------------------------------

    @classmethod
    def create(
        cls, capacity: int, workers: int, *, charge_metrics: bool = True
    ) -> "SharedTraceArena":
        """Create and own a fresh segment (parent side).

        Charges :data:`METRIC_CREATED` / :data:`METRIC_BYTES_MAPPED`
        unless ``charge_metrics`` is off (the crossover calibration probe
        must not count as a real data-plane allocation — the fallback
        tests assert zero creations on the batched route).
        """
        capacity = int(capacity)
        workers = int(workers)
        if capacity <= 0 or workers <= 0:
            raise SamplingError(
                f"arena needs positive capacity/workers, got "
                f"{capacity}/{workers}"
            )
        name = arena_name_prefix() + secrets.token_hex(6)
        with fork_lock():
            segment = shared_memory.SharedMemory(
                name=name,
                create=True,
                size=cls.required_bytes(capacity, workers),
            )
        if charge_metrics:
            registry = get_registry()
            if registry.enabled:
                registry.counter(METRIC_CREATED).inc()
                registry.counter(METRIC_BYTES_MAPPED).inc(
                    cls.required_bytes(capacity, workers)
                )
        return cls(segment, capacity, workers, owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int, workers: int) -> "SharedTraceArena":
        """Map an existing segment by name (worker side; never unlinks)."""
        try:
            with fork_lock():
                segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError as exc:
            raise SamplingError(
                f"arena segment {name!r} is gone (owner already unlinked?)"
            ) from exc
        return cls(segment, capacity, workers, owner=False)

    # -- views -----------------------------------------------------------

    def _view(self, key: str, offset: int, count: int, dtype: Any) -> np.ndarray:
        view = self._views.get(key)
        if view is None:
            if self._segment is None:
                raise SamplingError("arena is closed")
            view = np.frombuffer(
                self._segment.buf, dtype=dtype, count=count, offset=offset
            )
            self._views[key] = view
        return view

    @property
    def address(self) -> np.ndarray:
        """Input address column (u8, ``capacity`` entries)."""
        return self._view("address", 0, self.capacity, np.uint64)

    @property
    def ip(self) -> np.ndarray:
        """Input ip column (u8, ``capacity`` entries)."""
        return self._view("ip", self.capacity * 8, self.capacity, np.uint64)

    @property
    def positions(self) -> np.ndarray:
        """Shard-partitioned record positions (i8, ``capacity`` entries)."""
        return self._view(
            "positions", self.capacity * 16, self.capacity, np.int64
        )

    def flags(self, worker: int) -> np.ndarray:
        """Worker ``worker``'s per-record result flags (u1 bitfield)."""
        offset = self.capacity * 24 + worker * self.capacity * 9
        return self._view(f"flags{worker}", offset, self.capacity, np.uint8)

    def tags(self, worker: int) -> np.ndarray:
        """Worker ``worker``'s compacted evicted-tag column (u8)."""
        offset = self.capacity * 24 + worker * self.capacity * 9 + self.capacity
        return self._view(f"tags{worker}", offset, self.capacity, np.uint64)

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once this handle released its mapping."""
        return self._segment is None

    def close(self) -> None:
        """Release the mapping; the owning process also unlinks the name.

        Idempotent.  Unlink happens even if the ``mmap`` close is
        blocked by a still-exported numpy view (the name disappears
        immediately either way; pages free when the last map drops).
        """
        segment, self._segment = self._segment, None
        if segment is None:
            return
        self._views.clear()
        with fork_lock():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - caller kept a view alive
                pass
            if self._owner_pid == os.getpid():
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __enter__(self) -> "SharedTraceArena":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort leak guard
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def __repr__(self) -> str:
        state = "closed" if self._segment is None else self._segment.name
        return (
            f"SharedTraceArena({state}, capacity={self.capacity}, "
            f"workers={self.workers})"
        )
