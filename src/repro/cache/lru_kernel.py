"""Compiled LRU inner loop for :meth:`SetAssociativeCache.access_arrays`.

``lru_kernel.c`` ships next to this module.  On the first LRU batch of a
process (never at import) it is compiled with the system C compiler into
a per-user cache directory (``$XDG_CACHE_HOME/repro/kernels``, default
``~/.cache/repro/kernels``), under a file name keyed by the hash of the
source and the flags, and loaded with :mod:`ctypes`.  Later processes
load the cached library without compiling.

Concurrent first use is safe: threads of one process serialize on a
lock, and the library is written to a temporary file and moved into
place with :func:`os.replace`, so a process never loads a half-written
file even when several processes (sharded workers, say) compile at once.

Without a compiler, with a failed build or an unwritable cache
directory, :func:`load` reports ``None`` and a reason; the cache then
keeps its Python per-set loop, and the reason is logged once per process
and charged per LRU batch to the metrics registry (``engine.kernel.*``).
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.errors import GeometryError

if TYPE_CHECKING:
    from ctypes import CDLL

SOURCE = Path(__file__).with_name("lru_kernel.c")
#: Compiler command; resolved on ``PATH``.
COMPILER = "cc"
#: Portable code only (no ``-march=native``): a cached library may be
#: loaded on another machine sharing the home directory.
FLAGS = ("-O2", "-shared", "-fPIC")
#: A compiler that hangs must not hang the first batch forever.
BUILD_TIMEOUT_S = 120


class KernelStatus(NamedTuple):
    """Outcome of loading the kernel.

    Attributes:
        library: The loaded library, or None on fallback.
        reason: ``"compiled"``, or why the Python loop is used instead
            (``no_compiler``, ``build_failed``, ``unwritable``,
            ``load_failed``, ``disabled``).
    """

    library: Optional[CDLL]
    reason: str


def counter_name(status: str) -> str:
    """Metrics counter charged once per LRU batch run with ``status``:
    ``engine.kernel.compiled``, or ``engine.kernel.fallback.<reason>``."""
    if status == "compiled":
        return "engine.kernel.compiled"
    return f"engine.kernel.fallback.{status}"


#: The process's resolved kernel; None until the first LRU batch.
#: Tests monkeypatch it (``KernelStatus(None, "disabled")`` switches the
#: compiled loop off).
_status: Optional[KernelStatus] = None
_lock = threading.Lock()


def _reset_lock_in_child() -> None:
    # A fork while another thread builds would hand the child a held
    # lock; the child builds (or loads) on its own instead.
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_in_child)


def load() -> KernelStatus:
    """The kernel for this process, building it on first call."""
    global _status
    status = _status
    if status is None:
        with _lock:
            status = _status
            if status is None:
                status = _status = _build_and_load()
                if status.library is None:
                    import logging

                    logging.getLogger(__name__).warning(
                        "compiled LRU loop unavailable (%s); using the Python "
                        "per-set loop", status.reason,
                    )
    return status


def _build_and_load() -> KernelStatus:
    # Imported on first use, not at import: setup time stays flat.
    import ctypes
    import hashlib
    import shutil
    import subprocess
    import tempfile

    compiler = shutil.which(COMPILER)
    if compiler is None:
        return KernelStatus(None, "no_compiler")
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()[:16]
    directory = Path(
        os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    ) / "repro" / "kernels"
    path = directory / f"lru_kernel-{key}.so"
    if not path.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
            handle, scratch = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(handle)
        except OSError:
            return KernelStatus(None, "unwritable")
        try:
            build = subprocess.run(
                [compiler, *FLAGS, "-o", scratch, str(SOURCE)],
                capture_output=True,
                check=False,
                timeout=BUILD_TIMEOUT_S,
            )
            if build.returncode != 0:
                return KernelStatus(None, "build_failed")
            os.replace(scratch, path)
        except (OSError, subprocess.TimeoutExpired):
            return KernelStatus(None, "build_failed")
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
    try:
        library = ctypes.CDLL(str(path))
        access, seen_add = library.lru_access, library.seen_add
    except (OSError, AttributeError):
        return KernelStatus(None, "load_failed")
    u64 = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    flag = np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS")
    count = ctypes.c_int64
    access.argtypes = [
        count, u64, u64, u64, u64, i64, count, u64, i64, flag, flag, flag, u64,
    ]
    access.restype = None
    seen_add.argtypes = [count, u64, u64, i64]
    seen_add.restype = None
    return KernelStatus(library, "compiled")


class LruTable:
    """LRU cache state in the kernel's layout.

    ``resident`` is ``(sets, ways)``, each row most recent first, with
    ``fill`` tags used per set; ``seen`` is the hash set of every line
    ever referenced (layout in ``lru_kernel.c``).  Built from, and turned
    back into, the Python form: per-set recency lists and a set of lines.
    """

    def __init__(
        self,
        library: CDLL,
        lru_sets: List[List[int]],
        seen_lines: Set[int],
        ways: int,
    ) -> None:
        self.library = library
        self.ways = ways
        self.fill = np.fromiter(
            map(len, lru_sets), dtype=np.int64, count=len(lru_sets)
        )
        self.resident = np.zeros((len(lru_sets), ways), dtype=np.uint64)
        for index in np.flatnonzero(self.fill).tolist():
            self.resident[index, : len(lru_sets[index])] = lru_sets[index]
        self.seen = np.zeros(0, dtype=np.uint64)
        self.meta = np.zeros(3, dtype=np.int64)  # entries, line 0 seen, log2 slots
        self._rehash(
            np.fromiter(seen_lines, dtype=np.uint64, count=len(seen_lines))
        )

    def to_python(self) -> Tuple[List[List[int]], Set[int]]:
        """The same state as per-set recency lists and a set of lines."""
        lru_sets = [
            row[:used]
            for row, used in zip(self.resident.tolist(), self.fill.tolist())
        ]
        seen_lines = set(self.seen[self.seen != 0].tolist())
        if self.meta[1]:
            seen_lines.add(0)
        return lru_sets, seen_lines

    def _rehash(self, lines: np.ndarray, incoming: int = 0) -> None:
        """Rebuild ``seen`` from ``lines``, sized for ``incoming`` more."""
        slots = 2 * (lines.size + incoming)
        self.meta[0] = 0
        self.meta[2] = max(4, (slots - 1).bit_length())
        self.seen = np.zeros(1 << int(self.meta[2]), dtype=np.uint64)
        self.library.seen_add(lines.size, lines, self.seen, self.meta)

    def access(
        self,
        set_idx: np.ndarray,
        tags: np.ndarray,
        lines: np.ndarray,
        hit: np.ndarray,
        cold: np.ndarray,
        evicted: np.ndarray,
        evicted_tag: np.ndarray,
    ) -> None:
        """One compiled pass over a batch, in trace order."""
        count = int(set_idx.size)
        if int(set_idx.max()) >= self.fill.size:
            raise GeometryError(f"set index out of range for {self.fill.size} sets")
        if 2 * (int(self.meta[0]) + count) > self.seen.size:
            self._rehash(self.seen[self.seen != 0], count)
        self.library.lru_access(
            count, set_idx, tags, lines, self.resident, self.fill, self.ways,
            self.seen, self.meta, hit, cold, evicted, evicted_tag,
        )
