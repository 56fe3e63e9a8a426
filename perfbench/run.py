"""End-to-end CCProf benchmark: entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload casestudies --seed 0 --seconds 15 --trace 0

The run itself is ``measure.py``, started here in a process group of its
own.  The program starts helper processes of its own: the sharded
engine's worker pool and the resource tracker that ``multiprocessing``
starts for shared memory, which outlives the process that started it.
So this process makes itself the subreaper of everything below it,
waits for the run to end, gives the helpers :data:`GRACE_S` seconds to
end by themselves, kills what is left of the group and reaps every
process before it exits; a signal kills the group at once.  It
prints nothing itself and exits with the run's exit code.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

MEASURE = Path(__file__).resolve().parent / "measure.py"
#: Seconds the helper processes get to end by themselves after the run.
GRACE_S = 10.0
#: Seconds to wait for the group to go after it has been killed.
KILL_WAIT_S = 10.0
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, value: int) -> bool:
    """Linux ``prctl``; False where it is not available."""
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _in_child() -> None:
    os.setpgid(0, 0)
    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def _reap() -> None:
    """Collect every child that has ended, adopted ones included."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _end_group(pgid: int, grace_s: float) -> None:
    """Wait up to ``grace_s`` for the group to end, then kill and reap it."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        _reap()
        if not _group_alive(pgid):
            return
        if time.monotonic() >= deadline:
            if killed:
                print(f"perfbench: process group {pgid} outlived SIGKILL",
                      file=sys.stderr)
                return
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
            deadline = time.monotonic() + KILL_WAIT_S
        time.sleep(0.02)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    _prctl(_PR_SET_CHILD_SUBREAPER, 1)
    child = subprocess.Popen([sys.executable, str(MEASURE), *args],
                             preexec_fn=_in_child)
    stopped_by: List[int] = []

    def stop(signum: int, _frame: object) -> None:
        stopped_by.append(signum)
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    try:
        code = child.wait()
    finally:
        _end_group(child.pid, 0.0 if stopped_by else GRACE_S)
    if stopped_by:
        return 128 + stopped_by[0]
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
