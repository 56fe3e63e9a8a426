"""Time one set-up of a workload in a fresh interpreter; print seconds.

Set-up is what a user waits for before the first job can run: importing
the program, resolving the engine backend and, for ``service_mix``,
starting the daemon.  The time is corrected for the host's speed like
every other time of the benchmark (``hostspeed.py``), with reference-loop
samples taken just before and after.  Run by ``bench.py`` several times
per run::

    python3 perfbench/setup_probe.py service_mix
"""

import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]
from perfbench.hostspeed import NOMINAL_S, reference_s  # noqa: E402

BEFORE = reference_s()
START = time.perf_counter()
sys.path[:0] = [str(ROOT / "src")]


def main(workload: str) -> float:
    from repro.core.profiler import CCProf  # noqa: F401
    from repro.engine import get_backend
    from repro.workloads.registry import resolve_workload  # noqa: F401

    get_backend("batched")
    if workload == "service_mix":
        import asyncio

        from perfbench.service_mix import make_service

        async def start_daemon() -> float:
            service = make_service(workdir)
            await service.start()
            ready = time.perf_counter()
            await service.stop()
            return ready

        parent = ROOT / ".bench_build" / "perfbench"
        parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            workdir = Path(tmp).relative_to(ROOT)
            return asyncio.run(start_daemon()) - START
    return time.perf_counter() - START


if __name__ == "__main__":
    elapsed = main(sys.argv[1])
    print(elapsed * NOMINAL_S / statistics.mean((BEFORE, reference_s())))
