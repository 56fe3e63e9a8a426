"""One benchmark run, in the process ``run.py`` starts and cleans up after.

Usage (from the root of a checkout; ``run.py`` takes the same arguments)::

    python3 perfbench/measure.py --workload casestudies --seed 0 --seconds 15 --trace 0

Workloads (see ``perfbench/design.json`` for why each was chosen):

- ``casestudies``: ``CCProf(period=UniformJitterPeriod(1212), seed).run()``
  plus render on the paper's seven case studies, original and optimized;
- ``setwalk``: ``MonitorSession.profile`` + ``OfflineAnalyzer.analyze``
  on a NumPy-built power-of-two column walk, unpadded and padded;
- ``service_mix``: two closed-loop clients against an in-process daemon.

Each workload repeats a fixed set of jobs built from ``--seed`` until
``--seconds`` have passed (always finishing the pass it is in), checks
every job's output, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no benchmark spans; with
``--trace 1`` they are the per-layer ones from a separate traced run in
the same process (``perfbench/layers.py``), whose spans are written to
``.bench_build/perfbench/spans-<workload>-<seed>.jsonl``.

The benchmark only calls the program's public functions; nothing under
``src/`` is changed for it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("casestudies", "setwalk", "service_mix")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Relative paths from here on: the daemon's unix socket path must stay
    # short wherever the checkout sits.
    os.chdir(ROOT)
    from perfbench.bench import run_workload

    workdir = Path(".bench_build", "perfbench", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
