"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``.

They check the benchmark, not the program: its inputs are a function of
the seed, its metric names and units are well formed and recorded in
``BENCHMARK.json`` and ``perfbench/design.json``, a smoke-sized pass of
every workload completes with no failed operation, ``run.py`` refuses
to run where there is no program, and it leaves no process behind.
"""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench  # noqa: E402
from perfbench.service_mix import job_rounds  # noqa: E402
from perfbench.setwalk import PHASES, SetWalk  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _columns(phase, seed):
    walk = SetWalk(phase, seed, sweeps=2)
    return np.concatenate([batch.address for batch in walk.trace()])


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_setwalk_columns_follow_the_seed(phase):
    assert np.array_equal(_columns(phase, 7), _columns(phase, 7))
    assert not np.array_equal(_columns(phase, 7), _columns(phase, 8))


def _wire(seed, client):
    rounds = itertools.islice(job_rounds(seed, client), 3)
    return [request.encode() for batch in rounds for request in batch]


def test_service_job_sequence_follows_the_seed():
    assert _wire(7, 0) == _wire(7, 0)
    assert _wire(7, 0) != _wire(8, 0)
    assert _wire(7, 0) != _wire(7, 1)


def test_metric_names_and_units_are_well_formed_and_recorded():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    for section, units in (("end_to_end", bench.END_TO_END_UNITS),
                           ("per_layer", bench.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[section]} == units
        assert set(design[section]) == set(units)
        for name, unit in units.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    assert not set(bench.END_TO_END_UNITS) & set(bench.PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(bench.RUNNERS)
    assert set(design["workloads"]) == set(bench.RUNNERS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(bench.RUNNERS))
def test_smoke_pass_has_no_failed_operation(workload, trace, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workdir = Path(".bench_build", "perfbench", f"test-{workload}-{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = bench.run_workload(workload, 3, 0.1, trace, workdir,
                                    smoke=True, setup_runs=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "setwalk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_leaves_no_process_behind(tmp_path):
    # A stand-in for measure.py that orphans a grandchild, the way the
    # resource tracker of ``multiprocessing`` outlives the run.
    orphaning = tmp_path / "orphaning.py"
    orphaning.write_text(
        "import subprocess, sys\n"
        "child = subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(120)'])\n"
        "print(child.pid)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "from pathlib import Path; from perfbench import run; "
         "run.MEASURE = Path(sys.argv[2]); run.GRACE_S = 0.5; "
         "sys.exit(run.main([]))",
         str(ROOT), str(orphaning)],
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    with pytest.raises(ProcessLookupError):
        os.kill(int(completed.stdout.strip()), 0)
