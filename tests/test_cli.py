"""Tests for repro.cli."""

import json

import pytest

from repro.cli import _resolve_workload, build_parser, main
from repro.errors import ReproError
from repro.trace.tracefile import write_dinero_trace
from tests.conftest import make_load


class TestResolveWorkload:
    def test_case_study_original(self):
        workload = _resolve_workload("symmetrization")
        assert workload.name == "symmetrization"

    def test_case_study_optimized(self):
        workload = _resolve_workload("symmetrization:optimized")
        assert "padded" in workload.name

    def test_rodinia_app(self):
        assert _resolve_workload("hotspot").name == "hotspot"

    def test_rodinia_has_no_optimized_variant(self):
        with pytest.raises(ReproError, match="no optimized variant"):
            _resolve_workload("hotspot:optimized")

    def test_unknown_workload(self):
        with pytest.raises(ReproError, match="unknown workload"):
            _resolve_workload("quake")

    def test_unknown_variant(self):
        with pytest.raises(ReproError, match="unknown variant"):
            _resolve_workload("adi:better")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "adi" in out and "hotspot" in out

    def test_simulate(self, tmp_path, capsys):
        trace = tmp_path / "t.din"
        write_dinero_trace(trace, [make_load(i * 64) for i in range(8)])
        assert main(["simulate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Misses" in out

    def test_analyze_writes_result(self, tmp_path, capsys):
        out_file = tmp_path / "symm_result"
        code = main(
            ["analyze", "symmetrization", "--period", "50", "-o", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        assert "CCProf conflict report" in capsys.readouterr().out

    def test_profile_dumps_samples(self, tmp_path, capsys):
        out_file = tmp_path / "samples.jsonl"
        code = main(["profile", "symmetrization", "--period", "50", "-o", str(out_file)])
        assert code == 0
        assert out_file.exists()
        assert "samples" in capsys.readouterr().out

    def test_error_path_returns_one(self, capsys):
        assert main(["analyze", "quake"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAdviseCommand:
    def test_advise_conflicting_workload(self, capsys):
        assert main(["advise", "symmetrization", "--period", "50"]) == 0
        out = capsys.readouterr().out
        assert "padding advice" in out
        assert "B/row" in out

    def test_advise_clean_workload(self, capsys):
        assert main(["advise", "jacobi-2d", "--period", "50"]) == 0
        out = capsys.readouterr().out
        assert "no conflicts flagged" in out


class TestPredictCommand:
    def test_predict_conflicting_workload(self, capsys):
        assert main(["predict", "gemm"]) == 0
        out = capsys.readouterr().out
        assert "trace accesses simulated: 0" in out
        assert "CONFLICT" in out
        assert "padding advice" in out

    def test_predict_clean_workload(self, capsys):
        assert main(["predict", "jacobi-2d"]) == 0
        out = capsys.readouterr().out
        assert "trace accesses simulated: 0" in out
        assert "padding advice" not in out

    def test_predict_optimized_variant(self, capsys):
        assert main(["predict", "gemm:optimized"]) == 0
        assert "CONFLICT" not in capsys.readouterr().out

    def test_predict_stats_flag(self, capsys):
        assert main(["predict", "symmetrization", "--stats"]) == 0
        assert "passes run" in capsys.readouterr().out

    def test_predict_undeclared_workload_is_analysis_family(self, capsys):
        assert main(["predict", "fft"]) == 7
        assert "[analysis]" in capsys.readouterr().err


class TestPhasesCommand:
    def test_phases_output(self, capsys):
        code = main(["phases", "tinydnn", "--period", "101", "--window", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phases of ~128 samples" in out
        assert "CONFLICT" in out

    def test_polybench_names_resolve(self):
        for name in ("gemm", "2mm", "trmm", "jacobi-2d", "fdtd-2d"):
            assert _resolve_workload(name) is not None


class TestExitCodes:
    """Each error family maps to its own nonzero exit code."""

    def test_unknown_workload_is_repro_family(self, capsys):
        assert main(["analyze", "quake"]) == 1
        assert "[repro]" in capsys.readouterr().err

    def test_corrupt_trace_strict_is_trace_family(self, tmp_path, capsys):
        trace = tmp_path / "bad.din"
        trace.write_text("0 zznotahex\n")
        assert main(["simulate", str(trace), "--strict"]) == 4
        assert "[trace]" in capsys.readouterr().err

    def test_bad_cache_spec_is_trace_family(self, tmp_path, capsys):
        trace = tmp_path / "t.din"
        write_dinero_trace(trace, [make_load(0x1000)])
        assert main(["simulate", str(trace), "--cache", "nonsense"]) == 4
        assert "[trace]" in capsys.readouterr().err

    def test_bad_inject_spec_is_sampling_family(self, capsys):
        code = main(["analyze", "adi", "--inject", "cosmic-ray"])
        assert code == 6
        assert "[sampling]" in capsys.readouterr().err

    def test_errors_never_print_tracebacks(self, tmp_path, capsys):
        trace = tmp_path / "bad.din"
        trace.write_text("garbage line here\n" * 3)
        main(["simulate", str(trace), "--strict"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("ccprof: error")


class TestStrictLenient:
    def test_lenient_is_the_default_for_simulate(self, tmp_path, capsys):
        trace = tmp_path / "t.din"
        trace.write_text("0 1000\n0 zznotahex\n0 2000\n")
        assert main(["simulate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace salvage" in out
        assert "quarantined 1" in out

    def test_clean_trace_prints_no_salvage_line(self, tmp_path, capsys):
        trace = tmp_path / "t.din"
        write_dinero_trace(trace, [make_load(i * 64) for i in range(8)])
        assert main(["simulate", str(trace)]) == 0
        assert "trace salvage" not in capsys.readouterr().out

    def test_strict_and_lenient_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "t.din", "--strict", "--lenient"])


class TestFaultInjectionFlags:
    def test_analyze_with_injection_reports_fault_stats(self, capsys):
        code = main(
            ["analyze", "symmetrization", "--period", "50",
             "--inject", "drop:0.2,skid:1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "injected faults" in out
        assert "drop=" in out and "skid=" in out
        assert "DEGRADED" in out

    def test_profile_with_injection_prints_fault_line(self, capsys):
        code = main(
            ["profile", "symmetrization", "--period", "50",
             "--inject", "drop:0.5"]
        )
        assert code == 0
        assert "injected faults:" in capsys.readouterr().out

    def test_profile_max_events_budget_truncates(self, capsys):
        code = main(
            ["profile", "symmetrization", "--period", "50",
             "--max-events", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run truncated: event budget" in out
        assert "200 L1 miss events" in out

    def test_injection_is_seeded_and_reproducible(self, capsys):
        argv = ["profile", "adi", "--period", "50",
                "--inject", "drop:0.3", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestCompareCommand:
    def test_compare_shows_improvement(self, capsys):
        assert main(["compare", "symmetrization", "--period", "101"]) == 0
        out = capsys.readouterr().out
        assert "L1 misses" in out and "reduction" in out
        assert "conflicts flagged: True -> False" in out

    def test_compare_matches_no_obs_run(self, capsys):
        # The compare path reuses cache stats riding on the profiled runs
        # instead of re-simulating; the printed numbers must not change,
        # including under --no-obs where the fallback path re-simulates.
        argv = ["compare", "symmetrization", "--period", "101"]
        assert main(argv) == 0
        default_out = capsys.readouterr().out
        assert main([*argv, "--no-obs"]) == 0
        assert capsys.readouterr().out == default_out


class TestObsFlags:
    def test_quiet_hides_info_lines(self, tmp_path, capsys):
        out_file = tmp_path / "samples.jsonl"
        argv = ["profile", "symmetrization", "--period", "50",
                "-o", str(out_file)]
        assert main(argv) == 0
        assert "wrote" in capsys.readouterr().out
        assert main([*argv, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "wrote" not in out
        assert "samples" in out  # the result line survives

    def test_verbose_adds_spans_and_metrics(self, capsys):
        assert main(["analyze", "symmetrization", "--period", "50", "-v"]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "metrics:" in out
        assert "pmu.samples_emitted" in out

    def test_log_json_events(self, capsys):
        assert main(
            ["profile", "symmetrization", "--period", "50", "--log-json"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert any(r["event"] == "profile.summary" for r in records)
        summary = next(r for r in records if r["event"] == "profile.summary")
        assert summary["samples"] > 0
        assert summary["level"] == "result"

    def test_no_obs_output_identical_to_default(self, capsys):
        argv = ["analyze", "symmetrization", "--period", "50"]
        assert main(argv) == 0
        default_out = capsys.readouterr().out
        assert main([*argv, "--no-obs"]) == 0
        assert capsys.readouterr().out == default_out

    def test_verbose_and_quiet_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["list", "-v", "-q"])


class TestManifests:
    def test_explicit_manifest_path(self, tmp_path, capsys):
        manifest = tmp_path / "run.manifest.json"
        code = main(["analyze", "symmetrization", "--period", "50",
                     "--manifest", str(manifest)])
        assert code == 0
        assert manifest.exists()
        record = json.loads(manifest.read_text())
        assert record["command"] == "analyze"
        assert record["workload"] == "symmetrization"
        assert record["metrics"]["counters"]["pmu.runs"] == 1
        assert "profile" in record["stage_timings"]

    def test_output_gains_sibling_manifest(self, tmp_path, capsys):
        out_file = tmp_path / "samples.jsonl"
        code = main(["profile", "symmetrization", "--period", "50",
                     "-o", str(out_file)])
        assert code == 0
        sibling = tmp_path / "samples.jsonl.manifest.json"
        assert sibling.exists()
        record = json.loads(sibling.read_text())
        assert record["outputs"]["samples"] == str(out_file)

    def test_no_obs_suppresses_manifest(self, tmp_path, capsys):
        out_file = tmp_path / "samples.jsonl"
        code = main(["profile", "symmetrization", "--period", "50",
                     "-o", str(out_file), "--no-obs"])
        assert code == 0
        assert not (tmp_path / "samples.jsonl.manifest.json").exists()

    def test_inspect_renders_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert main(["analyze", "symmetrization", "--period", "50",
                     "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "run manifest: analyze symmetrization" in out
        assert "stages:" in out

    def test_inspect_names_tripped_budget(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert main(["profile", "symmetrization", "--period", "50",
                     "--max-events", "200", "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "tripped budgets: max_events" in out

    def test_inspect_unreadable_manifest_is_manifest_family(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "nope.json"
        assert main(["inspect", str(missing)]) == 11
        assert "[manifest]" in capsys.readouterr().err


class TestSelfOverheadCommand:
    def test_requires_the_headline_workload(self, capsys):
        assert main(["profile", "adi", "--self-overhead"]) == 1
        assert "lru_stream" in capsys.readouterr().err

    def test_quick_measurement_runs(self, capsys):
        code = main(["profile", "lru_stream", "--self-overhead", "--quick"])
        out = capsys.readouterr().out
        assert "self-overhead (lru_stream" in out
        assert code in (0, 1)  # verdict depends on machine noise

    def test_lru_stream_profiles_without_flag(self, capsys):
        # lru_stream is a registered workload (the perf headline), so a
        # plain profile run works; --self-overhead remains the overhead
        # measurement mode on top of it.
        assert main(["profile", "lru_stream"]) == 0
        assert "lru_stream" in capsys.readouterr().out

    def test_compare_rejects_variant_suffix(self, capsys):
        assert main(["compare", "adi:optimized"]) == 1
        assert "bare name" in capsys.readouterr().err

    def test_compare_rejects_rodinia_app(self, capsys):
        assert main(["compare", "hotspot"]) == 1
        assert "no optimized variant" in capsys.readouterr().err


class TestEngineFlags:
    """--engine NAME picks the simulation engine backend."""

    def test_engine_scalar_profiles(self, capsys):
        code = main(
            ["profile", "symmetrization", "--period", "50",
             "--engine", "scalar"]
        )
        assert code == 0
        assert "samples" in capsys.readouterr().out

    def test_engine_sharded_with_workers(self, capsys):
        # Small workload: the sharded backend's crossover heuristic
        # routes it through batched — the flag spelling still works.
        code = main(
            ["profile", "symmetrization", "--period", "50",
             "--engine", "sharded", "--engine-workers", "2"]
        )
        assert code == 0
        assert "samples" in capsys.readouterr().out

    def test_unknown_engine_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["profile", "symmetrization", "--engine", "warp"]
            )
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_workers_rejected_by_serial_engines(self, capsys):
        code = main(
            ["profile", "symmetrization", "--engine", "batched",
             "--engine-workers", "2"]
        )
        assert code == 6  # sampling-family config error
        assert "[sampling]" in capsys.readouterr().err

    def test_analyze_takes_engine_too(self, capsys):
        code = main(
            ["analyze", "symmetrization", "--period", "50",
             "--engine", "scalar"]
        )
        assert code == 0
        assert "CCProf conflict report" in capsys.readouterr().out


class TestLruStreamWorkload:
    """lru_stream — the perf headline registered as a real workload."""

    def test_readme_quickstart_command(self, capsys):
        # The exact command the README quickstart documents.
        code = main(["profile", "lru_stream", "--engine", "sharded"])
        assert code == 0
        assert "lru_stream" in capsys.readouterr().out

    def test_variants_have_equal_access_counts(self):
        from repro.workloads.registry import resolve_workload

        original = resolve_workload("lru_stream")
        blocked = resolve_workload("lru_stream:optimized")
        assert sum(1 for _ in original.trace()) == sum(
            1 for _ in blocked.trace()
        )

    def test_blocked_variant_is_resident(self):
        # The tiled sweep fits L1, so steady-state misses collapse to
        # the cold set while the original misses on (nearly) every line.
        from repro.workloads.registry import resolve_workload

        original = resolve_workload("lru_stream").l1_stats()
        blocked = resolve_workload("lru_stream:optimized").l1_stats()
        assert blocked.misses < original.misses / 10

    def test_sizing_params_forwarded(self):
        from repro.workloads.registry import resolve_workload

        small = resolve_workload("lru_stream", lines=64, sweeps=2)
        assert sum(1 for _ in small.trace()) == 2 * 64 * 64 // 8


class TestStreamingCli:
    """profile --stream and phases: the windowed phase-analysis surface."""

    def test_profile_stream_writes_timeline_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        code = main(
            ["profile", "symmetrization", "--period", "50", "--stream",
             "--window", "64", "--manifest", str(manifest)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming:" in out
        record = json.loads(manifest.read_text())
        timeline = record["timeline"]
        assert timeline["version"] == 1
        assert timeline["window"] == 64
        assert timeline["engine"] == "batched"  # the profile's engine
        assert timeline["windows"]
        # And inspect renders the phase picture from that manifest.
        assert main(["inspect", str(manifest)]) == 0
        assert "timeline:" in capsys.readouterr().out

    def test_profile_stream_exports_jsonl(self, tmp_path, capsys):
        jsonl = tmp_path / "windows.jsonl"
        code = main(
            ["profile", "symmetrization", "--period", "50", "--stream",
             "--window", "64", "--timeline-jsonl", str(jsonl)]
        )
        assert code == 0
        records = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert records
        assert all("cf" in r and "victim_sets" in r for r in records)

    def test_phases_small_window_clamps_fold_floor(self, capsys):
        # --window below the default min_window (32) used to exit 7.
        assert main(["phases", "symmetrization", "--period", "50",
                     "--window", "16"]) == 0
        out = capsys.readouterr().out
        assert "phases of ~16 samples" in out
        assert "  phase   0: cf=" in out

    def test_phases_has_no_stream_switch(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["phases", "symmetrization", "--stream"])
        assert excinfo.value.code == 2

    def test_no_stream_no_timeline(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert main(["profile", "symmetrization", "--period", "50",
                     "--manifest", str(manifest)]) == 0
        assert json.loads(manifest.read_text()).get("timeline") is None


class TestInspectBench:
    """inspect understands BENCH artifacts and rejects unknown ones."""

    def test_inspect_renders_committed_bench(self, capsys):
        from pathlib import Path

        bench = Path(__file__).resolve().parent.parent / "BENCH_e5d8e80.json"
        assert main(["inspect", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "bench result: revision e5d8e80" in out
        assert "headline" in out

    def test_inspect_unknown_artifact_exits_analysis_family(
        self, tmp_path, capsys
    ):
        stray = tmp_path / "mystery.json"
        stray.write_text(json.dumps({"what": "is this"}))
        assert main(["inspect", str(stray)]) == 7
        assert "unknown artifact" in capsys.readouterr().err

    def test_inspect_invalid_bench_exits_analysis_family(
        self, tmp_path, capsys
    ):
        broken = tmp_path / "b.json"
        broken.write_text(json.dumps({"schema_version": 2, "workloads": []}))
        assert main(["inspect", str(broken)]) == 7


class TestWatchCli:
    """ccprof watch: exit 0 on a healthy trajectory, 13 on regression."""

    def repo_root(self):
        from pathlib import Path

        return Path(__file__).resolve().parent.parent

    def test_committed_trajectory_passes(self, capsys):
        assert main(["watch", str(self.repo_root())]) == 0
        out = capsys.readouterr().out
        assert "perf trajectory: 468f2a7 -> 2a5ed55 -> e5d8e80" in out
        assert "verdict: ok" in out

    def test_synthetic_regression_exits_13(self, tmp_path, capsys):
        import shutil

        root = self.repo_root()
        shutil.copy(root / "BENCH_2a5ed55.json", tmp_path / "BENCH_aaa.json")
        regressed = json.loads(
            (root / "BENCH_2a5ed55.json").read_text()
        )
        regressed["headline"]["speedup"] /= 2  # -50% headline
        (tmp_path / "BENCH_bbb.json").write_text(json.dumps(regressed))
        report = tmp_path / "report.json"
        code = main(
            ["watch", str(tmp_path / "BENCH_aaa.json"),
             str(tmp_path / "BENCH_bbb.json"), "--report", str(report)]
        )
        assert code == 13
        assert "regression" in capsys.readouterr().out
        assert json.loads(report.read_text())["ok"] is False

    def test_thresholds_are_configurable(self, capsys):
        # Tightening the workload gate below the committed -25.5% drop
        # flips the healthy trajectory into a regression.
        assert main(["watch", str(self.repo_root()),
                     "--max-workload-drop", "0.2"]) == 13

    def test_single_point_is_watch_family(self, tmp_path, capsys):
        import shutil

        shutil.copy(
            self.repo_root() / "BENCH_2a5ed55.json",
            tmp_path / "BENCH_aaa.json",
        )
        assert main(["watch", str(tmp_path)]) == 13
        assert "at least 2" in capsys.readouterr().err
