"""``ccprof`` command-line interface.

Mirrors the shape of the paper's artifact scripts:

- ``ccprof profile <workload>`` — run the online profiler on a built-in
  workload and dump the sample log.
- ``ccprof analyze <workload>`` — profile + offline analysis, printing the
  conflict report (and optionally writing a ``*result`` file).
- ``ccprof screen <workload>`` — analytically screen for conflicts
  (birthday-paradox + stride-folding passes; zero trace accesses);
  ``ccprof analyze --screen-first`` uses the same screen to skip
  simulation on ``clear`` workloads.
- ``ccprof simulate <trace.din>`` — run a Dinero-format trace through the
  cache simulator and print Dinero-style statistics.
- ``ccprof inspect <manifest.json>`` — render a run manifest back as text.
- ``ccprof list`` — enumerate built-in workloads.

Built-in workload names accept an ``:optimized`` suffix, e.g.
``ccprof analyze adi:optimized``.

Robustness controls (see the "Robustness model" section of README.md):

- ``--inject drop:0.2,skid:1`` feeds the sampled record stream through a
  seeded fault pipeline; injected-fault statistics appear in the report's
  data-quality section.
- ``--strict`` / ``--lenient`` (default lenient) pick between
  fail-fast and best-effort-with-warnings behaviour for degraded inputs.
- Every :class:`~repro.errors.ReproError` family maps to a distinct
  nonzero exit code (``error.exit_code``) with a one-line stderr
  diagnostic — no tracebacks for expected failure modes.

Observability controls (see the "Observability" section of DESIGN.md):

- Output lines are named events on a :class:`~repro.obs.logging.CliLogger`;
  default stdout is unchanged, ``--verbose`` adds span trees and metric
  snapshots, ``--quiet`` keeps results and warnings only, and
  ``--log-json`` renders every event as one JSON object per line.
- ``--manifest PATH`` (or any ``-o`` output, which gains a sibling
  ``<output>.manifest.json``) records a :class:`~repro.obs.RunManifest`.
- ``--no-obs`` installs the null registry/tracer: bit-for-bit pre-obs
  behaviour, no manifest.
- ``ccprof profile lru_stream --self-overhead`` measures what the enabled
  obs layer costs on the perf headline (exit 1 over the 5% target).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import asdict
from typing import Dict, Optional

from repro.analysis import (
    AnalysisCache,
    ConflictPredictionAnalysis,
    SCREEN_SUSPECT,
    StaticModel,
    StaticPaddingAnalysis,
    screen_workload,
)
from repro.cache.dinero import format_dinero_report, simulate_dinero_trace
from repro.core.diffreport import ReportDiff
from repro.core.phases import PhaseAnalyzer, PhasedAnalysis
from repro.core.profiler import CCProf
from repro.engine import backend_names, get_backend
from repro.errors import AnalysisError, ReproError, ServiceError
from repro.obs.logging import CliLogger
from repro.obs.manifest import ManifestError, RunManifest
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.obs.overhead import (
    FULL_ACCESSES,
    QUICK_ACCESSES,
    measure_self_overhead,
)
from repro.obs.tracing import NULL_TRACER, Tracer, get_tracer, use_tracer
from repro.optimize.padding_advisor import advise_padding
from repro.perf.schema import BenchSchemaError, validate_result
from repro.perf.watch import (
    WatchThresholds,
    regression_error,
    render_bench,
    watch,
)
from repro.pmu.periods import UniformJitterPeriod
from repro.reporting.files import write_result_file
from repro.robustness.budget import SamplingBudget
from repro.robustness.faults import FAULT_NAMES, FaultPipeline
from repro.service.admission import AdmissionConfig
from repro.service.client import submit_jobs
from repro.service.daemon import CCProfService, ServiceConfig
from repro.service.protocol import JOB_KINDS, JobRequest, JobStatus
from repro.trace.tracefile import TraceReadStats
from repro.workloads.base import Array2D, TraceWorkload
from repro.workloads.registry import (
    WORKLOADS as _WORKLOADS,  # legacy alias; the registry owns the table
    resolve_workload,
    workload_names,
)


def _resolve_workload(spec: str) -> TraceWorkload:
    """Build a workload from ``name`` or ``name:optimized``.

    Thin wrapper over :func:`repro.workloads.registry.resolve_workload`,
    kept so existing callers (and tests) of the CLI helper keep working.
    """
    return resolve_workload(spec)


def _logger(args: argparse.Namespace) -> CliLogger:
    """The invocation's logger (``main`` attaches it; fall back for
    handlers called directly in tests)."""
    log = getattr(args, "_log", None)
    return log if log is not None else CliLogger.from_args(args)


def _manifest_config(args: argparse.Namespace, report) -> Dict[str, object]:
    """The manifest's free-form config record for one run.

    A ``screen_first`` run records the screen's decision here (verdict,
    score, per-loop summary) so ``ccprof inspect`` shows *why* a
    simulation was or wasn't skipped.
    """
    config: Dict[str, object] = {
        "strict": bool(getattr(args, "strict", False)),
        "inject": getattr(args, "inject", None),
        "max_events": getattr(args, "max_events", None),
        "engine_workers": getattr(args, "engine_workers", None),
    }
    if getattr(args, "screen_first", False):
        config["screen_first"] = True
        screen = getattr(report, "screen", None) if report is not None else None
        if screen is not None:
            record = screen.to_record()
            record["simulation_skipped"] = report.raw_profile is None
            config["screen"] = record
    return config


def _write_manifest(
    args: argparse.Namespace,
    command: str,
    profiler: CCProf,
    profile,
    report=None,
    outputs: Optional[Dict[str, str]] = None,
    timeline: Optional[Dict[str, object]] = None,
) -> None:
    """Record a :class:`RunManifest` for one profile/analyze run.

    Written to ``--manifest PATH`` when given, else next to ``-o`` output
    as ``<output>.manifest.json``; skipped entirely under ``--no-obs``
    (which promises bit-for-bit pre-obs behaviour).
    """
    path = getattr(args, "manifest", None)
    if path is None and getattr(args, "output", None):
        path = f"{args.output}.manifest.json"
    if path is None or getattr(args, "no_obs", False):
        return
    sampling: Dict[str, object] = {}
    if profile is not None:
        run = profile.sampling
        sampling = {
            "samples": run.sample_count,
            "events": run.total_events,
            "accesses": run.total_accesses,
            "mean_period": run.mean_period,
            "truncated": run.truncated,
            "truncation_reason": run.truncation_reason,
        }
    quality = None
    if report is not None and report.data_quality is not None:
        quality = asdict(report.data_quality)
    geometry = profiler.geometry
    manifest = RunManifest(
        command=command,
        workload=args.workload,
        engine=profiler.engine,
        seed=args.seed,
        period=float(args.period),
        geometry={
            "num_sets": geometry.num_sets,
            "ways": geometry.ways,
            "line_size": geometry.line_size,
        },
        config=_manifest_config(args, report),
        stage_timings=get_tracer().stage_timings(),
        metrics=get_registry().snapshot(),
        data_quality=quality,
        sampling=sampling,
        outputs=outputs or {},
        timeline=timeline,
    )
    saved = manifest.save(path)
    _logger(args).info(
        "manifest.written", f"wrote manifest {saved}", path=str(saved)
    )


def _cmd_list(args: argparse.Namespace) -> int:
    log = _logger(args)
    case_studies, rodinia = workload_names()
    log.result("workloads.case_studies", "case studies (accept :optimized):")
    for name in case_studies:
        log.result("workloads.entry", f"  {name}", workload=name)
    log.result("workloads.rodinia", "rodinia suite:")
    for name in rodinia:
        log.result("workloads.entry", f"  {name}", workload=name)
    return 0


def _resolve_engine(args: argparse.Namespace):
    """Resolve ``--engine`` / ``--engine-workers`` into a configured
    engine backend.

    Unknown engine names never reach here: ``--engine`` is built with
    ``choices=backend_names()``, so argparse rejects them with exit code 2
    listing the registered backends.
    """
    name = getattr(args, "engine", None)
    backend = get_backend(name if name is not None else "batched")
    workers = getattr(args, "engine_workers", None)
    if workers is not None:
        # Backends that take no worker pool reject the option themselves
        # (SamplingError, exit 6) — the registry stays the single source
        # of truth for what each engine accepts.
        backend = backend.configure(workers=workers)
    return backend


def _make_profiler(args: argparse.Namespace) -> CCProf:
    inject = None
    spec = getattr(args, "inject", None)
    if spec:
        inject = FaultPipeline.parse(spec, seed=args.seed)
    budget = None
    max_events = getattr(args, "max_events", None)
    if max_events is not None:
        budget = SamplingBudget(max_events=max_events)
    return CCProf(
        period=UniformJitterPeriod(args.period),
        seed=args.seed,
        strict=getattr(args, "strict", False),
        inject=inject,
        budget=budget,
        engine=_resolve_engine(args),
        screen_first=getattr(args, "screen_first", False),
    )


def _cmd_self_overhead(args: argparse.Namespace, log: CliLogger) -> int:
    """``ccprof profile lru_stream --self-overhead``."""
    if args.workload != "lru_stream":
        raise ReproError(
            "--self-overhead measures the 'lru_stream' perf headline; "
            "invoke as: ccprof profile lru_stream --self-overhead"
        )
    accesses = QUICK_ACCESSES if getattr(args, "quick", False) else FULL_ACCESSES
    report = measure_self_overhead(accesses=accesses)
    log.result("self_overhead", report.render(), **report.as_dict())
    return 0 if report.within_target else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    log = _logger(args)
    if getattr(args, "self_overhead", False):
        return _cmd_self_overhead(args, log)
    workload = _resolve_workload(args.workload)
    profiler = _make_profiler(args)
    profile = profiler.profile(workload)
    sampling = profile.sampling
    log.result(
        "profile.summary",
        f"{workload.name}: {sampling.sample_count} samples of "
        f"{sampling.total_events} L1 miss events "
        f"({sampling.total_accesses} accesses)",
        workload=workload.name,
        samples=sampling.sample_count,
        events=sampling.total_events,
        accesses=sampling.total_accesses,
    )
    if sampling.truncated:
        log.warning(
            "profile.truncated",
            f"run truncated: {sampling.truncation_reason}",
            reason=sampling.truncation_reason,
        )
    if profile.fault_report is not None:
        log.warning(
            "profile.faults",
            f"injected faults: {profile.fault_report.describe()}",
        )
    outputs: Dict[str, str] = {}
    if args.output:
        written = profile.dump_samples(args.output)
        outputs["samples"] = str(args.output)
        log.info(
            "output.written",
            f"wrote {written} samples to {args.output}",
            path=str(args.output),
            records=written,
        )
    timeline = None
    if getattr(args, "stream", False):
        with get_tracer().span("stream", window=args.window):
            analysis = PhaseAnalyzer(
                profiler.geometry, window=args.window
            ).analyze(profile.sampling.samples)
        timeline = analysis.timeline_record(engine=profiler.backend.name)
        _log_stream_summary(log, args, analysis)
        jsonl = getattr(args, "timeline_jsonl", None)
        if jsonl:
            written = analysis.export_jsonl(jsonl)
            outputs["timeline"] = str(jsonl)
            log.info(
                "output.written",
                f"wrote {written} window spans to {jsonl}",
                path=str(jsonl),
                records=written,
            )
    _write_manifest(
        args, "profile", profiler, profile, outputs=outputs,
        timeline=timeline,
    )
    return 0


def _log_stream_summary(
    log: CliLogger, args: argparse.Namespace, analysis: PhasedAnalysis
) -> None:
    """The phase timeline's result lines (profile --stream)."""
    log.result(
        "stream.summary",
        f"streaming: {len(analysis.phases)} windows of ~{args.window} "
        f"samples; {analysis.conflict_fraction:.0%} conflicting",
        windows=len(analysis.phases),
        conflict_fraction=analysis.conflict_fraction,
    )
    transitions = analysis.transitions()
    if transitions:
        log.result(
            "stream.transitions",
            f"phase transitions at windows: {transitions}",
            windows=transitions,
        )
    victims = analysis.victim_sets()
    if victims:
        shown = ", ".join(str(v) for v in victims[:12])
        if len(victims) > 12:
            shown += f", ... ({len(victims)} total)"
        log.result(
            "stream.victims",
            f"victim sets across conflict windows: [{shown}]",
            victim_sets=victims,
        )


def _cmd_analyze(args: argparse.Namespace) -> int:
    log = _logger(args)
    workload = _resolve_workload(args.workload)
    profiler = _make_profiler(args)
    report = profiler.run(workload)
    log.result("report", report.render(), workload=workload.name)
    outputs: Dict[str, str] = {}
    if args.output:
        write_result_file(args.output, report)
        outputs["result"] = str(args.output)
        log.info(
            "output.written", f"\nwrote {args.output}", path=str(args.output)
        )
    _write_manifest(
        args, "analyze", profiler, report.raw_profile, report=report,
        outputs=outputs,
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    log = _logger(args)
    try:
        with open(args.manifest, "r", encoding="ascii") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        # Unreadable files stay in the manifest family (the pre-watch
        # contract); exit 7 is reserved for *recognizable* JSON that is
        # neither a BENCH result nor a run manifest.
        raise ManifestError(
            f"{args.manifest}: unreadable artifact: {exc}"
        ) from exc
    if not isinstance(record, dict):
        raise AnalysisError(
            f"{args.manifest}: unknown artifact type (not a JSON object)"
        )
    # Dispatch on content: a BENCH result carries schema_version +
    # workloads, a run manifest carries command.  Anything else is an
    # unknown artifact (analysis family, exit 7).
    if "schema_version" in record and "workloads" in record:
        try:
            result = validate_result(record)
        except BenchSchemaError as exc:
            raise AnalysisError(f"{args.manifest}: {exc}") from exc
        log.result("bench", render_bench(result), bench=result)
        return 0
    if "command" in record:
        manifest = RunManifest.from_dict(record)
        log.result("manifest", manifest.render(), manifest=manifest.to_dict())
        tripped = manifest.tripped_budgets()
        if tripped:
            log.warning(
                "budget.tripped",
                "tripped budgets: " + ", ".join(tripped),
                budgets=tripped,
            )
        return 0
    raise AnalysisError(
        f"{args.manifest}: unknown artifact type (neither a BENCH result "
        "nor a run manifest)"
    )


def _cmd_watch(args: argparse.Namespace) -> int:
    """``ccprof watch``: gate on the perf/manifest trajectory."""
    log = _logger(args)
    thresholds = WatchThresholds(
        max_headline_drop=args.max_headline_drop,
        max_workload_drop=args.max_workload_drop,
        max_obs_overhead=args.max_obs_overhead,
        max_ipc_bytes_per_access=args.max_ipc,
        max_conflict_growth=args.max_conflict_growth,
    )
    report = watch(args.paths, thresholds, report_path=args.report)
    log.result("watch.report", report.render(), **report.to_dict())
    if args.report:
        log.info(
            "output.written",
            f"wrote trajectory report {args.report}",
            path=str(args.report),
        )
    if not report.ok:
        raise regression_error(report)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    log = _logger(args)
    read_stats = TraceReadStats()
    stats = simulate_dinero_trace(
        args.trace, spec=args.cache, strict=args.strict, stats=read_stats
    )
    log.result("simulate.report", format_dinero_report(stats, title=args.trace))
    note = read_stats.quality_note()
    if note is not None:
        log.warning("simulate.salvage", note)
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    log = _logger(args)
    workload = _resolve_workload(args.workload)
    profiler = _make_profiler(args)
    report = profiler.run(workload)
    log.result("report", report.render(), workload=workload.name)
    arrays = [
        value
        for value in vars(workload).values()
        if isinstance(value, Array2D)
    ]
    if not report.has_conflicts:
        log.result(
            "advise.clean", "\nno conflicts flagged; no padding advice needed"
        )
        return 0
    implicated = {
        structure.label
        for loop in report.conflicting_loops()
        for structure in loop.data_structures
    }
    log.result("advise.header", "\npadding advice:")
    advised = False
    for array in arrays:
        if array.allocation.label not in implicated:
            continue
        advice = advise_padding(array, profiler.geometry)
        advised = True
        log.result(
            "advise.padding",
            f"  {advice.label}: +{advice.pad_bytes} B/row  ({advice.reason})",
            label=advice.label,
            pad_bytes=advice.pad_bytes,
        )
    if not advised:
        log.result(
            "advise.no_arrays",
            "  (conflicting structures are not 2-D arrays; consider a "
            "loop-order change instead)",
        )
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    """Analytical conflict screen: zero trace accesses simulated."""
    log = _logger(args)
    workload = _resolve_workload(args.workload)
    report = screen_workload(workload)
    log.result(
        "screen.report",
        report.render(),
        workload=workload.name,
        verdict=report.verdict,
        score=report.score,
    )
    if args.suspect_exit and report.verdict == SCREEN_SUSPECT:
        return 1
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    """Static conflict prediction: zero trace accesses simulated."""
    log = _logger(args)
    workload = _resolve_workload(args.workload)
    model = StaticModel.from_workload(workload)
    cache = AnalysisCache(model)
    report = cache.request(ConflictPredictionAnalysis).report
    log.result("predict.report", report.render(), workload=workload.name)
    advice = cache.request(StaticPaddingAnalysis).advice
    if report.has_conflicts:
        lines = ["\npadding advice (from prediction alone):"]
        lines.extend(f"  {line}" for line in advice.render().splitlines())
        log.result("predict.advice", "\n".join(lines))
    if args.stats:
        log.info(
            "predict.cache_stats",
            f"\nanalysis cache: {cache.stats.describe()}",
            runs=cache.stats.runs,
            hits=cache.stats.hits,
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    log = _logger(args)
    name, _, variant = args.workload.partition(":")
    if variant:
        raise ReproError("compare takes a bare name; it runs both variants itself")
    if name not in _WORKLOADS:
        raise ReproError(f"no optimized variant for {name!r}; compare needs one")
    original_factory, optimized_factory = _WORKLOADS[name]
    profiler = _make_profiler(args)

    report_before = profiler.run(original_factory())
    report_after = profiler.run(optimized_factory())
    log.result("compare.before", report_before.render())
    log.result("compare.after", "\n" + report_after.render())
    log.result(
        "compare.diff",
        "\n" + ReportDiff.compare(report_before, report_after).render(),
    )

    # The profiled runs already simulated both variants; reuse the cache
    # statistics riding on each report's raw profile instead of paying a
    # third and fourth full simulation (fall back for reports that lack
    # them, e.g. loaded from disk).
    def _l1_stats(report, factory):
        profile = report.raw_profile
        if profile is not None and profile.sampling.cache_stats is not None:
            return profile.sampling.cache_stats
        return factory().l1_stats(profiler.geometry)

    before_stats = _l1_stats(report_before, original_factory)
    after_stats = _l1_stats(report_after, optimized_factory)
    reduction = (
        (before_stats.misses - after_stats.misses) / before_stats.misses
        if before_stats.misses
        else 0.0
    )
    log.result(
        "compare.misses",
        f"\nL1 misses: {before_stats.misses} -> {after_stats.misses} "
        f"({reduction:+.1%} reduction)",
        before=before_stats.misses,
        after=after_stats.misses,
        reduction=reduction,
    )
    log.result(
        "compare.verdict",
        f"conflicts flagged: {report_before.has_conflicts} -> "
        f"{report_after.has_conflicts}",
        before=report_before.has_conflicts,
        after=report_after.has_conflicts,
    )
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    log = _logger(args)
    workload = _resolve_workload(args.workload)
    profiler = _make_profiler(args)
    profile = profiler.profile(workload)
    analyzer = PhaseAnalyzer(profiler.geometry, window=args.window)
    analysis = analyzer.analyze(profile.sampling.samples)
    log.result(
        "phases.summary",
        f"{workload.name}: {len(analysis.phases)} phases of ~{args.window} "
        f"samples; {analysis.conflict_fraction:.0%} conflicting",
        workload=workload.name,
        phases=len(analysis.phases),
    )
    for phase in analysis.phases:
        verdict = "CONFLICT" if phase.has_conflict else "ok"
        log.result(
            "phases.phase",
            f"  phase {phase.index:>3}: cf={phase.contribution_factor:.3f} "
            f"victims={len(phase.victim_sets):>3} {verdict}",
        )
    transitions = analysis.transitions()
    if transitions:
        log.result(
            "phases.transitions",
            f"phase transitions at windows: {transitions}",
            windows=transitions,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``ccprof serve``: run the profiling-service daemon."""
    log = _logger(args)
    config = ServiceConfig(
        socket_path=args.socket,
        workers=args.workers,
        admission=AdmissionConfig(
            max_queue_depth=args.max_queue,
            tenant_quota=args.tenant_quota,
        ),
        default_deadline_ms=args.deadline_ms,
        default_max_accesses=args.max_accesses,
        max_attempts=args.max_attempts,
        read_timeout=args.read_timeout,
        journal_path=args.journal,
        journal_fsync=args.fsync,
        manifest_dir=args.manifest_dir,
        kill_rate=args.kill_rate,
        kill_seed=args.seed,
        kill_max=args.kill_max,
    )

    async def _serve() -> None:
        service = CCProfService(config)
        await service.start()
        log.result(
            "serve.listening",
            f"ccprof service listening on {args.socket} "
            f"({args.workers} workers)",
            socket=args.socket,
            workers=args.workers,
        )
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        log.result("serve.stopped", "service stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """``ccprof submit``: send one job to a running service."""
    log = _logger(args)
    params: Dict[str, int] = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ReproError(
                f"bad --param {item!r}; expected name=integer (e.g. n=64)"
            )
        try:
            params[key] = int(value)
        except ValueError as exc:
            raise ReproError(
                f"bad --param {item!r}; value must be an integer"
            ) from exc
    request = JobRequest(
        id=args.id,
        tenant=args.tenant,
        kind=args.kind,
        workload=args.workload,
        params=params,
        seed=args.seed,
        period=args.period,
        deadline_ms=args.deadline_ms,
        max_accesses=args.max_accesses,
        engine=args.engine,
    )
    try:
        response = submit_jobs(args.socket, [request], seed=args.seed)[
            request.id
        ]
    except (ConnectionError, OSError) as exc:
        raise ServiceError(
            f"cannot reach a ccprof service at {args.socket!r}: {exc}"
        ) from exc
    log.result(
        "submit.response",
        json.dumps(response.to_dict(), indent=2, sort_keys=True),
        **response.to_dict(),
    )
    if response.status == JobStatus.FAILED:
        error = response.error or {}
        raise ReproError(
            f"job {request.id!r} failed "
            f"[{error.get('reason', 'unknown')}]: "
            f"{error.get('message', 'no detail')}"
        )
    return 0


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    """The observability flags every subcommand shares."""
    verbosity = sub.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print detail events (span tree, metric snapshot)",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="print results and warnings only",
    )
    sub.add_argument(
        "--log-json", action="store_true",
        help="emit each output line as one JSON event object",
    )
    sub.add_argument(
        "--no-obs", action="store_true",
        help="disable the metrics registry and span tracer entirely "
             "(bit-for-bit pre-observability behaviour; no manifest)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ccprof",
        description="CCProf reproduction: lightweight cache-conflict detection",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list built-in workloads")
    _add_obs_flags(list_parser)
    list_parser.set_defaults(handler=_cmd_list)

    def add_strictness(sub: argparse.ArgumentParser) -> None:
        group = sub.add_mutually_exclusive_group()
        group.add_argument(
            "--strict", dest="strict", action="store_true",
            help="fail fast on degraded input (corrupt trace, empty profile)",
        )
        group.add_argument(
            "--lenient", dest="strict", action="store_false",
            help="salvage degraded input and report data-quality warnings "
                 "(default)",
        )
        sub.set_defaults(strict=False)

    for verb, handler, needs_output in (
        ("profile", _cmd_profile, True),
        ("analyze", _cmd_analyze, True),
        ("advise", _cmd_advise, False),
        ("compare", _cmd_compare, False),
        ("phases", _cmd_phases, False),
    ):
        sub = subparsers.add_parser(verb, help=f"{verb} a built-in workload")
        sub.add_argument("workload", help="workload name, e.g. adi or adi:optimized")
        sub.add_argument(
            "--period", type=int, default=1212,
            help="mean sampling period in L1 miss events (default: 1212)",
        )
        sub.add_argument("--seed", type=int, default=0, help="sampler RNG seed")
        sub.add_argument(
            "--engine", choices=backend_names(), default=None,
            help="simulation engine backend (default: batched); 'sharded' "
                 "fans the cache simulation over worker processes",
        )
        sub.add_argument(
            "--engine-workers", type=int, default=None, metavar="N",
            help="worker-process count for parallel engines (sharded); "
                 "other engines reject the option",
        )
        add_strictness(sub)
        _add_obs_flags(sub)
        if needs_output:
            sub.add_argument("-o", "--output", default=None, help="output file")
        if verb in ("profile", "analyze"):
            sub.add_argument(
                "--inject", default=None, metavar="SPEC",
                help="fault-injection spec, e.g. drop:0.2,skid:1 "
                     f"(faults: {', '.join(FAULT_NAMES)})",
            )
            sub.add_argument(
                "--max-events", type=int, default=None, metavar="N",
                help="watchdog budget: stop profiling after N qualifying "
                     "events and analyze the partial profile",
            )
            sub.add_argument(
                "--manifest", default=None, metavar="PATH",
                help="write a run manifest (config, timings, metrics, data "
                     "quality) to PATH; with -o, defaults to "
                     "<output>.manifest.json",
            )
        if verb == "analyze":
            sub.add_argument(
                "--screen-first", action="store_true",
                help="run the analytical screen first and skip profiling + "
                     "simulation entirely when it returns 'clear' (the "
                     "decision is recorded in the run manifest)",
            )
        if verb == "profile":
            sub.add_argument(
                "--self-overhead", action="store_true",
                help="measure the enabled obs layer's cost on the "
                     "lru_stream perf headline (exit 1 over the 5% target)",
            )
            sub.add_argument(
                "--quick", action="store_true",
                help="with --self-overhead: a 10x smaller measurement",
            )
        if verb in ("profile", "phases"):
            sub.add_argument(
                "--window", type=int, default=256,
                help="samples per analysis window (default: 256)",
            )
        if verb == "profile":
            sub.add_argument(
                "--stream", action="store_true",
                help="windowed phase analysis of the profiled samples: "
                     "log the phase timeline and record it in the manifest",
            )
            sub.add_argument(
                "--timeline-jsonl", default=None, metavar="PATH",
                help="with --stream: export one JSON record per window "
                     "to PATH",
            )
        sub.set_defaults(handler=handler)

    screen = subparsers.add_parser(
        "screen",
        help="analytically screen a workload for conflicts (birthday-"
             "paradox + stride folding; no trace is run)",
    )
    screen.add_argument(
        "workload", help="workload name, e.g. gemm or gemm:optimized"
    )
    screen.add_argument(
        "--suspect-exit", action="store_true",
        help="exit 1 when the verdict is 'suspect' (for shell pipelines "
             "that gate a simulation on the screen)",
    )
    _add_obs_flags(screen)
    screen.set_defaults(handler=_cmd_screen)

    predict = subparsers.add_parser(
        "predict",
        help="statically predict victim sets from declared access patterns "
             "(no trace is run)",
    )
    predict.add_argument(
        "workload", help="workload name, e.g. gemm or gemm:optimized"
    )
    predict.add_argument(
        "--stats", action="store_true",
        help="print analysis-cache statistics (passes run / cache hits)",
    )
    _add_obs_flags(predict)
    predict.set_defaults(handler=_cmd_predict)

    sim = subparsers.add_parser("simulate", help="run a .din trace through the simulator")
    sim.add_argument("trace", help="path to a Dinero-format trace")
    sim.add_argument(
        "--cache", default="32k:64:8:lru",
        help="cache spec size:line:assoc[:policy] (default: the paper's L1)",
    )
    add_strictness(sim)
    _add_obs_flags(sim)
    sim.set_defaults(handler=_cmd_simulate)

    inspect = subparsers.add_parser(
        "inspect",
        help="render a run manifest or BENCH_*.json benchmark artifact",
    )
    inspect.add_argument(
        "manifest",
        help="path to a *.manifest.json / MANIFEST_*.json / BENCH_*.json "
             "artifact (type detected from content; unknown types exit 7)",
    )
    _add_obs_flags(inspect)
    inspect.set_defaults(handler=_cmd_inspect)

    watch_parser = subparsers.add_parser(
        "watch",
        help="diff a BENCH/MANIFEST trajectory and exit 13 on regression",
    )
    watch_parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="one directory of BENCH_*.json/MANIFEST_*.json artifacts "
             "(ordered by git history), or 2+ artifact files in "
             "chronological order",
    )
    watch_parser.add_argument(
        "--max-headline-drop", type=float, default=0.15, metavar="FRAC",
        help="relative headline-speedup drop tolerated between points "
             "(default: 0.15)",
    )
    watch_parser.add_argument(
        "--max-workload-drop", type=float, default=0.30, metavar="FRAC",
        help="relative per-workload speedup drop tolerated "
             "(default: 0.30)",
    )
    watch_parser.add_argument(
        "--max-obs-overhead", type=float, default=0.05, metavar="FRAC",
        help="absolute obs self-overhead budget per point (default: 0.05)",
    )
    watch_parser.add_argument(
        "--max-ipc", type=float, default=16.0, metavar="BYTES",
        help="absolute shipped-bytes-per-access budget per point "
             "(default: 16, the pre-arena pipe baseline)",
    )
    watch_parser.add_argument(
        "--max-conflict-growth", type=float, default=0.25, metavar="FRAC",
        help="absolute timeline conflict-fraction increase tolerated "
             "between points (default: 0.25)",
    )
    watch_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the trajectory report as JSON to PATH (written even "
             "when the gate fails, so CI can upload the evidence)",
    )
    _add_obs_flags(watch_parser)
    watch_parser.set_defaults(handler=_cmd_watch)

    serve = subparsers.add_parser(
        "serve",
        help="run the profiling service daemon on a local socket",
    )
    serve.add_argument(
        "--socket", default="ccprof.sock",
        help="unix socket path to listen on (default: ccprof.sock)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="worker pool size: concurrent jobs in execution (default: 4)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission queue bound; beyond it jobs are rejected with a "
             "retry-after hint (default: 64)",
    )
    serve.add_argument(
        "--tenant-quota", type=int, default=8,
        help="per-tenant cap on jobs queued+running (default: 8)",
    )
    serve.add_argument(
        "--deadline-ms", type=int, default=30_000,
        help="default per-job deadline; becomes the run's watchdog budget "
             "(default: 30000)",
    )
    serve.add_argument(
        "--max-accesses", type=int, default=None, metavar="N",
        help="default simulation budget per job (blown budget degrades to "
             "the static predictor)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="execution attempts per job before a worker crash becomes a "
             "terminal failure (default: 3)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=5.0,
        help="seconds an idle connection may sit mid-request before being "
             "dropped as a slow client (default: 5)",
    )
    serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="crash-safe job journal; on restart, received jobs resume and "
             "in-flight jobs fail cleanly",
    )
    serve.add_argument(
        "--fsync", action="store_true",
        help="fsync every journal append (durable but slower)",
    )
    serve.add_argument(
        "--manifest-dir", default=None, metavar="DIR",
        help="write one run manifest per terminal job under DIR",
    )
    serve.add_argument("--seed", type=int, default=0, help="chaos RNG seed")
    serve.add_argument(
        "--kill-rate", type=float, default=0.0, metavar="P",
        help="chaos: injected worker-kill probability per attempt",
    )
    serve.add_argument(
        "--kill-max", type=int, default=None, metavar="N",
        help="chaos: cap total injected kills at N",
    )
    _add_obs_flags(serve)
    serve.set_defaults(handler=_cmd_serve)

    submit = subparsers.add_parser(
        "submit", help="submit one job to a running ccprof service"
    )
    submit.add_argument("workload", help="workload spec, e.g. gemm or adi:optimized")
    submit.add_argument(
        "--socket", default="ccprof.sock",
        help="service socket path (default: ccprof.sock)",
    )
    submit.add_argument(
        "--kind", choices=JOB_KINDS, default="profile",
        help="job kind (default: profile)",
    )
    submit.add_argument("--id", default="cli-job", help="client-chosen job id")
    submit.add_argument("--tenant", default="cli", help="tenant identity")
    submit.add_argument(
        "--param", action="append", default=[], metavar="NAME=INT",
        help="workload sizing knob, repeatable (e.g. --param n=64)",
    )
    submit.add_argument("--seed", type=int, default=0, help="sampler RNG seed")
    submit.add_argument(
        "--period", type=int, default=1212,
        help="mean sampling period in L1 miss events (default: 1212)",
    )
    submit.add_argument(
        "--deadline-ms", type=int, default=None,
        help="per-job deadline override (default: service default)",
    )
    submit.add_argument(
        "--max-accesses", type=int, default=None, metavar="N",
        help="simulation budget override for this job",
    )
    submit.add_argument(
        "--engine", default=None, metavar="NAME",
        help="engine backend the service should run this job on "
        "(default: the service default, batched)",
    )
    _add_obs_flags(submit)
    submit.set_defaults(handler=_cmd_submit)
    return parser


def _emit_run_details(
    log: CliLogger, registry: MetricsRegistry, tracer: Tracer
) -> None:
    """The ``--verbose`` detail events: span tree + metric snapshot."""
    if not log.visible("detail"):
        return
    if tracer.enabled and tracer.roots:
        spans = [
            span.as_dict(depth)
            for root in tracer.roots
            for span, depth in root.walk()
        ]
        log.detail("trace.spans", "\nspans:\n" + tracer.render(), spans=spans)
    if registry.enabled:
        snapshot = registry.snapshot()
        if any(snapshot.values()):
            lines = ["metrics:"]
            for name, value in sorted(snapshot["counters"].items()):
                lines.append(f"  {name:<36} {value}")
            for name, value in sorted(snapshot["gauges"].items()):
                lines.append(f"  {name:<36} {value} (gauge)")
            for name, hist in sorted(snapshot["histograms"].items()):
                lines.append(
                    f"  {name:<36} count={hist['count']} sum={hist['sum']}"
                )
            log.detail("metrics.snapshot", "\n".join(lines), **snapshot)


def main(argv: Optional[list] = None) -> int:
    """CLI entry point.

    Every invocation gets a fresh metrics registry and tracer (installed
    as the process defaults for its duration), so repeated in-process
    calls — the test suite — never leak obs state into each other.

    Every expected failure exits with its error family's distinct nonzero
    code (``ReproError.exit_code``) and a one-line stderr diagnostic
    carrying the machine-readable family code — never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    log = CliLogger.from_args(args)
    args._log = log
    no_obs = getattr(args, "no_obs", False)
    registry = NULL_REGISTRY if no_obs else MetricsRegistry()
    tracer = NULL_TRACER if no_obs else Tracer()
    try:
        with use_registry(registry), use_tracer(tracer):
            code = args.handler(args)
            _emit_run_details(log, registry, tracer)
        return code
    except ReproError as error:
        print(f"ccprof: error [{error.code}]: {error}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
