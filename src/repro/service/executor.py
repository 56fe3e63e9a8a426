"""Job execution: the pipeline behind the service, with degradation.

The executor is synchronous and thread-safe — the daemon calls it from
worker threads.  Three job kinds map onto the existing pipeline:

- ``profile`` — online sampling + offline analysis (``CCProf.run``).
- ``predict`` — the zero-trace static predictor (``repro.analysis``).
- ``compare`` — original-vs-optimized profile diff.

**Degradation ladder.**  A ``profile``/``compare`` job degrades — rather
than fails — in two cases: admission marked it (queue saturated past the
soft threshold), or its simulation blew the watchdog budget derived from
the request deadline.  Under saturation the cheapest rung runs first:
the analytical screen (birthday/folding passes, O(accesses)) answers
outright when its verdict is a decisive ``clear``; otherwise the job
falls back to the static predictor when the workload declares access
patterns, and the response carries a ``degraded_reason`` plus a
confidence note; workloads without declarations return the truncated
dynamic result, also marked degraded.  Only genuine errors (unknown
workload, malformed request, crashed worker out of retries) fail.

**Shared pass cache.**  Static models and their
:class:`~repro.analysis.framework.AnalysisCache` are cached per
``(workload, params, geometry)`` across jobs and tenants — results are a
pure function of the workload and geometry, so sharing is safe and makes
repeat predictions O(cache hit).  Tenant identity never enters the key,
which is what the cross-tenant leakage test pins down.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis import (
    AnalysisCache,
    ConflictPredictionAnalysis,
    SCREEN_CLEAR,
    ScreeningAnalysis,
    StaticModel,
)
from repro.core.phases import PhaseAnalyzer
from repro.errors import AnalysisError, ReproError, WorkerCrashError
from repro.obs.metrics import get_registry
from repro.pmu.periods import UniformJitterPeriod
from repro.robustness.budget import SamplingBudget
from repro.service.protocol import JobRequest, JobResponse, JobStatus
from repro.workloads.registry import resolve_workload

#: Degraded verdicts carry this confidence note (the static predictor has
#: perfect recall but imperfect precision against the dynamic profiler —
#: see the PR 3 cross-validation gates).
STATIC_FALLBACK_CONFIDENCE = (
    "static prediction (precision ~0.91 / recall 1.0 vs dynamic profiler)"
)

#: Truncated dynamic results carry this note instead.
PARTIAL_PROFILE_CONFIDENCE = "partial dynamic profile; verdicts are best-effort"

#: Screen-cleared answers under saturation carry this note (the screen's
#: decision rule only answers when its calibrated score is decisively
#: low; everything else falls through to the static predictor).
SCREEN_CLEAR_CONFIDENCE = (
    "analytical screen verdict 'clear' (birthday/folding passes; "
    "mid-band scores fall through to the static predictor)"
)

#: Timeline cap for job responses: the NDJSON protocol's 64 KiB line
#: budget has to hold the whole result, so wire timelines coalesce much
#: harder than manifest timelines (full resolution lives in the run
#: manifest when the daemon writes one).
WIRE_TIMELINE_WINDOWS = 64


class KillInjector:
    """Seeded worker-kill fault injector (chaos harness hook).

    With probability ``rate`` per execution attempt, raises
    :class:`WorkerCrashError` *mid-job* — after the executor has started
    work, modelling a worker process dying with the job in flight.  Fully
    deterministic under its seed so chaos runs reproduce end-to-end.
    ``max_kills`` caps the total (the CI smoke run injects exactly one).
    """

    def __init__(
        self, rate: float = 0.0, seed: int = 0, max_kills: Optional[int] = None
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"kill rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.max_kills = max_kills
        self._rng = random.Random(seed)
        self.kills = 0
        self._lock = threading.Lock()

    def maybe_kill(self, job_id: str) -> None:
        """Possibly kill the current worker (raises WorkerCrashError)."""
        if self.rate <= 0.0:
            return
        with self._lock:
            exhausted = self.max_kills is not None and self.kills >= self.max_kills
            doomed = not exhausted and self._rng.random() < self.rate
            if doomed:
                self.kills += 1
        if doomed:
            get_registry().counter("service.workers.killed").inc()
            raise WorkerCrashError(f"injected worker kill during job {job_id}")


@dataclass
class ExecutionResult:
    """What one executor call produced (pre-protocol)."""

    status: str
    result: Dict[str, object] = field(default_factory=dict)
    degraded_reason: Optional[str] = None
    confidence: Optional[str] = None


class JobExecutor:
    """Runs validated job requests against the pipeline.

    Args:
        default_deadline_ms: Deadline applied when a request names none;
            it becomes the run's ``SamplingBudget.deadline_seconds``.
        default_max_accesses: Simulation budget applied when a request
            names none (``None`` = unlimited).  Blowing either budget
            triggers the degradation ladder, not a failure.
        kill_injector: Optional chaos hook consulted once per attempt.
        clock: Monotonic clock for latency accounting (injectable).
    """

    def __init__(
        self,
        *,
        default_deadline_ms: int = 30_000,
        default_max_accesses: Optional[int] = None,
        kill_injector: Optional[KillInjector] = None,
        clock=time.monotonic,
    ) -> None:
        self.default_deadline_ms = default_deadline_ms
        self.default_max_accesses = default_max_accesses
        self.kill_injector = kill_injector
        self._clock = clock
        self._pass_cache: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], AnalysisCache] = {}
        self._cache_lock = threading.Lock()

    # -- shared pass cache ---------------------------------------------

    def _analysis_cache(self, request: JobRequest) -> AnalysisCache:
        """The cross-job :class:`AnalysisCache` for this workload spec."""
        key = (request.workload, tuple(sorted(request.params.items())))
        with self._cache_lock:
            cache = self._pass_cache.get(key)
            if cache is not None:
                get_registry().counter("service.pass_cache.shared_hits").inc()
                return cache
        # Built outside the lock: model construction can be slow and is
        # idempotent; a racing duplicate is discarded below.
        workload = resolve_workload(request.workload, **request.params)
        model = StaticModel.from_workload(workload)
        fresh = AnalysisCache(model)
        with self._cache_lock:
            cache = self._pass_cache.setdefault(key, fresh)
        if cache is fresh:
            get_registry().counter("service.pass_cache.models_built").inc()
        return cache

    # -- execution ------------------------------------------------------

    def execute(
        self, request: JobRequest, *, degrade: bool = False
    ) -> ExecutionResult:
        """Run one job attempt.

        Args:
            request: The validated job.
            degrade: Admission-control marked this job for degradation
                (queue saturated): simulation kinds go straight to the
                static fallback.

        Raises:
            WorkerCrashError: The kill injector fired (the daemon's retry
                policy decides whether to requeue or fail the job).
            ReproError: Anything the pipeline itself rejects.
        """
        if self.kill_injector is not None:
            self.kill_injector.maybe_kill(request.id)
        if request.kind == "predict":
            return self._predict(request)
        if degrade:
            screened = self._screen_fallback(
                request, reason="queue saturated; analytical screen cleared"
            )
            if screened is not None:
                return screened
            return self._static_fallback(
                request, reason="queue saturated; served static prediction"
            )
        if request.kind == "profile":
            return self._profile(request)
        return self._compare(request)

    # -- budgets --------------------------------------------------------

    def _budget(self, request: JobRequest) -> SamplingBudget:
        deadline_ms = request.deadline_ms or self.default_deadline_ms
        max_accesses = request.max_accesses or self.default_max_accesses
        return SamplingBudget(
            max_accesses=max_accesses,
            deadline_seconds=deadline_ms / 1000.0,
        )

    def _engine(self, request: JobRequest):
        """Resolve the request's engine against the live registry.

        The registry is the single source of truth: a daemon with extra
        backends registered accepts their names with no service change,
        and an unknown name fails the job with a sampling-family error
        (listing what is registered).  The backend mix is visible in the
        daemon's telemetry as ``service.engine.<name>`` counters.
        """
        from repro.engine import get_backend  # local: keep import cheap

        backend = get_backend(request.engine or "batched")
        get_registry().counter(f"service.engine.{backend.name}").inc()
        return backend

    def _profiler(self, request: JobRequest):
        from repro.core.profiler import CCProf  # local: avoid cycle at import

        return CCProf(
            period=UniformJitterPeriod(max(1, request.period)),
            seed=request.seed,
            strict=False,
            budget=self._budget(request),
            engine=self._engine(request),
        )

    # -- job kinds ------------------------------------------------------

    def _profile(self, request: JobRequest) -> ExecutionResult:
        workload = resolve_workload(request.workload, **request.params)
        profiler = self._profiler(request)
        report = profiler.run(workload)
        sampling = report.raw_profile.sampling
        if sampling.truncated:
            # Simulation budget blown: degrade rather than fail.
            return self._static_fallback(
                request,
                reason=f"simulation budget blown ({sampling.truncation_reason})",
                partial={
                    "samples": sampling.sample_count,
                    "events": sampling.total_events,
                },
            )
        result: Dict[str, object] = {
            "workload": workload.name,
            "samples": sampling.sample_count,
            "events": sampling.total_events,
            "accesses": sampling.total_accesses,
            "has_conflicts": report.has_conflicts,
            "conflicting_loops": [
                loop.loop_name for loop in report.conflicting_loops()
            ],
        }
        if request.window is not None:
            result["timeline"] = self._windowed_timeline(
                request, profiler, sampling.samples
            )
        return ExecutionResult(status=JobStatus.COMPLETED, result=result)

    def _windowed_timeline(
        self, request: JobRequest, profiler, samples
    ) -> Dict[str, object]:
        """Windowed phase analysis for a profile job, as a wire timeline.

        The daemon's telemetry snapshot counts the analyzed windows in
        ``service.jobs.window.*``, which is where operators see how much
        of the fleet's work falls in conflict phases.
        """
        analysis = PhaseAnalyzer(
            profiler.geometry, window=request.window
        ).analyze(samples)
        registry = get_registry()
        registry.counter("service.jobs.window.completed").inc(
            len(analysis.phases)
        )
        conflicts = len(analysis.conflict_phases())
        if conflicts:
            registry.counter("service.jobs.window.conflicts").inc(conflicts)
        return analysis.timeline_record(
            max_windows=WIRE_TIMELINE_WINDOWS, engine=profiler.backend.name
        )

    def _compare(self, request: JobRequest) -> ExecutionResult:
        name, _, variant = request.workload.partition(":")
        if variant:
            raise AnalysisError(
                "compare takes a bare workload name; it runs both variants"
            )
        profiler = self._profiler(request)
        before = profiler.run(resolve_workload(name, **request.params))
        after = profiler.run(
            resolve_workload(f"{name}:optimized", **request.params)
        )
        truncated = (
            before.raw_profile.sampling.truncated
            or after.raw_profile.sampling.truncated
        )
        if truncated:
            return self._static_fallback(
                request, reason="simulation budget blown during compare"
            )
        return ExecutionResult(
            status=JobStatus.COMPLETED,
            result={
                "workload": name,
                "conflicts_before": before.has_conflicts,
                "conflicts_after": after.has_conflicts,
                "resolved": before.has_conflicts and not after.has_conflicts,
            },
        )

    def _predict(self, request: JobRequest) -> ExecutionResult:
        cache = self._analysis_cache(request)
        report = cache.request(ConflictPredictionAnalysis).report
        return ExecutionResult(
            status=JobStatus.COMPLETED,
            result=self._prediction_summary(report),
        )

    # -- degradation ladder ---------------------------------------------

    def _screen_fallback(
        self, request: JobRequest, *, reason: str
    ) -> Optional[ExecutionResult]:
        """The ladder's cheapest rung: answer from the analytical screen.

        A saturated queue tries the birthday/folding screen before the
        (costlier, footprint-enumerating) static predictor.  Only a
        decisive ``clear`` answers here — suspect and unknown verdicts
        return ``None`` so the job falls through to the next rung.
        """
        try:
            cache = self._analysis_cache(request)
        except ReproError:
            return None
        try:
            screen = cache.request(ScreeningAnalysis).report
        except ReproError:
            return None
        if screen.verdict != SCREEN_CLEAR:
            return None
        get_registry().counter("service.jobs.degraded_screen").inc()
        result: Dict[str, object] = {
            "workload": screen.workload_name,
            "trace_accesses_simulated": 0,
            "has_conflicts": False,
            "conflicting_loops": [],
            "screen": screen.to_record(),
        }
        return ExecutionResult(
            status=JobStatus.DEGRADED,
            result=result,
            degraded_reason=reason,
            confidence=SCREEN_CLEAR_CONFIDENCE,
        )

    def _static_fallback(
        self,
        request: JobRequest,
        *,
        reason: str,
        partial: Optional[Dict[str, object]] = None,
    ) -> ExecutionResult:
        """Serve a static prediction in place of a full simulation."""
        registry = get_registry()
        try:
            cache = self._analysis_cache(request)
        except ReproError:
            # No declared access patterns: return the partial dynamic
            # result (if any) as the last rung of the ladder.
            registry.counter("service.jobs.degraded_partial").inc()
            return ExecutionResult(
                status=JobStatus.DEGRADED,
                result=dict(partial or {}),
                degraded_reason=reason + "; workload has no static model",
                confidence=PARTIAL_PROFILE_CONFIDENCE,
            )
        report = cache.request(ConflictPredictionAnalysis).report
        registry.counter("service.jobs.degraded_static").inc()
        result = self._prediction_summary(report)
        if partial:
            result["partial_profile"] = dict(partial)
        return ExecutionResult(
            status=JobStatus.DEGRADED,
            result=result,
            degraded_reason=reason,
            confidence=STATIC_FALLBACK_CONFIDENCE,
        )

    @staticmethod
    def _prediction_summary(report) -> Dict[str, object]:
        return {
            "workload": report.workload_name,
            "trace_accesses_simulated": 0,
            "has_conflicts": report.has_conflicts,
            "conflicting_loops": [
                loop.loop_name for loop in report.conflicting_loops()
            ],
        }


def response_for(
    request: JobRequest,
    outcome: ExecutionResult,
    *,
    elapsed_ms: float,
    attempts: int,
) -> JobResponse:
    """Assemble the wire response for a terminal execution outcome."""
    return JobResponse(
        id=request.id,
        tenant=request.tenant,
        status=outcome.status,
        result=outcome.result,
        degraded_reason=outcome.degraded_reason,
        confidence=outcome.confidence,
        elapsed_ms=elapsed_ms,
        attempts=attempts,
    )
