"""The benchmark's workload runners and metrics (entry point: ``run.py``).

Each runner repeats its workload's fixed set of jobs until the run's
duration is spent, always finishing the pass it is in, and checks every
job's output; an exception or a violated check is a failed operation.
Program modules are imported here, at module level, so import time is
set-up (``setup_s``), never part of a timed job.
"""

from __future__ import annotations

import asyncio
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.profiler import CCProf, OfflineAnalyzer
from repro.engine import get_backend
from repro.pmu.monitor import MonitorSession
from repro.pmu.periods import UniformJitterPeriod
from repro.reporting.files import write_result_file
from repro.trace.batch import as_batches
from repro.workloads.registry import resolve_workload

from perfbench.cases import CASES, PERIOD, smoke_cases
from perfbench.hostspeed import HostSpeed
from perfbench.layers import Probe, Spans, probe_job, probe_predict
from perfbench.service_mix import (
    CLIENTS, MIX, check_response, make_service, mix_job, run_loop,
)
from perfbench.setwalk import COLS, LABELS, PHASES, ROWS, SWEEPS, SetWalk

ROOT = Path(__file__).resolve().parent.parent
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 5


@dataclass
class Job:
    """One timed operation of the untraced run and what its checks found."""

    id: str
    latency_s: float
    #: Host-speed correction for this job's times (``hostspeed.py``).
    factor: float = 1.0
    exec_s: float = 0.0
    accesses: int = 0
    verdict_ok: bool = False
    degraded: bool = False
    rejected: bool = False
    problems: List[str] = field(default_factory=list)


@dataclass
class Run:
    """Everything one workload run measured."""

    jobs: List[Job] = field(default_factory=list)
    jobs_per_pass: int = 1
    #: The jobs' wall time, without the host-speed samples taken between
    #: and inside them, as measured and as corrected for the host's speed.
    seconds: float = 0.0
    corrected_s: float = 0.0
    host: HostSpeed = field(default_factory=HostSpeed)
    #: Operations besides the timed jobs: oracle checks, probes, warm-up.
    checks: int = 0
    failed_checks: int = 0
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)

    def time_job(self, job: Callable[[], Job]) -> None:
        """Run and record one job, then sample the host's speed.

        Samples the job took inside itself (``HostSpeed.interleave``) are
        taken out of its times.
        """
        host = self.host
        raw, corrected, inner = host.raw_s, host.corrected_s, host.inner_s
        result = _timed(job)
        host.sample()
        result.latency_s -= host.inner_s - inner
        result.exec_s -= host.inner_s - inner
        result.factor = (host.corrected_s - corrected) / (host.raw_s - raw)
        self.jobs.append(result)
        self.seconds += result.latency_s
        self.corrected_s += result.latency_s * result.factor

    def check(self, label: str, check: Callable[[], List[str]]) -> None:
        """Run one counted check; an exception or a problem fails it."""
        self.checks += 1
        try:
            problems = check()
        except Exception as exc:  # a failed operation: count it and go on
            problems = [f"{label}: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed_checks += 1
            self.problems.extend(problems)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _p90(values: List[float]) -> float:
    """Nearest-rank 90th percentile: an observed job time, never one
    interpolated across the gap between two kinds of job."""
    return sorted(values)[math.ceil(0.9 * len(values)) - 1]


def _timed(build: Callable[[], Job]) -> Job:
    """Run one job; an exception becomes a failed job, not a crash."""
    start = time.perf_counter()
    try:
        return build()
    except Exception as exc:  # the job failed: count it and go on
        return Job(id="?", latency_s=time.perf_counter() - start,
                   problems=[f"{type(exc).__name__}: {exc}"])


def _repeat(run: Run, jobs: List[Callable[[], Job]], seconds: float) -> Run:
    """Run passes over ``jobs`` until ``seconds`` have passed, sampling
    the host's speed between jobs."""
    run.host.sample()
    while run.seconds < seconds:
        for job in jobs:
            run.time_job(job)
    return run


def _traced(run: Run, seed: int, workdir: Path, jobs, spans: Spans,
            service_jobs: Optional[List[Job]] = None) -> Run:
    """The traced run: probe every job layer by layer, then fill
    ``run.layers``.  ``jobs`` holds ``(kind, id, build, label)`` per job,
    ``kind`` being ``profile`` or ``predict``."""
    probes = []
    run.host.sample()
    for order, (kind, job_id, build, conflict) in enumerate(jobs):
        if kind == "predict":
            probe = _probe(run, lambda: probe_predict(spans, job_id, build, conflict),
                           job_id)
        else:
            probe = _probe(run, lambda: probe_job(
                spans, job_id, build, conflict, seed, workdir, order
            ), job_id)
        if probe is not None:
            probes.append(probe)
    run.layers = _layer_metrics(spans, probes, workdir, service_jobs)
    return run


def _probe(run: Run, probe: Callable[[], Probe], job_id: str) -> Optional[Probe]:
    """Run one probe as a counted check; ``None`` when it raised."""
    probes: List[Probe] = []

    def check() -> List[str]:
        probes.append(probe())
        return probes[-1].problems

    run.check(f"probe {job_id}", check)
    return probes[0] if probes else None


# -- casestudies -------------------------------------------------------------


class _Interleaved:
    """A workload whose trace reaches the profiler as batches with
    host-speed samples between them.

    ``as_batches(workload.trace())`` is the conversion the batched engine
    applies to a scalar trace anyway (same batch size), so the program
    does the same work; only the ``trace.batch.*`` counters count each
    batch twice.  Without this, a 10 s nw run would be corrected by the
    two samples around it alone.
    """

    def __init__(self, workload, host: HostSpeed) -> None:
        self._workload = workload
        self._host = host

    def __getattr__(self, name: str):
        return getattr(self._workload, name)

    def trace(self):
        return self._host.interleave(as_batches(self._workload.trace()))


def _run_case(case, seed: int, result_dir: Path, host: HostSpeed) -> Job:
    start = time.perf_counter()
    workload = resolve_workload(case.spec, **case.params)
    run_start = time.perf_counter()
    report = CCProf(period=UniformJitterPeriod(PERIOD), seed=seed).run(
        _Interleaved(workload, host)
    )
    exec_s = time.perf_counter() - run_start
    text = report.render()
    write_result_file(result_dir / f"{case.spec.replace(':', '-')}.result", report)
    latency = time.perf_counter() - start

    sampling = report.raw_profile.sampling
    stats = sampling.cache_stats
    job = Job(id=case.spec, latency_s=latency, exec_s=exec_s,
              accesses=sampling.total_accesses,
              verdict_ok=report.has_conflicts == case.conflict,
              degraded=report.data_quality.degraded)
    if stats.hits + stats.misses != stats.accesses:
        job.problems.append(f"{case.spec}: hits + misses != accesses")
    if case.accesses is not None and sampling.total_accesses != case.accesses:
        job.problems.append(
            f"{case.spec}: sampler saw {sampling.total_accesses} accesses, "
            f"the pinned sizes generate {case.accesses}"
        )
    if not sampling.sample_count <= sampling.total_events:
        job.problems.append(f"{case.spec}: more samples than events")
    if workload.name not in text:
        job.problems.append(f"{case.spec}: report does not name its workload")
    return job


def run_casestudies(seed: int, seconds: float, trace: bool, workdir: Path,
                    smoke: bool = False) -> Run:
    cases = smoke_cases() if smoke else CASES
    run = Run(jobs_per_pass=len(cases))
    if trace:
        return _traced(run, seed, workdir, [
            ("profile", c.spec, (lambda c=c: resolve_workload(c.spec, **c.params)),
             c.conflict)
            for c in cases
        ], Spans(run.host))
    return _repeat(run, [(lambda c=c: _run_case(c, seed, workdir, run.host))
                         for c in cases], seconds)


# -- setwalk -----------------------------------------------------------------


def _run_phase(phase: str, seed: int, sweeps: int, result_dir: Path,
               host: HostSpeed) -> Job:
    start = time.perf_counter()
    walk = SetWalk(phase, seed, sweeps=sweeps)
    session = MonitorSession(period=UniformJitterPeriod(PERIOD), seed=seed)
    run_start = time.perf_counter()
    profile = session.profile(
        host.interleave(walk.trace()),
        allocator=walk.allocator, image=walk.image,
    )
    report = OfflineAnalyzer().analyze(profile, workload_name=walk.name)
    exec_s = time.perf_counter() - run_start
    report.render()
    write_result_file(result_dir / f"{walk.name}.result", report)
    latency = time.perf_counter() - start

    sampling = profile.sampling
    stats = sampling.cache_stats
    expected = ROWS * COLS * sweeps
    job = Job(id=phase, latency_s=latency, exec_s=exec_s,
              accesses=sampling.total_accesses,
              verdict_ok=report.has_conflicts == LABELS[phase],
              degraded=report.data_quality.degraded)
    if stats.hits + stats.misses != stats.accesses:
        job.problems.append(f"{phase}: hits + misses != accesses")
    if sampling.total_accesses != expected:
        job.problems.append(
            f"{phase}: sampler saw {sampling.total_accesses} of {expected} accesses"
        )
    if stats.misses != round(expected * walk.expected_miss_ratio):
        job.problems.append(
            f"{phase}: {stats.misses} misses, the walk forces "
            f"{round(expected * walk.expected_miss_ratio)}"
        )
    if not sampling.sample_count <= sampling.total_events:
        job.problems.append(f"{phase}: more samples than events")
    return job


#: Accesses of each phase replayed through the scalar reference engine.
ORACLE_PREFIX = 32768


def _oracle_check(phase: str, seed: int, sweeps: int) -> List[str]:
    """The scalar engine must match the batched one bit for bit."""
    prefix = SetWalk(phase, seed, sweeps=sweeps).prefix(ORACLE_PREFIX)
    problems = []
    if get_backend("scalar").simulate(prefix, split_lines=False) != get_backend(
        "batched"
    ).simulate(prefix, split_lines=False):
        problems.append(f"{phase}: scalar and batched simulations differ")
    samples = [
        MonitorSession(period=UniformJitterPeriod(PERIOD), seed=seed, engine=engine)
        .profile(prefix).sampling
        for engine in ("scalar", "batched")
    ]
    if (samples[0].samples, samples[0].total_events) != (
        samples[1].samples, samples[1].total_events
    ):
        problems.append(f"{phase}: scalar and batched sampling differ")
    return problems


def run_setwalk(seed: int, seconds: float, trace: bool, workdir: Path,
                smoke: bool = False) -> Run:
    sweeps = 1 if smoke else SWEEPS
    run = Run(jobs_per_pass=len(PHASES))
    if trace:
        _traced(run, seed, workdir, [
            ("profile", p, (lambda p=p: SetWalk(p, seed, sweeps=sweeps)), LABELS[p])
            for p in PHASES
        ], Spans(run.host))
    else:
        _repeat(run, [(lambda p=p: _run_phase(p, seed, sweeps, workdir, run.host))
                      for p in PHASES], seconds)
    for phase in PHASES:
        run.check(f"{phase} oracle", lambda: _oracle_check(phase, seed, sweeps))
    return run


# -- service_mix -------------------------------------------------------------


def run_service_mix(seed: int, seconds: float, trace: bool, workdir: Path,
                    smoke: bool = False) -> Run:
    expected = {
        job.spec: sum(len(b) for b in as_batches(
            resolve_workload(job.spec, **job.params).trace()
        ))
        for job in MIX if job.kind == "profile"
    }
    max_rounds = 1 if smoke else None
    spans = Spans() if trace else None

    async def drive():
        service = make_service(workdir)
        await service.start()
        try:
            warmup = await run_loop(service, seed + (1 << 20), 0.0, max_rounds=1,
                                    min_rounds=1)
            timed = await run_loop(service, seed, seconds, max_rounds=max_rounds,
                                   spans=spans)
            return warmup, timed
        finally:
            await service.stop()

    warmup, timed = asyncio.run(drive())
    run = Run(jobs_per_pass=CLIENTS * len(MIX), seconds=timed.seconds,
              corrected_s=timed.corrected_s)
    for outcome in warmup.outcomes:
        run.check(outcome.request.id, lambda: check_response(outcome, expected))
    for outcome in timed.outcomes:
        response = outcome.response
        job = Job(id=outcome.request.id, latency_s=outcome.latency_s,
                  factor=outcome.factor, problems=check_response(outcome, expected))
        if response is not None:
            job.exec_s = response.elapsed_ms / 1000.0
            job.accesses = int(response.result.get("accesses", 0))
            job.verdict_ok = (
                response.result.get("has_conflicts") == mix_job(outcome.request).conflict
            )
            job.degraded = response.status == "degraded"
            job.rejected = response.status == "rejected"
        run.jobs.append(job)
    if trace:
        service_jobs, run.jobs = run.jobs, []
        spans.host = run.host
        _traced(run, seed, workdir, [
            (job.kind, f"{job.kind}-{job.spec}",
             (lambda job=job: resolve_workload(job.spec, **job.params)), job.conflict)
            for job in MIX
        ], spans, service_jobs)
    return run


# -- the traced run ----------------------------------------------------------


#: The spans of a probe that redo what the untraced job does.
TRACED_JOB_SPANS = ("workloads.build", "workloads.generate", "pmu.sample",
                    "core.analyze", "reporting.render")


#: The probe spans that the span-less replays of a probe repeat.
REPLAYED_SPANS = ("pmu.sample", "core.analyze", "reporting.render")


def _layer_metrics(spans: Spans, probes: List[Probe], workdir: Path,
                   service_jobs: Optional[List[Job]]) -> Dict[str, float]:
    """The per-layer metrics of a traced run; writes its spans.

    Times are corrected for the host's speed like the end-to-end ones.
    ``service_jobs`` are the daemon's jobs on service_mix; elsewhere each
    probe stands for its job, the pipeline (generate, sample, analyze)
    being what a daemon would execute.
    """
    spans.write(workdir.parent / f"spans-{workdir.name}.jsonl")
    if not probes:
        return {}

    def sec(name: str, chosen: Optional[List[Probe]] = None) -> float:
        return sum(spans.seconds(name, p.job)
                   for p in (probes if chosen is None else chosen))

    def of(probe: Probe, names) -> float:
        return sum(spans.seconds(name, probe.job) for name in names)

    comparable = sum(of(p, TRACED_JOB_SPANS) for p in probes)
    accesses = sum(p.accesses for p in probes)
    misses = sum(p.misses for p in probes)

    def phase_rate(conflict: bool) -> float:
        chosen = [p for p in probes if p.conflict == conflict]
        busy = sec("engine.simulate", chosen)
        return sum(p.accesses for p in chosen) / busy if busy else 0.0

    hot = [n for p in probes for n in p.hot_loop_samples]
    events = sum(p.events for p in probes)
    samples = sum(p.samples for p in probes)
    if service_jobs is None:
        service_jobs = [  # times already host-corrected: factor 1
            Job(id=p.job, latency_s=of(p, TRACED_JOB_SPANS),
                exec_s=of(p, ("workloads.generate", "pmu.sample", "core.analyze")),
                degraded=p.degraded)
            for p in probes
        ]
    ok_jobs = [j for j in service_jobs if not j.problems] or service_jobs
    return {
        "workloads.build_s": sec("workloads.build"),
        "workloads.generate_s": sec("workloads.generate"),
        "workloads.generate_accesses_per_s": accesses / sec("workloads.generate"),
        "workloads.accesses": float(accesses),
        "workloads.generate_share": sec("workloads.generate") / comparable,
        "engine.simulate_s": sec("engine.simulate"),
        "engine.simulate_accesses_per_s": accesses / sec("engine.simulate"),
        "engine.simulate_share": sec("engine.simulate") / comparable,
        "engine.sharded.simulate_s": sec("engine.sharded.simulate"),
        "cache.l1_miss_ratio": misses / accesses,
        "cache.conflict_phase_accesses_per_s": phase_rate(True),
        "cache.padded_phase_accesses_per_s": phase_rate(False),
        "pmu.sample_s": sec("pmu.sample"),
        "pmu.sample_self_s": sec("pmu.sample") - sec("engine.simulate"),
        "pmu.events": float(events),
        "pmu.samples": float(samples),
        "pmu.samples_per_event": samples / events if events else 0.0,
        "core.analyze_s": sec("core.analyze"),
        "core.hot_loops": float(len(hot)),
        "core.hot_loops_classified_share": (
            sum(p.hot_loops_classified for p in probes) / len(hot) if hot else 0.0
        ),
        "core.hot_loop_samples_min": float(min(hot)) if hot else 0.0,
        "analysis.screen_s": sec("analysis.screen"),
        "analysis.predict_s": sec("analysis.predict"),
        "reporting.render_s": sec("reporting.render"),
        "obs.overhead_share": sum(p.obs_on_s - p.obs_off_s for p in probes) / comparable,
        "service.exec_ms_p50": _ms(statistics.median(
            j.exec_s * j.factor for j in ok_jobs
        )),
        "service.wait_ms_p50": _ms(statistics.median(
            (j.latency_s - j.exec_s) * j.factor for j in ok_jobs
        )),
        "service.degraded_share": (
            sum(j.degraded for j in service_jobs) / len(service_jobs)
        ),
        "service.rejected_share": (
            sum(j.rejected for j in service_jobs) / len(service_jobs)
        ),
        "bench.trace_overhead_share": sum(
            of(p, REPLAYED_SPANS) - p.obs_on_s for p in probes
        ) / comparable,
    }


# -- set-up time -------------------------------------------------------------


def measure_setup(workload: str, runs: int) -> float:
    """Median set-up time over ``runs`` fresh interpreters."""
    times = []
    for _ in range(runs):
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# -- metrics -----------------------------------------------------------------

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "accesses_per_s": "accesses/s",
    "peak_rss_mb": "MiB",
    "verdict_accuracy": "share",
    "jobs_per_s": "jobs/s",
    "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms",
}

#: name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER_UNITS = {
    "workloads.build_s": "s",
    "workloads.generate_s": "s",
    "workloads.generate_accesses_per_s": "accesses/s",
    "workloads.accesses": "accesses",
    "workloads.generate_share": "share",
    "engine.simulate_s": "s",
    "engine.simulate_accesses_per_s": "accesses/s",
    "engine.simulate_share": "share",
    "engine.sharded.simulate_s": "s",
    "cache.l1_miss_ratio": "share",
    "cache.conflict_phase_accesses_per_s": "accesses/s",
    "cache.padded_phase_accesses_per_s": "accesses/s",
    "pmu.sample_s": "s",
    "pmu.sample_self_s": "s",
    "pmu.events": "events",
    "pmu.samples": "samples",
    "pmu.samples_per_event": "samples/event",
    "core.analyze_s": "s",
    "core.hot_loops": "loops",
    "core.hot_loops_classified_share": "share",
    "core.hot_loop_samples_min": "samples",
    "analysis.screen_s": "s",
    "analysis.predict_s": "s",
    "reporting.render_s": "s",
    "obs.overhead_share": "share",
    "service.exec_ms_p50": "ms",
    "service.wait_ms_p50": "ms",
    "service.degraded_share": "share",
    "service.rejected_share": "share",
    "bench.trace_overhead_share": "share",
}


def end_to_end(run: Run, setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run, times host-corrected."""
    ok = [job for job in run.jobs if not job.problems]
    if not ok:
        return {}
    seconds = run.corrected_s
    latencies = [_ms(job.latency_s * job.factor) for job in ok]
    return {
        "setup_s": setup_s,
        "wall_s": seconds * run.jobs_per_pass / len(run.jobs),
        "accesses_per_s": sum(job.accesses for job in ok) / seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdict_accuracy": sum(job.verdict_ok for job in ok) / len(run.jobs),
        "jobs_per_s": len(ok) / seconds,
        "job_latency_p50_ms": statistics.median(latencies),
        "job_latency_p90_ms": _p90(latencies),
    }


RUNNERS = {
    "casestudies": run_casestudies,
    "setwalk": run_setwalk,
    "service_mix": run_service_mix,
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, smoke: bool = False,
                 setup_runs: int = SETUP_RUNS) -> Dict[str, object]:
    """Run one workload and return the result object that is printed."""
    setup_s = 0.0 if trace else measure_setup(workload, setup_runs)
    run = RUNNERS[workload](seed, seconds, trace, workdir, smoke=smoke)
    failed = sum(1 for job in run.jobs if job.problems) + run.failed_checks
    values = run.layers if trace else end_to_end(run, setup_s)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for job in run.jobs:
        for problem in job.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{run.seconds:.3f} s of jobs measured, {run.corrected_s:.3f} s after "
          "host-speed correction", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(run.jobs) + run.checks,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items() if name in values
        },
    }


