"""The traced run: spans around each layer's public call, kept in memory.

Every span is recorded by the benchmark itself, around calls into the
program (nothing inside ``src/`` is instrumented for it).  A span has a
name, start, end, the index of the span that caused it and the id of the
job it belongs to; :meth:`Spans.write` dumps them as JSON lines at the end
of the run.

:func:`probe_job` takes one job through every layer separately, so each
layer's time, work and counts can be read off its own span:

``workloads.build`` -> ``workloads.generate`` -> ``engine.simulate`` ->
``pmu.sample`` -> ``core.analyze`` -> ``reporting.render`` ->
``analysis.screen`` -> ``analysis.predict`` -> ``engine.sharded.simulate``

``pmu.sample`` simulates the L1 again on the same batches, so its self
time is ``pmu.sample`` minus ``engine.simulate``.  The sample, analyze and
render calls then run twice more in one span each (``replay.obs_on``,
``replay.obs_off``), once with the program's metrics registry and tracer
live and once with the null ones: the first against the three layer spans
gives the benchmark's own tracing overhead, the second against the first
the program's observability overhead.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.analysis import AnalysisCache, ConflictPredictionAnalysis, StaticModel
from repro.core.profiler import CCProf, OfflineAnalyzer
from repro.engine import get_backend
from repro.errors import AnalysisError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, use_registry
from repro.obs.tracing import NULL_TRACER, Tracer, use_tracer
from repro.pmu.monitor import MonitorSession
from repro.pmu.periods import UniformJitterPeriod
from repro.reporting.files import write_result_file
from repro.trace.batch import as_batches

from perfbench.cases import PERIOD
from perfbench.hostspeed import HostSpeed

#: Shard count for ``engine.sharded.simulate``: at most the host's CPUs.
SHARDED_WORKERS = max(1, min(2, os.cpu_count() or 1))


class Spans:
    """An in-memory span recorder.

    With a :class:`HostSpeed`, the host's speed is sampled as each span
    closes, and the span records the correction factor over its duration
    and the time taken by samples inside it (``inner_s``), which
    :meth:`seconds` leaves out.  Both are meaningful for spans with no
    spans inside them, the ones the metrics read.
    """

    def __init__(self, host: Optional[HostSpeed] = None) -> None:
        self.records: List[Dict[str, object]] = []
        self.host = host
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, job: str, **attrs: object) -> Iterator[Dict[str, object]]:
        """Record ``name`` around the body; yields the record for attrs."""
        host = self.host
        if host is not None:
            raw, corrected, inner = host.raw_s, host.corrected_s, host.inner_s
        record: Dict[str, object] = {
            "name": name, "job": job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None,
            "factor": 1.0, "inner_s": 0.0, **attrs,
        }
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if host is not None:
                host.sample()
                record["inner_s"] = host.inner_s - inner
                record["factor"] = (host.corrected_s - corrected) / (host.raw_s - raw)

    def add(self, name: str, job: str, start: float, end: float, **attrs: object) -> None:
        """Record a span timed by the caller, uncorrected (concurrent jobs
        have no common stack, so these spans have no parent)."""
        self.records.append({
            "name": name, "job": job, "parent": None,
            "start": start, "end": end, "factor": 1.0, "inner_s": 0.0, **attrs,
        })

    def seconds(self, name: str, job: str) -> float:
        """Host-corrected summed duration of ``job``'s spans ``name``."""
        return sum(
            (float(r["end"]) - float(r["start"]) - float(r["inner_s"]))  # type: ignore[arg-type]
            * float(r["factor"])  # type: ignore[arg-type]
            for r in self.records
            if r["name"] == name and r["job"] == job and r["end"] is not None
        )

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.records):
                handle.write(json.dumps({"index": index, **record}) + "\n")


@dataclass
class Probe:
    """What :func:`probe_job` measured for one job besides its spans."""

    job: str
    conflict: bool
    accesses: int = 0
    misses: int = 0
    events: int = 0
    samples: int = 0
    degraded: bool = False
    hot_loop_samples: List[int] = field(default_factory=list)
    hot_loops_classified: int = 0
    #: Host-corrected seconds of the replays of sample, analyze and render
    #: with the program's observability on and off.
    obs_on_s: float = 0.0
    obs_off_s: float = 0.0
    problems: List[str] = field(default_factory=list)


def _predict(workload) -> None:
    try:
        AnalysisCache(StaticModel.from_workload(workload)).request(
            ConflictPredictionAnalysis
        )
    except AnalysisError:
        pass  # the workload declares no access patterns: nothing to predict


def probe_predict(spans: Spans, job: str, build: Callable[[], object],
                  conflict: bool) -> Probe:
    """Take a static-prediction job through its layers (no trace at all)."""
    with spans.span("job", job):
        with spans.span("workloads.build", job):
            workload = build()
        with spans.span("analysis.screen", job):
            CCProf().screen(workload)
        with spans.span("analysis.predict", job):
            _predict(workload)
    return Probe(job=job, conflict=conflict)


def probe_job(
    spans: Spans, job: str, build: Callable[[], object], conflict: bool,
    seed: int, result_dir: Path, order: int,
) -> Probe:
    """Take one job through every layer, each call in its own span.

    The two replays of sample, analyze and render run in an order
    alternating with ``order``.
    """
    probe = Probe(job=job, conflict=conflict)
    analyzer = OfflineAnalyzer()

    def feed(items):
        """``items`` with host-speed samples between batches, if sampling."""
        return items if spans.host is None else spans.host.interleave(items)

    with spans.span("job", job):
        with spans.span("workloads.build", job):
            workload = build()
            image = workload.image  # type: ignore[attr-defined]
        name = workload.name  # type: ignore[attr-defined]
        allocator = workload.allocator  # type: ignore[attr-defined]
        with spans.span("workloads.generate", job) as record:
            batches = list(feed(as_batches(workload.trace())))  # type: ignore[attr-defined]
            probe.accesses = record["accesses"] = sum(len(b) for b in batches)
        with spans.span("engine.simulate", job):
            stats = get_backend("batched").simulate(feed(batches), split_lines=False)
        session = MonitorSession(period=UniformJitterPeriod(PERIOD), seed=seed)
        with spans.span("pmu.sample", job):
            profile = session.profile(feed(batches), allocator=allocator, image=image)
        with spans.span("core.analyze", job):
            report = analyzer.analyze(profile, workload_name=name)
        with spans.span("reporting.render", job):
            report.render()
            write_result_file(result_dir / f"{job}.result", report)
        with spans.span("analysis.screen", job):
            CCProf().screen(workload)
        with spans.span("analysis.predict", job):
            _predict(workload)
        with spans.span("engine.sharded.simulate", job, workers=SHARDED_WORKERS):
            sharded = get_backend("sharded").configure(
                workers=SHARDED_WORKERS, crossover=0
            ).simulate(feed(batches), split_lines=False)

    sampling = profile.sampling
    probe.misses = stats.misses
    probe.events, probe.samples = sampling.total_events, sampling.sample_count
    probe.degraded = report.data_quality.degraded
    hot = [loop for loop in report.loops
           if loop.miss_contribution >= analyzer.settings.hot_loop_share]
    probe.hot_loop_samples = [loop.sample_count for loop in hot]
    probe.hot_loops_classified = sum(
        loop.sample_count >= analyzer.settings.min_samples for loop in hot
    )
    if stats.hits + stats.misses != stats.accesses or stats.accesses != probe.accesses:
        probe.problems.append(f"{job}: simulate saw {stats.accesses} accesses, "
                              f"{stats.hits} hits + {stats.misses} misses")
    if sharded != stats:
        probe.problems.append(f"{job}: sharded simulation differs from batched")
    if sampling.total_accesses != probe.accesses:
        probe.problems.append(f"{job}: sampler saw {sampling.total_accesses} of "
                              f"{probe.accesses} generated accesses")
    if not sampling.sample_count <= sampling.total_events:
        probe.problems.append(f"{job}: more samples than events")

    def replay() -> None:
        rerun = session.profile(feed(batches), allocator=allocator, image=image)
        again = analyzer.analyze(rerun, workload_name=name)
        again.render()
        write_result_file(result_dir / f"{job}.result", again)

    for obs_on in ((True, False) if order % 2 else (False, True)):
        label = "replay.obs_on" if obs_on else "replay.obs_off"
        with use_registry(MetricsRegistry() if obs_on else NULL_REGISTRY), \
                use_tracer(Tracer() if obs_on else NULL_TRACER), \
                spans.span(label, job):
            replay()
    probe.obs_on_s = spans.seconds("replay.obs_on", job)
    probe.obs_off_s = spans.seconds("replay.obs_off", job)
    return probe
