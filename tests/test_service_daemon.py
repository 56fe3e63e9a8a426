"""End-to-end daemon tests over a real unix socket.

Each test spins up a :class:`CCProfService` inside ``asyncio.run`` with an
isolated metrics registry, drives it through raw stream connections (so
protocol-level failures are visible, not hidden behind the client), and
asserts on responses, journal contents, and counters.
"""

import asyncio
import threading

import pytest

from repro.errors import ServiceError, WorkerCrashError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.service.admission import AdmissionConfig
from repro.service.daemon import CCProfService, ServiceConfig
from repro.service.executor import JobExecutor
from repro.service.journal import JobJournal, JobState
from repro.service.protocol import (
    MAX_LINE_BYTES,
    JobRequest,
    JobResponse,
    JobStatus,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def make_request(**overrides):
    record = dict(
        id="j1", tenant="t", kind="predict", workload="symmetrization",
        params={"n": 48, "sweeps": 1}, period=64,
    )
    record.update(overrides)
    return JobRequest(**record)


def make_blocker(job_id="blocker", **overrides):
    """A profile job that pins a worker for tens of milliseconds while a
    second request races it; callers wait until it runs."""
    return make_request(
        id=job_id, kind="profile", workload="nw", params={"n": 96}, **overrides
    )


def make_config(tmp_path, **overrides):
    defaults = dict(
        socket_path=str(tmp_path / "ccprof.sock"),
        workers=2,
        journal_path=str(tmp_path / "jobs.journal"),
        read_timeout=2.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def wait_until(condition, what, timeout=10.0):
    """Poll ``condition()`` until it holds; fail after ``timeout`` s."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        if loop.time() > deadline:
            raise AssertionError(f"timed out after {timeout}s waiting for {what}")
        await asyncio.sleep(0.005)


async def submit_raw(socket_path, request):
    """One connection, one request line, one response line."""
    reader, writer = await asyncio.open_unix_connection(socket_path)
    try:
        writer.write(request.encode())
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=60)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return JobResponse.decode(line.rstrip(b"\n"))


def run_service(config, coroutine_fn):
    """Start the daemon, run ``coroutine_fn(service)``, stop cleanly."""

    async def scenario():
        async with CCProfService(config) as service:
            return await coroutine_fn(service)

    return asyncio.run(scenario())


class TestHappyPath:
    def test_predict_job_completes(self, tmp_path):
        config = make_config(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                return await submit_raw(config.socket_path, make_request())

            response = run_service(config, scenario)
        assert response.status == JobStatus.COMPLETED
        assert response.id == "j1" and response.tenant == "t"
        assert response.attempts == 1
        assert response.result  # prediction summary present
        assert registry.counter("service.jobs.completed").value == 1
        # Journal shows the full received -> running -> completed arc.
        records, _ = JobJournal.replay(config.journal_path)
        assert [r.state for r in records] == [
            JobState.RECEIVED, JobState.RUNNING, JobState.COMPLETED,
        ]

    def test_reused_job_id_resolves_again(self, tmp_path):
        # A tenant reusing an id on a later connection (e.g. the CLI's
        # default id submitted twice) is a fresh job, not a duplicate:
        # the second submission must resolve and release its quota slot.
        config = make_config(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                first = await submit_raw(config.socket_path, make_request())
                second = await submit_raw(config.socket_path, make_request())
                return (
                    first,
                    second,
                    service.admission.tenant_load("t"),
                    service.admission.running,
                )

            first, second, load, running = run_service(config, scenario)
        assert first.status == JobStatus.COMPLETED
        assert second.status == JobStatus.COMPLETED
        assert (load, running) == (0, 0)  # no leaked quota or run slots
        assert registry.counter("service.jobs.completed").value == 2
        assert registry.counter("service.jobs.duplicate_resolutions").value == 0

    def test_same_id_isolated_across_tenants(self, tmp_path):
        config = make_config(tmp_path)
        with use_registry(MetricsRegistry()):
            async def scenario(service):
                return await asyncio.gather(
                    submit_raw(config.socket_path, make_request(tenant="alpha")),
                    submit_raw(config.socket_path, make_request(tenant="beta")),
                )

            responses = run_service(config, scenario)
        by_tenant = {r.tenant: r for r in responses}
        assert set(by_tenant) == {"alpha", "beta"}
        assert all(r.status == JobStatus.COMPLETED for r in responses)
        # Tenant-scoped journal keys: ids never collide across tenants.
        records, _ = JobJournal.replay(config.journal_path)
        assert {r.job for r in records} == {"alpha/j1", "beta/j1"}


class TestDegradation:
    def test_saturated_queue_degrades_to_static_prediction(self, tmp_path):
        config = make_config(
            tmp_path,
            admission=AdmissionConfig(
                max_queue_depth=64, tenant_quota=32, degrade_threshold=0.01
            ),
        )
        with use_registry(MetricsRegistry()):
            async def scenario(service):
                return await submit_raw(
                    config.socket_path, make_request(kind="profile")
                )

            response = run_service(config, scenario)
        assert response.status == JobStatus.DEGRADED
        assert response.degraded_reason
        assert "static" in (response.confidence or "")
        assert response.result  # still a usable prediction


class TestDeadlines:
    def test_queue_wait_past_deadline_fails_cleanly(self, tmp_path):
        config = make_config(tmp_path, workers=1)
        with use_registry(MetricsRegistry()):
            async def scenario(service):
                # One slow-ish job pins the single worker; the second job's
                # 1ms deadline expires while it waits in the queue.
                blocker = asyncio.create_task(
                    submit_raw(config.socket_path, make_blocker())
                )
                await wait_until(
                    lambda: service.admission.running == 1, "the blocker to run"
                )
                victim = await submit_raw(
                    config.socket_path,
                    make_request(id="victim", deadline_ms=1),
                )
                await blocker
                return victim

            response = run_service(config, scenario)
        assert response.status == JobStatus.FAILED
        assert response.error["reason"] == "deadline-exceeded"
        assert response.error["family"] == "service"


class TestWorkerCrashes:
    def test_injected_kill_is_retried_to_success(self, tmp_path):
        config = make_config(
            tmp_path, kill_rate=1.0, kill_max=1, max_attempts=3
        )
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                return await submit_raw(config.socket_path, make_request())

            response = run_service(config, scenario)
        assert response.status == JobStatus.COMPLETED
        assert response.attempts == 2  # killed once, then succeeded
        assert registry.counter("service.jobs.crashed").value == 1
        assert registry.counter("service.jobs.retried").value == 1
        assert registry.counter("service.jobs.duplicate_resolutions").value == 0
        records, _ = JobJournal.replay(config.journal_path)
        states = [r.state for r in records]
        assert states.count(JobState.CRASHED) == 1
        assert states.count(JobState.COMPLETED) == 1

    def test_exhausted_retries_fail_with_worker_crash(self, tmp_path):
        config = make_config(tmp_path, kill_rate=1.0, max_attempts=2)
        with use_registry(MetricsRegistry()):
            async def scenario(service):
                return await submit_raw(config.socket_path, make_request())

            response = run_service(config, scenario)
        assert response.status == JobStatus.FAILED
        assert response.attempts == 2
        assert response.error["family"] == "service"
        assert response.error["reason"] == "worker-crash"
        # Terminal failure is journaled exactly once.
        records, _ = JobJournal.replay(config.journal_path)
        terminal = [r for r in records if r.state in JobState.TERMINAL]
        assert len(terminal) == 1 and terminal[0].state == JobState.FAILED


class TestRestartRecovery:
    def test_received_jobs_resume_and_running_jobs_fail(self, tmp_path):
        config = make_config(tmp_path)
        # A previous daemon journaled one queued job and one mid-run job,
        # then died.
        journal = JobJournal(config.journal_path)
        queued = make_request(id="queued")
        journal.record(
            "t/queued", "t", JobState.RECEIVED,
            request=queued.to_dict(), degrade=False,
        )
        journal.record("t/inflight", "t", JobState.RECEIVED)
        journal.record("t/inflight", "t", JobState.RUNNING, attempt=1)
        journal.close()

        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                await asyncio.wait_for(service._queue.join(), timeout=60)
                return dict(service.resolved)

            resolved = run_service(config, scenario)
        # The queued job re-ran to completion; the in-flight one could not
        # be trusted and was failed cleanly.
        assert resolved["t/queued"] == JobStatus.COMPLETED
        assert resolved["t/inflight"] == JobStatus.FAILED
        assert registry.counter("service.jobs.resumed").value == 1
        assert registry.counter("service.jobs.recovered_failed").value == 1
        last, _ = JobJournal.recover(config.journal_path)
        assert last["t/queued"].state == JobState.COMPLETED
        assert last["t/inflight"].state == JobState.FAILED
        assert last["t/inflight"].extra["error"] == "daemon-restart"

    def test_resumed_jobs_charge_tenant_quota(self, tmp_path):
        # Recovery must charge the tenant like admit() does, so the
        # resumed job's completion releases a slot it actually holds.
        config = make_config(tmp_path)
        journal = JobJournal(config.journal_path)
        journal.record(
            "t/queued", "t", JobState.RECEIVED,
            request=make_request(id="queued").to_dict(), degrade=False,
        )
        journal.close()

        with use_registry(MetricsRegistry()):
            async def scenario():
                service = CCProfService(config)
                service._recover_previous_run()
                charged = (
                    service.admission.queued,
                    service.admission.tenant_load("t"),
                )
                # Drain the resumed job by hand (no workers started) and
                # check the counters come back to zero, not negative.
                job = service._queue.get_nowait()
                service.admission.job_started()
                service._resolve_failed(job, ServiceError("test drain"))
                released = (
                    service.admission.queued,
                    service.admission.tenant_load("t"),
                    service.admission.running,
                )
                if service.journal is not None:
                    service.journal.close()
                return charged, released

            charged, released = asyncio.run(scenario())
        assert charged == (1, 1)
        assert released == (0, 0, 0)


class TestMisbehavingClients:
    def test_slow_client_is_dropped(self, tmp_path):
        config = make_config(tmp_path, read_timeout=0.2)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                reader, writer = await asyncio.open_unix_connection(
                    config.socket_path
                )
                writer.write(b'{"id": "stall"')  # never finishes the line
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                return eof

            eof = run_service(config, scenario)
        assert eof == b""  # server hung up on us
        assert registry.counter("service.clients.slow_dropped").value == 1

    def test_oversized_line_rejected(self, tmp_path):
        config = make_config(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                reader, writer = await asyncio.open_unix_connection(
                    config.socket_path
                )
                writer.write(b"x" * (MAX_LINE_BYTES + 1024) + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                writer.close()
                return JobResponse.decode(line.rstrip(b"\n"))

            response = run_service(config, scenario)
        assert response.status == JobStatus.REJECTED
        assert "exceeds" in response.error["message"]
        assert registry.counter("service.requests.oversized").value == 1

    def test_malformed_json_rejected_connection_survives(self, tmp_path):
        config = make_config(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                reader, writer = await asyncio.open_unix_connection(
                    config.socket_path
                )
                writer.write(b"this is not json\n")
                writer.write(make_request().encode())
                await writer.drain()
                first = JobResponse.decode(
                    (await reader.readline()).rstrip(b"\n")
                )
                second = JobResponse.decode(
                    (await asyncio.wait_for(reader.readline(), timeout=60)).rstrip(b"\n")
                )
                writer.close()
                return first, second

            first, second = run_service(config, scenario)
        assert first.status == JobStatus.REJECTED
        assert first.error["reason"] == "protocol"
        # The same connection still serves the valid follow-up request.
        assert second.status == JobStatus.COMPLETED
        assert registry.counter("service.requests.malformed").value == 1


class TestBackpressure:
    def test_rejection_carries_retry_after(self, tmp_path):
        config = make_config(
            tmp_path,
            workers=1,
            admission=AdmissionConfig(max_queue_depth=64, tenant_quota=1),
        )
        with use_registry(MetricsRegistry()):
            async def scenario(service):
                first = asyncio.create_task(
                    submit_raw(config.socket_path, make_blocker(job_id="a"))
                )
                await wait_until(
                    lambda: service.admission.running == 1, "the blocker to run"
                )
                over_quota = await submit_raw(
                    config.socket_path, make_request(id="b")
                )
                await first
                return over_quota

            response = run_service(config, scenario)
        assert response.status == JobStatus.REJECTED
        assert response.retry_after_ms >= 1
        assert response.error["reason"] == "admission-rejected"


class _RecordingWriter:
    """Stands in for a StreamWriter so _write can be tested directly."""

    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(data)

    async def drain(self):
        pass


class TestOversizedResponses:
    def test_oversized_result_answered_with_minimal_failure(self):
        # A result too big for one wire line must still produce *an*
        # answer — a minimal failure — not a silently dropped reply that
        # leaves the client waiting out the read timeout.
        big = JobResponse(
            id="big", tenant="t", status=JobStatus.COMPLETED,
            result={"blob": "x" * (MAX_LINE_BYTES + 1)},
        )
        with use_registry(MetricsRegistry()) as registry:
            async def scenario():
                writer = _RecordingWriter()
                await CCProfService._write(writer, asyncio.Lock(), big)
                return writer.chunks

            chunks = asyncio.run(scenario())
        assert len(chunks) == 1
        reply = JobResponse.decode(chunks[0].rstrip(b"\n"))
        assert reply.status == JobStatus.FAILED
        assert reply.id == "big" and reply.tenant == "t"
        assert reply.error["family"] == "service"
        assert reply.error["reason"] == "oversized-response"
        assert registry.counter("service.responses.oversized").value == 1


class _CrashOnReleaseExecutor(JobExecutor):
    """Blocks in execute() until released, then crashes — lets a test
    stage a worker crash inside the shutdown grace window."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def execute(self, request, *, degrade=False):
        self.started.set()
        if not self.release.wait(timeout=30):
            raise WorkerCrashError("release never came")
        raise WorkerCrashError("injected crash during shutdown")


class TestShutdown:
    def test_crash_during_shutdown_resolves_instead_of_requeueing(
        self, tmp_path
    ):
        # A job that crashes while stop() is waiting out the grace period
        # must not be requeued (workers are about to be cancelled): it is
        # failed cleanly, so it still resolves exactly once and stop()
        # returns without burning the full grace loop.
        config = make_config(tmp_path, workers=1, max_attempts=3)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario():
                executor = _CrashOnReleaseExecutor()
                service = CCProfService(config, executor=executor)
                await service.start()
                pending = asyncio.create_task(
                    submit_raw(config.socket_path, make_request())
                )
                await asyncio.to_thread(executor.started.wait, 10)
                stop_task = asyncio.create_task(service.stop())
                await asyncio.sleep(0.05)  # stop() has drained the queue
                executor.release.set()  # crash lands in the grace window
                await asyncio.wait_for(stop_task, timeout=5)
                response = await asyncio.wait_for(pending, timeout=5)
                return service, response

            service, response = asyncio.run(scenario())
        assert response.status == JobStatus.FAILED
        assert response.error["family"] == "service"
        assert "shutting down" in response.error["message"]
        assert service.resolved["t/j1"] == JobStatus.FAILED
        assert service.admission.running == 0
        assert registry.counter("service.jobs.retried").value == 0
        assert registry.counter("service.jobs.duplicate_resolutions").value == 0

    def test_stop_fails_queued_jobs_cleanly(self, tmp_path):
        config = make_config(tmp_path, workers=1)
        with use_registry(MetricsRegistry()):
            async def scenario():
                service = CCProfService(config)
                await service.start()
                # Pin the worker, then queue a job we will never run.
                blocker = asyncio.create_task(
                    submit_raw(config.socket_path, make_blocker())
                )
                await wait_until(
                    lambda: service.admission.running == 1, "the blocker to run"
                )
                victim = asyncio.create_task(
                    submit_raw(
                        config.socket_path, make_blocker(job_id="victim")
                    )
                )
                await wait_until(
                    lambda: service.admission.queued == 1, "the victim to queue"
                )
                await service.stop()
                responses = await asyncio.gather(
                    blocker, victim, return_exceptions=True
                )
                return service, responses

            service, responses = asyncio.run(scenario())
        statuses = sorted(
            r.status for r in responses if isinstance(r, JobResponse)
        )
        # The running job finished in the grace period; the queued one was
        # failed cleanly rather than dropped.
        assert service.resolved["t/blocker"] == JobStatus.COMPLETED
        assert service.resolved["t/victim"] == JobStatus.FAILED
        assert JobStatus.FAILED in statuses or len(responses) == 2


class TestEngineSelection:
    """Profile jobs carry an engine field, validated against the registry."""

    def test_profile_job_with_explicit_engine(self, tmp_path):
        config = make_config(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                return await submit_raw(
                    config.socket_path,
                    make_request(
                        kind="profile", engine="scalar", deadline_ms=60_000
                    ),
                )

            response = run_service(config, scenario)
        assert response.status == JobStatus.COMPLETED
        # The backend mix is visible in the daemon's telemetry.
        assert registry.counter("service.engine.scalar").value == 1
        assert registry.counter("service.engine.batched").value == 0

    def test_profile_job_defaults_to_batched(self, tmp_path):
        config = make_config(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                return await submit_raw(
                    config.socket_path,
                    make_request(kind="profile", deadline_ms=60_000),
                )

            response = run_service(config, scenario)
        assert response.status == JobStatus.COMPLETED
        assert registry.counter("service.engine.batched").value == 1

    def test_unknown_engine_fails_cleanly(self, tmp_path):
        config = make_config(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                return await submit_raw(
                    config.socket_path,
                    make_request(kind="profile", engine="warp"),
                )

            response = run_service(config, scenario)
        assert response.status == JobStatus.FAILED
        assert response.error is not None
        assert response.error["family"] == "sampling"
        assert "warp" in response.error["message"]
        # The job resolved exactly once and released its slots.
        assert registry.counter("service.jobs.failed").value == 1


class TestWindowedJobs:
    """profile jobs with a streaming window attach a wire timeline."""

    def windowed_request(self, **overrides):
        record = dict(
            kind="profile", workload="gemm", params={"n": 64},
            period=97, window=64,
        )
        record.update(overrides)
        return make_request(**record)

    def test_profile_with_window_returns_timeline(self):
        with use_registry(MetricsRegistry()) as registry:
            result = JobExecutor().execute(self.windowed_request())
        assert result.status == JobStatus.COMPLETED
        timeline = result.result["timeline"]
        assert timeline["version"] == 1
        assert timeline["window"] == 64
        assert timeline["total_samples"] == result.result["samples"]
        completed = registry.counter("service.jobs.window.completed").value
        assert completed >= len(timeline["windows"]) > 0

    def test_window_conflict_telemetry(self):
        with use_registry(MetricsRegistry()) as registry:
            result = JobExecutor().execute(self.windowed_request())
        conflicts = sum(
            1 for w in result.result["timeline"]["windows"] if w["conflict"]
        )
        counted = registry.counter("service.jobs.window.conflicts").value
        assert counted >= conflicts

    def test_timeline_fits_the_wire(self):
        # A long-running profile must still encode under MAX_LINE_BYTES:
        # the executor coalesces wire timelines far below the line cap.
        from repro.service.protocol import JobResponse

        with use_registry(MetricsRegistry()):
            result = JobExecutor().execute(
                self.windowed_request(window=1)  # worst case: 1 window/sample
            )
        response = JobResponse(
            id="j1", tenant="t", status=result.status, result=result.result
        )
        assert len(response.encode()) < 64 * 1024
        assert len(result.result["timeline"]["windows"]) <= 64

    def test_profile_without_window_has_no_timeline(self):
        with use_registry(MetricsRegistry()):
            result = JobExecutor().execute(
                make_request(kind="profile", workload="gemm",
                             params={"n": 64}, period=97)
            )
        assert "timeline" not in result.result

    def test_daemon_round_trips_windowed_profile(self, tmp_path):
        config = make_config(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            async def scenario(service):
                return await submit_raw(
                    config.socket_path, self.windowed_request()
                )

            response = run_service(config, scenario)
        assert response.status == JobStatus.COMPLETED
        assert response.result["timeline"]["windows"]
        assert registry.counter("service.jobs.window.completed").value > 0
