"""The ``service_mix`` inputs and its closed-loop driver.

Two client connections from one process drive an in-process daemon (two
workers, journal on).  Each client sends its next job only after the reply
to the previous one arrived (a closed loop), so a slower daemon receives
less load.  Every round a client sends the same multiset of small jobs,
:data:`MIX`, in a seeded order, with seeded sampler seeds and tenants.
The clients step together, one job each at a time, and whole rounds
repeat until the run's duration is spent.

The jobs are small on purpose: per-job fixed costs (workload and image
construction, admission, journal, NDJSON framing, the thread hop) weigh
here as they do not in the large runs of the other workloads.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.service.client import ServiceClient
from repro.service.daemon import CCProfService, ServiceConfig
from repro.service.protocol import JobRequest, JobResponse, JobStatus

from perfbench.hostspeed import HostSpeed
from perfbench.layers import Spans

CLIENTS = 2
WORKERS = 2
#: Rounds a timed loop runs at least: 9 x 6 jobs x 2 clients = 108 jobs,
#: so the 90th percentile of latency has at least 10 jobs beyond it.
MIN_ROUNDS = 9
TENANTS = ("tenant-a", "tenant-b", "tenant-c")


class MixJob(NamedTuple):
    """One job of the mix: kind, registry spec, sizes, label."""

    kind: str
    spec: str
    params: Dict[str, int]
    conflict: bool


#: One round of one client.  Labels as in ``cases.py``: originals conflict,
#: optimized variants clear.  The two nw jobs sit in the middle of the
#: latency order, so the median latency reads a nw job rather than the
#: gap between two kinds of job.
MIX: List[MixJob] = [
    MixJob("predict", "gemm", {"n": 128}, True),
    MixJob("profile", "symmetrization", {"n": 64}, True),
    MixJob("profile", "nw", {"n": 64}, True),
    MixJob("profile", "nw:optimized", {"n": 64}, False),
    MixJob("profile", "adi", {"n": 64}, True),
    MixJob("profile", "adi:optimized", {"n": 64}, False),
]


def job_rounds(seed: int, client: int) -> Iterator[List[JobRequest]]:
    """The rounds of requests client ``client`` sends, endlessly.

    All clients send a round's jobs in the same order, so concurrent jobs
    are of one kind and a job's latency does not depend on which job the
    other client happened to send beside it; tenants and sampler seeds
    differ per client.
    """
    client_rng = random.Random(f"service_mix/{seed}/client/{client}")
    for round_index in itertools.count():
        order = random.Random(f"service_mix/{seed}/round/{round_index}").sample(
            range(len(MIX)), len(MIX)
        )
        yield [
            JobRequest(
                id=f"c{client}-r{round_index}-{position}",
                tenant=client_rng.choice(TENANTS),
                kind=MIX[index].kind,
                workload=MIX[index].spec,
                params=dict(MIX[index].params),
                seed=client_rng.randrange(1 << 30),
            )
            for position, index in enumerate(order)
        ]


def mix_job(request: JobRequest) -> MixJob:
    """The :data:`MIX` entry a request was built from."""
    for job in MIX:
        if (job.kind, job.spec, job.params) == (
            request.kind, request.workload, request.params
        ):
            return job
    raise KeyError(request.id)


@dataclass
class Outcome:
    """What the client saw for one job."""

    request: JobRequest
    latency_s: float
    response: Optional[JobResponse] = None
    error: Optional[str] = None
    #: Host-speed correction of the job's round (see ``hostspeed.py``).
    factor: float = 1.0


@dataclass
class LoopResult:
    """One closed-loop run: every outcome, in completion order.

    ``seconds`` sums the wall time of the rounds, without the host-speed
    samples taken between them; ``corrected_s`` is the same sum with each
    round corrected for the host's speed.
    """

    seconds: float = 0.0
    corrected_s: float = 0.0
    outcomes: List[Outcome] = field(default_factory=list)
    rounds: int = 0


async def _submit(
    conn: ServiceClient, request: JobRequest, result: LoopResult,
    spans: Optional[Spans],
) -> None:
    start = time.perf_counter()
    try:
        response = await conn.submit(request)
    except Exception as exc:  # counted as a failed job
        result.outcomes.append(Outcome(
            request, time.perf_counter() - start, error=repr(exc)
        ))
        return
    end = time.perf_counter()
    result.outcomes.append(Outcome(request, end - start, response))
    if spans is not None:
        spans.add("service.job", request.id, start, end,
                  tenant=request.tenant, status=response.status,
                  elapsed_ms=response.elapsed_ms)


async def run_loop(
    service: CCProfService, seed: int, seconds: float,
    max_rounds: Optional[int] = None, spans: Optional[Spans] = None,
    min_rounds: int = MIN_ROUNDS,
) -> LoopResult:
    """Drive ``service`` with :data:`CLIENTS` closed-loop clients.

    The clients step together: each sends its next job once every client
    has the reply to its previous one; in between, with no job in flight,
    the host-speed reference loop runs.  Whole rounds repeat until
    ``seconds`` of them have passed and at least ``min_rounds`` ran, or
    ``max_rounds`` did.  With ``spans``, every job is recorded as a
    ``service.job`` span.
    """
    result = LoopResult()
    host = HostSpeed()
    socket_path = service.config.socket_path
    clients = [
        ServiceClient(socket_path, seed=seed * CLIENTS + client)
        for client in range(CLIENTS)
    ]
    rounds = [job_rounds(seed, client) for client in range(CLIENTS)]
    try:
        host.sample()
        while result.seconds < seconds or result.rounds < min_rounds:
            if max_rounds is not None and result.rounds >= max_rounds:
                break
            for requests in zip(*(next(jobs) for jobs in rounds)):
                first = len(result.outcomes)
                await asyncio.gather(*(
                    _submit(conn, request, result, spans)
                    for conn, request in zip(clients, requests)
                ))
                factor = host.sample()
                for outcome in result.outcomes[first:]:
                    outcome.factor = factor
            result.rounds += 1
            result.seconds, result.corrected_s = host.raw_s, host.corrected_s
    finally:
        for conn in clients:
            await conn.close()
    return result


def make_service(workdir: Path) -> CCProfService:
    """The daemon under test, with its socket and journal in ``workdir``.

    The socket path is relative to the working directory: unix socket
    paths are limited to ~100 bytes and the checkout may sit deep.
    """
    return CCProfService(ServiceConfig(
        socket_path=str(workdir / "ccprof.sock"),
        workers=WORKERS,
        journal_path=str(workdir / "journal.log"),
    ))


def check_response(outcome: Outcome, expected_accesses: Dict[str, int]) -> List[str]:
    """Violations of the output contract for one job (empty when correct)."""
    if outcome.response is None:
        return [f"{outcome.request.id}: {outcome.error}"]
    request, response = outcome.request, outcome.response
    problems = []
    if (response.id, response.tenant) != (request.id, request.tenant):
        problems.append(
            f"{request.id}: response echoes {response.id!r}/{response.tenant!r}"
        )
    if response.status not in (JobStatus.COMPLETED, JobStatus.DEGRADED):
        problems.append(f"{request.id}: status {response.status} {response.error}")
        return problems
    result = response.result
    if "has_conflicts" not in result:
        problems.append(f"{request.id}: no verdict in result")
    if request.kind == "profile" and response.status == JobStatus.COMPLETED:
        if result.get("accesses") != expected_accesses[request.workload]:
            problems.append(
                f"{request.id}: {result.get('accesses')} accesses simulated, "
                f"{expected_accesses[request.workload]} generated"
            )
        if not 0 <= int(result.get("samples", -1)) <= int(result.get("events", -1)):
            problems.append(f"{request.id}: samples exceed events")
    return problems
