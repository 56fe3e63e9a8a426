"""Service wire protocol: newline-delimited JSON over a local socket.

One request per line, one response per line, matched by client-chosen
``id``.  A connection may pipeline any number of requests; responses are
written as jobs finish, which may reorder them relative to submission —
clients correlate on ``id``, never on arrival order.

The protocol is deliberately boring: versioned flat JSON objects with
strict field validation and a hard line-length cap, because the daemon
must survive hostile inputs (oversized requests, binary garbage, slow
writers) without taking down neighbouring tenants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ProtocolError

#: Wire protocol version; bumped on incompatible changes.
PROTOCOL_VERSION = 1

#: Hard cap on one request line (bytes).  Oversized lines are rejected
#: before parsing — the NDJSON analogue of an oversized trace upload.
MAX_LINE_BYTES = 64 * 1024

#: Job kinds the executor knows how to run.
JOB_KINDS = ("profile", "predict", "compare")

#: Terminal response statuses.  Every accepted job resolves to exactly one
#: of ``completed`` / ``degraded`` / ``failed``; ``rejected`` is the
#: admission-control answer for jobs that were never accepted.
class JobStatus:
    COMPLETED = "completed"
    DEGRADED = "degraded"
    FAILED = "failed"
    REJECTED = "rejected"

    ALL = (COMPLETED, DEGRADED, FAILED, REJECTED)
    TERMINAL = (COMPLETED, DEGRADED, FAILED)


def _require_str(record: Dict[str, object], key: str) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"request field {key!r} must be a non-empty string")
    if len(value) > 256:
        raise ProtocolError(f"request field {key!r} exceeds 256 characters")
    return value


def _optional_int(record: Dict[str, object], key: str) -> Optional[int]:
    """``record[key]`` as an int, ``None`` when absent/null."""
    value = record.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"field {key!r} must be an integer")
    return value


def _int_or(record: Dict[str, object], key: str, default: int) -> int:
    """``record[key]`` as an int, ``default`` when absent/null/zero-y."""
    value = _optional_int(record, key)
    return value if value else default


@dataclass(frozen=True)
class JobRequest:
    """One job submission.

    Attributes:
        id: Client-chosen identifier, unique per connection.
        tenant: Tenant the job is billed to (quotas, circuit breaker).
        kind: ``profile`` | ``predict`` | ``compare``.
        workload: Workload spec (``gemm``, ``adi:optimized``...).
        params: Sizing knobs forwarded to the workload factory (``n``...).
        seed: Sampler RNG seed.
        period: Mean sampling period (profile/compare).
        deadline_ms: Per-request deadline; ``None`` uses the service
            default.  The deadline becomes the run's watchdog budget.
        max_accesses: Optional simulation budget (watchdog
            ``max_accesses``); blowing it triggers degradation.
        engine: Optional engine-backend name for profile/compare
            simulation (``None`` uses the service default, ``batched``).
            Validated against the engine registry by the executor, so a
            daemon with extra backends registered accepts them without a
            protocol change.
        window: Optional phase-analysis window (samples) for profile
            jobs.  When set, the executor runs the windowed phase
            analysis over the profiled samples, counts its windows in
            ``service.jobs.window.*`` telemetry, and the
            result carries a timeline summary.  Older daemons ignore the
            field (``from_dict`` drops unknown keys), so setting it is
            wire-compatible.
    """

    id: str
    tenant: str
    kind: str
    workload: str
    params: Dict[str, int] = field(default_factory=dict)
    seed: int = 0
    period: int = 1212
    deadline_ms: Optional[int] = None
    max_accesses: Optional[int] = None
    engine: Optional[str] = None
    window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ProtocolError(
                f"unknown job kind {self.kind!r}; known: {', '.join(JOB_KINDS)}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ProtocolError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if self.max_accesses is not None and self.max_accesses < 1:
            raise ProtocolError(
                f"max_accesses must be >= 1, got {self.max_accesses}"
            )
        if self.engine is not None and (
            not isinstance(self.engine, str) or not self.engine
        ):
            raise ProtocolError("engine must be a non-empty string")
        if self.window is not None and self.window < 1:
            raise ProtocolError(
                f"window must be >= 1, got {self.window}"
            )

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (the wire layout)."""
        record: Dict[str, object] = {
            "v": PROTOCOL_VERSION,
            "id": self.id,
            "tenant": self.tenant,
            "kind": self.kind,
            "workload": self.workload,
            "seed": self.seed,
            "period": self.period,
        }
        if self.params:
            record["params"] = dict(self.params)
        if self.deadline_ms is not None:
            record["deadline_ms"] = self.deadline_ms
        if self.max_accesses is not None:
            record["max_accesses"] = self.max_accesses
        if self.engine is not None:
            record["engine"] = self.engine
        if self.window is not None:
            record["window"] = self.window
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "JobRequest":
        """Validate and build a request from a decoded JSON object."""
        if not isinstance(record, dict):
            raise ProtocolError("request must be a JSON object")
        version = record.get("v", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version!r} "
                f"(this daemon speaks v{PROTOCOL_VERSION})"
            )
        params = record.get("params", {})
        if not isinstance(params, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in params.items()
        ):
            raise ProtocolError("request field 'params' must map strings to ints")
        engine_value = record.get("engine")
        engine: Optional[str]
        if engine_value is None or isinstance(engine_value, str):
            engine = engine_value
        else:
            raise ProtocolError("request field 'engine' must be a string")
        return cls(
            id=_require_str(record, "id"),
            tenant=_require_str(record, "tenant"),
            kind=_require_str(record, "kind"),
            workload=_require_str(record, "workload"),
            params=dict(params),
            seed=_int_or(record, "seed", 0),
            period=_int_or(record, "period", 1212),
            deadline_ms=_optional_int(record, "deadline_ms"),
            max_accesses=_optional_int(record, "max_accesses"),
            engine=engine,
            window=_optional_int(record, "window"),
        )

    def encode(self) -> bytes:
        """One wire line (newline-terminated UTF-8)."""
        return encode_line(self.to_dict())

    @classmethod
    def decode(cls, line: bytes) -> "JobRequest":
        """Parse one wire line into a validated request."""
        return cls.from_dict(decode_line(line))


@dataclass(frozen=True)
class JobResponse:
    """The daemon's answer to one request.

    Attributes:
        id: Echoed request id.
        tenant: Echoed tenant (responses never cross tenants).
        status: One of :class:`JobStatus`.
        result: Kind-specific summary (samples, verdicts, victim sets).
        error: ``{"family", "reason", "message"}`` for failed/rejected.
        retry_after_ms: Backpressure hint on rejection.
        degraded_reason: Why the degradation ladder fired.
        confidence: Confidence note accompanying a degraded result.
        elapsed_ms: Server-side wall time for the job.
        attempts: Execution attempts (>1 means a worker crash was retried).
    """

    id: str
    tenant: str
    status: str
    result: Dict[str, object] = field(default_factory=dict)
    error: Optional[Dict[str, str]] = None
    retry_after_ms: Optional[int] = None
    degraded_reason: Optional[str] = None
    confidence: Optional[str] = None
    elapsed_ms: float = 0.0
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.status not in JobStatus.ALL:
            raise ProtocolError(f"unknown response status {self.status!r}")

    @property
    def resolved(self) -> bool:
        """True when the job was accepted and reached a terminal state."""
        return self.status in JobStatus.TERMINAL

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (the wire layout)."""
        record: Dict[str, object] = {
            "v": PROTOCOL_VERSION,
            "id": self.id,
            "tenant": self.tenant,
            "status": self.status,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "attempts": self.attempts,
        }
        if self.result:
            record["result"] = self.result
        if self.error is not None:
            record["error"] = self.error
        if self.retry_after_ms is not None:
            record["retry_after_ms"] = self.retry_after_ms
        if self.degraded_reason is not None:
            record["degraded_reason"] = self.degraded_reason
        if self.confidence is not None:
            record["confidence"] = self.confidence
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "JobResponse":
        """Build a response from a decoded JSON object."""
        if not isinstance(record, dict):
            raise ProtocolError("response must be a JSON object")
        result = record.get("result") or {}
        if not isinstance(result, dict):
            raise ProtocolError("response field 'result' must be an object")
        error_value = record.get("error")
        error: Optional[Dict[str, str]]
        if error_value is None or isinstance(error_value, dict):
            error = error_value
        else:
            raise ProtocolError("response field 'error' must be an object")
        elapsed = record.get("elapsed_ms", 0.0)
        if not isinstance(elapsed, (int, float)) or isinstance(elapsed, bool):
            raise ProtocolError("response field 'elapsed_ms' must be a number")
        attempts = record.get("attempts", 1)
        if not isinstance(attempts, int) or isinstance(attempts, bool):
            raise ProtocolError("response field 'attempts' must be an integer")
        degraded_reason = record.get("degraded_reason")
        confidence = record.get("confidence")
        return cls(
            id=str(record.get("id", "")),
            tenant=str(record.get("tenant", "")),
            status=str(record.get("status", "")),
            result=result,
            error=error,
            retry_after_ms=_optional_int(record, "retry_after_ms"),
            degraded_reason=(
                None if degraded_reason is None else str(degraded_reason)
            ),
            confidence=None if confidence is None else str(confidence),
            elapsed_ms=float(elapsed),
            attempts=attempts,
        )

    def encode(self) -> bytes:
        """One wire line (newline-terminated UTF-8)."""
        return encode_line(self.to_dict())

    @classmethod
    def decode(cls, line: bytes) -> "JobResponse":
        """Parse one wire line into a response."""
        return cls.from_dict(decode_line(line))


def encode_line(record: Dict[str, object]) -> bytes:
    """Serialize one protocol record as a compact NDJSON line."""
    blob = json.dumps(record, separators=(",", ":"), sort_keys=True)
    line = blob.encode("utf-8") + b"\n"
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"encoded record is {len(line)} bytes "
            f"(protocol limit {MAX_LINE_BYTES})"
        )
    return line


def decode_line(line: bytes) -> Dict[str, object]:
    """Parse one NDJSON line, enforcing the size cap before JSON parsing."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line is {len(line)} bytes "
            f"(protocol limit {MAX_LINE_BYTES})"
        )
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed request line: {exc}") from exc
    if not isinstance(record, dict):
        raise ProtocolError("request line must decode to a JSON object")
    return record
