"""Fault injectors modelling real PMU observation-channel pathologies.

CCProf's inference is built on a lossy channel: PEBS drops records under
buffer pressure, attributes samples to skidded instruction pointers, and
occasionally delivers corrupt or duplicated records (the measurement-noise
problems catalogued in the eviction-set and live-cache-inspection
literature).  The simulated pipeline is perfectly clean, so this module
re-introduces the pathologies on purpose — as composable, seeded wrappers
over any record stream whose elements are NamedTuples with ``ip`` and
``address`` fields (both :class:`~repro.trace.record.MemoryAccess` and
:class:`~repro.pmu.sampler.AddressSample` qualify).

Injectors are deterministic given the pipeline seed, so chaos tests can
assert exact degradation bounds.  The CLI exposes them via
``--inject drop:0.2,skid:1``; :func:`parse_fault_specs` defines the
grammar (``name[:param[:param]]``, comma-separated).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.errors import SamplingError


@dataclass
class FaultReport:
    """What one pipeline application did to a record stream.

    Attributes:
        injected: Fault count per injector name (e.g. ``{"drop": 41}``).
        records_in: Stream length before injection.
        records_out: Stream length after injection.
    """

    injected: Dict[str, int] = field(default_factory=dict)
    records_in: int = 0
    records_out: int = 0

    def describe(self) -> str:
        """One-line rendering for CLI output."""
        if not self.injected:
            return "no faults injected"
        parts = ", ".join(
            f"{name}={count}" for name, count in self.injected.items()
        )
        return (
            f"{self.records_in} records in -> {self.records_out} out ({parts})"
        )


class FaultInjector(ABC):
    """One fault class, applied to a whole record stream.

    Subclasses set :attr:`name` (the spec keyword) and implement
    :meth:`apply`, returning the faulted stream plus the number of faults
    actually injected.
    """

    name: str = "fault"

    @abstractmethod
    def apply(
        self, records: Sequence, rng: random.Random
    ) -> Tuple[List, int]:
        """Return ``(faulted records, faults injected)``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}()"


class DropInjector(FaultInjector):
    """Independent random record loss — PEBS buffer overflow steady state.

    Args:
        probability: Per-record drop probability in ``[0, 1]``.
    """

    name = "drop"

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SamplingError(
                f"drop probability must be in [0, 1], got {probability}"
            )
        self.probability = probability

    def apply(self, records, rng):
        kept: List = []
        dropped = 0
        for record in records:
            if rng.random() < self.probability:
                dropped += 1
            else:
                kept.append(record)
        return kept, dropped


class BurstDropInjector(FaultInjector):
    """Bursty record loss — a full PEBS buffer discards a contiguous run.

    Args:
        probability: Per-record probability of *entering* a drop burst.
        burst: Records lost per burst.
    """

    name = "burst"

    def __init__(self, probability: float, burst: int = 32) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SamplingError(
                f"burst probability must be in [0, 1], got {probability}"
            )
        if burst < 1:
            raise SamplingError(f"burst length must be >= 1, got {burst}")
        self.probability = probability
        self.burst = burst

    def apply(self, records, rng):
        kept: List = []
        dropped = 0
        remaining_burst = 0
        for record in records:
            if remaining_burst > 0:
                remaining_burst -= 1
                dropped += 1
                continue
            if rng.random() < self.probability:
                remaining_burst = self.burst - 1
                dropped += 1
                continue
            kept.append(record)
        return kept, dropped


class SkidInjector(FaultInjector):
    """IP skid — the sample lands on a later instruction than the miss.

    Every record's ``ip`` moves forward by a uniform draw in
    ``[0, max_skid]``; records that actually moved count as faults.
    Skidded IPs may fall outside any known statement, in which case the
    symbolizer attributes them to its ``<unknown>`` sentinel — exactly the
    misattribution real PEBS causes.

    Args:
        max_skid: Maximum forward IP displacement (in IP units).
    """

    name = "skid"

    def __init__(self, max_skid: int) -> None:
        if max_skid < 0:
            raise SamplingError(f"max skid must be >= 0, got {max_skid}")
        self.max_skid = int(max_skid)

    def apply(self, records, rng):
        out: List = []
        skidded = 0
        for record in records:
            displacement = rng.randint(0, self.max_skid) if self.max_skid else 0
            if displacement:
                record = record._replace(ip=record.ip + displacement)
                skidded += 1
            out.append(record)
        return out, skidded


class BitflipInjector(FaultInjector):
    """Address corruption — a random low bit of the address flips.

    Args:
        probability: Per-record corruption probability.
        bits: Width of the window (from bit 0) in which a bit may flip.
    """

    name = "bitflip"

    def __init__(self, probability: float, bits: int = 32) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SamplingError(
                f"bitflip probability must be in [0, 1], got {probability}"
            )
        if bits < 1:
            raise SamplingError(f"bitflip width must be >= 1, got {bits}")
        self.probability = probability
        self.bits = int(bits)

    def apply(self, records, rng):
        out: List = []
        corrupted = 0
        for record in records:
            if rng.random() < self.probability:
                bit = rng.randrange(self.bits)
                record = record._replace(address=record.address ^ (1 << bit))
                corrupted += 1
            out.append(record)
        return out, corrupted


class DuplicateInjector(FaultInjector):
    """Record duplication — the PMU delivers the same sample twice.

    Args:
        probability: Per-record probability of an immediate duplicate.
    """

    name = "dup"

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SamplingError(
                f"dup probability must be in [0, 1], got {probability}"
            )
        self.probability = probability

    def apply(self, records, rng):
        out: List = []
        duplicated = 0
        for record in records:
            out.append(record)
            if rng.random() < self.probability:
                out.append(record)
                duplicated += 1
        return out, duplicated


class TruncateInjector(FaultInjector):
    """Stream truncation — the run died early; only a prefix survives.

    Args:
        keep_fraction: Fraction of the stream (from the start) retained.
    """

    name = "truncate"

    def __init__(self, keep_fraction: float) -> None:
        if not 0.0 < keep_fraction <= 1.0:
            raise SamplingError(
                f"truncate keep fraction must be in (0, 1], got {keep_fraction}"
            )
        self.keep_fraction = keep_fraction

    def apply(self, records, rng):
        records = list(records)
        keep = int(len(records) * self.keep_fraction)
        return records[:keep], len(records) - keep


class JitterInjector(FaultInjector):
    """Thread-interleave jitter — records reorder within a small window.

    Models per-thread PEBS buffers draining out of order: each consecutive
    window of ``window`` records is shuffled; records that ended up away
    from their original slot count as faults.

    Args:
        window: Reorder window size (records).
    """

    name = "jitter"

    def __init__(self, window: int) -> None:
        if window < 2:
            raise SamplingError(f"jitter window must be >= 2, got {window}")
        self.window = int(window)

    def apply(self, records, rng):
        records = list(records)
        out: List = []
        displaced = 0
        for start in range(0, len(records), self.window):
            chunk = records[start : start + self.window]
            shuffled = chunk[:]
            rng.shuffle(shuffled)
            displaced += sum(
                1 for a, b in zip(chunk, shuffled) if a is not b
            )
            out.extend(shuffled)
        return out, displaced


class FaultPipeline:
    """A seeded, ordered composition of fault injectors.

    Applying the pipeline threads the stream through every injector in
    order and records a :class:`FaultReport` (``pipeline.last_report``)
    for diagnostics.  Deterministic given ``seed``.

    Args:
        injectors: Injectors, applied first-to-last.
        seed: RNG seed for all stochastic injectors.
    """

    def __init__(self, injectors: Iterable[FaultInjector], seed: int = 0) -> None:
        self.injectors: List[FaultInjector] = list(injectors)
        self.seed = seed
        self.last_report = FaultReport()

    def __bool__(self) -> bool:
        return bool(self.injectors)

    def apply(self, records: Iterable) -> List:
        """Run the stream through the pipeline; returns the faulted list."""
        rng = random.Random(self.seed)
        current = list(records)
        report = FaultReport(records_in=len(current))
        for injector in self.injectors:
            current, injected = injector.apply(current, rng)
            report.injected[injector.name] = (
                report.injected.get(injector.name, 0) + injected
            )
        report.records_out = len(current)
        self.last_report = report
        return current

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPipeline":
        """Build a pipeline from a CLI spec, e.g. ``drop:0.2,skid:1``."""
        return cls(parse_fault_specs(spec), seed=seed)

    def __repr__(self) -> str:
        inner = ", ".join(injector.name for injector in self.injectors)
        return f"FaultPipeline([{inner}], seed={self.seed})"


#: Spec keyword -> (factory, default-severity args used when no parameter
#: is given, e.g. plain ``drop``).  Factories take float parameters parsed
#: from the spec string.
_FAULT_FACTORIES: Dict[str, Tuple[Callable[..., FaultInjector], Tuple[float, ...]]] = {
    "drop": (lambda p=0.2: DropInjector(p), (0.2,)),
    "burst": (lambda p=0.02, burst=32: BurstDropInjector(p, int(burst)), (0.02, 32)),
    "skid": (lambda n=1: SkidInjector(int(n)), (1,)),
    "bitflip": (lambda p=0.01, bits=32: BitflipInjector(p, int(bits)), (0.01, 32)),
    "dup": (lambda p=0.05: DuplicateInjector(p), (0.05,)),
    "truncate": (lambda keep=0.8: TruncateInjector(keep), (0.8,)),
    "jitter": (lambda window=8: JitterInjector(int(window)), (8,)),
}

#: Public list of recognized fault keywords (CLI help, tests).
FAULT_NAMES = tuple(sorted(_FAULT_FACTORIES))


def make_injector(name: str, *params: float) -> FaultInjector:
    """Instantiate one injector by keyword with positional parameters."""
    try:
        factory, _defaults = _FAULT_FACTORIES[name]
    except KeyError:
        known = ", ".join(FAULT_NAMES)
        raise SamplingError(
            f"unknown fault {name!r}; known faults: {known}"
        ) from None
    try:
        return factory(*params)
    except TypeError as exc:
        raise SamplingError(f"bad parameters for fault {name!r}: {exc}") from exc


def parse_fault_specs(spec: str) -> List[FaultInjector]:
    """Parse a comma-separated fault spec into injectors.

    Grammar: ``name[:param[:param]]`` per entry; parameters are floats.
    Example: ``drop:0.2,skid:1,bitflip:0.01``.
    """
    injectors: List[FaultInjector] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, rest = entry.partition(":")
        name = name.strip().lower()
        params: List[float] = []
        if rest:
            for token in rest.split(":"):
                try:
                    params.append(float(token))
                except ValueError:
                    raise SamplingError(
                        f"bad fault parameter {token!r} in {entry!r}"
                    ) from None
        injectors.append(make_injector(name, *params))
    if not injectors:
        raise SamplingError(f"empty fault spec {spec!r}")
    return injectors


def default_pipeline(name: str, seed: int = 0) -> FaultPipeline:
    """A single-fault pipeline at the fault's default severity."""
    return FaultPipeline([make_injector(name)], seed=seed)
