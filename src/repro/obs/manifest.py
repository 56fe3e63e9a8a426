"""Run manifests: the self-describing record of one pipeline run.

Every ``ccprof profile``/``ccprof analyze`` invocation can leave behind a
small JSON manifest capturing *how* the run was produced — configuration,
cache geometry, seed, git revision — and *how it went* — per-stage wall
timings (from the span tracer), a metrics snapshot (from the registry),
and the report's data-quality section.  ``ccprof inspect <manifest>``
renders one back as text.

The manifest is the linkage layer: a ``*result`` report file, a sample
log, and a BENCH artifact each tell part of the story; the manifest next
to them says which config, code revision, and channel health produced
all three.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ReproError

#: Bumped on any incompatible change to the manifest layout.
MANIFEST_VERSION = 1

#: Bumped on any incompatible change to the ``timeline`` section layout
#: (the windowed phase analysis writes it; see
#: :meth:`repro.core.phases.PhasedAnalysis.timeline_record`).
TIMELINE_VERSION = 1

#: Required / optional keys of the ``timeline`` section (strict: anything
#: else is rejected, like the manifest's own top level).
_TIMELINE_REQUIRED = {
    "version": int,
    "window": int,
    "min_window": int,
    "rcd_threshold": int,
    "cf_boundary": (int, float),
    "engine": str,
    "total_samples": int,
    "conflict_fraction": (int, float),
    "transitions": list,
    "coalesced": bool,
    "windows": list,
}
#: ``fallback_from`` is read but no longer written: older manifests name
#: the engine a windowed run was requested on when it ran elsewhere.
_TIMELINE_OPTIONAL = {
    "fallback_from": str,
}

#: Per-window record keys inside ``timeline["windows"]``.
_TIMELINE_WINDOW_FIELDS = {
    "index": int,
    "first_sample": int,
    "samples": int,
    "cf": (int, float),
    "conflict": bool,
    "victim_sets": list,
    "rcd_observations": int,
    "short_rcds": int,
    "sets_touched": int,
    "merged_from": int,
}

PathLike = Union[str, Path]


class ManifestError(ReproError):
    """A run manifest was unreadable or violated the schema."""

    code = "manifest"
    exit_code = 11


def git_revision() -> str:
    """Short revision of the working tree; ``"unknown"`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else "unknown"


def _check_fields(
    record: Dict[str, object],
    required: Dict[str, object],
    optional: Dict[str, object],
    label: str,
) -> None:
    """Strict field check shared by the timeline validators."""
    unknown = set(record) - set(required) - set(optional)
    if unknown:
        raise ManifestError(
            f"{label} has unknown fields: {', '.join(sorted(unknown))}"
        )
    for name, kind in required.items():
        if name not in record:
            raise ManifestError(f"{label} missing required field '{name}'")
        if not isinstance(record[name], kind) or (
            isinstance(record[name], bool) and kind is int
        ):
            raise ManifestError(
                f"{label} field '{name}' has wrong type "
                f"{type(record[name]).__name__}"
            )
    for name, kind in optional.items():
        if name in record and not isinstance(record[name], kind):
            raise ManifestError(
                f"{label} field '{name}' has wrong type "
                f"{type(record[name]).__name__}"
            )


def validate_timeline(timeline: object) -> Dict[str, object]:
    """Check a manifest ``timeline`` section against the strict schema.

    Returns the validated section; raises :class:`ManifestError` on any
    layout violation (wrong version, missing/unknown/mistyped fields —
    at the top level or inside any window record).
    """
    if not isinstance(timeline, dict):
        raise ManifestError(
            f"timeline must be a JSON object, got {type(timeline).__name__}"
        )
    version = timeline.get("version")
    if version != TIMELINE_VERSION:
        raise ManifestError(
            f"unsupported timeline version {version!r} "
            f"(this reader understands {TIMELINE_VERSION})"
        )
    _check_fields(timeline, _TIMELINE_REQUIRED, _TIMELINE_OPTIONAL, "timeline")
    for position, window in enumerate(timeline["windows"]):
        if not isinstance(window, dict):
            raise ManifestError(
                f"timeline window {position} must be an object, "
                f"got {type(window).__name__}"
            )
        _check_fields(
            window, _TIMELINE_WINDOW_FIELDS, {}, f"timeline window {position}"
        )
    return timeline


@dataclass
class RunManifest:
    """Everything needed to understand (and re-run) one pipeline run.

    Attributes:
        command: The verb that produced the run (``profile``, ``analyze``,
            ``perf`` ...).
        workload: Workload spec as given (``adi:optimized``).
        engine: ``batched`` or ``scalar``.
        seed: Sampler RNG seed.
        period: Mean sampling period.
        geometry: ``{"num_sets", "ways", "line_size"}`` of the profiled L1.
        revision: Git revision of the tree that ran.
        created: Unix timestamp of manifest creation.
        config: Remaining knobs (strictness, injection spec, budgets...).
        stage_timings: Wall seconds per pipeline stage, from the tracer.
        metrics: Registry snapshot (counters/gauges/histograms).
        data_quality: The report's DataQuality section as a dict.
        sampling: Run totals (samples/events/accesses, truncation).
        outputs: Artifact paths written alongside this manifest.
        timeline: Windowed phase-analysis timeline (versioned,
            strict-schema — see :data:`TIMELINE_VERSION`); None for runs
            without ``--stream``.
    """

    command: str
    workload: str = ""
    engine: str = ""
    seed: int = 0
    period: float = 0.0
    geometry: Dict[str, int] = field(default_factory=dict)
    revision: str = ""
    created: float = 0.0
    config: Dict[str, object] = field(default_factory=dict)
    stage_timings: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    data_quality: Optional[Dict[str, object]] = None
    sampling: Dict[str, object] = field(default_factory=dict)
    outputs: Dict[str, str] = field(default_factory=dict)
    timeline: Optional[Dict[str, object]] = None
    version: int = MANIFEST_VERSION

    def __post_init__(self) -> None:
        if not self.revision:
            self.revision = git_revision()
        if not self.created:
            self.created = time.time()

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (the on-disk layout)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "RunManifest":
        """Rebuild from :meth:`to_dict` output (strict on layout)."""
        if not isinstance(record, dict):
            raise ManifestError(
                f"manifest must be a JSON object, got {type(record).__name__}"
            )
        if "command" not in record:
            raise ManifestError("manifest missing required field 'command'")
        version = record.get("version", MANIFEST_VERSION)
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {version} "
                f"(this reader understands {MANIFEST_VERSION})"
            )
        known = {name for name in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(record) - known
        if unknown:
            raise ManifestError(
                f"manifest has unknown fields: {', '.join(sorted(unknown))}"
            )
        if record.get("timeline") is not None:
            validate_timeline(record["timeline"])
        return cls(**record)  # type: ignore[arg-type]

    def save(self, path: PathLike) -> Path:
        """Write the manifest as pretty JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="ascii") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return target

    @classmethod
    def load(cls, path: PathLike) -> "RunManifest":
        """Read one manifest back (raises :class:`ManifestError`)."""
        try:
            with open(path, "r", encoding="ascii") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"{path}: unreadable manifest: {exc}") from exc
        return cls.from_dict(record)

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """Multi-line text rendering (``ccprof inspect``)."""
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(self.created))
        lines = [
            f"run manifest: {self.command} {self.workload}".rstrip(),
            f"  revision: {self.revision}  created: {when} UTC",
        ]
        if self.engine:
            lines.append(
                f"  engine: {self.engine}  seed: {self.seed}  "
                f"period: {self.period:.0f}"
            )
        if self.geometry:
            lines.append(
                "  geometry: "
                f"{self.geometry.get('num_sets', '?')} sets x "
                f"{self.geometry.get('ways', '?')} ways x "
                f"{self.geometry.get('line_size', '?')} B lines"
            )
        if self.config:
            parts = ", ".join(
                f"{key}={value}" for key, value in sorted(self.config.items())
            )
            lines.append(f"  config: {parts}")
        if self.sampling:
            samples = self.sampling.get("samples", 0)
            events = self.sampling.get("events", 0)
            accesses = self.sampling.get("accesses", 0)
            lines.append(
                f"  sampling: {samples} samples of {events} events "
                f"({accesses} accesses)"
            )
            if self.sampling.get("truncated"):
                lines.append(
                    "    truncated: "
                    f"{self.sampling.get('truncation_reason')}"
                )
        kernel = [
            ("compiled C loop" if status == "compiled" else f"Python loop ({status})")
            + f": {batches} batches"
            for status, batches in sorted(self.lru_kernel().items())
        ]
        if kernel:
            lines.append("  lru kernel: " + ", ".join(kernel))
        if self.stage_timings:
            lines.append("  stages:")
            for name, seconds in sorted(
                self.stage_timings.items(), key=lambda item: -item[1]
            ):
                lines.append(f"    {name:<24} {seconds * 1e3:9.3f} ms")
        lines.extend(self._render_timeline())
        lines.extend(self._render_quality())
        lines.extend(self._render_metrics())
        if self.outputs:
            lines.append("  outputs:")
            for label, path in sorted(self.outputs.items()):
                lines.append(f"    {label}: {path}")
        return "\n".join(lines)

    def _render_timeline(self) -> List[str]:
        timeline = self.timeline
        if not timeline:
            return []
        windows = timeline.get("windows", [])
        fraction = timeline.get("conflict_fraction", 0.0)
        engine = timeline.get("engine") or "?"
        fallback = timeline.get("fallback_from")
        lines = [
            "  timeline: "
            f"{len(windows)} windows of {timeline.get('window', '?')} samples"
            f" ({timeline.get('total_samples', '?')} total), "
            f"engine {engine}"
            + (f" (requested {fallback})" if fallback else ""),
            f"    conflict fraction: {fraction:.2f}"
            f"  transitions: {timeline.get('transitions', [])}"
            + ("  (coalesced)" if timeline.get("coalesced") else ""),
        ]
        if windows:
            # One mark per window: '#' conflicting, '.' clean — the phase
            # picture at a glance.
            marks = "".join(
                "#" if window.get("conflict") else "." for window in windows
            )
            lines.append(f"    phases: [{marks}]")
        for window in windows:
            if not window.get("conflict"):
                continue
            victims = window.get("victim_sets", [])
            shown = ", ".join(str(v) for v in victims[:8])
            if len(victims) > 8:
                shown += f", ... ({len(victims)} total)"
            lines.append(
                f"    window {window.get('index'):>4}  "
                f"cf {window.get('cf', 0.0):.3f}  "
                f"victims [{shown}]"
            )
        return lines

    def _render_quality(self) -> List[str]:
        quality = self.data_quality
        if not quality:
            return []
        degraded = bool(
            quality.get("samples_dropped")
            or quality.get("samples_quarantined")
            or quality.get("injected_faults")
            or quality.get("truncated")
            or quality.get("low_confidence_loops")
            or quality.get("warnings")
        )
        lines = [f"  data quality: {'DEGRADED' if degraded else 'clean'}"]
        for warning in quality.get("warnings", []):
            lines.append(f"    warning: {warning}")
        return lines

    def _render_metrics(self) -> List[str]:
        counters = self.metrics.get("counters", {}) if self.metrics else {}
        gauges = self.metrics.get("gauges", {}) if self.metrics else {}
        if not counters and not gauges:
            return []
        lines = ["  metrics:"]
        for name, value in sorted(counters.items()):
            lines.append(f"    {name:<36} {value}")
        for name, value in sorted(gauges.items()):
            lines.append(f"    {name:<36} {value} (gauge)")
        return lines

    # -- convenience ---------------------------------------------------

    def lru_kernel(self) -> Dict[str, int]:
        """LRU batches per cache-kernel status (from the metric snapshot).

        ``{"compiled": n}`` when the batched LRU simulation ran the
        compiled C loop; a fallback reason (``no_compiler``,
        ``build_failed``, ...) maps to the batches that ran the Python
        loop instead.  Empty when the run simulated no LRU batch.
        """
        counters = self.metrics.get("counters", {}) if self.metrics else {}
        kernel: Dict[str, int] = {}
        for name, value in counters.items():
            if name == "engine.kernel.compiled":
                kernel["compiled"] = value
            elif name.startswith("engine.kernel.fallback."):
                kernel[name[len("engine.kernel.fallback."):]] = value
        return kernel

    def tripped_budgets(self) -> List[str]:
        """Budget limits that stopped the run (from the metric snapshot).

        The sampler records one ``pmu.budget.tripped.<limit>`` counter per
        watchdog stop, so a truncated run's manifest names the limit that
        fired — not just a free-text ``truncation_reason``.
        """
        counters = self.metrics.get("counters", {}) if self.metrics else {}
        prefix = "pmu.budget.tripped."
        return sorted(
            name[len(prefix):]
            for name, value in counters.items()
            if name.startswith(prefix) and value
        )
