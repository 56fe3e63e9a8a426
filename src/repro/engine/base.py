"""Engine backend protocol and registry.

Every way of driving a trace through the simulated cache — the scalar
reference loop, the columnar batched kernels, the sharded multiprocess
fan-out — is an :class:`EngineBackend`.  The profiler, the CLI, the perf
harness, and the service executor all select engines by *name* through
this registry, so adding a backend is one ``register_backend`` call: no
edits to :mod:`repro.core.profiler` or the CLI are needed (the
differential suite and the CLI's ``--engine`` choices pick it up from
:func:`backend_names` automatically).

The scalar backend remains the reference semantics; every other backend
is contractually bit-identical to it (enforced by the differential test
suite, which parametrizes over this registry).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Union

from repro.errors import SamplingError

if TYPE_CHECKING:  # import only for annotations: keep this module cheap
    from repro.cache.geometry import CacheGeometry
    from repro.cache.stats import CacheStats
    from repro.pmu.sampler import AddressSampler, SamplingResult
    from repro.robustness.budget import SamplingBudget


class EngineBackend(ABC):
    """One strategy for running the simulation/analysis hot paths.

    Subclasses declare a unique :attr:`name` (the registry key and CLI
    spelling) and a :attr:`capabilities` set; the three abstract methods
    cover the pipeline's hot paths:

    - :meth:`sample` — drive a PEBS sampling run (the online phase);
    - :meth:`simulate` — drive a bare cache simulation to stats;
    - :meth:`rcd_from_addresses` — the offline RCD analysis hook.

    Backends are stateless value objects: :meth:`configure` returns a
    *new* backend with options applied rather than mutating in place, so
    the registered singletons are never perturbed by one caller.
    """

    #: Registry key and CLI spelling; subclasses must override.
    name: str = ""

    #: Capability tags.  ``"columnar"`` marks backends that prefer
    #: :class:`~repro.trace.batch.TraceBatch` input over scalar access
    #: streams (the perf harness feeds each backend its preferred shape);
    #: ``"parallel"`` marks multi-process backends.
    capabilities: FrozenSet[str] = frozenset()

    def configure(self, **options: Any) -> "EngineBackend":
        """Return a copy of this backend with ``options`` applied.

        The base implementation accepts no options; parallel backends
        override this to accept ``workers=`` and friends.  Unknown
        options raise :class:`~repro.errors.SamplingError` so a CLI typo
        (or ``--engine-workers`` against a serial backend) fails loudly
        instead of being silently ignored.
        """
        if options:
            unknown = ", ".join(sorted(options))
            raise SamplingError(
                f"engine {self.name!r} accepts no option(s): {unknown}"
            )
        return self

    @abstractmethod
    def sample(
        self,
        sampler: "AddressSampler",
        trace: Any,
        budget: Optional["SamplingBudget"] = None,
    ) -> "SamplingResult":
        """Run one PEBS sampling pass of ``sampler`` over ``trace``.

        ``trace`` may be a :class:`~repro.trace.batch.TraceBatch`, an
        iterable of batches, or a scalar access stream; backends
        normalize it to their preferred shape.  The result must be
        bit-identical to ``sampler.run`` on the same trace and seed.
        """

    @abstractmethod
    def simulate(
        self,
        trace: Any,
        geometry: Optional["CacheGeometry"] = None,
        policy: str = "lru",
        seed: int = 0,
        split_lines: bool = True,
        batch_size: Optional[int] = None,
    ) -> "CacheStats":
        """Drive ``trace`` through a fresh cache; return its stats.

        With ``split_lines=True`` line-straddling accesses expand to one
        reference per line touched (``access_record`` semantics);
        ``False`` keeps one reference per record (``access`` semantics,
        what the PEBS sampler models).
        """

    @abstractmethod
    def rcd_from_addresses(self, addresses: Any, geometry: "CacheGeometry") -> Any:
        """Build an RCD analysis from a miss/sample address column.

        Returns an object with the shared RCD query API
        (:class:`~repro.core.rcd.RcdAnalysis` /
        :class:`~repro.core.rcd.RcdArrayAnalysis`): ``observations``,
        ``observation_count``, ``histogram()``, ``mean_rcd()``,
        ``contribution_below()``...
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


#: Name -> backend singleton.  Mutated only through the functions below.
_REGISTRY: Dict[str, EngineBackend] = {}


def register_backend(
    backend: EngineBackend, *, replace: bool = False
) -> EngineBackend:
    """Register ``backend`` under its declared name.

    Re-registering the *same* instance is a no-op; registering a
    different backend under a taken name raises unless ``replace=True``
    (tests swapping in a stub should restore the original afterwards —
    or register under a fresh name and :func:`unregister_backend` it).
    """
    name = backend.name
    if not name:
        raise SamplingError(
            f"engine backend {type(backend).__name__} declares no name"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not backend and not replace:
        raise SamplingError(
            f"engine {name!r} is already registered; pass replace=True "
            "to override"
        )
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove ``name`` from the registry (missing names are ignored)."""
    _REGISTRY.pop(name, None)


def backend_names() -> List[str]:
    """Sorted names of all registered backends (drives CLI choices and
    the differential suite's parametrization)."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> EngineBackend:
    """Look up a backend by name.

    Raises:
        SamplingError: Unknown name; the message lists what is
            registered (the CLI maps this onto its usage error).
    """
    backend = _REGISTRY.get(name)
    if backend is None:
        known = ", ".join(repr(known_name) for known_name in backend_names())
        raise SamplingError(
            f"unknown engine {name!r}; registered engines: {known}"
        )
    return backend


def resolve_backend(engine: Union[str, EngineBackend]) -> EngineBackend:
    """Normalize an engine spec — a name or an instance — to a backend.

    Accepting instances lets callers pass a pre-``configure``d backend
    (e.g. sharded with an explicit worker count) anywhere a name is
    accepted, without registering the variant.
    """
    if isinstance(engine, EngineBackend):
        return engine
    return get_backend(str(engine))
