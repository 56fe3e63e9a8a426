"""The scalar reference backend: per-access Python loops.

This is the semantics every other backend must reproduce bit for bit.
It is the slowest engine by an order of magnitude (see BENCH artifacts)
and exists for differential testing and as executable documentation of
the reference behaviour.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.core.rcd import RcdAnalysis
from repro.engine.base import EngineBackend
from repro.pmu.sampler import AddressSampler, SamplingResult
from repro.robustness.budget import SamplingBudget
from repro.trace.batch import as_access_stream


class ScalarBackend(EngineBackend):
    """Per-access reference loops (``AddressSampler.run``, scalar RCD)."""

    name = "scalar"
    capabilities = frozenset({"reference"})

    def sample(
        self,
        sampler: AddressSampler,
        trace: Any,
        budget: Optional[SamplingBudget] = None,
    ) -> SamplingResult:
        return sampler.run(as_access_stream(trace), budget=budget)

    def simulate(
        self,
        trace: Any,
        geometry: Optional[CacheGeometry] = None,
        policy: str = "lru",
        seed: int = 0,
        split_lines: bool = True,
        batch_size: Optional[int] = None,
    ) -> CacheStats:
        cache = SetAssociativeCache(
            geometry or CacheGeometry(), policy=policy, seed=seed
        )
        if split_lines:
            return cache.run_trace(as_access_stream(trace))
        for access in as_access_stream(trace):
            cache.access(access.address, access.ip)
        cache.flush_metrics()
        return cache.stats

    def rcd_from_addresses(
        self, addresses: Iterable[Any], geometry: CacheGeometry
    ) -> RcdAnalysis:
        return RcdAnalysis.from_addresses(
            (int(address) for address in addresses), geometry
        )
