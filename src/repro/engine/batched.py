"""The batched columnar backend: single-process vectorized kernels.

The default engine everywhere.  Traces move as
:class:`~repro.trace.batch.TraceBatch` columns through the vectorized
cache kernels (`SetAssociativeCache.access_batch`) and the array RCD
analysis; the differential suite pins it bit-identical to scalar.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.core.rcd import RcdArrayAnalysis
from repro.engine.base import EngineBackend
from repro.errors import SamplingError
from repro.pmu.sampler import AddressSampler, SamplingResult
from repro.robustness.budget import SamplingBudget
from repro.trace.batch import DEFAULT_BATCH_SIZE, as_batches


class BatchedBackend(EngineBackend):
    """Columnar single-process kernels (``AddressSampler.run_batched``)."""

    name = "batched"
    capabilities = frozenset({"columnar"})

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        self.batch_size = batch_size

    def configure(self, **options: Any) -> "BatchedBackend":
        unknown = sorted(set(options) - {"batch_size"})
        if unknown:
            raise SamplingError(
                f"unknown option(s) for engine {self.name!r}: "
                + ", ".join(unknown) + " (accepts: batch_size)"
            )
        return BatchedBackend(
            batch_size=int(options.get("batch_size", self.batch_size))
        )

    def sample(
        self,
        sampler: AddressSampler,
        trace: Any,
        budget: Optional[SamplingBudget] = None,
    ) -> SamplingResult:
        return sampler.run_batched(
            trace, budget=budget, batch_size=self.batch_size
        )

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
        for batch in as_batches(trace, batch_size or self.batch_size):
            cache.access_batch(batch, split_lines=split_lines)
        return cache.stats

    def rcd_from_addresses(
        self, addresses: Any, geometry: CacheGeometry
    ) -> RcdArrayAnalysis:
        if not isinstance(addresses, np.ndarray):
            addresses = np.fromiter(
                (int(address) for address in addresses), dtype=np.uint64
            )
        return RcdArrayAnalysis.from_addresses(addresses, geometry)
