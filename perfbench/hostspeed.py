"""Host-speed correction for timings taken on a shared host.

On a machine shared with other tenants, the speed of the CPU this process
gets drifts by tens of percent within minutes, while the program stays the
same.  The benchmark therefore runs a fixed pure-Python reference loop
between its jobs, and inside a job where the benchmark feeds the program
its input piece by piece, and reports every time scaled to the speed at
which that loop takes :data:`NOMINAL_S`:

    reported = measured * NOMINAL_S / mean(reference times just before and after)

Interleaved at sub-second granularity, the loop's time and a job's time
move together (correlation ~0.8 per sample, ~0.99 over 20 samples, on a
2-CPU Xeon VM); over a 70 s stretch this cut the spread of a trace
generation job from 42% to 10% and of a simulation job from 37% to 5%.
The loop touches nothing of the program, so a change to the program moves
the reported times and not the correction.  The uncorrected total is
printed on standard error.
"""

from __future__ import annotations

import statistics
import time
from typing import Iterable, Iterator, List, Optional, TypeVar

T = TypeVar("T")

REFERENCE_ITERATIONS = 500_000

#: Trace batches (65,536 accesses) between two samples inside a job:
#: ~0.1-0.2 s of work on casestudies, ~0.3 s on setwalk.
SAMPLE_EVERY = 4

#: Seconds the reference loop takes on the host the benchmark was written
#: on (2-CPU Intel Xeon VM, CPython 3, unloaded).
NOMINAL_S = 0.020


def reference_s() -> float:
    """Time one run of the reference loop."""
    start = time.perf_counter()
    total = 0
    for value in range(REFERENCE_ITERATIONS):
        total += value
    return time.perf_counter() - start


class HostSpeed:
    """Reference-loop samples taken during one run.

    Samples split the run into intervals; ``raw_s`` sums the intervals as
    measured and ``corrected_s`` sums each one scaled by the samples at its
    two ends.  The samples themselves fall outside every interval.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.raw_s = 0.0
        self.corrected_s = 0.0
        #: Time spent in samples taken inside a job by :meth:`interleave`.
        self.inner_s = 0.0
        self._since: Optional[float] = None

    def sample(self) -> float:
        """Take one sample and close the interval since the previous one;
        return the interval's correction factor."""
        start = time.perf_counter()
        reference = reference_s()
        factor = NOMINAL_S / statistics.mean(self.samples[-1:] + [reference])
        if self._since is not None:
            wall = start - self._since
            self.raw_s += wall
            self.corrected_s += wall * factor
        self.samples.append(reference)
        self._since = time.perf_counter()
        return factor

    def interleave(self, items: Iterable[T], every: int = SAMPLE_EVERY) -> Iterator[T]:
        """Yield ``items``, taking a sample after every ``every`` of them;
        the time those samples take is added to :attr:`inner_s`."""
        for count, item in enumerate(items, start=1):
            yield item
            if count % every == 0:
                start = time.perf_counter()
                self.sample()
                self.inner_s += time.perf_counter() - start
