"""A fixed pure-Python loop that tracks the speed of a shared machine.

A shared machine changes speed by up to a factor of two, for seconds or
minutes at a time (other tenants), which no amount of work within one
run averages out.  ``reference()`` exercises the same interpreter paths as
kra (small frozen dataclasses, dicts, sorting, sets) but none of its code,
so a change to kra cannot move it.  Timing it before each op (at most every
quarter second), around each set-up repeat and around each import probe
gives the machine's speed at each moment; each measured time is then
reported at reference speed, the speed at which ``reference()`` takes
REFERENCE_S seconds:

    reported = measured × REFERENCE_S / (median reference time near that moment)

On a shared two-vCPU Xeon virtual machine, the quartile distance over the
median of one input's 25 s window medians was 0.2 to 0.45 for measured
times and 0.03 to 0.12 for reported ones.  The measured figures stay in the
run's record.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from dataclasses import dataclass
from time import perf_counter

#: reported times are at the speed where reference() takes this long
REFERENCE_S = 0.003
EVERY_S = 0.25
NEAREST = 5


@dataclass(frozen=True)
class _Item:
    key: int
    label: str


def reference() -> int:
    table = {f"k{i}": _Item(i, str(i)) for i in range(2000)}
    ordered = sorted(table.values(), key=lambda item: (item.key * 7919) % 1009)
    total = sum(len(item.label) + (item.key & 7) for item in ordered)
    pairs = {(i % 97, i % 89) for i in range(3000)}
    return total + len(pairs)


class Yardstick:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Time reference() once, with the collector off: a collection
        would scan the workload's heap, which has nothing to do with speed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference()
            self.seconds.append(perf_counter() - start)
            self.times.append(start)
        finally:
            if enabled:
                gc.enable()

    def tick(self) -> None:
        """Sample unless the last sample is less than EVERY_S old."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def median_scaled(self, measure, repeats: int) -> tuple[float, list[float]]:
        """(median at reference speed, measured seconds) of ``repeats``
        calls of ``measure()``, which returns the seconds it measured."""
        runs = []
        for _ in range(repeats):
            self.sample()
            at = perf_counter()
            runs.append((at, measure()))
        self.sample()
        return statistics.median(s * self.scale(at) for at, s in runs), [s for _at, s in runs]

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median of the samples nearest to ``at``."""
        i = bisect.bisect_left(self.times, at)
        lo = max(0, i - NEAREST // 2 - 1)
        near = sorted(range(lo, min(len(self.times), lo + NEAREST + 2)),
                      key=lambda j: abs(self.times[j] - at))[:NEAREST]
        return REFERENCE_S / statistics.median(self.seconds[j] for j in near)
