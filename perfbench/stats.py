"""Sample statistics and the due-time open loop of the benchmark.

Two rules live here so every workload applies them the same way:

* **Percentiles need a tail.**  :func:`percentile` is nearest-rank and
  returns ``None`` unless at least :data:`MIN_BEYOND` samples lie beyond
  the chosen rank — a p99 needs 1000 samples, a p90 100, a median 20.
  Every reported percentile carries its sample count.
* **Open-loop samples are timed from when they were due.**
  :func:`open_loop` fires an action on a fixed schedule; an action that
  stalls delays every later one, and that delay lands in their
  latencies (``done - due``) and in the generator's lateness
  (``start - due``) instead of silently thinning the load.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import sys
# repro-lint: timing-module -- the open loop schedules and times actions against the clock
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Optional, Sequence

__all__ = ["MIN_BEYOND", "DueSample", "percentile", "median", "describe", "open_loop"]

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    count = len(samples)
    rank = max(1, math.ceil(q * count))
    if count - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median when it has its tail; otherwise (a batch run
    times only a few links) the median of the repetitions."""
    value = percentile(samples, 0.5)
    return statistics.median(samples) if value is None else value


def describe(name: str, samples: Sequence[float], unit: str = "s") -> str:
    """One report line: median and the highest supported percentile, with
    the sample count."""
    count = len(samples)
    if not count:
        return f"{name}: no samples"
    if percentile(samples, 0.5) is None:
        parts = [f"median of {count} repetitions {median(samples):.6g} {unit}"]
    else:
        parts = [f"p50 {median(samples):.6g} {unit}"]
        for q in (0.99, 0.9):
            value = percentile(samples, q)
            if value is not None:
                parts.append(f"p{round(q * 100)} {value:.6g} {unit}")
                break
    return f"{name}: " + ", ".join(parts) + f" (n={count})"


@dataclass(frozen=True)
class DueSample:
    """One open-loop action: when it was due, began and finished."""

    due: float
    start: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.start - self.due


async def open_loop(
    period: float,
    count: int,
    action: Callable[[int], Awaitable[object]],
    origin: Optional[float] = None,
) -> List[DueSample]:
    """Run ``action(k)`` for ``k < count``, action ``k`` due at
    ``origin + k * period``.

    One generator: an action starts at its due time or, when the previous
    one overran, as soon as that one returns.  A raising action is
    recorded with ``ok=False`` and the loop continues.
    """
    start_of_loop = time.perf_counter() if origin is None else origin
    samples: List[DueSample] = []
    for index in range(count):
        due = start_of_loop + index * period
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        start = time.perf_counter()
        ok = True
        try:
            await action(index)
        except Exception as error:  # counted as a failed operation
            print(f"open-loop action {index} failed: {error!r}", file=sys.stderr)
            ok = False
        samples.append(DueSample(due, start, time.perf_counter(), ok))
    return samples
