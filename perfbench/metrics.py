"""The benchmark's own arithmetic: percentiles, the tail choice, span
self time and the output check.

Pure functions of their arguments; ``perfbench/tests`` pins them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

#: Percentiles the tail metric may be reported at.
TAIL_LADDER = (50.0, 60.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A tail percentile is reported only with at least this many items
#: beyond it; fewer make it a statement about one or two outliers.
MIN_BEYOND = 10


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``n`` sorted values: the
    smallest rank with at least ``pct`` percent of the values at or
    below it."""
    if n < 1:
        raise ValueError("rank of an empty sample")
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` items lie strictly above the ``pct`` rank."""
    return n - rank(n, pct)


def tail_percentile(n: int) -> Optional[float]:
    """The highest :data:`TAIL_LADDER` percentile with at least
    :data:`MIN_BEYOND` of ``n`` items beyond it (None below 20 items)."""
    chosen = None
    for pct in TAIL_LADDER:
        if n >= 1 and beyond(n, pct) >= MIN_BEYOND:
            chosen = pct
    return chosen


# ----------------------------------------------------------------------
# Machine-speed scale
# ----------------------------------------------------------------------
#: Time of one :func:`perfbench.reference.reference_pass` that scaled
#: times refer to: a typical pass time on the reference machine (2 vCPU
#: shared host, Python 3.11), where a pass takes 10 to 22 ms.
REFERENCE_S = 0.0175


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while a reference pass took ``reference``,
    expressed at the speed where it takes :data:`REFERENCE_S`."""
    return seconds * REFERENCE_S / reference


@dataclass
class Span:
    """One timed call into a layer.

    ``parent`` is the index of the enclosing span in the same list (None
    at top level); ``item`` is the id shared by every span of one item
    (None outside items); ``size`` is the length of the call's result
    where that is a count the layer reports (trace queries)."""

    layer: str
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[int]
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], start: float,
            end: float) -> float:
    """Length of the part of ``[start, end]`` covered by the union of
    ``intervals`` (overlaps counted once)."""
    total = 0.0
    run_start = run_end = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered(kids, span.start, span.end)
            for span, kids in zip(spans, children)]


def is_outermost(spans: Sequence[Span], index: int) -> bool:
    """True when the span's parent belongs to another layer (or there is
    none): a query that calls another query counts once."""
    parent = spans[index].parent
    return parent is None or spans[parent].layer != spans[index].layer


def check_batch(passed: bool, digest: str, pinned: Optional[str],
                recorded: Optional[str]) -> list[str]:
    """Problems with one batch's output: a failing verdict, or a digest
    that differs from the pinned one or from the one an earlier run of
    the same seed recorded.  Empty when the batch is correct."""
    problems = []
    if not passed:
        problems.append("verdict FAIL")
    if pinned is not None and digest != pinned:
        problems.append(f"digest {digest[:16]} != pinned {pinned[:16]}")
    if recorded is not None and digest != recorded:
        problems.append(f"digest {digest[:16]} != recorded "
                        f"{recorded[:16]}")
    return problems
