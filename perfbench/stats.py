"""Summary statistics for the benchmark's reports.

Timings are reported as a median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it, always with the
sample count, so a tail figure is never quoted from a handful of
observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["MIN_BEYOND", "TAIL_PERCENTILES", "Tail", "nearest_rank", "tail"]

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


@dataclass(frozen=True)
class Tail:
    """One reported percentile: which one, its value, and its support."""

    percentile: float
    value: float
    n: int
    beyond: int

    @property
    def name(self) -> str:
        return f"p{self.percentile:g}"


def nearest_rank(samples: Sequence[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of *samples*: ``(value, rank)`` where
    *rank* is the 1-based position of the value in sorted order."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = sorted(samples)
    # Exact decimal arithmetic: 99.9 / 100 * 10000 is 9990.000000000002
    # in binary floating point, which would round the rank up by one.
    rank = max(1, math.ceil(Fraction(str(percentile)) * len(ordered) / 100))
    return ordered[rank - 1], rank


def tail(samples: Sequence[float]) -> Tail | None:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` when even the
    lowest lacks them."""
    if not samples:
        return None
    for p in TAIL_PERCENTILES:
        value, rank = nearest_rank(samples, p)
        beyond = len(samples) - rank
        if beyond >= MIN_BEYOND:
            return Tail(p, value, len(samples), beyond)
    return None
