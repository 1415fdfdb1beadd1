"""A deterministic, order-independent streaming quantile sketch.

The live registries aggregate values (settled prices, valuations,
simulated offer latencies) from sessions that complete in a
nondeterministic interleaving — worker threads race.  A byte-identical
snapshot contract therefore rules out any state whose value depends on
insertion order, which includes a plain float accumulator (float
addition is not associative).

The sketch keeps only order-independent state:

* integer counts per fixed log-spaced bucket (DDSketch-style: bucket
  ``i`` covers ``(MIN_VALUE * GAMMA**i, MIN_VALUE * GAMMA**(i+1)]``,
  giving a bounded relative error of ``GAMMA - 1``),
* the value total as an *integer* number of nano-units
  (``round(value * 1e9)``), so sums are exact integer arithmetic,
* integer-scaled min/max.

Quantiles are answered with the upper bound of the covering bucket —
a deterministic representative within the sketch's relative-error
guarantee.
"""

from __future__ import annotations

import math

__all__ = ["QuantileSketch", "GAMMA", "MIN_VALUE"]

#: Bucket growth factor: relative accuracy of reported quantiles.
GAMMA = 1.05

#: Values at or below this collapse into bucket 0 (latencies and prices
#: in this system are well above a nanosecond/nano-money unit).
MIN_VALUE = 1e-9

#: Integer scale for exact value totals.
_SCALE = 1_000_000_000

_LOG_GAMMA = math.log(GAMMA)


class QuantileSketch:
    """Streaming quantiles over fixed log buckets; order-independent."""

    __slots__ = ("_buckets", "count", "_sum_units", "_min_units", "_max_units")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self.count = 0
        self._sum_units = 0
        self._min_units: int | None = None
        self._max_units: int | None = None

    # -- write ---------------------------------------------------------
    def add(self, value: float, count: int = 1) -> None:
        """Record *value* (negative values clamp to zero)."""
        if count <= 0:
            return
        value = max(float(value), 0.0)
        if value <= MIN_VALUE:
            index = 0
        else:
            index = 1 + int(math.floor(math.log(value / MIN_VALUE) / _LOG_GAMMA))
        self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += count
        units = round(value * _SCALE)
        self._sum_units += units * count
        if self._min_units is None or units < self._min_units:
            self._min_units = units
        if self._max_units is None or units > self._max_units:
            self._max_units = units

    # -- read ----------------------------------------------------------
    @property
    def sum(self) -> float:
        return self._sum_units / _SCALE

    @property
    def mean(self) -> float:
        return self._sum_units / _SCALE / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return (self._min_units or 0) / _SCALE

    @property
    def max(self) -> float:
        return (self._max_units or 0) / _SCALE

    @staticmethod
    def bucket_upper(index: int) -> float:
        """The inclusive upper bound of bucket *index*."""
        if index <= 0:
            return MIN_VALUE
        return MIN_VALUE * GAMMA ** index

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) as a bucket upper bound."""
        if self.count == 0:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= target:
                return round(self.bucket_upper(index), 12)
        return round(self.bucket_upper(max(self._buckets)), 12)

    # -- snapshot ------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data snapshot; JSON of this is the byte-identity surface."""
        return {
            "count": self.count,
            "sum": round(self._sum_units / _SCALE, 9),
            "min": round((self._min_units or 0) / _SCALE, 9),
            "max": round((self._max_units or 0) / _SCALE, 9),
            "buckets": {str(i): self._buckets[i] for i in sorted(self._buckets)},
        }
