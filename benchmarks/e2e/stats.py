"""The two statistics every metric is built from."""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (q in [0, 1]) with linear interpolation between
    order statistics — continuous in its inputs, so a four-input
    workload's median does not jump when two inputs swap rank."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def per_input_best(
    passes: Sequence[Sequence[float | None]],
) -> list[float | None]:
    """Slot-wise minimum across passes over identical inputs (see the
    noise rule in README.md: this host has two speeds and flips between
    them every few seconds, and only the fast one repeats).  ``None``
    marks a failed operation; a slot that failed in any pass stays
    ``None`` (it misses every latency limit) rather than borrowing its
    good passes."""
    out: list[float | None] = []
    for samples in zip(*passes, strict=True):
        if any(sample is None for sample in samples):
            out.append(None)
        else:
            out.append(min(samples))
    return out
