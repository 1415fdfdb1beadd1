"""Cost-weighted work partitioning for the sweep runner.

Job costs across a sweep are wildly uneven — a 12-join point costs
orders of magnitude more than a 4-join warm-up — so dealing jobs
round-robin leaves one worker with the heavy ones while the rest idle.
This module implements Longest-Processing-Time-first greedy bin packing
(a.k.a. LPT list scheduling):

* items are visited in descending weight (ties broken by original
  index, so the schedule is deterministic),
* each item goes to the currently least-loaded bucket (ties broken by
  bucket index).

LPT's classic guarantee bounds the imbalance: the heaviest bucket
carries at most ``total/k + max_item`` weight (list-scheduling bound;
LPT's own bound is the tighter ``4/3 - 1/(3k)`` factor of optimal).
``tests/test_parallel.py`` property-checks both the bound and the
exactly-once coverage of every item.

The partition only decides *where* work runs — results are gathered in
job order (:mod:`repro.parallel.sweeps`), so scheduling never affects
them.
"""

from __future__ import annotations

import heapq
from typing import Sequence

__all__ = ["lpt_partition"]


def lpt_partition(
    weights: Sequence[float], buckets: int
) -> list[list[int]]:
    """Partition item indices into at most *buckets* cost-balanced groups.

    Returns one list of item indices per non-empty bucket, each sorted
    ascending (callers merge results in serial item order, so the order
    *within* a bucket is presentation only).  Deterministic: equal
    weights fall back to index order, equal loads to bucket order.
    """
    if buckets < 1:
        raise ValueError("buckets must be positive")
    n = len(weights)
    k = min(buckets, n)
    if k <= 1:
        return [list(range(n))] if n else []
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    heap = [(0.0, b) for b in range(k)]  # (load, bucket) — already sorted
    assignment: list[list[int]] = [[] for _ in range(k)]
    for i in order:
        load, bucket = heapq.heappop(heap)
        assignment[bucket].append(i)
        heapq.heappush(heap, (load + weights[i], bucket))
    for group in assignment:
        group.sort()
    return [group for group in assignment if group]
