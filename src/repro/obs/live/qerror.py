"""Q-error observatory: observed-vs-estimated cardinality calibration.

Every plan node the buyer's DP builds carries the optimizer's estimated
output cardinality (``Plan.rows``).  The observatory re-runs purchased
plans through :class:`~repro.execution.engine.PlanExecutor` on *sampled*
sessions and, via the executor's observer hook, compares each node's
estimate against the actually-materialized row count.  The classic
metric is the **q-error**::

    q = max(est / obs, obs / est)        (both floored at 1 row)

``q == 1`` is a perfect estimate; ``q == 4`` means off by 4x in either
direction.  Errors are histogrammed per ``(site, relation-set-size)``
cell — size-1 cells calibrate base selectivities, size-k cells expose
the compounding join-selectivity error that grows with k.  The
worst-offender surfacing is exactly the signal the mid-execution
re-trading ROADMAP item needs: re-optimize when the running plan's cell
is known-miscalibrated.

Sampling is deterministic (the number in the broker's ``s<n>`` session
id, modulo the rate), so same-seed runs sample the same sessions and
snapshots are byte-identical.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

from repro.execution.engine import FederationData, PlanExecutor
from repro.execution.tables import ResultSet
from repro.optimizer.plans import Plan, Purchased, Transfer
from repro.sql.query import SPJQuery

__all__ = ["QERROR_BUCKETS", "QErrorObservatory", "qerror"]

#: Histogram bucket upper bounds (inclusive) for q-error values; one
#: extra +inf bucket is kept implicitly at the end.
QERROR_BUCKETS = (1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0)

#: Integer scale for exact q-error sums (see obs/live/sketch.py).
_SCALE = 1_000_000_000


def qerror(estimated: float, observed: float) -> float:
    """max(est/obs, obs/est), both floored at one row; always >= 1."""
    est = max(float(estimated), 1.0)
    obs = max(float(observed), 1.0)
    return max(est / obs, obs / est)


class _Cell:
    """One (site, relation-set-size) histogram cell."""

    __slots__ = ("counts", "count", "_sum_units", "_max_units")

    def __init__(self) -> None:
        self.counts = [0] * (len(QERROR_BUCKETS) + 1)  # last = +inf
        self.count = 0
        self._sum_units = 0
        self._max_units = _SCALE  # q-error is always >= 1

    def add(self, q: float) -> None:
        self.counts[bisect_left(QERROR_BUCKETS, q)] += 1
        self.count += 1
        units = round(q * _SCALE)
        self._sum_units += units
        if units > self._max_units:
            self._max_units = units

    @property
    def sum(self) -> float:
        return self._sum_units / _SCALE

    @property
    def mean(self) -> float:
        return self._sum_units / _SCALE / self.count if self.count else 1.0

    @property
    def max(self) -> float:
        return self._max_units / _SCALE

    def quantile(self, quantile_rank: float) -> float:
        """Nearest-rank quantile as a bucket upper bound (max for +inf)."""
        if self.count == 0:
            return 1.0
        target = max(1, min(self.count, math.ceil(quantile_rank * self.count)))
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= target:
                if i < len(QERROR_BUCKETS):
                    return QERROR_BUCKETS[i]
                return self.max
        return self.max

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "mean": round(self.mean, 6),
            "max": round(self.max, 6),
            "p50": round(self.quantile(0.5), 6),
            "p90": round(self.quantile(0.9), 6),
            "counts": list(self.counts),
        }


class QErrorObservatory:
    """Per-(site, relation-set-size) q-error histograms over sampled runs."""

    def __init__(self, sample_every: int = 4) -> None:
        self.sample_every = max(1, int(sample_every))
        self._lock = threading.Lock()
        self._cells: dict[tuple[str, int], _Cell] = {}
        self.sampled_sessions = 0
        self.nodes_observed = 0

    # -- sampling ------------------------------------------------------
    def should_sample(self, session_id: str) -> bool:
        """Deterministic: the broker mints ``s<n>``; sample when n is a
        multiple of the sampling rate."""
        return int(session_id[1:]) % self.sample_every == 0

    # -- ingest --------------------------------------------------------
    def observe_plan(
        self, plan: Plan, data: FederationData, query: SPJQuery
    ) -> ResultSet:
        """Execute *plan*, folding each node's q-error into its cell.

        Returns the plan's result so callers can reuse the (already paid
        for) execution.  Union/Transfer glue nodes inherit their child
        estimates and would double-count, so only nodes that carry a
        genuine optimizer estimate — purchased leaves and operators with
        at least one relation alias — are recorded.
        """
        observations: list[tuple[str, int, float]] = []

        def observer(node: Plan, observed_rows: int) -> None:
            if isinstance(node, Transfer):
                return  # inherits its child's estimate; would double-count
            aliases = node.aliases()
            if not aliases:
                return
            site = node.seller if isinstance(node, Purchased) else node.site
            observations.append(
                (site, len(aliases), qerror(node.rows, observed_rows))
            )

        result = PlanExecutor(data, query, observer=observer).run(plan)
        with self._lock:
            self.sampled_sessions += 1
            self.nodes_observed += len(observations)
            for site, size, q in observations:
                cell = self._cells.get((site, size))
                if cell is None:
                    cell = self._cells[(site, size)] = _Cell()
                cell.add(q)
        return result

    # -- read ----------------------------------------------------------
    def worst_offenders(self, limit: int = 5) -> list[dict]:
        """Cells ranked by p90 q-error (ties: mean, then key) descending."""
        with self._lock:
            ranked = sorted(
                self._cells.items(),
                key=lambda kv: (-kv[1].quantile(0.9), -kv[1].mean, kv[0]),
            )
            return [
                {"site": site, "relations": size, **cell.to_dict()}
                for (site, size), cell in ranked[: max(1, limit)]
            ]

    def snapshot(self) -> dict:
        """Deterministic snapshot: cells keyed ``site|size``, sorted."""
        with self._lock:
            return {
                "sample_every": self.sample_every,
                "sampled_sessions": self.sampled_sessions,
                "nodes_observed": self.nodes_observed,
                "cells": {
                    f"{site}|{size}": self._cells[(site, size)].to_dict()
                    for site, size in sorted(self._cells)
                },
            }
