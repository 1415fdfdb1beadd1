"""Per-epoch SLO tracking for the broker.

Turns shed and degraded sessions into budget signals an operator can
alert on: "is the shed ratio within budget, over the run and over the
last epoch of N sessions?".  The run ratios are judged on the broker's
own totals, which :meth:`SLOTracker.summary` is handed; the tracker
stores only what no other store has — the current and last closed
epoch, with their latency quantiles in a :class:`~repro.obs.live.
sketch.QuantileSketch`.  Epochs window over *completion order*, an
operational signal excluded from byte-identity checks.
"""

from __future__ import annotations

import threading

from repro.obs.live.sketch import QuantileSketch

__all__ = ["SHED_BUDGET", "DEGRADED_BUDGET", "EPOCH_SESSIONS", "SLOTracker"]

SHED_BUDGET = 0.05  # fraction of arrivals that may be shed
DEGRADED_BUDGET = 0.10  # fraction of completions that may degrade
EPOCH_SESSIONS = 32  # sessions per SLO epoch window


class SLOTracker:
    """Windows terminal session outcomes into fixed-size SLO epochs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch_index = 0
        self._last_epoch: dict | None = None
        self._open_epoch()

    def _open_epoch(self) -> None:
        self._completed = 0
        self._shed = 0
        self._degraded = 0
        self._latency = QuantileSketch()

    def observe_shed(self) -> None:
        with self._lock:
            self._shed += 1
            self._maybe_roll()

    def observe_completion(self, latency_s: float, *, degraded: bool) -> None:
        with self._lock:
            self._completed += 1
            self._degraded += degraded
            self._latency.add(latency_s)
            self._maybe_roll()

    def _maybe_roll(self) -> None:
        if self._completed + self._shed >= EPOCH_SESSIONS:
            self._last_epoch = self._epoch_locked()
            self._epoch_index += 1
            self._open_epoch()

    def _epoch_locked(self) -> dict:
        total = self._completed + self._shed
        return {
            "epoch": self._epoch_index,
            "sessions": total,
            "completed": self._completed,
            "shed": self._shed,
            "degraded": self._degraded,
            "shed_ratio": round(self._shed / total, 6) if total else 0.0,
            "latency_p50_s": self._latency.quantile(0.5),
            "latency_p99_s": self._latency.quantile(0.99),
        }

    def summary(self, *, completed: int, shed: int, degraded: int) -> dict:
        """Run ratios of the broker's totals (*completed*: sessions run)."""
        shed_ratio = shed / (completed + shed) if completed + shed else 0.0
        degraded_ratio = degraded / completed if completed else 0.0
        with self._lock:
            epoch, last_epoch = self._epoch_locked(), self._last_epoch
        return {
            "config": {
                "shed_budget": SHED_BUDGET,
                "degraded_budget": DEGRADED_BUDGET,
                "epoch_sessions": EPOCH_SESSIONS,
            },
            "shed_ratio": round(shed_ratio, 6),
            "shed_within_budget": shed_ratio <= SHED_BUDGET,
            "degraded_ratio": round(degraded_ratio, 6),
            "degraded_within_budget": degraded_ratio <= DEGRADED_BUDGET,
            "epoch": epoch,
            "last_epoch": last_epoch,
        }
