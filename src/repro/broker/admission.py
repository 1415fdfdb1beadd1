"""Admission control for the federation broker.

The broker protects itself with three independent knobs:

* **max_concurrent** — how many negotiations run at once (the session
  manager's worker-thread count).  Arrivals beyond it queue.
* **queue_limit** — how many admitted sessions may wait for a worker.
  Arrivals beyond it are *shed* immediately (HTTP 429): under a burst
  the broker prefers fast rejection over unbounded latency.
* **SessionBudget** — per-session compute caps threaded into the
  trader: ``rounds`` bounds negotiation rounds (``max_iterations``),
  ``offers`` bounds distinct offer evaluations
  (:attr:`repro.trading.trader.QueryTrader.offer_budget`).  A session
  that exhausts a budget still returns its best-so-far plan, flagged
  ``degraded``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["SessionBudget", "AdmissionConfig", "AdmissionController"]


@dataclass(frozen=True)
class SessionBudget:
    """Per-session compute caps (``None``/unreachable = unbudgeted)."""

    rounds: int = 6
    offers: int | None = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.offers is not None and self.offers < 1:
            raise ValueError("offers must be positive when set")


@dataclass(frozen=True)
class AdmissionConfig:
    """The broker's protection knobs (see module docstring)."""

    max_concurrent: int = 8
    queue_limit: int = 32
    budget: SessionBudget = field(default_factory=SessionBudget)

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be positive")
        if self.queue_limit < 0:
            raise ValueError("queue_limit cannot be negative")


class AdmissionController:
    """Thread-safe admit/shed decisions plus occupancy accounting.

    ``try_admit`` charges a queue slot; ``on_start`` moves the session
    from queued to running; ``on_finish`` releases it.  The controller
    is the broker's one store of occupancy — current and peak queue
    depth and running sessions — and of the admitted total.  Shed
    sessions are counted where every terminal state is, in the
    broker's metrics registry.
    """

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self._lock = threading.Lock()
        self.queued = 0
        self.running = 0
        self.queued_peak = 0
        self.running_peak = 0
        self.admitted_total = 0

    def try_admit(self) -> bool:
        """Claim a queue slot; ``False`` means shed (queue full)."""
        with self._lock:
            if self.queued >= self.config.queue_limit:
                return False
            self.queued += 1
            self.queued_peak = max(self.queued_peak, self.queued)
            self.admitted_total += 1
            return True

    def on_start(self) -> None:
        with self._lock:
            self.queued -= 1
            self.running += 1
            self.running_peak = max(self.running_peak, self.running)

    def on_finish(self) -> None:
        with self._lock:
            self.running -= 1

    def occupancy(self) -> dict[str, int]:
        """A consistent snapshot of the controller's counters."""
        with self._lock:
            return {
                "queued": self.queued,
                "running": self.running,
                "queued_peak": self.queued_peak,
                "running_peak": self.running_peak,
                "admitted_total": self.admitted_total,
            }
