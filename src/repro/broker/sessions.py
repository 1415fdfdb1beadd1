"""Trading-session lifecycle and the concurrent session manager.

A :class:`BrokerSession` is one query's trip through the broker:

    queued -> running -> completed | degraded | failed
       \\-> shed (rejected at admission, never ran)

``degraded`` is a *successful* completion whose negotiation stopped on
a compute budget (rounds or offer cap) rather than natural convergence
— the plan is valid, just possibly improvable.

The :class:`SessionManager` drains admitted sessions through a fixed
pool of worker threads (the admission config's ``max_concurrent``).
Each worker runs one negotiation at a time via the runner callable the
service provides; everything protocol-level (clock, network, tracer,
offer-id scope) is the runner's business, keeping this module a pure
scheduling layer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.broker.admission import AdmissionController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.query import SPJQuery
    from repro.trading.trader import TradingResult

__all__ = [
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "DEGRADED",
    "FAILED",
    "SHED",
    "TERMINAL_STATES",
    "SessionSpec",
    "BrokerSession",
    "SessionManager",
]

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
DEGRADED = "degraded"
FAILED = "failed"
SHED = "shed"

TERMINAL_STATES = frozenset({COMPLETED, DEGRADED, FAILED, SHED})


@dataclass(frozen=True)
class SessionSpec:
    """What the client asked for: the query plus negotiation options."""

    sql: str
    query: "SPJQuery"
    tenant: str = "default"
    mode: str = "dp"  # buyer plan generator: 'dp' | 'idp'
    max_iterations: int | None = None  # None -> the budget's round cap
    timeout: float | None = None  # per-round deadline (protocol)
    trace: bool = False  # capture ledger/trace for `explain`


class BrokerSession:
    """One query's lifecycle record inside the broker."""

    def __init__(self, session_id: str, spec: SessionSpec):
        self.session_id = session_id
        self.spec = spec
        self.state = QUEUED
        self.error: str | None = None
        self.result: "TradingResult | None" = None
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Amortized seed offers injected by the MQO epoch scheduler
        #: (``None`` outside MQO — the trader then runs unseeded).
        self.seed_offers: "list | None" = None
        #: The trading epoch that seeded this session (``None`` if none).
        self.epoch: str | None = None
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency(self) -> float | None:
        """Submit-to-finish wall seconds (``None`` until terminal)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def finish(self, state: str, error: str | None = None) -> None:
        self.state = state
        self.error = error
        self.finished_at = time.monotonic()

    def mark_done(self) -> None:
        """Release :meth:`wait` — called after terminal bookkeeping, so
        a returned ``wait()``/``drain()`` means metrics and live-obs
        registries already reflect this session."""
        self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the session reaches a terminal state."""
        return self._done.wait(timeout)

    def snapshot(self) -> dict:
        """The JSON-safe status view (the ``/sessions/<id>`` payload)."""
        out = {
            "session": self.session_id,
            "state": self.state,
            "tenant": self.spec.tenant,
            "query": self.spec.sql,
            "mode": self.spec.mode,
        }
        if self.latency is not None:
            out["latency_ms"] = round(self.latency * 1e3, 3)
        if self.error is not None:
            out["error"] = self.error
        if self.epoch is not None:
            out["epoch"] = self.epoch
        if self.result is not None and self.result.found:
            out["plan_cost"] = self.result.best.properties.total_time
        return out


class SessionManager:
    """A fixed worker pool draining admitted sessions in FIFO order."""

    def __init__(
        self,
        runner: Callable[[BrokerSession], None],
        controller: AdmissionController,
        on_terminal: Callable[[BrokerSession], None] | None = None,
    ):
        self._runner = runner
        self._controller = controller
        self._on_terminal = on_terminal
        self._queue: deque[BrokerSession] = deque()
        self._cond = threading.Condition()
        self._stopping = False
        self._threads = [
            threading.Thread(
                target=self._work, name=f"broker-worker-{i}", daemon=True
            )
            for i in range(controller.config.max_concurrent)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, session: BrokerSession) -> bool:
        """Admit *session* (queue it) or shed it; returns admitted."""
        with self._cond:
            if self._stopping:
                error = "broker shutting down"
            elif not self._controller.try_admit():
                error = "queue full"
            else:
                self._queue.append(session)
                self._cond.notify()
                return True
        self._finish(session, SHED, error=error)
        return False

    def _finish(
        self, session: BrokerSession, state: str, error: str | None = None
    ) -> None:
        session.finish(state, error=error)
        try:
            if self._on_terminal is not None:
                self._on_terminal(session)
        finally:
            session.mark_done()

    def _work(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if not self._queue:
                    return  # stopping and drained
                session = self._queue.popleft()
            self._controller.on_start()
            session.state = RUNNING
            session.started_at = time.monotonic()
            error = None
            try:
                self._runner(session)
            except Exception as exc:  # a failed session must not kill the worker
                state, error = FAILED, f"{type(exc).__name__}: {exc}"
            else:
                result = session.result
                degraded = result is not None and result.budget_exhausted
                state = DEGRADED if degraded else COMPLETED
            # Release the slot before the terminal bookkeeping, so a
            # session that reads as finished no longer reads as running.
            self._controller.on_finish()
            self._finish(session, state, error=error)

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain the queue, join the workers."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
