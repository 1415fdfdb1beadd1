"""The broker service: shared world, concurrent negotiations, metrics.

One :class:`BrokerService` owns

* one federation **world** (catalog, plan builder, cost model) shared by
  every session,
* one shared per-site **offer cache** — each session trades through a
  :meth:`~repro.trading.cache.OfferCache.session_view`, so results
  cached by any session serve all others while hit/miss accounting
  stays per-session,
* the **admission controller** and **session manager** (worker
  threads), and
* a :class:`~repro.obs.metrics.MetricsRegistry` with the serving
  gauges/counters plus a latency reservoir for p50/p99.

Each session gets a *private* network + clock + tracer and runs inside
its own :mod:`contextvars` context with a private offer-id counter
(:func:`repro.trading.commodity.offer_id_scope`), so concurrent
sessions mint exactly the offer-id sequence a serial run would —
which is what makes broker plans (including their ``offer#N``
provenance strings) equal to serial library runs.

Two clock modes:

* ``"sim"`` — each session drives a private deterministic
  :class:`~repro.net.Simulator` on its worker thread.  Negotiations
  run as fast as the CPU allows; simulated time is still reported.
* ``"async"`` — sessions share one real :mod:`asyncio` loop thread;
  each gets its own :class:`~repro.net.AsyncClock`, so deadlines,
  backoff, and fault timers elapse in wall time.

Offer *arrival* order under wall time is jitter-dependent, so the
broker negotiates through :class:`OrderedBiddingProtocol`, which sorts
each round's collected offers by a canonical key before the buyer sees
them — making the negotiation outcome clock-independent.
"""

from __future__ import annotations

import asyncio
import contextvars
import re
import threading
import time
from collections import deque
from typing import Mapping

from repro.bench.harness import BUYER, World, build_world
from repro.broker.admission import AdmissionConfig, AdmissionController
from repro.broker.sessions import (
    BrokerSession,
    SessionManager,
    SessionSpec,
    SHED,
)
from repro.net import AsyncClock, Network, Simulator
from repro.obs import Tracer, explain
from repro.obs.metrics import MetricsRegistry
from repro.sql import ParseError, parse_query
from repro.trading import BiddingProtocol, BuyerPlanGenerator, QueryTrader
from repro.trading.cache import CacheStats
from repro.trading.commodity import Offer, offer_id_scope
from repro.trading.protocols import SolicitResult

if False:  # pragma: no cover - typing only (avoid hard optional imports)
    from repro.mqo import EpochScheduler, MQOConfig
    from repro.obs.live import LiveObsConfig, LiveObsHub

__all__ = ["BrokerError", "OrderedBiddingProtocol", "BrokerService"]


class BrokerError(Exception):
    """A client-visible failure with an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _offer_order_key(offer: Offer) -> tuple:
    """A total, clock-independent order over one round's offers.

    Seller, offered query, coverage, shape, and price pin the
    commodity; the (session-scoped, deterministic) offer id breaks any
    remaining tie.  Arrival order — the one thing wall-time jitter can
    change — does not appear.
    """
    return (
        offer.seller,
        offer.query.key(),
        offer.coverage_key(),
        offer.exact_projections,
        offer.properties.money,
        offer.offer_id,
    )


class OrderedBiddingProtocol(BiddingProtocol):
    """Sealed-bid bidding with canonical offer ordering per round.

    Under the simulator offers already arrive in a deterministic order;
    under :class:`~repro.net.AsyncClock` wall-time jitter can reorder
    them, and the buyer's offer table breaks value ties by arrival.
    Sorting each round's offers by :func:`_offer_order_key` removes the
    clock from the outcome — the broker uses this protocol for *both*
    modes, so sim-clock and async-clock sessions produce identical
    plans.
    """

    name = "bidding"  # same wire behavior; only intake order changes

    def _solicit(self, network, buyer, sellers, rfb) -> SolicitResult:
        result = super()._solicit(network, buyer, sellers, rfb)
        result.offers.sort(key=_offer_order_key)
        return result


#: Latency reservoir cap — enough for percentile fidelity at bench
#: scale without unbounded growth in a long-lived daemon.
_MAX_LATENCIES = 4096

#: Upper bounds (milliseconds) of the ``broker.session_latency_ms``
#: histogram's buckets; the registry's default buckets are in simulated
#: seconds.
_LATENCY_MS_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: Retention defaults: how many terminal sessions stay addressable, and
#: for how long after they finish.  A traced session holds ~256 KB, so
#: the cap is what bounds a long-lived daemon's memory.
RETAIN_SESSIONS = 256
RETAIN_SECONDS = 600.0

#: The ids ``submit`` mints: ``s<n>``, n counting from 1.
_ISSUED_ID = re.compile(r"s([1-9][0-9]*)")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


class BrokerService:
    """Long-lived multiplexer of concurrent trading sessions."""

    def __init__(
        self,
        world: World | None = None,
        world_config: Mapping | None = None,
        clock: str = "sim",
        admission: AdmissionConfig | None = None,
        quiesce_timeout: float = 60.0,
        mqo: "MQOConfig | None" = None,
        live_obs: "LiveObsConfig | None" = None,
        retain_sessions: int = RETAIN_SESSIONS,
        retain_seconds: float = RETAIN_SECONDS,
    ):
        if clock not in ("sim", "async"):
            raise ValueError("clock must be 'sim' or 'async'")
        if retain_sessions < 1:
            raise ValueError("retain_sessions must be positive")
        if retain_seconds <= 0:
            raise ValueError("retain_seconds must be positive")
        self.retain_sessions = retain_sessions
        self.retain_seconds = retain_seconds
        self.world = world if world is not None else build_world(
            **dict(world_config or {})
        )
        self.clock_mode = clock
        self.admission_config = admission or AdmissionConfig()
        self.controller = AdmissionController(self.admission_config)
        self.quiesce_timeout = quiesce_timeout
        self.metrics = MetricsRegistry()
        self._started = time.monotonic()
        #: The live observability hub (``None`` unless opted in — the
        #: disabled broker has no live code on the session path at all).
        self.live: "LiveObsHub | None" = None
        if live_obs is not None:
            from repro.obs.live import LiveObsHub

            self.live = LiveObsHub(self.world, live_obs)
        self._sessions: dict[str, BrokerSession] = {}
        #: Retained terminal sessions, oldest finish first — the
        #: eviction order.  Queued and running sessions are not in it,
        #: so they cannot be evicted.
        self._terminal: deque[BrokerSession] = deque()
        self._lock = threading.Lock()
        #: Ids are ``s1..s<issued>``: one of those that is no longer in
        #: ``_sessions`` was evicted (410), anything else never existed.
        self._issued = 0
        self._latencies: list[float] = []
        #: Cross-session cache accounting, accumulated from terminal
        #: sessions (per-session stats stay on each result).
        self._cache_totals = CacheStats()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        if clock == "async":
            self._start_loop()
        self.manager = SessionManager(
            self._run_session, self.controller, on_terminal=self.note_terminal
        )
        #: Opt-in MQO epoch scheduler — when enabled, submitted sessions
        #: batch into trading epochs (shared-commodity interning +
        #: amortized seed offers) before reaching the session workers.
        self.mqo: "EpochScheduler | None" = None
        if mqo is not None and mqo.enabled:
            from repro.mqo import EpochScheduler

            self.mqo = EpochScheduler(
                self.world, BUYER, self._dispatch, mqo
            )
        self._closed = False

    # -- the shared asyncio loop (async mode only) ------------------------
    def _start_loop(self) -> None:
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(ready.set)
            self._loop.run_forever()

        self._loop_thread = threading.Thread(
            target=_run, name="broker-loop", daemon=True
        )
        self._loop_thread.start()
        if not ready.wait(timeout=10.0):
            raise RuntimeError("broker event loop failed to start")

    # -- submission --------------------------------------------------------
    def parse_spec(self, payload: Mapping) -> SessionSpec:
        """Validate a submit payload into a :class:`SessionSpec` (400s)."""
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise BrokerError(400, "missing required field 'sql'")
        mode = payload.get("mode", "dp")
        if mode not in ("dp", "idp"):
            raise BrokerError(400, f"unknown mode {mode!r} (use 'dp' or 'idp')")
        try:
            query = parse_query(sql, self.world.catalog.schemas)
        except ParseError as exc:
            raise BrokerError(400, f"bad query: {exc}") from exc
        max_iterations = payload.get("max_iterations")
        if max_iterations is not None and (
            not isinstance(max_iterations, int) or max_iterations < 1
        ):
            raise BrokerError(400, "max_iterations must be a positive integer")
        timeout = payload.get("timeout")
        if timeout is not None and (
            not isinstance(timeout, (int, float)) or timeout <= 0
        ):
            raise BrokerError(400, "timeout must be a positive number")
        return SessionSpec(
            sql=sql,
            query=query,
            tenant=str(payload.get("tenant", "default")),
            mode=mode,
            max_iterations=max_iterations,
            timeout=timeout,
            trace=bool(payload.get("trace", True)),
        )

    def submit(self, spec: SessionSpec) -> BrokerSession:
        """Queue one negotiation; a shed session comes back terminal."""
        if self._closed:
            raise BrokerError(503, "broker is shutting down")
        with self._lock:
            self._issued += 1
            session = BrokerSession(f"s{self._issued}", spec)
            self._sessions[session.session_id] = session
        self.metrics.inc("broker.sessions_submitted", tenant=spec.tenant)
        if self.live is not None:
            self.live.observe_submitted(session)
        if self.mqo is not None:
            # Sessions batch into a trading epoch first; the scheduler
            # calls _dispatch (possibly with seed offers attached) when
            # the epoch seals.
            self.mqo.add(session)
        else:
            self._dispatch(session)
        return session

    def _dispatch(self, session: BrokerSession) -> None:
        """Release one session to the worker pool (the MQO epoch
        scheduler's dispatch hook; also the MQO-off direct path)."""
        self.manager.submit(session)
        self._update_gauges()

    # -- the per-session negotiation --------------------------------------
    def _run_session(self, session: BrokerSession) -> None:
        # A fresh context copy isolates the session's offer-id counter;
        # asyncio callbacks snapshot the scheduling context, so the
        # whole callback chain inherits it.
        context = contextvars.copy_context()
        self._update_gauges()
        context.run(self._negotiate, session)

    def _negotiate(self, session: BrokerSession) -> None:
        with offer_id_scope():
            if self.clock_mode == "async":
                clock = AsyncClock(
                    self._loop, quiesce_timeout=self.quiesce_timeout
                )
            else:
                clock = Simulator()
            network = Network(self.world.model, clock=clock)
            tracer = None
            if session.spec.trace:
                tracer = Tracer()
                network.attach_tracer(tracer)
            cache_view = (
                self.world.offer_cache.session_view()
                if self.world.offer_cache is not None
                else None
            )
            sellers = self.world.seller_agents(offer_cache=cache_view)
            protocol = OrderedBiddingProtocol(timeout=session.spec.timeout)
            budget = self.admission_config.budget
            rounds = budget.rounds
            if session.spec.max_iterations is not None:
                rounds = min(rounds, session.spec.max_iterations)
            plangen = BuyerPlanGenerator(
                self.world.builder, BUYER, mode=session.spec.mode
            )
            trader = QueryTrader(
                BUYER,
                sellers,
                network,
                plangen,
                protocol=protocol,
                max_iterations=rounds,
                offer_budget=budget.offers,
                seed_offers=session.seed_offers,
            )
            session.result = trader.optimize(session.spec.query)
            if self.live is not None and tracer is not None:
                # Stash the session's trace for the live registries; the
                # hub consumes (and frees) it at terminal bookkeeping.
                session.live_records = list(tracer.records)

    # -- bookkeeping -------------------------------------------------------
    def note_terminal(self, session: BrokerSession) -> None:
        """Metrics hook: record a session reaching its terminal state."""
        state = session.state
        self.metrics.inc(f"broker.sessions_{state}", tenant=session.spec.tenant)
        if session.result is not None:
            with self._lock:
                self._cache_totals.add(session.result.cache)
        latency = session.latency
        if latency is not None and state != SHED:
            self.metrics.observe(
                "broker.session_latency_ms", latency * 1e3,
                _LATENCY_MS_BUCKETS,
            )
            with self._lock:
                self._latencies.append(latency)
                if len(self._latencies) > _MAX_LATENCIES:
                    del self._latencies[: -_MAX_LATENCIES]
        if self.live is not None:
            self.live.observe_terminal(session)
        self._retire(session)
        self._update_gauges()

    def _retire(self, session: BrokerSession) -> None:
        """Enter *session* into the retention window and evict what has
        fallen out of it: the oldest-finished sessions beyond the count
        cap or past the age limit.  O(1) amortised, and it runs where a
        session finishes, not where a client asks about one."""
        horizon = session.finished_at - self.retain_seconds
        with self._lock:
            self._terminal.append(session)
            while (
                len(self._terminal) > self.retain_sessions
                or self._terminal[0].finished_at < horizon
            ):
                evicted = self._terminal.popleft()
                self._sessions.pop(evicted.session_id, None)

    def _update_gauges(self) -> None:
        occupancy = self.controller.occupancy()
        self.metrics.gauge_set("broker.active_sessions", occupancy["running"])
        self.metrics.gauge_set("broker.queue_depth", occupancy["queued"])

    # -- queries -----------------------------------------------------------
    def get(self, session_id: str) -> BrokerSession:
        """The retained session; 410 if evicted, 404 if never issued."""
        with self._lock:
            session = self._sessions.get(session_id)
            issued = self._issued
        if session is not None:
            return session
        match = _ISSUED_ID.fullmatch(session_id)
        if match is not None and int(match[1]) <= issued:
            raise BrokerError(
                410,
                f"session {session_id} is gone: the broker keeps the last "
                f"{self.retain_sessions} finished sessions for up to "
                f"{self.retain_seconds:g} s",
            )
        raise BrokerError(404, f"unknown session {session_id!r}")

    def sessions(self) -> list[BrokerSession]:
        with self._lock:
            return list(self._sessions.values())

    def result_payload(self, session_id: str) -> dict:
        """The completed session's result (409 until terminal)."""
        session = self.get(session_id)
        if not session.done:
            raise BrokerError(
                409, f"session {session_id} is {session.state}"
            )
        payload = session.snapshot()
        result = session.result
        if result is None:
            return payload
        payload.update(
            found=result.found,
            degraded=result.budget_exhausted,
            iterations=result.iterations,
            offers_considered=result.offers_considered,
            optimization_time=result.optimization_time,
            messages=result.messages.messages,
            payments=result.total_payment,
            cache={
                "hits": result.cache.hits,
                "misses": result.cache.misses,
                "intern_hits": result.cache.intern_hits,
            },
        )
        if result.found:
            payload["plan_cost"] = result.best.properties.total_time
            payload["plan"] = result.best.plan.explain()
            payload["contracts"] = [
                contract.offer.describe() for contract in result.contracts
            ]
        return payload

    def explain_payload(
        self, session_id: str, subquery: str | None = None
    ) -> dict:
        """The provenance audit of a completed, traced session."""
        session = self.get(session_id)
        if not session.done:
            raise BrokerError(
                409, f"session {session_id} is {session.state}"
            )
        if session.result is None or session.result.ledger is None:
            raise BrokerError(
                409,
                f"session {session_id} has no decision ledger "
                "(submitted with trace=false, or it never ran)",
            )
        return explain(session.result, subquery=subquery).to_dict()

    def critpath_payload(self, session_id: str) -> dict:
        """The critical-path decomposition of a completed, traced session."""
        session = self.get(session_id)
        if not session.done:
            raise BrokerError(
                409, f"session {session_id} is {session.state}"
            )
        result = session.result
        telemetry = result.telemetry if result is not None else None
        if telemetry is None or telemetry.critical_path is None:
            raise BrokerError(
                409,
                f"session {session_id} has no critical path "
                "(submitted with trace=false, or it never ran)",
            )
        return telemetry.critical_path

    def _rollup(self) -> dict:
        """The one shared serving rollup both metric surfaces render.

        ``/metrics`` (JSON) and ``/metrics/prom`` (Prometheus text) are
        generated from this dict field-for-field, so the two surfaces
        cannot drift apart.
        """
        occupancy = self.controller.occupancy()
        with self._lock:
            latencies = sorted(self._latencies)
            cache = self._cache_totals.snapshot()
        # Counted as sessions finish, so evicted sessions stay in them.
        finished = {
            state: self.metrics.total(f"broker.sessions_{state}")
            for state in ("completed", "degraded", "failed")
        }
        return {
            "clock": self.clock_mode,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "active_sessions": occupancy["running"],
            "queue_depth": occupancy["queued"],
            "admitted_total": occupancy["admitted_total"],
            "shed_total": occupancy["shed_total"],
            "completed_total": sum(finished.values()),
            "states": {
                "active": occupancy["running"],
                "queued": occupancy["queued"],
                "shed": occupancy["shed_total"],
                **finished,
            },
            "latency_ms": {
                "p50": round(_percentile(latencies, 0.50) * 1e3, 3),
                "p99": round(_percentile(latencies, 0.99) * 1e3, 3),
            },
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "intern_hits": cache.intern_hits,
                "hit_rate": round(cache.hit_rate, 6),
            },
        }

    def metrics_payload(self) -> dict:
        """Serving metrics: occupancy, per-state counts, p50/p99 latency."""
        payload = dict(self._rollup())
        payload["registry"] = self.metrics.to_dict()
        if self.mqo is not None:
            payload["mqo"] = self.mqo.metrics()
        if self.live is not None:
            payload["slo"] = self.live.slo.summary()
        return payload

    def prom_payload(self) -> str:
        """The ``GET /metrics/prom`` Prometheus text exposition."""
        from repro.obs.live.prom import render_prometheus

        rollup = self._rollup()

        def broker_families(builder) -> None:
            builder.gauge(
                "broker_info",
                "broker identity (labels carry the clock kind)",
                1,
                clock=rollup["clock"],
            )
            builder.gauge(
                "broker_uptime_seconds",
                "seconds since the broker service started",
                rollup["uptime_s"],
            )
            builder.gauge(
                "broker_sessions_active",
                "sessions currently negotiating",
                rollup["active_sessions"],
            )
            builder.gauge(
                "broker_sessions_queued",
                "sessions admitted but not yet running",
                rollup["queue_depth"],
            )
            builder.counter(
                "broker_admitted",
                "sessions admitted since start",
                rollup["admitted_total"],
            )
            builder.counter(
                "broker_shed",
                "sessions shed at admission since start",
                rollup["shed_total"],
            )
            builder.counter(
                "broker_completed",
                "sessions that finished negotiating since start",
                rollup["completed_total"],
            )
            for state, count in sorted(rollup["states"].items()):
                builder.gauge(
                    "broker_session_states",
                    "session count per lifecycle state",
                    count,
                    state=state,
                )
            for quantile in ("p50", "p99"):
                builder.gauge(
                    "broker_latency_quantile_ms",
                    "session latency quantiles in milliseconds",
                    rollup["latency_ms"][quantile],
                    quantile=quantile,
                )
            for outcome in ("hits", "misses", "intern_hits"):
                builder.counter(
                    "broker_cache_lookups",
                    "shared offer-cache lookups by outcome",
                    rollup["cache"][outcome],
                    outcome=outcome,
                )
            builder.gauge(
                "broker_cache_hit_rate",
                "shared offer-cache hit rate",
                rollup["cache"]["hit_rate"],
            )
            if self.mqo is not None:
                for key, value in sorted(self.mqo.metrics().items()):
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        builder.gauge(
                            f"broker_mqo_{key}",
                            f"mqo epoch scheduler metric {key}",
                            value,
                        )

        builders = [broker_families]
        if self.live is not None:
            builders.append(self.live.prom_families)
        return render_prometheus(self.metrics, build=builders)

    def events_payload(self, since: int = 0, limit: int = 1000) -> dict:
        """The ``GET /events?since=`` ring-buffer page."""
        if self.live is None:
            raise BrokerError(
                404, "live observability is not enabled (serve with --live-obs)"
            )
        return self.live.events.since(since, limit)

    def sites_payload(self) -> dict:
        """The ``GET /sites`` per-site registry + q-error snapshot."""
        if self.live is None:
            raise BrokerError(
                404, "live observability is not enabled (serve with --live-obs)"
            )
        return self.live.sites_payload()

    # -- lifecycle ---------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> bool:
        """Block until every submitted session is terminal (an evicted
        one already is)."""
        if self.mqo is not None:
            # A partial epoch may still be waiting on its window timer;
            # seal it now so its members actually reach the workers.
            self.mqo.flush()
        end = time.monotonic() + timeout
        for session in self.sessions():
            remaining = end - time.monotonic()
            if remaining <= 0 or not session.wait(timeout=remaining):
                return False
        return True

    def close(self) -> None:
        """Stop workers, stop the loop thread; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.mqo is not None:
            self.mqo.close()
        self.manager.close()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=10.0)
            self._loop.close()
