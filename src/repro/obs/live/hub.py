"""The broker-facing coordinator for live observability.

A :class:`LiveObsHub` owns the live registries and is the *only* thing
:class:`~repro.broker.service.BrokerService` talks to.  One
``observe_trade(facts, result)`` call per finished trade folds the
offer facts the trade handed its :class:`~repro.obs.live.registry.
TradeFacts` sink (and, for a session traced on request, its critical
path) into the :class:`~repro.obs.live.registry.SiteStatsRegistry`;
live-obs sessions are not traced.  One ``observe_terminal(session)``
call per finished session fans out to:

* the :class:`~repro.obs.live.slo.SLOTracker` (the SLO epoch window;
  the run totals it judges are the broker's),
* the :class:`~repro.obs.live.qerror.QErrorObservatory` on
  deterministically-sampled sessions (the purchased plan is re-executed
  against lazily-materialized federation data), and
* the :class:`~repro.obs.live.events.EventRing` behind ``GET /events``.

The hub is entirely opt-in: when the broker runs without ``--live-obs``
no hub exists and no live code is on the session path.  Q-error
execution happens *after* the session's latency is stamped, so sampling
never inflates reported session latency.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.live.events import EventRing
from repro.obs.live.qerror import QERROR_BUCKETS, QErrorObservatory
from repro.obs.live.registry import SiteStatsRegistry
from repro.obs.live.slo import SLOTracker

__all__ = ["LiveObsConfig", "LiveObsHub"]


@dataclass(frozen=True)
class LiveObsConfig:
    """Knobs for the live observability layer (``repro serve --live-obs``)."""

    #: Run the q-error observatory on every Nth session (0 disables it).
    qerror_sample_every: int = 4
    #: Seed for materializing federation data for q-error execution —
    #: use the world seed so observed rows match what sellers would ship.
    data_seed: int = 7


#: The ``/metrics/prom`` families of the registry snapshot's global
#: counts: ``(builder method, family, snapshot key, help)``.
_REGISTRY_FAMILIES = (
    ("counter", "live_sessions_observed", "sessions",
     "sessions folded into the live registries"),
    ("counter", "live_rounds_observed", "rounds",
     "trading rounds folded into the live registries"),
    ("counter", "live_rfb_fanout", "rfb_fanout",
     "RFB messages broadcast across observed sessions"),
    ("counter", "live_rfb_responded", "rfb_responded",
     "RFB deliveries answered with offers across observed sessions"),
    ("gauge", "live_rfb_response_ratio", "response_ratio",
     "responded / fanout across observed sessions"),
)

#: The ``/metrics/prom`` gauges of :meth:`SiteStatsRegistry.operational`
#: figures: ``(family, figure key, help)``.
_SITE_FIGURES = (
    ("site_settled_price_mean", "settled_price_mean",
     "mean settled (awarded) offer price"),
    ("site_offer_latency_p95_seconds", "offer_latency_p95_s",
     "p95 offered total time, execute+ship (simulated seconds)"),
    ("site_pricing_effort_mean_seconds", "effort_mean_s",
     "mean nominal per-offer pricing effort (cache-independent)"),
    ("site_critical_seconds", "critical_seconds",
     "seller compute seconds on session critical paths"),
)


class LiveObsHub:
    """Aggregates completed-session signals into the live registries."""

    def __init__(self, world, config: LiveObsConfig | None = None):
        self.config = config or LiveObsConfig()
        self.world = world
        self.registry = SiteStatsRegistry()
        self.slo = SLOTracker()
        self.events = EventRing()
        self.qerror = (
            QErrorObservatory(self.config.qerror_sample_every)
            if self.config.qerror_sample_every > 0
            else None
        )
        self.qerror_failures = 0
        self._data = None  # FederationData, materialized on first sample
        self._data_lock = threading.Lock()

    # -- ingest --------------------------------------------------------
    def observe_submitted(self, session) -> None:
        self.events.append(
            "session.submitted",
            session=session.session_id,
            tenant=session.spec.tenant,
        )

    def observe_trade(self, facts, result) -> None:
        """Fold one finished trade's *facts* into the per-site registry."""
        telemetry = result.telemetry
        self.registry.observe_session(
            facts, telemetry and telemetry.critical_path
        )

    def observe_terminal(self, session) -> None:
        """Fold one terminal session into the SLO, q-error and event
        registries."""
        state = session.state
        if state == "shed":
            self.slo.observe_shed()
            self.events.append(
                "session.shed", session=session.session_id, error=session.error
            )
            return
        latency = session.latency or 0.0
        self.slo.observe_completion(latency, degraded=(state == "degraded"))
        result = session.result
        event = {
            "session": session.session_id,
            "state": state,
            "latency_ms": round(latency * 1e3, 3),
        }
        if result is not None and result.found:
            event["plan_cost"] = result.best.properties.total_time
            event["sampled"] = self._maybe_observe_qerror(session)
        self.events.append("session.terminal", **event)

    def _maybe_observe_qerror(self, session) -> bool:
        if self.qerror is None:
            return False
        if not self.qerror.should_sample(session.session_id):
            return False
        try:
            data = self._federation_data()
            self.qerror.observe_plan(
                session.result.best.plan, data, session.spec.query
            )
        except Exception:  # a bad sample must never kill the broker
            self.qerror_failures += 1
            return False
        return True

    def _federation_data(self):
        with self._data_lock:
            if self._data is None:
                from repro.execution.engine import FederationData

                self._data = FederationData.build(
                    self.world.catalog, seed=self.config.data_seed
                )
            return self._data

    # -- read ----------------------------------------------------------
    def snapshot(self) -> dict:
        """The deterministic live-obs state (sites + q-error)."""
        out = {"sites": self.registry.snapshot()}
        if self.qerror is not None:
            out["qerror"] = self.qerror.snapshot()
        return out

    def sites_payload(self, worst: int = 5) -> dict:
        """The ``GET /sites`` payload: snapshot plus ranked offenders."""
        payload = self.snapshot()
        payload["operational"] = self.registry.operational()
        if self.qerror is not None:
            payload["worst_estimators"] = self.qerror.worst_offenders(worst)
            payload["qerror_failures"] = self.qerror_failures
        return payload

    def prom_families(self, builder, slo: dict) -> None:
        """Contribute live-obs metric families to the Prometheus builder;
        *slo* is the :meth:`SLOTracker.summary` the JSON surface shows."""
        sites = self.registry.snapshot()
        for kind, family, key, help_text in _REGISTRY_FAMILIES:
            getattr(builder, kind)(family, help_text, sites[key])
        per_site = (
            ("counter", "wins", "offers this site won"),
            ("counter", "losses", "offers this site lost at ranking"),
            ("counter", "offers_priced", "offers this site priced"),
            ("counter", "offers_received",
             "offers from this site the buyer received"),
            ("counter", "rfbs_handled", "RFBs delivered to this site"),
            ("counter", "rfbs_answered", "RFBs this site answered with offers"),
            ("gauge", "win_rate", "offer win rate"),
            ("gauge", "response_rate", "RFB response rate"),
        )
        for site, stats in sites["sites"].items():
            for kind, key, help_text in per_site:
                getattr(builder, kind)(
                    f"site_{key}", help_text, stats[key], site=site
                )
        for site, site_figures in self.registry.operational().items():
            for family, key, help_text in _SITE_FIGURES:
                builder.gauge(family, help_text, site_figures[key], site=site)
        critical = self.registry.critical_summary()
        builder.counter(
            "critpath_sessions_observed",
            "sessions folded in with a critical-path decomposition",
            critical["sessions"],
        )
        for phase, phase_figures in critical["phases"].items():
            builder.gauge(
                "critpath_phase_seconds_mean",
                "mean per-session critical-path seconds per phase",
                phase_figures["mean_s"],
                phase=phase,
            )
            builder.gauge(
                "critpath_phase_seconds_p95",
                "p95 per-session critical-path seconds per phase",
                phase_figures["p95_s"],
                phase=phase,
            )
        for family, help_text, value in (
            ("slo_shed_ratio", "shed sessions / arrivals", slo["shed_ratio"]),
            ("slo_shed_within_budget",
             "1 when the shed ratio is within budget",
             int(slo["shed_within_budget"])),
            ("slo_degraded_ratio", "degraded completions / completions",
             slo["degraded_ratio"]),
            ("slo_degraded_within_budget",
             "1 when the degraded ratio is within budget",
             int(slo["degraded_within_budget"])),
            ("slo_epoch", "index of the current SLO epoch",
             slo["epoch"]["epoch"]),
        ):
            builder.gauge(family, help_text, value)
        if self.qerror is not None:
            snap = self.qerror.snapshot()
            builder.counter(
                "qerror_sampled_sessions",
                "sessions sampled by the q-error observatory",
                snap["sampled_sessions"],
            )
            builder.counter(
                "qerror_nodes_observed",
                "plan nodes with observed cardinalities",
                snap["nodes_observed"],
            )
            for key, cell in snap["cells"].items():
                site, _, size = key.rpartition("|")
                builder.histogram(
                    "qerror",
                    "observed-vs-estimated cardinality q-error per "
                    "(site, relation-set-size)",
                    QERROR_BUCKETS,
                    cell["counts"],
                    cell["sum"],
                    site=site,
                    relations=size,
                )
