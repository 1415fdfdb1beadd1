"""Per-site live statistics, aggregated from completed sessions.

The :class:`SiteStatsRegistry` is the substrate both open ROADMAP items
stand on: adaptive top-k RFB fanout needs learned per-site win rates,
price distributions, and latency; mid-execution re-trading needs a live
view of who is answering and at what price.  No trace is read: a
:class:`TradeFacts` sink on the session's network collects, as the
trade runs, each priced offer's seller, offered latency (``total_time``)
and nominal effort (the seller's dedupe; a seed offer at the buyer's
intake), its value if the buyer received it, its settled price if
awarded (``Protocol.award``), whether each RFB delivery was answered,
and each solicitation's fanout and responders.

Every accumulator is an integer count or a :class:`~repro.obs.live.
sketch.QuantileSketch` — so a registry built from any interleaving of
the same sessions snapshots to identical bytes.  Pricing effort is
**nominal** (enumerated plans × seconds-per-plan, cache-independent):
the seller's charged work depends on which session hit the shared
offer cache first, so it is not deterministic under concurrency.

Sessions traced on request (``"trace": true``) also carry a
critical-path decomposition (:mod:`repro.obs.critpath`), folded into
per-phase latency sketches and each seller's compute seconds on the
critical path.  Those figures are a sample of the traced sessions and
stay off the byte-identity snapshot: a critical path attributes the
compute that actually ran, and which session pays a shared subquery
is an interleaving accident.

Every headline figure read off the sketches is computed in one place,
:meth:`SiteStatsRegistry.operational` and :meth:`SiteStatsRegistry.
critical_summary`; ``GET /sites``, ``/metrics/prom`` and ``repro
sites`` all print from them.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Mapping

from repro.obs.live.sketch import QuantileSketch

__all__ = [
    "SiteStats", "SiteStatsRegistry", "TradeFacts", "SITE_STATS_SCHEMA_VERSION"
]

#: Bump when the snapshot shape changes.
SITE_STATS_SCHEMA_VERSION = 2  # v2: nominal per-offer effort sketch


class SiteStats:
    """One seller site's live accumulators."""

    __slots__ = (
        "wins",
        "losses",
        "offers_priced",
        "offers_received",
        "rfbs_handled",
        "rfbs_answered",
        "settled",
        "valuation",
        "latency",
        "effort",
        "critical_units",
    )

    def __init__(self) -> None:
        self.wins = 0            # awarded offers
        self.losses = 0          # offers received by the buyer, not awarded
        self.offers_priced = 0   # offers the seller priced (post-dedupe)
        self.offers_received = 0  # survived the network back to the buyer
        self.rfbs_handled = 0    # RFBs delivered to this seller
        self.rfbs_answered = 0   # RFBs answered with at least one offer
        self.settled = QuantileSketch()    # settled (Vickrey) prices
        self.valuation = QuantileSketch()  # buyer valuations of its offers
        self.latency = QuantileSketch()    # offered total time (sim s)
        #: Nominal per-offer pricing effort (sim s): enumerated plans ×
        #: seconds-per-plan, so it is cache-independent and deterministic.
        self.effort = QuantileSketch()
        #: Seller compute seconds attributed to session critical paths,
        #: kept as integer nano-units (like the sketch sums) so the
        #: total is exact and independent of the order sessions finish.
        self.critical_units = 0

    @property
    def win_rate(self) -> float:
        decided = self.wins + self.losses
        return self.wins / decided if decided else 0.0

    @property
    def response_rate(self) -> float:
        return self.rfbs_answered / self.rfbs_handled if self.rfbs_handled else 0.0

    def to_dict(self) -> dict:
        return {
            "wins": self.wins,
            "losses": self.losses,
            "win_rate": round(self.win_rate, 6),
            "offers_priced": self.offers_priced,
            "offers_received": self.offers_received,
            "rfbs_handled": self.rfbs_handled,
            "rfbs_answered": self.rfbs_answered,
            "response_rate": round(self.response_rate, 6),
            "settled": self.settled.to_dict(),
            "valuation": self.valuation.to_dict(),
            "latency": self.latency.to_dict(),
            "effort": self.effort.to_dict(),
        }


class SiteStatsRegistry:
    """Thread-safe per-site aggregation over completed sessions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sites: dict[str, SiteStats] = {}
        self.sessions = 0
        self.rounds = 0
        self.rfb_fanout = 0     # total RFB messages broadcast (fanout sum)
        self.rfb_responded = 0  # sellers that answered, summed over rounds
        self.critical_sessions = 0  # sessions with a critical-path breakdown
        #: Per-phase critical-path seconds, one observation per session.
        self.phase_latency: dict[str, QuantileSketch] = {}

    def _site(self, name: str) -> SiteStats:
        stats = self._sites.get(name)
        if stats is None:
            stats = self._sites[name] = SiteStats()
        return stats

    # -- ingest --------------------------------------------------------
    def observe_session(
        self, facts: "TradeFacts", critical_path: Mapping | None = None
    ) -> None:
        """Fold one finished trade's *facts* into the registry, with the
        session's critical-path decomposition (``RunTelemetry.
        critical_path``) when it was traced."""
        with self._lock:
            self.sessions += 1
            self.rounds += facts.rounds
            self.rfb_fanout += facts.fanout
            self.rfb_responded += facts.responded
            for seller, (handled, answered) in facts.rfbs.items():
                stats = self._site(seller)
                stats.rfbs_handled += handled
                stats.rfbs_answered += answered
            # Offers repeat few values per site: each sketch takes
            # every distinct value once, with its count.
            folded: Counter = Counter()
            for seller, total_time, effort, value, price in (
                facts.offers.values()
            ):
                stats = self._site(seller)
                stats.offers_priced += 1
                folded[seller, "latency", total_time] += 1
                if effort is not None:
                    folded[seller, "effort", effort] += 1
                if value is not None:
                    stats.offers_received += 1
                    folded[seller, "valuation", value] += 1
                if price is not None:
                    stats.wins += 1
                    folded[seller, "settled", price] += 1
                elif value is not None:
                    stats.losses += 1
            for (seller, sketch, value), count in folded.items():
                getattr(self._sites[seller], sketch).add(value, count)
            if critical_path is not None:
                self._observe_critical(critical_path)

    def _observe_critical(self, decomposition: Mapping) -> None:
        """Fold one session's critical-path decomposition in."""
        phases = decomposition.get("phases") or {}
        if not phases:
            return
        self.critical_sessions += 1
        for phase in sorted(phases):
            sketch = self.phase_latency.get(phase)
            if sketch is None:
                sketch = self.phase_latency[phase] = QuantileSketch()
            sketch.add(float(phases[phase]))
        for site, seconds in (decomposition.get("sellers") or {}).items():
            self._site(site).critical_units += round(float(seconds) * 1e9)

    # -- read ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic plain-data snapshot (sorted sites, sketch dicts)."""
        with self._lock:
            return {
                "schema_version": SITE_STATS_SCHEMA_VERSION,
                "sessions": self.sessions,
                "rounds": self.rounds,
                "rfb_fanout": self.rfb_fanout,
                "rfb_responded": self.rfb_responded,
                "response_ratio": round(
                    self.rfb_responded / self.rfb_fanout, 6
                )
                if self.rfb_fanout
                else 0.0,
                "sites": {
                    name: self._sites[name].to_dict()
                    for name in sorted(self._sites)
                },
            }

    def operational(self) -> dict:
        """The per-site headline figures, read once off the sketches:
        settled-price mean, offer-latency p95, nominal pricing effort,
        and each site's seller-compute seconds on sampled critical paths
        (interleaving-dependent, so off the byte-identity snapshot).
        ``GET /sites`` serves this dict as ``operational``."""
        with self._lock:
            return {
                name: {
                    "effort_mean_s": round(stats.effort.mean, 9),
                    "effort_p95_s": stats.effort.quantile(0.95),
                    "critical_seconds": round(stats.critical_units / 1e9, 9),
                    "settled_price_mean": round(stats.settled.mean, 9),
                    "offer_latency_p95_s": stats.latency.quantile(0.95),
                }
                for name, stats in sorted(self._sites.items())
            }

    def critical_summary(self) -> dict:
        """Operational critical-path figures: session count and each
        phase's mean and p95 seconds (one observation per session)."""
        with self._lock:
            return {
                "sessions": self.critical_sessions,
                "phases": {
                    phase: {
                        "mean_s": round(sketch.mean, 9),
                        "p95_s": sketch.quantile(0.95),
                    }
                    for phase, sketch in sorted(self.phase_latency.items())
                },
            }


class TradeFacts:
    """One trade's offer facts, handed in as the trade runs through
    ``Network.facts`` and folded by :meth:`SiteStatsRegistry.
    observe_session`.  Offers are keyed by id, so a duplicated delivery
    counts once.  One trade, one thread: no lock."""

    def __init__(self) -> None:
        #: offer id -> [seller, total_time, effort, value, price]; value
        #: and price stay ``None`` until received and awarded, effort
        #: for a seed offer priced outside the trade.
        self.offers: dict[int, list] = {}
        self.rfbs: dict[str, list[int]] = {}  # seller -> [handled, answered]
        self.rounds = self.fanout = self.responded = 0

    def _entry(self, offer) -> list:
        return self.offers.setdefault(
            offer.offer_id,
            [offer.seller, offer.properties.total_time, None, None, None],
        )

    def priced(self, offers, efforts: Mapping[str, float]) -> None:
        for offer in offers:
            effort = efforts.get(offer.request_key, 0.0)
            self._entry(offer)[2] = round(effort, 12)

    def received(self, offer, value: float) -> None:
        self._entry(offer)[3] = value

    def awarded(self, offer) -> None:
        if offer.offer_id in self.offers:
            self.offers[offer.offer_id][4] = offer.properties.money

    def delivered(self, seller: str, answered: bool) -> None:
        counts = self.rfbs.setdefault(seller, [0, 0])
        counts[0] += 1
        counts[1] += answered

    def solicited(self, fanout: int, responded: int) -> None:
        self.fanout += fanout
        self.responded += responded
