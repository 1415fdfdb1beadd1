"""Live serving observability: streaming per-site statistics for the broker.

PR 4/5 built *post-hoc* observability — traces, ledgers, and reports
over completed runs.  This package is the *live* counterpart the
long-running broker daemon needs: continuously-aggregated statistics
that answer "how are the sellers doing right now?" without holding
whole-run traces in memory.

* :class:`QuantileSketch` — a deterministic streaming quantile sketch
  over fixed log-spaced buckets.  All state is integer bucket counts
  plus an integer-scaled sum, so aggregation is order-independent:
  registries built from sessions completing in any interleaving (any
  thread count) are byte-identical.
* :class:`SiteStatsRegistry` — per-site win/loss counts, settled-price
  and valuation sketches, offer-latency sketches, and RFB
  fanout/response accounting, folded from the offer facts each trade
  hands its ``TradeFacts`` sink (no trace needed).  Its reads of the
  headline figures (:meth:`~SiteStatsRegistry.operational`,
  :meth:`~SiteStatsRegistry.critical_summary`) are what ``GET /sites``,
  ``/metrics/prom`` and ``repro sites`` print.
* :class:`QErrorObservatory` — runs purchased plans through the
  execution engine on sampled sessions and histograms
  observed-vs-estimated cardinality q-error per (site, relation-set
  size): the calibration signal mid-execution re-trading will consume.
* :func:`render_prometheus` / :func:`parse_prometheus_text` —
  Prometheus text-format exposition (``GET /metrics/prom``) and the
  strict parser the tests and CI validate it with.
* :class:`EventRing` — a bounded ring buffer of recent broker events
  behind ``GET /events?since=``.
* :class:`SLOTracker` — shed/degraded budget tracking: run ratios of
  the broker's own totals, plus a fixed-size session epoch window.
* :class:`LiveObsHub` — the broker-facing coordinator tying the above
  together (see :class:`repro.broker.service.BrokerService`).

Everything here is stdlib-only and opt-in (``repro serve --live-obs``);
when disabled the broker's hot path is untouched.  See
``docs/OBSERVABILITY.md`` ("Live serving observability").
"""

from repro.obs.live.events import EventRing
from repro.obs.live.hub import LiveObsConfig, LiveObsHub
from repro.obs.live.prom import (
    PromParseError,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.live.qerror import QERROR_BUCKETS, QErrorObservatory
from repro.obs.live.registry import SiteStatsRegistry
from repro.obs.live.sketch import QuantileSketch
from repro.obs.live.slo import SLOTracker

__all__ = [
    "EventRing",
    "LiveObsConfig",
    "LiveObsHub",
    "PromParseError",
    "QERROR_BUCKETS",
    "QErrorObservatory",
    "QuantileSketch",
    "SLOTracker",
    "SiteStatsRegistry",
    "parse_prometheus_text",
    "render_prometheus",
]
