"""Deterministic metrics: the broker's counters and histograms, and the
per-run telemetry a traced trade carries.

:class:`MetricsRegistry` holds the counters and fixed-bucket
histograms :class:`~repro.broker.service.BrokerService` writes as
sessions finish; ``/metrics`` renders it with :meth:`~MetricsRegistry.
to_dict` and ``/metrics/prom`` with
:func:`~repro.obs.live.prom.render_prometheus`.  Histogram bucket
boundaries are fixed by the caller (never derived from observed data),
label sets are sorted, and :meth:`~MetricsRegistry.to_dict` renders
with sorted keys, so the same writes give byte-identical dumps.

:class:`RunTelemetry` is what
:attr:`~repro.trading.trader.TradingResult.telemetry` derives from a
traced trade's records: span, event and gauge counts plus the critical
path.  A trace's per-phase, per-message, per-fault and per-site cache
totals are ``repro report``'s job (:func:`repro.obs.report.summarize`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.critpath import CriticalPath
from repro.obs.tracer import TraceRecord

__all__ = ["MetricsRegistry", "RunTelemetry"]

Labels = tuple[tuple[str, str], ...]


def _labels(**kv) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in kv.items()))


def _label_str(labels: Labels) -> str:
    return ",".join(f"{k}={v}" for k, v in labels) if labels else "-"


@dataclass
class _Histogram:
    """Counts per fixed bucket plus count/sum (Prometheus-style); the
    last, implicit bucket is +inf."""

    boundaries: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.boundaries) + 1)

    def observe(self, value: float) -> None:
        # bisect_left makes boundaries *inclusive* upper bounds, matching
        # Prometheus `le` semantics: a value exactly on a boundary counts
        # in that bucket, not the next one.
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value

    def to_dict(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Labelled counters and fixed-bucket histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, dict[Labels, int]] = {}
        self._histograms: dict[str, dict[Labels, _Histogram]] = {}

    # -- write ---------------------------------------------------------
    def inc(self, name: str, amount: int = 1, **labels) -> None:
        series = self._counters.setdefault(name, {})
        key = _labels(**labels)
        series[key] = series.get(key, 0) + amount

    def observe(
        self,
        name: str,
        value: float,
        boundaries: Sequence[float],
        **labels,
    ) -> None:
        series = self._histograms.setdefault(name, {})
        key = _labels(**labels)
        histogram = series.get(key)
        if histogram is None:
            histogram = series[key] = _Histogram(tuple(boundaries))
        histogram.observe(value)

    # -- read ----------------------------------------------------------
    def total(self, name: str) -> int:
        return sum(self._counters.get(name, {}).values())

    # -- export --------------------------------------------------------
    def to_dict(self) -> dict:
        """Deterministic nested dict (sorted names and label rows)."""
        out: dict = {"counters": {}, "histograms": {}}
        for name in sorted(self._counters):
            out["counters"][name] = {
                _label_str(k): v
                for k, v in sorted(self._counters[name].items())
            }
        for name in sorted(self._histograms):
            out["histograms"][name] = {
                _label_str(k): h.to_dict()
                for k, h in sorted(self._histograms[name].items())
            }
        return out


@dataclass
class RunTelemetry:
    """What one traced negotiation produced, attached to the result.

    Only present when tracing was enabled for the run (a disabled
    tracer leaves :attr:`TradingResult.telemetry` at ``None`` and every
    other field untouched — the zero-overhead contract).
    """

    spans: int
    events: int
    gauges: int
    #: Deterministic critical-path decomposition of the run
    #: (:mod:`repro.obs.critpath`), or ``None`` for non-trading traces.
    critical_path: dict | None = None

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "RunTelemetry":
        spans = sum(1 for r in records if r.kind == "span")
        gauges = sum(1 for r in records if r.kind == "gauge")
        critical = CriticalPath.from_records(records)
        return cls(
            spans=spans,
            events=len(records) - spans - gauges,
            gauges=gauges,
            critical_path=None if critical is None else critical.to_dict(),
        )

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "events": self.events,
            "gauges": self.gauges,
            "critical_path": self.critical_path,
        }
