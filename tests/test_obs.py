"""Tier-1 coverage of the observability layer (repro.obs).

Pins the three contracts ``docs/OBSERVABILITY.md`` promises:

* **zero perturbation** — attaching a tracer (enabled or disabled)
  changes no field of the trading result, across the E1–E3 experiment
  axes (query size, federation size, generator mode);
* **determinism** — the deterministic JSONL export of a traced run is
  byte-identical between two runs of the same negotiation;
* **fidelity** — the recorded events reconcile exactly with the
  independent counters the system already keeps (``NetworkStats``,
  ``CacheStats``, the fault injector's log).
"""

import itertools
import json

import pytest

import repro.trading.commodity as commodity
from repro.bench.harness import build_world, run_qt
from repro.faults import FaultPlan, LinkFaults
from repro.net import MessageKind, Network
from repro.net.simulator import Simulator
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    RunTelemetry,
    Tracer,
    chrome_trace_events,
    jsonl_lines,
    load_trace,
    render_report,
    render_timeline,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import NO_PARENT
from repro.trading import OfferCache
from repro.workload import chain_query


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class _FakeSim:
    def __init__(self, now=0.0):
        self.now = now


def test_span_nesting_parents():
    tracer = Tracer(sim=_FakeSim())
    with tracer.span("outer", "t") as outer:
        tracer.event("inside", "t")
        with tracer.span("inner", "t"):
            tracer.gauge("depth", 2)
    outer_rec, inside, inner, gauge = tracer.records
    assert outer_rec.parent_id == NO_PARENT
    assert inside.parent_id == outer_rec.span_id
    assert inner.parent_id == outer_rec.span_id
    assert gauge.parent_id == inner.span_id
    assert gauge.args == {"value": 2}
    outer.set(offers=3)
    assert outer_rec.args == {"offers": 3}


def test_span_tracks_sim_clock():
    sim = _FakeSim(1.0)
    tracer = Tracer(sim=sim)
    with tracer.span("work", "t"):
        sim.now = 3.5
    record = tracer.records[0]
    assert record.sim_start == 1.0
    assert record.sim_end == 3.5
    assert record.sim_duration == 2.5


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x", "t") as span:
        span.set(a=1)  # no-op span accepts set()
        tracer.event("y", "t")
        tracer.gauge("z", 1)
        tracer.interval("w", "t", "site", 0.0, 1.0)
    assert tracer.records == []
    assert NULL_TRACER.records == []


def test_unbound_tracer_stamps_zero_sim_time():
    tracer = Tracer()
    tracer.event("e", "t")
    assert tracer.records[0].sim_start == 0.0


# ----------------------------------------------------------------------
# Simulator accessor (satellite: accurate pending_events)
# ----------------------------------------------------------------------
def test_pending_events_excludes_cancelled_timers():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule_cancellable(2.0, lambda: None)
    sim.schedule_cancellable(3.0, lambda: None)
    assert sim.pending_events() == 3
    handle.cancel()
    assert sim.pending_events() == 2  # lazily-deleted entry not counted
    assert sim.pending == 2


# ----------------------------------------------------------------------
# NetworkStats.by_type (satellite)
# ----------------------------------------------------------------------
def test_by_type_mirrors_by_kind_and_sums_to_total():
    world = build_world(nodes=6, n_relations=3, seed=7)
    stats = Network(world.model).stats
    stats.record(MessageKind.RFB, 100)
    stats.record(MessageKind.RFB, 100)
    stats.record(MessageKind.OFFER, 300)
    assert stats.by_type == {"rfb": 2, "offer": 1}
    assert stats.by_type["no_offer"] == 0  # Counter: absent kinds read 0
    assert sum(stats.by_type.values()) == stats.messages
    assert stats.describe_types() == "offer=1 rfb=2"


# ----------------------------------------------------------------------
# Zero-perturbation across the E1–E3 axes
# ----------------------------------------------------------------------
_SIGNATURE_FIELDS = (
    "found", "plan_cost", "optimization_time", "messages", "iterations",
    "offers", "payments", "cache_hits", "cache_misses", "plan_explain",
)


def _signature(measurement):
    return tuple(getattr(measurement, f) for f in _SIGNATURE_FIELDS)


@pytest.mark.parametrize(
    "joins,nodes,mode",
    [(2, 6, "dp"), (3, 8, "dp"), (3, 8, "idp"), (4, 10, "dp")],
)
def test_tracer_does_not_perturb_results(joins, nodes, mode):
    query = chain_query(joins)

    def run(tracer):
        commodity._offer_ids = itertools.count(1)
        world = build_world(nodes=nodes, n_relations=max(joins, 3), seed=7)
        return _signature(
            run_qt(world, query, mode=mode, offer_cache=OfferCache(),
                   tracer=tracer)
        )

    baseline = run(None)
    assert run(Tracer(enabled=False)) == baseline
    assert run(Tracer()) == baseline


def test_disabled_tracer_leaves_telemetry_unset():
    world = build_world(nodes=6, n_relations=3, seed=7)
    network = Network(world.model)
    network.attach_tracer(Tracer(enabled=False))
    from repro.trading import BuyerPlanGenerator, QueryTrader

    trader = QueryTrader(
        "client", world.seller_agents(), network,
        BuyerPlanGenerator(world.builder, "client"),
    )
    result = trader.optimize(chain_query(3))
    assert result.found
    assert result.telemetry is None


# ----------------------------------------------------------------------
# Deterministic export: run-vs-run byte-identity
# ----------------------------------------------------------------------
def _traced_jsonl() -> str:
    commodity._offer_ids = itertools.count(1)
    world = build_world(nodes=8, n_relations=4, fragments=3, seed=7)
    tracer = Tracer()
    m = run_qt(world, chain_query(3), offer_cache=OfferCache(), tracer=tracer)
    assert m.found
    return "\n".join(jsonl_lines(tracer.records))


def test_jsonl_byte_identical_across_runs():
    assert _traced_jsonl() == _traced_jsonl()


def test_deterministic_export_resequences_and_drops_wall_fields():
    tracer = Tracer(sim=_FakeSim())
    tracer.event("earlier.trade", "trading")
    with tracer.span("round", "trading"):
        tracer.event("cache.miss", "cache")
    # Export one trade's slice of a longer-lived tracer.
    lines = list(jsonl_lines(tracer.records[1:]))
    assert len(lines) == 2
    row, child = (json.loads(line) for line in lines)
    assert row["name"] == "round"
    assert row["seq"] == 0 and row["span_id"] == 0  # re-sequenced
    assert child["parent_id"] == 0  # parents follow the remap
    assert "wall_start" not in row and "wall_ms" not in row


# ----------------------------------------------------------------------
# Telemetry fidelity
# ----------------------------------------------------------------------
def test_telemetry_reconciles_with_network_and_cache_stats():
    world = build_world(nodes=8, n_relations=4, seed=7)
    tracer = Tracer()
    cache = OfferCache()
    m = run_qt(world, chain_query(3), offer_cache=cache, tracer=tracer)
    assert m.found
    telemetry = [r for r in tracer.records if r.name == "trade.optimize"]
    assert len(telemetry) == 1

    metrics = MetricsRegistry.from_records(tracer.records)
    assert metrics.total("messages_total") == m.messages
    assert metrics.total("cache_total") == m.cache_hits + m.cache_misses
    assert (
        sum(v for k, v in metrics.series("cache_total").items()
            if ("outcome", "hit") in k)
        == m.cache_hits
    )
    # spans land in the phase histogram with fixed buckets
    hist = metrics.histogram("phase_sim_seconds", phase="trade.round")
    assert hist is not None and hist.count == m.iterations


def test_run_telemetry_attached_to_result():
    world = build_world(nodes=8, n_relations=4, seed=7)
    network = Network(world.model)
    tracer = Tracer()
    network.attach_tracer(tracer)
    from repro.trading import BuyerPlanGenerator, QueryTrader

    trader = QueryTrader(
        "client", world.seller_agents(), network,
        BuyerPlanGenerator(world.builder, "client"),
    )
    result = trader.optimize(chain_query(3))
    assert result.found
    telemetry = result.telemetry
    assert isinstance(telemetry, RunTelemetry)
    assert telemetry.spans > 0 and telemetry.events > 0
    assert telemetry.metrics.total("messages_total") == result.messages.messages
    rates = telemetry.cache_hit_rate_by_site
    assert rates and all(0.0 <= rate <= 1.0 for rate in rates.values())
    dumped = json.dumps(telemetry.to_dict(), sort_keys=True)
    assert json.loads(dumped)["spans"] == telemetry.spans


def test_faulty_run_emits_fault_events():
    world = build_world(nodes=8, n_relations=4, seed=7)
    plan = FaultPlan(
        default_link=LinkFaults(
            drop_rate=0.15, duplicate_rate=0.1,
            delay_spike_rate=0.1, delay_spike_seconds=0.2,
        ),
        seed=11,
    )
    tracer = Tracer()
    m = run_qt(world, chain_query(3), fault_plan=plan, tracer=tracer)
    drops = [r for r in tracer.records if r.name == "fault.drop"]
    dups = [r for r in tracer.records if r.name == "fault.duplicate"]
    assert len(drops) == m.dropped
    assert len(dups) == m.duplicated
    assert all(r.args["reason"] in
               ("link", "sender_down", "recipient_down") for r in drops)
    metrics = MetricsRegistry.from_records(tracer.records)
    assert metrics.total("faults_total") == len(drops) + len(dups) + sum(
        1 for r in tracer.records if r.name == "fault.delay_spike"
    )


# ----------------------------------------------------------------------
# Metrics registry unit behavior
# ----------------------------------------------------------------------
def test_metrics_registry_basics():
    registry = MetricsRegistry()
    registry.inc("hits", site="b")
    registry.inc("hits", site="a", amount=2)
    assert registry.counter("hits", site="a") == 2
    assert registry.total("hits") == 3
    registry.add("seconds", 1.5, site="a")
    registry.add("seconds", 0.5, site="a")
    assert registry.sum_of("seconds", site="a") == 2.0
    registry.gauge_set("queue", 5)
    registry.gauge_set("queue", 3)
    assert registry.gauge("queue") == (3, 5)  # last, max
    registry.observe("latency", 0.002)
    registry.observe("latency", 99.0)  # beyond last boundary -> +inf bucket
    hist = registry.histogram("latency")
    assert hist.count == 2 and hist.counts[-1] == 1
    out = registry.to_dict()
    assert list(out["counters"]["hits"]) == ["site=a", "site=b"]  # sorted


def test_histogram_boundary_values_are_le_inclusive():
    # Prometheus `le` semantics: a value exactly on a bucket boundary
    # belongs to that bucket, not the next one.
    registry = MetricsRegistry()
    registry.observe("x", 0.1, boundaries=(0.1, 1.0))
    hist = registry.histogram("x")
    assert hist.counts == [1, 0, 0]
    registry.observe("x", 1.0, boundaries=(0.1, 1.0))
    assert hist.counts == [1, 1, 0]


def test_histogram_plus_inf_bucket_accounting():
    registry = MetricsRegistry()
    boundaries = (0.5, 2.0)
    for value in (0.1, 1.0, 100.0, 2.0000001):
        registry.observe("x", value, boundaries=boundaries)
    hist = registry.histogram("x")
    assert hist.counts == [1, 1, 2]  # two beyond the last boundary
    assert hist.count == sum(hist.counts)
    assert hist.sum == pytest.approx(103.1000001)
    dumped = hist.to_dict()
    assert len(dumped["counts"]) == len(dumped["boundaries"]) + 1


def test_histogram_label_order_is_canonical():
    # The same label set in any keyword order is one series, and
    # rendered rows sort keys alphabetically.
    registry = MetricsRegistry()
    registry.observe("x", 0.1, site="a", phase="p")
    registry.observe("x", 0.2, phase="p", site="a")
    assert registry.histogram("x", phase="p", site="a").count == 2
    out = registry.to_dict()
    assert list(out["histograms"]["x"]) == ["phase=p,site=a"]


def test_bench_envelope_tolerates_no_git(monkeypatch):
    import subprocess as subprocess_module

    from repro.obs import history as history_module

    def no_git(*args, **kwargs):
        raise FileNotFoundError("git not installed")

    monkeypatch.setattr(history_module.subprocess, "run", no_git)
    monkeypatch.delenv("GITHUB_SHA", raising=False)
    envelope = history_module.run_envelope()
    assert envelope["git_sha"] is None  # null, not an exception
    # The CI fallback still wins when the environment provides it.
    monkeypatch.setenv("GITHUB_SHA", "abcdef1234567890")
    assert history_module.run_envelope()["git_sha"] == "abcdef123456"
    # A subprocess-layer failure (e.g. timeout) degrades the same way.
    def hangs(*args, **kwargs):
        raise subprocess_module.TimeoutExpired(cmd="git", timeout=5)

    monkeypatch.setattr(history_module.subprocess, "run", hangs)
    monkeypatch.delenv("GITHUB_SHA", raising=False)
    assert history_module.run_envelope()["git_sha"] is None


# ----------------------------------------------------------------------
# Exporters and report
# ----------------------------------------------------------------------
def _small_trace() -> Tracer:
    world = build_world(nodes=6, n_relations=3, seed=7)
    tracer = Tracer()
    m = run_qt(world, chain_query(3), offer_cache=OfferCache(), tracer=tracer)
    assert m.found
    return tracer


def test_chrome_export_roundtrip(tmp_path):
    tracer = _small_trace()
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer.records, str(path))
    data = json.loads(path.read_text())
    assert data["traceEvents"]
    phases = {e["ph"] for e in data["traceEvents"]}
    assert {"X", "i", "M"} <= phases
    rows = load_trace(str(path))
    assert sum(1 for r in rows if r["kind"] == "span") == sum(
        1 for r in tracer.records if r.kind == "span"
    )


def test_jsonl_export_roundtrip_and_report(tmp_path):
    tracer = _small_trace()
    path = tmp_path / "trace.jsonl"
    write_jsonl(tracer.records, str(path))
    rows = load_trace(str(path))
    assert rows
    summary = summarize(rows)
    assert summary["messages"]["rfb"]["count"] > 0
    assert "trade.optimize" in summary["phases"]
    report = render_report(rows, top=3)
    assert "phases (by total simulated time):" in report
    assert "messages by type:" in report
    assert "offer cache by site:" in report


def test_render_timeline_has_site_lanes():
    tracer = _small_trace()
    art = render_timeline(tracer.records)
    assert "client" in art and "node0" in art
    assert "round start" in art or "|" in art


def test_chrome_events_carry_wall_ms():
    tracer = _small_trace()
    events = chrome_trace_events(tracer.records)
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all("wall_ms" in e["args"] for e in spans)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_cli_trade_trace_and_report(tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "out.jsonl"
    code = main([
        "trade", "SELECT * FROM R0 r0, R1 r1 WHERE r0.id = r1.ref0",
        "--nodes", "6", "--relations", "3",
        "--trace", str(trace_path), "--timeline",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "messages by type:" in out
    assert "negotiation timeline" in out
    assert trace_path.exists()
    assert main(["report", str(trace_path), "--top", "3"]) == 0
    assert "slowest spans" in capsys.readouterr().out
