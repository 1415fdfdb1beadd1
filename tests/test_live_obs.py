"""Live serving observability: sketches, registries, q-error, Prometheus.

The determinism contract under test: with live observability enabled,
the SiteStatsRegistry and q-error snapshots are byte-identical across
repeated same-seed broker runs at the default worker count — session
completion interleaving must not leak into the deterministic surfaces.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.broker import (
    AdmissionConfig,
    BrokerService,
    Router,
    SessionBudget,
    start_server,
)
from repro.cli import main
from repro.mqo import MQOConfig
from repro.net import Network
from repro.obs import NegotiationLedger
from repro.obs.live import (
    EventRing,
    LiveObsConfig,
    PromParseError,
    QuantileSketch,
    SLOTracker,
    parse_prometheus_text,
)
from repro.obs.live.qerror import qerror
from repro.obs.live.registry import SiteStatsRegistry, TradeFacts
from repro.obs.live.slo import EPOCH_SESSIONS, SHED_BUDGET
from repro.workload import (
    BurstConfig,
    OverlapConfig,
    build_bursty_workload,
    build_overlapping_analytics,
)
from tests.conftest import current_active_samples
from tests.test_golden_traces import CASES as GOLDEN_CASES

WORLD = dict(nodes=4, n_relations=3, rows=1_000, fragments=2, replicas=1, seed=7)


def _arrivals():
    return build_bursty_workload(BurstConfig(
        tenants=2, bursts=2, burst_size=3, available_relations=3, seed=11
    ))


def _run_broker() -> tuple[str, BrokerService]:
    """One drained live-obs broker run; returns (snapshot json, service).

    Only s1 asks for a trace: it is the critical-path sample.  The
    caller owns closing the service.
    """
    service = BrokerService(
        world_config=WORLD,
        live_obs=LiveObsConfig(qerror_sample_every=2),
    )
    for n, arrival in enumerate(_arrivals()):
        service.submit(service.parse_spec(
            {"sql": arrival.query.sql(), "tenant": arrival.tenant,
             "trace": n == 0}
        ))
    assert service.drain(timeout=120.0)
    return json.dumps(service.live.snapshot(), sort_keys=True), service


def _sketch_mean(sketch: dict) -> float:
    """A served sketch's mean, from its exact ``sum`` and ``count``."""
    return round(sketch["sum"] / sketch["count"], 9) if sketch["count"] else 0.0


def _sketch_quantile(sketch: dict, q: float) -> float:
    """A served sketch's nearest-rank quantile, from its bucket counts."""
    if not sketch["count"]:
        return 0.0
    target = max(1, math.ceil(q * sketch["count"]))
    cumulative = 0
    for index in sorted(sketch["buckets"], key=int):
        cumulative += sketch["buckets"][index]
        if cumulative >= target:
            return round(QuantileSketch.bucket_upper(int(index)), 12)
    raise AssertionError(f"bucket counts do not reach count: {sketch}")


@pytest.fixture(scope="module")
def broker_runs():
    """Snapshots of two runs, plus the second run's live service."""
    snap_a, service_a = _run_broker()
    service_a.close()
    snap_b, service = _run_broker()
    yield {"sim_a": snap_a, "sim_b": snap_b, "service": service}
    service.close()


# ----------------------------------------------------------------------
class TestQuantileSketch:
    def test_order_independent_bytes(self):
        values = [0.003, 1.7, 0.5, 0.003, 42.0, 1e-12, 0.25, 7.5]
        forward, backward = QuantileSketch(), QuantileSketch()
        for v in values:
            forward.add(v)
        for v in reversed(values):
            backward.add(v)
        assert json.dumps(forward.to_dict()) == json.dumps(backward.to_dict())

    def test_quantile_relative_error(self):
        sketch = QuantileSketch()
        for i in range(1, 101):
            sketch.add(i / 10.0)
        median = sketch.quantile(0.5)
        assert median == pytest.approx(5.0, rel=0.06)  # GAMMA - 1 = 5%
        assert sketch.quantile(1.0) == pytest.approx(10.0, rel=0.06)

    def test_exact_integer_sum_and_stats(self):
        sketch = QuantileSketch()
        for _ in range(10):
            sketch.add(0.1)  # float-sum would drift; integer units do not
        assert sketch.sum == 1.0
        assert sketch.mean == 0.1
        assert sketch.min == 0.1 and sketch.max == 0.1

    def test_negative_values_clamp_to_zero(self):
        sketch = QuantileSketch()
        sketch.add(-5.0)
        assert sketch.count == 1
        assert sketch.min == 0.0
        assert sketch.quantile(0.5) <= 1e-9

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0
        assert sketch.to_dict()["count"] == 0


# ----------------------------------------------------------------------
class TestRegistryDeterminism:
    def test_same_seed_runs_byte_identical(self, broker_runs):
        assert broker_runs["sim_a"] == broker_runs["sim_b"]

    def test_registry_observes_all_sessions(self, broker_runs):
        snapshot = json.loads(broker_runs["sim_a"])
        sites = snapshot["sites"]
        assert sites["sessions"] == len(_arrivals())
        assert sites["rounds"] > 0
        assert sites["rfb_fanout"] > 0
        assert 0.0 < sites["response_ratio"] <= 1.0
        # Per-site invariants: a win implies a received offer, and
        # decided offers cannot exceed received ones.
        for stats in sites["sites"].values():
            assert stats["wins"] + stats["losses"] <= stats["offers_received"]
            assert stats["offers_received"] <= stats["offers_priced"]
            assert stats["settled"]["count"] == stats["wins"]

    def test_effort_is_nominal_and_on_the_snapshot_surface(self, broker_runs):
        # Regression for the racy effort sketch: per-offer pricing
        # effort is now the *nominal* cost-model figure stamped on the
        # ledger's priced nodes (enumerated plans x seconds-per-plan),
        # independent of cache interleaving — so it lives on the
        # byte-identity snapshot surface (the same-seed identity test
        # above therefore pins it too), and
        # any site that priced an offer shows non-zero effort.
        snapshot = json.loads(broker_runs["sim_a"])
        priced_sites = 0
        for stats in snapshot["sites"]["sites"].values():
            assert "effort" in stats
            if stats["offers_priced"] > 0:
                priced_sites += 1
                assert 0 < stats["effort"]["count"] <= stats["offers_priced"]
                assert stats["effort"]["sum"] > 0.0
        assert priced_sites > 0
        operational = broker_runs["service"].live.registry.operational()
        assert all("effort_mean_s" in v for v in operational.values())

# ----------------------------------------------------------------------
def _drained_snapshot(
    world: dict, arrivals, timeout: float | None = None, **service_kwargs
) -> tuple[str, BrokerService]:
    """The sha256 of one drained deck's live snapshot (``sites`` and
    ``qerror``), and the closed service for the deck's own checks."""
    service = BrokerService(
        world_config=world,
        live_obs=LiveObsConfig(qerror_sample_every=2),
        **service_kwargs,
    )
    try:
        for arrival in arrivals:
            payload = {"sql": arrival.query.sql(), "tenant": arrival.tenant}
            if timeout is not None:
                payload["timeout"] = timeout
            service.submit(service.parse_spec(payload))
        assert service.drain(timeout=120.0)
        text = json.dumps(service.live.snapshot(), sort_keys=True)
    finally:
        service.close()
    return hashlib.sha256(text.encode()).hexdigest(), service


class TestSnapshotPins:
    """Live snapshots pinned as bytes, so a change to how the registry
    learns its counts cannot move a count unnoticed."""

    def test_burst_deck(self):
        digest, _ = _drained_snapshot(WORLD, _arrivals())
        assert digest == (
            "aed16bf640dc14849f6a84b2ba6119c2df07c52309ed052080a7effe2d5d89b0"
        )

    def test_burst_deck_under_mqo(self):
        # The burst deck shares no join interior, so its one epoch seeds
        # nothing and the snapshot is the MQO-off one.
        digest, _ = _drained_snapshot(
            WORLD, _arrivals(), mqo=MQOConfig(epoch_size=6, epoch_window=5.0)
        )
        assert digest == (
            "aed16bf640dc14849f6a84b2ba6119c2df07c52309ed052080a7effe2d5d89b0"
        )

    def test_seeded_mqo_deck(self):
        # Seed offers reach the buyer without being priced in the
        # session: they count as priced and received at their seller.
        arrivals = build_overlapping_analytics(
            OverlapConfig(tenants=4, queries_per_tenant=2, seed=7)
        )
        digest, service = _drained_snapshot(
            dict(nodes=8, n_relations=6, rows=10_000, fragments=1,
                 replicas=2, seed=7),
            arrivals,
            mqo=MQOConfig(epoch_size=len(arrivals), epoch_window=5.0),
            admission=AdmissionConfig(
                max_concurrent=4, queue_limit=64,
                budget=SessionBudget(rounds=6),
            ),
        )
        assert sum(1 for s in service.sessions() if s.seed_offers) == 7
        assert digest == (
            "ca1ef165f2235c9813a92b40f3ceb6a7e99868fec43a1bbf3e6e593654343f91"
        )

    def test_deadline_deck_prices_more_than_it_receives(self):
        # Round deadlines close before every offer lands.
        digest, service = _drained_snapshot(WORLD, _arrivals(), timeout=0.01)
        sites = service.live.snapshot()["sites"]["sites"]
        priced = sum(stats["offers_priced"] for stats in sites.values())
        received = sum(stats["offers_received"] for stats in sites.values())
        assert (priced, received) == (288, 96)
        assert digest == (
            "62c26ad76008e0ef50b77ef607b9cf2561af34f1bf2413f3e1a05996441166fc"
        )


# ----------------------------------------------------------------------
def _ledger_fold(records) -> dict:
    """The registry snapshot as it was folded from a trace: the
    decision ledger's offer nodes plus the ``seller.compute``,
    ``rfb.fanout`` and ``protocol.solicit`` spans (the reference the
    :class:`TradeFacts` sink replaced)."""
    registry = SiteStatsRegistry()
    ledger = NegotiationLedger.from_records(records)
    registry.sessions += 1
    registry.rounds += len(ledger.rounds)
    for offer_id in sorted(ledger.offers):
        node = ledger.offers[offer_id]
        if not node["seller"]:
            continue
        stats = registry._site(node["seller"])
        stats.offers_priced += 1
        if node["total_time"] is not None:
            stats.latency.add(float(node["total_time"]))
        if node["effort"] is not None:
            stats.effort.add(float(node["effort"]))
        if node["received"]:
            stats.offers_received += 1
            if node["value"] is not None:
                stats.valuation.add(float(node["value"]))
        if node["awarded"]:
            stats.wins += 1
            price = node["price"] if node["price"] is not None else node["money"]
            if price is not None:
                stats.settled.add(float(price))
        elif node["received"]:
            stats.losses += 1
    for record in records:
        if record.kind != "span":
            continue
        args = record.args or {}
        if record.name == "seller.compute" and record.site:
            stats = registry._site(record.site)
            stats.rfbs_handled += 1
            if args.get("offers"):
                stats.rfbs_answered += 1
        elif record.name == "rfb.fanout":
            registry.rfb_fanout += int(args.get("sellers", 0))
        elif record.name == "protocol.solicit":
            registry.rfb_responded += int(args.get("responded", 0))
    return registry.snapshot()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_fact_sink_matches_the_ledger_fold(case, monkeypatch):
    """On every golden trace, faults included, the registry fed by the
    trade's facts equals the one folded from its ledger and spans."""
    sinks: dict[int, TradeFacts] = {}
    attach = Network.attach_tracer

    def attach_with_sink(network, tracer):
        attach(network, tracer)
        network.facts = sinks.setdefault(id(tracer), TradeFacts())

    monkeypatch.setattr(Network, "attach_tracer", attach_with_sink)
    records = GOLDEN_CASES[case]()
    assert len(sinks) == 1
    registry = SiteStatsRegistry()
    registry.observe_session(sinks.popitem()[1])
    fed = registry.snapshot()
    assert fed["sites"] and fed["rfb_fanout"] > 0
    assert json.dumps(fed, sort_keys=True) == json.dumps(
        _ledger_fold(records), sort_keys=True
    )


# ----------------------------------------------------------------------
class TestQErrorObservatory:
    def test_qerror_definition(self):
        assert qerror(10, 100) == 10.0
        assert qerror(100, 10) == 10.0
        assert qerror(5, 5) == 1.0
        assert qerror(0, 0) == 1.0   # both empty: perfect estimate
        assert qerror(0, 50) > 1.0   # estimated empty, observed rows

    def test_sampling_is_deterministic(self, broker_runs):
        # The broker mints s1, s2, ...; at --qerror-sample 2 the hub
        # re-executes every session whose number is even.
        service = broker_runs["service"]
        minted = [f"s{n}" for n in range(1, len(_arrivals()) + 1)]
        assert {s.session_id for s in service.sessions()} == set(minted)
        observatory = service.live.qerror
        picks = [sid for sid in minted if observatory.should_sample(sid)]
        assert picks == ["s2", "s4", "s6"]
        sampled = [
            e["session"] for e in service.live.events.since(0)["events"]
            if e["kind"] == "session.terminal" and e.get("sampled")
        ]
        assert sorted(sampled, key=lambda sid: int(sid[1:])) == picks
        assert observatory.snapshot()["sampled_sessions"] == len(picks)

    def test_qerror_snapshot_deterministic_across_runs(self, broker_runs):
        qerr_a = json.loads(broker_runs["sim_a"])["qerror"]
        qerr_b = json.loads(broker_runs["sim_b"])["qerror"]
        assert qerr_a == qerr_b
        assert qerr_a["sampled_sessions"] > 0
        assert qerr_a["nodes_observed"] > 0
        assert qerr_a["cells"]

    def test_cells_and_worst_offenders(self, broker_runs):
        observatory = broker_runs["service"].live.qerror
        snapshot = observatory.snapshot()
        for key, cell in snapshot["cells"].items():
            site, _, size = key.rpartition("|")
            assert site and size.isdigit()
            assert cell["count"] >= 1
            assert cell["p90"] >= cell["p50"] >= 1.0 or cell["p50"] >= 1.0
        offenders = observatory.worst_offenders(3)
        assert offenders
        p90s = [entry["p90"] for entry in offenders]
        assert p90s == sorted(p90s, reverse=True)

# ----------------------------------------------------------------------
class TestPrometheusExposition:
    def test_prom_payload_parses_and_has_required_series(self, broker_runs):
        text = broker_runs["service"].prom_payload()
        snap = parse_prometheus_text(text)
        for family in (
            "repro_broker_uptime_seconds",
            "repro_broker_admitted_total",
            "repro_broker_session_states",
            "repro_live_sessions_observed_total",
            "repro_slo_shed_ratio",
            "repro_qerror_bucket",
        ):
            assert any(name == family for name, _ in snap.samples), family
        # Histogram series must carry the implicit +Inf bucket.
        assert any(
            name == "repro_qerror_bucket"
            and dict(labels).get("le") == "+Inf"
            for name, labels in snap.samples
        )

    def test_prom_agrees_with_json_rollup(self, broker_runs):
        service = broker_runs["service"]
        payload = service.metrics_payload()
        snap = parse_prometheus_text(service.prom_payload())
        assert snap.value("repro_broker_admitted_total") == payload[
            "admitted_total"
        ]
        assert snap.value("repro_broker_shed_total") == payload["shed_total"]
        assert snap.value("repro_broker_completed_total") == payload[
            "completed_total"
        ]
        assert snap.value("repro_broker_sessions_active") == payload[
            "active_sessions"
        ]
        for state, count in payload["states"].items():
            assert snap.value(
                "repro_broker_session_states", state=state
            ) == count, state
        for quantile in ("p50", "p99"):
            assert snap.value(
                "repro_broker_latency_quantile_ms", quantile=quantile
            ) == payload["latency_ms"][quantile]
        assert snap.value("repro_broker_sessions_queued") == payload[
            "queue_depth"
        ]
        for key in ("active_sessions_peak", "queue_depth_peak"):
            assert snap.value(f"repro_broker_{key}") == payload[key], key
        for outcome in ("hits", "misses", "intern_hits"):
            assert snap.value(
                "repro_broker_cache_lookups_total", outcome=outcome
            ) == payload["cache"][outcome]
        assert snap.value("repro_broker_cache_hit_rate") == payload["cache"][
            "hit_rate"
        ]
        # No family without a JSON field: the clock is not reported.
        assert not snap.series("repro_broker_info")

    def test_prom_site_and_phase_families_agree_with_sites(self, broker_runs):
        service = broker_runs["service"]
        status, payload = Router(service).dispatch("GET", "/sites")
        assert status == 200
        snap = parse_prometheus_text(service.prom_payload())
        sites = payload["sites"]["sites"]
        assert sites
        for site, stats in sites.items():
            extras = payload["operational"][site]
            expected = {
                "win_rate": stats["win_rate"],
                "response_rate": stats["response_rate"],
                "settled_price_mean": _sketch_mean(stats["settled"]),
                "offer_latency_p95_seconds": _sketch_quantile(
                    stats["latency"], 0.95
                ),
                "pricing_effort_mean_seconds": extras["effort_mean_s"],
                "critical_seconds": extras["critical_seconds"],
            }
            for family, value in expected.items():
                assert snap.value(f"repro_site_{family}", site=site) == value, (
                    site, family,
                )
        # Phases are not per-site, so /sites does not carry them: they
        # are checked against the registry's live phase sketches.
        phases = service.live.registry.phase_latency
        assert phases
        for phase, sketch in phases.items():
            assert snap.value(
                "repro_critpath_phase_seconds_mean", phase=phase
            ) == round(sketch.mean, 9), phase
            assert snap.value(
                "repro_critpath_phase_seconds_p95", phase=phase
            ) == sketch.quantile(0.95), phase
        for family in (
            "repro_site_win_rate",
            "repro_site_critical_seconds",
        ):
            assert {dict(labels)["site"] for labels in snap.series(family)} == set(
                sites
            ), family

    def test_json_rollup_shape(self, broker_runs):
        payload = broker_runs["service"].metrics_payload()
        assert payload["uptime_s"] > 0
        assert "clock" not in payload
        assert set(payload["states"]) == {
            "active", "queued", "shed", "completed", "degraded", "failed"
        }
        assert payload["states"]["active"] == 0  # drained
        assert payload["states"]["completed"] + payload["states"][
            "degraded"
        ] == len(_arrivals())
        assert payload["completed_total"] == len(_arrivals())

    def test_drained_broker_has_one_latency_p50_and_no_active(
        self, broker_runs
    ):
        service = broker_runs["service"]
        payload = service.metrics_payload()
        snap = parse_prometheus_text(service.prom_payload())

        def p50_paths(node: dict, path: tuple = ()):
            for key, value in node.items():
                # An SLO epoch keeps quantiles of its own session window.
                if isinstance(value, dict) and key not in (
                    "epoch", "last_epoch"
                ):
                    yield from p50_paths(value, path + (key,))
                elif "p50" in key:
                    yield path + (key,)

        assert list(p50_paths(payload)) == [("latency_ms", "p50")]
        assert payload["latency_ms"]["p50"] == snap.value(
            "repro_broker_latency_quantile_ms", quantile="p50"
        )
        current = current_active_samples(snap)
        assert current and not any(current.values()), current
        for family in (
            "repro_broker_active_sessions",
            "repro_broker_queue_depth",
            "repro_slo_latency_seconds",
        ):
            assert family not in snap.families, family

    def test_parser_rejects_malformed_text(self):
        with pytest.raises(PromParseError):
            parse_prometheus_text("# TYPE x bogus\nx 1\n")
        with pytest.raises(PromParseError):  # sample without a family
            parse_prometheus_text("orphan_metric 1\n")
        with pytest.raises(PromParseError):  # duplicate series
            parse_prometheus_text(
                "# TYPE dup counter\ndup_total 1\ndup_total 2\n"
            )
        with pytest.raises(PromParseError):  # non-cumulative buckets
            parse_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\n'
                'h_bucket{le="+Inf"} 5\nh_sum 2\nh_count 5\n'
            )
        with pytest.raises(PromParseError):  # missing +Inf bucket
            parse_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 5\nh_sum 2\nh_count 5\n'
            )

    def test_counter_monotonicity_across_scrapes(self, broker_runs):
        service = broker_runs["service"]
        first = parse_prometheus_text(service.prom_payload())
        second = parse_prometheus_text(service.prom_payload())
        for (name, labels), value in first.samples.items():
            if name.endswith("_total") or name.endswith(("_count", "_sum")):
                later = second.samples.get((name, labels))
                assert later is not None and later >= value, (name, labels)


# ----------------------------------------------------------------------
class TestSitesCommand:
    def test_sites_prints_each_site_from_the_payload(self, broker_runs, capsys):
        service = broker_runs["service"]
        server = start_server(service, port=0)
        try:
            assert main(["sites", "--url", server.url]) == 0
        finally:
            # Stop the listener only: the module's service stays open.
            server.shutdown()
            server.server_close()
        lines = capsys.readouterr().out.splitlines()
        payload = service.sites_payload()
        registry = payload["sites"]
        assert lines[0] == (
            f"broker live registry: {registry['sessions']} sessions, "
            f"{registry['rounds']} rounds, "
            f"rfb fanout {registry['rfb_fanout']} "
            f"(response ratio {registry['response_ratio']:.1%})"
        )
        assert lines[1] == (
            "live per-site statistics (broker live-obs registry):"
        )
        assert [cell.strip() for cell in lines[2].split("|")] == [
            "site", "wins", "losses", "win rate", "mean settled",
            "p95 offer latency", "q-error p90",
        ]
        cells = payload["qerror"]["cells"]
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in lines[4 : 4 + len(registry["sites"])]
        ]
        expected = []
        for site, stats in sorted(registry["sites"].items()):
            p90s = [c["p90"] for key, c in cells.items()
                    if key.rpartition("|")[0] == site]
            expected.append([
                site,
                str(stats["wins"]),
                str(stats["losses"]),
                f"{stats['win_rate']:.1%}",
                format(_sketch_mean(stats["settled"]), ".4g"),
                format(_sketch_quantile(stats["latency"], 0.95), ".4g"),
                format(max(p90s), ".4g") if p90s else "-",
            ])
        assert rows == expected
        offenders = payload["worst_estimators"]
        assert offenders
        tail = lines[4 + len(expected):]
        assert tail[:2] == ["", "worst estimator buckets (by q-error p90):"]
        assert tail[2:] == [
            f"  {e['site']} x{e['relations']} relations: p90={e['p90']:g} "
            f"mean={e['mean']:g} n={e['count']}"
            for e in offenders
        ]


# ----------------------------------------------------------------------
class TestEventRing:
    def test_cursor_paging(self):
        ring = EventRing(capacity=10)
        for i in range(5):
            ring.append("tick", n=i)
        page = ring.since(0, limit=3)
        assert [e["id"] for e in page["events"]] == [1, 2, 3]
        assert page["cursor"] == 3 and page["dropped"] == 0
        rest = ring.since(page["cursor"])
        assert [e["id"] for e in rest["events"]] == [4, 5]
        assert ring.since(rest["cursor"])["events"] == []

    def test_dropped_accounting_on_overflow(self):
        ring = EventRing(capacity=3)
        for i in range(10):
            ring.append("tick", n=i)
        page = ring.since(0)
        assert [e["id"] for e in page["events"]] == [8, 9, 10]
        assert page["dropped"] == 7

    def test_wraparound_gap_marker(self):
        # Fill past capacity so the ring evicts its oldest entries.
        ring = EventRing(capacity=4)
        for i in range(10):
            ring.append("tick", n=i)
        # A cursor that fell past the ring's tail: events 1..6 are gone
        # (only 7..10 retained), so the resume is flagged non-contiguous.
        page = ring.since(cursor=2)
        assert [e["id"] for e in page["events"]] == [7, 8, 9, 10]
        assert page["dropped"] == 4  # events 3..6 evicted before catchup
        assert page["gap"] is True
        # A live cursor inside the retained window: contiguous, no gap.
        page = ring.since(cursor=8)
        assert [e["id"] for e in page["events"]] == [9, 10]
        assert page["dropped"] == 0
        assert page["gap"] is False
        # Fully caught up: empty page, cursor stable, still no gap.
        page = ring.since(cursor=page["cursor"])
        assert page["events"] == [] and page["gap"] is False
        assert page["cursor"] == 10

    def test_cursor_zero_on_overflowed_ring_reports_gap(self):
        ring = EventRing(capacity=2)
        for i in range(5):
            ring.append("tick", n=i)
        page = ring.since(cursor=0)
        assert [e["id"] for e in page["events"]] == [4, 5]
        assert page["dropped"] == 3
        assert page["gap"] is True

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventRing(capacity=0)


# ----------------------------------------------------------------------
class TestSLOTracker:
    def test_budgets_and_epoch_roll(self):
        tracker = SLOTracker()
        for _ in range(EPOCH_SESSIONS - 1):
            tracker.observe_completion(0.010, degraded=False)
        tracker.observe_shed()  # rolls the first epoch
        tracker.observe_completion(0.020, degraded=True)
        # The run ratios are judged on the totals the broker hands in.
        summary = tracker.summary(completed=EPOCH_SESSIONS, shed=1, degraded=1)
        assert summary["shed_within_budget"]
        assert summary["degraded_within_budget"]
        assert summary["last_epoch"]["latency_p50_s"] > 0
        assert summary["last_epoch"]["sessions"] == EPOCH_SESSIONS
        assert summary["epoch"]["epoch"] == 1
        assert summary["epoch"]["completed"] == 1

    def test_budget_breach_flags(self):
        tracker = SLOTracker()
        tracker.observe_completion(0.01, degraded=False)
        tracker.observe_shed()
        summary = tracker.summary(completed=1, shed=1, degraded=0)
        assert summary["shed_ratio"] > SHED_BUDGET
        assert not summary["shed_within_budget"]


# ----------------------------------------------------------------------
class TestRouterEndpoints:
    def test_prom_endpoint_returns_text(self, broker_runs):
        router = Router(broker_runs["service"])
        status, payload = router.dispatch("GET", "/metrics/prom")
        assert status == 200 and isinstance(payload, str)
        parse_prometheus_text(payload)

    def test_sites_endpoint_payload(self, broker_runs):
        router = Router(broker_runs["service"])
        status, payload = router.dispatch("GET", "/sites")
        assert status == 200
        assert payload["sites"]["sessions"] == len(_arrivals())
        assert payload["worst_estimators"]
        assert payload["qerror_failures"] == 0
        assert payload["operational"]

    def test_live_obs_traces_only_sessions_that_ask(self, broker_runs):
        """The hub learns from the trade's facts, not a trace: a submit
        without "trace" runs untraced under live observability, and the
        one that asked is the critical-path figures' only sample."""
        service = broker_runs["service"]
        router = Router(service)
        for path in ("explain", "critpath"):
            status, payload = router.dispatch("GET", f"/sessions/s2/{path}")
            assert status == 409 and "trace" in payload["error"], path
        status, payload = router.dispatch("GET", "/sessions/s1/explain")
        assert status == 200 and payload["commodities"]
        status, payload = router.dispatch("GET", "/sessions/s1/critpath")
        assert status == 200 and payload["total"] > 0.0
        assert service.live.registry.critical_summary()["sessions"] == 1
        assert service.live.registry.sessions == len(_arrivals())

    def test_sites_is_never_behind_metrics(self):
        """The hub folds a session in, q-error sample included, before
        the broker counts it: at every ``completed_total`` value,
        ``/sites`` has already seen that many sessions."""
        service = BrokerService(
            world_config=WORLD, live_obs=LiveObsConfig(qerror_sample_every=1)
        )
        seen = []
        inc = service.metrics.inc

        def counting_inc(name, amount=1, **labels):
            inc(name, amount, **labels)
            if name in (
                "broker.sessions_completed",
                "broker.sessions_degraded",
                "broker.sessions_failed",
            ):
                seen.append((
                    sum(
                        service.metrics.total(f"broker.sessions_{state}")
                        for state in ("completed", "degraded", "failed")
                    ),
                    service.live.registry.sessions,
                    service.live.qerror.snapshot()["sampled_sessions"],
                ))

        service.metrics.inc = counting_inc
        try:
            for arrival in _arrivals():
                service.submit(service.parse_spec(
                    {"sql": arrival.query.sql(), "tenant": arrival.tenant}
                ))
            assert service.drain(timeout=120.0)
        finally:
            service.close()
        assert [completed for completed, _, _ in seen] == list(
            range(1, len(_arrivals()) + 1)
        )
        for completed, sessions, sampled in seen:
            assert sessions >= completed and sampled >= completed, seen
        status, payload = Router(service).dispatch("GET", "/sites")
        assert payload["qerror"]["sampled_sessions"] == len(_arrivals())

    def test_events_endpoint_paging_and_validation(self, broker_runs):
        router = Router(broker_runs["service"])
        status, page = router.dispatch("GET", "/events?since=0&limit=4")
        assert status == 200 and len(page["events"]) == 4
        status, follow = router.dispatch(
            "GET", f"/events?since={page['cursor']}"
        )
        assert status == 200
        assert all(e["id"] > page["cursor"] for e in follow["events"])
        status, error = router.dispatch("GET", "/events?since=banana")
        assert status == 400 and "since" in error["error"]

    def test_live_endpoints_404_when_disabled(self):
        service = BrokerService(world_config=WORLD)
        try:
            router = Router(service)
            for path in ("/sites", "/events"):
                status, payload = router.dispatch("GET", path)
                assert status == 404
                assert "--live-obs" in payload["error"]
            # /metrics/prom stays available — broker families only.
            status, text = router.dispatch("GET", "/metrics/prom")
            assert status == 200
            snap = parse_prometheus_text(text)
            assert snap.value("repro_broker_admitted_total") == 0
            assert not snap.series("repro_live_sessions_observed_total")
        finally:
            service.close()

    def test_drain_is_a_live_obs_barrier(self, broker_runs):
        # A returned drain() means every terminal session is already
        # folded in: the event ring has one submitted + one terminal
        # event per session.
        service = broker_runs["service"]
        events = service.live.events.since(0)["events"]
        kinds = [e["kind"] for e in events]
        assert kinds.count("session.submitted") == len(_arrivals())
        assert kinds.count("session.terminal") == len(_arrivals())
        sampled = [e for e in kinds if e == "session.terminal"]
        assert sampled
