"""Causal stamps + critical-path decomposition: structure, exact timing.

The contract under test (the ``mid``/``parent`` stamps the network
writes on traced records, and ``repro.obs.critpath``):

* the stamps form a causal DAG: every message and round timeout gets a
  fresh id, every send names the delivery or timeout that caused it,
  every fault verdict names its message, and re-issued RFBs descend
  from the timeout that re-issued them; the same seed stamps the same
  bytes on every run;
* the critical path is read off the records' simulated timestamps,
  never rebuilt from transit delays, compute work or deadlines, so its
  total is the simulated optimization time *bitwise*;
* phase attributions tile each round, and rounds tile the session —
  the decomposition never invents or loses simulated time;
* a Chrome trace (microsecond float timestamps) gives the same
  decomposition as the JSONL one, to within float rounding.
"""

from __future__ import annotations

import copy
import itertools
import json
import math

import pytest

import repro.trading.commodity as commodity
from repro.bench.harness import BUYER, build_world, run_qt
from repro.faults import FaultInjector, FaultPlan, ResilientTrader
from repro.net import Network
from repro.obs import (
    CRITPATH_SCHEMA_VERSION,
    PHASES,
    CriticalPath,
    Tracer,
    load_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import NO_PARENT
from repro.trading import BiddingProtocol, BuyerPlanGenerator, QueryTrader
from repro.workload import chain_query
from tests.test_golden_traces import case_fault_lossy


@pytest.fixture(scope="module")
def world():
    return build_world(nodes=6, n_relations=4, fragments=2, replicas=2, seed=7)


def _traced(world, query, *, plan=None, timeout=None):
    """One traced run; returns (measurement, tracer)."""
    commodity._offer_ids = itertools.count(1)
    tracer = Tracer()
    if plan is not None:
        m = run_qt(
            world, query, fault_plan=plan, timeout=timeout, mode="dp",
            offer_cache=None, use_offer_cache=False, tracer=tracer,
        )
    else:
        m = run_qt(
            world, query, mode="dp", offer_cache=None,
            use_offer_cache=False, tracer=tracer,
        )
    assert m.found
    return m, tracer


#: Record args that carry causal stamps: ids and parents, delivery
#: copies and transit delays, and the cause and work of seller compute.
CAUSAL_ARGS = frozenset({"mid", "parent", "copy", "lat", "cause", "work"})


def _stamps(records) -> str:
    """Every record's causal stamps, in record order, as JSON."""
    return json.dumps(
        [
            [r.name, r.site, {k: r.args[k] for k in CAUSAL_ARGS & set(r.args)}]
            for r in records
            if r.args and not CAUSAL_ARGS.isdisjoint(r.args)
        ],
        sort_keys=True,
    )


def _sends(records) -> dict:
    """``msg.send`` records by causal id."""
    return {r.args["mid"]: r for r in records if r.name == "msg.send"}


@pytest.fixture(scope="module")
def lossy_records():
    """Drops, duplicates, delay spikes, silent and deadline-bound rounds."""
    return case_fault_lossy()


def _segment_identity(segment: dict) -> tuple:
    return (
        segment["trade"],
        -1 if segment["round"] is None else segment["round"],
        PHASES.index(segment["phase"]),
        segment["site"] or "",
        segment["link"] or "",
        -1 if segment["mid"] is None else segment["mid"],
        segment["seconds"],
    )


def assert_close_payloads(expected, got, rel_tol=1e-12, path="$"):
    """*got* has *expected*'s structure, every float within *rel_tol*.

    Segments are matched by identity, not rank: two segments whose
    seconds tie in one trace may differ in the last bit in the other.
    """
    if isinstance(expected, dict):
        assert isinstance(got, dict) and got.keys() == expected.keys(), path
        for key in expected:
            left, right = expected[key], got[key]
            if key == "segments" and isinstance(left, list):
                left = sorted(left, key=_segment_identity)
                right = sorted(right, key=_segment_identity)
            assert_close_payloads(left, right, rel_tol, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), path
        for i, (left, right) in enumerate(zip(expected, got)):
            assert_close_payloads(left, right, rel_tol, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(got, float), path
        assert math.isclose(got, expected, rel_tol=rel_tol), (
            path, expected, got,
        )
    else:
        assert got == expected, (path, expected, got)


# ----------------------------------------------------------------------
class TestCausalDag:
    """The causal DAG the records' ``mid``/``parent`` stamps form."""

    def test_structure(self, world):
        _, tracer = _traced(world, chain_query(3, selection_cat=3))
        records = tracer.records
        sends = _sends(records)
        assert sends
        minted: set[int] = set()
        for r in records:
            if r.name == "msg.send":
                # Every non-root hangs off a message or timeout minted
                # before it.
                parent = r.args["parent"]
                assert parent == NO_PARENT or parent in minted
                minted.add(r.args["mid"])
            elif r.name == "round.timeout":
                minted.add(r.args["mid"])
            elif r.name == "seller.compute":
                assert r.args["cause"] in sends
        roots = [
            mid for mid, r in sends.items() if r.args["parent"] == NO_PARENT
        ]
        assert roots, "a negotiation always has root RFBs"
        # Fault-free: every message delivered exactly once.
        lats: dict[int, list[float]] = {}
        for r in records:
            if r.name == "msg.deliver":
                lats.setdefault(r.args["mid"], []).append(r.args["lat"])
        assert lats.keys() == sends.keys()
        assert all(len(v) == 1 and v[0] > 0.0 for v in lats.values())
        # RFB roots collect their replies as causal children.
        parents = {r.args["parent"] for r in sends.values()}
        assert any(mid in parents for mid in roots)

    def test_same_seed_byte_identical(self, world):
        query = chain_query(3, selection_cat=3)
        _, tracer_a = _traced(world, query)
        _, tracer_b = _traced(world, query)
        stamps = _stamps(tracer_a.records)
        assert len(json.loads(stamps)) > 100
        assert stamps == _stamps(tracer_b.records)

    def test_faulty_dag_carries_verdicts(self, world):
        plan = FaultPlan.uniform(drop_rate=0.15, duplicate_rate=0.1, seed=11)
        m, tracer = _traced(
            world, chain_query(3, selection_cat=3), plan=plan, timeout=0.05
        )
        assert m.dropped > 0 or m.duplicated > 0
        records = tracer.records
        sends = _sends(records)
        verdicts = [r for r in records if r.name.startswith("fault.")]
        assert verdicts
        # Every verdict carries the id of the message it judged.
        for r in verdicts:
            assert r.args["mid"] in sends
            assert sends[r.args["mid"]].seq < r.seq
        # A message with no delivered copy has a drop verdict.
        delivered = {r.args["mid"] for r in records if r.name == "msg.deliver"}
        dropped = {r.args["mid"] for r in verdicts if r.name == "fault.drop"}
        assert sends.keys() - delivered <= dropped
        assert len(dropped) == m.dropped

    def test_reissued_rfbs_descend_from_their_timeout(self, lossy_records):
        timeouts = {
            r.args["mid"]: r for r in lossy_records if r.name == "round.timeout"
        }
        rfbs = [
            r for r in lossy_records
            if r.name == "msg.send" and r.args["kind"] == "rfb"
        ]
        retries = [r for r in lossy_records if r.name == "round.retry"]
        assert retries
        for retry in retries:
            assert retry.args["mid"] in timeouts
            reissued = [
                r for r in rfbs if r.args["parent"] == retry.args["mid"]
            ]
            assert reissued and all(r.seq > retry.seq for r in reissued)
        # An RFB is a round's fanout or a timeout's re-issue, never a
        # reply to a delivery.
        assert all(
            r.args["parent"] == NO_PARENT or r.args["parent"] in timeouts
            for r in rfbs
        )


# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_fault_free_total_is_bitwise_exact(self, world):
        m, tracer = _traced(world, chain_query(3, selection_cat=3))
        critical = CriticalPath.from_records(tracer.records)
        assert critical is not None
        assert critical.total == m.optimization_time  # bitwise, not approx
        assert critical.reconciles()

    def test_phases_tile_the_session(self, world):
        m, tracer = _traced(world, chain_query(3, selection_cat=3))
        critical = CriticalPath.from_records(tracer.records)
        payload = critical.to_dict()
        assert payload["schema_version"] == CRITPATH_SCHEMA_VERSION
        assert tuple(payload["phases"]) == PHASES  # shape is run-invariant
        # Phase latencies sum to the session's simulated time, and each
        # round's phases sum to that round's span.
        assert math.isclose(
            sum(payload["phases"].values()), m.optimization_time,
            rel_tol=1e-9, abs_tol=1e-12,
        )
        for trade in payload["trades"]:
            for round_out in trade["rounds"]:
                assert math.isclose(
                    sum(round_out["phases"].values()), round_out["total"],
                    rel_tol=1e-9, abs_tol=1e-12,
                )

    def test_faulty_total_is_bitwise_exact(self, world):
        plan = FaultPlan.uniform(
            drop_rate=0.15, duplicate_rate=0.1, delay_spike_rate=0.1,
            delay_spike_seconds=0.02, seed=11,
        )
        m, tracer = _traced(
            world, chain_query(3, selection_cat=3), plan=plan, timeout=0.05
        )
        assert m.dropped > 0 or m.duplicated > 0
        critical = CriticalPath.from_records(tracer.records)
        assert critical.total == m.optimization_time
        assert critical.reconciles()

    def test_renegotiation_total_and_phase(self, world):
        query = chain_query(3, selection_cat=3)
        clean, _ = _traced(world, query)
        # Crash the winning seller post-award to force a renegotiation.
        commodity._offer_ids = itertools.count(1)
        network = Network(world.model)
        trader = QueryTrader(
            BUYER, world.seller_agents(offer_cache=None, use_offer_cache=False),
            network, BuyerPlanGenerator(world.builder, BUYER),
            protocol=BiddingProtocol(timeout=0.05),
        )
        result = trader.optimize(query)
        victim = result.contracts[0].seller
        plan = FaultPlan(seed=7).with_crash(victim, crash_at=1e6)
        tracer = Tracer()
        commodity._offer_ids = itertools.count(1)
        m = run_qt(
            world, query, fault_plan=plan, timeout=0.05, mode="dp",
            offer_cache=None, use_offer_cache=False, tracer=tracer,
        )
        assert m.found and m.renegotiations >= 1
        critical = CriticalPath.from_records(tracer.records)
        assert critical.total == m.optimization_time
        assert critical.reconciles()
        assert critical.phases["renegotiation"] > 0.0

    def test_same_seed_byte_identical(self, world):
        query = chain_query(3, selection_cat=3)
        _, tracer_a = _traced(world, query)
        _, tracer_b = _traced(world, query)
        assert (
            CriticalPath.from_records(tracer_a.records).to_json()
            == CriticalPath.from_records(tracer_b.records).to_json()
        )

    def test_from_rows_matches_from_records(self, world):
        """The offline path (JSONL rows) equals the live path bitwise."""
        from repro.obs.export import jsonl_lines

        _, tracer = _traced(world, chain_query(3, selection_cat=3))
        rows = [json.loads(line) for line in jsonl_lines(tracer.records)]
        assert (
            CriticalPath.from_rows(rows).to_json()
            == CriticalPath.from_records(tracer.records).to_json()
        )

    def test_durations_are_read_off_timestamps(self, lossy_records, tmp_path):
        """Zeroing every transit delay, compute work and deadline arg
        changes nothing: no duration is rebuilt from them."""
        path = tmp_path / "lossy.jsonl"
        write_jsonl(lossy_records, str(path))
        rows = load_trace(str(path))
        expected = CriticalPath.from_rows(rows).to_json()
        blanked = copy.deepcopy(rows)
        zeroed = 0
        for row in blanked:
            for key in ("lat", "work", "deadline"):
                if key in row["args"]:
                    row["args"][key] = 0.0
                    zeroed += 1
        assert zeroed > 100
        assert CriticalPath.from_rows(blanked).to_json() == expected

    def test_chrome_trace_matches_jsonl(self, lossy_records, tmp_path):
        """Chrome traces carry microsecond floats: same decomposition,
        every float within 1e-12 relative."""
        jsonl, chrome = tmp_path / "t.jsonl", tmp_path / "t.json"
        write_jsonl(lossy_records, str(jsonl))
        write_chrome_trace(lossy_records, str(chrome))
        expected = CriticalPath.from_rows(load_trace(str(jsonl)))
        got = CriticalPath.from_rows(load_trace(str(chrome)))
        assert expected.to_json() == CriticalPath.from_records(
            lossy_records
        ).to_json()
        assert_close_payloads(expected.to_dict(), got.to_dict())
        assert got.reconciles()

    def test_render_and_top_segments(self, world):
        _, tracer = _traced(world, chain_query(3, selection_cat=3))
        critical = CriticalPath.from_records(tracer.records)
        text = critical.render(top=3)
        assert "critical path:" in text
        assert "round bottlenecks:" in text
        payload = critical.to_dict(top=3)
        assert len(payload["segments"]) <= 3
        assert payload["summary"]["segments"] == len(critical.segments)

    def test_non_trading_trace_is_none(self):
        tracer = Tracer()
        with tracer.span("misc.work", "test", site="x"):
            pass
        assert CriticalPath.from_records(tracer.records) is None


# ----------------------------------------------------------------------
class TestTelemetryIntegration:
    def test_result_telemetry_carries_critical_path(self, world):
        commodity._offer_ids = itertools.count(1)
        network = Network(world.model)
        tracer = Tracer()
        network.attach_tracer(tracer)
        trader = QueryTrader(
            BUYER, world.seller_agents(offer_cache=None, use_offer_cache=False),
            network, BuyerPlanGenerator(world.builder, BUYER),
        )
        result = trader.optimize(chain_query(3, selection_cat=3))
        assert result.telemetry is not None
        stored = result.telemetry.critical_path
        assert stored is not None
        assert stored["total"] == result.optimization_time
        # The stored decomposition is exactly what a fresh walk gives.
        fresh = CriticalPath.from_records(tracer.records).to_dict()
        assert json.dumps(stored, sort_keys=True) == json.dumps(
            fresh, sort_keys=True
        )
