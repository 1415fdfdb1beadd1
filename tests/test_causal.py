"""Causal DAG + critical-path decomposition: structure, exact replay.

The contract under test (``repro.obs.causal`` / ``repro.obs.critpath``):

* the DAG is built from causal ids and record *args* only, so the same
  seed produces the same bytes on every run and clock;
* the critical-path replay recomputes the session timeline from the
  deterministic args (per-delivery ``lat``, compute ``work``, armed
  deadlines) and reproduces the simulated optimization time *bitwise*;
* phase attributions tile each round, and rounds tile the session —
  the decomposition never invents or loses simulated time.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest

import repro.trading.commodity as commodity
from repro.bench.harness import BUYER, build_world, run_qt
from repro.faults import FaultInjector, FaultPlan, ResilientTrader
from repro.net import Network
from repro.obs import (
    CAUSAL_SCHEMA_VERSION,
    CRITPATH_SCHEMA_VERSION,
    PHASES,
    CausalDag,
    CriticalPath,
    Tracer,
)
from repro.obs.tracer import NO_PARENT
from repro.trading import BiddingProtocol, BuyerPlanGenerator, QueryTrader
from repro.workload import chain_query


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


# ----------------------------------------------------------------------
class TestCausalDag:
    def test_structure_and_summary(self, world):
        _, tracer = _traced(world, chain_query(3, selection_cat=3))
        dag = CausalDag.from_records(tracer.records)
        assert dag.nodes
        assert dag.roots(), "a negotiation always has root RFBs"
        for mid in sorted(dag.nodes):
            node = dag.nodes[mid]
            parent = node["parent"]
            # Every non-root hangs off a node we also saw.
            assert parent == NO_PARENT or parent in dag.nodes
            # Fault-free: every message delivered exactly once.
            if node["kind"] != "timeout":
                assert len(node["deliveries"]) == 1
                assert node["deliveries"][0]["lat"] > 0.0
        payload = dag.to_dict()
        assert payload["schema_version"] == CAUSAL_SCHEMA_VERSION
        summary = payload["summary"]
        assert summary["nodes"] == len(dag.nodes)
        assert summary["dropped"] == 0
        assert summary["roots"] == len(dag.roots())
        # RFB roots collect their replies as causal children.
        replied = [mid for mid in dag.roots() if dag.replies(mid)]
        assert replied

    def test_same_seed_byte_identical(self, world):
        query = chain_query(3, selection_cat=3)
        _, tracer_a = _traced(world, query)
        _, tracer_b = _traced(world, query)
        assert (
            CausalDag.from_records(tracer_a.records).to_json()
            == CausalDag.from_records(tracer_b.records).to_json()
        )

    def test_faulty_dag_carries_verdicts(self, world):
        plan = FaultPlan.uniform(drop_rate=0.15, duplicate_rate=0.1, seed=11)
        m, tracer = _traced(
            world, chain_query(3, selection_cat=3), plan=plan, timeout=0.05
        )
        assert m.dropped > 0 or m.duplicated > 0
        dag = CausalDag.from_records(tracer.records)
        summary = dag.to_dict()["summary"]
        assert summary["faults"] > 0
        # Dropped messages are exactly those with no surviving copy.
        assert summary["dropped"] == sum(
            1 for mid in dag.nodes if dag.dropped(mid)
        )


# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_fault_free_replay_is_bitwise_exact(self, world):
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

    def test_faulty_replay_is_bitwise_exact(self, world):
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

    def test_renegotiation_replay_and_phase(self, world):
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
        assert (
            CausalDag.from_rows(rows).to_json()
            == CausalDag.from_records(tracer.records).to_json()
        )

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
        # The stored decomposition is exactly what a fresh replay gives.
        fresh = CriticalPath.from_records(tracer.records).to_dict()
        assert json.dumps(stored, sort_keys=True) == json.dumps(
            fresh, sort_keys=True
        )
