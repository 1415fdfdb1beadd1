"""Fault-injection subsystem: plans, injector, resilience, equivalence."""

from __future__ import annotations

import itertools

import pytest

import repro.trading.commodity as commodity
from repro.bench.harness import BUYER, build_world, run_qt
from repro.execution import FederationData, PlanExecutor, evaluate_query
from repro.faults import (
    ANY,
    CrashWindow,
    FaultInjector,
    FaultPlan,
    LinkFaults,
    RenegotiationPolicy,
    ResilientTrader,
)
from repro.net import Message, MessageKind, Network
from repro.trading import BiddingProtocol, BuyerPlanGenerator, QueryTrader
from repro.workload import chain_query


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            LinkFaults(drop_rate=1.5)
        with pytest.raises(ValueError):
            LinkFaults(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            LinkFaults(delay_spike_seconds=-1.0)

    def test_crash_window_validation(self):
        with pytest.raises(ValueError):
            CrashWindow(crash_at=-1.0)
        with pytest.raises(ValueError):
            CrashWindow(crash_at=2.0, recover_at=2.0)

    def test_crash_window_semantics(self):
        window = CrashWindow(crash_at=1.0, recover_at=3.0)
        assert not window.covers(0.5)
        assert window.covers(1.0)
        assert window.covers(2.9)
        assert not window.covers(3.0)  # half-open: recovered at 3.0
        assert window.overlaps(0.0, 1.5)
        assert not window.overlaps(3.0, 9.0)
        forever = CrashWindow(crash_at=5.0)
        assert forever.covers(1e12)
        assert forever.overlaps(6.0, float("inf"))

    def test_null_plan(self):
        assert FaultPlan().is_null
        assert not FaultPlan.uniform(drop_rate=0.1).is_null
        assert not FaultPlan().with_crash("n0", 1.0).is_null

    def test_link_match_priority(self):
        exact = LinkFaults(drop_rate=0.4)
        from_a = LinkFaults(drop_rate=0.3)
        to_b = LinkFaults(drop_rate=0.2)
        fallback = LinkFaults(drop_rate=0.1)
        plan = FaultPlan(
            default_link=fallback,
            links={("a", "b"): exact, ("a", ANY): from_a, (ANY, "b"): to_b},
        )
        assert plan.link_for("a", "b") is exact
        assert plan.link_for("a", "c") is from_a
        assert plan.link_for("c", "b") is to_b
        assert plan.link_for("c", "d") is fallback

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            seed=42,
            default_link=LinkFaults(drop_rate=0.1, duplicate_rate=0.05),
            links={
                ("client", "node3"): LinkFaults(drop_rate=0.5),
                (ANY, "node1"): LinkFaults(delay_spike_rate=0.2,
                                           delay_spike_seconds=0.1),
            },
            crashes={
                "node1": (CrashWindow(1.0, 2.0), CrashWindow(9.0)),
            },
        )
        path = tmp_path / "plan.json"
        plan.to_file(path)
        assert FaultPlan.from_file(path) == plan

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json({"seed": 1, "chaos": True})


class TestFaultInjector:
    def _deliveries(self, plan: FaultPlan, n: int = 20) -> list[list[float]]:
        from repro.cost import CostModel

        net = Network(CostModel())
        injector = FaultInjector(plan)
        return [
            injector.intercept(
                net, Message(MessageKind.RFB, "a", "b", i), depart=0.0
            )
            for i in range(n)
        ]

    def test_same_seed_same_schedule(self):
        plan = FaultPlan.uniform(
            drop_rate=0.3, duplicate_rate=0.3,
            delay_spike_rate=0.3, delay_spike_seconds=0.5, seed=13,
        )
        assert self._deliveries(plan) == self._deliveries(plan)

    def test_different_seed_different_schedule(self):
        base = dict(drop_rate=0.3, duplicate_rate=0.3,
                    delay_spike_rate=0.3, delay_spike_seconds=0.5)
        a = self._deliveries(FaultPlan.uniform(seed=1, **base), n=50)
        b = self._deliveries(FaultPlan.uniform(seed=2, **base), n=50)
        assert a != b

    def test_null_plan_consumes_no_randomness(self):
        injector = FaultInjector(FaultPlan(seed=7))
        state = injector.rng.getstate()
        assert self._deliveries(FaultPlan(seed=7))  # draws happen elsewhere
        assert injector.rng.getstate() == state

    def test_certain_drop(self):
        deliveries = self._deliveries(FaultPlan.uniform(drop_rate=1.0), n=5)
        assert all(d == [] for d in deliveries)

    def test_certain_duplicate(self):
        deliveries = self._deliveries(
            FaultPlan.uniform(duplicate_rate=1.0), n=5
        )
        for arrivals in deliveries:
            assert len(arrivals) == 2
            assert arrivals[1] > arrivals[0]

    def test_delay_spike_bounds(self):
        plan = FaultPlan.uniform(
            delay_spike_rate=1.0, delay_spike_seconds=0.5
        )
        baseline = self._deliveries(FaultPlan())[0][0]
        for arrivals in self._deliveries(plan, n=10):
            spike = arrivals[0] - baseline
            assert 0.5 <= spike < 1.0  # uniform in [1, 2) x seconds

    def test_sender_crash_drops_at_depart(self):
        plan = FaultPlan().with_crash("a", crash_at=0.0)
        injector = FaultInjector(plan)
        assert self._intercept_one(injector) == []
        assert injector.log.dropped_sender_down == 1

    def test_recipient_crash_drops_at_arrival(self):
        plan = FaultPlan().with_crash("b", crash_at=0.0)
        injector = FaultInjector(plan)
        assert self._intercept_one(injector) == []
        assert injector.log.dropped_recipient_down == 1

    def test_recovered_recipient_receives(self):
        # Down only until well before the message arrives.
        plan = FaultPlan(
            crashes={"b": (CrashWindow(0.0, 1e-9),)}
        )
        assert self._intercept_one(FaultInjector(plan)) != []

    def _intercept_one(self, injector: FaultInjector) -> list[float]:
        from repro.cost import CostModel

        net = Network(CostModel())
        return injector.intercept(
            net, Message(MessageKind.RFB, "a", "b", None), depart=0.0
        )

    def test_network_stats_mirror(self):
        from repro.cost import CostModel

        net = Network(CostModel())
        net.register("a", lambda n, m: None)
        net.register("b", lambda n, m: None)
        net.install_faults(
            FaultInjector(FaultPlan.uniform(drop_rate=1.0, seed=3))
        )
        net.send(Message(MessageKind.RFB, "a", "b", None))
        net.run()
        assert net.stats.dropped == 1
        assert net.stats.messages == 1  # sends are counted, arrivals lost


def _trade(world, query, *, fault_plan=None, timeout=None, policy=None):
    """Direct trader wiring with offer-id counter reset for comparisons."""
    commodity._offer_ids = itertools.count(1)
    network = Network(world.model)
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan)
        network.install_faults(injector)
    trader = QueryTrader(
        BUYER,
        world.seller_agents(offer_cache=None, use_offer_cache=False),
        network,
        BuyerPlanGenerator(world.builder, BUYER),
        protocol=BiddingProtocol(timeout=timeout),
    )
    if injector is None:
        return trader.optimize(query)
    return ResilientTrader(trader, injector, policy=policy).optimize(query)


@pytest.fixture(scope="module")
def small_world():
    return build_world(nodes=6, n_relations=3, fragments=3, replicas=2, seed=7)


class TestZeroFaultEquivalence:
    def test_null_injector_is_byte_identical(self, small_world):
        query = chain_query(3, selection_cat=3)
        plain = _trade(small_world, query)
        nulled = _trade(small_world, query, fault_plan=FaultPlan())
        with_deadline = _trade(
            small_world, query, fault_plan=FaultPlan(), timeout=10.0
        )
        for other in (nulled, with_deadline):
            assert other.found == plain.found
            assert other.plan_cost == plain.plan_cost
            assert other.optimization_time == plain.optimization_time
            assert other.messages.messages == plain.messages.messages
            assert other.messages.bytes == plain.messages.bytes
            assert other.offers_considered == plain.offers_considered
            assert other.iterations == plain.iterations
            assert other.best.plan.explain() == plain.best.plan.explain()
        assert nulled.messages.dropped == 0
        assert nulled.resilience.clean

    def test_runner_level_equivalence(self, small_world):
        query = chain_query(2, selection_cat=3)
        commodity._offer_ids = itertools.count(1)
        plain = run_qt(
            small_world, query, offer_cache=None, use_offer_cache=False
        )
        commodity._offer_ids = itertools.count(1)
        nulled = run_qt(
            small_world, query, fault_plan=FaultPlan(), timeout=None,
            offer_cache=None, use_offer_cache=False,
        )
        assert (plain.plan_cost, plain.optimization_time, plain.messages,
                plain.offers, plain.iterations) == (
            nulled.plan_cost, nulled.optimization_time, nulled.messages,
            nulled.offers, nulled.iterations)


class TestFaultyNegotiation:
    def test_seeded_drop_run_quiesces_with_valid_plan(self, small_world):
        query = chain_query(3, selection_cat=3)
        clean = _trade(small_world, query)
        faulty = _trade(
            small_world, query,
            fault_plan=FaultPlan.uniform(drop_rate=0.1, seed=11),
            timeout=0.05,
        )
        assert faulty.found
        assert faulty.messages.dropped > 0
        assert faulty.resilience.timeouts_fired > 0
        # The negotiated plan is complete: executing it over materialized
        # data reproduces the centralized answer.
        data = FederationData.build(small_world.catalog, seed=7)
        answer = PlanExecutor(data, query).run(faulty.best.plan)
        assert answer.equals_unordered(evaluate_query(query, data))
        # Quality holds in this seeded scenario.
        assert faulty.plan_cost == pytest.approx(clean.plan_cost)

    def test_all_silent_round_retries_with_backoff(self, small_world):
        query = chain_query(2, selection_cat=3)
        # Every seller reply is lost: client hears nothing, retries its
        # RFB round max_retries times, then gives up without a plan.
        plan = FaultPlan(
            links={(ANY, BUYER): LinkFaults(drop_rate=1.0)}, seed=3
        )
        result = _trade(
            small_world, query, fault_plan=plan, timeout=0.05,
            policy=RenegotiationPolicy(max_rounds=0),
        )
        assert not result.found
        assert result.resilience.retries > 0
        assert result.messages.retried > 0

    def test_crashed_winner_triggers_renegotiation(self, small_world):
        query = chain_query(3, selection_cat=3)
        clean = _trade(small_world, query)
        victim = clean.contracts[0].seller
        faulty = _trade(
            small_world, query,
            fault_plan=FaultPlan(seed=7).with_crash(victim, crash_at=1e6),
            timeout=0.05,
        )
        assert faulty.found
        summary = faulty.resilience
        assert summary.renegotiations >= 1
        assert summary.contracts_voided >= 1
        assert all(c.voided for c in summary.voided)
        assert victim not in {c.seller for c in faulty.contracts}
        # The whole-run accounting spans the renegotiation too.
        assert faulty.messages.messages > clean.messages.messages

    def test_greedy_fallback_when_dp_budget_exhausted(self, small_world):
        query = chain_query(3, selection_cat=3)
        clean = _trade(small_world, query)
        victim = clean.contracts[0].seller
        faulty = _trade(
            small_world, query,
            fault_plan=FaultPlan(seed=7).with_crash(victim, crash_at=1e6),
            timeout=0.05,
            policy=RenegotiationPolicy(dp_budget=0),  # force the fallback
        )
        assert faulty.found
        assert victim not in {c.seller for c in faulty.contracts}

    def test_degradation_reported_against_reference(self, small_world):
        query = chain_query(3, selection_cat=3)
        clean = _trade(small_world, query)
        commodity._offer_ids = itertools.count(1)
        m = run_qt(
            small_world, query,
            fault_plan=FaultPlan.uniform(drop_rate=0.1, seed=11),
            timeout=0.05, baseline_cost=clean.plan_cost,
            offer_cache=None, use_offer_cache=False,
        )
        assert m.degradation is not None
        assert m.degradation >= 0.0

    def test_voided_contract_describes_itself(self, small_world):
        query = chain_query(3, selection_cat=3)
        clean = _trade(small_world, query)
        voided = clean.contracts[0].void()
        assert voided.voided
        assert not clean.contracts[0].voided  # void() copies
