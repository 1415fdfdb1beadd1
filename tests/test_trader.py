"""Integration tests for the full QT algorithm (Figure 2)."""

import gc

import pytest

from repro.cost import CardinalityEstimator, CostModel
from repro.net import MessageKind, Network
from repro.optimizer import PlanBuilder
from repro.sql import RelationRef, SPJQuery, column, eq
from repro.trading import (
    BiddingProtocol,
    BuyerPlanGenerator,
    QueryTrader,
    SellerAgent,
)
from repro.workload import chain_query
from tests.conftest import make_federation, make_trader, watch_plan_rounds


@pytest.fixture(scope="module")
def world():
    return make_federation(nodes=8, n_relations=4, fragments=4, replicas=2)


class TestEndToEnd:
    def test_finds_plan_for_chain(self, world):
        catalog, nodes, estimator, model, builder = world
        trader, network = make_trader(catalog, nodes, builder, model)
        result = trader.optimize(chain_query(3, selection_cat=2))
        assert result.found
        assert result.plan_cost > 0
        assert result.optimization_time > 0
        assert result.messages.messages > 0
        assert result.iterations >= 1

    def test_contracts_match_plan_leaves(self, world):
        catalog, nodes, estimator, model, builder = world
        trader, network = make_trader(catalog, nodes, builder, model)
        result = trader.optimize(chain_query(2))
        purchased_ids = {p.offer_id for p in result.best.purchased()}
        contract_ids = {c.offer.offer_id for c in result.contracts}
        assert contract_ids == purchased_ids
        assert network.stats.count(MessageKind.AWARD) == len(result.contracts)

    def test_trace_is_recorded(self, world):
        catalog, nodes, estimator, model, builder = world
        trader, network = make_trader(catalog, nodes, builder, model)
        result = trader.optimize(chain_query(3))
        assert len(result.trace) == result.iterations
        assert result.trace[0].queries_asked == 1
        assert result.trace[0].offers_received > 0

    def test_iterations_do_not_worsen_plan(self, world):
        catalog, nodes, estimator, model, builder = world
        trader, network = make_trader(catalog, nodes, builder, model)
        result = trader.optimize(chain_query(3, selection_cat=1))
        values = [
            t.best_value for t in result.trace if t.best_value is not None
        ]
        assert values == sorted(values, reverse=True)

    def test_single_relation_query(self, world):
        catalog, nodes, estimator, model, builder = world
        trader, network = make_trader(catalog, nodes, builder, model)
        result = trader.optimize(chain_query(1, selection_cat=5))
        assert result.found

    def test_aggregate_query(self, world):
        catalog, nodes, estimator, model, builder = world
        trader, network = make_trader(catalog, nodes, builder, model)
        result = trader.optimize(chain_query(2, aggregate=True))
        assert result.found

    def test_unanswerable_query_aborts(self, world):
        catalog, nodes, estimator, model, builder = world
        network = Network(model)
        # Only one seller, holding nothing relevant: strip all sellers.
        trader = QueryTrader(
            "client",
            {},
            network,
            BuyerPlanGenerator(builder, "client"),
        )
        result = trader.optimize(chain_query(2))
        assert not result.found
        assert result.contracts == []
        with pytest.raises(ValueError):
            result.plan_cost

    def test_idp_plan_generator(self, world):
        catalog, nodes, estimator, model, builder = world
        trader, network = make_trader(catalog, nodes, builder, model,
                                      mode="idp")
        result = trader.optimize(chain_query(4))
        assert result.found

    def test_max_iterations_respected(self, world):
        catalog, nodes, estimator, model, builder = world
        trader, network = make_trader(catalog, nodes, builder, model)
        trader.max_iterations = 1
        result = trader.optimize(chain_query(3))
        assert result.iterations == 1

    def test_messages_scale_with_sellers(self):
        small = make_federation(nodes=4, n_relations=2, seed=11)
        large = make_federation(nodes=16, n_relations=2, seed=11)
        results = []
        for catalog, nodes, estimator, model, builder in (small, large):
            trader, network = make_trader(catalog, nodes, builder, model)
            results.append(trader.optimize(chain_query(2)))
        assert results[1].messages.messages > results[0].messages.messages

    def test_cooperative_payments_equal_costs(self, world):
        catalog, nodes, estimator, model, builder = world
        trader, network = make_trader(catalog, nodes, builder, model)
        result = trader.optimize(chain_query(2))
        for contract in result.contracts:
            assert contract.surplus == pytest.approx(0.0, abs=1e-9)

    def test_loaded_sellers_lose_to_idle_replicas(self):
        """The paper: offers reflect "the current workload of sellers".
        A heavily loaded replica holder prices itself out of the deal."""
        from repro.cost import NodeCapabilities
        from tests.conftest import make_federation

        catalog, nodes, estimator, model, builder = make_federation(
            nodes=4, n_relations=1, rows=4_000, fragments=2, replicas=3,
            seed=9,
        )
        holders = sorted(catalog.holders("R0", 0))
        loaded = holders[0]
        builder.capabilities[loaded] = NodeCapabilities(load=50.0)
        trader, network = make_trader(catalog, nodes, builder, model)
        result = trader.optimize(chain_query(1))
        assert result.found
        assert loaded not in {c.seller for c in result.contracts}

    def test_telecom_reproduces_paper_flow(self, telecom):
        """The motivating example end-to-end: Athens buys the two island
        answers; the winning plan unions partial aggregates."""
        estimator = CardinalityEstimator(
            telecom.stats, telecom.catalog.schemas
        )
        model = CostModel()
        builder = PlanBuilder(
            estimator, model, schemes=telecom.catalog.schemes
        )
        network = Network(model)
        sellers = {
            node: SellerAgent(telecom.catalog.local(node), builder)
            for node in telecom.nodes
        }
        trader = QueryTrader(
            "client", sellers, network, BuyerPlanGenerator(builder, "client")
        )
        result = trader.optimize(telecom.manager_query())
        assert result.found
        winners = {c.seller for c in result.contracts}
        assert winners == {"Corfu", "Myconos"}


class TestFreedByRefcount:
    """A finished trade leaves no reference cycle behind: its network,
    sellers, offers and DP results go with the last reference to them,
    not at some later cycle collection."""

    @pytest.mark.parametrize("timeout", [None, 30.0])
    def test_trade_leaves_no_cyclic_garbage(self, world, timeout):
        catalog, nodes, estimator, model, builder = world

        def trade():
            trader, _network = make_trader(
                catalog, nodes, builder, model,
                protocol=BiddingProtocol(timeout=timeout),
            )
            assert trader.optimize(chain_query(3, selection_cat=2)).found

        trade()  # first-call set-up (imports, memo tables) happens here
        gc.collect()
        gc.disable()
        try:
            trade()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_round_results_die_with_the_trade(self, world, monkeypatch):
        """Each round's plan generation, lattice record included, is
        handed to the next round and kept by nothing else: refcounting
        frees every one of them by the time ``optimize`` returns."""
        catalog, nodes, estimator, model, builder = world
        trader, _network = make_trader(catalog, nodes, builder, model)
        rounds = watch_plan_rounds(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            assert trader.optimize(chain_query(3, selection_cat=2)).found
            assert len(rounds) >= 2
            handed = [prior for _ref, prior in rounds]
            assert handed == [False] + [True] * (len(rounds) - 1)
            assert all(ref() is None for ref, _prior in rounds)
        finally:
            gc.enable()
