"""Unit tests for the negotiation protocols."""

from dataclasses import fields, replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.broker.service import OrderedBiddingProtocol
from repro.cost import CardinalityEstimator, CostModel, NodeCapabilities
from repro.faults import FaultInjector, FaultPlan
from repro.net import MessageKind, Network
from repro.obs.live.registry import TradeFacts
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer import PlanBuilder
from repro.sql.views import MaterializedView
from repro.trading import (
    AdaptiveMarginStrategy,
    BargainingProtocol,
    BiddingProtocol,
    CompetitiveSellerStrategy,
    RequestForBids,
    SellerAgent,
    Subcontractor,
    VickreyAuctionProtocol,
)
from repro.trading.commodity import offer_id_scope
from repro.workload import chain_query

from tests.conftest import make_federation


@pytest.fixture
def world(telecom):
    estimator = CardinalityEstimator(telecom.stats, telecom.catalog.schemas)
    builder = PlanBuilder(
        estimator, CostModel(), schemes=telecom.catalog.schemes
    )
    network = Network(CostModel())
    sellers = {
        node: SellerAgent(telecom.catalog.local(node), builder)
        for node in telecom.nodes
    }
    return telecom, network, sellers


class TestBidding:
    def test_collects_offers_and_counts_messages(self, world):
        telecom, network, sellers = world
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        result = BiddingProtocol().solicit(network, "buyer", sellers, rfb)
        assert result.offers
        # one RFB per seller, one reply per seller
        assert network.stats.count(MessageKind.RFB) == len(sellers)
        replies = network.stats.count(MessageKind.OFFER) + network.stats.count(
            MessageKind.NO_OFFER
        )
        assert replies == len(sellers)
        assert result.elapsed > 0

    def test_sellers_work_in_parallel(self, world):
        """Round time is bounded by the slowest seller, not the sum."""
        telecom, network, sellers = world
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        result = BiddingProtocol().solicit(network, "buyer", sellers, rfb)
        busiest = max(network.busy_until(n) for n in sellers)
        total_work = sum(network.busy_until(n) for n in sellers)
        assert result.finished_at < total_work or busiest == total_work
        reply_delay = (
            network.cost_model.network.latency
            + network.cost_model.network.control_message_bytes
            / network.cost_model.network.bandwidth
        )
        assert result.finished_at == pytest.approx(
            busiest + reply_delay, rel=0.05
        )

    def test_award_notifies_winners_and_losers(self, world):
        telecom, network, sellers = world
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        protocol = BiddingProtocol()
        result = protocol.solicit(network, "buyer", sellers, rfb)
        winning = result.offers[:1]
        losing = result.offers[1:]
        final = protocol.award(network, "buyer", winning, losing, sellers)
        assert final == winning
        assert network.stats.count(MessageKind.AWARD) == 1
        assert network.stats.count(MessageKind.REJECT) >= 1


class TestVickrey:
    def test_winner_pays_second_price(self, world):
        telecom, network, sellers = world
        competitive = {
            node: SellerAgent(
                telecom.catalog.local(node),
                sellers[node].builder,
                strategy=CompetitiveSellerStrategy(
                    margin=0.1 * (i + 1)
                ),
            )
            for i, node in enumerate(sorted(sellers))
        }
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        protocol = VickreyAuctionProtocol()
        result = protocol.solicit(network, "buyer", competitive, rfb)
        # pick the cheapest full offer per request key
        offers = sorted(result.offers, key=lambda o: o.properties.money)
        winner, losers = offers[0], offers[1:]
        final = protocol.settle_prices([winner], losers)
        competing = sorted(
            o.properties.money
            for o in result.offers
            if o.request_key == winner.request_key
        )
        if len(competing) > 1:
            assert final[0].properties.money == pytest.approx(competing[1])
        # the Vickrey price never undercuts the winner's own bid
        assert final[0].properties.money >= winner.properties.money - 1e-12

    def test_unchallenged_winner_pays_own_bid(self, world):
        telecom, network, sellers = world
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        protocol = VickreyAuctionProtocol()
        result = protocol.solicit(network, "buyer", sellers, rfb)
        # fabricate a request key with a single offer
        only = [o for o in result.offers][:1]
        final = protocol.settle_prices(only, [])
        assert final[0].properties.money == only[0].properties.money


class TestBargaining:
    def test_more_messages_than_bidding(self, world):
        telecom, network, sellers = world
        competitive = {
            node: SellerAgent(
                telecom.catalog.local(node),
                sellers[node].builder,
                strategy=CompetitiveSellerStrategy(margin=0.5),
            )
            for node in sellers
        }
        query = telecom.manager_query()
        low_reservation = {query.key(): 1e-6}

        bid_net = Network(CostModel())
        bidding = BiddingProtocol().solicit(
            bid_net,
            "buyer",
            competitive,
            RequestForBids("buyer", (query,), low_reservation),
        )
        barg_net = Network(CostModel())
        bargaining = BargainingProtocol(max_rounds=3).solicit(
            barg_net,
            "buyer",
            competitive,
            RequestForBids("buyer", (query,), low_reservation),
        )
        assert barg_net.stats.messages > bid_net.stats.messages
        # bargaining eventually extracts offers the one-shot round lost
        assert len(bargaining.offers) >= len(bidding.offers)

    def test_single_round_when_unreserved(self, world):
        telecom, network, sellers = world
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        result = BargainingProtocol(max_rounds=3).solicit(
            network, "buyer", sellers, rfb
        )
        # cooperative sellers satisfy round 1; no extra rounds
        assert network.stats.count(MessageKind.RFB) == len(sellers)
        assert result.offers

    def test_validation(self):
        with pytest.raises(ValueError):
            BargainingProtocol(max_rounds=0)
        with pytest.raises(ValueError):
            BargainingProtocol(concession=0.0)

    def test_adaptive_sellers_learn_from_awards(self, world):
        telecom, network, sellers = world
        strategies = {
            node: AdaptiveMarginStrategy(margin=0.4, step=0.25)
            for node in sellers
        }
        adaptive = {
            node: SellerAgent(
                telecom.catalog.local(node),
                sellers[node].builder,
                strategy=strategies[node],
            )
            for node in sellers
        }
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        protocol = BiddingProtocol()
        result = protocol.solicit(network, "buyer", adaptive, rfb)
        by_money = sorted(result.offers, key=lambda o: o.properties.money)
        protocol.award(
            network, "buyer", by_money[:1], by_money[1:], adaptive
        )
        winner = by_money[0].seller
        assert strategies[winner].margin > 0.4
        losers = {o.seller for o in by_money[1:]} - {winner}
        assert all(strategies[n].margin < 0.4 for n in losers)


# -- the reply wave of the sellers an RFB cannot concern ----------------------

_CAPS = (
    NodeCapabilities(),
    NodeCapabilities(cpu_rate=1e6),
    NodeCapabilities(load=0.5, price_per_second=2.0),
)

_PROTOCOLS = {
    "bidding": BiddingProtocol,
    "vickrey": VickreyAuctionProtocol,
    "bargaining": BargainingProtocol,
    "ordered": OrderedBiddingProtocol,
}


@st.composite
def markets(draw):
    """A federation of 8-96 nodes whose data sits on a few of them, the
    queries of one RFB, and the sellers' settings: some capabilities and
    strategies, views on empty nodes, maybe subcontractors, and nodes
    already busy when the RFB arrives (their replies wait for them)."""
    n_relations = draw(st.integers(2, 3))
    catalog, nodes, _est, _model, builder = make_federation(
        nodes=draw(st.integers(8, 96)),
        n_relations=n_relations,
        rows=1000,
        fragments=draw(st.integers(1, 2)),
        replicas=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 3)),
    )
    sellers = [node for node in nodes if node != "client"]
    some = st.lists(st.sampled_from(sellers), max_size=4, unique=True)
    asked = []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, n_relations))
        asked.append(
            chain_query(
                size,
                selection_cat=draw(st.none() | st.integers(0, 3)),
                aggregate=draw(st.booleans()),
                relation_offset=draw(st.integers(0, n_relations - size)),
            )
        )
    return {
        "catalog": catalog,
        "builder": builder,
        "sellers": sellers,
        "asked": tuple(asked),
        "reservations": {
            q.key(): draw(st.sampled_from([1e-6, 0.01, 1.0]))
            for q in asked
            if draw(st.booleans())
        },
        "caps": {node: draw(st.integers(1, 2)) for node in draw(some)},
        "strategies": {
            node: draw(st.sampled_from(["competitive", "adaptive"]))
            for node in draw(some)
        },
        "views": {node: draw(st.sampled_from(asked)) for node in draw(some)},
        "subcontractors": draw(
            st.lists(st.sampled_from(sellers), max_size=2, unique=True)
        ),
        "busy": {
            node: draw(st.sampled_from([0.01, 0.05, 0.3]))
            for node in draw(some)
        },
        "protocol": draw(st.sampled_from(sorted(_PROTOCOLS))),
        # Round deadlines before any reply, between replies, after all.
        "timeout": draw(st.sampled_from([None, 0.03, 0.045, 0.2])),
    }


def _sellers(market, network, tracer, facts):
    builder = market["builder"]
    priced = PlanBuilder(
        builder.estimator,
        builder.cost_model,
        capabilities={
            node: _CAPS[caps] for node, caps in market["caps"].items()
        },
        schemes=builder.schemes,
    )
    agents = {}
    for node in market["sellers"]:
        local = market["catalog"].local(node)
        if node in market["views"]:
            view = MaterializedView("v", market["views"][node], row_count=100)
            local = replace(local, views=(view,))
        strategy = {
            "competitive": CompetitiveSellerStrategy(margin=0.2),
            "adaptive": AdaptiveMarginStrategy(),
            None: None,
        }[market["strategies"].get(node)]
        agent = SellerAgent(
            local, priced, strategy=strategy,
            subcontractor=(
                Subcontractor(max_peers=3)
                if node in market["subcontractors"]
                else None
            ),
        )
        agent.tracer = tracer
        agent.facts = facts
        agents[node] = agent
    for node, agent in agents.items():
        if agent.subcontractor is not None:
            agent.subcontractor.connect(
                {peer: a for peer, a in agents.items() if peer != node},
                network,
            )
    return agents


def _solicit(market, path):
    """One solicitation of *market*'s RFB, down the one-wave path
    (``plain``) or the per-message one (``faults``: a null fault plan;
    ``traced``): everything it leaves behind, floats as hex."""
    network = Network(market["builder"].cost_model)
    facts = network.facts = TradeFacts()
    tracer = NULL_TRACER
    if path == "traced":
        tracer = Tracer()
        network.attach_tracer(tracer)
    elif path == "faults":
        network.install_faults(FaultInjector(FaultPlan()))
    sellers = _sellers(market, network, tracer, facts)
    for node, seconds in sorted(market["busy"].items()):
        network.compute(node, seconds)
    protocol = _PROTOCOLS[market["protocol"]](timeout=market["timeout"])
    rfb = RequestForBids("client", market["asked"], market["reservations"])
    with offer_id_scope():
        result = protocol.solicit(network, "client", sellers, rfb)
    stats = network.stats
    return (
        {
            name: value.hex() if isinstance(value, float) else value
            for name, value in (
                (f.name, getattr(result, f.name)) for f in fields(result)
            )
            if name != "offers"
        },
        [_offer_hex(offer) for offer in result.offers],
        (
            stats.messages, stats.bytes, dict(stats.by_kind),
            stats.dropped, stats.duplicated, stats.retried,
        ),
        network.now.hex(),
        {node: network.busy_until(node).hex() for node in sellers},
        (
            facts.offers, facts.rfbs,
            facts.rounds, facts.fanout, facts.responded,
        ),
    )


def _offer_hex(offer):
    properties = offer.properties
    return (
        offer.offer_id,
        offer.seller,
        offer.dedupe_key(),
        offer.request_key,
        offer.true_cost.hex(),
        tuple(
            float(getattr(properties, f.name)).hex()
            for f in fields(properties)
        ),
    )


class TestReplyWave:
    @given(market=markets())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_one_wave_equals_a_message_each(self, market):
        """Sellers the RFB cannot concern answering as one wave leave
        the round, the network and the trade's facts exactly as a
        handler call and a message each do."""
        plain = _solicit(market, "plain")
        assert plain == _solicit(market, "faults")
        assert plain == _solicit(market, "traced")

    def test_only_sellers_that_may_answer_are_called(self, monkeypatch):
        catalog, nodes, _est, model, builder = make_federation(nodes=24)
        sellers = {
            node: SellerAgent(catalog.local(node), builder)
            for node in nodes
            if node != "client"
        }
        rfb = RequestForBids("client", (chain_query(2),))
        mute = {node for node, a in sellers.items() if not a.may_answer(rfb)}
        assert mute and len(mute) < len(sellers)
        called = []
        prepare = SellerAgent.prepare_offers

        def spy(agent, request):
            called.append(agent.node)
            return prepare(agent, request)

        monkeypatch.setattr(SellerAgent, "prepare_offers", spy)
        BiddingProtocol().solicit(Network(model), "client", sellers, rfb)
        assert sorted(called) == sorted(set(sellers) - mute)
        called.clear()
        traced = Network(model)
        traced.attach_tracer(Tracer())
        BiddingProtocol().solicit(traced, "client", sellers, rfb)
        assert sorted(called) == sorted(sellers)
