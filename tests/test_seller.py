"""Unit tests for the seller agent (partial query constructor, predicates
analyser, pricing)."""

from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cost import CardinalityEstimator, CostModel, NodeCapabilities
from repro.obs.tracer import Tracer
from repro.optimizer import PlanBuilder
from repro.sql.expr import column, eq, ge, gt, lt
from repro.sql.rewrite import compatible_coverage, rewrite_query
from repro.sql.views import MaterializedView
from repro.trading import (
    AdaptiveMarginStrategy,
    CompetitiveSellerStrategy,
    OfferCache,
    RequestForBids,
    SellerAgent,
    Subcontractor,
)
from repro.trading.commodity import offer_id_scope
from repro.trading.seller import SECONDS_PER_VIEW_MATCH
from repro.workload import build_telecom_scenario, chain_query

from tests.conftest import make_federation


@pytest.fixture
def world(telecom):
    estimator = CardinalityEstimator(telecom.stats, telecom.catalog.schemas)
    builder = PlanBuilder(
        estimator, CostModel(), schemes=telecom.catalog.schemes
    )
    return telecom, builder


def agent_for(telecom, builder, node, **kwargs):
    return SellerAgent(telecom.catalog.local(node), builder, **kwargs)


class TestOfferGeneration:
    def test_full_and_partial_offers(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Myconos")
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, work = agent.prepare_offers(rfb)
        assert work > 0
        by_aliases = {frozenset(o.coverage) for o in offers}
        # full 2-relation offer plus the single-relation partials
        assert frozenset({"c", "i"}) in by_aliases
        assert frozenset({"c"}) in by_aliases
        assert frozenset({"i"}) in by_aliases

    def test_full_offer_is_exact_aggregate(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Myconos")
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, _ = agent.prepare_offers(rfb)
        full = [o for o in offers if o.aliases == frozenset({"c", "i"})]
        assert any(o.exact_projections for o in full)

    def test_offer_properties_complete(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Corfu")
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, _ = agent.prepare_offers(rfb)
        for offer in offers:
            assert offer.properties.total_time > 0
            assert offer.properties.rows >= 0
            assert offer.properties.first_row_time <= offer.properties.total_time
            assert offer.request_key == telecom.manager_query().key()

    def test_irrelevant_node_offers_only_what_it_has(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Athens")
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, _ = agent.prepare_offers(rfb)
        # Athens customers are outside the IN-list: only invoice offers
        assert offers
        assert all(o.aliases == frozenset({"i"}) for o in offers)

    def test_no_partials_mode(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Myconos", offer_partials=False)
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, _ = agent.prepare_offers(rfb)
        assert all(o.aliases == frozenset({"c", "i"}) for o in offers)

    def test_max_partial_size(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Myconos", max_partial_size=1)
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, _ = agent.prepare_offers(rfb)
        assert all(len(o.aliases) <= 2 for o in offers)

    def test_no_duplicate_offers(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Myconos")
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, _ = agent.prepare_offers(rfb)
        keys = [
            (
                o.query.key(),
                tuple(sorted((a, tuple(sorted(f))) for a, f in o.coverage.items())),
                o.exact_projections,
            )
            for o in offers
        ]
        assert len(keys) == len(set(keys))

    def test_multiple_queries_in_rfb(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Myconos")
        q1 = telecom.manager_query()
        q2 = telecom.manager_query(offices=("Corfu",))
        rfb = RequestForBids("buyer", (q1, q2))
        offers, _ = agent.prepare_offers(rfb)
        keys = {o.request_key for o in offers}
        assert keys == {q1.key(), q2.key()}


class TestViewOffers:
    def test_view_offer_cheaper_than_base(self):
        telecom = build_telecom_scenario(
            n_offices=4, customers_per_office=200, lines_per_customer=3,
            with_views=True,
        )
        estimator = CardinalityEstimator(
            telecom.stats, telecom.catalog.schemas
        )
        builder = PlanBuilder(
            estimator, CostModel(), schemes=telecom.catalog.schemes
        )
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        with_views = SellerAgent(
            telecom.catalog.local("Myconos"), builder, use_views=True
        )
        without_views = SellerAgent(
            telecom.catalog.local("Myconos"), builder, use_views=False
        )
        offers_v, _ = with_views.prepare_offers(rfb)
        offers_n, _ = without_views.prepare_offers(rfb)
        best_v = min(
            o.properties.total_time
            for o in offers_v
            if o.exact_projections and o.aliases == frozenset({"c", "i"})
        )
        best_n = min(
            o.properties.total_time
            for o in offers_n
            if o.exact_projections and o.aliases == frozenset({"c", "i"})
        )
        assert best_v < best_n

    def test_view_offer_covers_whole_query(self):
        telecom = build_telecom_scenario(
            n_offices=3, customers_per_office=100, with_views=True
        )
        estimator = CardinalityEstimator(
            telecom.stats, telecom.catalog.schemas
        )
        builder = PlanBuilder(
            estimator, CostModel(), schemes=telecom.catalog.schemes
        )
        agent = SellerAgent(telecom.catalog.local("Corfu"), builder)
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, _ = agent.prepare_offers(rfb)
        schemes = telecom.catalog.schemes
        full = [
            o
            for o in offers
            if o.exact_projections
            and o.coverage.get("c") == schemes["customer"].fragment_ids
        ]
        assert full  # the view-based offer covers everything


class TestPricing:
    def test_competitive_agent_declines_low_reservations(self, world):
        telecom, builder = world
        agent = agent_for(
            telecom,
            builder,
            "Myconos",
            strategy=CompetitiveSellerStrategy(margin=0.2),
        )
        query = telecom.manager_query()
        rfb = RequestForBids(
            "buyer", (query,), reservations={query.key(): 1e-9}
        )
        offers, _ = agent.prepare_offers(rfb)
        assert offers == []

    def test_cooperative_money_equals_cost(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Myconos")
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, _ = agent.prepare_offers(rfb)
        for offer in offers:
            assert offer.properties.money == pytest.approx(offer.true_cost)


class TestCapabilities:
    def test_join_incapable_seller_offers_only_parts(self, world):
        telecom, builder = world
        agent = agent_for(telecom, builder, "Myconos", join_capable=False)
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        offers, _ = agent.prepare_offers(rfb)
        assert offers
        assert all(len(o.aliases) == 1 for o in offers)

    def test_market_with_thin_nodes_still_answers(self, world):
        """Even if every seller is join-incapable the buyer glues the
        single-relation parts itself."""
        from repro.net import Network
        from repro.trading import BuyerPlanGenerator, QueryTrader

        telecom, builder = world
        network = Network(builder.cost_model)
        sellers = {
            node: agent_for(telecom, builder, node, join_capable=False)
            for node in telecom.nodes
        }
        trader = QueryTrader(
            "client", sellers, network,
            BuyerPlanGenerator(builder, "client"),
        )
        result = trader.optimize(telecom.manager_query())
        assert result.found


class TestMessageSizing:
    def test_offer_messages_sized_by_content(self, world):
        from repro.net import Network
        from repro.trading import BiddingProtocol

        telecom, builder = world
        network = Network(builder.cost_model)
        sellers = {
            node: agent_for(telecom, builder, node)
            for node in telecom.nodes
        }
        rfb = RequestForBids("buyer", (telecom.manager_query(),))
        BiddingProtocol().solicit(network, "buyer", sellers, rfb)
        base = (
            network.cost_model.network.control_message_bytes
            * network.stats.messages
        )
        assert network.stats.bytes > base  # offers pay for their content


# -- the skip and the rewrite memo ------------------------------------------


def naive_agent(local, builder, **kwargs):
    """A seller that never skips: it rewrites and prices every query, as
    every seller did before the skip and the rewrite memo existed."""
    agent = SellerAgent(local, builder, use_offer_cache=False, **kwargs)
    agent._held_relations = frozenset(local.schemas)
    agent._answers_unheld = lambda: True
    return agent


_PROPERTY_FIELDS = (
    "total_time", "rows", "first_row_time", "rows_per_second",
    "freshness", "completeness", "money",
)


def fingerprint(offers, work):
    """Offers in order with every float as hex, then the work."""
    return [
        (
            o.seller,
            o.dedupe_key(),
            o.query.sql(),
            o.request_key,
            o.true_cost.hex(),
            tuple(
                float(getattr(o.properties, name)).hex()
                for name in _PROPERTY_FIELDS
            ),
        )
        for o in offers
    ], work.hex()


def record_rows(tracer):
    """Trace records without their wall-clock stamps."""
    return [
        (r.seq, r.kind, r.name, r.cat, r.site, r.sim_start, r.sim_end,
         r.span_id, r.parent_id, r.args)
        for r in tracer.records
    ]


@st.composite
def worlds(draw):
    """Small uniform federations; few fragments and replicas on many
    nodes leave some sellers holding nothing (``client`` always).
    Fragments are IN-lists on ``part`` or ranges on ``id`` (ORs of
    interval conjunctions once merged)."""
    n_relations = draw(st.integers(2, 4))
    catalog, nodes, _est, _model, builder = make_federation(
        nodes=draw(st.integers(3, 9)),
        n_relations=n_relations,
        rows=1000,
        fragments=draw(st.integers(1, 3)),
        replicas=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 3)),
        partition_style=draw(st.sampled_from(["list", "range"])),
    )
    return catalog, nodes, builder, n_relations


@st.composite
def queries(draw, n_relations):
    """A chain query over a window of the relations, in a random FROM
    order, optionally pinned to one value of ``part`` or bounded on
    ``id`` — the list and the range partitioning attribute — so some
    holders' fragments are disjoint from it.  An ``id`` bound is an int
    or a float: ``id > 332`` misses the fragment ``id < 333`` by the
    integer rule, ``id > 332.0`` does not."""
    size = draw(st.integers(1, min(3, n_relations)))
    query = chain_query(
        size,
        selection_cat=draw(st.none() | st.integers(0, 3)),
        aggregate=draw(st.booleans()),
        relation_offset=draw(st.integers(0, n_relations - size)),
    )
    if draw(st.booleans()):
        alias = f"r{draw(st.integers(0, size - 1))}"
        query = query.restrict(eq(column(alias, "part"), draw(st.integers(0, 2))))
    if draw(st.booleans()):
        alias = f"r{draw(st.integers(0, size - 1))}"
        bound = draw(st.sampled_from([gt, ge, lt]))
        value = draw(st.sampled_from([332, 333, 665, 666]))
        if draw(st.booleans()):
            value = float(value)
        query = query.restrict(bound(column(alias, "id"), value))
    return replace(query, relations=tuple(draw(st.permutations(query.relations))))


DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSkipAndRewriteMemo:
    @given(data=st.data())
    @DIFFERENTIAL
    def test_unheld_relations_rewrite_to_none(self, data):
        """What the skip relies on: holding no fragment of any relation
        the query names means there is nothing to rewrite to."""
        catalog, _nodes, _builder, n = data.draw(worlds())
        query = data.draw(queries(n))
        held = {}
        for name, scheme in sorted(catalog.schemes.items()):
            if name in query.relation_names:
                if data.draw(st.booleans()):
                    held[name] = frozenset()
                continue
            held[name] = frozenset(
                data.draw(st.sets(st.sampled_from(sorted(scheme.fragment_ids))))
            )
        assert rewrite_query(
            query, catalog.schemas, catalog.schemes, held
        ) is None

    @given(data=st.data())
    @DIFFERENTIAL
    def test_skipping_seller_equals_naive_seller(self, data):
        """A seller whose cache a replica warmed offers exactly what a
        seller with no cache and no skip offers — offer for offer, in
        order, bit for bit, with the same work.  Worlds include empty
        sellers, views over relations the seller does not hold, and a
        subcontractor."""
        catalog, nodes, builder, n = data.draw(worlds())
        node = data.draw(st.sampled_from(nodes))
        asked = tuple(data.draw(st.lists(queries(n), min_size=1, max_size=3)))
        viewed = data.draw(st.lists(st.sampled_from(asked), max_size=2))
        local = replace(
            catalog.local(node),
            views=tuple(
                MaterializedView(f"v{i}", q, row_count=100)
                for i, q in enumerate(viewed)
            ),
        )
        peers = {
            peer: SellerAgent(catalog.local(peer), builder, use_offer_cache=False)
            for peer in nodes
            if peer != node
        }
        subcontracts = data.draw(st.booleans())

        def options():
            if not subcontracts:
                return {}
            return {"subcontractor": Subcontractor(peers, max_peers=3)}

        rfb = RequestForBids(
            "client", asked, round_number=data.draw(st.integers(0, 2))
        )
        # A hit charges what a miss charges, so the work must match too.
        shared = OfferCache(hit_work_fraction=1.0)
        replica = SellerAgent(
            replace(local, node=f"{node}-replica"), builder,
            offer_cache=shared, **options(),
        )
        replica.prepare_offers(rfb)
        warmed = SellerAgent(local, builder, offer_cache=shared, **options())
        naive = naive_agent(local, builder, **options())
        assert fingerprint(*warmed.prepare_offers(rfb)) == fingerprint(
            *naive.prepare_offers(rfb)
        )

    @given(data=st.data())
    @DIFFERENTIAL
    def test_permuted_from_lists_get_their_own_rewrite(self, data):
        """Equal canonical keys, different FROM order: the memo hands
        each query the rewrite it would get without the memo."""
        catalog, nodes, builder, n = data.draw(worlds())
        query = data.draw(queries(n))
        twin = replace(
            query, relations=tuple(data.draw(st.permutations(query.relations)))
        )
        assert twin.key() == query.key()
        cache = OfferCache()
        for node in nodes:
            agent = SellerAgent(catalog.local(node), builder, offer_cache=cache)
            local = agent.local
            for asked in (query, twin, query):
                got = agent._rewrite(asked)
                expected = rewrite_query(
                    asked, local.schemas, local.schemes, local.held
                )
                if expected is None:
                    assert got is None
                    continue
                assert got.query.sql() == expected.query.sql()
                assert dict(got.coverage) == dict(expected.coverage)
                assert got.dropped == expected.dropped
                assert got.exact_projections == expected.exact_projections

    @given(data=st.data())
    @DIFFERENTIAL
    def test_shared_rewrite_equals_own_rewrite(self, data):
        """Through one shared cache, every seller's rewrite is the one
        its own holdings give, field for field, whoever computed it."""
        catalog, nodes, builder, n = data.draw(worlds())
        asked = data.draw(st.lists(queries(n), min_size=1, max_size=4))
        cache = OfferCache()
        for node in nodes:
            local = catalog.local(node)
            agent = SellerAgent(local, builder, offer_cache=cache)
            for query in asked:
                got = agent._rewrite(query)
                expected = rewrite_query(
                    query, local.schemas, local.schemes, local.held
                )
                if expected is None:
                    assert got is None
                    continue
                assert got.query == expected.query
                assert got.query.sql() == expected.query.sql()
                assert dict(got.coverage) == dict(expected.coverage)
                assert got.dropped == expected.dropped
                assert got.exact_projections == expected.exact_projections

    def test_unequal_holdings_with_equal_coverage_share_one_rewrite(
        self, monkeypatch
    ):
        import repro.trading.seller as seller_module

        calls = []
        real = seller_module.rewrite_query

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(seller_module, "rewrite_query", counted)
        catalog, _nodes, _est, _model, builder = make_federation(
            n_relations=2, fragments=4
        )
        query = chain_query(2).restrict(eq(column("r0", "part"), 0))
        base = catalog.local("client")
        cache = OfferCache()
        agents = [
            SellerAgent(
                replace(
                    base,
                    node=f"s{i}",
                    held={"R0": frozenset(r0), "R1": frozenset({0, 1})},
                ),
                builder,
                offer_cache=cache,
            )
            for i, r0 in enumerate(({0, 1}, {0, 2, 3}))
        ]
        assert agents[0].local.held != agents[1].local.held
        first, second = (agent._rewrite(query) for agent in agents)
        assert dict(first.coverage) == {
            "r0": frozenset({0}), "r1": frozenset({0, 1})
        }
        assert second is first
        assert calls == [query]

    def test_seller_disjoint_from_the_selection_never_rewrites(
        self, monkeypatch
    ):
        import repro.trading.seller as seller_module

        def forbidden(*_args):
            raise AssertionError("a disjoint seller rewrote a query")

        monkeypatch.setattr(seller_module, "rewrite_query", forbidden)
        catalog, _nodes, _est, _model, builder = make_federation(
            n_relations=2, fragments=4
        )
        local = replace(
            catalog.local("client"),
            node="s0",
            held={"R0": frozenset({1, 2}), "R1": frozenset({3})},
        )
        query = (
            chain_query(2)
            .restrict(eq(column("r0", "part"), 0))
            .restrict(eq(column("r1", "part"), 0))
        )
        assert compatible_coverage(query, local.schemes, local.held) == {}
        for options in ({}, {"use_offer_cache": False}):
            agent = SellerAgent(local, builder, **options)
            assert agent._rewrite(query) is None
            assert agent.prepare_offers(
                RequestForBids("client", (query,))
            ) == ([], 0.0)

    def test_equal_queries_with_other_literal_text_get_their_own_rewrite(self):
        # ``cat = 1`` and ``cat = 1.0`` are equal as SPJQuery objects but
        # render, and so rewrite, to different SQL.
        as_int, as_float = chain_query(2, 1), chain_query(2, 1.0)
        assert as_int == as_float and as_int.sql() != as_float.sql()
        catalog, nodes, _est, _model, builder = make_federation()
        cache = OfferCache()
        for node in nodes:
            agent = SellerAgent(catalog.local(node), builder, offer_cache=cache)
            for asked in (as_int, as_float):
                got = agent._rewrite(asked)
                local = agent.local
                expected = rewrite_query(
                    asked, local.schemas, local.schemes, local.held
                )
                assert (got and got.query.sql()) == (
                    expected and expected.query.sql()
                )

    def test_replicas_share_one_rewrite(self, monkeypatch):
        import repro.trading.seller as seller_module

        catalog, nodes, _est, _model, builder = make_federation(
            nodes=4, n_relations=2, fragments=1, replicas=4
        )
        calls = []
        real = seller_module.rewrite_query

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(seller_module, "rewrite_query", counted)
        rfb = RequestForBids("client", (chain_query(2), chain_query(1)))
        cache = OfferCache()
        for node in nodes:
            SellerAgent(
                catalog.local(node), builder, offer_cache=cache
            ).prepare_offers(rfb)
        # Four replicas, two queries, one rewrite each; client holds
        # nothing and never rewrites.
        assert len(calls) == 2
        calls.clear()
        for node in nodes:
            SellerAgent(
                catalog.local(node), builder, use_offer_cache=False
            ).prepare_offers(rfb)
        assert len(calls) == 8

    def test_empty_seller_never_rewrites(self, monkeypatch):
        import repro.trading.seller as seller_module

        def forbidden(*_args):
            raise AssertionError("an empty seller rewrote a query")

        monkeypatch.setattr(seller_module, "rewrite_query", forbidden)
        catalog, _nodes, _est, _model, builder = make_federation()
        agent = SellerAgent(catalog.local("client"), builder)
        rfb = RequestForBids("client", (chain_query(3), chain_query(1)))
        assert agent.prepare_offers(rfb) == ([], 0.0)


class TestSkipEdgeCases:
    def test_view_only_seller_still_offers_its_view(self):
        catalog, _nodes, _est, _model, builder = make_federation()
        query = chain_query(2)
        local = replace(
            catalog.local("client"),
            views=(MaterializedView("v", query, row_count=50),),
        )
        offers, work = SellerAgent(local, builder).prepare_offers(
            RequestForBids("client", (query,))
        )
        assert len(offers) == 1
        assert offers[0].query == query and offers[0].exact_projections
        assert work == SECONDS_PER_VIEW_MATCH

    def test_subcontracting_seller_buys_what_it_lacks(self):
        # R0 lives on node0 only, R1 on node1 only.
        catalog, nodes, _est, _model, builder = make_federation(
            nodes=4, n_relations=2, fragments=1, replicas=1
        )
        local = catalog.local("node0")
        assert set(local.held) == {"R0"}
        peers = {
            node: SellerAgent(catalog.local(node), builder)
            for node in nodes
            if node != "node0"
        }
        agent = SellerAgent(
            local, builder, subcontractor=Subcontractor(peers)
        )
        offers, _ = agent.prepare_offers(
            RequestForBids("client", (chain_query(2),))
        )
        assert frozenset({"r0", "r1"}) in {o.aliases for o in offers}

    def test_subcontracting_empty_seller_still_asks_its_subcontractor(self):
        catalog, nodes, _est, _model, builder = make_federation()
        asked = []

        class Recording(Subcontractor):
            def augment(self, seller, query, rewritten, ctx):
                asked.append((query, rewritten))
                return super().augment(seller, query, rewritten, ctx)

        peers = {
            node: SellerAgent(catalog.local(node), builder)
            for node in nodes
            if node != "client"
        }
        rfb = RequestForBids("client", (chain_query(2), chain_query(1)))
        local = catalog.local("client")
        offers, work = SellerAgent(
            local, builder, subcontractor=Recording(peers)
        ).prepare_offers(rfb)
        assert asked == [(q, None) for q in rfb.queries]
        assert fingerprint(offers, work) == fingerprint(
            *naive_agent(
                local, builder, subcontractor=Subcontractor(peers)
            ).prepare_offers(rfb)
        )

    @pytest.mark.parametrize("with_view", [False, True])
    def test_traced_empty_seller_records_as_before(self, with_view):
        from repro.trading.commodity import offer_id_scope

        catalog, _nodes, _est, _model, builder = make_federation()
        rfb = RequestForBids(
            "client", (chain_query(2), chain_query(1)), round_number=1
        )
        local = catalog.local("client")
        if with_view:
            local = replace(
                local,
                views=(MaterializedView("v", rfb.queries[0], row_count=50),),
            )
        rows = []
        for agent in (
            SellerAgent(local, builder),
            naive_agent(local, builder),
        ):
            agent.tracer = Tracer()
            with offer_id_scope():
                agent.prepare_offers(rfb)
            rows.append(record_rows(agent.tracer))
        assert rows[0] == rows[1]
        assert rows[0][0][2] == "seller.prepare_offers"


# -- pricing shared by the sellers of one RFB --------------------------------

_CAPS = (
    NodeCapabilities(),
    NodeCapabilities(cpu_rate=1e6),
    NodeCapabilities(load=0.5, price_per_second=2.0),
)


@st.composite
def seller_decks(draw, catalog, nodes, asked):
    """Sellers for one RFB: replicas of a few nodes, some holding only
    part of what their node holds, each with its capabilities, strategy
    (an adaptive one with its own win/loss history), views, cache
    (one shared, one shared with room for two entries, a private one or
    none) and maybe a subcontractor; then the delivery order, which may
    deliver the RFB to one seller twice."""
    specs = []
    for base in draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=3)
    ):
        held = catalog.local(base).held
        caps = draw(st.sampled_from(range(len(_CAPS))))
        cache = draw(st.sampled_from(["shared", "tiny", "own", "none"]))
        for copy in range(draw(st.integers(1, 4))):
            # Most copies are replicas of the one before; some hold part
            # of it, run on other capabilities or use another cache.
            if draw(st.integers(0, 3)) == 0:
                held = {
                    name: frozenset(
                        draw(st.sets(st.sampled_from(sorted(fids))))
                    ) if fids else fids
                    for name, fids in sorted(held.items())
                }
            if draw(st.integers(0, 3)) == 0:
                caps = draw(st.sampled_from(range(len(_CAPS))))
            if draw(st.integers(0, 3)) == 0:
                cache = draw(st.sampled_from(["shared", "tiny", "own"]))
            specs.append({
                "base": base,
                "name": f"{base}-{len(specs)}",
                "held": held,
                "caps": caps,
                "strategy": draw(
                    st.sampled_from(["cooperative", "competitive", "adaptive"])
                ),
                "history": draw(st.lists(st.booleans(), max_size=3)),
                "views": draw(st.lists(st.sampled_from(asked), max_size=1)),
                "cache": cache,
                "subcontracts": draw(st.booleans()),
            })
    order = list(range(len(specs)))
    if draw(st.booleans()):
        order.insert(
            draw(st.integers(0, len(order))),
            draw(st.sampled_from(order)),
        )
    return specs, order


def price_deck(catalog, builder, specs, order, rfb_for):
    """Deliver ``rfb_for()`` to the sellers of *specs* in *order*: every
    seller's offers and work, every cache's counts and the trace."""
    tracer = Tracer()
    priced = PlanBuilder(
        builder.estimator,
        builder.cost_model,
        capabilities={spec["name"]: _CAPS[spec["caps"]] for spec in specs},
        schemes=builder.schemes,
    )
    caches = {"shared": OfferCache(), "tiny": OfferCache(max_entries=2)}
    agents = {}
    for spec in specs:
        local = replace(
            catalog.local(spec["base"]),
            node=spec["name"],
            held=spec["held"],
            views=tuple(
                MaterializedView(f"v{i}", q, row_count=100)
                for i, q in enumerate(spec["views"])
            ),
        )
        strategy = {
            "cooperative": None,
            "competitive": CompetitiveSellerStrategy(margin=0.2),
            "adaptive": AdaptiveMarginStrategy(),
        }[spec["strategy"]]
        for won in spec["history"]:
            if strategy is not None:
                strategy.record_outcome("any", won)
        cache = spec["cache"]
        options = (
            {"use_offer_cache": False} if cache == "none"
            else {"offer_cache": caches.setdefault(
                cache if cache != "own" else spec["name"], OfferCache()
            )}
        )
        if spec["subcontracts"]:
            options["subcontractor"] = Subcontractor(max_peers=3)
        agent = SellerAgent(local, priced, strategy=strategy, **options)
        agent.tracer = tracer
        agents[spec["name"]] = agent
    for name, agent in agents.items():
        if agent.subcontractor is not None:
            agent.subcontractor.connect(
                {peer: a for peer, a in agents.items() if peer != name}
            )
    for cache in caches.values():
        cache.tracer = tracer
    delivered = []
    with offer_id_scope():
        for index in order:
            agent = agents[specs[index]["name"]]
            delivered.append(fingerprint(*agent.prepare_offers(rfb_for())))
    stats = {
        name: (s.hits, s.misses, s.evictions, s.intern_hits)
        for name, s in ((n, c.stats) for n, c in sorted(caches.items()))
    }
    return delivered, stats, record_rows(tracer)


class TestSharedPricing:
    @given(data=st.data())
    @DIFFERENTIAL
    def test_one_rfb_prices_as_a_copy_per_seller(self, data):
        """Sellers priced over one RFB offer (bit for bit, in order),
        charge, count and trace what each does over its own copy of it,
        the reference that shares nothing."""
        catalog, nodes, builder, n = data.draw(worlds())
        asked = tuple(data.draw(st.lists(queries(n), min_size=1, max_size=3)))
        reservations = {
            q.key(): data.draw(st.sampled_from([0.01, 1.0, 100.0]))
            for q in asked
            if data.draw(st.booleans())
        }
        rfb = RequestForBids(
            "client", asked, reservations,
            round_number=data.draw(st.integers(0, 2)),
        )
        specs, order = data.draw(seller_decks(catalog, nodes, asked))
        shared = price_deck(catalog, builder, specs, order, lambda: rfb)
        own = price_deck(catalog, builder, specs, order, lambda: replace(rfb))
        assert shared == own

    def test_copies_of_an_rfb_share_no_pricing_work(self):
        import copy
        import pickle

        catalog, nodes, _est, _model, builder = make_federation()
        rfb = RequestForBids("client", (chain_query(2),))
        for node in nodes:
            SellerAgent(catalog.local(node), builder).prepare_offers(rfb)
        assert rfb._memo.classes
        for other in (
            replace(rfb), copy.deepcopy(rfb), pickle.loads(pickle.dumps(rfb))
        ):
            assert other == rfb
            assert not other._memo.classes and not other._memo.fragments

    def test_subcontractor_reads_a_replicas_stored_entry(self):
        """Replicas holding R0 alone: each later one stores its own
        entry for the local part, and its subcontractor joins that entry
        with the R1 it buys."""
        catalog, nodes, _est, _model, builder = make_federation(
            nodes=4, n_relations=2, fragments=1, replicas=1
        )
        assert set(catalog.local("node0").held) == {"R0"}
        specs = [
            {
                "base": "node0", "name": f"node0-{i}",
                "held": catalog.local("node0").held, "caps": 0,
                "strategy": strategy, "history": [False] * i, "views": [],
                "cache": "shared", "subcontracts": True,
            }
            for i, strategy in enumerate(
                ["cooperative", "adaptive", "adaptive"]
            )
        ] + [
            {
                "base": node, "name": node, "held": catalog.local(node).held,
                "caps": 0, "strategy": "cooperative", "history": [],
                "views": [], "cache": "shared", "subcontracts": False,
            }
            for node in nodes
            if node not in ("node0", "client")
        ]
        rfb = RequestForBids("client", (chain_query(2),))
        order = list(range(len(specs)))
        shared = price_deck(catalog, builder, specs, order, lambda: rfb)
        own = price_deck(catalog, builder, specs, order, lambda: replace(rfb))
        assert shared == own
        combined = [
            offer for offer in shared[0][1][0]
            if offer[1][2] == (("r0", (0,)), ("r1", (0,)))
        ]
        assert combined
