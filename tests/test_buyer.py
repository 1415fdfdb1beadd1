"""Unit tests for the buyer plan generator and predicates analyser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import BUYER, build_world
from repro.net import Network
from repro.sql import RelationRef, SPJQuery, column, eq, in_list
from repro.trading import (
    AnswerProperties,
    BuyerPlanGenerator,
    Offer,
    OfferCache,
    QueryTrader,
)
from repro.trading.buyer import BuyerPredicatesAnalyser, _Rectangles
from repro.trading.commodity import offer_id_scope
from repro.trading.valuation import TIME_ONLY, Valuation
from repro.workload import chain_query, star_query
from tests.conftest import assert_golden, gather_offers, make_federation


@pytest.fixture(scope="module")
def world():
    catalog, nodes, estimator, model, builder = make_federation(
        nodes=8, n_relations=3, fragments=4, replicas=1, seed=3
    )
    return catalog, builder


def offer(
    query,
    coverage,
    time=1.0,
    rows=100.0,
    seller="s1",
    exact=False,
    money=0.0,
    request=None,
):
    return Offer(
        seller=seller,
        query=query,
        coverage={a: frozenset(f) for a, f in coverage.items()},
        properties=AnswerProperties(total_time=time, rows=rows, money=money),
        exact_projections=exact,
        request_key=(request or query).key(),
    )


def rectangles(**required):
    """A rectangle layout over *required* (alias -> fragment ids)."""
    return _Rectangles(
        sorted(required), {a: frozenset(f) for a, f in required.items()}
    )


class TestUnionCoverage:
    def test_merges_single_differing_alias(self):
        rects = rectangles(a={0, 1}, b={1})
        first = rects.encode({"a": {0}, "b": {1}})
        second = rects.encode({"a": {1}, "b": {1}})
        pivot = rects.union_pivot(first, second)
        assert pivot == rects.encode({"a": {0}})  # differs on a, from 0
        assert first & pivot and not second & pivot  # first leads
        assert first | second == rects.encode({"a": {0, 1}, "b": {1}})

    def test_rejects_two_differences(self):
        rects = rectangles(a={0, 1}, b={0, 1})
        assert not rects.union_pivot(
            rects.encode({"a": {0}, "b": {0}}),
            rects.encode({"a": {1}, "b": {1}}),
        )

    def test_rejects_overlap(self):
        rects = rectangles(a={0, 1, 2})
        assert not rects.union_pivot(
            rects.encode({"a": {0, 1}}), rects.encode({"a": {1, 2}})
        )

    def test_rejects_identical(self):
        rects = rectangles(a={0})
        assert not rects.union_pivot(
            rects.encode({"a": {0}}), rects.encode({"a": {0}})
        )

    def test_rejects_different_aliases(self):
        rects = rectangles(a={0}, b={0})
        assert not rects.union_pivot(
            rects.encode({"a": {0}}), rects.encode({"b": {0}})
        )


class TestIsComplete:
    def test_complete(self):
        rects = rectangles(a={0, 1}, b={0})
        only_a = 0b01  # alias subset mask: bit 0 is "a"
        assert rects.encode({"a": {0, 1}}) == rects.required(only_a)
        assert rects.encode({"a": {0}}) != rects.required(only_a)


# A rectangle layout and two rectangles over one alias subset of it, as
# two entries of one bucket are: non-contiguous fragment ids, ids >= 64.
@st.composite
def rectangle_pairs(draw):
    fragment_sets = st.frozensets(
        st.integers(0, 200), min_size=1, max_size=6
    )
    required = {
        f"r{i}": draw(fragment_sets) for i in range(draw(st.integers(1, 6)))
    }
    subset = draw(
        st.lists(st.sampled_from(sorted(required)), min_size=1, unique=True)
    )

    def rectangle():
        return {
            alias: draw(
                st.frozensets(
                    st.sampled_from(sorted(required[alias])), min_size=1
                )
            )
            for alias in subset
        }

    first = rectangle()
    # Half the time a near miss: the same rectangle but for one alias,
    # and there preferably over fragments the first one lacks.
    second = rectangle()
    if draw(st.booleans()):
        changed = draw(st.sampled_from(subset))
        second = {**first, changed: second[changed]}
        unused = sorted(required[changed] - first[changed])
        if unused and draw(st.booleans()):
            second[changed] = draw(
                st.frozensets(st.sampled_from(unused), min_size=1)
            )
    return required, first, second


def union_oracle(a, b):
    """``(differing alias, merged rectangle)`` if *a* and *b* differ on
    exactly one alias with disjoint fragment sets there, else ``None``."""
    differing = [alias for alias in a if a[alias] != b[alias]]
    if len(differing) != 1 or a[differing[0]] & b[differing[0]]:
        return None
    merged = dict(a)
    merged[differing[0]] |= b[differing[0]]
    return differing[0], merged


class TestRectangles:
    @settings(max_examples=300, deadline=None)
    @given(rectangle_pairs())
    def test_integer_operations_agree_with_sets(self, drawn):
        required, a, b = drawn
        aliases = sorted(required)
        rects = _Rectangles(aliases, required)
        ra, rb = rects.encode(a), rects.encode(b)
        pivot = rects.union_pivot(ra, rb)
        expected = union_oracle(a, b)
        assert bool(pivot) == (expected is not None)
        if expected is not None:
            differing, merged = expected
            assert ra | rb == rects.encode(merged)
            # orientation: the operand holding the pivot has the smaller
            # minimum fragment on the differing alias
            assert bool(ra & pivot) == (min(a[differing]) < min(b[differing]))
        subset = sum(1 << aliases.index(alias) for alias in a)
        for coverage, rect in ((a, ra), (b, rb)):
            complete = all(coverage[x] >= required[x] for x in coverage)
            assert (rect == rects.required(subset)) == complete


class TestPlanGeneration:
    def test_single_full_offer(self, world):
        catalog, builder = world
        query = chain_query(2)
        full_coverage = {
            "r0": catalog.scheme("R0").fragment_ids,
            "r1": catalog.scheme("R1").fragment_ids,
        }
        generator = BuyerPlanGenerator(builder, "client")
        result = generator.generate(
            query, [offer(query, full_coverage, time=2.0)]
        )
        assert result.found
        assert result.best.properties.total_time >= 2.0

    def test_fragment_union_assembly(self, world):
        catalog, builder = world
        query = chain_query(1)
        sub = query
        frags = sorted(catalog.scheme("R0").fragment_ids)
        offers = [
            offer(sub, {"r0": {f}}, time=0.5, seller=f"s{f}") for f in frags
        ]
        generator = BuyerPlanGenerator(builder, "client")
        result = generator.generate(query, offers)
        assert result.found
        # all four purchases appear
        assert len(result.best.purchased()) == len(frags)

    def test_join_of_partial_offers(self, world):
        catalog, builder = world
        query = chain_query(2)
        r0 = query.subquery_on(["r0"])
        r1 = query.subquery_on(["r1"])
        offers = [
            offer(r0, {"r0": catalog.scheme("R0").fragment_ids}, time=0.5),
            offer(r1, {"r1": catalog.scheme("R1").fragment_ids}, time=0.5),
        ]
        generator = BuyerPlanGenerator(builder, "client")
        result = generator.generate(query, offers)
        assert result.found

    def test_incomplete_coverage_fails(self, world):
        catalog, builder = world
        query = chain_query(1)
        result = BuyerPlanGenerator(builder, "client").generate(
            query, [offer(query, {"r0": {0}})]
        )
        assert not result.found

    def test_selection_shrinks_required(self, world):
        catalog, builder = world
        query = chain_query(1).restrict(eq(column("r0", "part"), 2))
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        assert required["r0"] == frozenset({2})
        result = generator.generate(
            query, [offer(query, {"r0": {2}}, time=0.1)]
        )
        assert result.found

    def test_cheaper_replica_wins(self, world):
        catalog, builder = world
        query = chain_query(1)
        frags = catalog.scheme("R0").fragment_ids
        cheap = offer(query, {"r0": frags}, time=0.5, seller="cheap")
        pricey = offer(query, {"r0": frags}, time=5.0, seller="pricey")
        result = BuyerPlanGenerator(builder, "client").generate(
            query, [pricey, cheap]
        )
        sellers = {p.seller for p in result.best.purchased()}
        assert sellers == {"cheap"}

    def test_exact_final_offer_skips_reaggregation(self, world):
        catalog, builder = world
        query = chain_query(2, aggregate=True)
        coverage = {
            "r0": catalog.scheme("R0").fragment_ids,
            "r1": catalog.scheme("R1").fragment_ids,
        }
        final = offer(query, coverage, time=1.0, exact=True)
        result = BuyerPlanGenerator(builder, "client").generate(query, [final])
        assert result.found
        from repro.optimizer.plans import Purchased

        assert isinstance(result.best.plan, Purchased)

    def test_union_of_final_partial_aggregates(self, world):
        catalog, builder = world
        query = chain_query(2, aggregate=True)
        r1_full = catalog.scheme("R1").fragment_ids
        parts = [
            offer(query, {"r0": {f}, "r1": r1_full}, time=0.5,
                  seller=f"s{f}", exact=True)
            for f in sorted(catalog.scheme("R0").fragment_ids)
        ]
        result = BuyerPlanGenerator(builder, "client").generate(query, parts)
        assert result.found
        from repro.optimizer.plans import GroupAgg

        # no re-aggregation on top of exact partial aggregates
        assert not isinstance(result.best.plan, GroupAgg)

    def test_money_accumulates(self, world):
        catalog, builder = world
        query = chain_query(1)
        frags = sorted(catalog.scheme("R0").fragment_ids)
        offers = [
            offer(query, {"r0": {f}}, time=0.5, money=1.0, seller=f"s{f}")
            for f in frags
        ]
        result = BuyerPlanGenerator(builder, "client").generate(query, offers)
        assert result.best.properties.money == pytest.approx(len(frags))

    def test_idp_mode_still_finds_plans(self, world):
        catalog, builder = world
        query = chain_query(3)
        offers = []
        for alias, rel in (("r0", "R0"), ("r1", "R1"), ("r2", "R2")):
            sub = query.subquery_on([alias])
            offers.append(
                offer(sub, {alias: catalog.scheme(rel).fragment_ids},
                      time=0.5, seller=f"s-{alias}")
            )
        result = BuyerPlanGenerator(builder, "client", mode="idp").generate(
            query, offers
        )
        assert result.found

    def test_bad_mode_rejected(self, world):
        _, builder = world
        with pytest.raises(ValueError):
            BuyerPlanGenerator(builder, "client", mode="magic")

    def test_exact_flag_is_relative_to_request_not_original(self, world):
        """Regression: an offer answering a derived SELECT * sub-query is
        'exact' for ITS request but must seed a RAW entry for the
        original aggregate — otherwise final partial aggregates union
        with raw fragment rows and the executed answer is garbage."""
        catalog, builder = world
        query = chain_query(1, aggregate=True)  # GROUP BY r0.part
        frags = sorted(catalog.scheme("R0").fragment_ids)
        # a final partial aggregate for fragment 0
        final_part = offer(
            query.restrict(eq(column("r0", "part"), frags[0])),
            {"r0": {frags[0]}},
            time=0.5,
            exact=True,
            request=query,
        )
        # 'exact' SELECT * answers for the other fragments (their own
        # request was the derived single-relation part)
        raw_parts = [
            offer(
                query.subquery_on(["r0"]).restrict(
                    eq(column("r0", "part"), f)
                ),
                {"r0": {f}},
                time=0.5,
                exact=True,  # exact w.r.t. the derived SELECT * request
                seller=f"s{f}",
                request=query,
            )
            for f in frags[1:]
        ]
        result = BuyerPlanGenerator(builder, "client").generate(
            query, [final_part] + raw_parts
        )
        if result.found:
            from repro.optimizer.plans import Purchased

            star_flags = {
                leaf.query.is_star
                for leaf in result.best.plan.leaves()
                if isinstance(leaf, Purchased)
            }
            # never mixes final-shaped and raw answers in one plan
            assert len(star_flags) == 1

    def test_candidates_sorted_by_value(self, world):
        catalog, builder = world
        query = chain_query(1)
        frags = catalog.scheme("R0").fragment_ids
        offers = [
            offer(query, {"r0": frags}, time=1.0, seller="a"),
            offer(query, {"r0": frags}, time=2.0, seller="b"),
        ]
        result = BuyerPlanGenerator(builder, "client").generate(query, offers)
        values = [c.value for c in result.candidates]
        assert values == sorted(values)


class _CountingValuation(Valuation):
    """The default valuation, counting how often it is asked."""

    def __init__(self):
        self.calls = 0

    def value(self, properties):
        self.calls += 1
        return TIME_ONLY.value(properties)


class _RecordingGenerator(BuyerPlanGenerator):
    """Keeps each round's ``enumerated`` (the trader only keeps the
    simulated seconds it charges for them)."""

    def generate(self, query, offers, **kwargs):
        result = super().generate(query, offers, **kwargs)
        self.rounds.append(result.enumerated)
        return result


class TestLattice:
    """Guards on the generator's search lattice: the benchmark charges
    ``enumerated`` to the simulated clock and digests the plan bytes, so
    an "optimisation" that builds different entries must fail here."""

    def test_each_entry_scored_once(self):
        catalog, nodes, _est, _model, builder = make_federation(
            nodes=6, n_relations=6
        )
        query = chain_query(6)
        offers = gather_offers(catalog, nodes, builder, query)
        valuation = _CountingValuation()
        result = BuyerPlanGenerator(
            builder, "client", valuation=valuation
        ).generate(query, offers)
        assert result.found
        assert valuation.calls == result.enumerated + len(result.candidates)

    @pytest.mark.parametrize("shape", ["chain9", "star6"])
    def test_trade_deep_lattice_pinned(self, shape):
        query = {
            "chain9": chain_query(9, selection_cat=3),
            "star6": star_query(5),
        }[shape]
        # The world of the benchmark's trade_deep workload.
        world = build_world(nodes=32, n_relations=9, fragments=4, replicas=2)
        generator = _RecordingGenerator(world.builder, BUYER)
        generator.rounds = []
        trader = QueryTrader(
            BUYER,
            world.seller_agents(offer_cache=OfferCache()),
            Network(world.model),
            generator,
        )
        with offer_id_scope():
            result = trader.optimize(query)
        assert result.found
        assert_golden(
            f"trade_deep[{shape}]",
            generator.rounds,
            [result.best.plan.explain()],
        )


class TestPredicatesAnalyser:
    def test_complement_queries(self, world):
        catalog, builder = world
        query = chain_query(1)
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        partial = offer(query, {"r0": {0}})
        derived = analyser.derive(query, [partial], required)
        # asks for the missing fragments {1,2,3}
        assert any(
            "part" in q.predicate.sql() and "r0" in q.sql() for q in derived
        )

    def test_per_relation_parts(self, world):
        catalog, builder = world
        query = chain_query(3)
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        derived = analyser.derive(query, [], required)
        assert len(derived) == 3  # one per relation

    def test_overlap_deconfliction(self, world):
        catalog, builder = world
        query = chain_query(1)
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        o1 = offer(query, {"r0": {0, 1}}, seller="a")
        o2 = offer(query, {"r0": {1, 2}}, seller="b")
        derived = analyser.derive(query, [o1, o2], required)
        keys = {q.key() for q in derived}
        assert len(keys) == len(derived)
        assert derived  # difference queries emitted

    def test_sort_variant(self, world):
        catalog, builder = world
        query = chain_query(2).with_order([column("r0", "id")])
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        derived = analyser.derive(query, [], required)
        assert any(not q.order_by for q in derived)

    def test_no_duplicates(self, world):
        catalog, builder = world
        query = chain_query(2)
        generator = BuyerPlanGenerator(builder, "client")
        required = generator.required_coverage(query)
        analyser = BuyerPredicatesAnalyser(catalog.schemes)
        o1 = offer(query.subquery_on(["r0"]), {"r0": {0}}, seller="a")
        o2 = offer(query.subquery_on(["r0"]), {"r0": {0}}, seller="b")
        derived = analyser.derive(query, [o1, o2], required)
        keys = [q.key() for q in derived]
        assert len(keys) == len(set(keys))
