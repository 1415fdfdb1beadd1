"""Unit tests for the buyer plan generator and predicates analyser."""

import heapq
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, count
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import BUYER, build_world
from repro.net import Network
from repro.optimizer import PlanBuilder
from repro.optimizer.plans import (
    HashJoin,
    NestedLoopJoin,
    Purchased,
    Union,
)
from repro.sql import RelationRef, SPJQuery, column, eq, in_list
from repro.sql.expr import conjoin
from repro.trading import (
    AnswerProperties,
    BuyerPlanGenerator,
    Offer,
    OfferCache,
    QueryTrader,
    SellerAgent,
)
from repro.trading.buyer import (
    FINAL,
    RAW,
    BuyerPredicatesAnalyser,
    PlanGenResult,
    _Entry,
    _Rectangles,
)
from repro.trading.commodity import next_offer_id, offer_id_scope
from repro.trading.valuation import TIME_ONLY, Valuation, WeightedValuation
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


def partners(rects, rect, others, leading=False):
    """The rectangles among *others* that the partner scan yields for
    *rect*, in order (a bucket entry is, to the scan, its rectangle)."""
    pieces = [SimpleNamespace(rect=other) for other in others]
    return [piece.rect for piece in rects.partners(rect, pieces, leading)]


class TestUnionCoverage:
    def test_merges_single_differing_alias(self):
        rects = rectangles(a={0, 1}, b={1})
        first = rects.encode({"a": {0}, "b": {1}})
        second = rects.encode({"a": {1}, "b": {1}})
        assert partners(rects, first, [second]) == [second]
        assert partners(rects, second, [first]) == [first]
        # differs on a, where first has the smaller fragment: first leads
        assert partners(rects, first, [second], leading=True) == [second]
        assert partners(rects, second, [first], leading=True) == []
        assert first | second == rects.encode({"a": {0, 1}, "b": {1}})

    def test_rejects_two_differences(self):
        rects = rectangles(a={0, 1}, b={0, 1})
        assert not partners(
            rects,
            rects.encode({"a": {0}, "b": {0}}),
            [rects.encode({"a": {1}, "b": {1}})],
        )

    def test_rejects_overlap(self):
        rects = rectangles(a={0, 1, 2})
        assert not partners(
            rects, rects.encode({"a": {0, 1}}), [rects.encode({"a": {1, 2}})]
        )

    def test_rejects_identical(self):
        rects = rectangles(a={0})
        assert not partners(
            rects, rects.encode({"a": {0}}), [rects.encode({"a": {0}})]
        )

    def test_rejects_different_aliases(self):
        rects = rectangles(a={0}, b={0})
        assert not partners(
            rects, rects.encode({"a": {0}}), [rects.encode({"b": {0}})]
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


@st.composite
def rectangle_pools(draw):
    """A rectangle and a pool of others over the same aliases, as one
    bucket's entries are; most of the pool are near misses of it."""
    required, first, _second = draw(rectangle_pairs())
    subset = sorted(first)

    def fragments(alias):
        return draw(
            st.frozensets(st.sampled_from(sorted(required[alias])), min_size=1)
        )

    pool = []
    for _ in range(draw(st.integers(0, 12))):
        other = dict(first)
        for changed in draw(
            st.lists(st.sampled_from(subset), min_size=1, max_size=2)
        ):
            other[changed] = fragments(changed)
        pool.append(other)
    return required, first, pool


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
        expected = union_oracle(a, b)
        # in scan order, skipping the rectangle itself
        found = partners(rects, ra, [rb, ra, rb])
        assert found == ([] if expected is None else [rb, rb])
        if expected is not None:
            differing, merged = expected
            assert ra | rb == rects.encode(merged)
            # orientation: the operand with the smaller minimum fragment
            # on the differing alias leads
            a_leads = min(a[differing]) < min(b[differing])
            assert partners(rects, ra, [rb], leading=True) == (
                [rb] if a_leads else []
            )
            assert partners(rects, rb, [ra], leading=True) == (
                [] if a_leads else [ra]
            )
        subset = sum(1 << aliases.index(alias) for alias in a)
        for coverage, rect in ((a, ra), (b, rb)):
            complete = all(coverage[x] >= required[x] for x in coverage)
            assert (rect == rects.required(subset)) == complete

    @settings(max_examples=300, deadline=None)
    @given(rectangle_pools(), st.booleans())
    def test_candidates_agree_with_oracle(self, drawn, leading):
        required, a, pool = drawn
        rects = _Rectangles(sorted(required), required)
        ra = rects.encode(a)
        found = rects.candidates(ra, 1 << 40, leading)
        assert len(set(found)) == len(found) and ra not in found
        # probed against the pool, as the closure probes its bucket
        probed = set(map(rects.encode, pool)) & set(found)
        expected = set()
        for b in pool:
            union = union_oracle(a, b)
            if union is None:
                continue
            differing = union[0]
            if not leading or min(a[differing]) < min(b[differing]):
                expected.add(rects.encode(b))
        assert probed == expected
        # the bound: None from `limit` candidates on, without building any
        assert rects.candidates(ra, len(found), leading) is None
        assert rects.candidates(ra, len(found) + 1, leading) == found

    def test_candidates_bounded_on_wide_fields(self):
        twenty = set(range(20))
        rects = rectangles(a=twenty, b=twenty)
        # 2 × (2^19 − 1) leading candidates: counted, not enumerated
        assert rects.candidates(
            rects.encode({"a": {0}, "b": {0}}), 1000, leading=True
        ) is None
        # a rectangle lacking one fragment per alias has few partners
        near = rects.encode({"a": twenty - {19}, "b": twenty - {0}})
        a_partner = rects.encode({"a": {19}, "b": twenty - {0}})
        b_partner = rects.encode({"a": twenty - {19}, "b": {0}})
        assert rects.candidates(near, 1000, leading=True) == [a_partner]
        assert sorted(rects.candidates(near, 1000)) == sorted(
            [a_partner, b_partner]
        )
        assert rects.candidates(near, 2) is None


class _Offering(BuyerPlanGenerator):
    """Keeps every entry offered to a bucket, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.offered = []

    def _add_entry(self, subsets, subset, entry):
        self.offered.append(entry)
        return super()._add_entry(subsets, subset, entry)


class _ScanClosureGenerator(_Offering):
    """The union closure before partner lookup, as the reference the
    lookup closure must reproduce: every live pop scans a copy of the
    whole bucket, and evicted entries stay in the heap until popped."""

    def _union_closure(self, subsets, subset, query, rects):
        bucket = subsets.get(subset)
        if not bucket or len(bucket) < 2:
            return 0
        enumerated = 0
        full = rects.required(subset)
        counter = count()
        heap = [(e.score, next(counter), e) for e in bucket.values()]
        heapq.heapify(heap)
        pops = 0
        while heap and pops < self.union_budget:
            _cost, _seq, a = heapq.heappop(heap)
            if bucket.get(a.key) is not a:
                continue  # evicted or superseded
            pops += 1
            form = a.form
            scan = list(bucket.values())  # the bucket grows as we go
            for b in rects.partners(a.rect, scan, leading=True):
                if b.form != form:
                    continue
                entry = self._union_entry(a, b, query, full)
                enumerated += 1
                if self._add_entry(subsets, subset, entry):
                    heapq.heappush(heap, (entry.score, next(counter), entry))
            if len(bucket) > self.max_entries_per_subset * 4:
                self._prune(
                    subsets, subset, cap=self.max_entries_per_subset * 2
                )
                bucket = subsets[subset]
        enumerated += self._greedy_complete(subsets, subset, query, rects)
        return enumerated


@st.composite
def closure_buckets(draw):
    """Seed entries of one bucket over every alias of a small layout
    (≤ 4 aliases × 3–6 fragments), shaped like fragment offers: each is
    a base rectangle with at most one alias narrowed to a few
    fragments, so most pairs are partners.  Both forms, some complete,
    some sharing a key, with small round numbers so scores tie."""
    required = {
        f"r{i}": frozenset(range(draw(st.integers(3, 6))))
        for i in range(draw(st.integers(1, 4)))
    }
    subset = (1 << len(required)) - 1
    rects = _Rectangles(sorted(required), required)

    def fragments(alias, max_size=None):
        return draw(
            st.frozensets(
                st.sampled_from(sorted(required[alias])),
                min_size=1,
                max_size=max_size,
            )
        )

    base = {
        alias: fids if draw(st.booleans()) else fragments(alias)
        for alias, fids in required.items()
    }
    narrowable = draw(
        st.lists(st.sampled_from(sorted(required)), min_size=1, max_size=2)
    )
    seeds = []
    for _ in range(draw(st.integers(2, 32))):
        coverage = dict(base)
        narrowed = draw(st.sampled_from([None, *narrowable, *narrowable]))
        if narrowed is not None:
            coverage[narrowed] = fragments(narrowed, max_size=2)
        seeds.append(
            closure_seed(
                rects, subset, coverage,
                rows=float(draw(st.integers(1, 8)) * 100),
                time=draw(st.integers(1, 16)) / 8,
                money=draw(st.integers(0, 3)) / 4,
                site=draw(st.sampled_from(["s1", "s2", "client"])),
                form=draw(st.sampled_from([RAW, RAW, RAW, FINAL])),
            )
        )
    return rects, subset, seeds


def closure_seed(
    rects, subset, coverage, rows, time, money=0.0, site="s1", form=RAW
):
    """A purchased entry over the alias subset *subset*."""
    rect = rects.encode(coverage)
    return _Entry(
        rows, site, time, rect, form, rect == rects.required(subset),
        (money,), money, 1.0,
        WeightedValuation().score(time, rows, money, 1.0),
    )


def closure_fingerprint(entries):
    """Each entry's key and numbers, and its operand tree down to the
    (shared) seed entries."""

    def shape(entry):
        if entry.a is None:
            return id(entry)
        return shape(entry.a), shape(entry.b)

    return [
        (
            entry.key, entry.complete, entry.site, entry.rows.hex(),
            entry.time.hex(), entry.money.hex(), entry.score.hex(),
            entry.monies, shape(entry),
        )
        for entry in entries
    ]


def both_closures(builder, rects, subset, seeds, distinct=False, **caps):
    """What the lookup closure and the scan reference make of one bucket
    seeded with *seeds*: ``enumerated``, every entry offered to the
    bucket in order, and the bucket's entries in order."""
    results = []
    for closure in (_Offering, _ScanClosureGenerator):
        generator = closure(builder, "client", **caps)
        subsets = {}
        for seed in seeds:
            generator._add_entry(subsets, subset, seed)
        enumerated = generator._union_closure(
            subsets, subset, SimpleNamespace(distinct=distinct), rects
        )
        results.append(
            (
                enumerated,
                closure_fingerprint(generator.offered),
                closure_fingerprint(subsets[subset].values()),
            )
        )
    return results


class TestUnionClosure:
    @settings(max_examples=300, deadline=None)
    @given(
        drawn=closure_buckets(),
        max_entries=st.sampled_from([4, 6, 8]),
        budget=st.integers(1, 200),
        distinct=st.booleans(),
    )
    def test_lookup_closure_equals_the_scan(
        self, world, drawn, max_entries, budget, distinct
    ):
        _catalog, builder = world
        rects, subset, seeds = drawn
        # small caps: in-closure prunes fire, the budget binds, and pops
        # after a prune find partners the prune reordered
        lookup, scan = both_closures(
            builder, rects, subset, seeds, distinct,
            max_entries_per_subset=max_entries, union_budget=budget,
        )
        assert lookup == scan

    def test_partners_after_a_prune_keep_the_pruned_order(self, world):
        # The prune after the fourth pop keeps 8 of 17 entries by score;
        # the fifth pop's partners then stand in the bucket in another
        # order than they were inserted in.
        _catalog, builder = world
        rects = rectangles(r0=range(5))
        seeds = [
            closure_seed(rects, 0b1, {"r0": fids}, rows, time)
            for fids, rows, time in [
                ({0}, 800.0, 0.375), ({3}, 600.0, 2.0), ({4}, 200.0, 0.5),
                ({1}, 700.0, 1.25), ({1, 4}, 700.0, 1.75),
                ({2, 3}, 700.0, 0.75), ({2, 4}, 600.0, 1.75),
                ({0, 2}, 100.0, 0.875),
            ]
        ]
        lookup, scan = both_closures(
            builder, rects, 0b1, seeds,
            max_entries_per_subset=4, union_budget=5,
        )
        assert lookup == scan


def reference_prune(subsets, subset, cap):
    """The bucket cap as first written, with a dict of complete entries
    and a sorted list of incomplete items: the reference for
    :meth:`BuyerPlanGenerator._prune`."""
    bucket = subsets.get(subset)
    if not bucket or len(bucket) <= cap:
        return
    complete = {k: e for k, e in bucket.items() if e.complete}
    incomplete = sorted(
        (item for item in bucket.items() if not item[1].complete),
        key=lambda kv: kv[1].score,
    )
    room = max(0, cap - len(complete))
    kept = dict(complete)
    kept.update(dict(incomplete[:room]))
    subsets[subset] = kept


class TestPrune:
    @settings(max_examples=300, deadline=None)
    @given(
        drawn=closure_buckets(),
        all_complete=st.booleans(),
        data=st.data(),
    )
    def test_prune_equals_the_reference(
        self, world, drawn, all_complete, data
    ):
        """Same keys in the same order, holding the same entry objects;
        the drawn buckets tie scores often."""
        _catalog, builder = world
        _rects, subset, seeds = drawn
        generator = BuyerPlanGenerator(builder, "client")
        subsets = {}
        for seed in seeds:
            if all_complete:
                seed.complete = True
            generator._add_entry(subsets, subset, seed)
        size = len(subsets[subset])
        cap = data.draw(
            st.sampled_from([0, 1, size, size + 3]) | st.integers(0, size)
        )
        expected = {subset: dict(subsets[subset])}
        reference_prune(expected, subset, cap)
        generator._prune(subsets, subset, cap=cap)
        got = subsets[subset]
        assert list(got) == list(expected[subset])
        assert all(
            a is b for a, b in zip(got.values(), expected[subset].values())
        )

    def test_tied_scores_keep_bucket_order(self, world):
        _catalog, builder = world
        rects = rectangles(r0=range(4))
        seeds = [
            closure_seed(rects, 0b1, {"r0": {fid}}, 100.0, 0.5)
            for fid in (3, 1, 2, 0)
        ]
        generator = BuyerPlanGenerator(builder, "client")
        subsets = {}
        for seed in seeds:
            generator._add_entry(subsets, subset=0b1, entry=seed)
        generator._prune(subsets, 0b1, cap=2)
        assert list(subsets[0b1].values()) == seeds[:2]


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


class _CheckingGenerator(BuyerPlanGenerator):
    """After each ``generate``, builds the plan node of every entry that
    entered a bucket and checks the entry's numbers against it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.nodes = []

    def generate(self, query, offers, **kwargs):
        self.admitted = []
        result = super().generate(query, offers, **kwargs)
        alias_to_relation = {ref.alias: ref.name for ref in query.relations}
        for entry in self.admitted:
            plan = self._plan(entry, query, alias_to_relation)
            score = self.valuation(
                AnswerProperties(
                    total_time=plan.response_time(),
                    rows=plan.rows,
                    money=entry.money,
                    freshness=entry.freshness,
                )
            )
            got = (
                entry.site,
                entry.rows.hex(),
                entry.time.hex(),
                entry.score.hex(),
            )
            built = (
                plan.site,
                plan.rows.hex(),
                plan.response_time().hex(),
                score.hex(),
            )
            assert got == built, plan.explain()
            self.nodes.append(plan)
        return result

    def _add_entry(self, subsets, subset, entry):
        admitted = super()._add_entry(subsets, subset, entry)
        if admitted:
            self.admitted.append(entry)
        return admitted


@lru_cache(maxsize=None)
def small_world(seed, fragments, replicas):
    return make_federation(
        nodes=6, n_relations=5, fragments=fragments, replicas=replicas,
        seed=seed,
    )


def cross_query(n_relations, **kwargs):
    """A chain whose first join conjunct is dropped: the query graph is
    disconnected, so the generator must cross-product."""
    query = chain_query(n_relations, **kwargs)
    return replace(
        query, predicate=conjoin(query.predicate.conjuncts()[1:])
    )


class TestEntriesAreNumbers:
    """An entry's rows, response time and score are computed before (and
    mostly instead of) its plan node; built, the node must agree bit for
    bit, and only candidates' nodes are built."""

    @settings(max_examples=25, deadline=None)
    @given(
        world_key=st.tuples(
            st.sampled_from([3, 7, 11]),  # seed
            st.sampled_from([2, 4]),  # fragments
            st.sampled_from([1, 2]),  # replicas
        ),
        shape=st.sampled_from(["chain", "star", "cross"]),
        relations=st.integers(2, 4),
        selection=st.booleans(),
        aggregate=st.booleans(),
        ordered=st.booleans(),
        mode=st.sampled_from(["dp", "idp"]),
    )
    def test_admitted_entries_equal_their_nodes(
        self, world_key, shape, relations, selection, aggregate, ordered,
        mode,
    ):
        catalog, nodes, _est, model, builder = small_world(*world_key)
        kwargs = dict(
            selection_cat=3 if selection else None, aggregate=aggregate
        )
        if shape == "star":
            query = star_query(relations - 1, **kwargs)
        else:
            make = chain_query if shape == "chain" else cross_query
            query = make(relations, **kwargs)
        if ordered:
            query = query.with_order(
                [column("r0", "part" if aggregate else "id")]
            )
        generator = _CheckingGenerator(builder, "client", mode=mode)
        sellers = {
            node: SellerAgent(catalog.local(node), builder)
            for node in nodes
            if node != "client"
        }
        trader = QueryTrader("client", sellers, Network(model), generator)
        with offer_id_scope():
            trader.optimize(query)
        assert generator.nodes
        if shape == "cross":
            assert any(
                isinstance(node, NestedLoopJoin) for node in generator.nodes
            )

    def test_final_distinct_unions_and_same_seller_purchases(self, world):
        catalog, builder = world
        query = replace(chain_query(2, aggregate=True), distinct=True)
        r1_full = catalog.scheme("R1").fragment_ids
        # exact partial aggregates, two of them from one seller
        parts = [
            offer(query, {"r0": {f}, "r1": r1_full}, time=0.5 + f,
                  seller="s0" if f < 2 else f"s{f}", exact=True)
            for f in sorted(catalog.scheme("R0").fragment_ids)
        ]
        # raw parts: both relations from one seller
        raws = [
            offer(query.subquery_on(["r0"]),
                  {"r0": catalog.scheme("R0").fragment_ids}, time=0.2,
                  seller="s9"),
            offer(query.subquery_on(["r1"]), {"r1": r1_full}, time=0.3,
                  seller="s9"),
        ]
        generator = _CheckingGenerator(builder, "client")
        assert generator.generate(query, parts + raws).found
        assert any(
            isinstance(node, Union) and node.distinct
            for node in generator.nodes
        )
        assert any(
            isinstance(node, HashJoin)
            and all(isinstance(c, Purchased) for c in node.children)
            and node.left.seller == node.right.seller
            for node in generator.nodes
        )

    def test_nodes_built_only_for_candidates(self):
        """Scoring builds no plan node: one ``generate`` on the
        trade_deep chain-9 input calls ``PlanBuilder.join``/``union`` at
        most once per join or union node of the candidates it returns
        (≈ 27,000 times per round when every scored entry was a node).
        Round two's new offers change no seeded bucket, so it reuses
        round one's candidates and builds no node at all."""
        world = build_world(nodes=32, n_relations=9, fragments=4, replicas=2)
        builder = _CountingBuilder(world.builder)
        rounds = []

        class Generator(BuyerPlanGenerator):
            def generate(self, query, offers, **kwargs):
                builder.calls = 0
                result = super().generate(query, offers, **kwargs)
                nodes = join_and_union_nodes(
                    [c.plan for c in result.candidates]
                )
                rounds.append((builder.calls, nodes))
                return result

        trader = QueryTrader(
            BUYER,
            world.seller_agents(offer_cache=OfferCache()),
            Network(world.model),
            Generator(builder, BUYER),
        )
        with offer_id_scope():
            assert trader.optimize(chain_query(9, selection_cat=3)).found
        assert len(rounds) == 2
        (first_calls, first_nodes), (second_calls, _nodes) = rounds
        assert 0 < first_calls <= first_nodes
        assert second_calls == 0


class _CountingBuilder(PlanBuilder):
    """*builder*'s costing, counting the join and union nodes built."""

    def __init__(self, builder):
        super().__init__(
            builder.estimator, builder.cost_model, builder.capabilities,
            builder.schemes, builder.default_caps,
        )
        self.calls = 0

    def join(self, *args, **kwargs):
        self.calls += 1
        return super().join(*args, **kwargs)

    def union(self, *args, **kwargs):
        self.calls += 1
        return super().union(*args, **kwargs)


def join_and_union_nodes(plans):
    """Distinct join and union nodes reachable from *plans*."""
    seen = set()
    found = 0
    stack = list(plans)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        found += isinstance(node, (HashJoin, NestedLoopJoin, Union))
        stack.extend(node.children)
    return found


def fingerprint(result):
    """What a pass must reproduce: its count and its candidates' bytes,
    in order."""
    return result.enumerated, [
        (c.plan.explain(), c.plan.response_time().hex(), c.value.hex())
        for c in result.candidates
    ]


def repriced(offer, factor):
    """A new offer object: *offer* at *factor* times its total time."""
    props = offer.properties
    return replace(
        offer,
        properties=replace(props, total_time=props.total_time * factor),
        offer_id=next_offer_id(),
    )


@lru_cache(maxsize=None)
def small_market(world_key, shape, relations):
    """A query and every seller's offers for it and for each of its
    relations alone (partial offers make unions and joins)."""
    catalog, nodes, _est, _model, builder = small_world(*world_key)
    if shape == "star":
        query = star_query(relations - 1)
    else:
        query = (chain_query if shape == "chain" else cross_query)(relations)
    offers = []
    with offer_id_scope():
        for asked in [query] + [
            query.subquery_on((ref.alias,)) for ref in query.relations
        ]:
            offers += gather_offers(catalog, nodes, builder, asked)
    return builder, query, tuple(offers)


class TestRoundReuse:
    """``generate(..., prior=)`` returns what a pass without it returns:
    *prior*'s candidates when the seeded buckets are *prior*'s (by
    identity), the full pass otherwise."""

    @settings(max_examples=40, deadline=None)
    @given(
        world_key=st.tuples(
            st.sampled_from([3, 7, 11]),  # seed
            st.sampled_from([2, 4]),  # fragments
            st.sampled_from([1, 2]),  # replicas
        ),
        shape=st.sampled_from(["chain", "star", "cross"]),
        relations=st.integers(2, 4),
        mode=st.sampled_from(["dp", "idp"]),
        data=st.data(),
    )
    def test_prior_equals_from_scratch(
        self, world_key, shape, relations, mode, data
    ):
        builder, query, offers = small_market(world_key, shape, relations)
        # Offers arrive in 2-3 batches, as the trader's offer table grows:
        # later batches also bring worse copies of earlier offers (they
        # lose in their bucket) and displace an earlier offer in place
        # with a cheaper copy (a new object under the old key).
        order = data.draw(st.permutations(offers))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, len(order) - 1), min_size=1, max_size=2,
                    unique=True,
                )
            )
        )
        batches = [
            list(order[start:end])
            for start, end in zip([0] + cuts, cuts + [len(order)])
        ]
        generator = BuyerPlanGenerator(builder, "client", mode=mode)
        table = []
        prior = None
        for number, batch in enumerate(batches):
            if number:
                for _ in range(data.draw(st.integers(0, 2))):
                    worse = data.draw(st.sampled_from(table))
                    batch.append(repriced(worse, 2.0))
                if data.draw(st.booleans()):
                    at = data.draw(st.integers(0, len(table) - 1))
                    table[at] = repriced(table[at], 0.5)
            table += batch
            resumed = generator.generate(query, table, prior=prior)
            assert fingerprint(resumed) == fingerprint(
                generator.generate(query, table)
            )
            prior = resumed

    @staticmethod
    def first_round():
        builder, query, offers = small_market((7, 4, 2), "chain", 3)
        generator = BuyerPlanGenerator(builder, "client")
        first = generator.generate(query, offers)
        assert first.found
        winner = first.best.purchased()[0].offer_id
        at = next(i for i, o in enumerate(offers) if o.offer_id == winner)
        return generator, query, list(offers), first, at

    def test_unchanged_buckets_reuse_the_prior(self):
        generator, query, offers, first, at = self.first_round()
        # a dearer copy of a winning offer loses in its bucket
        offers.append(repriced(offers[at], 2.0))
        second = generator.generate(query, offers, prior=first)
        assert len(second.candidates) == len(first.candidates)
        assert all(
            a is b for a, b in zip(second.candidates, first.candidates)
        )
        assert second.enumerated == first.enumerated + 1
        assert fingerprint(second) == fingerprint(
            generator.generate(query, offers)
        )

    def test_displaced_offer_runs_the_full_pass(self):
        generator, query, offers, first, at = self.first_round()
        offers[at] = repriced(offers[at], 0.5)
        second = generator.generate(query, offers, prior=first)
        assert second.best is not first.best
        assert fingerprint(second) == fingerprint(
            generator.generate(query, offers)
        )

    def test_mismatched_prior_raises(self, world):
        catalog, builder = world
        query = chain_query(2)
        frags = catalog.scheme("R0").fragment_ids
        offers = [
            offer(
                query, {"r0": frags, "r1": catalog.scheme("R1").fragment_ids}
            )
        ]
        generator = BuyerPlanGenerator(builder, "client")
        prior = generator.generate(query, offers)
        required = generator.required_coverage(query)
        narrower = {**required, "r0": frozenset(sorted(frags)[:1])}
        idp = BuyerPlanGenerator(builder, "client", mode="idp")
        mismatches = [
            (generator, chain_query(3), {}),  # another query
            (generator, query, {"required": narrower}),
            (idp, query, {}),  # another generator
            (generator, query, {"prior": PlanGenResult(best=None)}),
        ]
        for owner, asked, kwargs in mismatches:
            kwargs.setdefault("prior", prior)
            with pytest.raises(ValueError):
                owner.generate(asked, offers, **kwargs)
        generator.mode = "idp"  # another mode
        with pytest.raises(ValueError):
            generator.generate(query, offers, prior=prior)


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

    def test_replicas_build_each_request_once(self, world):
        catalog, builder = world
        query = chain_query(2)
        required = BuyerPlanGenerator(builder, "client").required_coverage(
            query
        )
        analyser = _CountingAnalyser(catalog.schemes)
        replicas = [
            offer(query.subquery_on(["r0"]), {"r0": {0, 1}}, seller=seller)
            for seller in ("a", "b", "c")
        ]
        derived = analyser.derive(query, replicas, required)
        # three sellers, one missing-fragments request, one query built
        assert analyser.built == [("r0", frozenset({2, 3}))]
        assert len(derived) == 3  # the complement and two relation parts

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_derive_agrees_with_set_oracle(self, world, data):
        catalog, builder = world
        query = data.draw(
            st.sampled_from(
                [
                    chain_query(2),
                    chain_query(3, selection_cat=1),
                    chain_query(3).with_order([column("r0", "id")]),
                    chain_query(2).restrict(eq(column("r0", "part"), 2)),
                ]
            )
        )
        fragments = {
            ref.alias: sorted(catalog.scheme(ref.name).fragment_ids)
            for ref in query.relations
        }
        offers = []
        for _ in range(data.draw(st.integers(0, 8))):
            aliases = data.draw(
                st.lists(
                    st.sampled_from(sorted(fragments)), min_size=1,
                    unique=True,
                )
            )
            coverage = {
                alias: data.draw(
                    st.frozensets(
                        st.sampled_from(fragments[alias]), min_size=1
                    )
                )
                for alias in aliases
            }
            offers.append(
                offer(
                    query.subquery_on(aliases),
                    coverage,
                    seller=data.draw(st.sampled_from("abc")),
                )
            )
        required = BuyerPlanGenerator(builder, "client").required_coverage(
            query
        )
        analyser = _CountingAnalyser(catalog.schemes)
        derived = analyser.derive(query, offers, required)
        keys = [q.key() for q in derived]
        assert len(keys) == len(set(keys))
        expected, requests = derive_oracle(
            BuyerPredicatesAnalyser(catalog.schemes), query, offers, required
        )
        assert set(keys) == expected
        # each distinct request builds its restricted query exactly once
        assert sorted(analyser.built, key=repr) == sorted(requests, key=repr)


class _CountingAnalyser(BuyerPredicatesAnalyser):
    """Records the ``(alias, fragments)`` of every restricted query it
    builds."""

    def __init__(self, schemes):
        super().__init__(schemes)
        self.built = []

    def _fragment_query(self, query, alias, fragments):
        self.built.append((alias, fragments))
        return super()._fragment_query(query, alias, fragments)


def derive_oracle(analyser, query, offers, required):
    """``derive``'s query keys from set algebra, and the distinct
    ``(alias, fragments)`` requests behind them."""
    complements = {
        (alias, required[alias] - fids)
        for o in offers
        for alias, fids in o.coverage.items()
        if alias in required
        and fids & required[alias]
        and not required[alias] <= fids
    }
    differences = set()
    for first, second in combinations(offers, 2):
        if first.aliases != second.aliases:
            continue
        for alias, mine in first.coverage.items():
            theirs = second.coverage[alias]
            overlap = mine & theirs
            if overlap and mine != theirs:
                differences |= {
                    (alias, side - overlap)
                    for side in (mine, theirs)
                    if side - overlap
                }
    requests = complements | differences
    candidates = [
        analyser._fragment_query(query, alias, fids)
        for alias, fids in requests
    ]
    if len(query.relations) > 1:
        candidates += [query.subquery_on((r.alias,)) for r in query.relations]
    if query.order_by:
        candidates.append(query.without_order())
    expected = {
        q.key()
        for q in candidates
        if q is not None and not q.is_unsatisfiable
    }
    return expected, requests
