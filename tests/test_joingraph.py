"""Equivalence tests: the bitmask :class:`JoinGraph` vs the original
frozenset-based enumeration helpers and optimizer loops.

The frozenset helpers kept in :mod:`repro.optimizer.dp` are the
executable specification of connectivity, conjunct order and enumeration
order.  The frozenset optimizer loops themselves are retired; what they
produced — plans out of DP, IDP, and the buyer generator — is pinned in
``golden_plans.json`` (see :func:`tests.conftest.assert_golden`).
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.optimizer import JoinGraph
from repro.optimizer.dp import (
    DynamicProgrammingOptimizer,
    connecting_conjuncts,
    subset_connected,
)
from repro.optimizer.idp import IDPOptimizer
from repro.sql import column
from repro.sql.expr import Comparison, Or
from repro.trading import BuyerPlanGenerator
from repro.trading.commodity import offer_id_scope
from repro.workload import chain_query, star_query

from tests.conftest import assert_golden, gather_offers, make_federation


# ----------------------------------------------------------------------
# Random join-graph generation (plain `random`, fixed seeds).
# ----------------------------------------------------------------------
def random_graph(rng: random.Random):
    """Random aliases + conjuncts, including the awkward cases.

    Mixes binary equi-join edges, selections (single-table conjuncts,
    which the graph must ignore), conjuncts referencing aliases outside
    the universe (ditto), and OR-hyperedges spanning 3+ aliases (which
    connect all their aliases at once but only when fully contained).
    """
    n = rng.randint(1, 10)
    aliases = [f"r{i}" for i in range(n)]
    conjuncts = []
    for _ in range(rng.randint(0, 2 * n)):
        kind = rng.random()
        if kind < 0.6 and n >= 2:  # binary join edge
            a, b = rng.sample(aliases, 2)
            conjuncts.append(Comparison("=", column(a, "id"), column(b, "ref")))
        elif kind < 0.75:  # selection: ignored by the join graph
            a = rng.choice(aliases)
            conjuncts.append(Comparison(">", column(a, "v"), column(a, "w")))
        elif kind < 0.9 and n >= 3:  # OR hyperedge over 3 aliases
            a, b, c = rng.sample(aliases, 3)
            conjuncts.append(
                Or(
                    (
                        Comparison("=", column(a, "id"), column(b, "ref")),
                        Comparison("=", column(b, "id"), column(c, "ref")),
                    )
                )
            )
        else:  # references an alias outside the universe: ignored
            a = rng.choice(aliases)
            conjuncts.append(
                Comparison("=", column(a, "id"), column("zz", "ref"))
            )
    return aliases, conjuncts


def all_subsets(aliases):
    for size in range(len(aliases) + 1):
        for combo in combinations(sorted(aliases), size):
            yield frozenset(combo)


@pytest.mark.parametrize("seed", range(25))
def test_connected_matches_subset_connected(seed):
    rng = random.Random(seed)
    aliases, conjuncts = random_graph(rng)
    graph = JoinGraph(aliases, conjuncts)
    for subset in all_subsets(aliases):
        mask = graph.mask_of(subset)
        assert graph.connected(mask) == subset_connected(subset, conjuncts), (
            subset,
            [c.sql() for c in conjuncts],
        )
        assert graph.aliases_of(mask) == subset


@pytest.mark.parametrize("seed", range(25))
def test_connecting_matches_connecting_conjuncts(seed):
    rng = random.Random(seed + 1000)
    aliases, conjuncts = random_graph(rng)
    graph = JoinGraph(aliases, conjuncts)
    for subset in all_subsets(aliases):
        if not subset:
            continue
        for left in all_subsets(subset):
            if not left or left == subset:
                continue
            right = subset - left
            expected = connecting_conjuncts(conjuncts, left, right)
            got = graph.connecting(graph.mask_of(left), graph.mask_of(right))
            assert got == expected  # identity and order


@pytest.mark.parametrize("seed", range(25))
def test_subsets_by_size_matches_filtered_combinations(seed):
    rng = random.Random(seed + 2000)
    aliases, conjuncts = random_graph(rng)
    graph = JoinGraph(aliases, conjuncts)
    members = sorted(aliases)
    for connected_only in (True, False):
        by_size = graph.subsets_by_size(connected_only=connected_only)
        assert sorted(by_size) == list(range(2, len(members) + 1))
        for size, bucket in by_size.items():
            expected = [
                frozenset(combo)
                for combo in combinations(members, size)
                if not connected_only
                or subset_connected(frozenset(combo), conjuncts)
            ]
            assert [graph.aliases_of(m) for m in bucket] == expected


@pytest.mark.parametrize("seed", range(25))
def test_splits_match_original_nested_loop_order(seed):
    rng = random.Random(seed + 3000)
    aliases, conjuncts = random_graph(rng)
    graph = JoinGraph(aliases, conjuncts)
    for subset in all_subsets(aliases):
        size = len(subset)
        if size < 2:
            continue
        members = sorted(subset)
        anchor = members[0]
        expected = []
        for split_size in range(1, size // 2 + 1):
            for left_combo in combinations(members, split_size):
                left = frozenset(left_combo)
                if size == 2 * split_size and anchor not in left:
                    continue
                expected.append((left, subset - left))
        got = [
            (graph.aliases_of(left), graph.aliases_of(right))
            for left, right in graph.splits(graph.mask_of(subset))
        ]
        assert got == expected


def test_mask_roundtrip_and_members():
    graph = JoinGraph(["b", "a", "c", "a"], [])
    assert graph.aliases == ("a", "b", "c")
    assert graph.mask_of(("a", "c")) == 0b101
    assert graph.members(0b101) == ("a", "c")
    assert graph.bits(0b1101) == (0, 2, 3)
    assert graph.full_mask == 0b111


# ----------------------------------------------------------------------
# Optimizer byte-identity: bitmask DP/IDP vs the recorded reference runs.
# ----------------------------------------------------------------------
def _queries():
    qs = [chain_query(n) for n in (2, 3, 5, 7)]
    qs.append(star_query(4))
    qs.append(chain_query(4, aggregate=True))
    return qs


def _result_text(result) -> str:
    """Everything the reference comparison read off a ``DPResult``: the
    kept sub-plans in key order, then the finished plan."""
    lines = []
    for subset, plan in result.best.items():
        lines.append(",".join(sorted(subset)))
        lines.append(plan.explain())
        lines.append(plan.response_time().hex())
    if result.plan is not None:
        lines.append(result.plan.explain())
        lines.append(result.plan.response_time().hex())
    return "\n".join(lines)


def _assert_golden_results(case, optimizer, site):
    results = [optimizer.optimize(query, site) for query in _queries()]
    assert_golden(
        case,
        [result.enumerated for result in results],
        [_result_text(result) for result in results],
    )


def test_dp_byte_identical_to_reference():
    catalog, nodes, _est, _model, builder = make_federation(n_relations=8)
    _assert_golden_results(
        "dp", DynamicProgrammingOptimizer(builder), nodes[0]
    )


@pytest.mark.parametrize("k,m", [(2, 5), (3, 2)])
def test_idp_byte_identical_to_reference(k, m):
    catalog, nodes, _est, _model, builder = make_federation(n_relations=8)
    _assert_golden_results(
        f"idp[{k}-{m}]", IDPOptimizer(builder, k=k, m=m), nodes[0]
    )


# ----------------------------------------------------------------------
# Buyer plan-generation byte-identity over real seller offers.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["dp", "idp"])
def test_buyer_generate_byte_identical_to_reference(mode):
    catalog, nodes, _est, _model, builder = make_federation(
        nodes=6, n_relations=6
    )
    enumerated, texts = [], []
    # Offer ids appear in plan text, so mint them from 1 whatever ran
    # earlier in the process.
    with offer_id_scope():
        for query in (chain_query(3), chain_query(5), star_query(3)):
            offers = gather_offers(catalog, nodes, builder, query)
            generator = BuyerPlanGenerator(builder, "client", mode=mode)
            got = generator.generate(query, offers)
            assert got.best is (got.candidates[0] if got.candidates else None)
            enumerated.append(got.enumerated)
            for candidate in got.candidates:
                texts.append(candidate.value.hex())
                texts.append(candidate.plan.explain())
    assert_golden(f"buyer[{mode}]", enumerated, texts)
