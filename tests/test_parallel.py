"""Tier-1 coverage of ``repro.parallel`` (the shared process pool) plus
the per-instance memos the hot paths rely on (cached structural hashes,
the shared coverage key, query keys, selections and rendered SQL).
"""

import repro.trading.commodity as commodity
from repro.parallel import get_pool, shutdown_pools, warm_pool
from repro.sql.expr import TRUE, And, Column, Comparison, Literal
from repro.sql.query import SPJQuery
from repro.sql.schema import RelationRef
from repro.workload import chain_query


def test_warm_pool_and_shutdown_idempotent():
    pool = warm_pool(2)
    assert warm_pool(2) is pool  # second warm is a no-op
    assert get_pool(2) is pool
    assert list(pool.map(_double, [3, 4, 5])) == [6, 8, 10]
    shutdown_pools()
    shutdown_pools()  # idempotent
    # Pools come back after shutdown (atexit can run after manual calls).
    assert get_pool(2) is not pool
    assert get_pool(2).submit(_double, 7).result() == 14
    shutdown_pools()


def _double(x):
    return 2 * x


def test_offer_coverage_key_cached_and_shared():
    query = chain_query(2, selection_cat=3)
    offer = commodity.Offer(
        seller="node1",
        query=query,
        coverage={"r1": frozenset((1, 0)), "r0": frozenset((2,))},
        properties=commodity.AnswerProperties(total_time=1.0, rows=10),
        exact_projections=False,
        request_key=query.key(),
    )
    key = offer.coverage_key()
    assert key == (("r0", (2,)), ("r1", (0, 1)))
    assert offer.coverage_key() is key  # memoized
    assert commodity.coverage_key(offer.coverage) == key
    assert offer.dedupe_key() == (
        offer.request_key, offer.query.key(), key, False
    )


def test_expr_hash_memo_and_pickle_hygiene():
    comparison = Comparison("=", Column("a", "x"), Literal(3))
    assert hash(comparison) == hash(comparison)
    assert "_hash_memo" in comparison.__dict__
    conj = And((comparison, Comparison("=", Column("a", "y"), Column("b", "y"))))
    assert conj.columns() is conj.columns()  # memoized frozenset


def test_query_key_memoized():
    query = SPJQuery(
        relations=(RelationRef("R0", "r0"), RelationRef("R1", "r1")),
        predicate=Comparison("=", Column("r0", "x"), Column("r1", "x")),
    )
    assert query.key() is query.key()


def test_query_selection_and_subquery_memoized():
    query = SPJQuery(
        relations=(RelationRef("R0", "r0"), RelationRef("R1", "r1")),
        predicate=And((
            Comparison("=", Column("r0", "x"), Column("r1", "x")),
            Comparison("=", Column("r0", "y"), Literal(3)),
        )),
    )
    selection = query.selection_on("r0")
    assert query.selection_on("r0") is selection
    assert query.selection_on("r1") is TRUE
    sub = query.subquery_on(["r0"])
    assert query.subquery_on(("r0",)) is sub
    assert query.subquery_on(()) is None


def test_expr_sql_memo_and_pickle_hygiene():
    conj = And((
        Comparison("=", Column("a", "x"), Literal(3)),
        Comparison("=", Column("a", "y"), Literal(3.0)),
    ))
    text = conj.sql()
    assert text == "a.x = 3 AND a.y = 3.0"
    assert conj.sql() is text  # memoized
