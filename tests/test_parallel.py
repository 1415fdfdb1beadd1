"""Tier-1 coverage of ``repro.parallel`` (pool, LPT partition, sweep
runner) plus the memo/pickle-hygiene rules that results shipped between
processes rely on (cached structural hashes, the shared coverage key,
the optimizer's singletons).
"""

import pickle
import random

import pytest

import repro.trading.commodity as commodity
from repro.parallel import (
    RUNNERS,
    SweepJob,
    lpt_partition,
    run_chunks,
    run_sweep,
    shutdown_pools,
    warm_pool,
)
from repro.sql.expr import TRUE, FALSE, And, Column, Comparison, Literal
from repro.sql.query import SPJQuery
from repro.sql.schema import RelationRef
from repro.workload import chain_query


def test_lpt_partition_properties():
    """Every index lands exactly once; imbalance obeys the LPT bound."""
    rng = random.Random(20260808)
    cases = [
        [],  # no items
        [5.0],  # single item
        [0.0, 0.0, 0.0],  # all zero weight
        [100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # one dominant item
    ] + [
        [float(rng.randint(0, 1000)) for _ in range(rng.randint(1, 64))]
        for _ in range(30)
    ]
    for buckets in (1, 2, 4, 7, 16):
        for weights in cases:
            assignment = lpt_partition(weights, buckets)
            # Exactly-once coverage, ascending within each bucket.
            flat = sorted(i for group in assignment for i in group)
            assert flat == list(range(len(weights)))
            for group in assignment:
                assert group == sorted(group)
            assert len(assignment) <= min(buckets, len(weights) or 1)
            # List-scheduling bound: max load <= total/k + max item.
            loads = [sum(weights[i] for i in group) for group in assignment]
            if weights and sum(weights) > 0:
                k = min(buckets, len(weights))
                bound = sum(weights) / k + max(weights)
                assert max(loads) <= bound + 1e-9
            # Deterministic: the same inputs give the same partition.
            assert lpt_partition(weights, buckets) == assignment


def test_warm_pool_and_shutdown_idempotent():
    pool = warm_pool(2)
    assert warm_pool(2) is pool  # second warm is a no-op
    assert run_chunks(2, _double, [(3,), (4,), (5,)]) == [6, 8, 10]
    shutdown_pools()
    shutdown_pools()  # idempotent
    # Pools come back after shutdown (atexit can run after manual calls).
    assert run_chunks(2, _double, [(7,)]) == [14]
    shutdown_pools()


def _double(x):
    return 2 * x


def test_sweep_chunked_path_equivalence():
    """len(jobs) >= 4*workers engages LPT chunking; order must hold."""
    jobs = [
        SweepJob(
            label=f"qt-{joins}j-{i}",
            runner="qt",
            world={"nodes": 8, "n_relations": 4, "seed": 7},
            query={"n_relations": joins, "selection_cat": 3},
            run={"offer_cache": None, "use_offer_cache": False},
        )
        for i, joins in enumerate((2, 3, 2, 3, 2, 3, 2, 3))
    ]
    serial = run_sweep(jobs, workers=1)
    chunked = run_sweep(jobs, workers=2)
    assert [m.optimizer for m in chunked] == [j.label for j in jobs]
    assert [
        (m.plan_cost, m.optimization_time, m.messages, m.plan_explain)
        for m in serial
    ] == [
        (m.plan_cost, m.optimization_time, m.messages, m.plan_explain)
        for m in chunked
    ]


def test_run_sweep_order_stable():
    jobs = [
        SweepJob(
            label=f"qt-{joins}j",
            runner="qt",
            world={"nodes": 8, "n_relations": 4, "seed": 7},
            query={"n_relations": joins, "selection_cat": 3},
            run={"offer_cache": None, "use_offer_cache": False},
        )
        for joins in (2, 3, 2)
    ]
    serial = run_sweep(jobs, workers=1)
    parallel = run_sweep(jobs, workers=2)
    assert [m.optimizer for m in parallel] == ["qt-2j", "qt-3j", "qt-2j"]
    assert [
        (m.plan_cost, m.optimization_time, m.messages, m.plan_explain)
        for m in serial
    ] == [
        (m.plan_cost, m.optimization_time, m.messages, m.plan_explain)
        for m in parallel
    ]


_IN_PROCESS_CALLS: list[str] = []


def _failing_runner(world, query, **_kwargs):
    # Workers append to their own forked copy; the parent's list only
    # grows if the job is (re-)run in-process.
    _IN_PROCESS_CALLS.append("called")
    raise ValueError("runner failed")


def test_run_sweep_propagates_job_errors(monkeypatch):
    """A job's own exception surfaces from the pool; only an unavailable
    pool makes the sweep fall back to running every job in-process."""
    monkeypatch.setitem(RUNNERS, "failing", _failing_runner)
    shutdown_pools()  # fork fresh workers that see the registration
    _IN_PROCESS_CALLS.clear()
    jobs = [
        SweepJob(
            label=f"bad-{i}",
            runner="failing",
            world={"nodes": 4, "n_relations": 2, "seed": 7},
            query={"n_relations": 2},
        )
        for i in range(2)
    ]
    try:
        with pytest.raises(ValueError, match="runner failed"):
            run_sweep(jobs, workers=2)
        assert _IN_PROCESS_CALLS == []
    finally:
        shutdown_pools()


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
    # Memo must not ship across pickling (PYTHONHASHSEED hygiene rule).
    assert "_coverage_key_memo" not in pickle.loads(
        pickle.dumps(offer)
    ).__dict__


def test_expr_hash_memo_and_pickle_hygiene():
    comparison = Comparison("=", Column("a", "x"), Literal(3))
    assert hash(comparison) == hash(comparison)
    assert "_hash_memo" in comparison.__dict__
    conj = And((comparison, Comparison("=", Column("a", "y"), Column("b", "y"))))
    assert conj.columns() is conj.columns()  # memoized frozenset
    restored = pickle.loads(pickle.dumps(conj))
    # Memos are process-local (string hashes are salted per process) and
    # must not travel; they repopulate on first use.
    assert "_hash_memo" not in restored.__dict__
    assert "_columns_memo" not in restored.__dict__
    assert restored == conj and hash(restored) == hash(conj)


def test_bool_singletons_survive_pickle():
    assert pickle.loads(pickle.dumps(TRUE)) is TRUE
    assert pickle.loads(pickle.dumps(FALSE)) is FALSE


def test_query_key_memoized():
    query = SPJQuery(
        relations=(RelationRef("R0", "r0"), RelationRef("R1", "r1")),
        predicate=Comparison("=", Column("r0", "x"), Column("r1", "x")),
    )
    assert query.key() is query.key()
    restored = pickle.loads(pickle.dumps(query))
    assert "_key_memo" not in restored.__dict__
    assert restored.key() == query.key()
