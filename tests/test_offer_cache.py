"""Seller offer-cache behavior: accounting, keying, and negotiation impact."""

from __future__ import annotations

import pytest

from repro.bench.harness import build_world, run_qt
from repro.cost import NodeCapabilities
from repro.trading import CacheStats, OfferCache, SellerAgent
from repro.workload import chain_query

from tests.conftest import make_federation


class TestCacheStats:
    def test_counters_and_rates(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_snapshot_delta(self):
        stats = CacheStats(hits=2, misses=5, evictions=1)
        earlier = stats.snapshot()
        stats.add(CacheStats(hits=4, misses=1))
        delta = stats.delta_since(earlier)
        assert (delta.hits, delta.misses, delta.evictions) == (4, 1, 0)


class TestOfferCache:
    def test_validation(self):
        with pytest.raises(ValueError):
            OfferCache(hit_work_fraction=1.5)
        with pytest.raises(ValueError):
            OfferCache(hit_work_fraction=-0.1)
        with pytest.raises(ValueError):
            OfferCache(max_entries=0)

    def test_miss_then_hit(self):
        cache = OfferCache()
        caps = NodeCapabilities()
        query = chain_query(2)
        key = cache.key_for(query, {"r0": frozenset((0,))}, "n0", caps, "dp")
        assert cache.lookup(key) is None
        cache.store(key, "result")
        assert cache.lookup(key) == "result"
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_key_includes_capabilities_and_coverage(self):
        cache = OfferCache()
        query = chain_query(2)
        coverage = {"r0": frozenset((0, 1))}
        caps = NodeCapabilities()
        base = cache.key_for(query, coverage, "n0", caps, "dp")
        # Load feedback (E13) changes capabilities -> different key.
        loaded = cache.key_for(
            query, coverage, "n0", caps.with_load(0.5), "dp"
        )
        assert loaded != base
        other_cov = cache.key_for(
            query, {"r0": frozenset((0,))}, "n0", caps, "dp"
        )
        assert other_cov != base
        other_site = cache.key_for(query, coverage, "n1", caps, "dp")
        assert other_site != base
        # Coverage iteration order does not matter.
        two = {"r0": frozenset((1, 0)), "r1": frozenset((2,))}
        reordered = {"r1": frozenset((2,)), "r0": frozenset((0, 1))}
        assert cache.key_for(
            query, two, "n0", caps, "dp"
        ) == cache.key_for(query, reordered, "n0", caps, "dp")

    def test_fifo_eviction(self):
        cache = OfferCache(max_entries=2)
        caps = NodeCapabilities()
        query = chain_query(2)
        keys = [
            cache.key_for(query, {}, f"n{i}", caps, "dp") for i in range(3)
        ]
        for i, key in enumerate(keys):
            cache.store(key, i)
        assert cache.stats.evictions == 1
        assert cache.lookup(keys[0]) is None  # the oldest was evicted
        assert cache.lookup(keys[1]) == 1
        assert cache.lookup(keys[2]) == 2


class TestRewriteMemo:
    """The seller's rewrite memo lives in the cache, under its bound."""

    @staticmethod
    def _rewrite(cache, i, computed):
        coverage = (("r0", (i,)),)

        def compute():
            computed.append(i)
            return f"rewrite-{i}"

        return cache.rewrite(chain_query(2), coverage, compute)

    def test_bounded_by_max_entries_fifo(self):
        cache = OfferCache(max_entries=4)
        computed = []
        for i in range(8):
            assert self._rewrite(cache, i, computed) == f"rewrite-{i}"
        assert computed == list(range(8))
        assert len(cache._rewrites) <= cache.max_entries
        # The newest are kept, the oldest went first.
        assert self._rewrite(cache, 7, computed) == "rewrite-7"
        assert self._rewrite(cache, 0, computed) == "rewrite-0"
        assert computed == list(range(8)) + [0]
        assert len(cache) == 0  # the DP entries are a separate bound

    def test_none_is_memoized(self):
        cache = OfferCache()
        calls = []
        for _ in range(3):
            assert cache.rewrite(
                chain_query(2), (), lambda: calls.append(1)
            ) is None
        assert calls == [1]

    def test_session_view_shares_and_clear_empties_both(self):
        base = OfferCache()
        computed = []
        self._rewrite(base, 1, computed)
        view = base.session_view()
        assert self._rewrite(view, 1, computed) == "rewrite-1"
        assert computed == [1]  # the view saw the base's entry
        self._rewrite(view, 2, computed)
        assert self._rewrite(base, 2, computed) == "rewrite-2"
        assert computed == [1, 2]
        base.clear()
        assert base._rewrites == {} and view._rewrites == {}
        self._rewrite(view, 1, computed)
        assert computed == [1, 2, 1]
        assert (base.stats.lookups, view.stats.lookups) == (0, 0)


class TestSellerCachedOptimize:
    def test_hit_charges_fraction_of_work(self):
        catalog, nodes, _est, _model, builder = make_federation()
        node = nodes[0]
        agent = SellerAgent(catalog.local(node), builder)
        query = chain_query(2)
        coverage = {
            alias: frozenset(
                catalog.schemes[query.relation_for(alias).name].fragment_ids
            )
            for alias in query.aliases
        }
        first, first_work = agent.optimize_cached(query, coverage)
        again, again_work = agent.optimize_cached(query, coverage)
        assert again is first  # the very same memoized result
        assert first_work == first.enumerated * agent.seconds_per_plan
        assert again_work == pytest.approx(
            first_work * agent.offer_cache.hit_work_fraction
        )
        assert agent.offer_cache.stats.hits == 1

    def test_disabled_cache_reoptimizes(self):
        catalog, nodes, _est, _model, builder = make_federation()
        node = nodes[0]
        agent = SellerAgent(
            catalog.local(node), builder, use_offer_cache=False
        )
        assert agent.offer_cache is None
        query = chain_query(2)
        first, first_work = agent.optimize_cached(query, {})
        second, second_work = agent.optimize_cached(query, {})
        assert first is not second
        assert first_work == second_work


class TestNegotiationWithCache:
    def test_repeat_trade_hits_cache_with_identical_plan(self):
        world = build_world(nodes=6, n_relations=4)
        query = chain_query(3)
        first = run_qt(world, query)
        second = run_qt(world, query)
        assert second.cache_hits >= 1
        assert second.plan_cost == first.plan_cost
        assert second.messages == first.messages

    def test_first_trade_unaffected_by_cache(self):
        query = chain_query(3)
        cached = run_qt(build_world(nodes=6, n_relations=4), query)
        uncached = run_qt(
            build_world(nodes=6, n_relations=4),
            query,
            offer_cache=None,
            use_offer_cache=False,
        )
        assert uncached.cache_hits == 0 and uncached.cache_misses == 0
        assert cached.plan_cost == uncached.plan_cost
        assert cached.messages == uncached.messages
        assert cached.offers == uncached.offers
        # Intra-trade hits may shave simulated pricing time, but never
        # change what the negotiation decides.
        assert cached.optimization_time <= uncached.optimization_time


class TestCacheChurnUnderRenegotiation:
    """Fault-driven renegotiation re-prices subqueries while node load
    shifts (crashed peers dump their work on survivors).  The cache key
    embeds the seller's *current* capabilities, so no amount of churn may
    ever serve an offer priced for a stale capability snapshot."""

    import hypothesis.strategies as st
    from hypothesis import HealthCheck, given, settings

    LOADS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

    @staticmethod
    def _setup():
        catalog, nodes, _est, _model, builder = make_federation(
            nodes=4, n_relations=2, fragments=2, replicas=2
        )
        node = nodes[0]
        agent = SellerAgent(catalog.local(node), builder)
        query = chain_query(2)
        coverage = {
            alias: frozenset(
                catalog.schemes[query.relation_for(alias).name].fragment_ids
            )
            for alias in query.aliases
        }
        return builder, node, agent, query, coverage

    @given(loads=st.lists(st.sampled_from(LOADS), min_size=1, max_size=8))
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_churn_never_serves_stale_offers(self, loads):
        builder, node, agent, query, coverage = self._setup()
        base_caps = builder.caps(node)
        fresh = SellerAgent(agent.local, builder, use_offer_cache=False)
        for load in loads:
            builder.capabilities[node] = base_caps.with_load(load)
            cached_result, _ = agent.optimize_cached(query, coverage)
            expected, _ = fresh.optimize_cached(query, coverage)
            # Whatever mixture of hits and misses the churn produced,
            # the cached answer must equal re-optimizing under the
            # node's *current* capabilities, bit for bit.
            assert cached_result.plan.explain() == expected.plan.explain()
            assert (
                cached_result.plan.response_time()
                == expected.plan.response_time()
            )
            assert cached_result.enumerated == expected.enumerated

    @given(
        first=st.sampled_from(LOADS),
        second=st.sampled_from(LOADS),
    )
    @settings(deadline=None, max_examples=20)
    def test_repeat_load_hits_distinct_loads_miss(self, first, second):
        builder, node, agent, query, coverage = self._setup()
        base_caps = builder.caps(node)
        builder.capabilities[node] = base_caps.with_load(first)
        agent.optimize_cached(query, coverage)
        before = agent.offer_cache.stats.snapshot()
        builder.capabilities[node] = base_caps.with_load(second)
        agent.optimize_cached(query, coverage)
        delta = agent.offer_cache.stats.delta_since(before)
        if second == first:
            assert (delta.hits, delta.misses) == (1, 0)
        else:
            assert (delta.hits, delta.misses) == (0, 1)


class TestConcurrentSessions:
    """The broker regression: one cache, many interleaved sessions."""

    def test_views_share_entries_with_private_accounting(self):
        base = OfferCache()
        caps = NodeCapabilities()
        query = chain_query(2)
        key = base.key_for(query, {"r0": frozenset((0,))}, "n0", caps, "dp")
        first = base.session_view()
        second = base.session_view()
        assert first.lookup(key) is None
        first.store(key, "priced")
        # The entry crosses views; the miss/hit accounting does not.
        assert second.lookup(key) == "priced"
        assert (first.stats.hits, first.stats.misses) == (0, 1)
        assert (second.stats.hits, second.stats.misses) == (1, 0)
        assert (base.stats.hits, base.stats.misses) == (0, 0)
        assert len(base) == len(first) == len(second) == 1

    def test_interleaved_sessions_account_exactly(self):
        import threading

        base = OfferCache()
        caps = NodeCapabilities()
        keys = [
            base.key_for(
                chain_query(2), {"r0": frozenset((i,))}, f"n{i % 3}",
                caps, "dp",
            )
            for i in range(8)
        ]
        rounds = 200
        views = [base.session_view() for _ in range(4)]
        barrier = threading.Barrier(len(views))

        def session(view):
            barrier.wait()
            for i in range(rounds):
                key = keys[i % len(keys)]
                if view.lookup(key) is None:
                    view.store(key, f"dp-{i}")

        threads = [
            threading.Thread(target=session, args=(view,)) for view in views
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        # Every lookup was either a hit or a miss — none lost to a
        # race — and the shared store holds each key exactly once.
        for view in views:
            assert view.stats.hits + view.stats.misses == rounds
        assert len(base) == len(keys)
        total_misses = sum(view.stats.misses for view in views)
        assert len(keys) <= total_misses <= len(keys) * len(views)

    def test_rewrite_memo_stays_bounded_under_threads(self):
        import sys
        import threading

        base = OfferCache(max_entries=8)
        query = chain_query(2)
        views = [base.session_view() for _ in range(8)]
        barrier = threading.Barrier(len(views))
        wrong = []

        def session(view):
            barrier.wait()
            try:
                for i in range(2000):
                    key = (("r0", (i % 24,)),)
                    got = view.rewrite(query, key, lambda key=key: key)
                    if got != key or len(base._rewrites) > base.max_entries:
                        wrong.append((key, got))
            except Exception as exc:  # a torn eviction; reported below
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=session, args=(view,))
                for view in views
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(base._rewrites) <= base.max_entries
