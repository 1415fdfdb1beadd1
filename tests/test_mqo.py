"""Cross-session MQO: interning, amortization, epochs, equivalence."""

from __future__ import annotations

import pytest

from repro.bench.harness import BUYER, build_world
from repro.broker import (
    AdmissionConfig,
    BrokerService,
    OrderedBiddingProtocol,
    SessionBudget,
)
from repro.mqo import (
    CommodityInterner,
    MQOConfig,
    amortized_offer,
    money_shares,
)
from repro.net import Network
from repro.obs import Tracer
from repro.sql.query import SPJQuery
from repro.trading import BuyerPlanGenerator, QueryTrader
from repro.trading.cache import InternTable, OfferCache
from repro.trading.commodity import offer_id_scope
from repro.workload import (
    BurstConfig,
    OverlapConfig,
    build_bursty_workload,
    build_overlapping_analytics,
    chain_query,
)

#: Single-fragment relations so sellers can sell a shared join interior
#: as one complete materialized intermediate (the MQO-friendly world).
WORLD = dict(
    nodes=8, n_relations=6, rows=10_000, fragments=1, replicas=2, seed=7
)


def make_service(**kwargs) -> BrokerService:
    kwargs.setdefault("world_config", WORLD)
    kwargs.setdefault(
        "admission",
        AdmissionConfig(
            max_concurrent=4,
            queue_limit=64,
            budget=SessionBudget(rounds=6),
        ),
    )
    return BrokerService(**kwargs)


def submit_sql(service: BrokerService, sql: str, **payload):
    return service.submit(service.parse_spec({"sql": sql, **payload}))


def serve_all(service: BrokerService, arrivals):
    sessions = [
        submit_sql(service, a.query.sql(), tenant=a.tenant)
        for a in arrivals
    ]
    assert service.drain(timeout=120.0)
    return sessions


@pytest.fixture(scope="module")
def arrivals():
    return build_overlapping_analytics(
        OverlapConfig(tenants=4, queries_per_tenant=2, seed=7)
    )


# ----------------------------------------------------------------------
# The commodity interner: canonicalization properties
# ----------------------------------------------------------------------
class TestCommodityInterner:
    def test_shared_interior_interned_across_selections(self):
        """Same template, different driving selections -> interior shared."""
        a = chain_query(3, selection_cat=1)
        b = chain_query(3, selection_cat=2)
        shared = CommodityInterner().intern([("s1", a), ("s2", b)])
        assert shared, "the identical join interior was not interned"
        interiors = [
            c for c in shared
            if c.template.aliases == frozenset({"r1", "r2"})
        ]
        assert interiors and list(interiors[0].members) == ["s1", "s2"]
        # The template is exactly both members' canonical subquery.
        template = interiors[0].template
        assert template.key() == a.subquery_on(frozenset({"r1", "r2"})).key()
        assert template.key() == b.subquery_on(frozenset({"r1", "r2"})).key()

    def test_full_query_is_never_a_commodity(self):
        """Even identical full queries intern only proper subqueries."""
        q = chain_query(3, selection_cat=1)
        shared = CommodityInterner().intern([("s1", q), ("s2", q)])
        assert shared
        assert all(
            c.template.aliases != q.aliases for c in shared
        )

    def test_canonical_key_ignores_clause_order(self):
        """Permuted FROM/WHERE order still lands on one commodity."""
        q = chain_query(3, selection_cat=1)
        permuted = SPJQuery(
            relations=tuple(reversed(q.relations)),
            predicate=q.predicate,
            projections=q.projections,
            group_by=q.group_by,
        )
        assert permuted.key() == q.key()
        shared = CommodityInterner().intern([("s1", q), ("s2", permuted)])
        keys = {c.key for c in shared}
        interior = q.subquery_on(frozenset({"r1", "r2"})).key()
        assert interior in keys

    def test_disjoint_templates_do_not_intern(self):
        """Queries over different relation windows share nothing."""
        a = chain_query(2, selection_cat=1, relation_offset=0)
        b = chain_query(2, selection_cat=1, relation_offset=3)
        assert CommodityInterner().intern([("s1", a), ("s2", b)]) == []

    def test_share_threshold(self):
        q = chain_query(3, selection_cat=1)
        assert CommodityInterner().intern([("s1", q)]) == []
        three = CommodityInterner(share_threshold=3)
        assert three.intern([("s1", q), ("s2", q)]) == []
        assert three.intern([("s1", q), ("s2", q), ("s3", q)])


# ----------------------------------------------------------------------
# Split-cost arithmetic
# ----------------------------------------------------------------------
class TestAmortization:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 16])
    @pytest.mark.parametrize("total", [0.03, 1.0, 0.1234567, 977.001])
    def test_shares_sum_exactly(self, total, k):
        shares = money_shares(total, k)
        assert len(shares) == k
        assert sum(shares) == total  # bit-for-bit, not approximately
        assert all(s > 0 for s in shares)

    def test_amortized_offer_splits_execute_not_ship(self, arrivals):
        """time' = execute/k + ship; money' = the sharer's exact share."""
        world = build_world(**WORLD)
        service = make_service(mqo=MQOConfig(epoch_size=4, epoch_window=5.0))
        try:
            sessions = serve_all(service, arrivals[:4])
            seeded = [s for s in sessions if s.seed_offers]
            assert seeded, "no session received amortized seed offers"
            for session in seeded:
                for offer in session.seed_offers:
                    assert offer.shared_by >= 2
                    assert "shared_by=" in offer.describe()
        finally:
            service.close()
        del world

    def test_amortized_offer_arithmetic(self):
        from dataclasses import replace

        world = build_world(**WORLD)
        cache = world.offer_cache.session_view()
        sellers = world.seller_agents(offer_cache=cache)
        from repro.trading.commodity import RequestForBids

        template = chain_query(2, relation_offset=1)
        rfb = RequestForBids(
            buyer=BUYER, queries=(template,), round_number=0
        )
        with offer_id_scope():
            for node in sorted(sellers):
                offers, _work = sellers[node].prepare_offers(rfb)
                full = [
                    o for o in offers
                    if frozenset(o.coverage) == template.aliases
                ]
                if not full:
                    continue
                offer = full[0]
                shares = money_shares(offer.properties.money, 3)
                seed = amortized_offer(offer, shares[0], 3, 42)
                execute = min(offer.true_cost, offer.properties.total_time)
                ship = offer.properties.total_time - execute
                assert seed.properties.total_time == execute / 3 + ship
                assert seed.properties.money == shares[0]
                assert seed.offer_id == 42 and seed.shared_by == 3
                return
        pytest.fail("no seller produced a full-coverage template offer")


# ----------------------------------------------------------------------
# MQO-off byte-identity: broker == library
# ----------------------------------------------------------------------
class TestMQOOffByteIdentity:
    def library_ledger(self, query) -> str:
        world = build_world(**WORLD)
        network = Network(world.model)
        network.attach_tracer(Tracer())
        with offer_id_scope():
            trader = QueryTrader(
                BUYER,
                world.seller_agents(
                    offer_cache=world.offer_cache.session_view()
                ),
                network,
                BuyerPlanGenerator(world.builder, BUYER),
                protocol=OrderedBiddingProtocol(),
                max_iterations=6,
            )
            result = trader.optimize(query)
        assert result.found and result.ledger is not None
        return result.ledger.to_json()

    def broker_ledger(self, query, **service_kwargs) -> str:
        service = make_service(**service_kwargs)
        try:
            session = submit_sql(service, query.sql(), trace=True)
            assert session.wait(timeout=120.0)
            result = session.result
        finally:
            service.close()
        assert result is not None and result.found
        assert result.ledger is not None
        return result.ledger.to_json()

    def test_mqo_off_broker_matches_library(self, arrivals):
        """MQO-off ledgers are the library's, byte for byte."""
        query = arrivals[0].query
        assert self.broker_ledger(query) == self.library_ledger(query)

    def test_disabled_config_is_off(self, arrivals):
        """enabled=False never constructs a scheduler at all."""
        query = arrivals[0].query
        service = make_service(mqo=MQOConfig(enabled=False))
        try:
            assert service.mqo is None
            session = submit_sql(service, query.sql(), trace=True)
            assert session.wait(timeout=120.0)
            ledger = session.result.ledger.to_json()
        finally:
            service.close()
        assert ledger == self.library_ledger(query)

    def test_lone_session_in_mqo_broker_is_unseeded_and_identical(
        self, arrivals
    ):
        """A batch below min_batch dispatches un-seeded: byte-identical."""
        query = arrivals[0].query
        service = make_service(mqo=MQOConfig(epoch_size=8, epoch_window=0.01))
        try:
            session = submit_sql(service, query.sql(), trace=True)
            assert session.wait(timeout=120.0)
            assert session.seed_offers is None and session.epoch is None
            ledger = session.result.ledger.to_json()
        finally:
            service.close()
        assert ledger == self.library_ledger(query)


# ----------------------------------------------------------------------
# The epoch scheduler end to end
# ----------------------------------------------------------------------
class TestEpochScheduler:
    def run_broker(self, arrivals, mqo=None):
        service = make_service(mqo=mqo)
        try:
            sessions = serve_all(service, arrivals)
            results = [s.result for s in sessions]
            assert all(r is not None and r.found for r in results)
            metrics = service.metrics_payload()
            seeds = {
                s.session_id: [o.describe() for o in (s.seed_offers or [])]
                for s in sessions
            }
            plans = sorted(
                (r.best.plan.explain(), r.best.properties.total_time)
                for r in results
            )
        finally:
            service.close()
        return results, metrics, seeds, plans

    def test_sharing_lowers_aggregate_cost_and_payments(self, arrivals):
        base, base_metrics, _, _ = self.run_broker(arrivals)
        mqo, mqo_metrics, seeds, _ = self.run_broker(
            arrivals,
            mqo=MQOConfig(epoch_size=len(arrivals), epoch_window=5.0),
        )
        base_cost = sum(r.best.properties.total_time for r in base)
        mqo_cost = sum(r.best.properties.total_time for r in mqo)
        base_pay = sum(r.total_payment for r in base)
        mqo_pay = sum(r.total_payment for r in mqo)
        assert mqo_cost < base_cost
        assert mqo_pay < base_pay
        assert any(seeds.values())
        assert mqo_metrics["cache"]["intern_hits"] > 0
        assert base_metrics["cache"]["intern_hits"] == 0
        section = mqo_metrics["mqo"]
        assert section["epochs"] >= 1
        assert section["sessions_batched"] == len(arrivals)
        assert section["shared_pricing"]["reconciled"]
        assert section["shared_pricing"]["records"] > 0

    def test_shares_reconcile_exactly(self, arrivals):
        service = make_service(
            mqo=MQOConfig(epoch_size=len(arrivals), epoch_window=5.0)
        )
        try:
            serve_all(service, arrivals)
            ledger = service.mqo.shared_ledger
        finally:
            service.close()
        assert ledger.records and ledger.reconcile()
        for record in ledger.records:
            assert sum(record.shares) == record.full_money
            assert len(record.shares) == len(record.sharers) >= 2

    def test_deterministic_across_runs(self, arrivals):
        """Seeds, shares, and plans repeat on a fresh service."""
        config = MQOConfig(epoch_size=len(arrivals), epoch_window=5.0)
        _, first_metrics, first_seeds, first_plans = self.run_broker(
            arrivals, mqo=config
        )
        _, second_metrics, second_seeds, second_plans = self.run_broker(
            arrivals, mqo=config
        )
        assert first_seeds == second_seeds
        assert first_plans == second_plans
        assert (
            first_metrics["mqo"]["shared_pricing"]
            == second_metrics["mqo"]["shared_pricing"]
        )

    def test_bursty_sessions_all_complete_in_epochs(self):
        """Epoch batching never strands bursty, non-overlapping traffic."""
        bursty = build_bursty_workload(
            BurstConfig(
                tenants=2, bursts=2, burst_size=3,
                available_relations=4, seed=11,
            )
        )
        service = make_service(
            mqo=MQOConfig(epoch_size=3, epoch_window=0.05)
        )
        try:
            sessions = serve_all(service, bursty)
            assert all(s.result is not None for s in sessions)
            assert all(s.state == "completed" for s in sessions)
            metrics = service.metrics_payload()["mqo"]
        finally:
            service.close()
        assert metrics["sessions_batched"] == len(bursty)
        assert metrics["epochs"] >= 2
        assert service.mqo.pending() == 0

    def test_close_flushes_pending_sessions(self, arrivals):
        """close() seals the partial epoch; nothing waits forever."""
        service = make_service(
            mqo=MQOConfig(epoch_size=100, epoch_window=3600.0)
        )
        try:
            session = submit_sql(service, arrivals[0].query.sql())
            service.mqo.flush()  # what drain() does
            assert session.wait(timeout=120.0)
            assert session.state == "completed"
        finally:
            service.close()


# ----------------------------------------------------------------------
# Satellite: cache views must carry intern provenance
# ----------------------------------------------------------------------
def _key(site: str, tag: str):
    """A structurally-valid cache key (site lives at index 2)."""
    return (f"SELECT {tag}", (), site, None, "dp")


class TestInternSnapshotRegression:
    def test_session_view_shares_the_intern_table(self):
        cache = OfferCache()
        cache.interns = InternTable()
        view = cache.session_view()
        assert view.interns is cache.interns

    def test_eviction_spares_interned_entries(self):
        cache = OfferCache(max_entries=2)
        cache.interns = InternTable()
        pinned, other, newcomer = (
            _key("n", "pinned"), _key("n", "other"), _key("n", "new")
        )
        cache.store(pinned, object())
        cache.store(other, object())
        cache.interns.pin(pinned, "e1")
        cache.store(newcomer, object())  # evicts `other`, not `pinned`
        assert cache.lookup(pinned) is not None
        assert cache.lookup(newcomer) is not None
        assert cache.lookup(other) is None

    def test_eviction_without_interns_is_fifo(self):
        cache = OfferCache(max_entries=2)
        first, second, third = (
            _key("n", "1"), _key("n", "2"), _key("n", "3")
        )
        cache.store(first, object())
        cache.store(second, object())
        cache.store(third, object())
        assert cache.lookup(first) is None
        assert cache.lookup(second) is not None

    def test_intern_hits_zero_without_table(self):
        cache = OfferCache()
        key = _key("n", "x")
        cache.store(key, object())
        assert cache.lookup(key) is not None
        assert cache.stats.hits == 1 and cache.stats.intern_hits == 0
