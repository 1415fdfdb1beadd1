"""The trading-epoch batcher: price shared commodities once, seed all.

Concurrent broker sessions accumulate into an *epoch*; when the epoch
seals (size reached, or the window timer fires for a partial batch),
the scheduler runs a shared-pricing prepass before any member
negotiates:

1. the :class:`~repro.mqo.interner.CommodityInterner` groups the
   members' connected subqueries by canonical key — a subquery shared
   by two or more members is a shared commodity;
2. for each member, in submission order, every seller prices the
   member's shared templates through one interned RFB
   (``shared_counts`` set) against a shared epoch cache view — the
   first sharer pays the full optimization, later sharers hit the
   now-pinned cache entries (counted as ``intern_hits``);
3. each (commodity, seller) full price splits into per-sharer shares
   that sum back exactly (see :mod:`repro.mqo.ledger`), and every
   member receives amortized *seed offers* — materialized-intermediate
   commodities injected into its trader before round one.

The members then dispatch to the ordinary session workers.  An epoch
with nothing shared (or below ``min_batch``) dispatches its members
un-seeded, which is byte-identical to the MQO-off path.

Everything in the prepass is pure deterministic compute — no network,
no clock — so seed offers (ids, prices, shares) are identical across
repeated runs at any concurrency.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.mqo.interner import CommodityInterner, SharedCommodity
from repro.mqo.ledger import (
    SharedPricing,
    SharedPricingLedger,
    amortized_offer,
    money_shares,
)
from repro.trading.cache import CacheStats, InternTable
from repro.trading.commodity import (
    Offer,
    RequestForBids,
    next_offer_id,
    offer_id_scope,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.harness import World
    from repro.broker.sessions import BrokerSession

__all__ = ["MQOConfig", "EpochScheduler"]


@dataclass(frozen=True)
class MQOConfig:
    """Knobs of the multi-query-optimization epoch scheduler."""

    enabled: bool = True
    #: Seal the epoch as soon as this many sessions pend.
    epoch_size: int = 8
    #: Wall seconds before a partial epoch seals anyway (a lone session
    #: must not wait forever for company).
    epoch_window: float = 0.25
    #: Below this batch size the prepass is skipped entirely.
    min_batch: int = 2
    #: Subset-size bounds for the commodity interner.
    min_shared_relations: int = 2
    max_shared_relations: int = 4
    #: Distinct members that must share a subquery to intern it.
    share_threshold: int = 2
    #: Seed offers mint ids from a scope starting here, far above any
    #: session-local sequence (sessions count from 1), so a seed id can
    #: never collide with an in-session offer id in plan provenance.
    offer_id_base: int = 1_000_000_000
    #: Id-space stride between consecutive epochs.
    epoch_id_stride: int = 1_000_000


@dataclass
class EpochCounters:
    """Cumulative scheduler statistics (serving metrics)."""

    epochs: int = 0
    sessions_batched: int = 0
    sessions_seeded: int = 0
    templates_interned: int = 0
    seeds_injected: int = 0
    prepass_work_seconds: float = 0.0


class EpochScheduler:
    """Batches broker sessions into epochs and runs the prepass.

    Parameters
    ----------
    world:
        The broker's federation world (catalog, builder, shared cache).
    buyer:
        The buying node id sessions negotiate as.
    dispatch:
        Callback releasing one session to the ordinary session workers
        (the broker passes its manager-submit hook).
    config:
        The :class:`MQOConfig` knobs.
    """

    def __init__(
        self,
        world: "World",
        buyer: str,
        dispatch: Callable[["BrokerSession"], None],
        config: MQOConfig | None = None,
    ):
        self.world = world
        self.buyer = buyer
        self.dispatch = dispatch
        self.config = config or MQOConfig()
        self.counters = EpochCounters()
        self.shared_ledger = SharedPricingLedger()
        #: Prepass cache accounting, accumulated across epochs.
        self.cache_stats = CacheStats()
        self._interner = CommodityInterner(
            min_relations=self.config.min_shared_relations,
            max_relations=self.config.max_shared_relations,
            share_threshold=self.config.share_threshold,
        )
        self._pending: list["BrokerSession"] = []
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._timer: threading.Timer | None = None
        self._closed = False
        if self.world.offer_cache is not None and (
            self.world.offer_cache.interns is None
        ):
            self.world.offer_cache.interns = InternTable()

    # ------------------------------------------------------------------
    def add(self, session: "BrokerSession") -> None:
        """Queue *session* for the next epoch (may seal it)."""
        flush_now = False
        with self._lock:
            if self._closed:
                flush_now = True  # dispatch immediately, no batching
            else:
                self._pending.append(session)
                if len(self._pending) >= self.config.epoch_size:
                    flush_now = True
                elif self._timer is None:
                    self._timer = threading.Timer(
                        self.config.epoch_window, self.flush
                    )
                    self._timer.daemon = True
                    self._timer.start()
        if self._closed:
            self.dispatch(session)
        elif flush_now:
            self.flush()

    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    def close(self) -> None:
        """Stop batching; flush whatever pends so nothing is stranded."""
        with self._lock:
            self._closed = True
        self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Seal the current epoch and dispatch its members."""
        with self._flush_lock:
            with self._lock:
                members = self._pending
                self._pending = []
                if self._timer is not None:
                    self._timer.cancel()
                    self._timer = None
            if not members:
                return
            self.counters.epochs += 1
            self.counters.sessions_batched += len(members)
            epoch_no = self.counters.epochs
            seeds: dict[str, list[Offer]] = {}
            if len(members) >= self.config.min_batch:
                try:
                    seeds = self._prepass(epoch_no, members)
                except Exception:
                    seeds = {}  # a broken prepass must not strand sessions
            for member in members:
                member.seed_offers = seeds.get(member.session_id)
                if member.seed_offers:
                    member.epoch = f"e{epoch_no}"
                    self.counters.sessions_seeded += 1
                    self.counters.seeds_injected += len(member.seed_offers)
                self.dispatch(member)

    # ------------------------------------------------------------------
    def _prepass(
        self, epoch_no: int, members: list["BrokerSession"]
    ) -> dict[str, list[Offer]]:
        """Price every shared commodity once; build per-member seeds."""
        shared = self._interner.intern(
            [(m.session_id, m.spec.query) for m in members]
        )
        if not shared:
            return {}
        self.counters.templates_interned += len(shared)
        epoch_id = f"e{epoch_no}"
        base_cache = self.world.offer_cache
        epoch_view = (
            base_cache.session_view() if base_cache is not None else None
        )
        sellers = self.world.seller_agents(offer_cache=epoch_view)
        by_member: dict[str, list[SharedCommodity]] = {
            m.session_id: [
                c for c in shared if m.session_id in c.members
            ]
            for m in members
        }
        # One canonical full-price offer per (commodity, seller) — the
        # first sharer's pricing defines it; later sharers re-derive the
        # identical answer through the (pinned) cache, which is what
        # the intern-hit accounting measures.
        full_offers: dict[tuple[str, str], Offer] = {}
        known_keys: set = (
            set(base_cache.keys()) if base_cache is not None else set()
        )
        with offer_id_scope(
            start=self.config.offer_id_base
            + (epoch_no - 1) * self.config.epoch_id_stride
        ):
            for member in members:
                templates = by_member.get(member.session_id) or []
                if not templates:
                    continue
                rfb = RequestForBids(
                    buyer=self.buyer,
                    queries=tuple(c.template for c in templates),
                    reservations={},
                    round_number=0,
                    shared_counts={c.key: c.sharers for c in templates},
                )
                wanted = {c.key: c for c in templates}
                for node in sorted(sellers):
                    offers, work = sellers[node].prepare_offers(rfb)
                    self.counters.prepass_work_seconds += work
                    for offer in offers:
                        commodity = wanted.get(offer.request_key)
                        if commodity is None:
                            continue
                        if (
                            frozenset(offer.coverage)
                            != commodity.template.aliases
                        ):
                            continue  # partial/fragment, not the intermediate
                        full_offers.setdefault(
                            (commodity.key, node), offer
                        )
                # Pin whatever this pass stored so the *next* sharer's
                # lookups count as intern hits (and stay eviction-safe).
                if base_cache is not None and base_cache.interns is not None:
                    current = set(base_cache.keys())
                    for key in current - known_keys:
                        base_cache.interns.pin(key, epoch_id)
                    known_keys = current
            # Split each full price across its sharers, exactly.
            seeds: dict[str, list[Offer]] = {
                m.session_id: [] for m in members
            }
            for commodity in shared:
                k = commodity.sharers
                for node in sorted(sellers):
                    offer = full_offers.get((commodity.key, node))
                    if offer is None:
                        continue
                    shares = money_shares(offer.properties.money, k)
                    self.shared_ledger.record(
                        SharedPricing(
                            epoch=epoch_id,
                            commodity=commodity.key,
                            seller=node,
                            full_money=offer.properties.money,
                            full_time=offer.properties.total_time,
                            sharers=list(commodity.members),
                            shares=shares,
                        )
                    )
                    for idx, member_id in enumerate(commodity.members):
                        seeds[member_id].append(
                            amortized_offer(
                                offer, shares[idx], k, next_offer_id()
                            )
                        )
        if epoch_view is not None:
            self.cache_stats.add(epoch_view.stats)
        return {sid: offers for sid, offers in seeds.items() if offers}

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """The serving-metrics payload section for MQO."""
        return {
            "epochs": self.counters.epochs,
            "sessions_batched": self.counters.sessions_batched,
            "sessions_seeded": self.counters.sessions_seeded,
            "templates_interned": self.counters.templates_interned,
            "seeds_injected": self.counters.seeds_injected,
            "prepass_work_seconds": round(
                self.counters.prepass_work_seconds, 6
            ),
            "prepass_cache": {
                "hits": self.cache_stats.hits,
                "misses": self.cache_stats.misses,
                "intern_hits": self.cache_stats.intern_hits,
            },
            "shared_pricing": self.shared_ledger.to_dict(),
        }
