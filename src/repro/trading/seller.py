"""The seller node: partial query constructor, cost estimator, and
seller predicates analyser (Sections 3.4–3.5).

On receiving an RFB the seller:

0. **skips**: a node holding none of the requested relations answers
   ``NO_OFFER`` without rewriting (its views and subcontractor, if any,
   are still asked; a node with no fragment, no view and no
   subcontractor skips the whole RFB),
1. **rewrites** each requested query to its local holdings (dropping
   non-local relations, restricting extents to local fragments); the
   rewrite is memoized in the offer cache, keyed by the query and its
   *compatible coverage* — the held fragments its selection may read —
   so every seller that can answer the same part of it shares one,
2. runs its **local optimizer** — the modified dynamic programming
   algorithm — obtaining a precise plan/cost for the rewritten query *and*
   the optimal 2-way, 3-way, ... partial results, each of which becomes
   an additional offered query,
3. lets the **predicates analyser** search its materialized views for
   cheap ways to answer the request (exact match, filter, or rollup of a
   finer-grained aggregate view),
4. asks its **strategy** to price every candidate offer (competitive
   sellers may shade or decline).

Sellers of one RFB that hold the same fragments of a requested query,
run on equal capabilities and share one offer cache and settings form a
*class*: steps 1–2 and the unpriced offers they yield are computed once
per class, by its first seller, and kept in the RFB's private memo
(each single-fragment sub-query likewise, once per RFB).  Every seller
still books its own step 2 as if it had run it: its own cache lookup
(the hit fraction on a hit; on a miss the full effort, storing the
result moved to its own site), lineage and nominal effort, and it does
steps 3–4 itself.  A seller without an offer cache shares nothing.

The returned ``work_seconds`` is the simulated local optimization effort
(enumerated plans × per-plan cost), which the network simulator charges
to the seller's compute timeline.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.catalog.catalog import LocalCatalog
from repro.cost.model import NodeCapabilities
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.dp import DPResult, DynamicProgrammingOptimizer
from repro.optimizer.plans import Plan, PlanBuilder
from repro.sql.expr import (
    TRUE,
    Expr,
    conjoin,
    implies,
    normalize_conjunction,
)
from repro.sql.query import SPJQuery
from repro.sql.rewrite import RewrittenQuery, compatible_coverage

# The rewrite step past the coverage, under the name this module has
# always called the rewrite by (the e2e benchmark's ``sql.rewrite``
# span wraps it here).
from repro.sql.rewrite import rewrite_to_coverage as rewrite_query
from repro.sql.views import match_view
from repro.trading.cache import OfferCache
from repro.trading.commodity import (
    AnswerProperties,
    Offer,
    RequestForBids,
    coverage_key,
    coverage_label,
)
from repro.trading.strategy import (
    CooperativeSellerStrategy,
    SellerContext,
    SellerStrategy,
)

__all__ = ["SellerAgent"]

#: Simulated seconds of optimizer work per enumerated (sub-)plan.
DEFAULT_SECONDS_PER_PLAN = 5e-5
#: Simulated seconds per view-match attempt.
SECONDS_PER_VIEW_MATCH = 2e-5


class SellerAgent:
    """One autonomous selling node.

    Parameters
    ----------
    local:
        The node's local catalog (schemas, schemes, held fragments, views).
    builder:
        Plan factory whose capabilities map includes this node.
    strategy:
        Pricing strategy (cooperative by default).
    offer_partials:
        Include the modified-DP partial results as extra offers
        (disabling this reduces message size but starves the buyer plan
        generator — an ablation the benchmarks exercise).
    max_partial_size:
        Cap on the relation-subset size of exported partials.
    offer_fragment_granularity:
        Additionally offer each locally held fragment of each relation as
        its own single-fragment commodity.  Overlapping holdings across
        sellers (node A holds {0,1}, node B holds {1,2}) often admit no
        *disjoint* exact cover at held-set granularity; per-fragment
        offers make round-one assembly the common case.
    join_capable:
        Autonomy also means heterogeneous *query capabilities* (paper
        §1): a node that cannot evaluate joins (a thin store, a
        key-value façade) only ever offers single-relation parts.
    use_views:
        Enable the seller predicates analyser (materialized views).
    subcontractor:
        Optional :class:`~repro.trading.subcontract.Subcontractor` — the
        extension Section 3.5 sketches and defers: a seller missing some
        of the requested data may *purchase* it from third nodes and
        offer the combined (e.g. pre-joined) answer itself.
    offer_cache:
        A shared :class:`~repro.trading.cache.OfferCache`; by default the
        agent creates a private one.  Pass ``use_offer_cache=False`` to
        disable caching entirely (every request re-optimizes and is
        rewritten again; the cache also holds the rewrite memo).
    """

    def __init__(
        self,
        local: LocalCatalog,
        builder: PlanBuilder,
        strategy: SellerStrategy | None = None,
        optimizer: DynamicProgrammingOptimizer | None = None,
        offer_partials: bool = True,
        max_partial_size: int | None = 3,
        offer_fragment_granularity: bool = True,
        join_capable: bool = True,
        use_views: bool = True,
        seconds_per_plan: float = DEFAULT_SECONDS_PER_PLAN,
        subcontractor=None,
        freshness: float = 1.0,
        offer_cache: OfferCache | None = None,
        use_offer_cache: bool = True,
    ):
        self.node = local.node
        self.local = local
        self.builder = builder
        self.strategy = strategy or CooperativeSellerStrategy()
        self.optimizer = optimizer or DynamicProgrammingOptimizer(builder)
        self.offer_partials = offer_partials
        self.max_partial_size = max_partial_size
        self.offer_fragment_granularity = offer_fragment_granularity
        self.join_capable = join_capable
        self.use_views = use_views
        self.seconds_per_plan = seconds_per_plan
        self.subcontractor = subcontractor
        if not (0.0 <= freshness <= 1.0):
            raise ValueError("freshness must be in [0, 1]")
        self.freshness = freshness
        if offer_cache is not None:
            self.offer_cache: OfferCache | None = offer_cache
        else:
            self.offer_cache = OfferCache() if use_offer_cache else None
        #: Relations this node holds a fragment of: a query naming none
        #: of them rewrites to ``None`` without being rewritten.
        self._held_relations = frozenset(
            name for name, fids in local.held.items() if fids
        )
        #: Observability hooks; the trader attaches its network's.
        self.tracer: Tracer = NULL_TRACER
        self.facts = None
        #: Cache lineage of the most recent :meth:`optimize_cached` call
        #: ("hit" / "miss" / "none"), read by the decision-ledger
        #: instrumentation right after the call.
        self._last_cache_lineage: str = "none"
        #: Nominal optimizer effort accumulated for the query currently
        #: being priced: ``enumerated × seconds_per_plan`` summed over
        #: the :meth:`optimize_cached` calls it triggered.  Unlike the
        #: *charged* work (which shrinks to ``hit_work_fraction`` on an
        #: offer-cache hit, so shared-cache interleaving makes it racy
        #: across sessions), the nominal effort is a pure function of
        #: the query and the seller's catalog — the deterministic
        #: per-offer ``effort`` the decision ledger records.
        self._nominal_effort: float = 0.0

    # ------------------------------------------------------------------
    def prepare_offers(
        self, rfb: RequestForBids
    ) -> tuple[list[Offer], float]:
        """All offers for *rfb*, plus the simulated optimization effort."""
        tracer = self.tracer
        facts = self.facts
        with tracer.span(
            "seller.prepare_offers", "trading", site=self.node,
            round=rfb.round_number, queries=len(rfb.queries),
        ) as span:
            if not self._held_relations and not self._answers_unheld():
                span.set(offers=0, work=0.0)
                return [], 0.0
            offers: list[Offer] = []
            work = 0.0
            lineage: dict[str, str] = {}
            efforts: dict[str, float] = {}
            for query in rfb.queries:
                self._last_cache_lineage = "none"
                self._nominal_effort = 0.0
                new_offers, query_work = self._offers_for(query, rfb)
                if tracer.enabled or facts is not None:
                    lineage[query.key()] = self._last_cache_lineage
                    efforts[query.key()] = self._nominal_effort
                offers.extend(new_offers)
                work += query_work
            deduped = _dedupe(offers)
            if facts is not None:
                facts.priced(deduped, efforts)
            if tracer.enabled:
                # Decision-ledger provenance: one pricing record per
                # offer that survives dedupe, carrying the optimization
                # lineage (offer-cache hit vs fresh DP) of the request it
                # answers.  An interned RFB (MQO epoch prepass)
                # additionally stamps the amortization factor: this
                # price is shared by that many buyer sessions and
                # charged once in aggregate.
                for offer in deduped:
                    shared = rfb.shared_count_for(offer.request_key)
                    tracer.event(
                        "ledger.priced", "decision", site=self.node,
                        cause=tracer.cause,
                        offer=offer.offer_id,
                        seller=offer.seller,
                        request=offer.request_key,
                        query=offer.query.key(),
                        coverage=coverage_label(offer.coverage_key()),
                        exact=offer.exact_projections,
                        money=offer.properties.money,
                        total_time=offer.properties.total_time,
                        cache=lineage.get(offer.request_key, "none"),
                        effort=round(
                            efforts.get(offer.request_key, 0.0), 12
                        ),
                        round=rfb.round_number,
                        **({"shared": shared} if shared else {}),
                    )
            span.set(offers=len(deduped), work=work)
            return deduped, work

    # ------------------------------------------------------------------
    def optimize_cached(
        self,
        query: SPJQuery,
        coverage: Mapping[str, frozenset[int]],
    ) -> tuple[DPResult, float]:
        """Local optimization through the offer/pricing cache.

        Returns the (possibly cached) :class:`DPResult` and the simulated
        optimization effort to charge: the full ``enumerated ×
        seconds_per_plan`` on a miss, the cache's ``hit_work_fraction``
        of it on a hit.  The key includes this node's current
        capabilities, so load/capability changes invalidate naturally and
        a hit is always exactly what re-optimizing would have produced.
        """
        if self.offer_cache is None:
            self._last_cache_lineage = "none"
            result = self.optimizer.optimize(
                query, self.node, coverage=dict(coverage)
            )
            nominal = result.enumerated * self.seconds_per_plan
            self._nominal_effort += nominal
            return result, nominal
        return self._through_cache(
            query,
            coverage,
            lambda: self.optimizer.optimize(
                query, self.node, coverage=dict(coverage)
            ),
        )

    def _through_cache(
        self,
        query: SPJQuery,
        coverage: Mapping[str, frozenset[int]],
        compute: Callable[[], DPResult],
    ) -> tuple[DPResult, float]:
        """:meth:`optimize_cached` with a cache, *compute* making the
        result on a miss: this node's own lookup, store, charge,
        lineage and nominal effort, whoever ran the optimization."""
        cache = self.offer_cache
        key = cache.key_for(
            query,
            coverage,
            self.node,
            self.builder.caps(self.node),
            self.optimizer.name,
        )
        cached = cache.lookup(key)
        if cached is not None:
            self._last_cache_lineage = "hit"
            # Nominal effort is cache-independent: ``enumerated`` is the
            # same whether the result was recomputed or replayed.
            self._nominal_effort += cached.enumerated * self.seconds_per_plan
            work = (
                cached.enumerated
                * self.seconds_per_plan
                * cache.hit_work_fraction
            )
            return cached, work
        self._last_cache_lineage = "miss"
        result = compute()
        cache.store(key, result)
        nominal = result.enumerated * self.seconds_per_plan
        self._nominal_effort += nominal
        return result, nominal

    # ------------------------------------------------------------------
    def _answers_unheld(self) -> bool:
        """May views or a subcontractor answer what no fragment covers?"""
        return bool(self.use_views and self.local.views) or (
            self.subcontractor is not None
        )

    def _rewrite(self, query: SPJQuery) -> RewrittenQuery | None:
        """*query* rewritten to this node's holdings, through the offer
        cache's rewrite memo when there is a cache; the compatible
        coverage is computed once and handed to the rewrite step.

        The memo is keyed by the fragments this node holds that *query*
        may read, not by all it holds: nodes that differ only in
        fragments the selection excludes share one rewrite, and a node
        left with none needs no rewrite at all.
        """
        local = self.local
        coverage = compatible_coverage(query, local.schemes, local.held)
        if not coverage:
            return None

        def compute() -> RewrittenQuery | None:
            return rewrite_query(query, local.schemes, coverage)

        cache = self.offer_cache
        if cache is None:
            return compute()
        return cache.rewrite(query, coverage_key(coverage), compute)

    def _class_key(self, query: SPJQuery) -> tuple:
        """What this node's rewrite, DP and offer templates for *query*
        depend on: nodes of one RFB with equal keys compute them once."""
        held = self.local.held
        optimizer = self.optimizer
        return (
            id(query),  # the RFB holds its queries: ids stay unique
            tuple(held.get(ref.name) for ref in query.relations),
            self.builder.caps(self.node),
            self.builder,
            # Each agent builds its own default DP, which depends on
            # its builder alone; any other optimizer counts by identity.
            (optimizer.builder, optimizer.max_relations)
            if type(optimizer) is DynamicProgrammingOptimizer
            else optimizer,
            self.join_capable,
            self.offer_partials,
            self.max_partial_size,
            self.offer_fragment_granularity,
            self.freshness,
            self.seconds_per_plan,
            self.offer_cache,
        )

    def _offers_for(
        self, query: SPJQuery, rfb: RequestForBids
    ) -> tuple[list[Offer], float]:
        held = self._held_relations
        key = shared = None
        if any(ref.name in held for ref in query.relations):
            if self.offer_cache is not None:
                key = self._class_key(query)
                shared = rfb._memo.classes.get(key)
            if shared is None:
                rewritten = self._rewrite(query)
                if rewritten is None and key is not None:
                    rfb._memo.classes[key] = (None, None, ())
            else:
                rewritten = shared[0]
        else:
            rewritten = None
        if rewritten is None and not self._answers_unheld():
            return [], 0.0
        ctx = SellerContext(
            query_key=query.key(),
            reservation=rfb.reservation_for(query),
            round_number=rfb.round_number,
            caps=self.builder.caps(self.node),
        )
        offers: list[Offer] = []
        work = 0.0

        if rewritten is not None:
            if shared is None:
                result, work = self.optimize_cached(
                    rewritten.query, rewritten.coverage
                )
                templates = (
                    self._plan_templates(query, rewritten, result, rfb)
                    if result.plan is not None
                    else ()
                )
                if key is not None:
                    rfb._memo.classes[key] = (rewritten, result, templates)
            else:
                # A class-mate's DP result, booked as this node's own:
                # on a miss it is stored moved to this site, which the
                # subcontractor's join reads back.
                _, result, templates = shared
                _, work = self._through_cache(
                    rewritten.query,
                    rewritten.coverage,
                    lambda: result.moved_to(self.node),
                )
            offers.extend(self._priced(query, templates, ctx))

        if self.use_views:
            view_offers, view_work = self._view_offers(query, ctx)
            offers.extend(view_offers)
            work += view_work

        if self.subcontractor is not None:
            sub_offers, sub_work = self.subcontractor.augment(
                self, query, rewritten, ctx
            )
            offers.extend(sub_offers)
            work += sub_work
        return offers, work

    def _plan_templates(
        self,
        request: SPJQuery,
        rewritten: RewrittenQuery,
        result: DPResult,
        rfb: RequestForBids,
    ) -> list[tuple]:
        """The unpriced plan offers, in offer order: ``(offered query,
        coverage, properties, execute seconds, exact projections)``."""
        templates: list[tuple] = []
        full_aliases = frozenset(rewritten.query.aliases)
        if self.join_capable or len(full_aliases) == 1:
            templates.append(
                self._template(
                    rewritten.query,
                    result.plan,
                    rewritten.coverage,
                    rewritten.exact_projections,
                )
            )
        if not self.offer_partials:
            return templates
        for subset, plan in sorted(
            result.best.items(), key=lambda kv: sorted(kv[0])
        ):
            if subset == full_aliases:
                continue
            if (
                self.max_partial_size is not None
                and len(subset) > self.max_partial_size
            ):
                continue
            if not self.join_capable and len(subset) > 1:
                continue
            sub_query = rewritten.query.subquery_on(subset)
            if sub_query is None:
                continue
            coverage = {
                alias: rewritten.coverage[alias] for alias in subset
            }
            templates.append(self._template(sub_query, plan, coverage, False))
        if self.offer_fragment_granularity:
            templates.extend(
                self._fragment_templates(request, rewritten, rfb)
            )
        return templates

    def _fragment_templates(
        self,
        request: SPJQuery,
        rewritten: RewrittenQuery,
        rfb: RequestForBids,
    ) -> list[tuple]:
        """Single-fragment commodities for every held fragment; each
        fragment's sub-query is built once per RFB."""
        shared = (
            rfb._memo.fragments if self.offer_cache is not None else {}
        )
        templates: list[tuple] = []
        alias_to_relation = {
            r.alias: r.name for r in rewritten.query.relations
        }
        for alias, fragment_ids in sorted(rewritten.coverage.items()):
            if len(fragment_ids) < 2:
                continue  # the held-set partial already is one fragment
            ref = rewritten.query.relation_for(alias)
            for fid in sorted(fragment_ids):
                key = (id(request), alias, fid)
                parts = shared.get(key)
                if parts is None:
                    parts = shared[key] = self._fragment_query(
                        request, alias, ref.name, fid
                    )
                if not parts:
                    break  # the request has no sub-query on *alias*
                sub_query, scan_selection = parts
                plan = self.builder.scan(
                    ref, (fid,), scan_selection, self.node, alias_to_relation
                )
                templates.append(
                    self._template(
                        sub_query, plan, {alias: frozenset((fid,))}, False
                    )
                )
        return templates

    def _fragment_query(
        self, request: SPJQuery, alias: str, relation: str, fid: int
    ) -> tuple[SPJQuery, Expr] | tuple[()]:
        """Fragment *fid* of *alias*'s relation as a query of its own,
        and the part of *request*'s selection its restriction leaves to
        the scan; ``()`` if *request* has no sub-query on *alias*."""
        base = request.subquery_on((alias,))
        if base is None:
            return ()
        restriction = (
            self.local.schemes[relation].fragment(fid).restriction_for(alias)
        )
        scan_selection = conjoin(
            [
                c
                for c in request.selection_on(alias).conjuncts()
                if not implies(restriction, c)
            ]
        )
        sub_query = SPJQuery(
            relations=base.relations,
            predicate=normalize_conjunction(
                conjoin([base.predicate, restriction])
            ),
        )
        return sub_query, scan_selection

    def _template(
        self,
        offered_query: SPJQuery,
        plan: Plan,
        coverage: Mapping[str, frozenset[int]],
        exact: bool,
    ) -> tuple:
        rows = plan.rows
        execute = plan.response_time()
        ship = self.builder.cost_model.transfer(rows)
        properties = AnswerProperties(
            total_time=execute + ship,
            rows=rows,
            first_row_time=execute + self.builder.cost_model.network.latency,
            rows_per_second=rows / ship if ship > 0 else rows,
            freshness=self.freshness,
        )
        return offered_query, coverage, properties, execute, exact

    def _priced(
        self,
        request: SPJQuery,
        templates: Iterable[tuple],
        ctx: SellerContext,
    ) -> list[Offer]:
        """This node's offers for *templates*, priced by its strategy."""
        offers: list[Offer] = []
        for offered, coverage, properties, execute, exact in templates:
            priced = self.strategy.price(properties, execute, ctx)
            if priced is None:
                continue
            offers.append(
                Offer(
                    seller=self.node,
                    query=offered,
                    coverage=dict(coverage),
                    properties=priced,
                    exact_projections=exact,
                    request_key=request.key(),
                    true_cost=execute,
                )
            )
        return offers

    # -- seller predicates analyser ---------------------------------------
    def _view_offers(
        self, query: SPJQuery, ctx: SellerContext
    ) -> tuple[list[Offer], float]:
        offers: list[Offer] = []
        work = 0.0
        for view in self.local.views:
            work += SECONDS_PER_VIEW_MATCH
            match = match_view(query, view, self.local.schemas)
            if match is None:
                continue
            caps = ctx.caps
            model = self.builder.cost_model
            rows_out = self.builder.estimator.query_rows(query)
            execute = model.scan(view.row_count, caps)
            if match.residual is not TRUE:
                execute += model.cpu_pass(view.row_count, caps)
            if match.needs_rollup:
                execute += model.cpu_pass(view.row_count, caps)
            ship = model.transfer(rows_out)
            properties = AnswerProperties(
                total_time=execute + ship,
                rows=rows_out,
                first_row_time=execute + model.network.latency,
                rows_per_second=rows_out / ship if ship > 0 else rows_out,
                freshness=min(self.freshness, view.freshness),
            )
            priced = self.strategy.price(properties, execute, ctx)
            if priced is None:
                continue
            coverage = {
                ref.alias: self.local.schemes[ref.name].fragment_ids
                for ref in query.relations
            }
            offers.append(
                Offer(
                    seller=self.node,
                    query=query,
                    coverage=coverage,
                    properties=priced,
                    exact_projections=True,
                    request_key=query.key(),
                    true_cost=execute,
                )
            )
        return offers, work

    def record_outcomes(self, won_keys: Iterable[str], lost_keys: Iterable[str]) -> None:
        for key in won_keys:
            self.strategy.record_outcome(key, True)
        for key in lost_keys:
            self.strategy.record_outcome(key, False)


def _dedupe(offers: list[Offer]) -> list[Offer]:
    """Keep one offer per (request, query, coverage): cheapest total time."""
    best: dict[tuple, Offer] = {}
    for offer in offers:
        key = offer.dedupe_key()
        current = best.get(key)
        if (
            current is None
            or offer.properties.total_time < current.properties.total_time
        ):
            best[key] = offer
    return list(best.values())
