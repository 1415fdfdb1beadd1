"""The Query-Trading optimizer: the iterative algorithm of Figure 2.

Steps (buyer side), as in the paper:

* **B1** — strategically estimate values for the current query set Q;
* **B2** — request bids from the selling nodes;
* **B3** — run the negotiation protocol, gathering offers (sellers run
  S2.1–S3: rewrite, local optimization, predicates analysis, pricing);
* **B4** — combine winning offers into candidate execution plans;
* **B5/B6** — the buyer predicates analyser enriches Q with new queries
  that could improve the next round's plans;
* **B7** — keep the best plan; terminate when it stopped improving or no
  new query was found;
* **B8** — award the winning offers (strike contracts) and return the
  plan.

The trader runs against the discrete-event network, so its result carries
exact simulated optimization time and message counts — the quantities
the paper's experimental study reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.net.simulator import Network, NetworkStats
from repro.obs.ledger import NegotiationLedger
from repro.obs.metrics import RunTelemetry
from repro.obs.tracer import Tracer
from repro.optimizer.plans import PlanBuilder, Purchased
from repro.sql.query import SPJQuery
from repro.trading.buyer import (
    BuyerPlanGenerator,
    BuyerPredicatesAnalyser,
    CandidatePlan,
)
from repro.trading.cache import CacheStats
from repro.trading.commodity import Offer, RequestForBids, coverage_label
from repro.trading.contracts import Contract
from repro.trading.protocols import BiddingProtocol, NegotiationProtocol
from repro.trading.seller import SellerAgent
from repro.trading.strategy import BuyerStrategy
from repro.trading.valuation import Valuation, WeightedValuation

__all__ = ["QueryTrader", "TradingResult", "ResilienceSummary"]


@dataclass
class IterationTrace:
    """Per-iteration diagnostics (drives the convergence experiment)."""

    round_number: int
    queries_asked: int
    offers_received: int
    best_value: float | None
    elapsed: float


@dataclass
class ResilienceSummary:
    """What it took to survive an unreliable federation.

    All-zero for a fault-free run.  ``degradation`` compares the final
    plan against a fault-free reference cost when one is known:
    ``0.0`` means the faults cost nothing, ``0.25`` a 25% worse plan.
    """

    timeouts_fired: int = 0  # CFB round deadlines that expired
    retries: int = 0  # all-silent rounds re-issued (with backoff)
    renegotiations: int = 0  # post-award re-trades after seller crashes
    contracts_voided: int = 0
    voided: list[Contract] = field(default_factory=list)
    fault_free_cost: float | None = None  # reference plan cost, if known
    final_cost: float | None = None

    @property
    def degradation(self) -> float | None:
        if not self.fault_free_cost or self.final_cost is None:
            return None
        return self.final_cost / self.fault_free_cost - 1.0

    @property
    def clean(self) -> bool:
        """True when no resilience machinery had to engage."""
        return not (
            self.timeouts_fired
            or self.retries
            or self.renegotiations
            or self.contracts_voided
        )

    def describe(self) -> str:
        parts = [
            f"timeouts={self.timeouts_fired}",
            f"retries={self.retries}",
            f"renegotiations={self.renegotiations}",
            f"voided={self.contracts_voided}",
        ]
        degradation = self.degradation
        if degradation is not None:
            parts.append(f"degradation={degradation:+.1%}")
        return " ".join(parts)


@dataclass
class TradingResult:
    """Everything the trading negotiation produced."""

    query: SPJQuery
    best: CandidatePlan | None
    contracts: list[Contract] = field(default_factory=list)
    iterations: int = 0
    offers_considered: int = 0
    optimization_time: float = 0.0  # simulated seconds
    messages: NetworkStats = field(default_factory=NetworkStats)
    trace: list[IterationTrace] = field(default_factory=list)
    cache: CacheStats = field(default_factory=CacheStats)  # seller offer caches
    resilience: ResilienceSummary = field(default_factory=ResilienceSummary)
    #: True when the negotiation stopped because a compute budget ran
    #: out (offer budget hit, or the round cap fired with refined
    #: queries still pending) rather than by natural convergence.  Any
    #: plan present is still valid — just possibly improvable; the
    #: broker reports such sessions as ``degraded``.
    budget_exhausted: bool = False
    #: The trade's trace records (``None`` unless traced), kept until
    #: both :attr:`telemetry` and :attr:`ledger` have been derived.
    _records: list | None = field(default=None, init=False, repr=False)
    _telemetry: RunTelemetry | None = field(
        default=None, init=False, repr=False
    )
    _ledger: NegotiationLedger | None = field(
        default=None, init=False, repr=False
    )

    def attach_records(self, records: list) -> None:
        """Keep *records* (this trade's slice of a trace) to derive
        :attr:`telemetry` and :attr:`ledger` from when first read;
        replaces anything derived from an earlier slice."""
        self._records = records
        self._telemetry = self._ledger = None

    @property
    def telemetry(self) -> RunTelemetry | None:
        """Span, event and gauge counts and the critical path (``None``
        unless a tracer was attached to the network — see
        :mod:`repro.obs`), derived on first read."""
        if self._telemetry is None:
            records = self._records
            if records is not None:
                self._telemetry = RunTelemetry.from_records(records)
                self._release_records()
        return self._telemetry

    @property
    def ledger(self) -> NegotiationLedger | None:
        """The negotiation's decision ledger (``None`` unless traced) —
        the causal RFB -> offer -> ranking -> award/void chain behind
        this result; feed it to :func:`repro.obs.explain`.  Derived on
        first read."""
        if self._ledger is None:
            records = self._records
            if records is not None:
                self._ledger = NegotiationLedger.from_records(records)
                self._release_records()
        return self._ledger

    def derive_trace(self) -> None:
        """Derive :attr:`telemetry` and :attr:`ledger` now, dropping the
        records — for a holder that keeps the result but not its trace
        (derived, a trace weighs about half its records)."""
        self.telemetry
        self.ledger

    def _release_records(self) -> None:
        # Readers on other threads re-read the derived attribute after
        # finding the slice gone, so dropping it here is safe.
        if self._telemetry is not None and self._ledger is not None:
            self._records = None

    @property
    def found(self) -> bool:
        return self.best is not None

    @property
    def plan_cost(self) -> float:
        if self.best is None:
            raise ValueError("no plan found")
        return self.best.properties.total_time

    @property
    def total_payment(self) -> float:
        return sum(c.agreed.money for c in self.contracts)


class QueryTrader:
    """Buyer-side driver of the query-trading optimization.

    Parameters
    ----------
    buyer:
        The buying node's id.
    sellers:
        The selling agents, keyed by node id (in a real deployment these
        run remotely; here they live behind the simulated network).
    network:
        The discrete-event fabric (timing + message accounting).
    plan_generator:
        Buyer plan generator (choose ``mode='idp'`` for IDP-M(2,5)).
    protocol:
        Negotiation protocol; sealed-bid bidding by default.
    buyer_strategy:
        Reservation-value strategy (step B1).
    max_iterations:
        Upper bound on trading rounds (the algorithm usually terminates
        earlier via the no-improvement/no-new-queries rule).
    improvement_epsilon:
        Minimum relative improvement that counts as "better".
    offer_budget:
        Optional cap on distinct offers evaluated across all rounds;
        when hit, the negotiation stops after the current round and the
        result is flagged ``budget_exhausted`` (broker sessions report
        it as a ``degraded`` completion).
    seed_offers:
        Offers injected into the buyer's cross-round offer table before
        round one — the MQO epoch scheduler's amortized
        materialized-intermediate offers.  They compete with (and are
        displaced by) in-session offers under the ordinary valuation
        rule, and participate in awards like any other offer.  The
        default (no seeds) preserves every existing path exactly.
    """

    def __init__(
        self,
        buyer: str,
        sellers: Mapping[str, SellerAgent],
        network: Network,
        plan_generator: BuyerPlanGenerator,
        protocol: NegotiationProtocol | None = None,
        buyer_strategy: BuyerStrategy | None = None,
        valuation: Valuation | None = None,
        max_iterations: int = 6,
        improvement_epsilon: float = 1e-3,
        offer_budget: int | None = None,
        seed_offers: Sequence[Offer] | None = None,
    ):
        self.buyer = buyer
        self.sellers = dict(sellers)
        self.network = network
        self.plan_generator = plan_generator
        self.protocol = protocol or BiddingProtocol()
        self.buyer_strategy = buyer_strategy or BuyerStrategy()
        self.valuation = valuation or WeightedValuation()
        self.max_iterations = max_iterations
        self.improvement_epsilon = improvement_epsilon
        #: Optional cap on distinct offers evaluated across all rounds
        #: (a per-session compute budget under the broker).  ``None``
        #: preserves the unbudgeted historical behavior exactly.
        self.offer_budget = offer_budget
        self.seed_offers: list[Offer] = list(seed_offers or ())
        self.analyser = BuyerPredicatesAnalyser(plan_generator.builder.schemes)

    # ------------------------------------------------------------------
    def optimize(self, query: SPJQuery, initial_value: float | None = None) -> TradingResult:
        """Run the full iterative trading negotiation for *query*."""
        net = self.network
        tracer = net.tracer
        facts = net.facts
        self._wire(tracer, facts)
        mark = len(tracer.records)
        with tracer.span(
            "trade.optimize", "trading", site=self.buyer, query=query.key()
        ) as span:
            start_time = net.now
            start_stats = net.stats.snapshot()
            start_cache = self._cache_stats()

            asked: set[str] = set()
            offers: dict[tuple, Offer] = {}
            best: CandidatePlan | None = None
            estimates: dict[str, float] = {}
            if initial_value is not None:
                estimates[query.key()] = initial_value
            # MQO seeds enter the offer table before round one, exactly
            # as if a round-zero solicitation had produced them;
            # in-session offers for the same commodity displace them only
            # by beating them under the ordinary valuation rule.
            for offer in self.seed_offers:
                key = (
                    offer.seller,
                    offer.query.key(),
                    offer.coverage_key(),
                    offer.exact_projections,
                )
                offers[key] = offer
                value = self.valuation(offer.properties)
                estimate = estimates.get(offer.query.key())
                if estimate is None or value < estimate:
                    estimates[offer.query.key()] = value
                if facts is not None:
                    facts.received(offer, value)
                tracer.event(
                    "ledger.offer", "decision", site=self.buyer,
                    offer=offer.offer_id,
                    seller=offer.seller,
                    query=offer.query.key(),
                    coverage=coverage_label(offer.coverage_key()),
                    exact=offer.exact_projections,
                    round=0,
                    money=offer.properties.money,
                    total_time=offer.properties.total_time,
                    value=value,
                    outcome="seeded",
                    **({"shared": offer.shared_by} if offer.shared_by else {}),
                )
            queries: list[SPJQuery] = [query]
            # What the answer must cover is fixed for the trade: the plan
            # generator and the predicates analyser both read it every
            # round.
            required = self.plan_generator.required_coverage(query)
            trace: list[IterationTrace] = []
            iterations = 0
            resilience = ResilienceSummary()
            budget_exhausted = False
            # The previous round's plan generation, which the next one
            # reuses where the offer table left it unchanged; it goes with
            # this call.
            plan_result = None

            for round_number in range(1, self.max_iterations + 1):
                queries = [q for q in queries if q.key() not in asked]
                if not queries:
                    break
                iterations = round_number
                for q in queries:
                    asked.add(q.key())

                with tracer.span(
                    "trade.round", "trading", site=self.buyer,
                    round=round_number, queries=len(queries),
                ) as round_span:
                    # B1: strategic value estimation.
                    reservations: dict[str, float] = {}
                    for q in queries:
                        reservation = self.buyer_strategy.reservation(
                            estimates.get(q.key())
                        )
                        if reservation is not None:
                            reservations[q.key()] = reservation
                    rfb = RequestForBids(
                        buyer=self.buyer,
                        queries=tuple(queries),
                        reservations=reservations,
                        round_number=round_number,
                    )

                    # B2/B3: solicit offers over the network.
                    result = self.protocol.solicit(
                        net, self.buyer, self.sellers, rfb
                    )
                    if facts is not None:
                        facts.rounds += 1
                    resilience.timeouts_fired += result.timeouts_fired
                    resilience.retries += result.retries
                    for offer in result.offers:
                        key = (
                            offer.seller,
                            offer.query.key(),
                            offer.coverage_key(),
                            offer.exact_projections,
                        )
                        current = offers.get(key)
                        value = self.valuation(offer.properties)
                        kept = current is None or value < self.valuation(
                            current.properties
                        )
                        if kept:
                            offers[key] = offer
                        if facts is not None:
                            facts.received(offer, value)
                        if tracer.enabled:
                            self._ledger_offer(
                                tracer, offer, current, value, kept,
                                round_number,
                            )
                        # Track per-query market estimates for future
                        # reservations.
                        estimate = estimates.get(offer.query.key())
                        if estimate is None or value < estimate:
                            estimates[offer.query.key()] = value

                    # B4: generate candidate plans (buyer-side compute is
                    # booked on the buyer's timeline).
                    all_offers = list(offers.values())
                    plan_result = self.plan_generator.generate(
                        query, all_offers,
                        required=required, prior=plan_result,
                    )
                    plan_work = (
                        plan_result.enumerated
                        * self.plan_generator.seconds_per_plan
                    )
                    finish = net.compute(self.buyer, plan_work)
                    tracer.interval(
                        "buyer.compute", "trading", site=self.buyer,
                        sim_start=finish - plan_work, sim_end=finish,
                        work=plan_work, enumerated=plan_result.enumerated,
                    )
                    net.sim.schedule_at(finish, lambda: None)
                    net.run()

                    improved = plan_result.best is not None and (
                        best is None
                        or plan_result.best.value
                        < best.value * (1.0 - self.improvement_epsilon)
                    )
                    if improved:
                        best = plan_result.best
                        estimates[query.key()] = best.value
                        tracer.event(
                            "ledger.plan", "decision", site=self.buyer,
                            round=round_number,
                            value=best.value,
                            cost=best.properties.total_time,
                            purchased=sorted(
                                leaf.offer_id for leaf in best.purchased()
                            ),
                        )

                    # B5/B6: derive new queries.
                    derived = self.analyser.derive(
                        query, all_offers, required
                    )
                    new_queries = [
                        q for q in derived if q.key() not in asked
                    ]

                    trace.append(
                        IterationTrace(
                            round_number=round_number,
                            queries_asked=len(queries),
                            offers_received=len(result.offers),
                            best_value=(
                                None if best is None else best.value
                            ),
                            elapsed=net.now - start_time,
                        )
                    )
                    round_span.set(
                        offers=len(result.offers),
                        improved=improved,
                        new_queries=len(new_queries),
                    )

                # Abort when no plan exists and the analyser has nothing
                # new to ask for (a softened version of the paper's
                # first-round abort: complement queries can still repair
                # an assembly gap in round 2, e.g. when sellers' holdings
                # overlap and no disjoint exact cover existed at
                # round-one granularity).
                if best is None and not new_queries:
                    break
                # B7: terminate on no improvement or no new queries.
                if round_number > 1 and not improved and best is not None:
                    break
                if not new_queries:
                    break
                # Per-session compute budget: stop refining once the
                # offer cap is reached, keeping whatever plan the rounds
                # so far produced.  Checked after the natural-termination
                # rules so a run that converged on its own is never
                # flagged.
                if (
                    self.offer_budget is not None
                    and len(offers) >= self.offer_budget
                ):
                    budget_exhausted = True
                    break
                if round_number == self.max_iterations:
                    # The cap fires with refined queries still pending —
                    # the round budget, not convergence, ended the
                    # search.
                    budget_exhausted = True
                queries = new_queries

            # B8: strike contracts for the winning offers.
            contracts: list[Contract] = []
            if best is not None:
                winning_ids = {leaf.offer_id for leaf in best.purchased()}
                winning = [
                    o for o in offers.values() if o.offer_id in winning_ids
                ]
                losing = [
                    o for o in offers.values()
                    if o.offer_id not in winning_ids
                ]
                final = self.protocol.award(
                    net, self.buyer, winning, losing, self.sellers
                )
                contracts = [
                    Contract(buyer=self.buyer, offer=o, agreed=o.properties)
                    for o in final
                ]

            resilience.final_cost = (
                best.properties.total_time if best is not None else None
            )
            outcome = TradingResult(
                query=query,
                best=best,
                contracts=contracts,
                iterations=iterations,
                offers_considered=len(offers),
                optimization_time=net.now - start_time,
                messages=net.stats.delta_since(start_stats),
                trace=trace,
                cache=self._cache_stats().delta_since(start_cache),
                resilience=resilience,
                budget_exhausted=budget_exhausted,
            )
            span.set(
                iterations=iterations,
                offers=len(offers),
                found=best is not None,
            )
        if tracer.enabled:
            outcome.attach_records(tracer.records[mark:])
        return outcome

    def _wire(self, tracer: Tracer, facts) -> None:
        """Propagate the network tracer (``NULL_TRACER`` when untraced)
        into every layer this trader drives: plan generator, seller
        agents (with the offer-fact sink) and their offer caches.

        Runs on every :meth:`optimize`, so an untraced trade over agents
        or a shared cache that an earlier traced trade wired records
        nothing into the earlier trade's tracer or sink.
        """
        self.plan_generator.tracer = tracer
        seen: set[int] = set()
        for agent in self.sellers.values():
            agent.tracer = tracer
            agent.facts = facts
            cache = getattr(agent, "offer_cache", None)
            if cache is not None and id(cache) not in seen:
                seen.add(id(cache))
                cache.tracer = tracer

    # ------------------------------------------------------------------
    def _ledger_offer(
        self,
        tracer: Tracer,
        offer: Offer,
        current: Offer | None,
        value: float,
        kept: bool,
        round_number: int,
    ) -> None:
        """One decision-ledger record per offer entering the buyer's
        cross-round offer table (only called when tracing is on)."""
        outcome = (
            "kept" if kept and current is None
            else "kept_over" if kept
            else "dominated"
        )
        args = {
            "offer": offer.offer_id,
            "seller": offer.seller,
            "query": offer.query.key(),
            "coverage": coverage_label(offer.coverage_key()),
            "exact": offer.exact_projections,
            "round": round_number,
            "money": offer.properties.money,
            "total_time": offer.properties.total_time,
            "value": value,
            "outcome": outcome,
        }
        if current is not None:
            args["over"] = current.offer_id
        tracer.event("ledger.offer", "decision", site=self.buyer, **args)

    # ------------------------------------------------------------------
    def _cache_stats(self) -> CacheStats:
        """Aggregate offer-cache counters across the market's sellers.

        Distinct cache objects only — a world-shared cache is counted
        once, not once per seller holding a reference to it.
        """
        total = CacheStats()
        seen: set[int] = set()
        for agent in self.sellers.values():
            cache = getattr(agent, "offer_cache", None)
            if cache is None or id(cache) in seen:
                continue
            seen.add(id(cache))
            total.add(cache.stats)
        return total

    # ------------------------------------------------------------------
    def retrade_after_failure(
        self, query: SPJQuery, failed: Sequence[str] | set[str]
    ) -> TradingResult:
        """Adaptive re-optimization after contracted sellers fail.

        The paper's future-work list includes "the use of contracting to
        model partial/adaptive query optimization techniques"; this is
        the base mechanism: when nodes that won contracts disappear (or
        renege) before delivery, the buyer simply re-runs the trading
        negotiation with those nodes excluded from the market.  Because
        the negotiation never shipped data, re-planning costs only
        another round of messages and pricing work.
        """
        excluded = set(failed)
        saved = self.sellers
        self.sellers = {
            node: agent
            for node, agent in saved.items()
            if node not in excluded
        }
        try:
            return self.optimize(query)
        finally:
            self.sellers = saved
