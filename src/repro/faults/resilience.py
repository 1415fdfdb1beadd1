"""Contract renegotiation: surviving seller crashes struck after award.

QT's negotiation moves no data, so a crashed winner is cheap to route
around: the buyer *voids* the dead seller's contracts (they owe nothing,
nothing shipped) and re-trades only the uncovered subqueries against the
surviving sites, then reassembles a full plan from the surviving
purchases plus the replacements.  Three escalation tiers:

1. **Subquery re-trade + DP reassembly** — each voided contract's query
   is re-auctioned among survivors (a short negotiation), and the buyer
   plan generator recombines surviving + replacement offers with its
   normal dynamic program.
2. **Greedy reassembly** — if the DP pass blows the renegotiation budget
   (``RenegotiationPolicy.dp_budget`` enumerated plans) or finds
   nothing, a deliberately tiny plan generator (IDP with ``m=1``, small
   fan-in/union budgets — effectively greedy) reassembles instead.
3. **Full re-trade** — if reassembly still fails (e.g. replacements
   could not cover the hole at the old granularity), the whole query is
   re-traded from scratch with the crashed sites excluded
   (:meth:`~repro.trading.trader.QueryTrader.retrade_after_failure`).

All message/time accounting spans the *entire* resilient run, and
:class:`~repro.trading.trader.ResilienceSummary` reports what happened.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.injector import FaultInjector
from repro.net.messages import Message, MessageKind
from repro.trading.buyer import BuyerPlanGenerator, CandidatePlan, PlanGenResult
from repro.trading.contracts import Contract
from repro.trading.trader import QueryTrader, ResilienceSummary, TradingResult
from repro.sql.query import SPJQuery

__all__ = ["RenegotiationPolicy", "ResilientTrader"]


@dataclass(frozen=True)
class RenegotiationPolicy:
    """Knobs of the renegotiation machinery."""

    #: Renegotiation rounds before the buyer gives up chasing crashes.
    max_rounds: int = 3
    #: Enumerated-plan budget for the DP reassembly; beyond it the
    #: greedy fallback's (cheaper) plan is used instead.
    dp_budget: int = 50_000
    #: Trading rounds per uncovered-subquery re-trade (keep it short:
    #: the commodity is known, only the counterparty changed).
    retrade_iterations: int = 2
    #: How far past the negotiation's end a scheduled crash still voids
    #: a winner ("crashes before delivery"); ``inf`` = any future crash.
    delivery_horizon: float = float("inf")


class ResilientTrader:
    """Buyer-side driver that survives a faulty federation.

    Wraps a :class:`~repro.trading.trader.QueryTrader` and the
    :class:`~repro.faults.injector.FaultInjector` governing its network:
    runs the normal negotiation (the protocol's deadlines handle message
    loss), then checks winners against the injector's crash schedules
    and renegotiates contracts whose sellers die before delivery.
    """

    def __init__(
        self,
        trader: QueryTrader,
        injector: FaultInjector,
        policy: RenegotiationPolicy | None = None,
        fault_free_cost: float | None = None,
    ):
        self.trader = trader
        self.injector = injector
        self.policy = policy or RenegotiationPolicy()
        self.fault_free_cost = fault_free_cost

    # ------------------------------------------------------------------
    def optimize(self, query: SPJQuery) -> TradingResult:
        trader = self.trader
        net = trader.network
        start_time = net.now
        start_stats = net.stats.snapshot()
        start_cache = trader._cache_stats()
        # Telemetry must span the *whole* resilient run (initial trade
        # plus every renegotiation), so the records the inner optimize()
        # calls attach are replaced by the slice from this mark.
        tracer = net.tracer
        mark = len(tracer.records)

        result = trader.optimize(query)
        summary = result.resilience
        summary.fault_free_cost = self.fault_free_cost

        # Tier 0: the negotiation itself came up empty — deadlines closed
        # rounds before enough offers survived the lossy links.  Re-run
        # the whole trade: the injector's RNG stream has advanced, so a
        # fresh attempt sees a different loss pattern.
        for attempt in range(self.policy.max_rounds):
            if result.best is not None:
                break
            summary.renegotiations += 1
            tracer.event(
                "resilience.retrade", "resilience", site=trader.buyer,
                attempt=attempt + 1, reason="no_plan",
            )
            down_now = {
                node
                for node in trader.sellers
                if self.injector.plan.is_down(node, net.now)
            }
            fresh = trader.retrade_after_failure(query, down_now)
            summary.timeouts_fired += fresh.resilience.timeouts_fired
            summary.retries += fresh.resilience.retries
            result = fresh

        excluded: set[str] = set()
        for _ in range(self.policy.max_rounds):
            failed = self._failed_winners(result, excluded)
            if not failed or result.best is None:
                break
            excluded |= failed
            result = self._renegotiate(query, result, excluded, summary)

        # Whole-run accounting: initial negotiation + all renegotiations.
        result.optimization_time = net.now - start_time
        result.messages = net.stats.delta_since(start_stats)
        result.cache = trader._cache_stats().delta_since(start_cache)
        summary.final_cost = (
            result.best.properties.total_time
            if result.best is not None
            else None
        )
        result.resilience = summary
        if tracer.enabled:
            result.attach_records(tracer.records[mark:])
        return result

    # ------------------------------------------------------------------
    def _failed_winners(
        self, result: TradingResult, excluded: set[str]
    ) -> set[str]:
        """Winners that are (or will be) down before delivery."""
        now = self.trader.network.now
        deadline = now + self.policy.delivery_horizon
        return {
            c.seller
            for c in result.contracts
            if c.seller not in excluded
            and self.injector.down_during(c.seller, now, deadline)
        }

    # ------------------------------------------------------------------
    def _renegotiate(
        self,
        query: SPJQuery,
        prior: TradingResult,
        excluded: set[str],
        summary: ResilienceSummary,
    ) -> TradingResult:
        trader = self.trader
        tracer = trader.network.tracer
        with tracer.span(
            "resilience.renegotiate", "resilience", site=trader.buyer,
            excluded=len(excluded),
        ) as span:
            summary.renegotiations += 1

            voided = [c for c in prior.contracts if c.seller in excluded]
            surviving = [
                c for c in prior.contracts if c.seller not in excluded
            ]
            summary.contracts_voided += len(voided)
            summary.voided.extend(c.void() for c in voided)
            span.set(voided=len(voided))
            for contract in voided:
                tracer.event(
                    "ledger.void", "decision", site=trader.buyer,
                    offer=contract.offer.offer_id,
                    seller=contract.seller,
                    request=contract.offer.request_key,
                )
            self._notify_voided(voided)

            # Re-trade each uncovered subquery against the surviving
            # sites.
            replacements: list[Contract] = []
            covered_all = True
            for contract in voided:
                sub = self._subtrade(contract.offer.query, excluded)
                summary.timeouts_fired += sub.resilience.timeouts_fired
                summary.retries += sub.resilience.retries
                if sub.best is None or not sub.contracts:
                    covered_all = False
                    continue
                replacements.extend(sub.contracts)

            best: CandidatePlan | None = None
            contracts_pool = surviving + replacements
            offers = [c.offer for c in contracts_pool]
            if covered_all and offers:
                best = self._reassemble(query, offers)

            if best is None:
                # Tier 3: the hole could not be patched at the old
                # contract granularity — re-trade the whole query among
                # survivors.
                tracer.event(
                    "resilience.escalate", "resilience", site=trader.buyer,
                    tier="full_retrade",
                )
                full = trader.retrade_after_failure(query, excluded)
                summary.timeouts_fired += full.resilience.timeouts_fired
                summary.retries += full.resilience.retries
                prior.best = full.best
                prior.contracts = full.contracts
                return prior

            winning_ids = {leaf.offer_id for leaf in best.purchased()}
            by_offer = {c.offer.offer_id: c for c in contracts_pool}
            prior.best = best
            prior.contracts = [
                by_offer[offer_id]
                for offer_id in sorted(winning_ids)
                if offer_id in by_offer
            ]
            return prior

    # ------------------------------------------------------------------
    def _notify_voided(self, voided: list[Contract]) -> None:
        """Send VOID notices (the dead counterparty won't hear them)."""
        net = self.trader.network
        for contract in voided:
            try:
                net.send(
                    Message(
                        MessageKind.VOID,
                        self.trader.buyer,
                        contract.seller,
                        contract.offer.offer_id,
                    )
                )
            except KeyError:
                pass  # seller never registered on this network
        net.run()

    # ------------------------------------------------------------------
    def _subtrade(self, sub: SPJQuery, excluded: set[str]) -> TradingResult:
        """A short negotiation for one uncovered subquery."""
        trader = self.trader
        saved_sellers = trader.sellers
        saved_iterations = trader.max_iterations
        trader.sellers = {
            node: agent
            for node, agent in saved_sellers.items()
            if node not in excluded
        }
        trader.max_iterations = self.policy.retrade_iterations
        try:
            return trader.optimize(sub)
        finally:
            trader.sellers = saved_sellers
            trader.max_iterations = saved_iterations

    # ------------------------------------------------------------------
    def _reassemble(self, query: SPJQuery, offers) -> CandidatePlan | None:
        """DP reassembly, falling back to greedy when over budget."""
        trader = self.trader
        net = trader.network
        result = trader.plan_generator.generate(query, offers)
        self._charge(result)
        if result.best is not None and result.enumerated <= self.policy.dp_budget:
            return result.best
        net.tracer.event(
            "resilience.escalate", "resilience", site=trader.buyer,
            tier="greedy", enumerated=result.enumerated,
            over_budget=result.enumerated > self.policy.dp_budget,
        )
        greedy = self._greedy_generator()
        greedy_result = greedy.generate(query, offers)
        self._charge(greedy_result)
        if greedy_result.best is not None:
            return greedy_result.best
        return result.best  # over-budget DP plan beats no plan at all

    def _greedy_generator(self) -> BuyerPlanGenerator:
        """A deliberately tiny generator: effectively greedy assembly."""
        base = self.trader.plan_generator
        return BuyerPlanGenerator(
            base.builder,
            base.buyer_site,
            valuation=base.valuation,
            mode="idp",
            idp_m=1,
            max_entries_per_subset=8,
            max_join_fanin=2,
            union_budget=64,
            seconds_per_plan=base.seconds_per_plan,
        )

    def _charge(self, result: PlanGenResult) -> None:
        """Book the buyer's reassembly work on the simulated clock."""
        trader = self.trader
        net = trader.network
        work = result.enumerated * trader.plan_generator.seconds_per_plan
        finish = net.compute(trader.buyer, work)
        # ``reassembly=True`` keeps the critical path
        # (:mod:`repro.obs.critpath`) from mistaking this for a trading
        # round's DP pass.
        net.tracer.interval(
            "buyer.compute", "trading", site=trader.buyer,
            sim_start=finish - work, sim_end=finish,
            work=work, enumerated=result.enumerated, reassembly=True,
        )
        net.sim.schedule_at(finish, lambda: None)
        net.run()
