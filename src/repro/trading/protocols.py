"""Negotiation protocols: bidding, Vickrey auction, bargaining (§2, §3.2).

A protocol choreographs one *round* of the trading negotiation over the
discrete-event network: the buyer solicits, sellers compute offers (their
optimization effort is booked on their own compute timeline, so
independent sellers overlap — the root of QT's scalability), and replies
flow back.  Winner notification (`award`) is a separate step the trader
performs once the final plan is chosen.

* :class:`BiddingProtocol` — single sealed-bid round (the paper's
  default): RFB out, offers back.  2 messages per contacted seller.
* :class:`VickreyAuctionProtocol` — same message flow; the award step
  reprices each won request at the second-best competing offer
  (truth-inducing in the competitive setting).
* :class:`BargainingProtocol` — up to *k* counter-offer rounds: the buyer
  starts from an aggressive reservation and relaxes it toward the
  cheapest counter until some seller accepts.  Strictly more messages
  than bidding — matching the paper's remark that nesting bargaining
  "will only increase the number of exchanged messages".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.net.messages import Message, MessageKind
from repro.net.simulator import Network
from repro.trading.commodity import Offer, RequestForBids
from repro.trading.seller import SellerAgent
from repro.trading.valuation import Valuation, WeightedValuation

__all__ = [
    "NegotiationProtocol",
    "BiddingProtocol",
    "VickreyAuctionProtocol",
    "BargainingProtocol",
]

#: Serialized size of one offer / one RFB query beyond the base message.
OFFER_ITEM_BYTES = 256
QUERY_ITEM_BYTES = 128


def rfb_size(network: Network, rfb: RequestForBids) -> int:
    return (
        network.cost_model.network.control_message_bytes
        + QUERY_ITEM_BYTES * len(rfb.queries)
    )


def offers_size(network: Network, offers: Sequence[Offer]) -> int:
    return (
        network.cost_model.network.control_message_bytes
        + OFFER_ITEM_BYTES * len(offers)
    )


@dataclass
class SolicitResult:
    """Offers gathered in one negotiation round, with timing.

    ``timeouts_fired``/``retries`` only move for deadline-aware
    protocols (a :class:`BiddingProtocol` constructed with a timeout):
    how many round deadlines expired, and how many times an all-silent
    round was re-issued.
    """

    offers: list[Offer]
    started_at: float
    finished_at: float
    timeouts_fired: int = 0
    retries: int = 0
    #: Distinct sellers that answered with at least one offer — the
    #: response side of the RFB fanout/response ratio the live per-site
    #: registry aggregates.
    responded: int = 0

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


def _solicited(span, result: SolicitResult) -> SolicitResult:
    """Stamp one solicitation's outcome on its ``protocol.solicit``
    span."""
    span.set(
        offers=len(result.offers),
        timeouts=result.timeouts_fired,
        retries=result.retries,
        responded=result.responded,
    )
    return result


class NegotiationProtocol:
    """Base: registers transient actors on the network per round."""

    name = "abstract"

    def solicit(
        self,
        network: Network,
        buyer: str,
        sellers: Mapping[str, SellerAgent],
        rfb: RequestForBids,
    ) -> SolicitResult:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def award(
        self,
        network: Network,
        buyer: str,
        winning: Sequence[Offer],
        losing: Sequence[Offer],
        sellers: Mapping[str, SellerAgent],
    ) -> list[Offer]:
        """Notify winners (AWARD) and losers (REJECT); returns the final
        (possibly repriced) winning offers."""
        tracer = network.tracer
        with tracer.span(
            "trade.award", "trading", site=buyer,
            winning=len(winning), losing=len(losing), protocol=self.name,
        ):
            self._ensure_registered(network, buyer, sellers)
            final = self.settle_prices(winning, losing)
            facts = network.facts
            # Award decisions with *settled* prices (a Vickrey protocol
            # reprices between winning and final).  An amortized MQO
            # seed offer carries its sharer count so the award records
            # show this price is one session's share of a split cost.
            for offer in final:
                if facts is not None:
                    facts.awarded(offer)
                tracer.event(
                    "ledger.award", "decision", site=buyer,
                    offer=offer.offer_id, seller=offer.seller,
                    query=offer.query.key(), request=offer.request_key,
                    price=offer.properties.money, protocol=self.name,
                    **(
                        {"shared": offer.shared_by}
                        if offer.shared_by
                        else {}
                    ),
                )
            for offer in final:
                network.send(
                    Message(MessageKind.AWARD, buyer, offer.seller, offer)
                )
            notified = {(o.seller, o.offer_id) for o in final}
            rejected_sellers = set()
            for offer in losing:
                if (offer.seller, offer.offer_id) in notified:
                    continue
                rejected_sellers.add(offer.seller)
                tracer.event(
                    "ledger.reject", "decision", site=buyer,
                    offer=offer.offer_id, seller=offer.seller,
                    request=offer.request_key,
                )
            network.broadcast(
                buyer, sorted(rejected_sellers), MessageKind.REJECT, None
            )
            network.run()
            won_by_seller: dict[str, set[str]] = {}
            lost_by_seller: dict[str, set[str]] = {}
            for offer in final:
                won_by_seller.setdefault(offer.seller, set()).add(
                    offer.request_key
                )
            for offer in losing:
                lost_by_seller.setdefault(offer.seller, set()).add(
                    offer.request_key
                )
            for node, agent in sellers.items():
                won = won_by_seller.get(node, set())
                lost = lost_by_seller.get(node, set()) - won
                agent.record_outcomes(won, lost)
            return final

    def settle_prices(
        self, winning: Sequence[Offer], losing: Sequence[Offer]
    ) -> list[Offer]:
        """Payment rule; first-price by default (pay what was offered)."""
        return list(winning)

    # ------------------------------------------------------------------
    @staticmethod
    def _ensure_registered(
        network: Network, buyer: str, sellers: Mapping[str, SellerAgent]
    ) -> None:
        def _sink(_net: Network, _msg: Message) -> None:
            return None

        for node in list(sellers) + [buyer]:
            if node not in network:
                network.register(node, _sink)


class BiddingProtocol(NegotiationProtocol):
    """One sealed-bid round: RFB broadcast, offers collected.

    With ``timeout=None`` (the default) the round simply runs until the
    network quiesces — the historical, fault-free behavior.  With a
    timeout, the buyer attaches a *deadline* to the round via a
    cancellable simulator timer: the round closes on the deadline with
    whatever bids arrived (late offers are discarded), the timer is
    cancelled early when every contacted seller answered, and a round in
    which *no* seller answered at all is re-issued with exponential
    backoff (``timeout × backoff^attempt``) up to ``max_retries`` times.
    In a fault-free run every seller answers, the deadline timer is
    cancelled without firing, and behavior — timings, messages, offers —
    is identical to the no-timeout path.
    """

    name = "bidding"

    def __init__(
        self,
        timeout: float | None = None,
        max_retries: int = 2,
        backoff: float = 2.0,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def solicit(
        self,
        network: Network,
        buyer: str,
        sellers: Mapping[str, SellerAgent],
        rfb: RequestForBids,
    ) -> SolicitResult:
        tracer = network.tracer
        expected = sorted(node for node in sellers if node != buyer)
        with tracer.span(
            "protocol.solicit", "trading", site=buyer,
            protocol=self.name, round=rfb.round_number,
            queries=len(rfb.queries), sellers=len(expected),
        ) as span:
            started = network.now
            collected: list[Offer] = []
            responded: set[str] = set()
            # Contacted sellers not yet heard from; with a deadline, the
            # round closes early when this empties.
            silent = set(expected) if self.timeout is not None else None
            state = {
                "closed": False, "timer": None, "timeouts": 0, "retries": 0,
            }

            def seller_handler(net: Network, message: Message) -> None:
                if message.kind is not MessageKind.RFB:
                    return
                agent = sellers[message.recipient]
                offers, work = agent.prepare_offers(message.payload)
                done = net.compute(message.recipient, work)
                if net.facts is not None:
                    net.facts.delivered(message.recipient, bool(offers))
                if net.tracer.enabled:
                    # The booked optimization effort as a span on the
                    # seller's busy timeline.
                    net.tracer.interval(
                        "seller.compute", "trading",
                        site=message.recipient,
                        sim_start=done - work, sim_end=done,
                        work=work, offers=len(offers),
                        cause=message.mid,
                    )
                if offers:
                    net.send(
                        Message(
                            MessageKind.OFFER,
                            message.recipient,
                            buyer,
                            offers,
                            size_bytes=offers_size(net, offers),
                        ),
                        earliest=done,
                    )
                else:
                    net.send(
                        Message(
                            MessageKind.NO_OFFER, message.recipient, buyer,
                            None,
                        ),
                        earliest=done,
                    )

            def buyer_handler(net: Network, message: Message) -> None:
                if state["closed"]:
                    return  # round already closed on its deadline
                if message.kind is MessageKind.OFFER:
                    collected.extend(message.payload)
                    responded.add(message.sender)
                elif message.kind is MessageKind.NO_OFFER:
                    responded.add(message.sender)
                else:
                    return
                if silent is not None:
                    silent.discard(message.sender)
                    if not silent:
                        # Everyone answered: close early, cancel the
                        # deadline.
                        state["closed"] = True
                        if state["timer"] is not None:
                            state["timer"].cancel()

            size = rfb_size(network, rfb)

            def issue(attempt: int) -> None:
                deadline = None
                if self.timeout is not None:
                    deadline = self.timeout * (self.backoff**attempt)
                    state["timer"] = network.sim.schedule_cancellable(
                        deadline, on_deadline
                    )
                with tracer.span(
                    "rfb.fanout", "trading", site=buyer,
                    attempt=attempt, sellers=len(expected),
                    round=rfb.round_number,
                    **(
                        {"deadline": deadline} if deadline is not None else {}
                    ),
                ):
                    network.broadcast(
                        buyer, expected, MessageKind.RFB, rfb,
                        size_bytes=size,
                    )

            def on_deadline() -> None:
                state["timeouts"] += 1
                timeout_id = -1
                if tracer.enabled:
                    # The timeout itself is a causal node: re-issued RFBs
                    # descend from it, not from the original fanout.
                    timeout_id = network.next_causal_id()
                    tracer.event(
                        "round.timeout", "trading", site=buyer,
                        responded=len(responded), expected=len(expected),
                        mid=timeout_id,
                    )
                if not responded and state["retries"] < self.max_retries:
                    # All sellers silent: re-issue with exponential
                    # backoff.
                    state["retries"] += 1
                    network.stats.retried += len(expected)
                    if tracer.enabled:
                        tracer.event(
                            "round.retry", "trading", site=buyer,
                            attempt=state["retries"], mid=timeout_id,
                        )
                        prior = tracer.cause
                        tracer.cause = timeout_id
                        try:
                            issue(state["retries"])
                        finally:
                            tracer.cause = prior
                    else:
                        issue(state["retries"])
                else:
                    state["closed"] = True

            self._swap_handlers(
                network, buyer, sellers, buyer_handler, seller_handler
            )
            issue(0)
            network.run()
            state["closed"] = True
            # ``issue`` and ``on_deadline`` refer to each other, and the
            # deadline timer (kept in ``state``) to ``on_deadline``: cut
            # both links so the round, and everything it reaches, is
            # freed by reference counting rather than by a cycle
            # collection.
            state["timer"] = None
            del issue
            if network.facts is not None:  # one RFB per seller per wave
                fanout = len(expected) * (1 + state["retries"])
                network.facts.solicited(fanout, len(responded))
            return _solicited(span, SolicitResult(
                offers=collected,
                started_at=started,
                finished_at=network.now,
                timeouts_fired=state["timeouts"],
                retries=state["retries"],
                responded=len(responded),
            ))

    @staticmethod
    def _swap_handlers(network, buyer, sellers, buyer_handler, seller_handler):
        for node in sellers:
            network.register(node, seller_handler, replace=True)
        network.register(buyer, buyer_handler, replace=True)


class VickreyAuctionProtocol(BiddingProtocol):
    """Bidding with second-price settlement per requested query.

    For every request key the winner pays the *second-lowest* competing
    monetary bid (or its own when unchallenged) — removing the incentive
    to shade bids in the competitive experiments.
    """

    name = "vickrey"

    def settle_prices(
        self, winning: Sequence[Offer], losing: Sequence[Offer]
    ) -> list[Offer]:
        by_request: dict[str, list[float]] = {}
        for offer in list(winning) + list(losing):
            by_request.setdefault(offer.request_key, []).append(
                offer.properties.money
            )
        final = []
        for offer in winning:
            competing = sorted(by_request.get(offer.request_key, []))
            price = offer.properties.money
            higher = [p for p in competing if p > price + 1e-12]
            if higher:
                price = higher[0]
            final.append(
                replace(offer, properties=offer.properties.with_money(price))
            )
        return final


class BargainingProtocol(NegotiationProtocol):
    """Alternating-offers bargaining, up to *max_rounds* per RFB.

    Round 1 announces the buyer's (aggressive) reservations.  Sellers
    priced out of a request respond with a COUNTER_OFFER at their best
    price instead of an OFFER; the buyer relaxes each reservation toward
    the cheapest counter by *concession* per round and re-solicits.  The
    final round drops reservations entirely so a plan can always form.
    """

    name = "bargaining"

    def __init__(
        self,
        max_rounds: int = 3,
        concession: float = 0.5,
        timeout: float | None = None,
        max_retries: int = 2,
        backoff: float = 2.0,
    ):
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not (0.0 < concession <= 1.0):
            raise ValueError("concession must be in (0, 1]")
        self.max_rounds = max_rounds
        self.concession = concession
        self._bidding = BiddingProtocol(
            timeout=timeout, max_retries=max_retries, backoff=backoff,
        )

    def solicit(
        self,
        network: Network,
        buyer: str,
        sellers: Mapping[str, SellerAgent],
        rfb: RequestForBids,
    ) -> SolicitResult:
        with network.tracer.span(
            "protocol.solicit", "trading", site=buyer,
            protocol=self.name, round=rfb.round_number,
            queries=len(rfb.queries),
            sellers=len(sellers) - (buyer in sellers),
        ) as span:
            started = network.now
            reservations = dict(rfb.reservations)
            collected: dict[tuple, Offer] = {}
            valuation: Valuation = WeightedValuation()
            timeouts_fired = 0
            retries = 0
            for round_number in range(self.max_rounds):
                if round_number == self.max_rounds - 1:
                    reservations = {}
                current = RequestForBids(
                    buyer=rfb.buyer,
                    queries=rfb.queries,
                    reservations=dict(reservations),
                    round_number=rfb.round_number,
                )
                result = self._bidding.solicit(
                    network, buyer, sellers, current
                )
                timeouts_fired += result.timeouts_fired
                retries += result.retries
                got_new = False
                for offer in result.offers:
                    key = (
                        offer.seller, offer.query.key(),
                        offer.exact_projections,
                    )
                    current_best = collected.get(key)
                    if current_best is None or valuation(
                        offer.properties
                    ) < valuation(current_best.properties):
                        collected[key] = offer
                        got_new = True
                # Relax reservations toward observed prices.
                by_request: dict[str, float] = {}
                for offer in result.offers:
                    cost = offer.properties.total_time
                    key = offer.request_key
                    if key not in by_request or cost < by_request[key]:
                        by_request[key] = cost
                satisfied = all(
                    key in by_request for key in reservations
                ) and bool(result.offers)
                if satisfied or not reservations:
                    break
                for key in list(reservations):
                    observed = by_request.get(key)
                    if observed is None:
                        reservations[key] = reservations[key] * (
                            1.0 + self.concession
                        )
                    else:
                        reservations[key] += self.concession * max(
                            0.0, observed - reservations[key]
                        )
                if not got_new and round_number > 0:
                    break
            return _solicited(span, SolicitResult(
                offers=list(collected.values()),
                started_at=started,
                finished_at=network.now,
                timeouts_fired=timeouts_fired,
                retries=retries,
            ))
