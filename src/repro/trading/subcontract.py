"""Subcontracting: sellers purchasing missing data from third nodes.

Section 3.5: "when the seller does not hold the whole data requested ...
it may try to find the rest of these data using a subcontracting
procedure, i.e., purchase the missing data from a third seller node.  In
this paper, due to lack of space, we do not consider this possibility."
The paper's future-work list includes "the design of a scalable
subcontracting algorithm"; this module implements the one-level version:

* when a seller's rewrite *dropped* relations (it holds no usable
  fragment of them), it solicits its peers for exactly those missing
  single-relation parts,
* it assembles the cheapest peer coverage per missing relation, joins the
  purchased parts with its own local partial result, and
* offers the *combined* answer — covering relation subsets no single
  node's holdings could cover — priced at local cost + purchase costs +
  integration work (plus the seller's usual margin).

Recursion is bounded to one level: a subcontracting seller consults peers
whose own subcontractors stay silent for these nested requests (peers are
asked via :meth:`SellerAgent._offers_for` with the subcontractor masked),
matching the paper's concern that unbounded nesting "will only increase
the number of exchanged messages".  Nested traffic and peer compute are
accounted on the network when one is attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.net.messages import MessageKind
from repro.net.simulator import Network
from repro.sql.query import SPJQuery
from repro.sql.rewrite import RewrittenQuery
from repro.trading.commodity import AnswerProperties, Offer
from repro.trading.strategy import SellerContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trading.seller import SellerAgent

__all__ = ["Subcontractor"]


class Subcontractor:
    """One-level subcontracting for a selling node.

    Parameters
    ----------
    peers:
        The nodes this seller may purchase from (its trading partners).
        Populated after construction via :meth:`connect` when the agent
        set is built in one go.
    network:
        Optional network for accounting the nested negotiation (two
        control messages per consulted peer; peer pricing work booked on
        the peer's compute timeline).
    max_peers:
        Consult at most this many peers per request (keeps the nested
        negotiation scalable).
    """

    def __init__(
        self,
        peers: Mapping[str, "SellerAgent"] | None = None,
        network: Network | None = None,
        max_peers: int = 8,
    ):
        self.peers: dict[str, "SellerAgent"] = dict(peers or {})
        self.network = network
        self.max_peers = max_peers

    def connect(
        self, peers: Mapping[str, "SellerAgent"], network: Network | None = None
    ) -> None:
        """Attach the peer set (excluding the owning seller itself)."""
        self.peers = dict(peers)
        if network is not None:
            self.network = network

    # ------------------------------------------------------------------
    def augment(
        self,
        seller: "SellerAgent",
        query: SPJQuery,
        rewritten: RewrittenQuery | None,
        ctx: SellerContext,
    ) -> tuple[list[Offer], float]:
        """Extra offers obtained by purchasing missing parts from peers."""
        if rewritten is None or not rewritten.dropped:
            return [], 0.0
        peers = [
            (node, agent)
            for node, agent in sorted(self.peers.items())
            if node != seller.node
        ][: self.max_peers]
        if not peers:
            return [], 0.0

        # What we need from the market: the dropped relations, whole.
        missing_queries: dict[str, SPJQuery] = {}
        for alias in sorted(rewritten.dropped):
            sub = query.subquery_on((alias,))
            if sub is None:
                return [], 0.0
            missing_queries[alias] = sub

        purchases, work = self._purchase_parts(
            seller, missing_queries, peers, ctx
        )
        if purchases is None:
            return [], work

        offer = self._combined_offer(
            seller, query, rewritten, purchases, ctx
        )
        return ([offer] if offer is not None else []), work

    # ------------------------------------------------------------------
    def _purchase_parts(
        self,
        seller: "SellerAgent",
        missing_queries: Mapping[str, SPJQuery],
        peers: Sequence[tuple[str, "SellerAgent"]],
        ctx: SellerContext,
    ) -> tuple[dict[str, list[Offer]] | None, float]:
        """Cheapest disjoint coverage per missing alias, bought from peers.

        Returns ``None`` when some alias cannot be fully covered.
        """
        from repro.trading.commodity import RequestForBids

        rfb = RequestForBids(
            buyer=seller.node,
            queries=tuple(missing_queries.values()),
            round_number=ctx.round_number,
        )
        work = 0.0
        collected: list[Offer] = []
        for node, agent in peers:
            nested = agent.subcontractor
            agent.subcontractor = None  # bound recursion to one level
            try:
                peer_offers, peer_work = agent.prepare_offers(rfb)
            finally:
                agent.subcontractor = nested
            collected.extend(peer_offers)
            if self.network is not None:
                size = self.network.cost_model.network.control_message_bytes
                self.network.stats.record(MessageKind.RFB, size)
                self.network.stats.record(MessageKind.OFFER, size)
                self.network.compute(node, peer_work)
            work += peer_work / max(1, len(peers))  # peers work in parallel

        purchases: dict[str, list[Offer]] = {}
        for alias, sub in missing_queries.items():
            ref_name = sub.relations[0].name
            required = seller.local.schemes[ref_name].fragment_ids
            relevant = sorted(
                (
                    o
                    for o in collected
                    if set(o.coverage) == {alias}
                ),
                key=lambda o: o.properties.total_time
                / max(1, len(o.coverage[alias])),
            )
            chosen: list[Offer] = []
            covered: frozenset[int] = frozenset()
            for offer in relevant:
                fids = frozenset(offer.coverage[alias])
                if not fids or fids & covered:
                    continue
                chosen.append(offer)
                covered |= fids
                if covered >= required:
                    break
            if covered < required:
                return None, work
            purchases[alias] = chosen
        return purchases, work

    # ------------------------------------------------------------------
    def _combined_offer(
        self,
        seller: "SellerAgent",
        query: SPJQuery,
        rewritten: RewrittenQuery,
        purchases: Mapping[str, list[Offer]],
        ctx: SellerContext,
    ) -> Offer | None:
        """Price the full query: local part ⋈ purchased parts at this node."""
        builder = seller.builder
        alias_to_relation = {r.alias: r.name for r in query.relations}

        # Goes through the offer cache: the main offer path has usually
        # just priced this same rewritten query.  The work charge is
        # dropped either way (this combination step is not separately
        # billed), so only real wall-clock is saved here.
        local_result, _work = seller.optimize_cached(
            rewritten.query, rewritten.coverage
        )
        plan = local_result.plan
        if plan is None:
            return None
        conjuncts = query.predicate.conjuncts()
        from repro.optimizer.dp import connecting_conjuncts

        covered_aliases = frozenset(rewritten.coverage)
        for alias in sorted(purchases):
            parts = [
                builder.purchased(
                    o.query,
                    o.seller,
                    rows=o.properties.rows,
                    total_time=o.properties.total_time,
                    coverage={alias: frozenset(o.coverage[alias])},
                    buyer_site=seller.node,
                    offer_id=o.offer_id,
                    money=o.properties.money,
                )
                for o in purchases[alias]
            ]
            incoming = builder.union(parts, seller.node)
            connecting = connecting_conjuncts(
                conjuncts, covered_aliases, frozenset((alias,))
            )
            plan = builder.join(
                plan, incoming, connecting, alias_to_relation,
                site=seller.node,
            )
            covered_aliases |= {alias}

        execute = plan.response_time()
        rows = plan.rows
        ship = builder.cost_model.transfer(rows)
        purchased_money = sum(
            o.properties.money for parts in purchases.values() for o in parts
        )
        properties = AnswerProperties(
            total_time=execute + ship,
            rows=rows,
            first_row_time=execute + builder.cost_model.network.latency,
            rows_per_second=rows / ship if ship > 0 else rows,
        )
        priced = seller.strategy.price(properties, execute, ctx)
        if priced is None:
            return None
        priced = priced.with_money(priced.money + purchased_money)
        coverage = dict(rewritten.coverage)
        for alias in purchases:
            ref = query.relation_for(alias)
            coverage[alias] = seller.local.schemes[ref.name].fragment_ids
        return Offer(
            seller=seller.node,
            query=query.subquery_on(query.aliases) or query,
            coverage=coverage,
            properties=priced,
            exact_projections=False,
            request_key=query.key(),
            true_cost=execute,
        )
