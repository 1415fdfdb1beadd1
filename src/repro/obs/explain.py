"""``explain(result)``: why did site X win commodity Q?

Turns a traced :class:`~repro.trading.trader.TradingResult` (one whose
``ledger`` is populated — run with a tracer attached) into a per-contract
audit: the winning site and settled price, the cost/valuation breakdown,
the runner-up and its margin, and a categorized reason for every offer
that did *not* end up in the plan.  Everything is computed from the
deterministic ledger, so the JSON rendering is byte-identical across
repeated same-seed runs.

Rejection reasons, from strongest to weakest evidence:

* ``voided``        — contract struck, then voided (seller crashed);
* ``dominated``     — lost the buyer's intake ranking to a cheaper offer
                      for the same (seller, query, coverage) slot;
* ``lost_commodity``— ranked, but a competitor won the commodity;
* ``unused``        — survived ranking, but no winning plan bought it;
* ``undelivered``   — priced by the seller, never reached the buyer
                      (dropped reply, or the round closed on its
                      deadline first).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.ledger import NegotiationLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trading.trader import TradingResult

__all__ = ["explain", "Explanation", "CommodityExplanation"]


@dataclass
class CommodityExplanation:
    """One awarded commodity: its winner and the competition it beat."""

    query: str
    coverage: str
    exact: bool
    winner: str
    offer_id: int
    price: float
    total_time: float
    value: float | None
    cache: str | None
    round: int | None
    competitors: int
    competing_sites: int
    runner_up: str | None = None
    runner_up_offer: int | None = None
    runner_up_value: float | None = None
    margin: float | None = None          # runner_up_value - winner value
    margin_pct: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)

    def render(self) -> str:
        lines = [
            f"commodity {self.query} [{self.coverage}]"
            + (" (exact)" if self.exact else ""),
            f"  winner: {self.winner} offer#{self.offer_id} "
            f"price={self.price:.6f} time={self.total_time:.6f}"
            + (f" value={self.value:.6f}" if self.value is not None else "")
            + (f" cache={self.cache}" if self.cache else "")
            + (f" round={self.round}" if self.round is not None else ""),
        ]
        if self.runner_up is not None:
            margin = (
                f" — margin {self.margin:+.6f}"
                + (
                    f" ({self.margin_pct:+.1%})"
                    if self.margin_pct is not None
                    else ""
                )
            )
            lines.append(
                f"  runner-up: {self.runner_up} "
                f"offer#{self.runner_up_offer} "
                f"value={self.runner_up_value:.6f}{margin}"
            )
        else:
            lines.append("  runner-up: none (unchallenged)")
        lines.append(
            f"  competition: {self.competitors} competing offer(s) "
            f"from {self.competing_sites} site(s)"
        )
        return "\n".join(lines)


@dataclass
class Explanation:
    """The full audit of one negotiation's outcome."""

    query: str
    found: bool
    plan_cost: float | None
    total_payment: float | None
    iterations: int
    commodities: list[CommodityExplanation] = field(default_factory=list)
    rejected: list[dict] = field(default_factory=list)
    rejected_by_reason: dict[str, int] = field(default_factory=dict)
    voids: int = 0
    renegotiations: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "found": self.found,
            "plan_cost": self.plan_cost,
            "total_payment": self.total_payment,
            "iterations": self.iterations,
            "commodities": [c.to_dict() for c in self.commodities],
            "rejected": self.rejected,
            "rejected_by_reason": self.rejected_by_reason,
            "voids": self.voids,
            "renegotiations": self.renegotiations,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def render(self) -> str:
        out = [f"why: {self.query}"]
        if not self.found:
            out.append("no distributed plan was negotiated")
            return "\n".join(out)
        out.append(
            f"plan: cost {self.plan_cost:.6f}s, "
            f"{len(self.commodities)} contract(s), "
            f"total payment {self.total_payment:.6f}, "
            f"{self.iterations} round(s)"
        )
        if self.voids or self.renegotiations:
            out.append(
                f"resilience: {self.voids} contract(s) voided, "
                f"{self.renegotiations} renegotiation event(s)"
            )
        for commodity in self.commodities:
            out.append("")
            out.append(commodity.render())
        if self.rejected_by_reason:
            out.append("")
            reasons = ", ".join(
                f"{count} {reason}"
                for reason, count in sorted(self.rejected_by_reason.items())
            )
            out.append(f"rejected offers: {len(self.rejected)} ({reasons})")
        return "\n".join(out)


# ----------------------------------------------------------------------
def explain(
    result: "TradingResult", subquery: str | None = None
) -> Explanation:
    """Audit *result*; requires ``result.ledger`` (run with a tracer).

    ``subquery`` restricts the commodity breakdown to awarded commodities
    whose offered-query key (or request key) contains the given string.
    """
    ledger = result.ledger
    if ledger is None:
        raise ValueError(
            "result has no ledger — attach a Tracer to the network "
            "before optimize() (the null tracer compiles the ledger out)"
        )
    explanation = Explanation(
        query=result.query.key(),
        found=result.found,
        plan_cost=result.plan_cost if result.found else None,
        total_payment=result.total_payment if result.found else None,
        iterations=result.iterations,
        voids=len(ledger.voids),
        renegotiations=len(ledger.renegotiations),
    )

    awarded_ids: set[int] = set()
    for contract in sorted(result.contracts, key=lambda c: c.offer.offer_id):
        offer = contract.offer
        awarded_ids.add(offer.offer_id)
        entry = ledger.offer(offer.offer_id) or {}
        commodity = _explain_commodity(ledger, contract, entry)
        if subquery is not None and not (
            subquery in commodity.query
            or (entry.get("request") and subquery in entry["request"])
        ):
            continue
        explanation.commodities.append(commodity)

    for offer_id in sorted(ledger.offers):
        if offer_id in awarded_ids:
            continue
        entry = ledger.offers[offer_id]
        reason, detail = _rejection_reason(ledger, entry, awarded_ids)
        explanation.rejected.append(
            {
                "offer": offer_id,
                "seller": entry["seller"],
                "query": entry["query"],
                "reason": reason,
                "detail": detail,
            }
        )
        explanation.rejected_by_reason[reason] = (
            explanation.rejected_by_reason.get(reason, 0) + 1
        )
    return explanation


def _explain_commodity(
    ledger: NegotiationLedger, contract, entry: dict
) -> CommodityExplanation:
    offer = contract.offer
    competitors = ledger.competitors(offer.offer_id)
    ranked = [c for c in competitors if c["value"] is not None]
    commodity = CommodityExplanation(
        query=entry.get("query") or offer.query.key(),
        coverage=entry.get("coverage") or "",
        exact=bool(entry.get("exact", offer.exact_projections)),
        winner=offer.seller,
        offer_id=offer.offer_id,
        price=contract.agreed.money,
        total_time=contract.agreed.total_time,
        value=entry.get("value"),
        cache=entry.get("cache"),
        round=entry.get("round"),
        competitors=len(competitors),
        competing_sites=len(
            {c["seller"] for c in competitors if c["seller"]}
        ),
    )
    if ranked and commodity.value is not None:
        runner = min(ranked, key=lambda c: (c["value"], c["offer"]))
        commodity.runner_up = runner["seller"]
        commodity.runner_up_offer = runner["offer"]
        commodity.runner_up_value = runner["value"]
        commodity.margin = runner["value"] - commodity.value
        if commodity.value:
            commodity.margin_pct = commodity.margin / commodity.value
    return commodity


def _rejection_reason(
    ledger: NegotiationLedger, entry: dict, awarded_ids: set[int]
) -> tuple[str, str | None]:
    if entry["voided"]:
        return "voided", None
    if entry["outcome"] == "dominated":
        over = entry["over"]
        return "dominated", f"lost intake ranking to offer#{over}"
    # A later offer for the same slot displaced this one.
    for edge in ledger.rankings:
        if edge["loser"] == entry["offer"]:
            return "dominated", f"displaced by offer#{edge['winner']}"
    if entry["received"]:
        for competitor in ledger.competitors(entry["offer"]):
            if competitor["offer"] in awarded_ids:
                return (
                    "lost_commodity",
                    f"commodity won by {competitor['seller']} "
                    f"(offer#{competitor['offer']})",
                )
        return "unused", "no winning plan purchased it"
    return "undelivered", "priced by the seller, never reached the buyer"
