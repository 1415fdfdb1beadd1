"""The negotiation decision ledger: *why* the plan looks the way it does.

PR 4's tracer records what happened (spans, events, gauges); this module
reconstructs the *causal chain of decisions* behind a trading result —
the DAG the paper's negotiation walks:

    RFB  →  offers (pricing inputs, cache-hit lineage, fault impacts)
         →  ranking comparisons (which offer displaced which, and why)
         →  plan selections per round
         →  awards / rejects (with settled — possibly Vickrey — prices)
         →  voids and renegotiations (resilience tiers)

The trading layer emits compact ``ledger.*`` decision events (category
``"decision"``) at every choice point; a disabled tracer records none of
them, and the ones that take work to build (the seller's pricing
lineage, the buyer's per-offer intake verdicts) are skipped behind
``tracer.enabled``.  A
:class:`NegotiationLedger` is rebuilt *deterministically* from the
record stream: nothing derived from raw sequence numbers or wall
clocks is kept, so two runs of the same negotiation yield byte-identical
ledgers — the same contract the deterministic JSONL exporter honors.

Build one from a live tracer (the trader does this automatically and
attaches it as ``TradingResult.ledger``) or from a trace file::

    ledger = NegotiationLedger.from_records(tracer.records)
    ledger = NegotiationLedger.from_rows(load_trace("trace.jsonl"))
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.obs.tracer import TraceRecord

__all__ = ["NegotiationLedger", "CAT_DECISION", "LEDGER_SCHEMA_VERSION"]

#: Category of the decision events the trading layer emits.
CAT_DECISION = "decision"

#: Bump when the ledger's JSON shape changes.
LEDGER_SCHEMA_VERSION = 2  # v2: offer nodes carry nominal pricing effort


def _offer_node(offer_id: int) -> dict[str, Any]:
    """A fresh offer node with every field the builders may fill."""
    return {
        "offer": offer_id,
        "seller": None,
        "query": None,
        "request": None,
        "coverage": None,
        "exact": None,
        "money": None,
        "total_time": None,
        "cache": None,       # seller-side lineage: hit / miss / none
        "effort": None,      # nominal optimizer effort (cache-independent)
        "shared": None,      # MQO sharer count (amortized commodities)
        "round": None,       # round the seller priced it in
        "value": None,       # buyer's valuation (set on receipt)
        "received": False,   # survived the network back to the buyer
        "outcome": None,     # intake ranking: kept / kept_over / dominated
        "over": None,        # the offer id this one displaced / lost to
        "awarded": False,
        "price": None,       # settled price (Vickrey may differ from money)
        "rejected": False,
        "voided": False,
    }


@dataclass
class NegotiationLedger:
    """The reconstructed decision DAG of one (resilient) negotiation.

    ``offers`` maps offer id to its node; the remaining lists are in
    decision order.  For a resilient run the ledger spans the initial
    trade plus every renegotiation (``trades`` has one entry per
    ``trade.optimize`` span, sub-trades included).
    """

    trades: list[dict] = field(default_factory=list)
    rounds: list[dict] = field(default_factory=list)
    offers: dict[int, dict] = field(default_factory=dict)
    rankings: list[dict] = field(default_factory=list)
    plans: list[dict] = field(default_factory=list)
    awards: list[dict] = field(default_factory=list)
    rejects: list[dict] = field(default_factory=list)
    voids: list[dict] = field(default_factory=list)
    renegotiations: list[dict] = field(default_factory=list)
    faults: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Sequence[TraceRecord]
    ) -> "NegotiationLedger":
        """Rebuild from live :class:`TraceRecord` rows."""
        return cls._build((r.kind, r.name, r.args or {}) for r in records)

    @classmethod
    def from_rows(cls, rows: Iterable[dict]) -> "NegotiationLedger":
        """Rebuild from trace rows loaded by
        :func:`~repro.obs.report.load_trace`."""
        return cls._build(
            (row.get("kind", "event"), row.get("name", ""),
             row.get("args") or {})
            for row in rows
        )

    # ------------------------------------------------------------------
    @classmethod
    def _build(
        cls, events: Iterator[tuple[str, str, dict]]
    ) -> "NegotiationLedger":
        ledger = cls()
        current_round: dict | None = None

        def node(offer_id: int) -> dict:
            entry = ledger.offers.get(offer_id)
            if entry is None:
                entry = _offer_node(offer_id)
                ledger.offers[offer_id] = entry
            return entry

        for kind, name, args in events:
            if kind == "span":
                if name == "trade.optimize":
                    ledger.trades.append({"query": args.get("query")})
                elif name == "trade.round":
                    current_round = {
                        "round": args.get("round"),
                        "trade": len(ledger.trades),
                        "queries": args.get("queries"),
                        "offers_received": 0,
                        "timeouts": 0,
                        "retries": 0,
                        "faults": {},
                    }
                    ledger.rounds.append(current_round)
                elif name.startswith("resilience."):
                    ledger.renegotiations.append(
                        {"kind": name.split(".", 1)[1], **args}
                    )
                continue
            if name == "ledger.priced":
                entry = node(args["offer"])
                entry.update(
                    seller=args.get("seller"),
                    query=args.get("query"),
                    request=args.get("request"),
                    coverage=args.get("coverage"),
                    exact=args.get("exact"),
                    money=args.get("money"),
                    total_time=args.get("total_time"),
                    cache=args.get("cache"),
                    effort=args.get("effort"),
                    shared=args.get("shared"),
                    round=args.get("round"),
                )
            elif name == "ledger.offer":
                entry = node(args["offer"])
                entry.update(
                    seller=args.get("seller", entry["seller"]),
                    query=args.get("query", entry["query"]),
                    coverage=args.get("coverage", entry["coverage"]),
                    exact=args.get("exact", entry["exact"]),
                    money=args.get("money", entry["money"]),
                    total_time=args.get("total_time", entry["total_time"]),
                    shared=args.get("shared", entry["shared"]),
                    value=args.get("value"),
                    received=True,
                    outcome=args.get("outcome"),
                    over=args.get("over"),
                )
                if current_round is not None:
                    current_round["offers_received"] += 1
                outcome = args.get("outcome")
                if outcome in ("kept_over", "dominated"):
                    winner, loser = (
                        (args["offer"], args.get("over"))
                        if outcome == "kept_over"
                        else (args.get("over"), args["offer"])
                    )
                    ledger.rankings.append(
                        {
                            "round": args.get("round"),
                            "winner": winner,
                            "loser": loser,
                        }
                    )
            elif name == "ledger.plan":
                plan = {
                    "round": args.get("round"),
                    "value": args.get("value"),
                    "cost": args.get("cost"),
                    "purchased": list(args.get("purchased") or ()),
                }
                ledger.plans.append(plan)
                if current_round is not None:
                    current_round["plan"] = plan
            elif name == "ledger.award":
                ledger.awards.append(dict(args))
                entry = node(args["offer"])
                entry["awarded"] = True
                entry["price"] = args.get("price")
            elif name == "ledger.reject":
                ledger.rejects.append(dict(args))
                node(args["offer"])["rejected"] = True
            elif name == "ledger.void":
                ledger.voids.append(dict(args))
                node(args["offer"])["voided"] = True
            elif name == "round.timeout":
                if current_round is not None:
                    current_round["timeouts"] += 1
            elif name == "round.retry":
                if current_round is not None:
                    current_round["retries"] += 1
            elif name.startswith("fault."):
                key = name.split(".", 1)[1]
                reason = args.get("reason")
                if reason:
                    key = f"{key}({reason})"
                ledger.faults[key] = ledger.faults.get(key, 0) + 1
                if current_round is not None:
                    per_round = current_round["faults"]
                    per_round[key] = per_round.get(key, 0) + 1
            elif name.startswith("resilience."):
                ledger.renegotiations.append(
                    {"kind": name.split(".", 1)[1], **args}
                )
        return ledger

    # ------------------------------------------------------------------
    def offer(self, offer_id: int) -> dict | None:
        return self.offers.get(offer_id)

    @property
    def awarded(self) -> list[dict]:
        """Awarded offer nodes, in offer-id order."""
        return [
            self.offers[i] for i in sorted(self.offers)
            if self.offers[i]["awarded"]
        ]

    def commodity_key(self, entry: dict) -> tuple:
        """The interchangeable-commodity identity of an offer node."""
        return (entry["query"], entry["coverage"], entry["exact"])

    def competitors(self, offer_id: int) -> list[dict]:
        """Other offers for the same commodity, in offer-id order."""
        entry = self.offers.get(offer_id)
        if entry is None:
            return []
        key = self.commodity_key(entry)
        return [
            self.offers[i]
            for i in sorted(self.offers)
            if i != offer_id and self.commodity_key(self.offers[i]) == key
        ]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form; JSON of this is the byte-identity surface."""
        return {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "trades": self.trades,
            "rounds": self.rounds,
            "offers": [self.offers[i] for i in sorted(self.offers)],
            "rankings": self.rankings,
            "plans": self.plans,
            "awards": self.awards,
            "rejects": self.rejects,
            "voids": self.voids,
            "renegotiations": self.renegotiations,
            "faults": self.faults,
            "summary": {
                "trades": len(self.trades),
                "rounds": len(self.rounds),
                "offers_priced": len(self.offers),
                "offers_received": sum(
                    1 for o in self.offers.values() if o["received"]
                ),
                "rankings": len(self.rankings),
                "awards": len(self.awards),
                "rejects": len(self.rejects),
                "voids": len(self.voids),
                "renegotiations": len(self.renegotiations),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def describe(self) -> str:
        s = self.to_dict()["summary"]
        return (
            f"ledger: {s['rounds']} round(s), {s['offers_priced']} offers "
            f"priced, {s['offers_received']} received, {s['awards']} "
            f"awarded, {s['voids']} voided, "
            f"{s['renegotiations']} renegotiation event(s)"
        )
