"""Critical-path analysis of a traced trading session.

Answers *where the simulated time went*: which seller, link, or armed
deadline bounded each negotiation round, and how the session's
end-to-end latency decomposes into named phases —

    ``rfb_transit``      RFB transit over the bottleneck link
    ``seller_compute``   seller-side pricing/optimization (queue + work)
    ``offer_transit``    reply transit back to the buyer
    ``deadline_slack``   waiting on a round deadline (stragglers,
                         drops) and retry-backoff waits
    ``buyer_dp``         buyer-side plan-generation DP
    ``award``            winner/loser notification transit
    ``renegotiation``    VOID notices and plan reassembly after crashes

Every record's ``sim_start``/``sim_end`` comes from the one
deterministic :class:`~repro.net.simulator.Simulator`, so the timeline
is read off the trace in one pass over its records.  Each RFB solicit
closes on its last delivery or deadline; its *binding chain* is walked
back from there along the causal ``mid``/``parent`` stamps (reply
delivery → reply send → RFB landing → RFB send), and each phase is the
difference of two recorded times.  Buyer DP, reassembly and award/VOID
notices are read off their own records.  ``total`` is the clock the
simulator reached (the traced ``trade.optimize`` duration, exactly);
phases tile each round, and rounds, awards and renegotiation tile the
session.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Iterable, Sequence

from repro.obs.tracer import NO_PARENT, TraceRecord

__all__ = ["CriticalPath", "CRITPATH_SCHEMA_VERSION", "PHASES"]

#: Bump when the critical-path JSON shape changes.
CRITPATH_SCHEMA_VERSION = 1

#: Every phase simulated time can be attributed to, in render order.
#: The output dict always carries all of them (zero-filled), so its
#: shape never depends on which phases a particular run exercised.
PHASES = (
    "rfb_transit",
    "seller_compute",
    "offer_transit",
    "deadline_slack",
    "buyer_dp",
    "award",
    "renegotiation",
)

#: Reply kinds the buyer counts as a seller having responded.
_REPLY_KINDS = frozenset(("offer", "no_offer"))

#: Notices the buyer sends outside any handler, by the phase they bound.
_NOTICE_PHASE = {"award": "award", "reject": "award", "void": "renegotiation"}


class _Walk:
    """The clock read so far, what is open, and the output under way.

    A solicit's ``last`` is ``(at, chain)`` of its last delivery or
    ``(at, None)`` of its deadline; a chain is ``(rfb_mid, landing,
    done, delivered, reply_mid)``, the last two ``None`` for an RFB
    landing.  ``counted`` is the last chain the buyer counted.
    """

    def __init__(self, origin: float) -> None:
        self.origin = self.clock = origin
        self.trade_start = self.round_start = origin
        self.phases = self.round_phases = dict.fromkeys(PHASES, 0.0)
        self.segments: list[dict] = []
        self.sellers: dict[str, float] = {}
        self.trades: list[dict] = []
        self.buyer = self.trade = self.round = self.solicit = None
        #: Pending notices: ``[phase, mids, (at, mid) of last delivery]``.
        self.notices: list | None = None
        #: ``mid`` → ``(sent at, sender, recipient)``; a reply's ``mid``
        #: → ``(rfb_mid, landing, done)`` of the delivery that sent it.
        self.sends: dict[int, tuple[float, str, str | None]] = {}
        self.origins: dict[int, tuple[int, float, float]] = {}
        #: ``[mid, landing, done]`` of the delivery whose handler runs.
        self.handler: list | None = None

    def attribute(self, phase: str, seconds: float, site: str | None = None,
                  link: str | None = None, mid: int | None = None) -> None:
        if seconds <= 0.0:
            return
        self.phases[phase] += seconds
        self.segments.append({
            "phase": phase, "seconds": seconds, "trade": len(self.trades),
            "round": None if self.round is None else self.round["round"],
            "site": site, "link": link, "mid": mid,
        })
        if phase == "seller_compute" and site is not None:
            self.sellers[site] = self.sellers.get(site, 0.0) + seconds

    def chain(self, start: float, chain: tuple, bottleneck: dict) -> None:
        """Attribute a binding chain, back to its RFB send."""
        rfb_mid, landing, done, delivered, reply_mid = chain
        depart, src, seller = self.sends[rfb_mid]
        seller = seller or ""
        link = f"{src}->{seller}"
        self.attribute("deadline_slack", depart - start, site=src)
        self.attribute("rfb_transit", landing - depart, link=link, mid=rfb_mid)
        bottleneck.update(
            kind="response", seller=seller, link=link, rfb_mid=rfb_mid
        )
        if delivered is None:
            return  # the reply never made it back: transit bounds it
        self.attribute(
            "seller_compute", done - landing, site=seller, mid=rfb_mid
        )
        self.attribute(
            "offer_transit", delivered - done,
            link=f"{seller}->{src}", mid=reply_mid,
        )
        bottleneck.update(reply_mid=reply_mid, compute=done - landing)

    # -- closing what the next record ends -------------------------------
    def close_solicit(self) -> None:
        solicit, self.solicit = self.solicit, None
        if solicit is None:
            return
        bottleneck: dict[str, Any] = {
            "kind": "idle", "seller": None, "link": None, "rfb_mid": None,
            "reply_mid": None, "compute": None, "slack": None,
            "responded": len(solicit.responded),
            "expected": len(solicit.expected),
        }
        if solicit.last is not None:
            self.clock, chain = solicit.last
            if chain is not None:
                self.chain(solicit.start, chain, bottleneck)
            else:  # the deadline closed the solicit
                counted = solicit.counted
                slack = self.clock - solicit.start
                if counted is not None:
                    self.chain(solicit.start, counted, bottleneck)
                    slack = self.clock - counted[3]
                self.attribute("deadline_slack", slack)
                kind = "silent" if counted is None else "deadline"
                bottleneck.update(kind=kind, slack=slack)
        self.round["waves"] += solicit.waves
        self.round["timeouts"] += solicit.timeouts
        self.round["bottleneck"] = bottleneck

    def close_round(self) -> None:
        self.close_solicit()
        if self.round is not None:
            self.round["total"] = self.clock - self.round_start
            self.round["phases"] = {
                phase: self.phases[phase] - self.round_phases[phase]
                for phase in PHASES
            }
            self.round = None

    def close_trade(self) -> None:
        self.close_round()
        self.flush()
        if self.trade is not None:
            self.trade["total"] = self.clock - self.trade_start
            self.trade = None

    def flush(self) -> None:
        """Attribute pending notices: their last delivery bounds them."""
        group, self.notices = self.notices, None
        if group is None or group[2] is None:
            return  # every notice dropped: no clock advance
        phase, _mids, (at, mid) = group
        _sent, src, dst = self.sends[mid]
        seconds, self.clock = at - self.clock, at
        self.attribute(phase, seconds, link=f"{src}->{dst}", mid=mid)
        if phase == "award" and self.trade is not None:
            self.trade["award"] = seconds

    # -- one handler per record name: (site, sim_start, sim_end, args) --
    def on_trade_optimize(self, _site, _start, _end, args: dict) -> None:
        self.close_trade()
        self.trade_start = self.clock
        self.trade = {
            "trade": len(self.trades) + 1, "query": args.get("query"),
            "start": self.clock - self.origin, "total": 0.0,
            "rounds": [], "award": 0.0,
        }
        self.trades.append(self.trade)

    def on_trade_round(self, _site, _start, _end, args: dict) -> None:
        self.close_round()
        if self.trade is not None:
            self.round_start = self.clock
            self.round_phases = dict(self.phases)
            self.round = {
                "round": args.get("round"),
                "start": self.clock - self.origin, "total": 0.0,
                "phases": None, "waves": 0, "timeouts": 0,
                "bottleneck": None,
            }
            self.trade["rounds"].append(self.round)

    def on_rfb_fanout(self, _site, _start, _end, args: dict) -> None:
        """``attempt == 0`` opens a solicit (bargaining runs several per
        round); a higher attempt is a retry wave of the open one."""
        if self.round is None:
            return
        if args.get("attempt", 0) == 0 or self.solicit is None:
            self.close_solicit()
            self.solicit = SimpleNamespace(
                start=self.clock, waves=1, timeouts=0, expected=set(),
                responded=set(), closed=False, last=None, counted=None,
            )
        else:
            self.solicit.waves += 1

    def on_buyer_compute(self, site: str, _start, end: float, args) -> None:
        if args.get("reassembly"):
            self.close_trade()
            phase = "renegotiation"
        elif self.round is not None:
            self.close_solicit()
            phase = "buyer_dp"
        else:
            return
        seconds, self.clock = end - self.clock, end
        self.attribute(phase, seconds, site=site or "")

    def on_msg_send(self, site: str, at: float, _end, args: dict) -> None:
        mid, kind, to = args.get("mid"), args.get("kind"), args.get("to")
        parent = args.get("parent", NO_PARENT)
        self.sends[mid] = (at, site, to)
        handler = self.handler
        if handler is not None and handler[0] == parent != NO_PARENT:
            self.origins[mid] = (parent, handler[1], handler[2])
        if kind == "rfb" and self.solicit is not None:
            if to:
                self.solicit.expected.add(to)
            self.buyer = self.buyer or site
        elif parent == NO_PARENT and kind in _NOTICE_PHASE:
            phase = _NOTICE_PHASE[kind]
            if self.notices is None or self.notices[0] != phase:
                if phase == "award":
                    self.close_round()
                    self.flush()
                else:  # VOID notices end the trade they void
                    self.close_trade()
                self.notices = [phase, set(), None]
            self.notices[1].add(mid)

    def on_msg_deliver(self, _site, at: float, _end, args: dict) -> None:
        mid = args.get("mid")
        self.handler = [mid, at, at]
        group, solicit = self.notices, self.solicit
        if group is not None and mid in group[1]:
            if group[2] is None or (at, mid) > group[2]:
                group[2] = (at, mid)
        elif solicit is None:
            return
        elif args.get("kind") == "rfb":
            solicit.last = (at, (mid, at, at, None, None))
        elif mid in self.origins:
            origin = self.origins[mid]
            solicit.last = (at, origin + (at, mid))
            # Once a deadline closed the round, late copies drain only.
            if not solicit.closed and args.get("kind") in _REPLY_KINDS:
                solicit.responded.add(self.sends[origin[0]][2] or "")
                solicit.counted = solicit.last[1]

    def on_seller_compute(self, _site, _start, end: float, args: dict) -> None:
        handler = self.handler
        if handler is not None and args.get("cause") == handler[0]:
            handler[2] = end

    def on_round_timeout(self, _site, at: float, _end, _args) -> None:
        if self.solicit is not None:
            self.solicit.timeouts += 1
            self.solicit.last = (at, None)
            self.solicit.closed = True  # unless a round.retry follows

    def on_round_retry(self, _site, _start, _end, _args) -> None:
        if self.solicit is not None:
            self.solicit.closed = False  # all silent: the round re-issues


#: The records that move the walk: ``on_msg_send`` handles ``msg.send``.
_ON = {
    name[3:].replace("_", ".", 1): handler
    for name, handler in vars(_Walk).items()
    if name.startswith("on_")
}


@dataclass
class CriticalPath:
    """The critical path of one traced session."""

    buyer: str | None
    total: float
    phases: dict[str, float]
    trades: list[dict]
    segments: list[dict]
    sellers: dict[str, float]

    @classmethod
    def from_records(
        cls, records: Sequence[TraceRecord]
    ) -> CriticalPath | None:
        return cls._walk(
            (r.name, r.site, r.sim_start, r.sim_end, r.args or {})
            for r in records
        )

    @classmethod
    def from_rows(cls, rows: Sequence[dict]) -> CriticalPath | None:
        """From rows loaded by :func:`repro.obs.report.load_trace`."""
        return cls._walk(
            (row.get("name", ""), row.get("site", ""), row["sim_start"],
             row.get("sim_end", row["sim_start"]), row.get("args") or {})
            for row in rows
        )

    @classmethod
    def _walk(cls, rows: Iterable[tuple]) -> CriticalPath | None:
        """Walk ``(name, site, sim_start, sim_end, args)`` tuples."""
        walk = None
        for name, site, start, end, args in rows:
            if walk is None:
                if name != "trade.optimize":
                    continue  # time starts at the first trade
                walk = _Walk(start)
            on = _ON.get(name)
            if on is not None:
                on(walk, site, start, end, args)
        if walk is None:
            return None  # not a trading trace (baseline optimizers etc.)
        walk.close_trade()
        segments = sorted(walk.segments, key=lambda s: (
            -s["seconds"], s["trade"],
            -1 if s["round"] is None else s["round"],
            PHASES.index(s["phase"]), -1 if s["mid"] is None else s["mid"],
        ))
        sellers = {site: walk.sellers[site] for site in sorted(walk.sellers)}
        return cls(walk.buyer, walk.clock - walk.origin, walk.phases,
                   walk.trades, segments, sellers)

    # ------------------------------------------------------------------
    def reconciles(self, rel_tol: float = 1e-9) -> bool:
        """Whether phases tile rounds and rounds tile the session."""
        pairs = [(self.phases, self.total)] + [
            (r["phases"], r["total"]) for t in self.trades for r in t["rounds"]
        ]
        return all(
            math.isclose(
                sum(phases.values()), total, rel_tol=rel_tol, abs_tol=1e-12
            )
            for phases, total in pairs
        )

    # ------------------------------------------------------------------
    def to_dict(self, top: int | None = None) -> dict[str, Any]:
        """Plain-data form; JSON of this is the byte-identity surface."""
        segments = self.segments if top is None else self.segments[:top]
        return {
            "schema_version": CRITPATH_SCHEMA_VERSION,
            "buyer": self.buyer,
            "total": self.total,
            "phases": {phase: self.phases[phase] for phase in PHASES},
            "trades": self.trades,
            "segments": segments,
            "sellers": self.sellers,
            "summary": {
                "trades": len(self.trades),
                "rounds": sum(len(t["rounds"]) for t in self.trades),
                "segments": len(self.segments),
                "timeouts": sum(
                    r["timeouts"] for t in self.trades for r in t["rounds"]
                ),
            },
        }

    def to_json(self, top: int | None = None) -> str:
        return json.dumps(self.to_dict(top=top), sort_keys=True)

    # ------------------------------------------------------------------
    def render(self, top: int = 8) -> str:
        lines = [
            f"critical path: {self.total:.6f}s simulated across "
            f"{len(self.trades)} trade(s), "
            f"{sum(len(t['rounds']) for t in self.trades)} round(s)",
            "",
            "phase totals (critical-path attribution):",
        ]
        for phase in PHASES:
            seconds = self.phases[phase]
            share = seconds / self.total * 100.0 if self.total else 0.0
            lines.append(f"  {phase:<16} {seconds:>12.6f}s  {share:5.1f}%")
        lines += ["", "round bottlenecks:"]
        for trade in self.trades:
            for r in trade["rounds"]:
                lines.append(
                    f"  trade {trade['trade']} round {r['round']}: "
                    f"{r['total']:.6f}s — {_bottleneck_text(r)}"
                )
            if trade["award"]:
                lines.append(
                    f"  trade {trade['trade']} award: {trade['award']:.6f}s"
                )
        lines += ["", f"top {min(top, len(self.segments))} segments:"]
        for rank, s in enumerate(self.segments[:top], start=1):
            label = "" if s["round"] is None else f" round {s['round']}"
            mid = "" if s["mid"] is None else f" (mid {s['mid']})"
            lines.append(
                f"  {rank:>2}. {s['phase']:<16} {s['seconds']:>12.6f}s  "
                f"{s['site'] or s['link'] or '-'}"
                f"  trade {s['trade']}{label}{mid}"
            )
        if self.sellers:
            lines += ["", "sellers on the critical path (compute seconds):"]
            for site, seconds in sorted(
                self.sellers.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"  {site:<20} {seconds:>12.6f}s")
        return "\n".join(lines)


def _bottleneck_text(round_out: dict) -> str:
    """One round's bottleneck, as :meth:`CriticalPath.render` lists it."""
    b = round_out["bottleneck"] or {}
    if b.get("kind") == "response":
        reply = b.get("reply_mid")
        text = f"seller {b.get('seller')} (rfb mid {b.get('rfb_mid')}" + (
            ", reply lost)" if reply is None else f" -> reply mid {reply})"
        )
        if b.get("compute") is not None:
            text += f", compute {b['compute']:.6f}s"
        return text
    if b.get("kind") == "deadline":
        return (
            f"deadline ({b.get('responded')}/{b.get('expected')} "
            f"responded, slack {b.get('slack', 0.0):.6f}s)"
        )
    if b.get("kind") == "silent":
        return f"all sellers silent ({round_out['timeouts']} timeout(s))"
    return "idle"
