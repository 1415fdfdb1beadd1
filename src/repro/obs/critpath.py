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

The analysis is a **deterministic forward replay** of the causal DAG
(:mod:`repro.obs.causal`): it reconstructs the session timeline from
deterministic quantities only — per-delivery transit delays (``lat``),
booked compute seconds (``work``), and armed round deadlines — never
from recorded timestamps.  The replay reproduces the simulated clock
exactly (tests assert the reconstructed total equals the traced
``trade.optimize`` duration), and because it reads no timestamp it is
byte-identical across repeated same-seed runs and broker worker
counts, which is what makes it a stable serving-observability
surface.

Phase attribution follows the *binding chain*: within each round, the
chain of causally linked events that determined when the round closed
(the last counted reply, or the deadline timer).  The per-round phase
latencies therefore tile the round's duration, and rounds plus award
and renegotiation segments tile the session — the reconciliation
property the tests pin down.
"""

from __future__ import annotations

import heapq
import json
import math
from typing import Any, Iterable, Sequence

from repro.obs.causal import CausalDag, causal_events
from repro.obs.tracer import NO_PARENT, TraceRecord

__all__ = ["CriticalPath", "CRITPATH_SCHEMA_VERSION", "PHASES"]

#: Bump when the critical-path JSON shape changes.
CRITPATH_SCHEMA_VERSION = 1

#: Every phase the replay can attribute simulated time to, in render
#: order.  The output dict always carries all of them (zero-filled), so
#: its shape never depends on which phases a particular run exercised.
PHASES = (
    "rfb_transit",
    "seller_compute",
    "offer_transit",
    "deadline_slack",
    "buyer_dp",
    "award",
    "renegotiation",
)

#: Reply kinds the buyer counts toward a round's close (the buyer
#: handler ignores everything else without marking the seller as
#: having responded).
_REPLY_KINDS = frozenset(("offer", "no_offer"))


class _Replay:
    """Mutable replay state threaded through one session reconstruction."""

    def __init__(self, dag: CausalDag) -> None:
        self.dag = dag
        self.clock = 0.0
        self.busy: dict[str, float] = {}
        self.phases: dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.segments: list[dict] = []
        self.sellers: dict[str, float] = {}
        self.trade_index = 0
        self.round_number: int | None = None
        # Consumption pointers over causally rooted message nodes.
        nodes = dag.nodes
        self.rfbs = [
            nodes[mid]
            for mid in sorted(nodes)
            if nodes[mid]["kind"] == "rfb"
        ]
        self.notices = [
            nodes[mid]
            for mid in sorted(nodes)
            if nodes[mid]["kind"] in ("award", "reject", "void")
            and nodes[mid]["parent"] == NO_PARENT
        ]
        self._rfb_cursor = 0
        self._notice_cursor = 0
        self._compute_cursor: dict[int, int] = {}
        self._reply_cursor: dict[int, int] = {}

    # -- consumption ---------------------------------------------------
    def take_rfbs(self, count: int) -> list[dict]:
        chunk = self.rfbs[self._rfb_cursor : self._rfb_cursor + count]
        self._rfb_cursor += len(chunk)
        return chunk

    def next_rfb_mid(self) -> int | None:
        """The id of the next unconsumed RFB root, if any — the
        structural boundary between one trade's notices and the next
        sub-trade's traffic."""
        if self._rfb_cursor < len(self.rfbs):
            return self.rfbs[self._rfb_cursor]["mid"]
        return None

    def take_notices(
        self, kinds: tuple[str, ...], before: int | None = None
    ) -> list[dict]:
        taken = []
        while self._notice_cursor < len(self.notices):
            node = self.notices[self._notice_cursor]
            if node["kind"] not in kinds:
                break
            if before is not None and node["mid"] >= before:
                break  # belongs to a later (sub-)trade's award step
            taken.append(node)
            self._notice_cursor += 1
        return taken

    def next_compute(self, mid: int, site: str) -> dict | None:
        """The next booked compute for delivery *mid* (copy order)."""
        computes = self.dag.nodes[mid]["computes"]
        index = self._compute_cursor.get(mid, 0)
        while index < len(computes) and computes[index]["site"] != site:
            index += 1  # defensive: computes are keyed to the recipient
        if index >= len(computes):
            return None
        self._compute_cursor[mid] = index + 1
        return computes[index]

    def next_reply(self, mid: int) -> dict | None:
        """The next reply message sent from delivery *mid* (id order)."""
        replies = self.dag.replies(mid)
        index = self._reply_cursor.get(mid, 0)
        if index >= len(replies):
            return None
        self._reply_cursor[mid] = index + 1
        return replies[index]

    # -- attribution ---------------------------------------------------
    def attribute(
        self,
        phase: str,
        seconds: float,
        site: str | None = None,
        link: str | None = None,
        mid: int | None = None,
    ) -> None:
        if seconds <= 0.0:
            return
        self.phases[phase] += seconds
        self.segments.append(
            {
                "phase": phase,
                "seconds": seconds,
                "trade": self.trade_index,
                "round": self.round_number,
                "site": site,
                "link": link,
                "mid": mid,
            }
        )
        if phase == "seller_compute" and site is not None:
            self.sellers[site] = self.sellers.get(site, 0.0) + seconds


def _skeleton(events: Iterable[tuple[str, str, str, dict]]) -> list[tuple]:
    """Driver-thread session structure, in record order.

    Only rows emitted sequentially by the buyer's driver thread are
    consulted (span rows — appended at *open* time — and buyer.compute
    intervals); rows emitted from message handlers are reached through
    the causal DAG instead, which orders them by causal id, not by
    record order.  Returns a timeline of
    ``("trade", trade)`` / ``("reassembly", {site, work})`` entries.
    """
    timeline: list[tuple] = []
    current_trade: dict | None = None
    current_round: dict | None = None
    for kind, name, site, args in events:
        if kind != "span":
            continue
        if name == "trade.optimize":
            current_trade = {
                "query": args.get("query"),
                "rounds": [],
                "award": False,
            }
            current_round = None
            timeline.append(("trade", current_trade))
        elif name == "trade.round":
            if current_trade is None:
                continue
            current_round = {
                "round": args.get("round"),
                "fanouts": [],
                "dp": [],
            }
            current_trade["rounds"].append(current_round)
        elif name == "rfb.fanout":
            if current_round is not None:
                current_round["fanouts"].append(
                    {
                        "attempt": args.get("attempt", 0),
                        "sellers": args.get("sellers", 0),
                        "deadline": args.get("deadline"),
                    }
                )
        elif name == "buyer.compute":
            entry = {
                "site": site,
                "work": args.get("work", 0.0),
                "enumerated": args.get("enumerated"),
            }
            if args.get("reassembly"):
                timeline.append(("reassembly", entry))
            elif current_round is not None:
                current_round["dp"].append(entry)
        elif name == "trade.award":
            if current_trade is not None:
                current_trade["award"] = True
    return timeline


def _solicits(fanouts: Sequence[dict]) -> list[list[dict]]:
    """Group a round's fanout waves into solicits.

    A wave with ``attempt == 0`` opens a new solicit (bargaining runs
    several bidding solicits per trading round); higher attempts are
    retry re-issues of the current one.
    """
    groups: list[list[dict]] = []
    for wave in fanouts:
        if wave["attempt"] == 0 or not groups:
            groups.append([wave])
        else:
            groups[-1].append(wave)
    return groups


def _replay_solicit(state: _Replay, waves: list[dict]) -> dict:
    """Deterministic mini-simulation of one solicit (all retry waves).

    Mirrors :class:`~repro.trading.protocols.BiddingProtocol` exactly:
    the deadline timer is armed before the fanout (so it wins seq
    ties), replies count once per seller, the round closes early when
    every contacted seller answered, fires its deadline otherwise, and
    late deliveries still drain — extending the quiesce time — after
    the close.  Returns the solicit's bottleneck description.
    """
    start = state.clock
    heap: list[tuple] = []
    seq = 0
    expected: set[str] = set()
    responded: set[str] = set()
    closed = False
    timeouts = 0
    issued = 0
    active_timer: list | None = None  # [cancelled?]
    last_counted: dict | None = None  # binding reply chain
    last_event: dict | None = None    # the quiesce event
    quiesce = start

    def push(when: float, typ: str, data) -> None:
        nonlocal seq
        heapq.heappush(heap, (when, seq, typ, data))
        seq += 1

    def issue(depart: float) -> None:
        nonlocal issued, active_timer
        wave = waves[issued]
        issued += 1
        # The protocol arms the deadline timer *before* sending, so on
        # an exact time tie the timer fires first (lower seq).
        if wave["deadline"] is not None:
            active_timer = [False]
            push(depart + wave["deadline"], "timer", active_timer)
        for rfb in state.take_rfbs(wave["sellers"]):
            if rfb["dst"]:
                expected.add(rfb["dst"])
            for delivery in rfb["deliveries"]:
                push(depart + delivery["lat"], "rfb", (rfb, depart))

    issue(start)
    while heap:
        when, _seq, typ, data = heapq.heappop(heap)
        if typ == "timer":
            if data[0]:
                continue  # cancelled timers never advance the clock
            quiesce = max(quiesce, when)
            timeouts += 1
            if not responded and issued < len(waves):
                # All sellers silent: the traced retry re-issue.
                issue(when)
                last_event = {"typ": "timer", "when": when}
                continue
            closed = True
            active_timer = None
            last_event = {"typ": "timer", "when": when}
        elif typ == "rfb":
            quiesce = max(quiesce, when)
            rfb, depart = data
            site = rfb["dst"] or ""
            compute = state.next_compute(rfb["mid"], site)
            if compute is not None:
                begin = max(when, state.busy.get(site, 0.0))
                done = begin + compute["work"]
                state.busy[site] = done
            else:
                done = when
            last_event = {
                "typ": "rfb", "when": when, "rfb": rfb, "depart": depart,
            }
            reply = state.next_reply(rfb["mid"])
            if reply is not None:
                for delivery in reply["deliveries"]:
                    push(
                        done + delivery["lat"],
                        "reply",
                        {
                            "rfb": rfb,
                            "reply": reply,
                            "depart": depart,
                            "arrival": when,
                            "done": done,
                            "reply_depart": done,
                        },
                    )
        else:  # reply delivery at the buyer
            quiesce = max(quiesce, when)
            chain = dict(data)
            chain["when"] = when
            last_event = {"typ": "reply", "when": when, "chain": chain}
            if closed:
                continue  # round already closed; late copy drains only
            if chain["reply"]["kind"] not in _REPLY_KINDS:
                continue
            responded.add(chain["rfb"]["dst"] or "")
            last_counted = chain
            if active_timer is not None and responded >= expected:
                closed = True
                active_timer[0] = True  # cancel: everyone answered
                active_timer = None

    # -- attribute the binding chain -----------------------------------
    state.clock = quiesce
    bottleneck: dict[str, Any] = {
        "kind": "idle", "seller": None, "link": None,
        "rfb_mid": None, "reply_mid": None,
        "compute": None, "slack": None,
        "waves": issued, "timeouts": timeouts,
        "responded": len(responded), "expected": len(expected),
    }
    if last_event is None:
        return bottleneck

    def attribute_chain(chain: dict) -> None:
        rfb, reply = chain["rfb"], chain["reply"]
        seller = rfb["dst"] or ""
        state.attribute(
            "deadline_slack", chain["depart"] - start,
            site=rfb["src"],
        )
        state.attribute(
            "rfb_transit", chain["arrival"] - chain["depart"],
            link=f"{rfb['src']}->{seller}", mid=rfb["mid"],
        )
        state.attribute(
            "seller_compute", chain["done"] - chain["arrival"],
            site=seller, mid=rfb["mid"],
        )
        state.attribute(
            "offer_transit", chain["when"] - chain["reply_depart"],
            link=f"{seller}->{rfb['src']}", mid=reply["mid"],
        )
        bottleneck.update(
            kind="response", seller=seller,
            link=f"{rfb['src']}->{seller}",
            rfb_mid=rfb["mid"], reply_mid=reply["mid"],
            compute=chain["done"] - chain["arrival"],
        )

    if last_event["typ"] == "reply":
        attribute_chain(last_event["chain"])
    elif last_event["typ"] == "rfb":
        # The last thing that happened was an RFB landing whose reply
        # never made it back (dropped) — transit bounds the solicit.
        rfb = last_event["rfb"]
        state.attribute(
            "deadline_slack", last_event["depart"] - start,
            site=rfb["src"],
        )
        state.attribute(
            "rfb_transit", last_event["when"] - last_event["depart"],
            link=f"{rfb['src']}->{rfb['dst']}", mid=rfb["mid"],
        )
        bottleneck.update(
            kind="response", seller=rfb["dst"],
            link=f"{rfb['src']}->{rfb['dst']}", rfb_mid=rfb["mid"],
        )
    else:  # deadline fire bounded the solicit
        fire = last_event["when"]
        if last_counted is not None:
            attribute_chain(last_counted)
            slack = fire - last_counted["when"]
        else:
            slack = fire - start
        state.attribute("deadline_slack", slack)
        bottleneck.update(kind="deadline", slack=slack)
        if last_counted is None:
            bottleneck["kind"] = "silent"
    return bottleneck


class CriticalPath:
    """Reconstructed critical path of one traced session."""

    def __init__(
        self,
        buyer: str | None,
        total: float,
        phases: dict[str, float],
        trades: list[dict],
        segments: list[dict],
        sellers: dict[str, float],
    ) -> None:
        self.buyer = buyer
        self.total = total
        self.phases = phases
        self.trades = trades
        self.segments = segments
        self.sellers = sellers

    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Sequence[TraceRecord]
    ) -> "CriticalPath | None":
        return cls._build(
            CausalDag.from_records(records),
            _skeleton(causal_events(records=records)),
        )

    @classmethod
    def from_rows(cls, rows: Sequence[dict]) -> "CriticalPath | None":
        rows = list(rows)
        return cls._build(
            CausalDag.from_rows(rows),
            _skeleton(causal_events(rows=rows)),
        )

    # ------------------------------------------------------------------
    @classmethod
    def _build(
        cls, dag: CausalDag, timeline: list[tuple]
    ) -> "CriticalPath | None":
        if not any(entry[0] == "trade" for entry in timeline):
            return None  # not a trading trace (baseline optimizers etc.)
        state = _Replay(dag)
        buyer = None
        trades_out: list[dict] = []

        def replay_notices(kinds: tuple[str, ...], phase: str) -> None:
            notices = state.take_notices(kinds, before=state.next_rfb_mid())
            if not notices:
                return
            depart = state.clock
            top: tuple[float, int] | None = None
            binding: dict | None = None
            for node in notices:
                for delivery in node["deliveries"]:
                    arrival = depart + delivery["lat"]
                    key = (arrival, node["mid"])
                    if top is None or key > top:
                        top = key
                        binding = node
            if top is None:
                return  # every notice dropped: no clock advance
            state.clock = top[0]
            state.attribute(
                phase,
                state.clock - depart,
                link=(
                    f"{binding['src']}->{binding['dst']}"
                    if binding is not None
                    else None
                ),
                mid=binding["mid"] if binding is not None else None,
            )

        for entry_kind, entry in timeline:
            # VOID notices precede the renegotiation's sub-trades.
            replay_notices(("void",), "renegotiation")
            if entry_kind == "reassembly":
                state.round_number = None
                site = entry["site"] or ""
                begin = max(state.clock, state.busy.get(site, 0.0))
                done = begin + entry["work"]
                state.busy[site] = done
                seconds = done - state.clock
                state.clock = done
                state.attribute("renegotiation", seconds, site=site)
                continue
            state.trade_index += 1
            trade_start = state.clock
            rounds_out: list[dict] = []
            for round_spec in entry["rounds"]:
                state.round_number = round_spec["round"]
                round_start = state.clock
                phases_before = dict(state.phases)
                bottleneck: dict | None = None
                waves = timeouts = 0
                for solicit in _solicits(round_spec["fanouts"]):
                    if buyer is None and state.rfbs:
                        buyer = state.rfbs[0]["src"]
                    bottleneck = _replay_solicit(state, solicit)
                    waves += bottleneck.pop("waves")
                    timeouts += bottleneck.pop("timeouts")
                for dp in round_spec["dp"]:
                    site = dp["site"] or ""
                    begin = max(state.clock, state.busy.get(site, 0.0))
                    done = begin + dp["work"]
                    state.busy[site] = done
                    seconds = done - state.clock
                    state.clock = done
                    state.attribute("buyer_dp", seconds, site=site)
                rounds_out.append(
                    {
                        "round": round_spec["round"],
                        "start": round_start,
                        "total": state.clock - round_start,
                        "phases": {
                            phase: state.phases[phase]
                            - phases_before.get(phase, 0.0)
                            for phase in PHASES
                        },
                        "waves": waves,
                        "timeouts": timeouts,
                        "bottleneck": bottleneck,
                    }
                )
            state.round_number = None
            award_start = state.clock
            if entry["award"]:
                replay_notices(("award", "reject"), "award")
            trades_out.append(
                {
                    "trade": state.trade_index,
                    "query": entry["query"],
                    "start": trade_start,
                    "total": state.clock - trade_start,
                    "rounds": rounds_out,
                    "award": state.clock - award_start,
                }
            )
        replay_notices(("void",), "renegotiation")

        segments = sorted(
            state.segments,
            key=lambda s: (
                -s["seconds"],
                s["trade"],
                s["round"] if s["round"] is not None else -1,
                PHASES.index(s["phase"]),
                s["mid"] if s["mid"] is not None else -1,
            ),
        )
        sellers = {
            site: state.sellers[site] for site in sorted(state.sellers)
        }
        return cls(
            buyer=buyer,
            total=state.clock,
            phases=dict(state.phases),
            trades=trades_out,
            segments=segments,
            sellers=sellers,
        )

    # ------------------------------------------------------------------
    def reconciles(self, rel_tol: float = 1e-9) -> bool:
        """Whether phases tile rounds and rounds tile the session."""
        attributed = sum(self.phases.values())
        if not math.isclose(
            attributed, self.total, rel_tol=rel_tol, abs_tol=1e-12
        ):
            return False
        for trade in self.trades:
            for round_out in trade["rounds"]:
                if not math.isclose(
                    sum(round_out["phases"].values()),
                    round_out["total"],
                    rel_tol=rel_tol,
                    abs_tol=1e-12,
                ):
                    return False
        return True

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
        lines.append("")
        lines.append("round bottlenecks:")
        for trade in self.trades:
            for round_out in trade["rounds"]:
                b = round_out["bottleneck"] or {}
                if b.get("kind") == "response":
                    detail = (
                        f"seller {b.get('seller')} "
                        f"(rfb mid {b.get('rfb_mid')}"
                        + (
                            f" -> reply mid {b.get('reply_mid')}"
                            if b.get("reply_mid") is not None
                            else ", reply lost"
                        )
                        + ")"
                    )
                    if b.get("compute") is not None:
                        detail += f", compute {b['compute']:.6f}s"
                elif b.get("kind") == "deadline":
                    detail = (
                        f"deadline ({b.get('responded')}/"
                        f"{b.get('expected')} responded, "
                        f"slack {b.get('slack', 0.0):.6f}s)"
                    )
                elif b.get("kind") == "silent":
                    detail = (
                        f"all sellers silent "
                        f"({round_out['timeouts']} timeout(s))"
                    )
                else:
                    detail = "idle"
                lines.append(
                    f"  trade {trade['trade']} round "
                    f"{round_out['round']}: "
                    f"{round_out['total']:.6f}s — {detail}"
                )
            if trade["award"]:
                lines.append(
                    f"  trade {trade['trade']} award: "
                    f"{trade['award']:.6f}s"
                )
        lines.append("")
        lines.append(f"top {min(top, len(self.segments))} segments:")
        for rank, segment in enumerate(self.segments[:top], start=1):
            where = segment["site"] or segment["link"] or "-"
            mid = (
                f" (mid {segment['mid']})"
                if segment["mid"] is not None
                else ""
            )
            round_label = (
                f" round {segment['round']}"
                if segment["round"] is not None
                else ""
            )
            lines.append(
                f"  {rank:>2}. {segment['phase']:<16} "
                f"{segment['seconds']:>12.6f}s  {where}"
                f"  trade {segment['trade']}{round_label}{mid}"
            )
        if self.sellers:
            lines.append("")
            lines.append("sellers on the critical path (compute seconds):")
            ranked = sorted(
                self.sellers.items(), key=lambda kv: (-kv[1], kv[0])
            )
            for site, seconds in ranked:
                lines.append(f"  {site:<20} {seconds:>12.6f}s")
        return "\n".join(lines)
