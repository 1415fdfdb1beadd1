"""Benchmark-owned spans around the public calls into each layer.

Nothing under ``src/`` knows about this: :func:`install` replaces the
public functions listed in :func:`targets` with timing wrappers (and
puts the originals back), so each layer is measured from outside.  A
span is one call: name, start, end, the span that caused it, and the
operation (one trade, one broker session) it belongs to.

On one thread calls nest, so a span's *self* time — its duration minus
the part its child spans cover — is its duration minus the sum of its
direct children, and the self times under a root sum to the root's
duration by construction.  Self time is settled when the span ends and
added to per-operation totals ``{name: [calls, total_s, self_s]}``;
that is what the per-layer metrics read.  Full span records are kept in
memory for the first few operations only (a wide trade makes ~10^4
calls, and the totals already hold every one) and written to
``spans.jsonl`` when the run ends; *leaf* targets — calls made over a
thousand times per operation (``net.send``, ``cache.lookup``) — are
never kept as records, only as totals.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["Recorder", "Target", "targets", "install", "render_lines"]


def _new_totals() -> dict:
    return {"spans": {}, "counters": {}, "root_s": 0.0}


def merge_totals(into: dict, other: dict) -> None:
    """Add *other*'s span totals and counters into *into*."""
    for name, (calls, total, self_s) in other["spans"].items():
        row = into["spans"].setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += self_s
    for key, value in other["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + value
    into["root_s"] += other["root_s"]


class _ThreadState:
    """One thread's open spans and the totals of its unfinished tree."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [start, child_s, id]
        self.tree = _new_totals()
        self.records: list[tuple] = []
        self.op: str | None = None  # set by the harness around one trade
        self.hint: str | None = None  # learned from a call's arguments
        self.pending = _new_totals()  # finished trees with no op yet
        self.pending_records: list[tuple] = []


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, keep_ops: int | None = 3):
        #: full span records are kept for this many operations (the
        #: first ones to finish); ``None`` keeps every operation's
        self.keep_ops = keep_ops
        #: op id -> {"spans": {name: [calls, total_s, self_s]},
        #:           "counters": {key: number},
        #:           "root_s": seconds in spans with no parent}
        self.ops: dict[str, dict] = {}
        #: (op, [(id, parent id, name, start, end), ...]) per finished
        #: tree of a kept operation — appended whole, so that finishing
        #: a root costs the same however many spans it had
        self.records: list[tuple[str, list[tuple]]] = []
        self._kept: set[str] = set()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadState()
        return state

    # -- the harness names the operation when it knows it ------------------
    @contextmanager
    def operation(self, op: str) -> Iterator[None]:
        """Attribute every span this thread finishes inside to *op*."""
        state = self._state()
        state.op = op
        try:
            yield
        finally:
            state.op = None

    # -- wrappers ----------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        leaf: bool = False,
        counters: Callable | None = None,
        op_of: Callable | None = None,
    ) -> Callable:
        """*fn* timed as span *name*.

        *counters* ``(args, result) -> {key: number}`` reads counts at
        the boundary (not called when *fn* raised); *op_of* ``(args,
        result) -> op id | None`` names the operation when only the
        call's arguments know it (broker sessions)."""
        clock = time.perf_counter
        get_state = self._state
        ids = self._ids

        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            frame = [0.0, 0.0, 0 if leaf else next(ids)]  # start, child_s, id
            stack.append(frame)
            result = None
            raised = True
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                row = state.tree["spans"].get(name)
                if row is None:
                    row = state.tree["spans"][name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if counters is not None and not raised:
                    tally = state.tree["counters"]
                    for key, value in counters(args, result).items():
                        tally[key] = tally.get(key, 0) + value
                if op_of is not None:
                    op = op_of(args, result)
                    if op is not None:
                        state.hint = op
                parent = stack[-1] if stack else None
                if not leaf:
                    state.records.append((
                        frame[2], parent[2] if parent else None,
                        name, frame[0], end,
                    ))
                if parent is not None:
                    parent[1] += duration
                else:
                    state.tree["root_s"] += duration
                    self._root_finished(state)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _root_finished(self, state: _ThreadState) -> None:
        merge_totals(state.pending, state.tree)
        state.pending_records.extend(state.records)
        state.tree = _new_totals()
        state.records = []
        op = state.op if state.op is not None else state.hint
        state.hint = None
        if op is None:
            return  # a later call on this thread will name the operation
        with self._lock:
            merge_totals(self.ops.setdefault(op, _new_totals()), state.pending)
            if (
                self.keep_ops is None
                or op in self._kept
                or len(self._kept) < self.keep_ops
            ):
                self._kept.add(op)
                self.records.append((op, state.pending_records))
        state.pending = _new_totals()
        state.pending_records = []

    def span_lines(self) -> list[str]:
        """``spans.jsonl`` lines for the kept operations."""
        with self._lock:
            return render_lines(
                self.records, {op: self.ops[op] for op in sorted(self._kept)}
            )


def render_lines(records: list, ops: dict[str, dict]) -> list[str]:
    """``spans.jsonl``: one line per span record (*records* as in
    :attr:`Recorder.records`) of an operation in *ops*, then one line
    per (operation, span name) with its totals — the only trace leaf
    calls leave."""
    lines = [
        json.dumps({
            "op": op, "id": span_id, "parent": parent,
            "name": name, "start": start, "end": end,
        })
        for op, tree in records
        if op in ops
        for span_id, parent, name, start, end in tree
    ]
    for op, totals in ops.items():
        for name, (calls, total, self_s) in sorted(totals["spans"].items()):
            lines.append(json.dumps({
                "op": op, "totals": name, "calls": calls,
                "total_s": total, "self_s": self_s,
            }))
    return lines


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module.attr`` or ``module.owner.attr``."""

    module: str
    owner: str | None
    attr: str
    span: str
    leaf: bool = False
    counters: Callable | None = None
    op_of: Callable | None = None


def _trade_counters(args, result) -> dict:
    purchased = len(result.best.purchased()) if result.found else 0
    return {
        "trade.found": int(result.found),
        "trade.purchased": purchased,
        "cache.hits": result.cache.hits,
        "cache.misses": result.cache.misses,
        "net.bytes": result.messages.bytes,
        "net.messages": result.messages.messages,
    }


def targets() -> list[Target]:
    """The wrapped calls, by layer (= module).  A function imported by
    name is patched where it is looked up."""
    return [
        # repro.sql
        Target("repro.sql", None, "parse_query", "sql.parse"),
        Target("repro.broker.service", None, "parse_query", "sql.parse"),
        Target("repro.trading.seller", None, "rewrite_query", "sql.rewrite"),
        # repro.optimizer (+ repro.cost, not separable from outside)
        Target(
            "repro.optimizer.dp", "DynamicProgrammingOptimizer", "optimize",
            "optimizer.dp",
            counters=lambda a, r: {"optimizer.enumerated": r.enumerated},
        ),
        # repro.trading.seller
        Target(
            "repro.trading.seller", "SellerAgent", "prepare_offers",
            "seller.prepare_offers",
            counters=lambda a, r: {"seller.offers_made": len(r[0])},
        ),
        # repro.trading.cache
        Target("repro.trading.cache", "OfferCache", "lookup",
               "cache.lookup", leaf=True),
        Target("repro.trading.cache", "OfferCache", "store",
               "cache.store", leaf=True),
        # repro.trading.buyer
        Target(
            "repro.trading.buyer", "BuyerPlanGenerator", "generate",
            "buyer.generate",
            counters=lambda a, r: {
                "buyer.enumerated": r.enumerated,
                "buyer.offers_in": len(a[2]),
            },
        ),
        Target(
            "repro.trading.buyer", "BuyerPredicatesAnalyser", "derive",
            "buyer.derive",
            counters=lambda a, r: {"buyer.derived_queries": len(r)},
        ),
        # repro.trading.protocols
        Target(
            "repro.trading.protocols", "BiddingProtocol", "solicit",
            "protocol.solicit",
            counters=lambda a, r: {"protocol.offers_received": len(r.offers)},
        ),
        Target("repro.trading.protocols", "NegotiationProtocol", "award",
               "protocol.award"),
        # repro.net
        Target("repro.net.simulator", "Network", "send", "net.send",
               leaf=True),
        Target("repro.net.simulator", "Network", "run", "net.run"),
        # repro.trading.trader (the root span of one trade)
        Target("repro.trading.trader", "QueryTrader", "optimize",
               "trade.optimize", counters=_trade_counters),
        # repro.obs (only runs where a repro.obs.Tracer is attached:
        # every broker session by default, no trade_* trade)
        Target(
            "repro.obs.metrics", "RunTelemetry", "from_records",
            "obs.postprocess",
            counters=lambda a, r: {"obs.records": len(a[1])},
        ),
        Target("repro.obs.ledger", "NegotiationLedger", "from_records",
               "obs.postprocess"),
        # repro.broker
        Target("repro.broker.service", "BrokerService", "parse_spec",
               "broker.parse_spec"),
        Target(
            "repro.broker.service", "BrokerService", "submit",
            "broker.submit",
            op_of=lambda a, r: None if r is None else r.session_id,
        ),
        Target(
            "repro.broker.service", "BrokerService", "note_terminal",
            "broker.note_terminal",
            counters=lambda a, r: _session_counters(a[1]),
            op_of=lambda a, r: a[1].session_id,
        ),
        Target(
            "repro.broker.service", "BrokerService", "result_payload",
            "broker.result_payload",
            op_of=lambda a, r: a[1],
        ),
    ]


def _session_counters(session) -> dict:
    """What ``note_terminal`` can read off a terminal broker session."""
    out = {f"broker.state.{session.state}": 1}
    if session.started_at is not None and session.finished_at is not None:
        out["broker.queue_wait_s"] = session.started_at - session.submitted_at
        out["broker.service_s"] = session.finished_at - session.started_at
    return out


@contextmanager
def install(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every target; put the originals back on exit."""
    # Resolve everything before patching anything: a module imported
    # after ``repro.sql.parse_query`` is wrapped would bind the wrapper,
    # and wrapping that again would count the call twice.
    resolved = []
    for target in targets():
        holder = importlib.import_module(target.module)
        if target.owner is not None:
            holder = getattr(holder, target.owner)
        resolved.append((target, holder, vars(holder)[target.attr]))
    try:
        for target, holder, raw in resolved:
            rebind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            wrapped = recorder.wrap(
                raw.__func__ if rebind else raw, target.span,
                leaf=target.leaf, counters=target.counters, op_of=target.op_of,
            )
            setattr(holder, target.attr, rebind(wrapped) if rebind else wrapped)
        yield recorder
    finally:
        for target, holder, raw in resolved:
            setattr(holder, target.attr, raw)
