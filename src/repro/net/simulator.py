"""Deterministic discrete-event simulator with message/compute accounting.

Two layers:

* :class:`Simulator` — a bare event loop: schedule callables at absolute
  simulated times, run until idle.  Ties are broken by insertion order,
  so runs are fully deterministic.  :meth:`Simulator.schedule_cancellable`
  returns a :class:`TimerHandle` (negotiation deadlines use it); cancelled
  timers are lazily discarded when popped, without advancing the clock.
* :class:`Network` — the federation fabric on top: registered node
  handlers, message delivery with latency + size/bandwidth delay,
  per-node compute serialization (a node that accepts work is busy until
  it finishes; concurrent work at *different* nodes overlaps), and
  complete :class:`NetworkStats`.  An optional fault injector (see
  :mod:`repro.faults`) intercepts deliveries; with none installed the
  delivery path is byte-identical to a fault-free fabric.

A *departure* is what one :meth:`Network.send` or
:meth:`Network.broadcast` call puts on the wire: messages of one kind
and size, leaving together.  Without faults they all arrive at the same
instant, so a departure is **one** heap entry carrying its message
list, delivered in order by :meth:`Network._deliver` — a broadcast to
512 sellers costs one event, not 512, and pops exactly where 512
per-message entries scheduled back to back would.  Under a fault
injector every surviving copy of every message is its own entry at its
own instant.  With a tracer attached, the causal stamps
(``mid``/``parent``) are plain attribute writes on each message as it
departs.

A departure can also be a *reply wave* (:meth:`Network.broadcast_mute`):
requests to recipients known to answer each with an empty control
message and no work.  Their handlers are not called; on arrival the
network books each recipient's zero-work compute, records the replies
and schedules one entry per distinct reply instant, whose delivery
hands the requester's callback the list of repliers.  Counts, bytes,
``busy_until`` and every instant are those of the per-message path; a
protocol uses a wave only with no tracer and no fault injector, which
see every message on its own.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.cost.model import CostModel
from repro.net.messages import Message, MessageKind
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["Simulator", "Network", "NetworkStats", "TimerHandle"]

Handler = Callable[["Network", Message], None]


class TimerHandle:
    """Handle of a cancellable timer.

    ``cancel()`` is idempotent and returns whether it took effect: a
    timer that already fired (or was already cancelled) cannot be
    cancelled again.  Cancellation is *lazy* — the heap entry stays put
    and is discarded when popped, costing neither a budget slot nor a
    clock advance.
    """

    __slots__ = ("cancelled", "fired")

    def __init__(self) -> None:
        self.cancelled = False
        self.fired = False

    @property
    def active(self) -> bool:
        return not (self.cancelled or self.fired)

    def cancel(self) -> bool:
        if not self.active:
            return False
        self.cancelled = True
        return True


class Simulator:
    """Minimal deterministic discrete-event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[
            tuple[float, int, Callable[[], None], TimerHandle | None]
        ] = []
        self._seq = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* at ``now + delay`` (delay must be non-negative)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn, None))
        self._seq += 1

    def schedule_cancellable(
        self, delay: float, fn: Callable[[], None]
    ) -> TimerHandle:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        handle = TimerHandle()
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn, handle))
        self._seq += 1
        return handle

    def schedule_at(
        self, when: float, fn: Callable[[], None], allow_past: bool = False
    ) -> None:
        """Run *fn* at absolute time *when*.

        Scheduling strictly before ``now`` is a bug in the caller's time
        arithmetic and raises unless ``allow_past=True`` is passed, in
        which case the event is clamped to ``now`` (the historical
        behavior, which silently hid such bugs).  Clamped events fire in
        insertion order: each lands at ``(now, next seq)``, so two past
        times scheduled in sequence fire in the order they were
        scheduled, regardless of which claimed the earlier time.
        """
        if when < self.now and not allow_past:
            raise ValueError(
                f"schedule_at({when!r}) is in the past (now={self.now!r}); "
                "pass allow_past=True to clamp to now"
            )
        heapq.heappush(self._queue, (max(when, self.now), self._seq, fn, None))
        self._seq += 1

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Process events in time order until the queue drains.

        Raises ``RuntimeError`` once *max_events* events have been
        processed and more remain — the budget is checked before each
        handler runs, so at most ``max_events`` handlers ever execute.
        Cancelled timers are skipped without charging the budget or
        advancing the clock.  The budget counts heap entries: a
        :class:`Network` departure that delivers a whole fanout is one
        event, however many recipients it reaches.
        """
        processed = 0
        while self._queue:
            when, _seq, fn, handle = heapq.heappop(self._queue)
            if handle is not None and handle.cancelled:
                continue
            if processed >= max_events:
                raise RuntimeError("simulation did not quiesce")
            self.now = max(self.now, when)
            if handle is not None:
                handle.fired = True
            fn()
            processed += 1
        return self.now

    def pending_events(self) -> int:
        """Events that will actually fire.

        Cancelled timers are deleted *lazily* — their heap entries stay
        queued until popped — so ``len(self._queue)`` over-counts after
        any cancellation.  This accessor filters them out; it is what
        queue-size reporting (e.g. the tracer's ``sim.pending_events``
        gauge) must use.
        """
        return sum(
            1
            for _when, _seq, _fn, handle in self._queue
            if handle is None or not handle.cancelled
        )

    @property
    def pending(self) -> int:
        return self.pending_events()


@dataclass
class NetworkStats:
    """Counters the experiments report.

    ``dropped``/``duplicated``/``retried`` only move when a fault
    injector (or a retrying protocol) is active; a fault-free run keeps
    them at zero.
    """

    messages: int = 0
    bytes: int = 0
    by_kind: dict[MessageKind, int] = field(default_factory=dict)
    dropped: int = 0
    duplicated: int = 0
    retried: int = 0

    def record(self, kind: MessageKind, size: int, count: int = 1) -> None:
        """Count *count* messages of *kind*, *size* bytes each."""
        self.messages += count
        self.bytes += size * count
        self.by_kind[kind] = self.by_kind.get(kind, 0) + count

    def count(self, kind: MessageKind) -> int:
        return self.by_kind.get(kind, 0)

    @property
    def by_type(self) -> "Counter[str]":
        """Per-message-type breakdown keyed by kind *name* (``"rfb"``,
        ``"offer"``, ...), as a :class:`collections.Counter` so absent
        types read as zero.  Derived from the same ``record`` path as
        the totals, so it always sums to :attr:`messages`.
        """
        return Counter(
            {kind.value: count for kind, count in self.by_kind.items()}
        )

    def describe_types(self) -> str:
        """``"rfb=16 offer=14 ..."`` — render of the by-type breakdown."""
        return " ".join(
            f"{name}={count}" for name, count in sorted(self.by_type.items())
        )

    def snapshot(self) -> "NetworkStats":
        return NetworkStats(
            self.messages,
            self.bytes,
            dict(self.by_kind),
            self.dropped,
            self.duplicated,
            self.retried,
        )

    def delta_since(self, earlier: "NetworkStats") -> "NetworkStats":
        by_kind = {
            kind: count - earlier.by_kind.get(kind, 0)
            for kind, count in self.by_kind.items()
        }
        return NetworkStats(
            self.messages - earlier.messages,
            self.bytes - earlier.bytes,
            {k: v for k, v in by_kind.items() if v},
            self.dropped - earlier.dropped,
            self.duplicated - earlier.duplicated,
            self.retried - earlier.retried,
        )


class Network:
    """Message fabric + per-node compute serialization.

    Per-node compute: :meth:`compute` books *seconds* of work on a node,
    starting no earlier than the node's current ``busy_until``, and
    returns the completion time.  Handlers use it to model local
    optimization/pricing effort; replies scheduled at the returned time
    therefore reflect queueing at a busy seller while independent sellers
    overlap — the source of QT's flat scaling in federation size.

    Fault interception: :meth:`install_faults` plugs a
    :class:`~repro.faults.injector.FaultInjector` into the delivery path.
    Every message is still *recorded* (it left the sender), but the
    injector decides its delivery times — zero, one, or several —
    modelling drops, duplicates, delay spikes, and crashed recipients.
    :meth:`send` and :meth:`broadcast` share one dispatch and one
    delivery method with or without an injector; only the number of
    heap entries per departure differs.
    """

    def __init__(self, cost_model: CostModel | None = None):
        self.cost_model = cost_model or CostModel()
        self.sim = Simulator()
        self.stats = NetworkStats()
        self.fault_injector: "FaultInjector | None" = None
        self.tracer: Tracer = NULL_TRACER
        #: Optional offer-fact sink, reached like the tracer (the broker's
        #: live :class:`~repro.obs.live.registry.TradeFacts`).
        self.facts = None
        self._handlers: dict[str, Handler] = {}
        self._busy_until: dict[str, float] = {}
        # Monotone per-session Lamport counter for causal message ids.
        # Only consumed when a tracer is attached; sends happen inside
        # handler bodies whose order the simulator pins down (the
        # (when, seq) tie-break), so assigned ids are deterministic.
        self._next_causal_id = 0
        # Undelivered messages riding in a shared heap entry beyond its
        # first: added to the clock's entry count, the pending gauge
        # still counts deliveries, as when every message had an entry.
        self._riders = 0

    # -- membership --------------------------------------------------------
    def register(
        self, node: str, handler: Handler, *, replace: bool = False
    ) -> None:
        """Deliver *node*'s messages to *handler*.

        Registering a node twice raises ``ValueError`` unless
        ``replace=True``, which swaps the handler in place.
        """
        if not replace and node in self._handlers:
            raise ValueError(f"node {node!r} already registered")
        self._handlers[node] = handler

    def unregister(self, node: str) -> None:
        self._handlers.pop(node, None)

    def __contains__(self, node: object) -> bool:
        """Whether *node* has a handler (``node in network``)."""
        return node in self._handlers

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._handlers))

    # -- faults ------------------------------------------------------------
    def install_faults(self, injector: "FaultInjector | None") -> None:
        """Install (or remove, with ``None``) the fault injector."""
        self.fault_injector = injector

    # -- observability ----------------------------------------------------
    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Attach a tracer (or detach with ``None``).

        The tracer's simulated clock is bound to this network's
        simulator; the :class:`~repro.trading.trader.QueryTrader`
        propagates the same tracer into every layer it drives.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_sim(self.sim)

    # -- causality --------------------------------------------------------
    def next_causal_id(self) -> int:
        """Mint the next causal id (messages, timeouts, re-issues)."""
        mid = self._next_causal_id
        self._next_causal_id = mid + 1
        return mid

    # -- time ------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def busy_until(self, node: str) -> float:
        return self._busy_until.get(node, 0.0)

    def compute(self, node: str, seconds: float) -> float:
        """Book *seconds* of serialized work at *node*; returns finish time."""
        if seconds < 0:
            raise ValueError("compute time cannot be negative")
        start = max(self.now, self.busy_until(node))
        finish = start + seconds
        self._busy_until[node] = finish
        return finish

    # -- messaging -----------------------------------------------------------
    def _size(self, size_bytes: int | None) -> int:
        return (
            size_bytes
            if size_bytes is not None
            else self.cost_model.network.control_message_bytes
        )

    def _transit(self, size: int) -> float:
        network = self.cost_model.network
        return network.latency + size / network.bandwidth

    def message_delay(self, message: Message) -> float:
        return self._transit(self._size(message.size_bytes))

    def send(self, message: Message, earliest: float | None = None) -> None:
        """Deliver *message* to its recipient's handler.

        *earliest* (absolute simulated time) delays the send until e.g.
        the sender finished computing its reply; delivery adds the
        network delay on top.
        """
        if message.recipient not in self._handlers:
            raise KeyError(f"unknown recipient {message.recipient!r}")
        self._dispatch((message,), self._size(message.size_bytes), earliest)

    def broadcast(
        self,
        sender: str,
        recipients: Iterable[str],
        kind: MessageKind,
        payload,
        *,
        size_bytes: int | None = None,
        earliest: float | None = None,
    ) -> int:
        """Send *payload* to every recipient but *sender*, as one departure.

        Equivalent to one :meth:`send` per recipient, in order, except
        that every recipient is checked before anything is recorded (an
        unknown one raises ``KeyError`` with the stats untouched) and
        that the fanout is one heap entry.  Returns how many were sent.
        """
        targets = [node for node in recipients if node != sender]
        handlers = self._handlers
        for node in targets:
            if node not in handlers:
                raise KeyError(f"unknown recipient {node!r}")
        if targets:
            self._dispatch(
                [
                    Message(kind, sender, node, payload, size_bytes)
                    for node in targets
                ],
                self._size(size_bytes),
                earliest,
            )
        return len(targets)

    def broadcast_mute(
        self,
        recipients: Sequence[str],
        kind: MessageKind,
        reply_kind: MessageKind,
        on_replies: Callable[[list[str]], None],
        *,
        size_bytes: int | None = None,
    ) -> None:
        """Send a *kind* message to *recipients* known to answer it with
        an empty *reply_kind* control message and no work, as one reply
        wave: no message object is built and no handler is called, so
        the payload is not needed.

        Counts, bytes, ``busy_until`` and instants are those of
        :meth:`broadcast` followed by each recipient's handler booking
        zero work and sending its reply: the requests depart as one
        entry; on their arrival each recipient books a zero-work
        :meth:`compute` and its reply is recorded and departs at
        ``max(now, busy_until)``.  The replies arriving at one instant
        are one entry, whose delivery calls ``on_replies(senders)`` in
        recipient order in place of the requester's handler.  For a
        network with no tracer and no fault injector only, which see
        every message on its own (nor does the tracer's pending-events
        gauge count a wave's riders).
        """
        handlers = self._handlers
        for node in recipients:
            if node not in handlers:
                raise KeyError(f"unknown recipient {node!r}")
        if not recipients:
            return
        size = self._size(size_bytes)
        self.stats.record(kind, size, len(recipients))
        self.sim.schedule_at(
            self.now + self._transit(size),
            partial(self._answer_mute, recipients, reply_kind, on_replies),
        )

    def _answer_mute(
        self,
        recipients: Sequence[str],
        reply_kind: MessageKind,
        on_replies: Callable[[list[str]], None],
    ) -> None:
        """The arrival of a :meth:`broadcast_mute` wave: book, record
        and schedule every recipient's empty reply."""
        size = self._size(None)
        self.stats.record(reply_kind, size, len(recipients))
        delay = self._transit(size)
        now = self.now
        busy = self._busy_until
        by_instant: dict[float, list[str]] = {}
        for node in recipients:
            # ``compute(node, 0.0)``, inlined: a wave is ~1,000 of them.
            start = busy[node] = max(now, busy.get(node, 0.0))
            by_instant.setdefault(start + delay, []).append(node)
        for when, senders in by_instant.items():
            self.sim.schedule_at(when, partial(on_replies, senders))

    def _dispatch(
        self,
        messages: Sequence[Message],
        size: int,
        earliest: float | None,
    ) -> None:
        """Record and schedule one departure: *messages* of one kind,
        *size* bytes each, leaving no earlier than *earliest*."""
        self.stats.record(messages[0].kind, size, len(messages))
        now = self.now
        depart = now if earliest is None else max(now, earliest)
        tracer = self.tracer
        injector = self.fault_injector
        if tracer.enabled or injector is not None:
            # Message by message: stamping every message before
            # intercepting any would reorder a traced fault run's
            # records.
            for message in messages:
                if tracer.enabled:
                    # A fresh Lamport id plus the causal parent — the
                    # message (or timeout) whose handler is sending.
                    message.mid = self.next_causal_id()
                    message.parent = tracer.cause
                    tracer.event(
                        "msg.send", "net", site=message.sender,
                        **message.trace_args(size),
                    )
                if injector is None:
                    continue
                # The injector hands back each surviving copy's *transit
                # delay*, scheduled at ``depart + lat`` and stamped as
                # ``lat`` on the delivery.  Copies are never merged into
                # shared entries: two copies can share an instant while
                # a later-scheduled entry sorts between them.
                for copy, lat in enumerate(
                    injector.intercept(self, message, depart)
                ):
                    self.sim.schedule_at(
                        depart + lat,
                        partial(self._deliver, (message,), copy, lat),
                    )
        if injector is None:
            # Same kind, same size, same departure: every message
            # arrives at the same instant, so one entry carries them
            # all.  Consecutive per-message entries at one instant
            # would have popped as one contiguous block anyway.
            delay = self._transit(size)
            self._riders += len(messages) - 1
            self.sim.schedule_at(
                depart + delay, partial(self._deliver, messages, 0, delay)
            )

    def _deliver(
        self, messages: Sequence[Message], copy: int, lat: float
    ) -> None:
        """Hand every message of one heap entry to its recipient's
        handler, in order; a recipient unregistered since the send is
        skipped.  ``lat`` is the transit delay the entry experienced
        (cost model + seeded fault draws), stamped on each delivery's
        ``msg.deliver`` trace event."""
        self._riders -= len(messages) - 1
        handlers = self._handlers
        tracer = self.tracer
        if not tracer.enabled:
            for message in messages:
                handler = handlers.get(message.recipient)
                if handler is not None:
                    handler(self, message)
            return
        for message in messages:
            tracer.event(
                "msg.deliver", "net", site=message.recipient,
                kind=message.kind.value, sender=message.sender,
                mid=message.mid, copy=copy, lat=lat,
            )
            handler = handlers.get(message.recipient)
            if handler is None:
                continue
            # Every send issued from inside the handler is causally a
            # child of this delivery; restore the previous cause so
            # nested synchronous deliveries (there are none today, but
            # the invariant is cheap) unwind correctly.
            prior = tracer.cause
            tracer.cause = message.mid
            try:
                handler(self, message)
            finally:
                tracer.cause = prior

    def run(self) -> float:
        if self.tracer.enabled:
            # Sampled with the accurate accessor: cancelled (lazily
            # deleted) timer entries are excluded from the gauge, and
            # each message of a shared delivery entry counts as one.
            pending = self.sim.pending_events() + self._riders
            self.tracer.gauge("sim.pending_events", pending)
        return self.sim.run_until_idle()
