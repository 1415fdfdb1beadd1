"""Unit tests for the discrete-event network simulator."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cost import CostModel, NetworkParameters
from repro.faults import CrashWindow, FaultInjector, FaultPlan
from repro.net import Message, MessageKind, Network, Simulator
from repro.obs.export import jsonl_lines
from repro.obs.tracer import Tracer


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run_until_idle()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run_until_idle()
        assert log == [1, 2]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run_until_idle()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_runaway_detection(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            sim.run_until_idle(max_events=100)

    def test_budget_exactly_covers_queue(self):
        sim = Simulator()
        log = []
        for _ in range(3):
            sim.schedule(0.0, lambda: log.append(1))
        sim.run_until_idle(max_events=3)
        assert len(log) == 3

    def test_budget_checked_before_each_handler(self):
        # Regression: the budget used to be checked only after a handler
        # ran, so max_events + 1 handlers could execute before the error.
        sim = Simulator()
        log = []
        for _ in range(5):
            sim.schedule(0.0, lambda: log.append(1))
        with pytest.raises(RuntimeError):
            sim.run_until_idle(max_events=3)
        assert len(log) == 3


class TestNetwork:
    @pytest.fixture
    def net(self):
        model = CostModel(
            NetworkParameters(
                latency=0.01, bandwidth=1e6, control_message_bytes=1000
            )
        )
        return Network(model)

    def test_message_delivery_and_stats(self, net):
        received = []
        net.register("a", lambda n, m: None)
        net.register("b", lambda n, m: received.append(m))
        net.send(Message(MessageKind.RFB, "a", "b", "hello"))
        net.run()
        assert len(received) == 1
        assert received[0].payload == "hello"
        assert net.stats.messages == 1
        assert net.stats.count(MessageKind.RFB) == 1
        assert net.stats.bytes == 1000
        assert net.now == pytest.approx(0.011)

    def test_unknown_recipient(self, net):
        with pytest.raises(KeyError):
            net.send(Message(MessageKind.RFB, "a", "zzz", None))

    def test_duplicate_registration_rejected(self, net):
        net.register("a", lambda n, m: None)
        with pytest.raises(ValueError):
            net.register("a", lambda n, m: None)

    def test_compute_serializes_per_node(self, net):
        t1 = net.compute("a", 5.0)
        t2 = net.compute("a", 5.0)
        assert (t1, t2) == (5.0, 10.0)

    def test_compute_parallel_across_nodes(self, net):
        assert net.compute("a", 5.0) == 5.0
        assert net.compute("b", 5.0) == 5.0

    def test_negative_compute_rejected(self, net):
        with pytest.raises(ValueError):
            net.compute("a", -1)

    def test_earliest_defers_send(self, net):
        received_at = []
        net.register("a", lambda n, m: None)
        net.register("b", lambda n, m: received_at.append(n.now))
        net.send(Message(MessageKind.OFFER, "a", "b", None), earliest=5.0)
        net.run()
        assert received_at[0] == pytest.approx(5.011)

    def test_broadcast_skips_sender(self, net):
        seen = []
        for node in ("a", "b", "c"):
            net.register(node, lambda n, m: seen.append(m.recipient))
        count = net.broadcast("a", ["a", "b", "c"], MessageKind.RFB, None)
        net.run()
        assert count == 2
        assert sorted(seen) == ["b", "c"]

    def test_size_drives_delay(self, net):
        times = {}
        net.register("a", lambda n, m: None)
        net.register("b", lambda n, m: times.setdefault(m.payload, n.now))
        net.send(Message(MessageKind.DATA, "a", "b", "big", size_bytes=10**6))
        net.send(Message(MessageKind.DATA, "a", "b", "small", size_bytes=10))
        net.run()
        assert times["small"] < times["big"]

    def test_stats_delta(self, net):
        net.register("a", lambda n, m: None)
        net.register("b", lambda n, m: None)
        net.send(Message(MessageKind.RFB, "a", "b", None))
        net.run()
        snap = net.stats.snapshot()
        net.send(Message(MessageKind.OFFER, "b", "a", None))
        net.run()
        delta = net.stats.delta_since(snap)
        assert delta.messages == 1
        assert delta.count(MessageKind.OFFER) == 1
        assert delta.count(MessageKind.RFB) == 0

    def test_reply_from_handler(self, net):
        """A seller-style handler replying after computing."""
        replies = []

        def seller(n, m):
            done = n.compute("b", 2.0)
            n.send(
                Message(MessageKind.OFFER, "b", "a", "offer"), earliest=done
            )

        net.register("a", lambda n, m: replies.append(n.now))
        net.register("b", seller)
        net.send(Message(MessageKind.RFB, "a", "b", None))
        net.run()
        # 0.011 delivery, compute finishes at 2.011, + 0.011 reply
        assert replies[0] == pytest.approx(2.022, abs=1e-3)

    def test_unregister(self, net):
        net.register("a", lambda n, m: None)
        net.unregister("a")
        net.register("a", lambda n, m: None)  # no error
        assert "a" in net.nodes

    def test_register_replace_and_membership(self, net):
        seen = []
        assert "a" not in net
        net.register("a", lambda n, m: seen.append("old"))
        assert "a" in net
        net.register("a", lambda n, m: seen.append("new"), replace=True)
        net.register("b", lambda n, m: None)
        net.send(Message(MessageKind.RFB, "b", "a", None))
        net.run()
        assert seen == ["new"]
        assert net.nodes == ("a", "b")

    def test_broadcast_is_one_departure(self, net):
        for node in ("a", "b", "c", "d"):
            net.register(node, lambda n, m: None)
        count = net.broadcast(
            "a", ["b", "c", "d"], MessageKind.RFB, None, size_bytes=500
        )
        assert count == 3
        assert net.sim.pending == 1  # one heap entry for the fanout
        assert net.stats.messages == 3
        assert net.stats.bytes == 1500
        assert net.stats.by_kind == {MessageKind.RFB: 3}

    def test_broadcast_unknown_recipient_leaves_stats_untouched(self, net):
        net.register("a", lambda n, m: None)
        net.register("b", lambda n, m: None)
        with pytest.raises(KeyError):
            net.broadcast("a", ["b", "zzz"], MessageKind.RFB, None)
        assert net.stats == type(net.stats)()
        assert net.sim.pending == 0

    def test_endless_rebroadcast_exhausts_event_budget(self, net):
        def echo(n, m):
            n.broadcast(m.recipient, ["a", "b", "c"], MessageKind.DATA, None)

        for node in ("a", "b", "c"):
            net.register(node, echo)
        net.broadcast("a", ["b", "c"], MessageKind.DATA, None)
        with pytest.raises(RuntimeError, match="did not quiesce"):
            net.sim.run_until_idle(max_events=50)


class TestCancellableTimers:
    def test_cancel_before_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule_cancellable(1.0, lambda: log.append("timer"))
        sim.schedule(2.0, lambda: log.append("later"))
        assert handle.active
        assert handle.cancel() is True
        assert not handle.active
        sim.run_until_idle()
        assert log == ["later"]
        # A cancelled entry neither fires nor advances the clock to its
        # own deadline on pop — time is driven by live events only.
        assert sim.now == 2.0

    def test_cancelled_timer_alone_leaves_clock_untouched(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(5.0, lambda: None)
        handle.cancel()
        sim.run_until_idle()
        assert sim.now == 0.0
        assert sim.pending == 0

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        log = []
        handle = sim.schedule_cancellable(1.0, lambda: log.append("x"))
        sim.run_until_idle()
        assert log == ["x"]
        assert handle.fired and not handle.active
        assert handle.cancel() is False

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        sim.run_until_idle()
        assert not handle.fired

    def test_cancelled_entries_do_not_consume_event_budget(self):
        sim = Simulator()
        log = []
        handles = [
            sim.schedule_cancellable(1.0, lambda: log.append(1))
            for _ in range(10)
        ]
        for handle in handles:
            handle.cancel()
        sim.schedule(1.0, lambda: log.append("live"))
        sim.run_until_idle(max_events=1)  # only the live event counts
        assert log == ["live"]

    def test_tie_break_determinism_with_interleaved_cancels(self):
        # Cancelling some of several same-time events must not disturb
        # the insertion ordering of the survivors.
        sim = Simulator()
        log = []
        handles = {}
        for i in range(6):
            handles[i] = sim.schedule_cancellable(
                1.0, lambda i=i: log.append(i)
            )
        for i in (0, 3, 4):
            handles[i].cancel()
        sim.run_until_idle()
        assert log == [1, 2, 5]

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule_cancellable(1.0, lambda: None)
        drop = sim.schedule_cancellable(1.0, lambda: None)
        assert sim.pending == 2
        drop.cancel()
        assert sim.pending == 1
        sim.run_until_idle()
        assert keep.fired and not drop.fired


class TestScheduleAtPastGuard:
    def test_past_deadline_raises(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_past_deadline_allowed_when_opted_in(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run_until_idle()
        log = []
        sim.schedule_at(1.0, lambda: log.append(sim.now), allow_past=True)
        sim.run_until_idle()
        # The event fires "now", it cannot rewind the clock.
        assert log == [2.0]
        assert sim.now == 2.0

    def test_present_deadline_is_fine(self):
        sim = Simulator()
        log = []
        sim.schedule_at(0.0, lambda: log.append("now"))
        sim.run_until_idle()
        assert log == ["now"]

    def test_clamped_past_events_fire_in_insertion_order(self):
        # Several already-due deadlines clamp to "now" and therefore
        # share a fire time; the simulator's tie-break (insertion
        # order) must apply to them exactly as to ordinary ties.
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run_until_idle()
        log = []
        sim.schedule_at(1.0, lambda: log.append("first"), allow_past=True)
        sim.schedule_at(2.5, lambda: log.append("second"), allow_past=True)
        sim.schedule_at(0.5, lambda: log.append("third"), allow_past=True)
        sim.run_until_idle()
        assert log == ["first", "second", "third"]
        assert sim.now == 3.0

    def test_event_fires_at_the_exact_instant_asked_for(self):
        # now + (when - now) is one ulp below *when* for this pair.
        now, when = 0.0009514701476989254, 0.07341794488517707
        assert now + (when - now) != when
        sim = Simulator()
        sim.schedule(now, lambda: None)
        sim.run_until_idle()
        log = []
        sim.schedule_at(when, lambda: log.append(sim.now))
        sim.run_until_idle()
        assert sim.now == when and log == [when]


# ----------------------------------------------------------------------
# Broadcast vs a per-recipient send loop: one departure, same behaviour
# ----------------------------------------------------------------------
DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NODES = ("n0", "n1", "n2", "n3", "n4")
ROLES = ("sink", "reply", "relay", "unregister")
FANOUT_KINDS = (MessageKind.RFB, MessageKind.STATS_REQUEST, MessageKind.REJECT)


def loop_fanout(net, sender, recipients, kind, payload, size_bytes, earliest):
    """A fanout as one ``send`` per recipient, in order."""
    count = 0
    for node in recipients:
        if node == sender:
            continue
        net.send(
            Message(kind, sender, node, payload, size_bytes),
            earliest=earliest,
        )
        count += 1
    return count


def broadcast_fanout(net, sender, recipients, kind, payload, size_bytes, earliest):
    return net.broadcast(
        sender, recipients, kind, payload,
        size_bytes=size_bytes, earliest=earliest,
    )


_sizes = st.one_of(st.none(), st.integers(1, 10**6))
_times = st.floats(0.0, 0.05, allow_nan=False)


@st.composite
def _fault_plans(draw):
    choice = draw(st.sampled_from(("none", "null", "faulty")))
    if choice == "none":
        return None
    if choice == "null":
        return FaultPlan(seed=draw(st.integers(0, 99)))
    crashes = {}
    for node in draw(st.lists(st.sampled_from(NODES), max_size=2, unique=True)):
        crash_at = draw(_times)
        length = draw(st.one_of(st.none(), st.floats(0.001, 0.05)))
        crashes[node] = (
            CrashWindow(crash_at, None if length is None else crash_at + length),
        )
    return FaultPlan.uniform(
        drop_rate=draw(st.floats(0.0, 0.4)),
        duplicate_rate=draw(st.floats(0.0, 0.5)),
        delay_spike_rate=draw(st.floats(0.0, 0.5)),
        delay_spike_seconds=draw(_times),
        crashes=crashes,
        seed=draw(st.integers(0, 99)),
    )


@st.composite
def _scenarios(draw):
    return {
        "roles": {node: draw(st.sampled_from(ROLES)) for node in NODES},
        "work": {node: draw(_times) for node in NODES},
        "victims": {node: draw(st.sampled_from(NODES)) for node in NODES},
        "relay_to": {
            node: draw(st.lists(st.sampled_from(NODES), max_size=5))
            for node in NODES
        },
        "relay_size": draw(_sizes),
        "fanouts": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(NODES),
                    st.lists(st.sampled_from(NODES), max_size=7),
                    st.sampled_from(FANOUT_KINDS),
                    _sizes,
                    st.one_of(st.none(), _times),
                ),
                min_size=1,
                max_size=4,
            )
        ),
        "traced": draw(st.booleans()),
        "plan": draw(_fault_plans()),
    }


def _run_twin(scenario, fanout):
    """Drive one network through *scenario*, fanning out with *fanout*;
    returns everything observable about the run."""
    net = Network(
        CostModel(
            NetworkParameters(
                latency=0.01, bandwidth=1e6, control_message_bytes=1000
            )
        )
    )
    tracer = Tracer() if scenario["traced"] else None
    net.attach_tracer(tracer)
    injector = None
    if scenario["plan"] is not None:
        injector = FaultInjector(scenario["plan"])
        net.install_faults(injector)
    log = []
    seen: dict[tuple, int] = {}
    counts = []

    def handler(n, m):
        me = m.recipient
        key = (m.payload, me, m.mid)
        seen[key] = seen.get(key, 0) + 1
        log.append(
            (n.now.hex(), me, m.kind.value, m.payload, m.mid, m.parent,
             seen[key])
        )
        role = scenario["roles"][me]
        if role == "reply" and m.kind is MessageKind.RFB and m.sender in n:
            done = n.compute(me, scenario["work"][me])
            n.send(
                Message(MessageKind.OFFER, me, m.sender, f"{m.payload}<{me}"),
                earliest=done,
            )
        elif role == "relay" and m.kind is MessageKind.STATS_REQUEST:
            done = n.compute(me, scenario["work"][me])
            targets = [node for node in scenario["relay_to"][me] if node in n]
            counts.append(
                fanout(
                    n, me, targets, MessageKind.DATA, f"{m.payload}>{me}",
                    scenario["relay_size"], done,
                )
            )
        elif role == "unregister":
            n.unregister(scenario["victims"][me])

    for node in NODES:
        net.register(node, handler)
    for i, (sender, recipients, kind, size, earliest) in enumerate(
        scenario["fanouts"]
    ):
        counts.append(fanout(net, sender, recipients, kind, f"f{i}", size, earliest))
    net.run()
    stats = net.stats
    return {
        "log": log,
        "counts": counts,
        "now": net.now.hex(),
        "stats": (
            stats.messages, stats.bytes, list(stats.by_kind.items()),
            stats.dropped, stats.duplicated, stats.retried,
        ),
        "injections": None if injector is None else injector.log,
        "jsonl": (
            None
            if tracer is None
            else "\n".join(jsonl_lines(tracer.records)).encode()
        ),
    }


class TestBroadcastDifferential:
    """``broadcast`` behaves exactly like the per-recipient ``send`` loop
    it replaced: same deliveries at the same instants in the same order,
    same stats, same fault draws, same causal stamps and trace bytes."""

    @given(scenario=_scenarios())
    @DIFFERENTIAL
    def test_broadcast_equals_send_loop(self, scenario):
        expected = _run_twin(scenario, loop_fanout)
        assert _run_twin(scenario, broadcast_fanout) == expected

    def test_differential_reaches_every_path(self):
        # A hand-built scenario that exercises replies, relays, an
        # unregistration mid-fanout and every fault kind, so the
        # property above is known to compare non-trivial runs.
        scenario = {
            "roles": {"n0": "sink", "n1": "reply", "n2": "relay",
                      "n3": "unregister", "n4": "reply"},
            "work": dict.fromkeys(NODES, 0.002),
            "victims": dict.fromkeys(NODES, "n4"),
            "relay_to": dict.fromkeys(NODES, ["n0", "n1", "n2", "n4"]),
            "relay_size": None,
            "fanouts": [
                ("n0", ["n0", "n1", "n3", "n4", "n2"], MessageKind.RFB,
                 None, None),
                ("n0", ["n2", "n1"], MessageKind.STATS_REQUEST, 2000, 0.01),
            ],
            "traced": True,
            "plan": FaultPlan.uniform(
                drop_rate=0.2, duplicate_rate=0.5, delay_spike_rate=0.3,
                delay_spike_seconds=0.01,
                crashes={"n1": (CrashWindow(0.02, 0.03),)}, seed=3,
            ),
        }
        expected = _run_twin(scenario, loop_fanout)
        assert _run_twin(scenario, broadcast_fanout) == expected
        assert expected["counts"][:2] == [4, 2]
        assert expected["injections"].intercepted > 6
        assert expected["jsonl"]
        untraced = dict(scenario, traced=False, plan=None)
        expected = _run_twin(untraced, loop_fanout)
        assert _run_twin(untraced, broadcast_fanout) == expected
        kinds = {entry[2] for entry in expected["log"]}
        assert {"rfb", "offer", "stats_request", "data"} <= kinds
