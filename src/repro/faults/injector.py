"""The fault injector: turns a :class:`~repro.faults.plan.FaultPlan`
into message-level behavior at the network's delivery hook.

Determinism contract
--------------------

* All randomness comes from one private ``random.Random(plan.seed)``;
  since :class:`~repro.net.simulator.Network` sends are already fully
  ordered, the fault sequence is a pure function of (plan, workload).
* A draw happens **only** when the corresponding rate is non-zero, so a
  link with all-zero rates consumes no randomness — installing a null
  plan replays the fault-free run byte-for-byte (delivery times, event
  ordering, and stats all unchanged; the zero-fault equivalence tests
  pin this).
* Draw order per message is fixed: drop, then delay spike, then
  duplicate (each skipped when its rate is zero).

Crash semantics
---------------

A site that is down neither sends nor receives: a message departing
while its sender is down is dropped at the source; a delivery whose
recipient is down at the arrival instant is dropped at the door (each
copy of a duplicated message is checked at its own arrival time, so a
recovering site can catch the late copy).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.plan import FaultPlan
from repro.net.messages import Message
from repro.net.simulator import Network

__all__ = ["FaultInjector", "InjectionLog"]


@dataclass
class InjectionLog:
    """What the injector did, for reporting and debugging."""

    intercepted: int = 0
    dropped_link: int = 0
    dropped_sender_down: int = 0
    dropped_recipient_down: int = 0
    duplicated: int = 0
    delay_spikes: int = 0

    @property
    def dropped(self) -> int:
        return (
            self.dropped_link
            + self.dropped_sender_down
            + self.dropped_recipient_down
        )


class FaultInjector:
    """Seeded, deterministic interception of network deliveries.

    Install with :meth:`Network.install_faults`; the network then routes
    every message it sends through :meth:`intercept` (a broadcast's
    recipients one by one, in order), which returns the transit
    delays of the surviving copies (an empty list means the message was
    lost).  The network schedules each copy at ``depart + delay`` and
    stamps that ``lat`` on the ``msg.deliver`` trace event; a clean
    link's delay is the exact :meth:`Network.message_delay` value the
    fault-free path stamps, keeping a null plan byte-invisible in the
    trace.
    Aggregate drop/duplicate counters are mirrored into the network's
    :class:`~repro.net.simulator.NetworkStats` so trading results
    report them alongside message counts.
    """

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self.rng = random.Random(self.plan.seed)
        self.log = InjectionLog()

    # -- site liveness -----------------------------------------------------
    def is_down(self, node: str, t: float) -> bool:
        return self.plan.is_down(node, t)

    def down_during(self, node: str, start: float, end: float) -> bool:
        return self.plan.down_during(node, start, end)

    # -- the network hook --------------------------------------------------
    def intercept(
        self, network: Network, message: Message, depart: float
    ) -> list[float]:
        """Transit delays of *message*'s surviving copies."""
        tracer = network.tracer
        self.log.intercepted += 1
        if self.is_down(message.sender, depart):
            self.log.dropped_sender_down += 1
            network.stats.dropped += 1
            tracer.event(
                "fault.drop", "fault", site=message.sender,
                reason="sender_down", kind=message.kind.value,
                mid=message.mid,
            )
            return []
        link = self.plan.link_for(message.sender, message.recipient)
        if link.drop_rate > 0 and self.rng.random() < link.drop_rate:
            self.log.dropped_link += 1
            network.stats.dropped += 1
            tracer.event(
                "fault.drop", "fault", site=message.recipient,
                reason="link", kind=message.kind.value,
                mid=message.mid,
            )
            return []
        delay = network.message_delay(message)
        if link.delay_spike_rate > 0 and self.rng.random() < link.delay_spike_rate:
            self.log.delay_spikes += 1
            delay += link.delay_spike_seconds * self.rng.uniform(1.0, 2.0)
            tracer.event(
                "fault.delay_spike", "fault", site=message.recipient,
                kind=message.kind.value, mid=message.mid,
            )
        delays = [delay]
        if link.duplicate_rate > 0 and self.rng.random() < link.duplicate_rate:
            self.log.duplicated += 1
            network.stats.duplicated += 1
            tracer.event(
                "fault.duplicate", "fault", site=message.recipient,
                kind=message.kind.value, mid=message.mid,
            )
            # The duplicate takes its own (slower) trip over the link.
            delays.append(
                delay + network.message_delay(message) * self.rng.uniform(0.5, 1.5)
            )
        delivered = []
        for lat in delays:
            if self.is_down(message.recipient, depart + lat):
                self.log.dropped_recipient_down += 1
                network.stats.dropped += 1
                tracer.event(
                    "fault.drop", "fault", site=message.recipient,
                    reason="recipient_down", kind=message.kind.value,
                    mid=message.mid,
                )
                continue
            delivered.append(lat)
        return delivered
