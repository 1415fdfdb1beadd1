"""Discrete-event network simulation substrate.

The paper evaluates QT in a *simulated* federation of autonomous DBMSs
(its testbed is not public); this package provides the deterministic
discrete-event equivalent: messages experience latency plus
size/bandwidth delay, per-node computation serializes on that node while
distinct nodes work concurrently, and every message/byte is accounted so
the experiments can report exchanged-message counts exactly.
"""

from repro.net.messages import Message, MessageKind
from repro.net.simulator import Network, NetworkStats, Simulator, TimerHandle

__all__ = [
    "Message",
    "MessageKind",
    "Network",
    "NetworkStats",
    "Simulator",
    "TimerHandle",
]
