"""Message vocabulary of the trading negotiation protocols."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["MessageKind", "Message", "NO_CAUSE"]


class MessageKind(Enum):
    """The message types exchanged during query trading.

    ``RFB``/``OFFER``/``AWARD`` implement bidding (the paper's default
    protocol); ``COUNTER_OFFER``/``ACCEPT``/``REJECT`` support bargaining;
    ``STATS_REQUEST``/``STATS_RESPONSE`` model the catalog/statistics
    synchronization that *traditional* distributed optimizers require
    before they can optimize anything (QT needs none).
    """

    RFB = "rfb"
    OFFER = "offer"
    NO_OFFER = "no_offer"
    AWARD = "award"
    REJECT = "reject"
    VOID = "void"  # buyer rescinds an awarded contract (seller crashed)
    COUNTER_OFFER = "counter_offer"
    ACCEPT = "accept"
    STATS_REQUEST = "stats_request"
    STATS_RESPONSE = "stats_response"
    DATA = "data"


#: Causal ids of unstamped messages (tracing disabled) and of root
#: messages with no causal parent.
NO_CAUSE = -1


@dataclass(slots=True)
class Message:
    """One network message.

    ``size_bytes`` drives the bandwidth component of delivery delay;
    control messages default to the cost model's control message size.

    ``mid``/``parent`` are the causal-tracing stamps: when a tracer is
    attached, the network assigns ``mid`` from the session's monotone
    Lamport counter and ``parent`` from the message (or timeout) whose
    handler triggered this send, as plain attribute writes when the
    message departs.  Both stay ``-1`` (:data:`NO_CAUSE`) with tracing
    off — the stamps exist only so the critical path
    (:mod:`repro.obs.critpath`) can walk a trace's causes back from its
    end; no protocol logic may branch on them.  Nothing else mutates a message
    once sent, and nothing hashes one; it is not frozen because a
    frozen dataclass costs three times as much to build, and a wide
    trade builds thousands.
    """

    kind: MessageKind
    sender: str
    recipient: str
    payload: Any = None
    size_bytes: int | None = None
    mid: int = NO_CAUSE
    parent: int = NO_CAUSE

    def trace_args(self, size: int) -> dict[str, Any]:
        """Small, JSON-able payload summary for trace events.

        Never serializes the payload itself (offers and queries are
        heavy); only counts what is countable — the number of queries
        in an RFB, the number of items in an offer list.
        """
        args: dict[str, Any] = {
            "kind": self.kind.value,
            "to": self.recipient,
            "bytes": size,
        }
        if self.mid != NO_CAUSE:
            args["mid"] = self.mid
            args["parent"] = self.parent
        payload = self.payload
        if payload is None:
            return args
        queries = getattr(payload, "queries", None)
        if queries is not None:
            args["queries"] = len(queries)
        elif isinstance(payload, (list, tuple)):
            args["items"] = len(payload)
        return args
