"""The traded commodities: query-answers and their multi-dimensional value.

Section 3.1: "seller nodes make offers which contain their estimated
properties of the answer of these queries ... the total time required to
execute and transmit the results of the query back to the buyer, the time
required to find the first row of the answer, the average rate of
retrieved rows per second, the total rows of the answer, the freshness of
the data, the completeness of the data, and possibly a charged amount."
:class:`AnswerProperties` carries exactly that vector.
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

from repro.sql.query import SPJQuery

__all__ = [
    "AnswerProperties",
    "CoverageKey",
    "Offer",
    "RequestForBids",
    "coverage_key",
    "coverage_label",
    "next_offer_id",
    "offer_id_scope",
]

_offer_ids = itertools.count(1)

#: Execution-context override of the offer-id counter.  The broker runs
#: each trading session inside its own :mod:`contextvars` context with a
#: private counter installed here, so concurrent sessions mint the same
#: id sequence a serial run would — offer ids appear in plan provenance
#: (``Purchased ... offer#N``), so id assignment must not interleave
#: across sessions.  Default ``None`` falls through to the module
#: global, keeping every existing single-session path byte-identical.
_scoped_offer_ids: contextvars.ContextVar[Iterator[int] | None] = (
    contextvars.ContextVar("repro_offer_ids", default=None)
)


def next_offer_id() -> int:
    """Mint the next offer id from the active counter.

    A context-local counter installed via :func:`offer_id_scope` takes
    precedence (broker sessions, CLI trades); otherwise the id comes
    from the module-global counter.
    """
    scoped = _scoped_offer_ids.get()
    if scoped is not None:
        return next(scoped)
    return next(_offer_ids)


@contextmanager
def offer_id_scope(start: int = 1) -> Iterator[None]:
    """Give the current execution context its own offer-id counter.

    Everything minted inside the ``with`` block draws from a private
    ``count(start)``; the module-global counter is untouched.  Used by the broker to isolate concurrent sessions.
    """
    token = _scoped_offer_ids.set(itertools.count(start))
    try:
        yield
    finally:
        _scoped_offer_ids.reset(token)


CoverageKey = tuple[tuple[str, tuple[int, ...]], ...]


def coverage_key(coverage: Mapping[str, frozenset[int]]) -> CoverageKey:
    """Canonical, hashable form of a fragment-coverage mapping.

    The single source of truth for coverage identity — the seller's
    dedupe, the trader's cross-round offer table, the buyer DP's entry
    keys, and the offer cache all key on this shape.
    """
    return tuple(
        (alias, tuple(sorted(fids))) for alias, fids in sorted(coverage.items())
    )


def coverage_label(key: CoverageKey) -> str:
    """Compact string form of a coverage key: ``"r0:0,1;r1:2"``.

    Used by the decision-ledger events, where coverage identity must be
    a JSON scalar (stable across runs and worker counts).
    """
    return ";".join(
        f"{alias}:{','.join(str(f) for f in fids)}" for alias, fids in key
    )


@dataclass(frozen=True)
class AnswerProperties:
    """Seller-estimated properties of one query-answer."""

    total_time: float  # seconds to produce + ship the full answer
    rows: float  # estimated answer cardinality
    first_row_time: float = 0.0  # seconds until the first row arrives
    rows_per_second: float = 0.0  # delivery rate once flowing
    freshness: float = 1.0  # 1 = live data, <1 = staleness fraction
    completeness: float = 1.0  # 1 = full answer for the offered query
    money: float = 0.0  # charged amount (currency units)

    def __post_init__(self) -> None:
        if self.total_time < 0 or self.rows < 0:
            raise ValueError("negative answer properties")
        if not (0.0 <= self.freshness <= 1.0):
            raise ValueError("freshness must be in [0, 1]")
        if not (0.0 <= self.completeness <= 1.0):
            raise ValueError("completeness must be in [0, 1]")

    def with_money(self, money: float) -> "AnswerProperties":
        return AnswerProperties(
            self.total_time,
            self.rows,
            self.first_row_time,
            self.rows_per_second,
            self.freshness,
            self.completeness,
            money,
        )

    def scaled_time(self, factor: float) -> "AnswerProperties":
        return replace(
            self,
            total_time=self.total_time * factor,
            first_row_time=self.first_row_time * factor,
        )


@dataclass(frozen=True)
class Offer:
    """A seller's binding offer for one query-answer.

    ``coverage`` states exactly which fragments of which relation (by
    query alias) the answer ranges over — the buyer plan generator's raw
    material.  ``exact_projections`` distinguishes answers carrying the
    original projections (possibly partial aggregates that union
    losslessly) from ``SELECT *`` parts the buyer must post-process.
    ``true_cost`` is the seller's private valuation (kept for surplus
    accounting in the experiments; a real competitive seller would not
    publish it).
    """

    seller: str
    query: SPJQuery
    coverage: Mapping[str, frozenset[int]]
    properties: AnswerProperties
    exact_projections: bool
    request_key: str  # canonical key of the RFB query this answers
    offer_id: int = field(default_factory=next_offer_id)
    true_cost: float = 0.0
    #: Number of buyer sessions sharing this commodity's price (MQO
    #: amortization); ``0`` for an ordinary single-buyer offer.
    shared_by: int = 0

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset(self.coverage)

    def coverage_key(self) -> CoverageKey:
        """Cached canonical coverage identity (see :func:`coverage_key`).

        Offers are frozen, so the sorted tuple is computed once; dedupe
        passes that previously rebuilt it per comparison now reuse it.
        """
        memo = self.__dict__.get("_coverage_key_memo")
        if memo is None:
            memo = coverage_key(self.coverage)
            object.__setattr__(self, "_coverage_key_memo", memo)
        return memo

    def dedupe_key(self) -> tuple:
        """Identity for "same commodity" dedupe: one offer should survive
        per (request, offered query, coverage, shape) regardless of which
        seller round or pricing pass produced it."""
        return (
            self.request_key,
            self.query.key(),
            self.coverage_key(),
            self.exact_projections,
        )

    def describe(self) -> str:
        cov = "; ".join(
            f"{alias}:{sorted(fids)}"
            for alias, fids in sorted(self.coverage.items())
        )
        base = (
            f"offer#{self.offer_id} {self.seller} [{cov}] "
            f"t={self.properties.total_time:.4f}s rows={self.properties.rows:.0f}"
            f" money={self.properties.money:.4f}"
        )
        if self.shared_by:
            base += f" shared_by={self.shared_by}"
        return base


class _SellerMemo:
    """Pricing work the sellers of one RFB share, private to that RFB.

    ``classes`` maps a seller class (request, held fragments,
    capabilities and every setting its pricing depends on) to the work
    its first seller did; ``fragments`` maps (request, alias, fragment
    id) to the single-fragment sub-query any seller holding that
    fragment offers; ``relations`` is the set of relation names the
    RFB's queries read, ``None`` until a seller first asks.  Keys hold
    object identities, which a pickle or a deep copy does not keep, so
    either starts empty.
    """

    __slots__ = ("classes", "fragments", "relations")

    def __init__(self) -> None:
        self.classes: dict = {}
        self.fragments: dict = {}
        self.relations: frozenset[str] | None = None

    def __reduce__(self):
        return (_SellerMemo, ())


@dataclass(frozen=True)
class RequestForBids:
    """An RFB: the buyer's query set with strategic value estimates.

    ``reservations`` maps each query's canonical key to the buyer's
    estimated value (reservation price) for it — the paper's step B1
    "the buyer strategically estimates the values it should ask for the
    queries in set Q".

    ``shared_counts`` marks an *interned* RFB (issued by the MQO epoch
    scheduler): it maps a query's canonical key to the number of buyer
    sessions sharing that commodity this epoch, so sellers can stamp
    their pricing lineage with the amortization factor.  Empty for
    every ordinary single-session RFB.

    ``_memo`` holds the sellers' shared pricing work (see
    :class:`~repro.trading.seller.SellerAgent`): it lives and dies with
    this RFB, is never compared, and ``dataclasses.replace`` gives the
    copy a fresh one.
    """

    buyer: str
    queries: tuple[SPJQuery, ...]
    reservations: Mapping[str, float] = field(default_factory=dict)
    round_number: int = 0
    shared_counts: Mapping[str, int] = field(default_factory=dict)
    _memo: _SellerMemo = field(
        default_factory=_SellerMemo, init=False, repr=False, compare=False
    )

    def reservation_for(self, query: SPJQuery) -> float | None:
        return self.reservations.get(query.key())

    def shared_count_for(self, request_key: str) -> int:
        return self.shared_counts.get(request_key, 0)
