"""The shared-pricing ledger: amortized shares that reconcile exactly.

Each epoch the scheduler prices every shared commodity once per seller
(the full price) and hands each sharer an amortized seed offer.  This
module owns the split-cost arithmetic and its audit trail:

* **money** — with ``k`` sharers and full price ``m``, the first
  ``k - 1`` sharers pay ``base = m / k`` and the last pays
  ``m - base * (k - 1)``, so the float sum of the shares equals ``m``
  *exactly* (bit-for-bit), not just approximately.  The full price is
  charged once in aggregate no matter how the sharers' trades settle.
* **time** — the materialized intermediate is computed once and shipped
  to each buyer: execution cost (the offer's ``true_cost``) divides by
  ``k``, shipping (the remainder of ``total_time``) is per-sharer.

Shares are assigned by member submission order, which is
deterministic — the reconciliation test asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.trading.commodity import Offer

__all__ = ["SharedPricing", "SharedPricingLedger", "amortized_offer"]


def money_shares(total: float, k: int) -> list[float]:
    """*k* per-sharer shares of *total* that sum to it exactly."""
    if k < 1:
        raise ValueError("need at least one sharer")
    if k == 1:
        return [total]
    base = total / k
    first = [base] * (k - 1)
    # The remainder comes off the left-to-right float sum of the first
    # k-1 shares — the same order ``sum(shares)`` re-adds them — so the
    # verification sum lands on ``total`` bit-for-bit (the final
    # ``total - partial`` is exact by Sterbenz: partial >= total / 2).
    return first + [total - sum(first)]


def amortized_offer(offer: Offer, share: float, k: int, offer_id: int) -> Offer:
    """One sharer's seed-offer variant of a fully-priced *offer*.

    ``share`` is this sharer's slice of the money; the execution part of
    the time dimension divides by *k* while shipping stays per-sharer.
    """
    execute = min(offer.true_cost, offer.properties.total_time)
    ship = offer.properties.total_time - execute
    properties = replace(
        offer.properties,
        total_time=execute / k + ship,
        money=share,
    )
    return replace(
        offer,
        properties=properties,
        offer_id=offer_id,
        shared_by=k,
    )


@dataclass
class SharedPricing:
    """One (commodity, seller) amortization record."""

    epoch: str
    commodity: str  # canonical template key
    seller: str
    full_money: float
    full_time: float
    sharers: list[str]  # member session ids, share order
    shares: list[float]  # money shares, same order

    @property
    def reconciled(self) -> bool:
        """True when the shares sum to the full price *exactly*."""
        return sum(self.shares) == self.full_money

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "commodity": self.commodity,
            "seller": self.seller,
            "full_money": self.full_money,
            "full_time": self.full_time,
            "sharers": list(self.sharers),
            "shares": list(self.shares),
            "reconciled": self.reconciled,
        }


@dataclass
class SharedPricingLedger:
    """Append-only record of every epoch's amortizations."""

    records: list[SharedPricing] = field(default_factory=list)

    def record(self, pricing: SharedPricing) -> None:
        self.records.append(pricing)

    def reconcile(self) -> bool:
        """True when every recorded split sums back to its full price."""
        return all(r.reconciled for r in self.records)

    @property
    def full_total(self) -> float:
        return sum(r.full_money for r in self.records)

    @property
    def amortized_reuses(self) -> int:
        """Sharer slots beyond the first — prices served without work."""
        return sum(len(r.sharers) - 1 for r in self.records)

    def for_member(self, member_id: str) -> list[SharedPricing]:
        return [r for r in self.records if member_id in r.sharers]

    def to_dict(self) -> dict:
        return {
            "records": len(self.records),
            "full_total": self.full_total,
            "amortized_reuses": self.amortized_reuses,
            "reconciled": self.reconcile(),
        }
