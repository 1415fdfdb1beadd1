"""Offer valuation: the administrator-defined weighting aggregation.

Section 3.1: "The buyer ranks the offers received using an
administrator-defined weighting aggregation function and chooses those
that minimize the total cost/value of the query."  A
:class:`WeightedValuation` scores an :class:`AnswerProperties` vector as
a weighted sum of its dimensions (lower is better); penalty weights for
staleness and incompleteness convert those [0,1] qualities into costs.
:meth:`Valuation.score` values the four numbers the buyer's plan
generator tracks per entry; a weighted valuation answers it from the
same formula without building the properties.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trading.commodity import AnswerProperties

__all__ = ["Valuation", "WeightedValuation"]


class Valuation:
    """Interface: map answer properties to a scalar cost (lower = better)."""

    def value(self, properties: AnswerProperties) -> float:
        raise NotImplementedError

    def __call__(self, properties: AnswerProperties) -> float:
        return self.value(properties)

    def score(
        self, total_time: float, rows: float, money: float, freshness: float
    ) -> float:
        """The value of an answer with these properties and the defaults
        for the rest — what the buyer's plan generator asks per entry.
        Subclasses may compute it without building the properties."""
        return self.value(
            AnswerProperties(
                total_time=total_time,
                rows=rows,
                money=money,
                freshness=freshness,
            )
        )


@dataclass(frozen=True)
class WeightedValuation(Valuation):
    """Linear weighting over the answer-property dimensions.

    The default is the paper's: pure total execution/delivery time.
    ``money_weight`` prices one currency unit in seconds-equivalent, and
    the penalty weights charge for each point of staleness or missing
    data.
    """

    time_weight: float = 1.0
    first_row_weight: float = 0.0
    money_weight: float = 0.0
    staleness_penalty: float = 0.0
    incompleteness_penalty: float = 0.0

    def value(self, properties: AnswerProperties) -> float:
        return self._weigh(
            properties.total_time,
            properties.first_row_time,
            properties.money,
            properties.freshness,
            properties.completeness,
        )

    def score(
        self, total_time: float, rows: float, money: float, freshness: float
    ) -> float:
        # The checks AnswerProperties would make, then the same formula
        # over the same defaults — bit-equal to ``value``.
        if total_time < 0 or rows < 0:
            raise ValueError("negative answer properties")
        if not (0.0 <= freshness <= 1.0):
            raise ValueError("freshness must be in [0, 1]")
        return self._weigh(total_time, 0.0, money, freshness, 1.0)

    def _weigh(
        self,
        total_time: float,
        first_row_time: float,
        money: float,
        freshness: float,
        completeness: float,
    ) -> float:
        return (
            self.time_weight * total_time
            + self.first_row_weight * first_row_time
            + self.money_weight * money
            + self.staleness_penalty * (1.0 - freshness)
            + self.incompleteness_penalty * (1.0 - completeness)
        )


#: The paper's default valuation: cost = total execution time.
TIME_ONLY = WeightedValuation()
