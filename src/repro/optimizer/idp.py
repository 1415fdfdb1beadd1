"""Iterative Dynamic Programming, IDP-M(k, m) variant.

Section 3.6 of the paper: "This algorithm is similar to DP. Its only
difference is that after evaluating all 2-way join sub-plans, it keeps
the best five of them throwing away all other 2-way join sub-plans, and
then it continues processing like the DP algorithm."  That is IDP-M(2,5)
of Kossmann & Stocker, used both as the scalable buyer plan generator and
(given full catalog knowledge) as a traditional-optimization baseline.

The generalized form implemented here prunes every level up to *k* down
to its best *m* entries.
"""

from __future__ import annotations

from repro.optimizer.dp import DynamicProgrammingOptimizer, _plan_cost
from repro.optimizer.greedy import greedy_join
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.plans import Plan, PlanBuilder

__all__ = ["IDPOptimizer"]


class IDPOptimizer(DynamicProgrammingOptimizer):
    """IDP-M(k, m): DP with level-wise beam pruning.

    Parameters
    ----------
    builder:
        Plan factory.
    k:
        Levels up to which pruning applies (the paper uses 2).
    m:
        Number of sub-plans kept per pruned level (the paper uses 5).
    """

    def __init__(
        self,
        builder: PlanBuilder,
        k: int = 2,
        m: int = 5,
        max_relations: int = 24,
    ):
        super().__init__(builder, max_relations=max_relations)
        if k < 2:
            raise ValueError("k must be at least 2")
        if m < 1:
            raise ValueError("m must be at least 1")
        self.k = k
        self.m = m
        self.name = f"idp-m({k},{m})"

    def prune_level(
        self, level: int, best: dict[int, Plan], graph: JoinGraph
    ) -> None:
        if level < 2 or level > self.k:
            return
        this_level = [m for m in best if m.bit_count() == level]
        if len(this_level) <= self.m:
            return
        ranked = sorted(this_level, key=lambda m: _plan_cost(best[m]))
        for mask in ranked[self.m :]:
            del best[mask]

    def optimize(self, query, site, coverage=None, finish: bool = True):
        """DP with pruning; greedily completes the plan when pruning has
        made the full relation set unreachable from the kept sub-plans."""
        result = super().optimize(query, site, coverage, finish=False)
        aliases = frozenset(query.aliases)
        alias_to_relation = {r.alias: r.name for r in query.relations}
        if aliases not in result.best and len(aliases) > 1:
            parts = _maximal_disjoint_cover(result.best, aliases)
            plan, extra = greedy_join(
                parts,
                query.predicate.conjuncts(),
                alias_to_relation,
                self.builder,
                site,
                graph=result.graph,
            )
            result.enumerated += extra
            if plan is not None:
                result.best[aliases] = plan
        full = result.best.get(aliases)
        result.plan = (
            self._finish(query, full, alias_to_relation) if finish else full
        )
        return result


def _maximal_disjoint_cover(
    best: dict[frozenset[str], Plan], aliases: frozenset[str]
) -> dict[frozenset[str], Plan]:
    """Pick disjoint kept subsets covering *aliases* (big & cheap first)."""
    chosen: dict[frozenset[str], Plan] = {}
    covered: frozenset[str] = frozenset()
    for subset in sorted(
        best, key=lambda s: (-len(s), _plan_cost(best[s]))
    ):
        if subset <= aliases and not subset & covered:
            chosen[subset] = best[subset]
            covered |= subset
        if covered == aliases:
            break
    return chosen
