"""System-R dynamic programming over join orders (single site).

This is the seller's local optimizer.  Following Section 3.4, it runs
"progressively pruning sub-optimal access paths, first considering two-way
joins, then three-way joins, and so on" — and, crucially for QT, the
*modified* version keeps the optimal partial results (the best 2-way,
3-way, ... sub-plans) so they can be included in the seller's offer.

The optimizer counts every join combination it evaluates; the discrete-
event simulator turns that count into simulated optimization time, which
is how the experiments measure optimization cost deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.plans import Plan, PlanBuilder, moved_to
from repro.sql.expr import Expr, TRUE, conjoin, implies
from repro.sql.query import Aggregate, SPJQuery

__all__ = [
    "DPResult",
    "DynamicProgrammingOptimizer",
    "connecting_conjuncts",
    "subset_connected",
]


@dataclass
class DPResult:
    """Outcome of a local optimization run.

    Attributes
    ----------
    plan:
        Best plan for the complete query (with aggregation/sort applied),
        or ``None`` if the query was unsatisfiable.
    best:
        Best *join* plan per alias subset — the partial results that the
        modified DP exports as extra offers.
    enumerated:
        Number of candidate (sub-)plans evaluated; proxies optimization
        work for the simulator.
    """

    plan: Plan | None
    best: dict[frozenset[str], Plan] = field(default_factory=dict)
    enumerated: int = 0
    graph: JoinGraph | None = None

    def moved_to(self, site: str) -> "DPResult":
        """This result as the same run at *site* returns it, for a site
        with this one's capabilities: the plans re-sited by a walk
        (:func:`~repro.optimizer.plans.moved_to`), nothing enumerated."""
        moved: dict[int, Plan] = {}
        return DPResult(
            plan=(
                None if self.plan is None
                else moved_to(self.plan, site, moved)
            ),
            best={
                subset: moved_to(plan, site, moved)
                for subset, plan in self.best.items()
            },
            enumerated=self.enumerated,
            graph=self.graph,
        )


def subset_connected(
    subset: frozenset[str], conjuncts: Sequence[Expr]
) -> bool:
    """Is the join graph induced on *subset* connected?

    For a connected query, dynamic programming never needs disconnected
    intermediate results (the classic cross-product-avoidance rule), so
    optimizers skip such subsets entirely.

    Reference implementation: hot paths use the memoized
    :meth:`repro.optimizer.joingraph.JoinGraph.connected` instead.
    """
    if len(subset) <= 1:
        return True
    adjacency: dict[str, set[str]] = {alias: set() for alias in subset}
    for conjunct in conjuncts:
        tables = conjunct.tables()
        if len(tables) < 2 or not tables <= subset:
            continue
        ordered = sorted(tables)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                adjacency[u].add(v)
                adjacency[v].add(u)
    start = next(iter(subset))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen == subset


def connecting_conjuncts(
    conjuncts: Sequence[Expr],
    left: frozenset[str],
    right: frozenset[str],
) -> tuple[Expr, ...]:
    """Predicate conjuncts joining *left* aliases with *right* aliases.

    Reference implementation: hot paths use the memoized
    :meth:`repro.optimizer.joingraph.JoinGraph.connecting` instead.
    """
    combined = left | right
    out = []
    for conjunct in conjuncts:
        tables = conjunct.tables()
        if len(tables) < 2:
            continue
        if tables <= combined and tables & left and tables & right:
            out.append(conjunct)
    return tuple(out)


class DynamicProgrammingOptimizer:
    """Exhaustive bushy DP with cross-product avoidance.

    Parameters
    ----------
    builder:
        The cost-annotated plan factory.
    max_relations:
        Safety valve: queries wider than this raise, protecting the
        simulator from 2^n blowups the caller did not intend.
    """

    name = "dp"

    def __init__(
        self,
        builder: PlanBuilder,
        max_relations: int = 14,
    ):
        self.builder = builder
        self.max_relations = max_relations

    # -- hooks for subclasses (IDP) ---------------------------------------
    def prune_level(
        self, level: int, best: dict[int, Plan], graph: JoinGraph
    ) -> None:
        """Called after each DP level completes; plain DP keeps everything.

        *best* is keyed by alias-subset bitmask (see :class:`JoinGraph`);
        deleting entries here prunes them from the search.
        """

    # ------------------------------------------------------------------
    def optimize(
        self,
        query: SPJQuery,
        site: str,
        coverage: Mapping[str, frozenset[int]] | None = None,
        finish: bool = True,
    ) -> DPResult:
        """Optimize *query* executing entirely at *site*.

        *coverage* limits each alias to a set of fragments (defaults to
        every fragment of the relation's scheme); the scan selectivity
        correctly excludes selection conjuncts already implied by the
        fragment restriction, so fragment row counts are not
        double-discounted.

        With *finish* set, grouping/aggregation and ORDER BY are applied
        on top of the best full join.
        """
        aliases = sorted(query.aliases)
        if len(aliases) > self.max_relations:
            raise ValueError(
                f"{len(aliases)}-relation query exceeds DP limit "
                f"{self.max_relations}; use IDP or greedy"
            )
        alias_to_relation = {r.alias: r.name for r in query.relations}
        conjuncts = query.predicate.conjuncts()
        graph = JoinGraph(aliases, conjuncts)
        best: dict[int, Plan] = {}
        enumerated = 0

        # Level 1: fragment scans (bit i <-> i-th alias in sorted order).
        for i, alias in enumerate(graph.aliases):
            ref = query.relation_for(alias)
            scheme = self.builder.schemes[ref.name]
            fragment_ids = (
                coverage.get(alias, scheme.fragment_ids)
                if coverage is not None
                else scheme.fragment_ids
            )
            restriction = scheme.restriction_for(alias, fragment_ids)
            selection_parts = [
                c
                for c in query.selection_on(alias).conjuncts()
                if restriction is TRUE or not implies(restriction, c)
            ]
            plan = self.builder.scan(
                ref,
                fragment_ids,
                conjoin(selection_parts),
                site,
                alias_to_relation,
            )
            best[1 << i] = plan
            enumerated += 1

        # Levels 2..n: best join per subset.  For connected queries, only
        # connected subsets are ever enumerated (cross-product avoidance);
        # cross-product splits are only materialized when no connected
        # split exists (second pass).
        n = graph.n
        query_connected = graph.is_connected
        for size in range(2, n + 1):
            for mask in graph.level_masks(size, connected_only=query_connected):
                plan, counted = _best_join(
                    self.builder, best, mask, graph, alias_to_relation, site
                )
                enumerated += counted
                if plan is not None:
                    best[mask] = plan
            self.prune_level(size, best, graph)

        full = best.get(graph.full_mask)
        best_by_subset = {
            graph.aliases_of(mask): plan for mask, plan in best.items()
        }
        plan = self._finish(query, full, alias_to_relation) if finish else full
        return DPResult(
            plan=plan, best=best_by_subset, enumerated=enumerated, graph=graph
        )

    # ------------------------------------------------------------------
    def _finish(
        self,
        query: SPJQuery,
        plan: Plan | None,
        alias_to_relation: Mapping[str, str],
    ) -> Plan | None:
        if plan is None:
            return None
        if query.has_aggregates or query.group_by:
            aggregates = tuple(
                p for p in query.projections if isinstance(p, Aggregate)
            )
            plan = self.builder.aggregate(
                plan, query.group_by, aggregates, alias_to_relation
            )
        if query.order_by:
            plan = self.builder.sort(plan, query.order_by)
        return plan


def _best_join(
    builder: PlanBuilder,
    best: Mapping[int, Plan],
    mask: int,
    graph: JoinGraph,
    alias_to_relation: Mapping[str, str],
    site: str,
) -> tuple[Plan | None, int]:
    """Cheapest join for *mask* over surviving sub-plans.

    The DP step for one subset: connected splits first, cross products
    only when no connected split survives (cross-product avoidance).
    Returns ``(plan, joins_enumerated)``; the plan is ``None`` when no
    split has both sides in *best*.
    """
    splits = [
        (left, right)
        for left, right in graph.splits(mask)
        if left in best and right in best
    ]
    candidates: list[Plan] = []
    enumerated = 0
    for connected_pass in (True, False):
        for left, right in splits:
            connecting = graph.connecting(left, right)
            if bool(connecting) != connected_pass:
                continue
            joined = builder.join(
                best[left],
                best[right],
                connecting,
                alias_to_relation,
                site=site,
            )
            enumerated += 1
            candidates.append(joined)
        if candidates:
            break
    if not candidates:
        return None, enumerated
    return min(candidates, key=_plan_cost), enumerated


def _plan_cost(plan: Plan) -> float:
    return plan.response_time()
