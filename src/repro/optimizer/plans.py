"""Physical plan operators and the cost-annotated plan builder.

Every operator carries its estimated output cardinality, the site it runs
at, and its own operator time under the cost model.  Two cost views
matter:

* :meth:`Plan.response_time` — elapsed time until the full answer is
  available, assuming answers shipped from *other* sites arrive in
  parallel while same-site work serializes.  This is the paper's default
  valuation ("the total time required to execute and transmit the results
  back to the buyer").
* :meth:`Plan.work_time` — total resource-seconds consumed anywhere, the
  basis of monetary valuations.

Plans are immutable; construct them through :class:`PlanBuilder`, which
consults the cardinality estimator and cost model so that every node is
born with consistent estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from repro.cost.estimator import CardinalityEstimator
from repro.cost.model import CostModel, NodeCapabilities
from repro.sql.expr import Column, Comparison, Expr, TRUE, conjoin
from repro.sql.query import Aggregate, SPJQuery
from repro.sql.schema import PartitionScheme, RelationRef

__all__ = [
    "Plan",
    "FragmentScan",
    "HashJoin",
    "NestedLoopJoin",
    "Union",
    "GroupAgg",
    "Sort",
    "Transfer",
    "Purchased",
    "PlanBuilder",
    "fold_response_time",
    "moved_to",
]


def fold_response_time(
    site: str,
    op_time: float,
    child_sites: Sequence[str],
    child_times: Sequence[float],
) -> float:
    """Response time of an operator at *site* taking *op_time*, whose
    children run at *child_sites* and finish after *child_times*.

    Children are grouped by site: work at one site serializes, distinct
    sites proceed concurrently, and work at *site* itself serializes
    with the operator.  :meth:`Plan.response_time` and the buyer plan
    generator (which scores candidates before any node exists) both
    fold through here; the two-child branch is the same arithmetic,
    operation for operation, without the dict.
    """
    if len(child_sites) == 2:
        a, b = child_sites
        ta, tb = child_times
        if a == b:
            merged = 0.0 + ta + tb
            local, remote = (merged, 0.0) if a == site else (0.0, merged)
        elif a == site:
            local, remote = 0.0 + ta, 0.0 + tb
        elif b == site:
            local, remote = 0.0 + tb, 0.0 + ta
        else:
            local, remote = 0.0, max(0.0 + ta, 0.0 + tb)
        return op_time + max(local, remote)
    per_site: dict[str, float] = {}
    for child_site, time in zip(child_sites, child_times):
        per_site[child_site] = per_site.get(child_site, 0.0) + time
    local = per_site.pop(site, 0.0)
    remote = max(per_site.values(), default=0.0)
    return op_time + max(local, remote)


@dataclass(frozen=True, slots=True)
class Plan:
    """Base class: a cost-annotated operator tree node."""

    rows: float
    site: str
    op_time: float
    # Memoized cost views (slots-compatible: declared as real fields,
    # excluded from init/repr/eq so plan identity is unaffected).
    _response_time: float | None = field(
        init=False, default=None, repr=False, compare=False
    )
    _work_time: float | None = field(
        init=False, default=None, repr=False, compare=False
    )

    @property
    def children(self) -> tuple["Plan", ...]:
        return ()

    # -- cost views ------------------------------------------------------
    def response_time(self) -> float:
        """Elapsed seconds until this operator's output is complete.

        Children are grouped by execution site: work at one site
        serializes (it competes for the same CPU/disk), while distinct
        sites proceed concurrently, so only the slowest site gates this
        operator.  Work co-located with this operator also serializes
        with it.  Plans are immutable, so the value is memoized.
        """
        cached = self._response_time
        if cached is not None:
            return cached
        children = self.children
        value = fold_response_time(
            self.site,
            self.op_time,
            [child.site for child in children],
            [child.response_time() for child in children],
        )
        object.__setattr__(self, "_response_time", value)
        return value

    def work_time(self) -> float:
        """Total resource-seconds consumed across all sites (memoized)."""
        cached = self._work_time
        if cached is not None:
            return cached
        value = self.op_time + sum(c.work_time() for c in self.children)
        object.__setattr__(self, "_work_time", value)
        return value

    # -- structure ---------------------------------------------------------
    def aliases(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for child in self.children:
            out |= child.aliases()
        return out

    def operator_count(self) -> int:
        return 1 + sum(c.operator_count() for c in self.children)

    def leaves(self) -> tuple["Plan", ...]:
        if not self.children:
            return (self,)
        out: list[Plan] = []
        for child in self.children:
            out.extend(child.leaves())
        return tuple(out)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return (
            f"{type(self).__name__}"
            f"[site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class FragmentScan(Plan):
    """Scan locally held fragments of one relation, applying a selection."""

    ref: RelationRef = field(default=None)  # type: ignore[assignment]
    fragment_ids: frozenset[int] = frozenset()
    predicate: Expr = TRUE

    def aliases(self) -> frozenset[str]:
        return frozenset((self.ref.alias,))

    def describe(self) -> str:
        frags = ",".join(str(f) for f in sorted(self.fragment_ids))
        pred = "" if self.predicate is TRUE else f" WHERE {self.predicate.sql()}"
        return (
            f"Scan {self.ref.name} AS {self.ref.alias} frags[{frags}]{pred}"
            f" [site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class _Binary(Plan):
    left: Plan = field(default=None)  # type: ignore[assignment]
    right: Plan = field(default=None)  # type: ignore[assignment]
    condition: Expr = TRUE

    @property
    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        cond = "" if self.condition is TRUE else f" ON {self.condition.sql()}"
        return (
            f"{type(self).__name__}{cond}"
            f" [site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class HashJoin(_Binary):
    """Equi-join via hashing; the workhorse join."""


@dataclass(frozen=True, slots=True)
class NestedLoopJoin(_Binary):
    """Fallback join for non-equi conditions and cross products."""


@dataclass(frozen=True, slots=True)
class Union(Plan):
    """Bag/set union of fragment-disjoint partial answers."""

    inputs: tuple[Plan, ...] = ()
    distinct: bool = False

    @property
    def children(self) -> tuple[Plan, ...]:
        return self.inputs

    def describe(self) -> str:
        kind = "UnionDistinct" if self.distinct else "UnionAll"
        return (
            f"{kind}({len(self.inputs)})"
            f" [site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class GroupAgg(Plan):
    """Hash aggregation: GROUP BY + aggregates (or their re-aggregation)."""

    child: Plan = field(default=None)  # type: ignore[assignment]
    group_by: tuple[Column, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()

    @property
    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(c.sql() for c in self.group_by) or "<scalar>"
        return (
            f"GroupAgg[{keys}]"
            f" [site={self.site} rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class Sort(Plan):
    """Sort on the ORDER BY keys."""

    child: Plan = field(default=None)  # type: ignore[assignment]
    keys: tuple[Column, ...] = ()

    @property
    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


@dataclass(frozen=True, slots=True)
class Transfer(Plan):
    """Ship a child's result from its (source) site to ``dest``.

    The node's ``site`` is the *source*: shipping serializes with the
    producer's work, while transfers from distinct sources to the same
    consumer overlap — mirroring how :class:`Purchased` deliveries
    behave, so traded plans and traditional plans are costed under the
    same physics.
    """

    child: Plan = field(default=None)  # type: ignore[assignment]
    dest: str = ""

    @property
    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return (
            f"Transfer {self.site} -> {self.dest}"
            f" [rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


@dataclass(frozen=True, slots=True)
class Purchased(Plan):
    """A query-answer bought from a seller during trading.

    ``op_time`` is the offered *total time* (seller-side execution plus
    shipping to the buyer) — a leaf from the buyer's perspective: what
    happens inside the seller is, in the paper's words, "no concern of
    Athens".  The node's ``site`` is the *seller* (so that purchases from
    different sellers overlap while purchases from the same one
    serialize), and ``delivered_at`` records where the answer lands;
    :meth:`PlanBuilder.collocate` therefore never re-ships it.
    """

    query: SPJQuery = field(default=None)  # type: ignore[assignment]
    seller: str = ""
    coverage: Mapping[str, frozenset[int]] = field(default_factory=dict)
    offer_id: int = -1
    delivered_at: str = ""
    money: float = 0.0  # charged amount from the offer
    freshness: float = 1.0  # offered data freshness

    def aliases(self) -> frozenset[str]:
        return frozenset(self.coverage)

    def describe(self) -> str:
        cov = "; ".join(
            f"{alias}:{sorted(fids)}" for alias, fids in sorted(self.coverage.items())
        )
        return (
            f"Purchased from {self.seller} offer#{self.offer_id} [{cov}]"
            f" [rows={self.rows:.0f} t={self.op_time:.4f}s]"
        )


#: The plan-valued fields of each operator a single-site optimizer
#: builds (no :class:`Transfer`, no :class:`Purchased`).
_LOCAL_CHILDREN: dict[type, tuple[str, ...]] = {
    FragmentScan: (),
    HashJoin: ("left", "right"),
    NestedLoopJoin: ("left", "right"),
    Union: ("inputs",),
    GroupAgg: ("child",),
    Sort: ("child",),
}


def moved_to(plan: Plan, site: str, moved: dict[int, Plan]) -> Plan:
    """*plan*, built wholly at one site, rebuilt to run at *site*.

    Rows and operator times are kept, which is exact when *site* has
    the capabilities of the plan's own site: a walk, not a
    re-optimization.  *moved* maps ``id`` of each original node to its
    copy, so subtrees shared between plans stay shared.
    """
    copy = moved.get(id(plan))
    if copy is None:
        children = {}
        for name in _LOCAL_CHILDREN[type(plan)]:
            value = getattr(plan, name)
            children[name] = (
                tuple(moved_to(p, site, moved) for p in value)
                if isinstance(value, tuple)
                else moved_to(value, site, moved)
            )
        copy = moved[id(plan)] = replace(plan, site=site, **children)
    return copy


class PlanBuilder:
    """Factory producing cost-annotated plans.

    Parameters
    ----------
    estimator:
        Cardinality estimator over the federation's statistics.
    cost_model:
        Operator/network cost model.
    capabilities:
        Per-site :class:`NodeCapabilities`; sites not present use
        *default_caps*.
    schemes:
        Partitioning scheme per relation (for fragment row counts).
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        capabilities: Mapping[str, NodeCapabilities] | None = None,
        schemes: Mapping[str, PartitionScheme] | None = None,
        default_caps: NodeCapabilities | None = None,
    ):
        self.estimator = estimator
        self.cost_model = cost_model
        self.capabilities = dict(capabilities or {})
        self.schemes = dict(schemes or {})
        self.default_caps = default_caps or NodeCapabilities()

    def caps(self, site: str) -> NodeCapabilities:
        return self.capabilities.get(site, self.default_caps)

    # ------------------------------------------------------------------
    def scan(
        self,
        ref: RelationRef,
        fragment_ids: Iterable[int],
        selection: Expr,
        site: str,
        alias_to_relation: Mapping[str, str],
    ) -> FragmentScan:
        """Scan *fragment_ids* of *ref* at *site* applying *selection*.

        *selection* should NOT repeat the fragment restriction — fragment
        row counts come from the catalog directly.
        """
        scheme = self.schemes[ref.name]
        fragment_ids = frozenset(fragment_ids)
        rows_read = float(
            sum(scheme.fragment(fid).row_count for fid in fragment_ids)
        )
        selectivity = self.estimator.selectivity(selection, alias_to_relation)
        rows = rows_read * selectivity
        caps = self.caps(site)
        op_time = self.cost_model.scan(rows_read, caps)
        if selection is not TRUE:
            op_time += self.cost_model.cpu_pass(rows_read, caps)
        return FragmentScan(
            rows=rows,
            site=site,
            op_time=op_time,
            ref=ref,
            fragment_ids=fragment_ids,
            predicate=selection,
        )

    def join(
        self,
        left: Plan,
        right: Plan,
        conjuncts: Sequence[Expr],
        alias_to_relation: Mapping[str, str],
        site: str | None = None,
    ) -> Plan:
        """Join two sub-plans on *conjuncts* (empty = cross product).

        Children at other sites are wrapped in :class:`Transfer`.  Picks a
        hash join when an equi-join conjunct is available, otherwise a
        nested-loop join.
        """
        site = site or left.site
        left = self.collocate(left, site)
        right = self.collocate(right, site)
        selectivity, equi = self.join_selectivity(conjuncts, alias_to_relation)
        rows, op_time = self.join_cost(
            left.rows, right.rows, selectivity, equi, self.caps(site)
        )
        node = HashJoin if equi else NestedLoopJoin
        return node(
            rows=rows,
            site=site,
            op_time=op_time,
            left=left,
            right=right,
            condition=conjoin(conjuncts),
        )

    def join_selectivity(
        self, conjuncts: Sequence[Expr], alias_to_relation: Mapping[str, str]
    ) -> tuple[float, bool]:
        """``(selectivity, equi)`` of joining on *conjuncts*: the product
        of their selectivities, and whether one is an equi-join (a hash
        join applies).  Depends on the conjuncts alone, so a caller
        joining many pairs over one split computes it once."""
        selectivity = 1.0
        equi = False
        for conjunct in conjuncts:
            if isinstance(conjunct, Comparison) and conjunct.is_join:
                selectivity *= self.estimator.join_selectivity(
                    conjunct, alias_to_relation
                )
                if conjunct.op == "=":
                    equi = True
            else:
                selectivity *= self.estimator.selectivity(
                    conjunct, alias_to_relation
                )
        return selectivity, equi

    def join_cost(
        self,
        left_rows: float,
        right_rows: float,
        selectivity: float,
        equi: bool,
        caps: NodeCapabilities,
    ) -> tuple[float, float]:
        """``(rows, op_time)`` of a join node on a site with *caps*."""
        rows = left_rows * right_rows * selectivity
        if equi:
            return rows, self.cost_model.hash_join(
                left_rows, right_rows, rows, caps
            )
        return rows, self.cost_model.nested_loop_join(
            left_rows, right_rows, caps
        )

    def union(
        self, inputs: Sequence[Plan], site: str, distinct: bool = False
    ) -> Plan:
        """Union partial answers at *site*."""
        if len(inputs) == 1:
            return self.collocate(inputs[0], site)
        placed = tuple(self.collocate(p, site) for p in inputs)
        rows = sum(p.rows for p in placed)
        return Union(
            rows=rows,
            site=site,
            op_time=self.union_cost(rows, distinct, self.caps(site)),
            inputs=placed,
            distinct=distinct,
        )

    def union_cost(
        self, rows: float, distinct: bool, caps: NodeCapabilities
    ) -> float:
        """``op_time`` of a union node producing *rows* on a site with
        *caps* (a distinct union also sorts)."""
        op_time = self.cost_model.cpu_pass(rows, caps)
        if distinct:
            op_time += self.cost_model.sort(rows, caps)
        return op_time

    def aggregate(
        self,
        child: Plan,
        group_by: Sequence[Column],
        aggregates: Sequence[Aggregate],
        alias_to_relation: Mapping[str, str],
        site: str | None = None,
    ) -> GroupAgg:
        site = site or child.site
        child = self.collocate(child, site)
        if group_by:
            groups = 1.0
            for col in group_by:
                groups *= self.estimator.distinct_values(col, alias_to_relation)
            rows = min(child.rows, groups)
        else:
            rows = 1.0
        caps = self.caps(site)
        op_time = self.cost_model.cpu_pass(child.rows, caps)
        return GroupAgg(
            rows=rows,
            site=site,
            op_time=op_time,
            child=child,
            group_by=tuple(group_by),
            aggregates=tuple(aggregates),
        )

    def sort(self, child: Plan, keys: Sequence[Column]) -> Sort:
        caps = self.caps(child.site)
        return Sort(
            rows=child.rows,
            site=child.site,
            op_time=self.cost_model.sort(child.rows, caps),
            child=child,
            keys=tuple(keys),
        )

    def collocate(self, plan: Plan, site: str) -> Plan:
        """Wrap *plan* in a :class:`Transfer` if it runs elsewhere.

        Purchased answers whose delivery site is already *site* are left
        alone — their offered time includes shipping — as are results
        already in flight to *site* via an earlier Transfer.
        """
        if plan.site == site:
            return plan
        if isinstance(plan, Purchased) and plan.delivered_at == site:
            return plan
        if isinstance(plan, Transfer) and plan.dest == site:
            return plan
        source = plan.dest if isinstance(plan, Transfer) else plan.site
        return Transfer(
            rows=plan.rows,
            site=source,
            op_time=self.cost_model.transfer(plan.rows),
            child=plan,
            dest=site,
        )

    def purchased(
        self,
        query: SPJQuery,
        seller: str,
        rows: float,
        total_time: float,
        coverage: Mapping[str, frozenset[int]],
        buyer_site: str,
        offer_id: int = -1,
        money: float = 0.0,
        freshness: float = 1.0,
    ) -> Purchased:
        return Purchased(
            rows=rows,
            site=seller,
            op_time=total_time,
            query=query,
            seller=seller,
            coverage=dict(coverage),
            offer_id=offer_id,
            delivered_at=buyer_site,
            money=money,
            freshness=freshness,
        )
