"""The seller-side query rewrite algorithm of Section 3.4.

When a seller node receives a Request-For-Bids for a query it generally
cannot answer it whole: it may lack entire relations, and for the
relations it does hold it may store only some horizontal fragments.  The
paper's algorithm "removes all non-local relations and restricts the
base-relation extents to those partitions available locally".  This module
implements exactly that, returning both the rewritten query and a precise
*coverage* description (which fragments of which relation the rewritten
query ranges over) — the coverage is what the buyer plan generator later
uses to stitch offers into a complete plan.

The rewrite also decides whether the original projections (possibly
containing aggregates) survive: a partial aggregate is only offered when
it is sound to union partial results, i.e. when every partially covered
relation is partitioned on a GROUP BY column (the telecom example: partial
``SUM(charge) GROUP BY office`` per office fragment is exact).  Otherwise
the rewritten query degrades to ``SELECT *`` and the buyer re-aggregates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from repro.sql.expr import (
    FALSE,
    Column,
    Expr,
    conjoin,
    normalize_conjunction,
    restriction_overlaps,
    satisfiable,
)
from repro.sql.query import Aggregate, SPJQuery, Star
from repro.sql.schema import Fragment, PartitionScheme, Relation

__all__ = [
    "RewrittenQuery",
    "rewrite_query",
    "rewrite_to_coverage",
    "compatible_coverage",
    "coverage_restriction",
    "fragment_overlaps",
]

# Aggregates whose partial results can be re-combined by the buyer.
_DECOMPOSABLE_AGGS = frozenset(("sum", "count", "min", "max"))

#: Entries kept by the fragment-overlap memo (least recently used go).
OVERLAP_MEMO_SIZE = 4096


@dataclass(frozen=True)
class RewrittenQuery:
    """Result of rewriting a query against one node's holdings.

    Attributes
    ----------
    query:
        The locally answerable query, with fragment restrictions folded
        into the WHERE clause.
    coverage:
        ``alias -> frozenset(fragment_id)`` — which fragments of each
        surviving relation the query ranges over.
    dropped:
        Aliases of relations the node could not contribute to.
    exact_projections:
        True when the rewritten query kept the original projections
        (including aggregates); False when it degraded to ``SELECT *``.
    """

    query: SPJQuery
    coverage: Mapping[str, frozenset[int]]
    dropped: frozenset[str]
    exact_projections: bool

    @property
    def is_total(self) -> bool:
        """Does the rewrite cover the original query completely?"""
        return not self.dropped and self.exact_projections


def coverage_restriction(
    query: SPJQuery,
    schemes: Mapping[str, PartitionScheme],
    coverage: Mapping[str, frozenset[int]],
) -> Expr:
    """The WHERE-clause conjunct pinning *query* to *coverage*'s fragments."""
    parts: list[Expr] = []
    for alias in sorted(coverage):
        ref = query.relation_for(alias)
        scheme = schemes[ref.name]
        parts.append(scheme.restriction_for(alias, coverage[alias]))
    return conjoin(parts)


def _aggregates_survive(
    query: SPJQuery,
    schemes: Mapping[str, PartitionScheme],
    coverage: Mapping[str, frozenset[int]],
) -> bool:
    """May the original (aggregate) projections be kept on this coverage?

    Safe iff every aggregate function is decomposable and every partially
    covered relation is partitioned on an attribute that appears in the
    GROUP BY list (so each output group draws rows from exactly one
    fragment, making the union of partial answers exact).
    """
    for item in query.projections:
        if isinstance(item, Aggregate) and item.func not in _DECOMPOSABLE_AGGS:
            return False
    group_cols = set(query.group_by)
    for alias, fragment_ids in coverage.items():
        ref = query.relation_for(alias)
        scheme = schemes[ref.name]
        if fragment_ids == scheme.fragment_ids:
            continue  # fully covered: no partiality introduced
        if scheme.attribute is None:
            return False
        if Column(alias, scheme.attribute) not in group_cols:
            return False
    return True


@functools.lru_cache(maxsize=OVERLAP_MEMO_SIZE)
def _overlap_memo(
    selection_text: str,
    fragment_text: str,
    alias: str,
    selection: Expr,
    fragment: Fragment,
) -> bool:
    return restriction_overlaps(selection, fragment.restriction_for(alias))


def fragment_overlaps(selection: Expr, fragment: Fragment, alias: str) -> bool:
    """May rows of *fragment*, read as *alias*, satisfy *selection*?

    A pure function of its arguments, so it is memoized: every seller
    holding *fragment* asks it again for each query it is sent.  The key
    carries both predicates' SQL text because structural equality cannot
    tell the literal ``1`` from ``1.0`` and the test can: ``part > 1 AND
    part < 2`` is empty, ``part > 1.0 AND part < 2`` is not.
    """
    return _overlap_memo(
        selection.sql(), fragment.predicate.sql(), alias, selection, fragment
    )


def compatible_coverage(
    query: SPJQuery,
    schemes: Mapping[str, PartitionScheme],
    held: Mapping[str, frozenset[int]],
) -> dict[str, frozenset[int]]:
    """``alias -> fragment ids`` of *held* that *query* may read.

    A relation contributes the held fragments its selection may overlap;
    an alias with none is absent.  The rewrite of *query* depends on
    *held* only through this map, so nodes with equal compatible
    coverage share one rewrite.
    """
    coverage: dict[str, frozenset[int]] = {}
    for ref in query.relations:
        local_fragments = held.get(ref.name)
        if not local_fragments:
            continue
        scheme = schemes[ref.name]
        selection = query.selection_on(ref.alias)
        compatible = frozenset(
            fid
            for fid in local_fragments
            if fragment_overlaps(selection, scheme.fragment(fid), ref.alias)
        )
        if compatible:
            coverage[ref.alias] = compatible
    return coverage


def rewrite_query(
    query: SPJQuery,
    schemas: Mapping[str, Relation],
    schemes: Mapping[str, PartitionScheme],
    held: Mapping[str, frozenset[int]],
) -> RewrittenQuery | None:
    """Rewrite *query* to what a node holding *held* can answer locally.

    Parameters
    ----------
    query:
        The query from the buyer's RFB.
    schemas:
        Relation schemas (shared data dictionary; the paper assumes nodes
        agree on the schema even though data placement is unknown).
    schemes:
        Partitioning scheme per relation name.
    held:
        ``relation name -> fragment ids`` physically present at the node.

    Returns ``None`` when the node can contribute nothing: it holds no
    referenced relation, or its fragments are disjoint from the query's
    own selection (e.g. the node stores only ``office='Athens'`` rows
    while the query asks for Corfu and Myconos).
    """
    coverage = compatible_coverage(query, schemes, held)
    if not coverage:
        return None
    return rewrite_to_coverage(query, schemes, coverage)


def rewrite_to_coverage(
    query: SPJQuery,
    schemes: Mapping[str, PartitionScheme],
    coverage: Mapping[str, frozenset[int]],
) -> RewrittenQuery | None:
    """The rewrite step of :func:`rewrite_query`, given the non-empty
    :func:`compatible_coverage` of the node's holdings (for a caller
    that has already computed it)."""
    dropped = {ref.alias for ref in query.relations} - coverage.keys()

    if dropped:
        base = query.subquery_on(coverage.keys())
        assert base is not None
        exact = False
    else:
        base = query
        exact = True
        if query.has_aggregates or query.group_by:
            if not _aggregates_survive(query, schemes, coverage):
                base = SPJQuery(
                    relations=query.relations,
                    predicate=query.predicate,
                    projections=(Star(),),
                    distinct=query.distinct,
                )
                exact = False

    restriction = coverage_restriction(base, schemes, coverage)
    predicate = normalize_conjunction(conjoin([base.predicate, restriction]))
    if predicate is FALSE or not satisfiable(predicate):
        return None
    rewritten = SPJQuery(
        relations=base.relations,
        predicate=predicate,
        projections=base.projections,
        group_by=base.group_by,
        order_by=base.order_by,
        distinct=base.distinct,
    )
    return RewrittenQuery(
        query=rewritten,
        coverage=coverage,
        dropped=frozenset(dropped),
        exact_projections=exact,
    )
