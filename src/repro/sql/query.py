"""Select-project-join queries with optional grouping and aggregation.

A :class:`SPJQuery` is the unit of trade in the QT framework: buyers put
them in Requests-For-Bids, sellers rewrite and price them, and the buyer
plan generator stitches offered queries back into an execution plan for
the original one.  Queries are immutable and hashable, with a canonical
form so that structurally equivalent queries (same relations, same
conjuncts in any order) compare equal — crucial for the iterative
algorithm's "did the query set Q change?" termination test (step B6/B7 of
the paper's Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from repro.sql.expr import (
    TRUE,
    FALSE,
    And,
    Column,
    Comparison,
    Expr,
    conjoin,
)
from repro.sql.schema import Relation, RelationRef

__all__ = ["Aggregate", "Star", "SPJQuery"]

_AGG_FUNCS = ("sum", "count", "min", "max", "avg")


@dataclass(frozen=True)
class Star:
    """``SELECT *`` — project every attribute of every relation."""

    def sql(self) -> str:
        return "*"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate output item, e.g. ``SUM(i.charge) AS total``.

    ``COUNT(*)`` is expressed with ``arg=None``.
    """

    func: str
    arg: Column | None
    alias: str | None = None

    def __post_init__(self) -> None:
        func = self.func.lower()
        if func not in _AGG_FUNCS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        object.__setattr__(self, "func", func)
        if self.arg is None and func != "count":
            raise ValueError(f"{func} requires an argument")

    def columns(self) -> frozenset[Column]:
        return frozenset() if self.arg is None else frozenset((self.arg,))

    def rename_tables(self, mapping: Mapping[str, str]) -> "Aggregate":
        if self.arg is None:
            return self
        return Aggregate(self.func, self.arg.rename_tables(mapping), self.alias)

    def sql(self) -> str:
        inner = "*" if self.arg is None else self.arg.sql()
        base = f"{self.func.upper()}({inner})"
        if self.alias:
            base += f" AS {self.alias}"
        return base


OutputItem = Column | Aggregate | Star


@dataclass(frozen=True)
class SPJQuery:
    """A select-project-join query over aliased base relations.

    Attributes
    ----------
    relations:
        The FROM list; aliases must be unique.
    predicate:
        A (usually conjunctive) boolean expression combining selections and
        join conditions.
    projections:
        Output items: columns, aggregates, or a single :class:`Star`.
    group_by:
        GROUP BY columns (empty for scalar aggregates / plain SPJ).
    order_by:
        ORDER BY columns — the paper's buyer predicates analyser adds and
        removes sort requirements when deriving new tradable queries.
    distinct:
        SELECT DISTINCT flag (relevant for the union-redundancy analysis of
        Section 3.7).
    """

    relations: tuple[RelationRef, ...]
    predicate: Expr = TRUE
    projections: tuple[OutputItem, ...] = (Star(),)
    group_by: tuple[Column, ...] = ()
    order_by: tuple[Column, ...] = ()
    distinct: bool = False

    def __post_init__(self) -> None:
        if not self.relations:
            raise ValueError("a query needs at least one relation")
        aliases = [r.alias for r in self.relations]
        if len(set(aliases)) != len(aliases):
            raise ValueError(f"duplicate aliases in FROM list: {aliases}")
        if not self.projections:
            raise ValueError("a query needs at least one output item")
        known = set(aliases)
        for col in self.predicate.columns():
            if col.table not in known:
                raise ValueError(
                    f"predicate references unknown alias {col.table!r}"
                )
        for item in self.projections:
            if isinstance(item, Star):
                continue
            for col in item.columns():
                if col.table not in known:
                    raise ValueError(
                        f"projection references unknown alias {col.table!r}"
                    )
        for col in self.group_by + self.order_by:
            if col.table not in known:
                raise ValueError(
                    f"group/order by references unknown alias {col.table!r}"
                )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def aliases(self) -> frozenset[str]:
        return frozenset(r.alias for r in self.relations)

    @property
    def relation_names(self) -> frozenset[str]:
        return frozenset(r.name for r in self.relations)

    def relation_for(self, alias: str) -> RelationRef:
        for r in self.relations:
            if r.alias == alias:
                return r
        raise KeyError(f"no relation aliased {alias!r}")

    @property
    def has_aggregates(self) -> bool:
        return any(isinstance(p, Aggregate) for p in self.projections)

    @property
    def is_star(self) -> bool:
        return any(isinstance(p, Star) for p in self.projections)

    def join_conjuncts(self) -> tuple[Comparison, ...]:
        """The equi-join (column-to-column, cross-relation) conjuncts."""
        return tuple(
            c
            for c in self.predicate.conjuncts()
            if isinstance(c, Comparison) and c.is_join
        )

    def selection_conjuncts(self) -> tuple[Expr, ...]:
        """All non-join conjuncts (single-relation restrictions)."""
        joins = set(self.join_conjuncts())
        return tuple(c for c in self.predicate.conjuncts() if c not in joins)

    def selection_on(self, alias: str) -> Expr:
        """Conjunction of selection conjuncts touching only *alias*.

        Memoized per alias, like :meth:`key`: every seller asked for
        this query rewrites it against the same selections.
        """
        memo = self.__dict__.get("_selection_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_selection_memo", memo)
        selection = memo.get(alias)
        if selection is None:
            only = frozenset((alias,))
            selection = memo[alias] = conjoin(
                [c for c in self.selection_conjuncts() if c.tables() <= only]
            )
        return selection

    def output_columns(
        self, schemas: Mapping[str, Relation] | None = None
    ) -> tuple[Column, ...]:
        """The base columns produced, expanding ``*`` via *schemas*."""
        cols: list[Column] = []
        for item in self.projections:
            if isinstance(item, Star):
                if schemas is None:
                    raise ValueError("need schemas to expand SELECT *")
                for ref in self.relations:
                    rel = schemas[ref.name]
                    cols.extend(Column(ref.alias, a.name) for a in rel.attributes)
            elif isinstance(item, Column):
                cols.append(item)
            else:
                if item.arg is not None:
                    cols.append(item.arg)
        return tuple(cols)

    # ------------------------------------------------------------------
    # Derivation (the operations the QT modules perform on queries)
    # ------------------------------------------------------------------
    def restrict(self, extra: Expr) -> "SPJQuery":
        """Add a conjunct to the WHERE clause (fragment restriction etc.)."""
        return replace(self, predicate=conjoin([self.predicate, extra]))

    def with_projections(self, projections: Sequence[OutputItem]) -> "SPJQuery":
        return replace(self, projections=tuple(projections))

    def without_order(self) -> "SPJQuery":
        return replace(self, order_by=())

    def with_order(self, cols: Sequence[Column]) -> "SPJQuery":
        return replace(self, order_by=tuple(cols))

    def subquery_on(
        self,
        aliases: Iterable[str],
        schemas: Mapping[str, Relation] | None = None,
    ) -> "SPJQuery | None":
        """Project this query onto a subset of its relations.

        Keeps the relations in *aliases*, the conjuncts that touch only
        those aliases, and produces a ``SELECT *`` sub-query (the safe
        choice: every column possibly needed upstream is kept).  Returns
        ``None`` if the subset is empty.  This is the building block of
        the seller's modified-DP offer generation (Section 3.4): each
        optimal k-way partial result becomes a tradable sub-query.
        Memoized per subset: sellers sharing one rewrite share its
        sub-queries, and with them their :meth:`key`.
        """
        wanted = frozenset(aliases)
        if not wanted or not wanted <= self.aliases:
            return None
        memo = self.__dict__.get("_subquery_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_subquery_memo", memo)
        sub = memo.get(wanted)
        if sub is None:
            relations = tuple(r for r in self.relations if r.alias in wanted)
            conjuncts = [
                c for c in self.predicate.conjuncts() if c.tables() <= wanted
            ]
            sub = memo[wanted] = SPJQuery(
                relations=relations,
                predicate=conjoin(conjuncts),
                projections=(Star(),),
            )
        return sub

    # ------------------------------------------------------------------
    # Canonical form & identity
    # ------------------------------------------------------------------
    def canonical(self) -> "SPJQuery":
        """Order-insensitive canonical form (sorted FROM list & conjuncts)."""
        relations = tuple(sorted(self.relations))
        conjuncts = sorted(
            (
                c.normalized() if isinstance(c, Comparison) else c
                for c in self.predicate.conjuncts()
            ),
            key=lambda c: c.sql(),
        )
        projections = self.projections
        if not self.is_star and not self.has_aggregates:
            projections = tuple(
                sorted(projections, key=lambda p: p.sql())  # type: ignore[union-attr]
            )
        return replace(
            self,
            relations=relations,
            predicate=conjoin(conjuncts),
            projections=projections,
        )

    def key(self) -> str:
        """A canonical string identity; equal iff canonically equal.

        Canonicalization re-sorts the FROM list and every conjunct, so
        the result is memoized — the trading layers key caches and
        dedupe sets on it in hot loops.
        """
        memo = self.__dict__.get("_key_memo")
        if memo is None:
            memo = self.canonical().sql()
            object.__setattr__(self, "_key_memo", memo)
        return memo

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def sql(self) -> str:
        select = ", ".join(p.sql() for p in self.projections)
        if self.distinct:
            select = "DISTINCT " + select
        from_items = []
        for r in self.relations:
            from_items.append(
                r.name if r.alias == r.name else f"{r.name} {r.alias}"
            )
        parts = [f"SELECT {select}", f"FROM {', '.join(from_items)}"]
        if self.predicate is not TRUE:
            parts.append(f"WHERE {self.predicate.sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(c.sql() for c in self.group_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(c.sql() for c in self.order_by))
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SPJQuery<{self.sql()}>"

    @property
    def is_unsatisfiable(self) -> bool:
        """True when the predicate is provably contradictory."""
        return self.predicate.simplify() is FALSE
