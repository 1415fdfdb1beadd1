"""Boolean predicate expressions over relational tuples.

The QT optimizer constantly manipulates conjunctive predicates: it restricts
queries to horizontal fragments, tests whether one restriction implies
another (fragment subsumption, view matching), detects contradictions
(a seller holding only ``office='Myconos'`` cannot contribute to
``office='Corfu'``), and simplifies the predicates it ships in RFBs and
offers.

The expression algebra is deliberately small — columns, literals, the six
comparison operators, IN-lists, AND/OR/NOT — because the paper's framework
(like ours) is scoped to select-project-join queries.  On top of the algebra
sit three analysis utilities that the rest of the system relies on:

* :func:`analyze_conjunction` — compile a conjunction into per-column
  :class:`DomainConstraint` objects plus residual (join) conjuncts,
* :func:`implies` — sound (not complete) implication test between
  conjunctions, and
* :meth:`Expr.simplify` — constant folding and contradiction detection.

All expression objects are immutable and hashable so they can be used as
dictionary keys throughout the optimizer.  Compound nodes cache their
structural hash and their ``columns()`` set after the first computation
(recursive recomputation otherwise dominates the dict-keyed hot paths in
the buyer DP and the seller offer cache).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "Expr",
    "Column",
    "Literal",
    "Comparison",
    "InList",
    "And",
    "Or",
    "Not",
    "TRUE",
    "FALSE",
    "column",
    "lit",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "in_list",
    "conjoin",
    "DomainConstraint",
    "analyze_conjunction",
    "implies",
]

# Values that may appear in literals and IN-lists.
Value = Any

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_FLIPPED_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Expr:
    """Base class for all boolean/scalar expressions."""

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def columns(self) -> frozenset["Column"]:
        """All columns referenced anywhere in this expression."""
        raise NotImplementedError

    def _columns(self) -> frozenset["Column"]:
        """Memoizing wrapper used by the compound nodes' ``columns()``."""
        memo = self.__dict__.get("_columns_memo")
        if memo is None:
            memo = self._compute_columns()
            object.__setattr__(self, "_columns_memo", memo)
        return memo

    def _compute_columns(self) -> frozenset["Column"]:
        raise NotImplementedError

    def _sql(self) -> str:
        """Memoizing wrapper used by the compound nodes' ``sql()``."""
        memo = self.__dict__.get("_sql_memo")
        if memo is None:
            memo = self._render_sql()
            object.__setattr__(self, "_sql_memo", memo)
        return memo

    def _render_sql(self) -> str:
        raise NotImplementedError

    def _hash(self, parts: tuple) -> int:
        """Memoizing hash helper; *parts* must mirror the eq fields."""
        memo = self.__dict__.get("_hash_memo")
        if memo is None:
            memo = hash(parts)
            object.__setattr__(self, "_hash_memo", memo)
        return memo

    def tables(self) -> frozenset[str]:
        """Aliases of all relations referenced in this expression."""
        return frozenset(c.table for c in self.columns())

    def conjuncts(self) -> tuple["Expr", ...]:
        """Flatten a conjunction into its top-level factors.

        For non-AND expressions this is the expression itself; ``TRUE``
        flattens to the empty tuple.
        """
        if self is TRUE:
            return ()
        return (self,)

    def rename_tables(self, mapping: Mapping[str, str]) -> "Expr":
        """Return a copy with table aliases substituted via *mapping*."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, row: Mapping["Column", Value]) -> bool:
        """Evaluate against a row binding ``Column -> value``.

        Used by the execution engine and by the property-based tests that
        check simplification soundness.  Missing bindings raise ``KeyError``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Logic
    # ------------------------------------------------------------------
    def simplify(self) -> "Expr":
        """Constant-fold and prune; returns ``FALSE`` on detected contradiction.

        Simplification is *sound*: the returned expression is logically
        equivalent to the original.  It is not *complete* — some
        unsatisfiable expressions survive (completeness would require a
        full theory solver, which the optimizer does not need).
        """
        return self

    def negate(self) -> "Expr":
        """Logical negation, pushed through the operators where cheap."""
        return Not(self)

    def __and__(self, other: "Expr") -> "Expr":
        return conjoin([self, other])

    def __or__(self, other: "Expr") -> "Expr":
        if self is TRUE or other is TRUE:
            return TRUE
        if self is FALSE:
            return other
        if other is FALSE:
            return self
        return Or(_flatten(Or, [self, other]))

    def __invert__(self) -> "Expr":
        return self.negate()

    # Rendering ---------------------------------------------------------
    def sql(self) -> str:
        """Render as a SQL-ish string (parseable by :mod:`repro.sql.parser`)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.sql()})"


@dataclass(frozen=True, order=True)
class Column(Expr):
    """A column reference, qualified by the *alias* of a relation ref."""

    table: str
    name: str

    def columns(self) -> frozenset["Column"]:
        return frozenset((self,))

    def rename_tables(self, mapping: Mapping[str, str]) -> "Column":
        if self.table in mapping:
            return Column(mapping[self.table], self.name)
        return self

    def evaluate(self, row: Mapping["Column", Value]) -> Value:
        return row[self]

    def sql(self) -> str:
        return f"{self.table}.{self.name}"


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (int, float, str, or bool)."""

    value: Value

    def columns(self) -> frozenset[Column]:
        return frozenset()

    def rename_tables(self, mapping: Mapping[str, str]) -> "Literal":
        return self

    def evaluate(self, row: Mapping[Column, Value]) -> Value:
        return self.value

    def sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class Comparison(Expr):
    """``left op right`` where op is one of = != < <= > >=.

    By convention :meth:`normalized` puts the column on the left when
    comparing a column with a literal, and orders column-column comparisons
    lexicographically, so that structurally equal predicates compare equal.
    """

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def __hash__(self) -> int:
        return self._hash(("Comparison", self.op, self.left, self.right))

    def columns(self) -> frozenset[Column]:
        return self._columns()

    def _compute_columns(self) -> frozenset[Column]:
        return self.left.columns() | self.right.columns()

    def rename_tables(self, mapping: Mapping[str, str]) -> "Comparison":
        return Comparison(
            self.op,
            self.left.rename_tables(mapping),
            self.right.rename_tables(mapping),
        )

    def evaluate(self, row: Mapping[Column, Value]) -> bool:
        return _OPS[self.op](self.left.evaluate(row), self.right.evaluate(row))

    def normalized(self) -> "Comparison":
        """Canonical operand order (column-vs-literal → column first)."""
        left, right, op = self.left, self.right, self.op
        flip = False
        if isinstance(left, Literal) and isinstance(right, Column):
            flip = True
        elif isinstance(left, Column) and isinstance(right, Column):
            if (right.table, right.name) < (left.table, left.name):
                flip = True
        if flip:
            return Comparison(_FLIPPED_OP[op], right, left)
        return self

    def simplify(self) -> Expr:
        norm = self.normalized()
        if isinstance(norm.left, Literal) and isinstance(norm.right, Literal):
            try:
                return TRUE if norm.evaluate({}) else FALSE
            except TypeError:
                return norm
        if norm.left == norm.right:
            return TRUE if norm.op in ("=", "<=", ">=") else FALSE
        return norm

    def negate(self) -> Expr:
        return Comparison(_NEGATED_OP[self.op], self.left, self.right)

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op} {self.right.sql()}"

    @property
    def is_join(self) -> bool:
        """True when this compares columns of two distinct relations."""
        return (
            isinstance(self.left, Column)
            and isinstance(self.right, Column)
            and self.left.table != self.right.table
        )


@dataclass(frozen=True)
class InList(Expr):
    """``column IN (v1, v2, ...)`` — the common list-partition restriction."""

    col: Column
    values: frozenset[Value]

    def __post_init__(self) -> None:
        if not isinstance(self.values, frozenset):
            object.__setattr__(self, "values", frozenset(self.values))

    def __hash__(self) -> int:
        return self._hash(("InList", self.col, self.values))

    def columns(self) -> frozenset[Column]:
        return self._columns()

    def _compute_columns(self) -> frozenset[Column]:
        return frozenset((self.col,))

    def rename_tables(self, mapping: Mapping[str, str]) -> "InList":
        return InList(self.col.rename_tables(mapping), self.values)

    def evaluate(self, row: Mapping[Column, Value]) -> bool:
        return row[self.col] in self.values

    def simplify(self) -> Expr:
        if not self.values:
            return FALSE
        if len(self.values) == 1:
            (v,) = self.values
            return Comparison("=", self.col, Literal(v))
        return self

    def negate(self) -> Expr:
        return Not(self)

    def sql(self) -> str:
        return self._sql()

    def _render_sql(self) -> str:
        items = ", ".join(Literal(v).sql() for v in sorted(self.values, key=repr))
        return f"{self.col.sql()} IN ({items})"


def _flatten(kind: type, children: Iterable[Expr]) -> tuple[Expr, ...]:
    out: list[Expr] = []
    for child in children:
        if isinstance(child, kind):
            out.extend(child.children)
        else:
            out.append(child)
    return tuple(out)


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction."""

    children: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _flatten(And, self.children))

    def __hash__(self) -> int:
        return self._hash(("And", self.children))

    def columns(self) -> frozenset[Column]:
        return self._columns()

    def _compute_columns(self) -> frozenset[Column]:
        cols: frozenset[Column] = frozenset()
        for child in self.children:
            cols |= child.columns()
        return cols

    def conjuncts(self) -> tuple[Expr, ...]:
        out: list[Expr] = []
        for child in self.children:
            out.extend(child.conjuncts())
        return tuple(out)

    def rename_tables(self, mapping: Mapping[str, str]) -> "Expr":
        return And(tuple(c.rename_tables(mapping) for c in self.children))

    def evaluate(self, row: Mapping[Column, Value]) -> bool:
        return all(c.evaluate(row) for c in self.children)

    def simplify(self) -> Expr:
        kept: list[Expr] = []
        seen: set[Expr] = set()
        for child in self.children:
            s = child.simplify()
            if s is FALSE:
                return FALSE
            if s is TRUE or s in seen:
                continue
            seen.add(s)
            kept.append(s)
        if not kept:
            return TRUE
        # Contradiction detection via per-column domain analysis.
        constraints, _residual, ok = analyze_conjunction(kept)
        if not ok:
            return FALSE
        for constraint in constraints.values():
            if constraint.is_empty():
                return FALSE
        if len(kept) == 1:
            return kept[0]
        return And(tuple(kept))

    def negate(self) -> Expr:
        return Or(tuple(c.negate() for c in self.children))

    def sql(self) -> str:
        return self._sql()

    def _render_sql(self) -> str:
        return " AND ".join(
            f"({c.sql()})" if isinstance(c, Or) else c.sql() for c in self.children
        )


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction."""

    children: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _flatten(Or, self.children))

    def __hash__(self) -> int:
        return self._hash(("Or", self.children))

    def columns(self) -> frozenset[Column]:
        return self._columns()

    def _compute_columns(self) -> frozenset[Column]:
        cols: frozenset[Column] = frozenset()
        for child in self.children:
            cols |= child.columns()
        return cols

    def rename_tables(self, mapping: Mapping[str, str]) -> "Expr":
        return Or(tuple(c.rename_tables(mapping) for c in self.children))

    def evaluate(self, row: Mapping[Column, Value]) -> bool:
        return any(c.evaluate(row) for c in self.children)

    def simplify(self) -> Expr:
        kept: list[Expr] = []
        seen: set[Expr] = set()
        for child in self.children:
            s = child.simplify()
            if s is TRUE:
                return TRUE
            if s is FALSE or s in seen:
                continue
            seen.add(s)
            kept.append(s)
        if not kept:
            return FALSE
        if len(kept) == 1:
            return kept[0]
        return Or(tuple(kept))

    def negate(self) -> Expr:
        return And(tuple(c.negate() for c in self.children))

    def sql(self) -> str:
        return self._sql()

    def _render_sql(self) -> str:
        return " OR ".join(
            f"({c.sql()})" if isinstance(c, (And, Or)) else c.sql()
            for c in self.children
        )


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation for operands without a cheap negated form."""

    child: Expr

    def __hash__(self) -> int:
        return self._hash(("Not", self.child))

    def columns(self) -> frozenset[Column]:
        return self._columns()

    def _compute_columns(self) -> frozenset[Column]:
        return self.child.columns()

    def rename_tables(self, mapping: Mapping[str, str]) -> "Not":
        return Not(self.child.rename_tables(mapping))

    def evaluate(self, row: Mapping[Column, Value]) -> bool:
        return not self.child.evaluate(row)

    def simplify(self) -> Expr:
        inner = self.child.simplify()
        if inner is TRUE:
            return FALSE
        if inner is FALSE:
            return TRUE
        if isinstance(inner, Not):
            return inner.child
        if isinstance(inner, (Comparison, And, Or)):
            return inner.negate().simplify()
        return Not(inner)

    def negate(self) -> Expr:
        return self.child

    def sql(self) -> str:
        return f"NOT ({self.child.sql()})"


class _Bool(Expr):
    """The TRUE/FALSE singletons."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value

    def columns(self) -> frozenset[Column]:
        return frozenset()

    def conjuncts(self) -> tuple[Expr, ...]:
        return () if self.value else (self,)

    def rename_tables(self, mapping: Mapping[str, str]) -> "Expr":
        return self

    def evaluate(self, row: Mapping[Column, Value]) -> bool:
        return self.value

    def negate(self) -> Expr:
        return FALSE if self.value else TRUE

    def sql(self) -> str:
        return "TRUE" if self.value else "FALSE"

    def __hash__(self) -> int:
        return hash(("_Bool", self.value))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Bool) and other.value == self.value


TRUE = _Bool(True)
FALSE = _Bool(False)


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def column(table: str, name: str) -> Column:
    """Shorthand for :class:`Column`."""
    return Column(table, name)


def lit(value: Value) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def _cmp(op: str, left: Expr | Value, right: Expr | Value) -> Comparison:
    if not isinstance(left, Expr):
        left = Literal(left)
    if not isinstance(right, Expr):
        right = Literal(right)
    return Comparison(op, left, right).normalized()


def eq(left: Expr | Value, right: Expr | Value) -> Comparison:
    return _cmp("=", left, right)


def ne(left: Expr | Value, right: Expr | Value) -> Comparison:
    return _cmp("!=", left, right)


def lt(left: Expr | Value, right: Expr | Value) -> Comparison:
    return _cmp("<", left, right)


def le(left: Expr | Value, right: Expr | Value) -> Comparison:
    return _cmp("<=", left, right)


def gt(left: Expr | Value, right: Expr | Value) -> Comparison:
    return _cmp(">", left, right)


def ge(left: Expr | Value, right: Expr | Value) -> Comparison:
    return _cmp(">=", left, right)


def in_list(col: Column, values: Iterable[Value]) -> InList:
    return InList(col, frozenset(values))


def conjoin(exprs: Iterable[Expr]) -> Expr:
    """Conjunction of *exprs* with TRUE/FALSE short-circuiting.

    Unlike :meth:`Expr.simplify` this performs no contradiction analysis;
    it is the cheap structural combinator used on hot paths.
    """
    kept: list[Expr] = []
    for e in exprs:
        if e is TRUE:
            continue
        if e is FALSE:
            return FALSE
        kept.extend(e.conjuncts())
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return And(tuple(kept))


# ----------------------------------------------------------------------
# Per-column domain analysis
# ----------------------------------------------------------------------
_NEG_INF = object()
_POS_INF = object()


@dataclass
class DomainConstraint:
    """The set of values a single column may take under a conjunction.

    Tracks an interval (with open/closed bounds), an optional allowed
    IN-set, and a set of excluded values.  Supports emptiness testing,
    intersection, and subset testing — exactly what fragment subsumption
    and view matching need.
    """

    low: Value = _NEG_INF
    low_open: bool = False
    high: Value = _POS_INF
    high_open: bool = False
    allowed: frozenset[Value] | None = None  # None means "no IN restriction"
    excluded: frozenset[Value] = field(default_factory=frozenset)

    # -- construction --------------------------------------------------
    @staticmethod
    def from_comparison(op: str, value: Value) -> "DomainConstraint":
        if op == "=":
            return DomainConstraint(allowed=frozenset((value,)))
        if op == "!=":
            return DomainConstraint(excluded=frozenset((value,)))
        if op == "<":
            return DomainConstraint(high=value, high_open=True)
        if op == "<=":
            return DomainConstraint(high=value)
        if op == ">":
            return DomainConstraint(low=value, low_open=True)
        if op == ">=":
            return DomainConstraint(low=value)
        raise ValueError(f"unknown operator {op!r}")

    # -- predicates ----------------------------------------------------
    def admits(self, value: Value) -> bool:
        """Does *value* satisfy this constraint?"""
        if value in self.excluded:
            return False
        if self.allowed is not None and value not in self.allowed:
            return False
        try:
            if self.low is not _NEG_INF:
                if self.low_open:
                    if not value > self.low:
                        return False
                elif not value >= self.low:
                    return False
            if self.high is not _POS_INF:
                if self.high_open:
                    if not value < self.high:
                        return False
                elif not value <= self.high:
                    return False
        except TypeError:
            # Incomparable types (e.g. str bound, int value): treat as
            # not admitted — the predicate would raise at runtime anyway.
            return False
        return True

    def is_empty(self) -> bool:
        """True when provably no value satisfies the constraint."""
        if self.allowed is not None:
            return not any(self.admits(v) for v in self.allowed)
        if self.low is not _NEG_INF and self.high is not _POS_INF:
            try:
                if self.low > self.high:
                    return True
                if self.low == self.high and (self.low_open or self.high_open):
                    return True
                # Integer-tight empty open interval like (3, 4).
                if (
                    self.low_open
                    and self.high_open
                    and isinstance(self.low, int)
                    and isinstance(self.high, int)
                    and self.high - self.low <= 1
                ):
                    return True
                if (
                    self.low == self.high
                    and not self.low_open
                    and not self.high_open
                    and self.low in self.excluded
                ):
                    return True
            except TypeError:
                return True
        return False

    # -- algebra ---------------------------------------------------------
    def intersect(self, other: "DomainConstraint") -> "DomainConstraint":
        """The conjunction of two constraints on the same column."""
        low, low_open = self.low, self.low_open
        if other.low is not _NEG_INF:
            if low is _NEG_INF:
                low, low_open = other.low, other.low_open
            else:
                try:
                    if other.low > low or (other.low == low and other.low_open):
                        low, low_open = other.low, other.low_open
                except TypeError:
                    return _EMPTY_CONSTRAINT
        high, high_open = self.high, self.high_open
        if other.high is not _POS_INF:
            if high is _POS_INF:
                high, high_open = other.high, other.high_open
            else:
                try:
                    if other.high < high or (other.high == high and other.high_open):
                        high, high_open = other.high, other.high_open
                except TypeError:
                    return _EMPTY_CONSTRAINT
        if self.allowed is None:
            allowed = other.allowed
        elif other.allowed is None:
            allowed = self.allowed
        else:
            allowed = self.allowed & other.allowed
        return DomainConstraint(
            low=low,
            low_open=low_open,
            high=high,
            high_open=high_open,
            allowed=allowed,
            excluded=self.excluded | other.excluded,
        )

    def subsumes(self, other: "DomainConstraint") -> bool:
        """Sound test that every value admitted by *other* is admitted here.

        Used to decide whether a fragment restriction (``other``) lies
        inside a requested restriction (``self``).  Returns ``False`` when
        unsure.
        """
        if other.is_empty():
            return True
        if other.allowed is not None:
            return all(self.admits(v) for v in other.allowed if other.admits(v))
        if self.allowed is not None:
            # self is a finite set but other is an interval: only subsumes
            # if other is empty, handled above.
            return False
        # Interval containment; excluded values of self must be excluded
        # (or out of range) in other.
        try:
            if self.low is not _NEG_INF:
                if other.low is _NEG_INF:
                    return False
                if other.low < self.low:
                    return False
                if other.low == self.low and self.low_open and not other.low_open:
                    return False
            if self.high is not _POS_INF:
                if other.high is _POS_INF:
                    return False
                if other.high > self.high:
                    return False
                if other.high == self.high and self.high_open and not other.high_open:
                    return False
        except TypeError:
            return False
        return all(not other.admits(v) for v in self.excluded)

    def to_expr(self, col: Column) -> Expr:
        """Render back into an expression (used for residual predicates)."""
        parts: list[Expr] = []
        if self.allowed is not None:
            admitted = frozenset(v for v in self.allowed if self.admits(v))
            return InList(col, admitted).simplify()
        if self.low is not _NEG_INF:
            parts.append(
                Comparison(">" if self.low_open else ">=", col, Literal(self.low))
            )
        if self.high is not _POS_INF:
            parts.append(
                Comparison("<" if self.high_open else "<=", col, Literal(self.high))
            )
        for v in sorted(self.excluded, key=repr):
            parts.append(Comparison("!=", col, Literal(v)))
        return conjoin(parts)


_EMPTY_CONSTRAINT = DomainConstraint(allowed=frozenset())


def analyze_conjunction(
    conjuncts: Sequence[Expr],
) -> tuple[dict[Column, DomainConstraint], tuple[Expr, ...], bool]:
    """Split a conjunction into per-column constraints and a residual.

    Returns ``(constraints, residual, ok)`` where *constraints* maps each
    restricted column to its :class:`DomainConstraint`, *residual* holds
    the conjuncts that are not single-column restrictions (joins, ORs,
    NOTs, ...), and *ok* is ``False`` only when the conjunction is provably
    unsatisfiable for structural reasons outside the constraint analysis.
    """
    constraints: dict[Column, DomainConstraint] = {}
    residual: list[Expr] = []
    for conjunct in conjuncts:
        constraint: DomainConstraint | None = None
        col: Column | None = None
        if isinstance(conjunct, Comparison):
            norm = conjunct.normalized()
            if isinstance(norm.left, Column) and isinstance(norm.right, Literal):
                col = norm.left
                constraint = DomainConstraint.from_comparison(
                    norm.op, norm.right.value
                )
        elif isinstance(conjunct, InList):
            col = conjunct.col
            constraint = DomainConstraint(allowed=conjunct.values)
        elif conjunct is FALSE:
            return {}, (), False
        if constraint is None or col is None:
            residual.append(conjunct)
            continue
        if col in constraints:
            constraints[col] = constraints[col].intersect(constraint)
        else:
            constraints[col] = constraint
    return constraints, tuple(residual), True


def implies(premise: Expr, conclusion: Expr) -> bool:
    """Sound implication test between two conjunctive predicates.

    ``implies(p, q)`` returns ``True`` only when every row satisfying *p*
    is guaranteed to satisfy *q*.  The test handles per-column domain
    constraints exactly and falls back to syntactic containment for
    residual conjuncts (joins etc.).  It answers ``False`` when unsure,
    which is always safe for the callers (they will simply not exploit an
    optimization opportunity).
    """
    p = premise.simplify()
    q = conclusion.simplify()
    if p is FALSE or q is TRUE:
        return True
    if p is TRUE:
        return q is TRUE
    p_constraints, p_residual, p_ok = analyze_conjunction(p.conjuncts())
    q_constraints, q_residual, q_ok = analyze_conjunction(q.conjuncts())
    if not p_ok:
        return True
    if not q_ok:
        return False
    p_residual_set = set(p_residual)
    for conjunct in q_residual:
        if conjunct not in p_residual_set:
            return False
    for col, q_constraint in q_constraints.items():
        p_constraint = p_constraints.get(col)
        if p_constraint is None:
            return False
        if not q_constraint.subsumes(p_constraint):
            return False
    return True


def normalize_conjunction(expr: Expr) -> Expr:
    """Simplify a conjunction by merging per-column restrictions.

    This is the "simplifying the expression in the WHERE part" step of the
    paper's rewrite example: ``office IN ('Corfu','Myconos') AND
    office = 'Myconos'`` becomes ``office = 'Myconos'``.  Non-conjunctive
    expressions are returned via plain :meth:`Expr.simplify`.
    """
    simplified = expr.simplify()
    if simplified in (TRUE, FALSE):
        return simplified
    conjuncts = simplified.conjuncts()
    constraints, residual, ok = analyze_conjunction(conjuncts)
    if not ok:
        return FALSE
    parts: list[Expr] = []
    for col in sorted(constraints):
        constraint = constraints[col]
        if constraint.is_empty():
            return FALSE
        rendered = constraint.to_expr(col)
        if rendered is FALSE:
            return FALSE
        parts.append(rendered)
    parts.extend(residual)
    return conjoin(parts)


def _dnf(expr: Expr, cap: int = 64) -> list[tuple[Expr, ...]] | None:
    """Disjunctive normal form as a list of conjunct tuples.

    Returns ``None`` when the expansion would exceed *cap* disjuncts (the
    caller must then fall back to a weaker test).  NOT nodes are treated
    as opaque atoms.
    """
    if isinstance(expr, Or):
        out: list[tuple[Expr, ...]] = []
        for child in expr.children:
            child_dnf = _dnf(child, cap)
            if child_dnf is None:
                return None
            out.extend(child_dnf)
            if len(out) > cap:
                return None
        return out
    if isinstance(expr, And):
        product: list[tuple[Expr, ...]] = [()]
        for child in expr.children:
            child_dnf = _dnf(child, cap)
            if child_dnf is None:
                return None
            product = [
                existing + disjunct
                for existing in product
                for disjunct in child_dnf
            ]
            if len(product) > cap:
                return None
        return product
    if expr is TRUE:
        return [()]
    if expr is FALSE:
        return []
    return [(expr,)]


def satisfiable(expr: Expr) -> bool:
    """Sound emptiness test: ``False`` only when provably unsatisfiable.

    Expands through ORs (bounded DNF) and checks each disjunct's
    per-column domain constraints, so contradictions like
    ``custid >= 200 AND custid < 400 AND (custid < 200 OR custid >= 400)``
    are detected.  Residual conjuncts (joins, NOTs) are assumed
    satisfiable.
    """
    simplified = expr.simplify()
    if simplified is FALSE:
        return False
    disjuncts = _dnf(simplified)
    if disjuncts is None:
        return True  # too wide to expand: assume satisfiable
    for conjuncts in disjuncts:
        constraints, _residual, ok = analyze_conjunction(list(conjuncts))
        if not ok:
            continue
        if all(not c.is_empty() for c in constraints.values()):
            return True
    return False


def restriction_overlaps(a: Expr, b: Expr) -> bool:
    """Sound satisfiability test for ``a AND b``.

    Returns ``False`` only when the conjunction is *provably* empty (e.g.
    ``office='Corfu' AND office='Myconos'``); ``True`` means "may overlap".
    Fragment pruning and union-disjointness checks rely on this.
    """
    return satisfiable(conjoin([a, b]))


def enumerate_assignments(
    cols: Sequence[Column], values: Sequence[Value]
) -> Iterable[dict[Column, Value]]:
    """All assignments of *values* to *cols* (testing helper)."""
    for combo in itertools.product(values, repeat=len(cols)):
        yield dict(zip(cols, combo))
