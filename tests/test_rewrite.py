"""Unit tests for the seller query-rewrite algorithm (Section 3.4)."""

import pytest

from repro.sql import column, eq, in_list
from repro.sql.expr import TRUE, gt, implies, restriction_overlaps
from repro.sql.rewrite import (
    OVERLAP_MEMO_SIZE,
    _overlap_memo,
    compatible_coverage,
    coverage_restriction,
    fragment_overlaps,
    rewrite_query,
)
from repro.sql.schema import PartitionScheme


@pytest.fixture
def world(telecom):
    catalog = telecom.catalog
    return catalog.schemas, catalog.schemes


def manager_query(telecom):
    return telecom.manager_query()


class TestPaperExample:
    def test_myconos_rewrite(self, telecom, world):
        """The paper's §3.4 example: Myconos holds the whole invoiceline
        table but only its own customer partition; the rewrite adds the
        office='Myconos' restriction and keeps the aggregate."""
        schemas, schemes = world
        query = telecom.manager_query()
        held = telecom.catalog.held_by("Myconos")
        result = rewrite_query(query, schemas, schemes, held)
        assert result is not None
        assert result.dropped == frozenset()
        assert result.exact_projections
        # customer restricted to the Myconos fragment only
        assert result.coverage["c"] == frozenset({2})
        # invoiceline fully covered
        assert result.coverage["i"] == schemes["invoiceline"].fragment_ids
        # the WHERE clause was simplified: office IN (...) AND office =
        # 'Myconos' collapses to the equality
        office = column("c", "office")
        assert eq(office, "Myconos") in result.query.predicate.conjuncts()
        assert not any(
            c for c in result.query.predicate.conjuncts()
            if c != eq(office, "Myconos") and c.columns() == frozenset({office})
        )

    def test_athens_cannot_contribute_customers(self, telecom, world):
        """Athens holds only office='Athens' customers, disjoint from the
        query's IN-list; with invoiceline replicated it still offers the
        invoice side."""
        schemas, schemes = world
        query = telecom.manager_query()
        held = telecom.catalog.held_by("Athens")
        result = rewrite_query(query, schemas, schemes, held)
        assert result is not None
        assert "c" in result.dropped
        assert set(result.coverage) == {"i"}
        assert not result.exact_projections  # degraded to SELECT *

    def test_node_with_nothing(self, telecom, world):
        schemas, schemes = world
        query = telecom.manager_query()
        assert rewrite_query(query, schemas, schemes, {}) is None


class TestAggregateSafety:
    def test_partial_aggregate_kept_when_partition_attr_grouped(
        self, telecom, world
    ):
        schemas, schemes = world
        query = telecom.manager_query()
        held = {"customer": frozenset({1}), "invoiceline": frozenset({0})}
        result = rewrite_query(query, schemas, schemes, held)
        assert result is not None
        assert result.exact_projections
        assert result.query.has_aggregates

    def test_partial_aggregate_dropped_when_not_aligned(
        self, telecom_colocated
    ):
        """With invoiceline range-partitioned on custid (not grouped), a
        node holding a slice must ship raw rows, not partial sums."""
        catalog = telecom_colocated.catalog
        query = telecom_colocated.manager_query()
        held = catalog.held_by("Myconos")
        result = rewrite_query(query, catalog.schemas, catalog.schemes, held)
        assert result is not None
        assert not result.exact_projections
        assert result.query.is_star

    def test_avg_never_survives_partial(self, telecom, world):
        from repro.sql import Aggregate, SPJQuery

        schemas, schemes = world
        base = telecom.manager_query()
        query = SPJQuery(
            relations=base.relations,
            predicate=base.predicate,
            projections=(
                column("c", "office"),
                Aggregate("avg", column("i", "charge"), "avg_charge"),
            ),
            group_by=base.group_by,
        )
        held = telecom.catalog.held_by("Myconos")
        result = rewrite_query(query, schemas, schemes, held)
        assert result is not None
        assert not result.exact_projections


class TestCoverageSemantics:
    def test_rewritten_predicate_implies_original_selection(
        self, telecom, world
    ):
        schemas, schemes = world
        query = telecom.manager_query()
        for node in telecom.nodes:
            held = telecom.catalog.held_by(node)
            result = rewrite_query(query, schemas, schemes, held)
            if result is None or "c" in result.dropped:
                continue
            assert implies(
                result.query.predicate, query.selection_on("c")
            )

    def test_coverage_restriction_builds_conjunct(self, telecom, world):
        schemas, schemes = world
        query = telecom.manager_query()
        restriction = coverage_restriction(
            query, schemes, {"c": frozenset({1, 2})}
        )
        office = column("c", "office")
        assert restriction.evaluate({office: "Corfu"})
        assert not restriction.evaluate({office: "Athens"})

    def test_unsatisfiable_rewrite_returns_none(self, telecom, world):
        schemas, schemes = world
        query = telecom.manager_query(offices=("Santorini",))
        # Corfu only holds Corfu customers; with invoiceline present the
        # customer side is incompatible so it gets dropped, leaving the
        # invoice side — but a node holding ONLY incompatible customers
        # returns None.
        held = {"customer": frozenset({1})}
        assert rewrite_query(query, schemas, schemes, held) is None

    def test_full_coverage_is_total(self, telecom, world):
        schemas, schemes = world
        query = telecom.manager_query()
        held = {
            "customer": schemes["customer"].fragment_ids,
            "invoiceline": schemes["invoiceline"].fragment_ids,
        }
        result = rewrite_query(query, schemas, schemes, held)
        assert result is not None and result.is_total


class TestCompatibleCoverage:
    def test_is_the_rewrite_coverage(self, telecom, world):
        schemas, schemes = world
        query = telecom.manager_query(offices=("Corfu",))
        held = {name: scheme.fragment_ids for name, scheme in schemes.items()}
        coverage = compatible_coverage(query, schemes, held)
        result = rewrite_query(query, schemas, schemes, held)
        assert coverage == dict(result.coverage)
        assert all(coverage.values())

    def test_overlap_memo_tells_int_from_float_literals(self):
        # Fragment 1 is 1 <= id < 2: empty under id > 1 over integers,
        # not under id > 1.0 — yet the two selections compare equal.
        fragment = PartitionScheme.by_range("R", "id", [1, 2]).fragment(1)
        as_int, as_float = gt(column("r", "id"), 1), gt(column("r", "id"), 1.0)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        for selection in (as_int, as_float, as_int, as_float):
            assert fragment_overlaps(selection, fragment, "r") == (
                restriction_overlaps(
                    selection, fragment.restriction_for("r")
                )
            )
        assert not fragment_overlaps(as_int, fragment, "r")
        assert fragment_overlaps(as_float, fragment, "r")

    def test_overlap_memo_stays_bounded(self):
        fragment = PartitionScheme.by_range("R", "id", [10]).fragment(0)
        for bound in range(10 * OVERLAP_MEMO_SIZE):
            assert fragment_overlaps(
                gt(column("r", "id"), bound), fragment, "r"
            ) == (bound < 9)
            assert _overlap_memo.cache_info().currsize <= OVERLAP_MEMO_SIZE
        assert _overlap_memo.cache_info().maxsize == OVERLAP_MEMO_SIZE
