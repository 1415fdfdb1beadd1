"""Unit tests for the benchmark harness and experiment plumbing."""

import importlib.util
import inspect
import pathlib
import sys

import pytest

from repro.bench import (
    Measurement,
    build_world,
    format_table,
    run_distdp,
    run_distidp,
    run_mariposa,
    run_qt,
)
from repro.bench.experiments import (
    ExperimentTable,
    build_split_federation_world,
    e5_message_accounting,
    e6_iteration_convergence,
    e9_materialized_views,
    e11_subcontracting,
)
from repro.workload import chain_query


@pytest.fixture(scope="module")
def world():
    return build_world(nodes=6, n_relations=2, rows=1_000, fragments=2,
                       replicas=2, seed=3)


class TestWorld:
    def test_seller_agents_exclude_buyer(self, world):
        agents = world.seller_agents()
        assert "client" not in agents
        assert len(agents) == 6

    def test_agent_kwargs_forwarded(self, world):
        agents = world.seller_agents(offer_partials=False)
        assert all(not a.offer_partials for a in agents.values())


class TestRunners:
    def test_run_qt(self, world):
        m = run_qt(world, chain_query(2))
        assert m.found and m.optimizer == "qt-dp"
        assert m.messages > 0 and m.plan_cost > 0

    def test_run_qt_idp_label(self, world):
        m = run_qt(world, chain_query(2), mode="idp")
        assert m.optimizer == "qt-idp"

    def test_run_qt_subcontracting(self):
        split = build_split_federation_world(fragments=2, rows=1_000)
        plain = run_qt(split, chain_query(2))
        sub = run_qt(split, chain_query(2), subcontracting=True)
        assert sub.plan_cost <= plain.plan_cost + 1e-9

    def test_run_distdp(self, world):
        m = run_distdp(world, chain_query(2))
        assert m.found and m.optimizer == "dist-dp"

    def test_run_distidp(self, world):
        m = run_distidp(world, chain_query(2), m=3)
        assert m.found and "idp" in m.optimizer

    def test_run_mariposa(self, world):
        m = run_mariposa(world, chain_query(2))
        assert m.found and m.optimizer == "mariposa"

    def test_measurement_row(self):
        m = Measurement("x", True, 1.5, 0.25, 10)
        row = m.row()
        assert row[0] == "x" and row[3] == 10


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "long-header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[2]
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # fixed width rows

    def test_experiment_table_helpers(self):
        table = ExperimentTable("EX", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert table.column("b") == [2, 4]
        assert "[EX] t" in table.render()
        with pytest.raises(ValueError):
            table.column("zzz")


class TestExperimentsSmoke:
    """Cheap experiments run end-to-end and report sane shapes."""

    def test_e5(self):
        table = e5_message_accounting(nodes=6)
        by_name = {row[0]: row for row in table.rows}
        assert by_name["dist-dp"][-1] < by_name["qt-dp"][-1]

    def test_e6_values_non_increasing(self):
        table = e6_iteration_convergence()
        values = [
            float(v) for v in table.column("best value") if v != "-"
        ]
        assert values == sorted(values, reverse=True)

    def test_e9_views_cheaper(self):
        table = e9_materialized_views(n_offices=3,
                                      customers_per_office=300)
        costs = [float(v) for v in table.column("plan cost")]
        assert costs[1] < costs[0]  # views on < views off

    def test_e11_subcontracting_cheaper_but_chattier(self):
        table = e11_subcontracting()
        off, on = table.rows
        assert float(on[1]) < float(off[1])  # plan cost
        assert on[2] > off[2]  # messages


def test_frozen_benchmark_contract(monkeypatch):
    """What ``benchmarks/e2e`` (not editable alongside ``src/``) needs.

    Every span target must be defined directly on its class/module, as
    ``spans.install`` resolves it; ``trade.py::_parallel_speedup`` calls
    ``run_qt(..., workers=w)`` and imports the two pool helpers.
    """
    path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks" / "e2e" / "spans.py"
    )
    spec = importlib.util.spec_from_file_location("e2e_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for @dataclass
    spec.loader.exec_module(spans)
    for target in spans.targets():
        holder = importlib.import_module(target.module)
        if target.owner is not None:
            holder = getattr(holder, target.owner)
        assert target.attr in vars(holder), (target.module, target.owner,
                                             target.attr)

    assert "workers" in inspect.signature(run_qt).parameters
    pool_helpers = importlib.import_module("repro.parallel")
    assert callable(pool_helpers.warm_pool)
    assert callable(pool_helpers.shutdown_pools)
