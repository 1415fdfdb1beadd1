"""Self-test of the benchmark harness (not of the program it measures).

Run explicitly: ``python3 -m pytest benchmarks/e2e -q``.  Tier-1
``testpaths`` is ``tests/`` and does not collect this file.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import compare
import inputs
import spans
import spec
import trade
from measure import check_span_arithmetic
from stats import per_input_best, percentile

RUN = [sys.executable, str(spec.HERE / "run.py")]
CONTRACT = spec.contract()


def start_smoke(workload: str, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [*RUN, "--workload", workload, "--smoke", "--seed", "5",
         "--seconds", "1", *extra],
        stdout=subprocess.PIPE, text=True,
    )


def finish_smoke(process: subprocess.Popen) -> tuple[int, dict | None]:
    """(exit code, last-line JSON or None) of one ``--smoke`` run."""
    stdout, _ = process.communicate(timeout=170)
    try:
        return process.returncode, json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return process.returncode, None


@pytest.fixture(scope="module")
def smoke_runs():
    """Every (workload, trace) smoke run, started together: nothing here
    asserts a timing, and side by side they take a third of the time."""
    started = {
        (workload, trace): start_smoke(workload, "--trace", trace)
        for workload in spec.SIZES
        for trace in ("0", "1")
    }
    try:
        return {key: finish_smoke(process) for key, process in started.items()}
    finally:
        for process in started.values():
            if process.poll() is None:
                process.kill()
                process.wait()


# -- the contract ---------------------------------------------------------
def test_benchmark_json_meets_the_driver_contract():
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    raw = json.loads(spec.BENCHMARK_JSON.read_text())
    assert set(raw) == keys
    assert raw["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in raw["workloads"]] == list(spec.SIZES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in raw["workloads"])
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = [m["name"] for m in raw["end_to_end"] + raw["per_layer"]]
    assert len(seen) == len(set(seen))
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in raw["end_to_end"] + raw["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = CONTRACT["end_to_end_by_name"]["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(spec.EXACT) <= set(CONTRACT["end_to_end_by_name"])
    runs = 4 + 22 * len(raw["workloads"])
    assert 1 <= raw["run_seconds"] <= 60 and runs * raw["run_seconds"] < 3420


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(spec.SIZES))
def test_smoke_run_emits_exactly_the_named_metrics(smoke_runs, workload, trace):
    code, verdict = smoke_runs[workload, trace]
    assert code == 0 and verdict is not None
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] is True
    assert verdict["attempted"] >= 1 and verdict["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = CONTRACT[section + "_by_name"]
    assert set(verdict["metrics"]) == set(declared)
    for name, metric in verdict["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], (int, float))
        if section == "end_to_end":
            assert metric["value"] > 0


def test_a_wrong_expected_value_fails_the_run():
    code, verdict = finish_smoke(
        start_smoke("trade_wide", "--expect-digest", "0" * 64)
    )
    assert code != 0
    assert verdict is not None and verdict["correct"] is False


def test_a_checkout_without_the_program_prints_no_result(tmp_path):
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        spec.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "trade_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_serve_world_is_the_cli_default():
    from repro.cli import _build_parser

    args = _build_parser().parse_args(["serve"])
    assert spec.SERVE_WORLD == dict(
        nodes=args.nodes, n_relations=args.relations, rows=args.rows,
        fragments=args.fragments, replicas=args.replicas, seed=args.seed,
    )


# -- statistics -----------------------------------------------------------
def test_percentile_known_answers():
    assert percentile([5.0], 0.95) == 5.0
    assert percentile([4, 1, 3, 2], 0.5) == 2.5
    assert percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert percentile(list(range(101)), 0.95) == 95
    assert percentile([0, 10], 0.95) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_per_input_best_known_answers():
    passes = [[1.0, 30.0, 5.0], [3.0, 10.0, None], [2.0, 20.0, 5.0]]
    assert per_input_best(passes) == [1.0, 10.0, None]
    assert per_input_best([[4.0], [2.0], [8.0]]) == [2.0]
    with pytest.raises(ValueError):
        per_input_best([[1.0, 2.0], [1.0]])


# -- inputs ---------------------------------------------------------------
@pytest.mark.parametrize("workload", list(spec.SIZES))
def test_inputs_are_a_function_of_the_seed_and_parse(workload):
    sizes = spec.sizes(workload)

    def deck(seed, stream="measured"):
        return inputs.deck(sizes, seed, stream)

    assert "\n".join(deck(11)).encode() == "\n".join(deck(11)).encode()
    # a two-input deck has one constant and one order to vary: few
    # distinct decks, but more than one
    distinct = {tuple(deck(seed)) for seed in range(20)}
    assert len(distinct) == 20 if sizes["inputs"] >= 30 else len(distinct) > 1
    assert {tuple(deck(seed, "warmup")) for seed in range(20)} != distinct
    # the mix is exact: every seed draws the same shapes
    def shape(sql):
        return (sql.count(" r"), "GROUP BY" in sql, ".cat =" in sql)

    assert sorted(map(shape, deck(11))) == sorted(map(shape, deck(12)))
    world = trade.build_world(sizes)
    for sql in deck(11) + deck(12, "warmup"):
        trade.parse(world, sql)


def test_arrival_schedule_is_frozen_and_carries_the_stated_load():
    a = inputs.arrival_schedule(36, 8.0)
    assert a == inputs.arrival_schedule(36, 8.0)
    assert len(a) == 36 and a == sorted(a)
    assert 0.0 < a[0] and a[-1] == pytest.approx(36 / 8.0, rel=0.02)
    gaps = sorted(b - a for a, b in zip([0.0] + a, a))
    assert gaps[18] == pytest.approx(0.693 / 8.0, rel=0.1)  # exponential median


# -- spans ----------------------------------------------------------------
def test_span_self_times_sum_to_their_root():
    recorder = spans.Recorder()

    def leaf_call():
        return sum(range(200))

    def child():
        return [leaf_call() for _ in range(5)]

    def root():
        child()
        child()
        return "done"

    leaf_call = recorder.wrap(leaf_call, "leaf", leaf=True)
    child = recorder.wrap(
        child, "child", counters=lambda args, result: {"items": len(result)}
    )
    root = recorder.wrap(root, "root")
    with recorder.operation("op"):
        assert root() == "done"
        root()
    totals = recorder.ops["op"]
    assert {name: row[0] for name, row in totals["spans"].items()} == {
        "root": 2, "child": 4, "leaf": 20,
    }
    assert totals["counters"] == {"items": 20}
    failures: list[str] = []
    check_span_arithmetic(recorder.ops, failures)
    assert failures == []
    assert totals["root_s"] == pytest.approx(totals["spans"]["root"][1])
    # a child's time is inside its parent's, a leaf leaves no record
    flat = [r for op, tree in recorder.records for r in tree]
    by_id = {r[0]: r for r in flat}
    assert len(flat) == 6 and all(r[2] != "leaf" for r in flat)
    for span_id, parent, name, start, end in flat:
        if parent is not None:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]
    lines = [json.loads(line) for line in recorder.span_lines()]
    assert sum("id" in line for line in lines) == 6
    assert {line["totals"] for line in lines if "totals" in line} == {
        "root", "child", "leaf",
    }
    totals["spans"]["child"][2] += 1.0
    check_span_arithmetic(recorder.ops, failures)
    assert failures


def test_install_restores_the_program():
    from repro.trading.trader import QueryTrader

    original = QueryTrader.optimize
    with spans.install(spans.Recorder()):
        assert QueryTrader.optimize is not original
    assert QueryTrader.optimize is original


# -- compare --------------------------------------------------------------
def _result(value: float, digest: str = "d", seed: int = 11, extra=None) -> dict:
    metrics = {"op_ms_p50": {"value": value, "unit": "ms"},
               "plan_cost_mean": {"value": 0.5, "unit": "sim_s"}}
    metrics.update(extra or {})
    return {"trade_wide": {
        "correct": True, "failed": 0, "plan_digest": digest,
        "envelope": {"seed": seed}, "metrics": metrics,
    }}


def test_compare_agrees_within_the_bound_and_not_beyond():
    bounds = {"op_ms_p50": 0.1, "plan_cost_mean": 0.02}
    assert all(r[-1] for r in compare.compare(_result(100.0), _result(109.0), bounds))
    rows = compare.compare(_result(100.0), _result(111.0), bounds)
    assert [r[1] for r in rows if not r[-1]] == ["op_ms_p50"]
    rows = compare.compare(_result(100.0), _result(100.0, digest="other"), bounds)
    assert [r[1] for r in rows if not r[-1]] == ["plan_digest"]
    drift = {"plan_cost_mean": {"value": 0.5001, "unit": "sim_s"}}
    rows = compare.compare(_result(100.0), _result(100.0, extra=drift), bounds)
    assert [r[1] for r in rows if not r[-1]] == ["plan_cost_mean"]
    # another seed: the digest is not compared, exact metrics use the bound
    rows = compare.compare(_result(100.0), _result(100.0, "x", 12, drift), bounds)
    assert all(r[-1] for r in rows)
    only = {"ops_per_s": {"value": 1.0, "unit": "1/s"}}
    rows = compare.compare(_result(100.0), _result(100.0, extra=only), bounds)
    assert [r[1] for r in rows if not r[-1]] == ["ops_per_s"]
    assert not compare.compare(_result(1.0), {}, bounds)[0][-1]
