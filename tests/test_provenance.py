"""Tier-1 coverage of the negotiation provenance engine.

Pins the contracts ``docs/OBSERVABILITY.md`` promises for the decision
ledger, ``explain``, trace diffing, and the bench-history store:

* **ledger determinism** — the :class:`NegotiationLedger` rebuilt from a
  traced run is byte-identical across repeated same-seed runs and
  under the example fault plan;
* **explain fidelity** — every awarded commodity names its winning
  site, settled price, and runner-up margin, and the JSON form is
  byte-identical across repeated runs;
* **diff precision** — self-comparison of a deterministic trace is
  empty, and a synthetically perturbed trace is pinpointed at the exact
  injected record and field;
* **gzip determinism** — ``.jsonl.gz`` exports are byte-identical
  across writes and load back to the same rows;
* **history gates** — the append-only bench-history store round-trips
  and the gate checker passes/fails/reports missing as specified.
"""

import gzip
import itertools
import json
import pathlib

import pytest

import repro.trading.commodity as commodity
from repro.bench.harness import build_world, run_qt
from repro.faults import FaultPlan
from repro.net import Network
from repro.obs import (
    BenchHistory,
    Gate,
    NegotiationLedger,
    Tracer,
    check_drift,
    check_gates,
    diff_records,
    diff_rows,
    explain,
    jsonl_lines,
    load_trace,
    run_envelope,
    write_jsonl,
)
from repro.trading import (
    BiddingProtocol,
    BuyerPlanGenerator,
    OfferCache,
    QueryTrader,
)
from repro.workload import chain_query

FAULT_PLAN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples"
    / "fault_plan.json"
)


def _trade(tracer: Tracer | None = None):
    """One small deterministic negotiation; returns the TradingResult."""
    commodity._offer_ids = itertools.count(1)
    world = build_world(nodes=8, n_relations=4, fragments=4, replicas=2,
                        seed=7)
    query = chain_query(3, selection_cat=3)
    network = Network(world.model)
    if tracer is not None:
        network.attach_tracer(tracer)
    trader = QueryTrader(
        "client",
        world.seller_agents(offer_cache=OfferCache()),
        network,
        BuyerPlanGenerator(world.builder, "client"),
        protocol=BiddingProtocol(),
    )
    return trader.optimize(query)


# ----------------------------------------------------------------------
# Ledger construction and determinism
# ----------------------------------------------------------------------
def test_ledger_attached_and_populated():
    result = _trade(tracer=Tracer())
    ledger = result.ledger
    assert ledger is not None
    assert result.found
    assert ledger.trades and ledger.rounds
    assert ledger.awards, "awarded contracts must appear in the ledger"
    awarded_ids = {a["offer"] for a in ledger.awards}
    assert awarded_ids == {c.offer.offer_id for c in result.contracts}
    for award in ledger.awards:
        entry = ledger.offer(award["offer"])
        assert entry["awarded"] and entry["seller"] == award["seller"]
        assert entry["price"] is not None
    # Ranking edges reference known offers.
    for edge in ledger.rankings:
        assert edge["winner"] in ledger.offers
    # describe() renders without error and names the award count.
    assert str(len(ledger.awards)) in ledger.describe()


def test_no_ledger_without_tracer():
    result = _trade()
    assert result.ledger is None


def test_ledger_byte_identical_across_runs():
    first = _trade(tracer=Tracer()).ledger.to_json()
    repeat = _trade(tracer=Tracer()).ledger.to_json()
    assert first == repeat


def test_ledger_byte_identical_under_fault_plan():
    def run():
        commodity._offer_ids = itertools.count(1)
        world = build_world(nodes=8, n_relations=3, fragments=4,
                            replicas=2, seed=7)
        query = chain_query(3, selection_cat=3)
        tracer = Tracer()
        run_qt(
            world, query, fault_plan=FaultPlan.from_file(str(FAULT_PLAN)),
            timeout=0.05, offer_cache=OfferCache(), tracer=tracer,
        )
        return NegotiationLedger.from_records(tracer.records)

    first, second = run(), run()
    assert first.to_json() == second.to_json()
    # The fault machinery engaged: this is not a vacuous pass.
    assert first.faults


def test_ledger_from_rows_matches_from_records():
    tracer = Tracer()
    _trade(tracer=tracer)
    rows = [json.loads(line) for line in jsonl_lines(tracer.records)]
    from_rows = NegotiationLedger.from_rows(rows)
    from_records = NegotiationLedger.from_records(tracer.records)
    assert from_rows.to_json() == from_records.to_json()


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------
def test_explain_names_winner_price_and_runner_up():
    result = _trade(tracer=Tracer())
    audit = explain(result)
    assert audit.found
    assert len(audit.commodities) == len(result.contracts)
    by_offer = {c.offer.offer_id: c for c in result.contracts}
    for item in audit.commodities:
        contract = by_offer[item.offer_id]
        assert item.winner == contract.seller
        assert item.price == pytest.approx(contract.offer.properties.money)
        if item.runner_up is not None:
            assert item.margin is not None
            assert item.margin >= 0  # the winner was never outvalued
    rendered = audit.render()
    for item in audit.commodities:
        assert item.winner in rendered


def test_explain_json_identical_across_runs():
    first = explain(_trade(tracer=Tracer())).to_json()
    repeat = explain(_trade(tracer=Tracer())).to_json()
    assert first == repeat


def test_explain_subquery_filter_and_errors():
    result = _trade(tracer=Tracer())
    full = explain(result)
    some_query = full.commodities[0].query
    filtered = explain(result, subquery=some_query)
    assert filtered.commodities
    assert all(some_query in c.query for c in filtered.commodities)
    none = explain(result, subquery="no-such-subquery")
    assert not none.commodities
    with pytest.raises(ValueError):
        explain(_trade())  # no ledger recorded


# ----------------------------------------------------------------------
# Trace diffing
# ----------------------------------------------------------------------
def _deterministic_rows(tracer: Tracer) -> list[dict]:
    return [json.loads(line) for line in jsonl_lines(tracer.records)]


def test_diff_self_compare_is_empty():
    tracer = Tracer()
    _trade(tracer=tracer)
    rows = _deterministic_rows(tracer)
    diff = diff_rows(rows, rows)
    assert diff.identical
    assert "identical" in diff.render()

    other = Tracer()
    _trade(tracer=other)
    assert diff_records(tracer.records, other.records).identical


def test_diff_pinpoints_injected_perturbation():
    tracer = Tracer()
    _trade(tracer=tracer)
    rows = _deterministic_rows(tracer)
    perturbed = [dict(r) for r in rows]
    index = 17
    perturbed[index] = dict(
        perturbed[index],
        args=dict(perturbed[index].get("args") or {}, money=123.456),
    )
    diff = diff_rows(rows, perturbed)
    assert not diff.identical
    assert diff.index == index
    assert any("args.money" in delta["path"] for delta in diff.fields)
    rendered = diff.render()
    assert f"record {index}" in rendered
    assert "123.456" in rendered


def test_diff_reports_truncation():
    tracer = Tracer()
    _trade(tracer=tracer)
    rows = _deterministic_rows(tracer)
    diff = diff_rows(rows, rows[:-5])
    assert not diff.identical
    assert diff.index == len(rows) - 5
    assert diff.b is None


# ----------------------------------------------------------------------
# Gzip trace export
# ----------------------------------------------------------------------
def test_gzip_export_roundtrip_and_determinism(tmp_path):
    tracer = Tracer()
    _trade(tracer=tracer)
    plain = tmp_path / "run.jsonl"
    zipped = tmp_path / "run.jsonl.gz"
    again = tmp_path / "again.jsonl.gz"
    write_jsonl(tracer.records, plain)
    write_jsonl(tracer.records, zipped)
    write_jsonl(tracer.records, again)
    assert zipped.read_bytes()[:2] == b"\x1f\x8b"
    # mtime/filename are pinned, so two writes are byte-identical.
    assert zipped.read_bytes() == again.read_bytes()
    assert gzip.decompress(zipped.read_bytes()) == plain.read_bytes()
    assert load_trace(str(zipped)) == load_trace(str(plain))


# ----------------------------------------------------------------------
# Bench history
# ----------------------------------------------------------------------
def test_history_append_load_latest(tmp_path):
    store = BenchHistory(tmp_path / "hist.jsonl")
    assert store.load() == []
    envelope = run_envelope()
    assert set(envelope) == {
        "schema_version", "git_sha", "generated_at", "cpu_count",
    }
    store.append("alpha", {"speedup": 3.0}, envelope=envelope)
    store.append("beta", {"overhead": 0.01}, envelope=envelope)
    store.append("alpha", {"speedup": 4.0}, envelope=envelope)
    rows = store.load()
    assert len(rows) == 3
    assert all(r["schema_version"] == envelope["schema_version"]
               for r in rows)
    latest = store.latest()
    assert latest["alpha"]["metrics"]["speedup"] == 4.0
    assert latest["beta"]["metrics"]["overhead"] == 0.01
    prev = store.previous("alpha", envelope["cpu_count"])
    assert prev is not None and prev["metrics"]["speedup"] == 3.0


def test_history_skips_torn_lines(tmp_path):
    path = tmp_path / "hist.jsonl"
    store = BenchHistory(path)
    store.append("alpha", {"x": 1})
    with open(path, "a") as handle:
        handle.write('{"torn": \n')
    assert len(store.load()) == 1


def test_check_gates_pass_fail_skip_missing():
    gates = (
        Gate("a", "speedup", "ge", 2.0),
        Gate("b", "overhead", "lt", 0.05),
        Gate("c", "speedup", "ge", 2.0),
        Gate("d", "anything", "ge", 0.0),
    )
    latest = {
        "a": {"metrics": {"speedup": 3.0}},
        "b": {"metrics": {"overhead": 0.2}},
        # No metric can excuse a gate: there is no "skipped" status.
        "c": {"metrics": {"speedup": 0.5, "enforced": False}},
    }
    verdicts = {v["bench"]: v["status"] for v in check_gates(latest, gates)}
    assert verdicts == {
        "a": "ok", "b": "FAIL", "c": "FAIL", "d": "missing",
    }


def test_check_drift(tmp_path):
    store = BenchHistory(tmp_path / "hist.jsonl")
    envelope = run_envelope()
    store.append("enumeration", {"eight_join_speedup": 6.0},
                 envelope=envelope)
    store.append("enumeration", {"eight_join_speedup": 2.0},
                 envelope=envelope)
    verdicts = check_drift(store, store.latest(), regress_pct=0.5)
    drifted = [v for v in verdicts if v["status"] == "FAIL"]
    assert drifted and drifted[0]["bench"] == "enumeration"
    # A loose threshold tolerates the same drop.
    loose = check_drift(store, store.latest(), regress_pct=0.8)
    assert all(v["status"] != "FAIL" for v in loose)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
SQL = "SELECT * FROM R0 r0, R1 r1 WHERE r0.id = r1.id"
SMALL = ["--nodes", "4", "--relations", "2", "--rows", "400"]


def test_cli_explain_json(capsys):
    from repro.cli import main

    assert main(["explain", SQL, *SMALL, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"]
    assert payload["commodities"]
    for item in payload["commodities"]:
        assert item["winner"] and item["price"] is not None


def test_cli_trade_trace_out_gz_and_diff(tmp_path, capsys):
    from repro.cli import main

    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl.gz"
    assert main(["trade", SQL, *SMALL, "--trace-out", str(a)]) == 0
    assert main(["trade", SQL, *SMALL, "--trace-out", str(b)]) == 0
    capsys.readouterr()
    assert main(["diff-trace", str(a), str(b)]) == 0
    assert "identical" in capsys.readouterr().out

    perturbed = tmp_path / "c.jsonl"
    rows = load_trace(str(a))
    rows[5] = dict(rows[5], site="intruder")
    with open(perturbed, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    assert main(["diff-trace", str(a), str(perturbed)]) == 1
    assert "record 5" in capsys.readouterr().out
    assert main(["diff-trace", str(a), str(tmp_path / "missing.jsonl")]) == 2


def test_cli_report_directory(tmp_path, capsys):
    from repro.cli import main

    assert main(["trade", SQL, *SMALL,
                 "--trace-out", str(tmp_path / "a.jsonl")]) == 0
    assert main(["trade", SQL, *SMALL,
                 "--trace-out", str(tmp_path / "b.jsonl.gz")]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cross-run report: 2 trace(s)" in out
    assert "a.jsonl" in out and "b.jsonl.gz" in out


def test_cli_bench_check(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "hist.jsonl"
    assert main(["bench-check", "--history", str(path)]) == 2

    store = BenchHistory(path)
    store.append("enumeration", {"eight_join_speedup": 6.0})
    assert main(["bench-check", "--history", str(path)]) == 0
    assert "enumeration" in capsys.readouterr().out

    store.append("enumeration", {"eight_join_speedup": 1.0})
    assert main(["bench-check", "--history", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] >= 1
