"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main
from repro.parallel import shutdown_pools


class TestTrade:
    def test_trade_and_execute(self, capsys):
        code = main(
            [
                "trade",
                "SELECT r0.part, SUM(r0.val) AS t FROM R0 r0 "
                "WHERE r0.cat = 3 GROUP BY r0.part",
                "--nodes", "4",
                "--relations", "1",
                "--rows", "400",
                "--execute",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "contracts:" in out
        assert "MATCH" in out

    def test_trade_idp_mode(self, capsys):
        code = main(
            [
                "trade",
                "SELECT * FROM R0 r0, R1 r1 WHERE r0.ref0 = r1.id",
                "--nodes", "4",
                "--relations", "2",
                "--rows", "400",
                "--plangen", "idp",
            ]
        )
        assert code == 0
        assert "plan (estimated response time" in capsys.readouterr().out

    def test_bad_sql(self, capsys):
        code = main(["trade", "SELECT FROM WHERE", "--nodes", "4"])
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_trade_with_fault_plan(self, capsys, tmp_path):
        from repro.faults import FaultPlan

        plan_file = tmp_path / "plan.json"
        FaultPlan.uniform(drop_rate=0.1, seed=11).to_file(plan_file)
        code = main(
            [
                "trade",
                "SELECT * FROM R0 r0 WHERE r0.cat = 3",
                "--nodes", "4",
                "--relations", "1",
                "--rows", "400",
                "--fault-plan", str(plan_file),
                "--execute",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults:" in out
        assert "MATCH" in out

    def test_trade_with_bad_fault_plan(self, capsys, tmp_path):
        plan_file = tmp_path / "bad.json"
        plan_file.write_text('{"chaos": true}')
        code = main(
            [
                "trade",
                "SELECT * FROM R0 r0",
                "--nodes", "4",
                "--relations", "1",
                "--fault-plan", str(plan_file),
            ]
        )
        assert code == 2
        assert "cannot load fault plan" in capsys.readouterr().err


class TestTelecom:
    def test_runs(self, capsys):
        code = main(["telecom", "--offices", "3", "--customers", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan cost" in out
        assert "Corfu" in out  # the manager's offices appear in results


class TestExperiment:
    def test_unknown_id(self, capsys):
        code = main(["experiment", "E99"])
        assert code == 2
        assert "unknown" in capsys.readouterr().err

    def test_none_selected(self, capsys):
        code = main(["experiment"])
        assert code == 2

    def test_runs_one(self, capsys):
        code = main(["experiment", "e9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[E9]" in out

    def test_workers_print_the_serial_bytes(self, capsys):
        """Whole experiments farmed out to two worker processes print
        the same bytes, in id order, as one process running them in
        turn."""
        ids = ["E3", "E5", "E-F1"]
        try:
            assert main(["experiment", *ids, "--workers", "2"]) == 0
            pooled = capsys.readouterr()
        finally:
            shutdown_pools()
        assert pooled.err == ""  # the pool ran; no serial fallback
        assert main(["experiment", *ids]) == 0
        assert pooled.out == capsys.readouterr().out

    def test_registry_complete(self):
        expected = {f"E{i}" for i in range(1, 15)}
        expected |= {"E-F1", "E-F2", "E-F3"}
        assert set(EXPERIMENTS) == expected


class TestList:
    def test_lists_all(self, capsys):
        code = main(["list-experiments"])
        out = capsys.readouterr().out
        assert code == 0
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out
