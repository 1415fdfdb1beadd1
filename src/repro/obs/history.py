"""Bench history: an append-only JSONL store + regression gates.

Every ``benchmarks/bench_*.py`` writer appends one row per run —
stamped with a common envelope (``schema_version``, ``git_sha``,
``generated_at``, host ``cpu_count``) plus the benchmark's headline
metrics — to ``benchmarks/results/bench_history.jsonl``.  The same
envelope stamps the ``BENCH_*.json`` files themselves, so any artifact
can be traced back to the commit and host that produced it.

``repro bench-check`` loads the store, takes the latest row per
benchmark, and applies the static regression gates below (the same
thresholds the writers enforce inline), optionally adding a relative
drift check against the previous row from a same-CPU-count host.  CI
runs it after the bench steps and fails the job on any violation.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "DEFAULT_HISTORY_PATH",
    "run_envelope",
    "BenchHistory",
    "Gate",
    "DEFAULT_GATES",
    "check_gates",
    "check_drift",
    "render_check",
]

#: Bump when the envelope/row shape changes.
HISTORY_SCHEMA_VERSION = 1

#: Store location, relative to the repository root.
DEFAULT_HISTORY_PATH = "benchmarks/results/bench_history.jsonl"


def _git_sha() -> str | None:
    """The short HEAD sha, or ``None`` outside a git checkout.

    Never raises: a missing ``git`` binary, a non-repo working
    directory, or a hung subprocess all degrade to the ``GITHUB_SHA``
    environment fallback and then to ``None`` — bench artifacts stay
    writable from exported tarballs.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GITHUB_SHA", "")[:12] or None


def run_envelope() -> dict[str, Any]:
    """The common provenance stamp for bench artifacts and history rows."""
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "cpu_count": os.cpu_count() or 1,
    }


class BenchHistory:
    """The append-only JSONL store of benchmark headline metrics."""

    def __init__(self, path: str | Path = DEFAULT_HISTORY_PATH):
        self.path = Path(path)

    def append(
        self,
        bench: str,
        metrics: dict[str, Any],
        envelope: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Append one run's row; returns the row written."""
        row = dict(envelope or run_envelope())
        row["bench"] = bench
        row["metrics"] = metrics
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        return row

    def load(self) -> list[dict[str, Any]]:
        """All rows, oldest first (missing store = empty history)."""
        if not self.path.exists():
            return []
        rows = []
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # a torn append must not poison the store
        return rows

    def latest(self) -> dict[str, dict[str, Any]]:
        """The most recent row per benchmark name."""
        latest: dict[str, dict[str, Any]] = {}
        for row in self.load():
            latest[row.get("bench", "?")] = row
        return latest

    def previous(
        self, bench: str, cpu_count: int | None = None
    ) -> dict[str, Any] | None:
        """The second-most-recent row for *bench* (same-CPU host when
        ``cpu_count`` is given) — the drift-check baseline."""
        rows = [r for r in self.load() if r.get("bench") == bench]
        if cpu_count is not None:
            rows = [r for r in rows if r.get("cpu_count") == cpu_count]
        return rows[-2] if len(rows) >= 2 else None


# ----------------------------------------------------------------------
_OPS: dict[str, Callable[[float, float], bool]] = {
    "lt": lambda v, b: v < b,
    "le": lambda v, b: v <= b,
    "gt": lambda v, b: v > b,
    "ge": lambda v, b: v >= b,
    "eq": lambda v, b: v == b,
}


@dataclass(frozen=True)
class Gate:
    """One static threshold on a benchmark's headline metric."""

    bench: str
    metric: str
    op: str
    bound: float

    def describe(self) -> str:
        sign = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "=="}
        return f"{self.metric} {sign[self.op]} {self.bound:g}"


#: The same thresholds the bench writers enforce inline.
DEFAULT_GATES = (
    Gate("enumeration", "eight_join_speedup", "ge", 3.0),
    Gate("obs_overhead", "worst_null_overhead", "lt", 0.05),
    Gate("obs_overhead", "causal_overhead", "lt", 0.05),
    Gate("obs_overhead", "live_overhead", "lt", 0.10),
    Gate("faults", "ef1_cost_stable", "eq", 1),
    Gate("mqo", "hit_rate_ratio", "ge", 5.0),
    Gate("mqo", "aggregate_cost_improved", "eq", 1),
)


def check_gates(
    latest: dict[str, dict[str, Any]],
    gates=DEFAULT_GATES,
) -> list[dict[str, Any]]:
    """Evaluate *gates* against the latest row per bench.

    Returns one verdict dict per gate: ``status`` is ``"ok"``,
    ``"FAIL"``, or ``"missing"`` (no row / metric recorded yet — not a
    failure: a partial CI matrix only appends the benches it ran).
    """
    verdicts = []
    for gate in gates:
        row = latest.get(gate.bench)
        verdict = {
            "bench": gate.bench,
            "gate": gate.describe(),
            "value": None,
            "status": "missing",
        }
        if row is not None:
            metrics = row.get("metrics", {})
            value = metrics.get(gate.metric)
            verdict["value"] = value
            if value is not None:
                passed = _OPS[gate.op](value, gate.bound)
                verdict["status"] = "ok" if passed else "FAIL"
        verdicts.append(verdict)
    return verdicts


def check_drift(
    history: BenchHistory,
    latest: dict[str, dict[str, Any]],
    regress_pct: float,
    metrics=(("enumeration", "eight_join_speedup"),),
) -> list[dict[str, Any]]:
    """Relative regression vs the previous same-CPU-host row.

    Higher-is-better metrics only: a drop of more than *regress_pct*
    (fractional, e.g. ``0.5`` = half) against the previous recorded
    value from a host with the same CPU count fails.  No comparable
    baseline -> missing.
    """
    verdicts = []
    for bench, metric in metrics:
        row = latest.get(bench)
        verdict = {
            "bench": bench,
            "gate": f"{metric} drift <= {regress_pct:.0%}",
            "value": None,
            "status": "missing",
        }
        if row is not None:
            value = row.get("metrics", {}).get(metric)
            baseline_row = history.previous(bench, row.get("cpu_count"))
            baseline = (
                baseline_row.get("metrics", {}).get(metric)
                if baseline_row is not None
                else None
            )
            if value is not None and baseline:
                drop = 1.0 - value / baseline
                verdict["value"] = round(drop, 4)
                verdict["status"] = "ok" if drop <= regress_pct else "FAIL"
        verdicts.append(verdict)
    return verdicts


def render_check(
    latest: dict[str, dict[str, Any]], verdicts: list[dict[str, Any]]
) -> str:
    """A terminal table of the latest rows and every gate verdict."""
    out = ["bench history check:"]
    for bench, row in sorted(latest.items()):
        out.append(
            f"  {bench}: sha={row.get('git_sha', '?')} "
            f"at={row.get('generated_at', '?')} "
            f"cpus={row.get('cpu_count', '?')}"
        )
    out.append("")
    width = max((len(v["bench"]) for v in verdicts), default=5)
    for verdict in verdicts:
        value = verdict["value"]
        shown = f"{value:.4g}" if isinstance(value, (int, float)) else "-"
        out.append(
            f"  {verdict['bench']:<{width}}  {verdict['gate']:<32} "
            f"value={shown:<10} {verdict['status']}"
        )
    return "\n".join(out)
