"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every (workload, end-to-end metric) prints both values, the
relative difference of B from A, the bound from BENCHMARK.json, and
``agree`` or ``DISAGREE``.  Two values agree when they differ by no
more than the bound, in either direction; the metrics in ``spec.EXACT``
and the ``plan_digest`` are a pure function of the inputs, so when both
files were made from one seed they must be identical (1e-9 relative).
A metric or workload present in one file only, a run that was not
``correct``, or a failed operation is a disagreement.  Exit status is
non-zero on any disagreement.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spec

_EXACT_RELATIVE = 1e-9


def _load(path: str) -> dict[str, dict]:
    runs = json.loads(Path(path).read_text())["runs"]
    return {
        key.split("/")[0]: run
        for key, run in runs.items()
        if key.endswith("/end_to_end")
    }


def compare(a_runs: dict[str, dict], b_runs: dict[str, dict], bounds: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, relative, limit, agrees)``; values
    are ``None`` where a side has none."""
    rows = []
    for workload in sorted(set(a_runs) | set(b_runs)):
        a, b = a_runs.get(workload), b_runs.get(workload)
        if a is None or b is None:
            rows.append((workload, "(workload)", None, None, None, None, False))
            continue
        same_seed = a["envelope"]["seed"] == b["envelope"]["seed"]
        for side in (a, b):
            if not side["correct"] or side["failed"]:
                rows.append((workload, "(correct)", None, None, None, None, False))
        if same_seed:
            rows.append((
                workload, "plan_digest", a["plan_digest"][:12],
                b["plan_digest"][:12], None, "identical",
                a["plan_digest"] == b["plan_digest"],
            ))
        for metric in sorted(set(a["metrics"]) | set(b["metrics"])):
            va = a["metrics"].get(metric, {}).get("value")
            vb = b["metrics"].get(metric, {}).get("value")
            if va is None or vb is None or metric not in bounds:
                rows.append((workload, metric, va, vb, None, None, False))
                continue
            limit = bounds[metric]
            if same_seed and metric in spec.EXACT:
                limit = _EXACT_RELATIVE
            relative = (vb - va) / abs(va) if va else float(vb != va)
            rows.append(
                (workload, metric, va, vb, relative, limit, abs(relative) <= limit)
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in spec.contract()["end_to_end"]}
    rows = compare(_load(argv[0]), _load(argv[1]), bounds)

    def show(value) -> str:
        if value is None:
            return "-"
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    print(f"{'workload':<13} {'metric':<16} {'A':>13} {'B':>13} "
          f"{'B vs A':>9} {'bound':>9}  verdict")
    for workload, metric, a, b, relative, limit, agrees in rows:
        delta = "-" if relative is None else f"{relative:+.2%}"
        print(
            f"{workload:<13} {metric:<16} {show(a):>13} {show(b):>13} "
            f"{delta:>9} {show(limit):>9}  {'agree' if agrees else 'DISAGREE'}"
        )
    disagreements = sum(not row[-1] for row in rows)
    print(f"{len(rows)} comparisons, {disagreements} disagree")
    return 1 if disagreements or not rows else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
