"""The benchmark's one command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
                                  --trace 0|1 [--out FILE]
                                  [--expect-digest HEX] [--smoke]

Runs one workload, prints every metric by name with its unit, checks
that the outputs are correct, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace
0`` gives the end-to-end metrics (span wrappers never installed);
``--trace 1`` gives the per-layer metrics from a separate traced run
and writes ``out/spans-<workload>.jsonl``.  Exit status is non-zero if
any check failed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import spec
from measure import host_spin_ms


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec.SIZES))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measure for about this long (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="merge this run into a result file (read by compare.py)",
    )
    parser.add_argument(
        "--expect-digest", default=None, metavar="HEX",
        help="fail unless the workload's plan_digest equals HEX",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for the harness self-test; numbers mean nothing",
    )
    return parser.parse_args(argv)


def _envelope(args, sizes: dict, host: dict, elapsed: float) -> dict:
    from repro.bench.envelope import bench_envelope

    return {
        **bench_envelope(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sizes": sizes,
        "elapsed_s": elapsed,
        **host,
    }


def _host_check() -> dict:
    """Load average and spin-loop speed, with a ``noisy_host`` warning
    (not a failure): what a reviewer needs when two runs disagree."""
    cpus = os.cpu_count() or 1
    load = os.getloadavg()[0]
    best, median = host_spin_ms()
    if load > cpus / 2:
        print(
            f"warning: noisy_host — 1-minute load average {load:.2f} exceeds "
            f"half of {cpus} CPUs; timings may not agree with a quiet run"
        )
    if median > 1.25 * best:
        print(
            f"warning: noisy_host — spin loop median {median:.1f} ms vs best "
            f"{best:.1f} ms; the host is changing speed"
        )
    return {"loadavg_1m": load, "spin_ms_best": best, "spin_ms_median": median}


def _merge_out(path: Path, key: str, run: dict) -> None:
    results = {"runs": {}}
    if path.exists():
        results = json.loads(path.read_text())
    results["runs"][key] = run
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (spec.SRC / "repro").is_dir():
        print(f"no program to measure: {spec.SRC}/repro is missing", file=sys.stderr)
        return 2
    contract = spec.contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    sizes = spec.sizes(args.workload, args.smoke)
    section = "per_layer" if args.trace else "end_to_end"
    declared = contract[section + "_by_name"]

    host = {f"{key}_before": value for key, value in _host_check().items()}

    import serve
    import trade

    kind = trade if sizes["kind"] == "trade" else serve
    began = time.perf_counter()
    if args.trace:
        outcome = kind.per_layer(sizes, args.seed)
    else:
        outcome = kind.end_to_end(sizes, args.seed, args.seconds)
    elapsed = time.perf_counter() - began
    best, median = host_spin_ms()
    host.update(spin_ms_best_after=best, spin_ms_median_after=median)

    failures = list(outcome.failures)
    if outcome.failed:
        failures.append(
            f"{outcome.failed} of {outcome.attempted} operations failed"
        )
    if args.expect_digest is not None and args.expect_digest != outcome.plan_digest:
        failures.append(
            f"plan_digest {outcome.plan_digest} is not the expected "
            f"{args.expect_digest}"
        )
    unnamed = sorted(set(outcome.metrics) - set(declared))
    if unnamed:
        failures.append(f"metrics not named in BENCHMARK.json: {unnamed}")
    if args.trace:
        # A layer that does not run on this workload reads 0.
        values = {name: outcome.metrics.get(name, 0.0) for name in declared}
    else:
        values = {
            name: outcome.metrics[name] for name in declared
            if name in outcome.metrics
        }
        missing = sorted(set(declared) - set(values))
        if missing:
            failures.append(f"end-to-end metrics not measured: {missing}")
    metrics = {
        name: {"value": value, "unit": declared[name]["unit"]}
        for name, value in values.items()
    }

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"elapsed {elapsed:.1f}s  notes {json.dumps(outcome.notes)}"
    )
    print("  host " + "  ".join(f"{k}={v:.2f}" for k, v in host.items()))
    width = max(map(len, metrics), default=0)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g}  {metric['unit']}")
    print(f"  plan_digest  {outcome.plan_digest}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    if outcome.span_lines:
        spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_file = spec.OUT_DIR / f"spans-{args.workload}.jsonl"
        spans_file.write_text("\n".join(outcome.span_lines) + "\n")
        print(f"  spans -> {spans_file}")

    verdict = {
        "correct": not failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out is not None:
        _merge_out(
            args.out,
            f"{args.workload}/{section}",
            {
                **verdict,
                "plan_digest": outcome.plan_digest,
                "notes": outcome.notes,
                "failures": failures,
                "envelope": _envelope(args, sizes, host, elapsed),
            },
        )
    print(json.dumps(verdict))
    return 0 if verdict["correct"] and outcome.attempted else 1


if __name__ == "__main__":
    sys.exit(main())
