"""Frozen workload sizes, and the metric contract read from BENCHMARK.json.

``BENCHMARK.json`` names the metrics (name, unit, direction, bound) and
says why each workload exists; the sizes live here because that file's
keys are fixed by the driver.  Changing a size changes what every
metric means, so a size change is a benchmark change, never part of a
change that claims a gain.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
# The program under test runs from source; every benchmark module
# imports this one first, so this is the one place that says where.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Everything a run writes (spans, daemon dumps) goes here; gitignored.
OUT_DIR = HERE / "out"

#: Every workload runs at least this many passes over identical inputs;
#: each input's value is the best of its passes (the noise rule).
MIN_PASSES = 3

#: The ``repro serve`` argparse defaults (test_harness.py checks they
#: still match): the daemon is launched with every flag but ``--clock``
#: and ``--port`` at its default, and the oracle rebuilds the same world
#: in process.
SERVE_WORLD = dict(
    nodes=8, n_relations=6, rows=10_000, fragments=2, replicas=2, seed=7
)

#: Shapes are (kind, relations).  Slot *i* of a deck takes
#: ``shapes[i % len(shapes)]``, so the mix is exact, not sampled: the
#: seed varies constants and order, and the statistics do not wander
#: with the draw.  No mix puts a mode boundary at the median.
SIZES: dict[str, dict] = {
    "trade_deep": dict(
        kind="trade",
        world=dict(nodes=32, n_relations=9, fragments=4, replicas=2),
        shapes=[("chain", 9), ("star", 6)],
        inputs=2,
        setup_samples=5,
        oracle_inputs=2,
        # traced run: inputs (cheapest first) for the tracer on/off
        # ratio, and for the idp and workers=2 experiments
        ratio_inputs=2,
        buyer_experiments=2,
    ),
    "trade_wide": dict(
        kind="trade",
        world=dict(nodes=512, n_relations=6, fragments=2, replicas=8),
        shapes=[
            ("chain", 3), ("star", 3), ("chain", 2),
            ("star", 3), ("chain", 3), ("chain", 2),
        ],
        inputs=48,
        setup_samples=5,
        oracle_inputs=3,
        ratio_inputs=10,
    ),
    "serve_closed": dict(
        kind="serve",
        loop="closed",
        world=SERVE_WORLD,
        shapes=[
            ("chain", 2), ("chain", 3), ("chain", 4),
            ("star", 3), ("chain", 2), ("star", 4),
        ],
        # selection constants come from 4 values, not 10, so that 20
        # warm-up sessions leave the shared offer cache answering >= 90 %
        cats=4,
        clients=2,
        warmup=20,
        inputs=42,
        oracle_inputs=3,
    ),
    "serve_open": dict(
        kind="serve",
        loop="open",
        world=SERVE_WORLD,
        shapes=[
            ("chain", 2), ("chain", 3), ("chain", 4),
            ("star", 3), ("chain", 2), ("star", 4),
        ],
        cats=4,
        # Which query meets which burst decides the waiting in a
        # 36-arrival pass, so the open loop keeps slot order (and, in
        # inputs.arrival_schedule, the arrival pattern) fixed and leaves
        # only the constants to the seed.
        shuffled=False,
        rate=8.0,
        warmup=20,
        inputs=36,
        oracle_inputs=3,
    ),
}

#: ``--smoke`` sizes: same code paths, seconds not minutes (self-test).
SMOKE: dict[str, dict] = {
    "trade_deep": dict(
        SIZES["trade_deep"],
        shapes=[("chain", 4), ("star", 4)],
        inputs=2, setup_samples=1, oracle_inputs=1,
        ratio_inputs=1, buyer_experiments=1,
    ),
    "trade_wide": dict(
        SIZES["trade_wide"],
        world=dict(nodes=64, n_relations=6, fragments=2, replicas=8),
        inputs=6, setup_samples=1, oracle_inputs=1, ratio_inputs=1,
    ),
    "serve_closed": dict(
        SIZES["serve_closed"], warmup=2, inputs=6, oracle_inputs=1
    ),
    "serve_open": dict(
        SIZES["serve_open"], warmup=2, inputs=6, oracle_inputs=1
    ),
}

#: A session (or a hung daemon) fails after this long instead of
#: hanging the run.
SESSION_TIMEOUT_S = 30.0

#: End-to-end metrics that are a pure function of the inputs: two runs
#: of one commit with one seed must agree on them to 1e-9 relative
#: (compare.py), whatever bound BENCHMARK.json gives them across seeds.
#: ``sim_opt_s_mean`` is not among them: a hit in the broker's shared
#: offer cache is charged less simulated time, and which session hits
#: depends on how two clients interleave (1e-4 relative).
EXACT = ("plan_cost_mean", "messages_per_op")


def sizes(workload: str, smoke: bool = False) -> dict:
    table = SMOKE if smoke else SIZES
    if workload not in table:
        raise KeyError(
            f"unknown workload {workload!r} (have: {', '.join(SIZES)})"
        )
    return dict(table[workload], name=workload, smoke=smoke)


def contract() -> dict:
    """BENCHMARK.json, with metric lists also indexed by name."""
    data = json.loads(BENCHMARK_JSON.read_text())
    for section in ("end_to_end", "per_layer"):
        data[section + "_by_name"] = {m["name"]: m for m in data[section]}
    return data
