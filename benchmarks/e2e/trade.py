"""The ``trade_*`` workloads: one caller, serial, closed loop, in process.

The user is a buyer node calling ``QueryTrader.optimize(query)``; the
timer is around exactly that call.  Parsing the SQL (a user's query is
a new object each time, so nothing memoised on it survives a pass) and
building the network, seller agents and plan generator are outside it;
the latter is reported as ``trader.plumbing_s``.

Run as a script (``python3 trade.py <workload> [--smoke]``) this is the
set-up probe: a fresh interpreter goes from nothing to "first trade
could start" and exits, and the harness times the process.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import inputs
import oracle
import spans
import spec
from daemon import proc_status_kb
from measure import (
    Outcome,
    check_passes,
    check_span_arithmetic,
    layer_metrics,
    run_passes,
)
from stats import per_input_best, percentile


@dataclass
class TradeSample:
    """One timed ``QueryTrader.optimize`` call, reduced to what the
    metrics and checks read — the harness's own memory is in
    ``peak_rss_mb``, so it must not grow with the number of passes."""

    wall_s: float
    plumbing_s: float
    ok: bool
    plan_text: str = ""
    plan_cost: float = 0.0
    messages: int = 0
    sim_opt_s: float = 0.0
    #: the ``TradingResult`` itself, dropped unless the oracle wants it
    result: object = None

    @property
    def facts(self) -> tuple | None:
        """What must not differ between passes over identical inputs."""
        if not self.ok:
            return None
        return (self.plan_cost, self.messages, self.sim_opt_s)


def build_world(sizes: dict):
    from repro.bench.harness import build_world as build

    return build(**sizes["world"])


def parse(world, sql: str):
    """Fresh query object per call, through the patchable module name."""
    import repro.sql

    return repro.sql.parse_query(sql, world.catalog.schemas)


def make_trader(world, mode: str = "dp", tracer=None):
    """What a buyer node holds before it can trade: a network, the
    seller agents behind it (one fresh offer cache per trade, shared by
    the sellers so its stats count once), and the plan generator."""
    from repro.bench.harness import BUYER
    from repro.net import Network
    from repro.trading import BuyerPlanGenerator, OfferCache, QueryTrader

    network = Network(world.model)
    if tracer is not None:
        network.attach_tracer(tracer)
    sellers = world.seller_agents(offer_cache=OfferCache())
    plangen = BuyerPlanGenerator(world.builder, BUYER, mode=mode)
    return QueryTrader(BUYER, sellers, network, plangen)


def run_trade(world, sql: str, mode: str = "dp", tracer=None) -> TradeSample:
    """One trade, inside its own offer-id scope as every broker session
    is, so the plan text depends on the input alone."""
    from repro.trading.commodity import offer_id_scope

    query = parse(world, sql)
    with offer_id_scope():
        start = time.perf_counter()
        trader = make_trader(world, mode=mode, tracer=tracer)
        ready = time.perf_counter()
        result = trader.optimize(query)
        done = time.perf_counter()
    sample = TradeSample(done - ready, ready - start, result.found, result=result)
    if result.found:
        sample.plan_text = result.best.plan.explain()
        sample.plan_cost = result.plan_cost
        sample.messages = result.messages.messages
        sample.sim_opt_s = result.optimization_time
    return sample


def run_pass(
    world, sqls: list[str], recorder=None, keep_results: int = 0
) -> list[TradeSample]:
    """Every input once, in deck order, keeping the ``TradingResult`` of
    the first *keep_results* inputs.  With a *recorder* (traced run)
    each trade is one operation named by its slot."""
    samples = []
    for slot, sql in enumerate(sqls):
        scope = recorder.operation(f"t{slot}") if recorder else nullcontext()
        with scope:
            sample = run_trade(world, sql)
        if slot >= keep_results:
            sample.result = None
        samples.append(sample)
    return samples


# ----------------------------------------------------------------------
def probe_setup(sizes: dict) -> float:
    """Seconds for a fresh interpreter to get from nothing to "first
    trade could start" (imports, world, agents, plan generator)."""
    argv = [sys.executable, str(Path(__file__).resolve()), sizes["name"]]
    if sizes["smoke"]:
        argv.append("--smoke")
    began = time.perf_counter()
    subprocess.run(argv, check=True)
    return time.perf_counter() - began


def _run_oracle(world, sqls, samples, seed, outcome: Outcome):
    """Execute the plans of the samples that kept their result."""
    kept = [(sql, s.result) for sql, s in zip(sqls, samples) if s.result]
    verdict = oracle.check_trades(
        world, [sql for sql, _ in kept], [result for _, result in kept], seed
    )
    outcome.failures.extend(verdict.failures)
    outcome.notes["plans_executed"] = verdict.checked
    return verdict


def end_to_end(sizes: dict, seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    setup = [probe_setup(sizes) for _ in range(sizes["setup_samples"])]
    world = build_world(sizes)
    sqls = inputs.deck(sizes, seed)
    # Lazy imports and first-call set-up finish before the timer starts.
    run_trade(world, min(sqls, key=len))
    keep = sizes["oracle_inputs"]
    passes = run_passes(
        lambda index: run_pass(
            world, sqls, keep_results=0 if index else keep
        ),
        seconds,
    )
    # before the oracle materialises data
    peak_rss_mb = proc_status_kb()["VmHWM"] / 1024.0
    check_passes(passes, outcome)

    walls = [
        wall for wall in per_input_best(
            [[s.wall_s if s.ok else None for s in samples] for samples in passes]
        )
        if wall is not None
    ]
    found = [s for s in passes[0] if s.ok]
    if walls and found:
        outcome.metrics = {
            "setup_s": statistics.median(setup),
            "op_ms_p50": percentile(walls, 0.50) * 1e3,
            "op_ms_mean": statistics.fmean(walls) * 1e3,
            "ops_per_s": len(walls) / sum(walls),
            "plan_cost_mean": statistics.fmean(s.plan_cost for s in found),
            "messages_per_op": statistics.fmean(s.messages for s in found),
            "sim_opt_s_mean": statistics.fmean(s.sim_opt_s for s in found),
            "peak_rss_mb": peak_rss_mb,
        }
    outcome.notes.update(
        passes=len(passes), samples=len(walls), setup_samples=len(setup)
    )
    _run_oracle(world, sqls, passes[0], seed, outcome)
    return outcome


# ----------------------------------------------------------------------
def _tracer_cost(world, sqls: list[str]) -> dict[str, float]:
    """Wall with a ``repro.obs.Tracer`` attached over wall without, same
    inputs, interleaved (base: the untraced wall); the post-processing
    the trader does on a traced result is timed again on its records."""
    from repro.obs import NegotiationLedger, RunTelemetry, Tracer

    off = on = post = 0.0
    records = 0
    for sql in sqls:
        off += run_trade(world, sql).wall_s
        tracer = Tracer()
        on += run_trade(world, sql, tracer=tracer).wall_s
        records += len(tracer.records)
        began = time.perf_counter()
        RunTelemetry.from_records(tracer.records)
        NegotiationLedger.from_records(tracer.records)
        post += time.perf_counter() - began
    return {
        "obs.tracer_on_ratio": on / off,
        "obs.records_per_trade": records / len(sqls),
        "obs.postprocess_s": post / len(sqls),
    }


def _idp_generate_s(world, sqls: list[str]) -> float:
    """``BuyerPlanGenerator.generate`` seconds per trade with
    ``mode="idp"`` (the paper's IDP-M(2,5))."""
    recorder = spans.Recorder(keep_ops=0)
    with spans.install(recorder):
        for slot, sql in enumerate(sqls):
            with recorder.operation(f"idp{slot}"):
                run_trade(world, sql, mode="idp")
    return layer_metrics(list(recorder.ops.values()))["buyer.generate_s"]


def _parallel_speedup(world, sqls: list[str]) -> dict[str, float]:
    """Serial wall over ``workers=2`` wall of ``run_qt`` (base: serial),
    interleaved, pool warmed outside the timer."""
    from repro.bench.harness import run_qt
    from repro.parallel import shutdown_pools, warm_pool
    from repro.trading import OfferCache

    began = time.perf_counter()
    pool = warm_pool(2)
    warm_s = time.perf_counter() - began
    wall = {1: 0.0, 2: 0.0}
    try:
        for sql in sqls:
            for workers in (1, 2):
                query = parse(world, sql)
                began = time.perf_counter()
                run_qt(
                    world, query, workers=workers, offer_cache=OfferCache()
                )
                wall[workers] += time.perf_counter() - began
    finally:
        pool.shutdown(wait=True)
        shutdown_pools()
    return {
        "parallel.trade_speedup_w2": wall[1] / wall[2],
        "parallel.pool_warm_s": warm_s,
    }


def per_layer(sizes: dict, seed: int) -> Outcome:
    """One pass without and one with the span wrappers, then the
    experiments that need their own runs."""
    outcome = Outcome()
    world = build_world(sizes)
    sqls = inputs.deck(sizes, seed)
    run_trade(world, min(sqls, key=len))
    plain = run_pass(world, sqls, keep_results=sizes["oracle_inputs"])
    recorder = spans.Recorder()
    with spans.install(recorder):
        traced = run_pass(world, sqls, recorder)
    check_passes([plain, traced], outcome)

    check_span_arithmetic(recorder.ops, outcome.failures)
    gaps = []
    for slot, sample in enumerate(traced):
        root = recorder.ops[f"t{slot}"]["spans"]["trade.optimize"][1]
        gaps.append(abs(root - sample.wall_s) / sample.wall_s)
    if max(gaps) > 0.02:
        outcome.failures.append(
            f"root span differs from the wall around the same call by "
            f"{max(gaps):.1%} (limit 2%)"
        )

    metrics = layer_metrics([recorder.ops[f"t{i}"] for i in range(len(sqls))])
    metrics["trader.plumbing_s"] = statistics.fmean(s.plumbing_s for s in plain)
    metrics["trace.overhead_frac"] = (
        sum(s.wall_s for s in traced) / sum(s.wall_s for s in plain) - 1.0
    )
    metrics["trace.root_gap_frac"] = max(gaps)
    cheapest = sorted(sqls, key=len)
    metrics.update(_tracer_cost(world, cheapest[: sizes["ratio_inputs"]]))
    if sizes.get("buyer_experiments"):
        metrics["buyer.idp_generate_s"] = _idp_generate_s(
            world, cheapest[: sizes["buyer_experiments"]]
        )
        metrics.update(
            _parallel_speedup(world, cheapest[: sizes["buyer_experiments"]])
        )
    metrics.update(_run_oracle(world, sqls, plain, seed, outcome).metrics())
    metrics["tail.op_ms_p90"] = percentile([s.wall_s for s in plain], 0.90) * 1e3
    metrics["harness.samples"] = len(sqls)
    metrics["harness.passes"] = 2
    outcome.metrics = metrics
    outcome.span_lines = recorder.span_lines()
    return outcome


def _set_up_and_exit(argv: list[str]) -> int:
    sizes = spec.sizes(argv[0], smoke="--smoke" in argv[1:])
    world = build_world(sizes)
    sql = inputs.deck(sizes, 0, "probe", count=1)[0]
    parse(world, sql)
    make_trader(world)
    return 0


if __name__ == "__main__":
    sys.exit(_set_up_and_exit(sys.argv[1:]))
