"""Wall-clock overhead of the observability layer.

Times the same negotiation (fresh world, same seed, offer-id counter
reseeded) in three modes:

* ``disabled`` — no tracer attached anywhere (the pre-obs code path),
* ``null``     — ``Tracer(enabled=False)`` attached to the network and
  wired through every component (the ``if tracer.enabled`` guards run,
  nothing records),
* ``enabled``  — a recording tracer, plus one deterministic-JSONL
  export to price the exporter.

Also prices the broker's *live* observability layer (PR 9): the same
bursty session batch is drained through a sim-clock broker with live
observability off and on.  ``live_overhead`` is the fractional cost of
the always-on bookkeeping (site registry + SLO tracking + event ring,
q-error sampling disabled) over the off run — that is the per-session
hot-path tax the <10% gate certifies.  Q-error sampling re-executes
purchased plans against materialized data, which is deliberately
*sampled* background work, so its cost is reported separately
(``live_qerror_overhead``, ungated) rather than hidden in the gate.

Also prices the causal-tracing layer (PR 10): the same faulty
negotiation (drops, duplicates, round deadlines — the configuration
with the most causal-id stamping on the hot path) runs with no tracer
vs a disabled tracer.  ``causal_overhead`` is that fractional cost and
shares the <5% disabled-instrumentation gate; the analysis-side cost
(reading the critical path off an enabled trace) is reported ungated.

Writes ``BENCH_obs.json`` at the repository root and enforces the
documented contracts: the *null* mode — tracing compiled in but
switched off — costs less than 5% over *disabled* (the plain and the
causal/faulty measurements both), and live-obs-on costs less than 10%
over live-obs-off (per-mode minimum over repeats to shave scheduler
noise).

Run with::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import statistics
import time

import repro.trading.commodity as commodity
from repro.bench.envelope import bench_envelope, history
from repro.bench.harness import build_world, run_qt
from repro.obs import Tracer, jsonl_lines
from repro.trading import OfferCache
from repro.workload import chain_query

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_obs.json"

OVERHEAD_GATE = 0.05  # null-tracer overhead vs disabled, fractional
LIVE_GATE = 0.10      # broker live-obs-on overhead vs off, fractional

#: The broker world + workload for the live-obs overhead case.
BROKER_WORLD = dict(
    nodes=4, n_relations=4, rows=2_000, fragments=2, replicas=2, seed=7
)


def one_run(joins: int, nodes: int, tracer: Tracer | None) -> tuple[float, int]:
    """Wall seconds for one full trade; also returns records captured."""
    commodity._offer_ids = itertools.count(1)
    world = build_world(nodes=nodes, n_relations=max(joins, 3), seed=7)
    query = chain_query(joins)
    start = time.perf_counter()
    measurement = run_qt(world, query, offer_cache=OfferCache(), tracer=tracer)
    if tracer is not None and tracer.enabled:
        for _ in jsonl_lines(tracer.records):  # price the export too
            pass
    elapsed = time.perf_counter() - start
    assert measurement.found, "benchmark trade must find a plan"
    records = len(tracer.records) if tracer is not None else 0
    if tracer is not None:
        tracer.reset()
    return elapsed, records


def time_mode(joins: int, nodes: int, mode: str, repeats: int) -> dict:
    times = []
    records = 0
    for _ in range(repeats):
        tracer = {
            "disabled": None,
            "null": Tracer(enabled=False),
            "enabled": Tracer(),
        }[mode]
        elapsed, captured = one_run(joins, nodes, tracer)
        times.append(elapsed)
        records = max(records, captured)
    return {
        "mode": mode,
        "min_s": round(min(times), 6),
        "median_s": round(statistics.median(times), 6),
        "records": records,
    }


def broker_drain(arrivals, live_obs=None) -> float:
    """Wall seconds to drain *arrivals* through a sim-clock broker."""
    from repro.broker import BrokerService

    commodity._offer_ids = itertools.count(1)
    service = BrokerService(
        world_config=BROKER_WORLD,
        live_obs=live_obs,
    )
    try:
        start = time.perf_counter()
        for arrival in arrivals:
            service.submit(service.parse_spec(
                {"sql": arrival.query.sql(), "tenant": arrival.tenant}
            ))
        assert service.drain(timeout=300.0), "broker drain timed out"
        elapsed = time.perf_counter() - start
        if live_obs is not None:
            snapshot = service.live.snapshot()
            assert snapshot["sites"]["sessions"] > 0, (
                "live registry observed no sessions"
            )
    finally:
        service.close()
    return elapsed


def causal_case(repeats: int) -> dict:
    """Price the causal-tracing layer on its busiest code path.

    Fault injection exercises every new stamping site at once — message
    mids on sends, per-delivery latencies, fault verdicts, timeout ids,
    retry re-issues — so a faulty negotiation is where a disabled
    tracer would show causal-stamping overhead if it had any.  Also
    times the offline analysis an *enabled* trace pays for: walking
    the :class:`~repro.obs.critpath.CriticalPath` (cross-checked:
    phases must tile the session's simulated time).
    """
    from repro.faults import FaultPlan
    from repro.obs import CriticalPath

    joins, nodes = 3, 8
    plan = FaultPlan.uniform(
        drop_rate=0.10, duplicate_rate=0.05, seed=11
    )

    def faulty_run(tracer: Tracer | None) -> float:
        commodity._offer_ids = itertools.count(1)
        world = build_world(nodes=nodes, n_relations=max(joins, 3), seed=7)
        query = chain_query(joins)
        start = time.perf_counter()
        measurement = run_qt(world, query, fault_plan=plan, tracer=tracer)
        elapsed = time.perf_counter() - start
        assert measurement.found, "faulty benchmark trade must find a plan"
        if tracer is not None:
            tracer.reset()
        return elapsed

    faulty_run(None)  # warm caches / imports
    disabled = [faulty_run(None) for _ in range(repeats)]
    null = [faulty_run(Tracer(enabled=False)) for _ in range(repeats)]
    causal_overhead = min(null) / min(disabled) - 1.0

    # Analysis-side cost from one enabled trace (ungated).
    commodity._offer_ids = itertools.count(1)
    world = build_world(nodes=nodes, n_relations=max(joins, 3), seed=7)
    tracer = Tracer()
    run_qt(world, chain_query(joins), fault_plan=plan, tracer=tracer)
    records = list(tracer.records)
    start = time.perf_counter()
    critical = CriticalPath.from_records(records)
    critpath_s = time.perf_counter() - start
    assert critical is not None, "faulty trace must yield a critical path"
    assert critical.reconciles(), "critical-path phases must tile the run"
    return {
        "joins": joins,
        "nodes": nodes,
        "repeats": repeats,
        "disabled_min_s": round(min(disabled), 6),
        "null_min_s": round(min(null), 6),
        "causal_overhead": round(causal_overhead, 4),
        "trace_records": len(records),
        "critpath_replay_s": round(critpath_s, 6),
    }


def live_obs_case(repeats: int) -> dict:
    """Broker throughput with live observability off vs on.

    The gated *on* mode runs the full always-on surface (registry, SLO
    tracker, event ring, prometheus-ready state) with q-error sampling
    disabled; a third mode with default q-error sampling prices the
    sampled plan re-execution separately.
    """
    from repro.obs.live import LiveObsConfig
    from repro.workload import BurstConfig, build_bursty_workload

    arrivals = build_bursty_workload(BurstConfig(
        tenants=4, bursts=2, burst_size=4, available_relations=4, seed=11
    ))
    bookkeeping = LiveObsConfig(qerror_sample_every=0)
    sampled = LiveObsConfig()  # default q-error sampling rate
    broker_drain(arrivals)  # warm imports / caches
    off = [broker_drain(arrivals) for _ in range(repeats)]
    on = [broker_drain(arrivals, bookkeeping) for _ in range(repeats)]
    qerror = [broker_drain(arrivals, sampled) for _ in range(repeats)]
    live_overhead = min(on) / min(off) - 1.0
    qerror_overhead = min(qerror) / min(off) - 1.0
    return {
        "sessions": len(arrivals),
        "repeats": repeats,
        "off_min_s": round(min(off), 6),
        "off_median_s": round(statistics.median(off), 6),
        "on_min_s": round(min(on), 6),
        "on_median_s": round(statistics.median(on), 6),
        "qerror_min_s": round(min(qerror), 6),
        "qerror_sample_every": sampled.qerror_sample_every,
        "live_overhead": round(live_overhead, 4),
        "live_qerror_overhead": round(qerror_overhead, 4),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats, smaller world")
    args = parser.parse_args()
    repeats = 3 if args.quick else 7
    cases = [(3, 8)] if args.quick else [(3, 8), (4, 12)]

    results = []
    for joins, nodes in cases:
        one_run(joins, nodes, None)  # warm caches / imports
        modes = {
            mode: time_mode(joins, nodes, mode, repeats)
            for mode in ("disabled", "null", "enabled")
        }
        null_overhead = (
            modes["null"]["min_s"] / modes["disabled"]["min_s"] - 1.0
        )
        enabled_overhead = (
            modes["enabled"]["min_s"] / modes["disabled"]["min_s"] - 1.0
        )
        results.append(
            {
                "joins": joins,
                "nodes": nodes,
                "repeats": repeats,
                "modes": list(modes.values()),
                "null_overhead": round(null_overhead, 4),
                "enabled_overhead": round(enabled_overhead, 4),
            }
        )
        print(
            f"joins={joins} nodes={nodes}: disabled "
            f"{modes['disabled']['min_s']:.4f}s, null "
            f"{modes['null']['min_s']:.4f}s ({null_overhead:+.1%}), enabled "
            f"{modes['enabled']['min_s']:.4f}s ({enabled_overhead:+.1%}, "
            f"{modes['enabled']['records']} records)"
        )

    causal = causal_case(repeats)
    print(
        f"causal tracing (faulty, joins={causal['joins']} "
        f"nodes={causal['nodes']}): disabled {causal['disabled_min_s']:.4f}s, "
        f"null {causal['null_min_s']:.4f}s "
        f"({causal['causal_overhead']:+.1%}); analysis: critical path "
        f"{causal['critpath_replay_s']:.4f}s over "
        f"{causal['trace_records']} records"
    )

    live = live_obs_case(repeats=3 if args.quick else 5)
    print(
        f"broker live-obs ({live['sessions']} sessions): off "
        f"{live['off_min_s']:.4f}s, on {live['on_min_s']:.4f}s "
        f"({live['live_overhead']:+.1%}); with q-error sampling "
        f"every {live['qerror_sample_every']}th session "
        f"{live['qerror_min_s']:.4f}s ({live['live_qerror_overhead']:+.1%}, "
        f"ungated)"
    )

    envelope = bench_envelope()
    record = {
        **envelope,
        "benchmark": "observability overhead (disabled / null / enabled)",
        "gate_null_overhead_lt": OVERHEAD_GATE,
        "gate_causal_overhead_lt": OVERHEAD_GATE,
        "gate_live_overhead_lt": LIVE_GATE,
        "cases": results,
        "causal": causal,
        "live_obs": live,
    }
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    worst = max(case["null_overhead"] for case in results)
    history(REPO_ROOT).append(
        "obs_overhead",
        {
            "worst_null_overhead": worst,
            "causal_overhead": causal["causal_overhead"],
            "live_overhead": live["live_overhead"],
            "live_qerror_overhead": live["live_qerror_overhead"],
        },
        envelope=envelope,
    )
    print(f"wrote {OUTPUT}")

    assert worst < OVERHEAD_GATE, (
        f"null-tracer overhead {worst:.1%} breaches the "
        f"{OVERHEAD_GATE:.0%} gate"
    )
    print(f"gate ok: worst null-tracer overhead {worst:+.1%} < "
          f"{OVERHEAD_GATE:.0%}")
    assert causal["causal_overhead"] < OVERHEAD_GATE, (
        f"causal-stamping disabled-tracer overhead "
        f"{causal['causal_overhead']:.1%} breaches the "
        f"{OVERHEAD_GATE:.0%} gate"
    )
    print(f"gate ok: causal disabled-tracer overhead "
          f"{causal['causal_overhead']:+.1%} < {OVERHEAD_GATE:.0%}")
    assert live["live_overhead"] < LIVE_GATE, (
        f"live-obs overhead {live['live_overhead']:.1%} breaches the "
        f"{LIVE_GATE:.0%} gate"
    )
    print(f"gate ok: broker live-obs overhead {live['live_overhead']:+.1%} "
          f"< {LIVE_GATE:.0%}")


if __name__ == "__main__":
    main()
