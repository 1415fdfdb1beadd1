"""MQO benchmark: cross-session sharing on overlapping analytics.

Drives a :class:`~repro.broker.BrokerService` over the
overlapping-analytics workload
(:func:`repro.workload.build_overlapping_analytics`): several tenant
dashboards refresh together, each perturbing only the driving
selection of a shared join template — so the join interiors repeat
across sessions while the full queries stay distinct.

Two configurations are measured over the identical schedule:

* **baseline** — per-session trading with *private* per-seller offer
  caches (``world.offer_cache = None``): every session re-prices every
  commodity from scratch, the classic no-sharing federation;
* **mqo** — the epoch scheduler batches the sessions, interns the
  shared join interiors, prices each once per epoch, and injects
  amortized seed offers (shared world cache + intern table).

Headline metrics, gated by ``repro bench-check``:

* ``hit_rate_ratio`` — the *effective* cache-hit rate of the MQO run
  over the baseline's.  The effective rate is hits per fresh
  optimization (``hits / misses``, across all sessions *and* the epoch
  prepass): how many priced answers each real optimization serves —
  the cache's amortization factor.  The plain ``hits / lookups``
  fraction saturates at 1.0 and both configurations score well on it
  thanks to within-session round-to-round reuse; hits-per-miss is what
  actually separates cross-session sharing from none.  The gate
  requires **>= 5x**.
* ``aggregate_cost_improved`` — 1 iff the MQO run's summed plan cost
  is strictly below the baseline's (amortized intermediates must make
  the actual plans cheaper, not just the accounting).

Also asserts the split-cost accounting reconciles: every shared
price's per-sharer shares sum back to the full price exactly.

Writes ``BENCH_mqo.json`` at the repository root and appends an
``mqo`` row to the bench history.

Run with::

    PYTHONPATH=src python benchmarks/bench_mqo.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.bench.envelope import bench_envelope, history
from repro.bench.harness import build_world
from repro.broker import AdmissionConfig, BrokerService, SessionBudget
from repro.broker.sessions import SessionSpec
from repro.mqo import MQOConfig
from repro.workload import OverlapConfig, build_overlapping_analytics

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_mqo.json"

#: Single-fragment relations (replicated analytics marts): a seller can
#: sell a shared join interior as one complete materialized
#: intermediate, which is what the epoch prepass prices and amortizes.
WORLD = dict(
    nodes=8, n_relations=6, rows=10_000, fragments=1, replicas=2, seed=7
)

#: Ratio reported when the baseline hit rate is exactly zero.
RATIO_CAP = 999.0


def run_workload(arrivals, mqo: bool) -> dict:
    """Serve the whole schedule; returns metrics + per-session costs."""
    world = build_world(**WORLD)
    if not mqo:
        # The no-sharing federation: each session's sellers fall back
        # to fresh private caches, nothing crosses session boundaries.
        world.offer_cache = None
    service = BrokerService(
        world=world,
        admission=AdmissionConfig(
            max_concurrent=4,
            queue_limit=len(arrivals) + 1,
            budget=SessionBudget(rounds=6),
        ),
        mqo=MQOConfig(epoch_size=len(arrivals), epoch_window=5.0)
        if mqo
        else None,
    )
    try:
        started = time.perf_counter()
        sessions = [
            service.submit(
                SessionSpec(
                    sql=arrival.query.sql(),
                    query=arrival.query,
                    tenant=arrival.tenant,
                )
            )
            for arrival in arrivals
        ]
        assert service.drain(timeout=300.0), "sessions did not drain"
        elapsed = time.perf_counter() - started
        results = [s.result for s in sessions]
        assert all(r is not None and r.found for r in results), (
            "a session failed to negotiate a plan"
        )
        metrics = service.metrics_payload()
    finally:
        service.close()

    hits = metrics["cache"]["hits"]
    misses = metrics["cache"]["misses"]
    intern_hits = metrics["cache"]["intern_hits"]
    mqo_metrics = metrics.get("mqo")
    if mqo_metrics is not None:
        prepass = mqo_metrics["prepass_cache"]
        hits += prepass["hits"]
        misses += prepass["misses"]
        intern_hits += prepass["intern_hits"]
    lookups = hits + misses
    return {
        "sessions": len(sessions),
        "elapsed_s": round(elapsed, 3),
        "aggregate_plan_cost": round(
            sum(r.best.properties.total_time for r in results), 6
        ),
        "aggregate_payments": round(
            sum(r.total_payment for r in results), 6
        ),
        "cache": {
            "hits": hits,
            "misses": misses,
            "intern_hits": intern_hits,
            "hit_rate": round(hits / lookups, 6) if lookups else 0.0,
            "hits_per_miss": round(hits / misses, 6) if misses else 0.0,
        },
        "mqo": mqo_metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller tenant pool"
    )
    args = parser.parse_args()

    config = (
        OverlapConfig(tenants=4, queries_per_tenant=2, seed=7)
        if args.quick
        else OverlapConfig(tenants=6, queries_per_tenant=3, seed=7)
    )
    arrivals = build_overlapping_analytics(config)
    print(
        f"workload: {len(arrivals)} sessions, {config.tenants} tenants, "
        f"{config.templates} shared templates"
    )

    base = run_workload(arrivals, mqo=False)
    shared = run_workload(arrivals, mqo=True)

    base_rate = base["cache"]["hits_per_miss"]
    mqo_rate = shared["cache"]["hits_per_miss"]
    ratio = (
        min(round(mqo_rate / base_rate, 3), RATIO_CAP)
        if base_rate > 0
        else RATIO_CAP
    )
    improved = int(
        shared["aggregate_plan_cost"] < base["aggregate_plan_cost"]
    )
    pricing = shared["mqo"]["shared_pricing"]
    assert pricing["reconciled"], (
        "amortized shares do not sum back to the full shared prices"
    )

    print(
        f"baseline: {base_rate:.3f} hits/optimization, "
        f"aggregate cost {base['aggregate_plan_cost']:.4f}, "
        f"payments {base['aggregate_payments']:.4f}"
    )
    print(
        f"     mqo: {mqo_rate:.3f} hits/optimization ({ratio}x), "
        f"aggregate cost {shared['aggregate_plan_cost']:.4f}, "
        f"payments {shared['aggregate_payments']:.4f}, "
        f"{shared['cache']['intern_hits']} intern hits, "
        f"{shared['mqo']['epochs']} epoch(s)"
    )

    payload = {
        **bench_envelope(),
        "description": (
            "Cross-session MQO on overlapping analytics: shared "
            "subquery interning and amortized epoch pricing vs "
            "per-session trading over the identical schedule."
        ),
        "quick": args.quick,
        "world": WORLD,
        "workload": {
            "sessions": len(arrivals),
            "tenants": config.tenants,
            "queries_per_tenant": config.queries_per_tenant,
            "templates": config.templates,
            "template_relations": config.template_relations,
            "seed": config.seed,
        },
        "baseline": base,
        "mqo": shared,
        "hit_rate_ratio": ratio,
        "aggregate_cost_improved": improved,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    history(REPO_ROOT).append(
        "mqo",
        {
            "hit_rate_ratio": ratio,
            "aggregate_cost_improved": improved,
            "baseline_hits_per_miss": base_rate,
            "mqo_hits_per_miss": mqo_rate,
            "intern_hits": shared["cache"]["intern_hits"],
            "baseline_cost": base["aggregate_plan_cost"],
            "mqo_cost": shared["aggregate_plan_cost"],
            "sessions": len(arrivals),
        },
    )
    print(f"wrote {OUTPUT.name}")


if __name__ == "__main__":
    main()
