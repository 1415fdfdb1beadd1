"""Zero-fault equivalence across the experiment parameter space.

The fault subsystem's first guarantee: with no fault plan (or a null
plan) the injector hook and the deadline machinery are invisible — the
optimizer produces byte-identical plans, costs, and message counts.
This sweep checks that over worlds spanning the E1–E11 axes (joins,
federation size, fragmentation, replication, plan-generator mode); the
fast tier-1 variant in ``tests/test_faults.py`` covers one config.
"""

import itertools

import repro.trading.commodity as commodity
from repro.bench.harness import build_world, run_qt
from repro.faults import FaultPlan
from repro.workload import chain_query

# (nodes, n_relations, fragments, replicas, joins, mode) — one axis
# varied at a time around the E1–E11 defaults.
CONFIGS = [
    (12, 7, 4, 2, 4, "dp"),     # E1/E2 midpoint
    (12, 7, 4, 2, 6, "idp"),    # wider query, IDP generator
    (25, 4, 5, 2, 3, "idp"),    # E3 federation size
    (16, 3, 8, 2, 2, "dp"),     # E4 fine fragmentation
    (12, 4, 4, 1, 3, "dp"),     # E7 no replication
    (12, 4, 4, 3, 3, "dp"),     # E7 triple replication
]


def _measure(world, query, mode, faulty: bool, tracer=None):
    # Offer ids come from a module-global counter; reset it so the two
    # runs mint identical ids and explain() strings are comparable.
    commodity._offer_ids = itertools.count(1)
    if faulty:
        m = run_qt(
            world, query, fault_plan=FaultPlan(), timeout=None,
            mode=mode, offer_cache=None, use_offer_cache=False,
            tracer=tracer,
        )
    else:
        m = run_qt(
            world, query, mode=mode, offer_cache=None,
            use_offer_cache=False, tracer=tracer,
        )
    return (
        m.found, m.plan_cost, m.optimization_time, m.messages,
        m.offers, m.iterations,
    )


def _pinpoint(world, query, mode) -> str:
    """Re-run both sides traced and locate the first divergent record.

    Trace streams are deterministic, so structurally diffing them names
    the exact record where the null fault plan perturbed the run —
    far more actionable than two mismatched signature tuples.
    """
    from repro.obs import Tracer, diff_records

    tracer_a, tracer_b = Tracer(), Tracer()
    _measure(world, query, mode, faulty=False, tracer=tracer_a)
    _measure(world, query, mode, faulty=True, tracer=tracer_b)
    return diff_records(tracer_a.records, tracer_b.records).render()


def test_zero_fault_causal_byte_identity():
    """A null fault plan is invisible to the causal layer too.

    The injector path computes each copy's transit delay and the
    network stamps it verbatim as the delivery's ``lat``, so a clean
    link produces the exact ``message_delay`` bits the fault-free path
    stamps — the causal DAG and critical-path decomposition are
    byte-identical, and both replays reconcile exactly.
    """
    from repro.obs import CausalDag, CriticalPath, Tracer

    nodes, n_relations, fragments, replicas, joins, mode = CONFIGS[0]
    world = build_world(
        nodes=nodes, n_relations=n_relations, fragments=fragments,
        replicas=replicas, seed=7,
    )
    query = chain_query(joins, selection_cat=3)
    tracer_plain, tracer_null = Tracer(), Tracer()
    plain = _measure(world, query, mode, faulty=False, tracer=tracer_plain)
    nulled = _measure(world, query, mode, faulty=True, tracer=tracer_null)
    assert plain == nulled
    dag_plain = CausalDag.from_records(tracer_plain.records)
    dag_null = CausalDag.from_records(tracer_null.records)
    assert dag_plain.to_json() == dag_null.to_json(), _pinpoint(
        world, query, mode
    )
    crit_plain = CriticalPath.from_records(tracer_plain.records)
    crit_null = CriticalPath.from_records(tracer_null.records)
    assert crit_plain.to_json() == crit_null.to_json()
    assert crit_plain.reconciles() and crit_null.reconciles()
    assert crit_plain.total == plain[2]  # == optimization_time


def test_zero_fault_equivalence_sweep():
    for nodes, n_relations, fragments, replicas, joins, mode in CONFIGS:
        world = build_world(
            nodes=nodes, n_relations=n_relations, fragments=fragments,
            replicas=replicas, seed=7,
        )
        query = chain_query(joins, selection_cat=3)
        plain = _measure(world, query, mode, faulty=False)
        nulled = _measure(world, query, mode, faulty=True)
        assert plain == nulled, (
            f"null fault plan perturbed config {(nodes, n_relations, fragments, replicas, joins, mode)}: "
            f"{plain} != {nulled}\n"
            + _pinpoint(world, query, mode)
        )
