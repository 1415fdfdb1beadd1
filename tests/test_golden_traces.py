"""Trace bytes and their critical paths pinned across commits.

Trace byte-identity tests elsewhere compare two runs of the same code,
so a record that moves, disappears or changes its args passes them as
long as it does so every time.  ``golden_traces.json`` holds, for seven
traced negotiations, the sha256 of the deterministic JSONL export
(:func:`repro.obs.export.jsonl_lines`), recorded before the traced and
untraced twin methods of each layer were merged into one span-wrapped
body; the sha256 of the critical path read off the same records
(:meth:`repro.obs.CriticalPath.to_json` and ``render(top=8)``),
recorded while it was still computed by a forward replay of the
protocol; and the sha256 of the two other surfaces derived from a
trace, the decision ledger
(:meth:`repro.obs.NegotiationLedger.to_json`) and ``repro report``'s
text (:func:`repro.obs.render_report` over the JSONL rows), recorded
while the causal DAG and the per-trade metrics registry still existed.
The ``replicas`` case, replica sellers answering one RFB through one
shared offer cache, was recorded before sellers with equal holdings
started sharing their pricing work within an RFB.

Each case asserts that it reached the code path it is named for, so a
digest cannot keep passing by no longer exercising that path.  A
deliberate change to the records fails here and prints the new digest.

Regenerate (only for an intended trace change)::

    PYTHONPATH=src python -m tests.test_golden_traces --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.broker.service as broker_service
from repro.bench.harness import build_world, trade
from repro.broker import BrokerService
from repro.faults import FaultPlan
from repro.obs import CriticalPath, NegotiationLedger, Tracer, render_report
from repro.obs.export import jsonl_lines
from repro.obs.report import _normalize
from repro.trading import BargainingProtocol
from repro.trading.commodity import offer_id_scope
from repro.workload import chain_query

GOLDEN_TRACES = Path(__file__).with_name("golden_traces.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _entry(records) -> dict:
    """The golden entry of one case: record count, JSONL digest and the
    digests of its critical path (JSON and rendered text), its ledger
    and its ``repro report`` text."""
    critical = CriticalPath.from_records(records)
    lines = list(jsonl_lines(records, deterministic_only=True))
    rows = [_normalize(json.loads(line)) for line in lines]
    return {
        "records": len(records),
        "sha256": _sha256("\n".join(lines)),
        "critpath_sha256": _sha256(critical.to_json()),
        "critpath_render_sha256": _sha256(critical.render(top=8)),
        "ledger_sha256": _sha256(
            NegotiationLedger.from_records(records).to_json()
        ),
        "report_sha256": _sha256(render_report(rows)),
    }


def _names(records) -> set[str]:
    return {record.name for record in records}


def _library_trade(**kwargs) -> list:
    world = build_world(nodes=8, n_relations=4, fragments=3, seed=7)
    tracer = Tracer()
    with offer_id_scope():
        result = trade(world, chain_query(3), tracer=tracer, **kwargs)
    assert result.found
    return tracer.records


def case_trade() -> list:
    records = _library_trade()
    solicits = [r for r in records if r.name == "protocol.solicit"]
    assert solicits and all(r.args["protocol"] == "bidding" for r in solicits)
    assert "ledger.award" in _names(records)
    return records


def case_bargaining() -> list:
    records = _library_trade(protocol=BargainingProtocol())
    solicits = [r for r in records if r.name == "protocol.solicit"]
    assert any(r.args["protocol"] == "bargaining" for r in solicits)
    return records


def case_empty_sellers() -> list:
    """Four of twelve sellers hold no fragment: their span still opens."""
    world = build_world(
        nodes=12, n_relations=4, fragments=2, replicas=1, seed=7
    )
    tracer = Tracer()
    with offer_id_scope():
        assert trade(world, chain_query(3), tracer=tracer).found
    records = tracer.records
    idle = {
        r.site for r in records
        if r.name == "seller.prepare_offers"
        and r.args["offers"] == 0 and r.args["work"] == 0.0
    }
    assert {"node8", "node9", "node10", "node11"} <= idle
    return records


def case_replicas() -> list:
    """Four sellers holding the same fragments answer each RFB through
    the world's one offer cache, and a subcontracting seller buys from
    them over its own nested RFB."""
    world = build_world(
        nodes=6, n_relations=3, fragments=1, replicas=5, seed=7
    )
    replicas = ("node0", "node1", "node2", "node3")
    held = {node: world.catalog.local(node).held for node in replicas}
    assert all(h == held["node0"] for h in held.values())
    tracer = Tracer()
    with offer_id_scope():
        assert trade(
            world, chain_query(3), tracer=tracer, subcontracting=True
        ).found
    records = tracer.records
    priced = [
        r.site for r in records
        if r.name == "seller.prepare_offers" and r.args["offers"] > 0
    ]
    # Each replica answers the fanout of both rounds and the nested RFB.
    assert all(priced.count(node) >= 3 for node in replicas)
    assert {"node0", "node1", "node2", "node3"} <= {
        r.site for r in records if r.name == "cache.miss"
    }
    return records


def case_fault_crash() -> list:
    """A winner crashes after award: renegotiation and DP reassembly."""
    world = build_world(
        nodes=6, n_relations=4, fragments=2, replicas=2, seed=7
    )
    query = chain_query(3, selection_cat=3)
    agents = dict(offer_cache=None, use_offer_cache=False)
    with offer_id_scope():
        clean = trade(world, query, timeout=0.05, **agents)
    victim = clean.contracts[0].seller
    plan = FaultPlan(seed=7).with_crash(victim, crash_at=1e6)
    tracer = Tracer()
    with offer_id_scope():
        result = trade(
            world, query, fault_plan=plan, timeout=0.05, tracer=tracer,
            **agents,
        )
    assert result.found and result.resilience.renegotiations >= 1
    records = tracer.records
    assert {"resilience.renegotiate", "ledger.void"} <= _names(records)
    # _reassemble's plan generation runs after the inner optimize().
    reassembly = [
        r for r in records
        if r.name == "buyer.compute" and (r.args or {}).get("reassembly")
    ]
    assert reassembly
    renegotiate = next(
        r for r in records if r.name == "resilience.renegotiate"
    )
    assert any(
        r.name == "buyer.plangen" and r.seq > renegotiate.seq
        for r in records
    )
    return records


def case_fault_lossy() -> list:
    """Drops, duplicates and delay spikes under round deadlines: a round
    closed by its deadline, a round every seller left silent, and
    re-issued RFB waves."""
    world = build_world(nodes=8, n_relations=4, fragments=3, seed=7)
    plan = FaultPlan.uniform(
        drop_rate=0.7, duplicate_rate=0.1, delay_spike_rate=0.1,
        delay_spike_seconds=0.02, seed=6,
    )
    tracer = Tracer()
    with offer_id_scope():
        result = trade(
            world, chain_query(3), fault_plan=plan, timeout=0.05,
            tracer=tracer,
        )
    assert result.found
    records = tracer.records
    assert {
        "fault.drop", "fault.duplicate", "fault.delay_spike", "round.retry",
    } <= _names(records)
    critical = CriticalPath.from_records(records)
    assert critical.total == result.optimization_time
    rounds = [r for t in critical.trades for r in t["rounds"]]
    kinds = [r["bottleneck"]["kind"] for r in rounds if r["bottleneck"]]
    assert "deadline" in kinds and "silent" in kinds
    assert any(r["waves"] > 1 for r in rounds)
    return records


def case_broker() -> list:
    """One traced broker session, offers sorted by the broker's order."""
    tracers: list[Tracer] = []
    sorted_offers = [0]
    order_key = broker_service._offer_order_key

    class _Captured(Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    def counting_key(offer):
        sorted_offers[0] += 1
        return order_key(offer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(broker_service, "Tracer", _Captured)
        patch.setattr(broker_service, "_offer_order_key", counting_key)
        service = BrokerService(
            world_config=dict(
                nodes=6, n_relations=4, rows=10_000, fragments=2,
                replicas=2, seed=7,
            )
        )
        try:
            session = service.submit(
                service.parse_spec(
                    {"sql": chain_query(3).sql(), "trace": True}
                )
            )
            assert session.wait(timeout=120.0)
            assert session.result is not None and session.result.found
        finally:
            service.close()
    assert len(tracers) == 1
    assert sorted_offers[0] > 0, "the broker's offer sort never ran"
    return tracers[0].records


CASES = {
    "trade": case_trade,
    "bargaining": case_bargaining,
    "empty_sellers": case_empty_sellers,
    "replicas": case_replicas,
    "fault_crash": case_fault_crash,
    "fault_lossy": case_fault_lossy,
    "broker": case_broker,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_bytes_match_golden(case):
    got = _entry(CASES[case]())
    expected = json.loads(GOLDEN_TRACES.read_text())[case]
    assert got == expected, f"{case}: got {json.dumps(got)}"


def _write() -> None:
    golden = {name: _entry(run()) for name, run in CASES.items()}
    GOLDEN_TRACES.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_traces --write")
    _write()
