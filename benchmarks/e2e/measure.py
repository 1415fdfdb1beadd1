"""What both workload kinds share: the pass loop, the outcome record,
and turning span totals into per-layer metrics."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import oracle
import spec

T = TypeVar("T")


@dataclass
class Outcome:
    """One run of one workload."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: failed checks (oracle, digest, span arithmetic); empty = correct
    failures: list[str] = field(default_factory=list)
    plan_digest: str = ""
    #: sample counts and other facts a reader needs beside the numbers
    notes: dict = field(default_factory=dict)
    #: ``spans.jsonl`` lines (traced runs)
    span_lines: list[str] = field(default_factory=list)


def run_passes(one_pass: Callable[[int], T], seconds: float) -> list[T]:
    """``one_pass(index)`` at least ``MIN_PASSES`` times over identical
    inputs, then more while at least half of the next pass (judged by
    the one just finished) still fits in *seconds*."""
    passes: list[T] = []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        passes.append(one_pass(len(passes)))
        now = time.perf_counter()
        if (
            len(passes) >= spec.MIN_PASSES
            and (now - began) + (now - pass_began) / 2 > seconds
        ):
            return passes


def check_passes(passes: list[list], outcome: Outcome) -> None:
    """Count operations and failures, and require what is a pure
    function of the input — plan text (as ``plan_digest``) and each
    sample's ``facts`` — to be identical in every pass.  Samples have
    ``ok``, ``plan_text`` and ``facts``."""
    for samples in passes:
        outcome.attempted += len(samples)
        outcome.failed += sum(not sample.ok for sample in samples)
    digests = [
        oracle.plan_digest([sample.plan_text for sample in samples])
        for samples in passes
    ]
    facts = [[sample.facts for sample in samples] for samples in passes]
    outcome.plan_digest = digests[0]
    for index in range(1, len(passes)):
        if digests[index] != digests[0]:
            outcome.failures.append(f"plan_digest of pass {index + 1} differs")
        if facts[index] != facts[0]:
            outcome.failures.append(
                f"plan cost or messages of pass {index + 1} differ"
            )


def host_spin_ms(repeats: int = 9) -> tuple[float, float]:
    """(best, median) milliseconds of a fixed pure-Python loop — how
    fast this host is right now, and whether it is flipping between
    speeds; nothing of the program under test runs in it."""
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        total, table = 0, {}
        for i in range(60_000):
            total += i * i % 7
            table[i & 1023] = total
        samples.append((time.perf_counter() - began) * 1e3)
    return min(samples), statistics.median(samples)


def check_span_arithmetic(ops: dict[str, dict], failures: list[str]) -> None:
    """Per operation, self times must sum to the time in root spans."""
    for op, totals in ops.items():
        self_sum = sum(row[2] for row in totals["spans"].values())
        root = totals["root_s"]
        if abs(self_sum - root) > 1e-6 * max(root, 1e-9) + 1e-9:
            failures.append(
                f"span self times of {op} sum to {self_sum!r}, "
                f"its root spans to {root!r}"
            )


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics from per-operation span totals: ``_s`` are
    seconds per operation (mean over operations), counts are calls per
    operation, ratios are pooled over all operations."""
    count = len(ops)
    if not count:
        return {}

    def col(name: str, index: int) -> float:
        return sum(op["spans"].get(name, (0, 0.0, 0.0))[index] for op in ops)

    def calls(name: str) -> float:
        return col(name, 0) / count

    def total(name: str) -> float:
        return col(name, 1) / count

    def self_s(name: str) -> float:
        return col(name, 2) / count

    def pooled(key: str) -> float:
        return sum(op["counters"].get(key, 0) for op in ops)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "sql.parse_s": total("sql.parse"),
        "sql.rewrite_s": self_s("sql.rewrite"),
        "sql.rewrite_calls": calls("sql.rewrite"),
        "optimizer.dp_s": self_s("optimizer.dp"),
        "optimizer.dp_calls": calls("optimizer.dp"),
        "optimizer.enumerated": pooled("optimizer.enumerated") / count,
        "seller.prepare_s": total("seller.prepare_offers"),
        "seller.self_s": self_s("seller.prepare_offers"),
        "seller.prepare_calls": calls("seller.prepare_offers"),
        "seller.offers_made": pooled("seller.offers_made") / count,
        "seller.purchased_ratio": ratio(
            pooled("trade.purchased"), pooled("seller.offers_made")
        ),
        "cache.lookup_s": total("cache.lookup"),
        "cache.store_s": total("cache.store"),
        "cache.lookups": calls("cache.lookup"),
        "cache.hit_ratio": ratio(
            pooled("cache.hits"), pooled("cache.hits") + pooled("cache.misses")
        ),
        "buyer.generate_s": total("buyer.generate"),
        "buyer.generate_calls": calls("buyer.generate"),
        "buyer.enumerated": pooled("buyer.enumerated") / count,
        "buyer.offers_in": pooled("buyer.offers_in") / count,
        "buyer.derive_s": total("buyer.derive"),
        "buyer.derived_queries": pooled("buyer.derived_queries") / count,
        "protocol.solicit_self_s": self_s("protocol.solicit"),
        "protocol.award_s": total("protocol.award"),
        "protocol.rounds": calls("protocol.solicit"),
        "protocol.offers_received": pooled("protocol.offers_received") / count,
        "net.send_s": total("net.send"),
        "net.send_calls": calls("net.send"),
        "net.run_self_s": self_s("net.run"),
        "net.bytes": pooled("net.bytes") / count,
        "trader.root_s": total("trade.optimize"),
        "trader.self_s": self_s("trade.optimize"),
        "obs.postprocess_s": total("obs.postprocess"),
        "obs.records_per_trade": pooled("obs.records") / count,
        "broker.parse_spec_s": self_s("broker.parse_spec"),
        "broker.result_payload_s": total("broker.result_payload"),
    }
