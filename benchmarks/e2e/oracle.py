"""Correctness checks, run in the untimed phase of every run.

A benchmark number for a wrong answer is worth nothing, so each check
returns the list of what it found wrong (empty = pass) and ``run.py``
fails the run on any entry.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import spec


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    verify_s: float = 0.0  # PlanExecutor.run + evaluate_query, summed
    rows_checked: int = 0
    checked: int = 0  # plans executed

    def metrics(self) -> dict[str, float]:
        """The ``repro.execution`` per-layer metrics, per plan executed."""
        if not self.checked:
            return {}
        return {
            "execution.verify_s": self.verify_s / self.checked,
            "execution.rows_checked": self.rows_checked / self.checked,
        }


def plan_digest(plan_texts: list[str]) -> str:
    """sha256 over the ``explain()`` texts of a pass, in slot order."""
    digest = hashlib.sha256()
    for text in plan_texts:
        digest.update(text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _execute(verdict: Verdict, label: str, world, data, sql: str, plan) -> None:
    """The purchased plan, executed over materialised fragments, must
    return what a single-site evaluation of the query returns."""
    from repro.execution import PlanExecutor, evaluate_query
    from repro.sql import parse_query

    query = parse_query(sql, world.catalog.schemas)
    began = time.perf_counter()
    answer = PlanExecutor(data, query).run(plan)
    reference = evaluate_query(query, data)
    verdict.verify_s += time.perf_counter() - began
    verdict.rows_checked += len(reference.rows)
    verdict.checked += 1
    if not answer.equals_unordered(reference):
        verdict.failures.append(
            f"{label}: executed plan returned {len(answer.rows)} rows that "
            f"differ from the centralized answer ({len(reference.rows)} rows)"
        )


def check_trades(world, sqls: list[str], results: list, seed: int) -> Verdict:
    """Execute the plans bought for *sqls* (``TradingResult`` each)."""
    from repro.execution import FederationData

    verdict = Verdict()
    data = FederationData.build(world.catalog, seed)
    for slot, (sql, result) in enumerate(zip(sqls, results)):
        if result.found:
            _execute(verdict, f"input {slot}", world, data, sql, result.best.plan)
    return verdict


def check_sessions(sqls: list[str], payloads: list[dict], seed: int) -> Verdict:
    """What the daemon answered over HTTP must equal an in-process
    ``BrokerService.submit`` of the same SQL on an identically
    configured world; that session's plan is then executed."""
    from repro.broker import BrokerService
    from repro.execution import FederationData

    verdict = Verdict()
    service = BrokerService(world_config=spec.SERVE_WORLD, clock="sim")
    try:
        world = service.world
        data = FederationData.build(world.catalog, seed)
        for slot, (sql, payload) in enumerate(zip(sqls, payloads)):
            label = f"session slot {slot}"
            session = service.submit(service.parse_spec({"sql": sql}))
            if not session.wait(timeout=spec.SESSION_TIMEOUT_S):
                verdict.failures.append(f"{label}: in-process session hung")
                continue
            result = session.result
            if result is None or not result.found:
                verdict.failures.append(f"{label}: in-process session found no plan")
                continue
            expected = {
                "plan_cost": result.plan_cost,
                "messages": result.messages.messages,
                "plan": result.best.plan.explain(),
            }
            for key, value in expected.items():
                if payload.get(key) != value:
                    verdict.failures.append(
                        f"{label}: daemon {key}={payload.get(key)!r}, "
                        f"in-process {value!r}"
                    )
            _execute(verdict, label, world, data, sql, result.best.plan)
    finally:
        service.close()
    return verdict
