"""The ``serve_*`` workloads: real HTTP/1.1 clients against a fresh
``repro serve`` daemon per pass.

The user is a tenant who wants a plan: ``POST /sessions``, then ``GET
/sessions/<id>/result`` until it is ``200`` (2 ms sleep after a
``409``), each client on one keep-alive connection.  Latency is what
the client sees, counted from the instant the session was *due* to be
submitted — in the open loop that charges a late submitter to the
sessions it delays.  Load comes from this one process with at most two
threads and two connections.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle
import spans
import spec
from daemon import Daemon
from measure import (
    Outcome,
    check_passes,
    check_span_arithmetic,
    layer_metrics,
    run_passes,
)
from stats import per_input_best, percentile

_POLL_SLEEP_S = 0.002
_CLIENT_ERRORS = (OSError, http.client.HTTPException, ValueError)


@dataclass
class SessionSample:
    """One session as its client saw it."""

    slot: int
    latency_ms: float | None = None  # None: the session failed
    submit_ms: float = 0.0  # POST round trip
    lag_ms: float = 0.0  # how late the submit started (open loop)
    polls: int = 0
    sid: str | None = None
    payload: dict | None = None  # the 200 body of /result
    error: str | None = None
    shed: bool = False  # the submit answered 429

    @property
    def ok(self) -> bool:
        return self.latency_ms is not None

    @property
    def plan_text(self) -> str:
        return self.payload["plan"] if self.ok else ""

    @property
    def facts(self) -> tuple | None:
        """What must not differ between passes over identical inputs
        (simulated time may: a cache hit is charged less of it)."""
        if not self.ok:
            return None
        return (self.payload["plan_cost"], self.payload["messages"])


@dataclass
class PassResult:
    samples: list[SessionSample]
    elapsed_s: float  # first submit -> last result
    ready_s: float  # daemon spawn -> first 200 on /healthz
    rss_warm_kb: int = 0
    rss_end_kb: int = 0
    hwm_kb: int = 0
    healthz_ms: list[float] = field(default_factory=list)
    #: daemon ``latency_ms`` of the same SQL with per-session tracing on
    #: (the default) and off, interleaved (probe runs only)
    tracer_on_ms: list[float] = field(default_factory=list)
    tracer_off_ms: list[float] = field(default_factory=list)


def _request(connection, method: str, path: str, body: dict | None = None):
    data = None if body is None else json.dumps(body)
    headers = {} if body is None else {"Content-Type": "application/json"}
    connection.request(method, path, body=data, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def run_session(
    connection, sample: SessionSample, sql: str, due: float,
    extra: dict | None = None,
) -> None:
    """Submit and collect one session, filling in *sample*."""
    submit(connection, sample, sql, due, extra)
    if sample.sid is not None:
        collect(connection, sample, due)


def submit(
    connection, sample: SessionSample, sql: str, due: float,
    extra: dict | None = None,
) -> None:
    """``POST /sessions``; ``sample.sid`` stays ``None`` unless accepted."""
    began = time.perf_counter()
    sample.lag_ms = (began - due) * 1e3
    status, payload = _request(
        connection, "POST", "/sessions", {"sql": sql, **(extra or {})}
    )
    sample.submit_ms = (time.perf_counter() - began) * 1e3
    if status != 202:
        sample.shed = status == 429
        sample.error = f"submit answered {status}: {payload}"
    else:
        sample.sid = payload["session"]


def collect(connection, sample: SessionSample, due: float) -> None:
    deadline = due + spec.SESSION_TIMEOUT_S
    path = f"/sessions/{sample.sid}/result"
    while True:
        status, payload = _request(connection, "GET", path)
        sample.polls += 1
        if status == 200:
            break
        if status != 409:
            sample.error = f"result answered {status}: {payload}"
            return
        if time.perf_counter() > deadline:
            sample.error = "no result within the session timeout"
            return
        time.sleep(_POLL_SLEEP_S)
    done = time.perf_counter()
    sample.payload = payload
    if payload.get("state") not in ("completed", "degraded"):
        sample.error = f"session ended {payload.get('state')}"
    elif not payload.get("found"):
        sample.error = "no plan found"
    else:
        sample.latency_ms = (done - due) * 1e3


# ----------------------------------------------------------------------
def closed_loop(
    daemon: Daemon, sqls: list[str], clients: int
) -> tuple[list[SessionSample], float]:
    """*clients* threads, one connection each; a client submits its next
    session only when it holds the previous result.  Slot *i* is the
    *i*-th query handed out."""
    samples = [SessionSample(slot) for slot in range(len(sqls))]
    handout = iter(range(len(sqls)))
    lock = threading.Lock()
    intervals: list[tuple[float, float]] = []

    def client() -> None:
        connection = daemon.connect()
        try:
            while True:
                with lock:
                    slot = next(handout, None)
                if slot is None:
                    return
                due = time.perf_counter()
                try:
                    run_session(connection, samples[slot], sqls[slot], due)
                except _CLIENT_ERRORS as exc:
                    samples[slot].error = f"{type(exc).__name__}: {exc}"
                    connection.close()  # reconnects on the next request
                with lock:
                    intervals.append((due, time.perf_counter()))
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, name=f"client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if not intervals:
        return samples, 0.0
    elapsed = max(end for _, end in intervals) - min(
        start for start, _ in intervals
    )
    return samples, elapsed


def open_loop(
    daemon: Daemon, sqls: list[str], due_offsets: list[float]
) -> tuple[list[SessionSample], float]:
    """Independent tenants: a submitter thread sleeps to each due time
    and posts; a collector thread polls the oldest outstanding session.
    Neither waits for the other, so sessions queue inside the broker."""
    samples = [SessionSample(slot) for slot in range(len(sqls))]
    outstanding: "queue.Queue[int | None]" = queue.Queue()
    start = time.perf_counter() + 0.05
    due = [start + offset for offset in due_offsets]
    finished: list[float] = []

    def submitter() -> None:
        connection = daemon.connect()
        try:
            for slot, sql in enumerate(sqls):
                delay = due[slot] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    submit(connection, samples[slot], sql, due[slot])
                except _CLIENT_ERRORS as exc:
                    samples[slot].error = f"{type(exc).__name__}: {exc}"
                    connection.close()
                if samples[slot].sid is not None:
                    outstanding.put(slot)
        finally:
            outstanding.put(None)
            connection.close()

    def collector() -> None:
        connection = daemon.connect()
        try:
            while True:
                slot = outstanding.get()
                if slot is None:
                    return
                try:
                    collect(connection, samples[slot], due[slot])
                except _CLIENT_ERRORS as exc:
                    samples[slot].error = f"{type(exc).__name__}: {exc}"
                    connection.close()
                finished.append(time.perf_counter())
        finally:
            connection.close()

    threads = [
        threading.Thread(target=submitter, name="submitter"),
        threading.Thread(target=collector, name="collector"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = (max(finished) if finished else time.perf_counter()) - due[0]
    return samples, elapsed


# ----------------------------------------------------------------------
def _probe(daemon: Daemon, sqls: list[str], result: PassResult) -> None:
    """Per-layer extras that need the live daemon (traced runs only):
    the bare keep-alive request round trip, and what per-session tracing
    (on by default in the broker) costs — same SQL, on/off/off/on, read
    from the daemon's own ``latency_ms`` so HTTP does not blur it."""
    connection = daemon.connect()
    try:
        for _ in range(20):
            began = time.perf_counter()
            _request(connection, "GET", "/healthz")
            result.healthz_ms.append((time.perf_counter() - began) * 1e3)
        for sql in sqls:
            for trace in (True, False, False, True):
                sample = SessionSample(-1)
                run_session(
                    connection, sample, sql, time.perf_counter(),
                    extra={"trace": trace},
                )
                if sample.ok:
                    into = result.tracer_on_ms if trace else result.tracer_off_ms
                    into.append(sample.payload["latency_ms"])
    finally:
        connection.close()


def run_pass(
    sizes: dict,
    sqls: list[str],
    warm_sqls: list[str],
    due_offsets: list[float] | None,
    spans_path: Path | None = None,
    probe: bool = False,
) -> PassResult:
    """One fresh daemon: warm up, measure, read its memory, stop it."""
    with Daemon(spans_path) as daemon:
        closed_loop(daemon, warm_sqls, clients=2)
        rss_warm = daemon.memory_kb()["VmRSS"]
        if sizes["loop"] == "closed":
            samples, elapsed = closed_loop(daemon, sqls, sizes["clients"])
        else:
            samples, elapsed = open_loop(daemon, sqls, due_offsets)
        memory = daemon.memory_kb()
        result = PassResult(
            samples=samples,
            elapsed_s=elapsed,
            ready_s=daemon.ready_s,
            rss_warm_kb=rss_warm,
            rss_end_kb=memory["VmRSS"],
            hwm_kb=memory["VmHWM"],
        )
        if probe:
            _probe(daemon, sqls[:6], result)
    return result


# ----------------------------------------------------------------------
def _decks(sizes: dict, seed: int):
    sqls = inputs.deck(sizes, seed)
    warm = inputs.deck(sizes, seed, "warmup", count=sizes["warmup"])
    due = None
    if sizes["loop"] == "open":
        due = inputs.arrival_schedule(sizes["inputs"], sizes["rate"])
    return sqls, warm, due


def _check_passes(passes: list[PassResult], outcome: Outcome) -> None:
    check_passes([result.samples for result in passes], outcome)
    errors = [
        sample.error for result in passes for sample in result.samples
        if not sample.ok
    ]
    if errors:
        outcome.notes["first_errors"] = errors[:5]


def _run_oracle(sqls, result: PassResult, sizes, seed, outcome: Outcome):
    checked = [
        (sql, sample.payload)
        for sql, sample in zip(sqls, result.samples[: sizes["oracle_inputs"]])
        if sample.ok
    ]
    verdict = oracle.check_sessions(
        [sql for sql, _ in checked], [payload for _, payload in checked], seed
    )
    outcome.failures.extend(verdict.failures)
    outcome.notes["plans_executed"] = verdict.checked
    return verdict


def end_to_end(sizes: dict, seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    sqls, warm, due = _decks(sizes, seed)
    passes = run_passes(lambda index: run_pass(sizes, sqls, warm, due), seconds)
    _check_passes(passes, outcome)

    latencies = [
        ms for ms in per_input_best(
            [[s.latency_ms for s in result.samples] for result in passes]
        )
        if ms is not None
    ]
    first = [s.payload for s in passes[0].samples if s.ok]
    if latencies and first:
        outcome.metrics = {
            "setup_s": statistics.median(r.ready_s for r in passes),
            "op_ms_p50": percentile(latencies, 0.50),
            "op_ms_mean": statistics.fmean(latencies),
            "ops_per_s": max(len(r.samples) / r.elapsed_s for r in passes),
            "plan_cost_mean": statistics.fmean(p["plan_cost"] for p in first),
            "messages_per_op": statistics.fmean(p["messages"] for p in first),
            "sim_opt_s_mean": statistics.fmean(
                p["optimization_time"] for p in first
            ),
            "peak_rss_mb": statistics.median(r.hwm_kb for r in passes) / 1024.0,
        }
    outcome.notes.update(
        passes=len(passes), samples=len(latencies), setup_samples=len(passes)
    )
    _run_oracle(sqls, passes[0], sizes, seed, outcome)
    return outcome


def per_layer(sizes: dict, seed: int) -> Outcome:
    """One pass against a plain daemon (what client and daemon report by
    themselves, plus the live probes) and one against a daemon started
    with the span wrappers installed (everything read from spans)."""
    outcome = Outcome()
    sqls, warm, due = _decks(sizes, seed)
    plain = run_pass(sizes, sqls, warm, due, probe=True)
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    dump_path = spec.OUT_DIR / f"daemon-spans-{os.getpid()}.json"
    try:
        traced = run_pass(sizes, sqls, warm, due, spans_path=dump_path)
        dump = json.loads(dump_path.read_text())
    finally:
        dump_path.unlink(missing_ok=True)
    _check_passes([plain, traced], outcome)

    sids = [s.sid for s in traced.samples if s.ok]
    ops = {sid: dump["ops"][sid] for sid in sids if sid in dump["ops"]}
    if len(ops) != len(sids):
        outcome.failures.append(
            f"daemon recorded spans for {len(ops)} of {len(sids)} sessions"
        )
    check_span_arithmetic(ops, outcome.failures)
    metrics = layer_metrics(list(ops.values()))

    def pooled(key: str) -> list[float]:
        return [op["counters"][key] for op in ops.values() if key in op["counters"]]

    waits = [s * 1e3 for s in pooled("broker.queue_wait_s")]
    services = [s * 1e3 for s in pooled("broker.service_s")]
    good = [s for s in plain.samples if s.ok]
    server_ms = [s.payload["latency_ms"] for s in good]
    if waits and services and good:
        metrics.update({
            "broker.queue_wait_ms_p50": percentile(waits, 0.50),
            "broker.queue_wait_ms_p95": percentile(waits, 0.95),
            "broker.service_ms_p50": percentile(services, 0.50),
            "broker.http_request_ms_p50": percentile(plain.healthz_ms, 0.50),
            "broker.submit_ms_p50": percentile([s.submit_ms for s in good], 0.50),
            "broker.server_latency_ms_p50": percentile(server_ms, 0.50),
            "broker.server_latency_ms_p95": percentile(server_ms, 0.95),
            "broker.polls_per_session": statistics.fmean(s.polls for s in good),
            "broker.degraded_frac": statistics.fmean(
                bool(s.payload["degraded"]) for s in good
            ),
            "tail.op_ms_p90": percentile([s.latency_ms for s in good], 0.90),
            "loadgen.lag_ms_p95": percentile([s.lag_ms for s in good], 0.95),
            "loadgen.achieved_rate": len(plain.samples) / plain.elapsed_s,
        })
    metrics["broker.shed_frac"] = statistics.fmean(
        s.shed for s in plain.samples
    )
    metrics["broker.rss_kb_per_session"] = (
        plain.rss_end_kb - plain.rss_warm_kb
    ) / len(plain.samples)
    traced_ms = [s.payload["latency_ms"] for s in traced.samples if s.ok]
    if server_ms and traced_ms:
        metrics["trace.overhead_frac"] = (
            statistics.fmean(traced_ms) / statistics.fmean(server_ms) - 1.0
        )
    if plain.tracer_on_ms and plain.tracer_off_ms:
        metrics["obs.tracer_on_ratio"] = (
            sum(plain.tracer_on_ms) / sum(plain.tracer_off_ms)
        )
    metrics.update(_run_oracle(sqls, plain, sizes, seed, outcome).metrics())
    metrics["harness.samples"] = len(sqls)
    metrics["harness.passes"] = 2
    outcome.metrics = metrics

    outcome.span_lines = spans.render_lines(
        dump["records"], {sid: ops[sid] for sid in sids[:3] if sid in ops}
    )
    return outcome
