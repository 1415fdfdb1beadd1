"""Broker service behavior: determinism, admission, budgets, HTTP API."""

from __future__ import annotations

import gc
import http.client
import json
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.bench.harness import build_world, run_qt
from repro.broker import (
    COMPLETED,
    DEGRADED,
    SHED,
    AdmissionConfig,
    AdmissionController,
    BrokerError,
    BrokerService,
    OrderedBiddingProtocol,
    Router,
    SessionBudget,
    SessionManager,
    start_server,
)
from repro.broker.server import MAX_BODY_BYTES, _Handler
from repro.broker.sessions import RUNNING, BrokerSession, SessionSpec
from repro.obs.live import parse_prometheus_text
from repro.trading.commodity import offer_id_scope
from repro.workload import BurstConfig, build_bursty_workload
from tests.conftest import watch_plan_rounds

WORLD = dict(
    nodes=6, n_relations=4, rows=10_000, fragments=2, replicas=2, seed=7
)


@pytest.fixture(scope="module")
def arrivals():
    return build_bursty_workload(
        BurstConfig(
            tenants=4, bursts=2, burst_size=4, available_relations=4, seed=11
        )
    )


def make_service(**kwargs) -> BrokerService:
    kwargs.setdefault("world_config", WORLD)
    return BrokerService(**kwargs)


def submit_sql(service: BrokerService, sql: str, **payload):
    return service.submit(service.parse_spec({"sql": sql, **payload}))


def serve_all(service: BrokerService, arrivals) -> dict[str, dict]:
    """Submit every arrival, drain, return result payloads by SQL."""
    sessions = [
        submit_sql(service, a.query.sql(), tenant=a.tenant) for a in arrivals
    ]
    assert service.drain(timeout=120.0)
    return {
        s.spec.sql: service.result_payload(s.session_id) for s in sessions
    }


def plan_signature(payload: dict) -> tuple:
    return (
        payload["found"],
        payload["plan_cost"],
        payload["plan"],
        tuple(payload["contracts"]),
    )


class TestAdmissionController:
    def test_admits_until_queue_full(self):
        controller = AdmissionController(
            AdmissionConfig(max_concurrent=2, queue_limit=1)
        )
        assert controller.try_admit()
        assert not controller.try_admit()
        occupancy = controller.occupancy()
        assert occupancy["queued"] == 1
        assert occupancy["shed_total"] == 1
        controller.on_start()
        assert controller.try_admit()  # queue slot freed
        controller.on_finish()

    def test_zero_queue_sheds_everything(self):
        controller = AdmissionController(
            AdmissionConfig(max_concurrent=1, queue_limit=0)
        )
        assert not controller.try_admit()
        assert controller.occupancy()["shed_total"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_concurrent=0)
        with pytest.raises(ValueError):
            AdmissionConfig(queue_limit=-1)
        with pytest.raises(ValueError):
            SessionBudget(rounds=0)


class TestSessionManager:
    def test_overflow_is_shed_not_queued(self):
        release = threading.Event()
        started = threading.Event()

        def runner(session):
            started.set()
            release.wait(timeout=30.0)

        controller = AdmissionController(
            AdmissionConfig(max_concurrent=1, queue_limit=1)
        )
        manager = SessionManager(runner, controller)
        spec = SessionSpec(sql="", query=None)
        running = BrokerSession("s1", spec)
        queued = BrokerSession("s2", spec)
        shed = BrokerSession("s3", spec)
        try:
            assert manager.submit(running)
            started.wait(timeout=30.0)
            assert manager.submit(queued)
            assert not manager.submit(shed)
            assert shed.state == SHED
            assert shed.error == "queue full"
            release.set()
            assert running.wait(timeout=30.0)
            assert queued.wait(timeout=30.0)
            assert running.state == COMPLETED
            assert queued.state == COMPLETED
        finally:
            release.set()
            manager.close()

    def test_runner_failure_marks_failed(self):
        def runner(session):
            raise RuntimeError("boom")

        controller = AdmissionController(AdmissionConfig(max_concurrent=1))
        manager = SessionManager(runner, controller)
        session = BrokerSession("s1", SessionSpec(sql="", query=None))
        try:
            manager.submit(session)
            assert session.wait(timeout=30.0)
            assert session.state == "failed"
            assert "boom" in session.error
        finally:
            manager.close()


class TestBrokerDeterminism:
    def test_concurrent_matches_serial_and_library(self, arrivals):
        """8-way concurrent serving == serial serving == plain run_qt."""
        serial = make_service(
            admission=AdmissionConfig(max_concurrent=1, queue_limit=64)
        )
        concurrent = make_service(
            admission=AdmissionConfig(max_concurrent=8, queue_limit=64)
        )
        try:
            serial_results = serve_all(serial, arrivals)
            concurrent_results = serve_all(concurrent, arrivals)
        finally:
            serial.close()
            concurrent.close()
        assert len(concurrent_results) >= 8
        for sql, payload in serial_results.items():
            assert payload["state"] == COMPLETED
            assert plan_signature(payload) == plan_signature(
                concurrent_results[sql]
            )
        # And the broker's plans are the library's plans: a plain
        # run_qt with the broker's canonical intake ordering (and the
        # broker's fresh per-session offer-id counter, which the plan's
        # provenance strings embed) agrees.
        world = build_world(**WORLD)
        for arrival in arrivals[:3]:
            with offer_id_scope():
                measurement = run_qt(
                    world,
                    arrival.query,
                    protocol=OrderedBiddingProtocol(),
                    label="qt-dp",
                )
            payload = serial_results[arrival.query.sql()]
            assert payload["plan_cost"] == measurement.plan_cost
            assert payload["plan"] == measurement.plan_explain

    def test_async_clock_matches_sim_clock(self, arrivals):
        """Wall-time serving produces the simulator's exact plans."""
        sim = make_service(clock="sim")
        asy = make_service(clock="async")
        try:
            sql = arrivals[0].query.sql()
            sim_payload = serve_one(sim, sql)
            async_payload = serve_one(asy, sql)
        finally:
            sim.close()
            asy.close()
        assert plan_signature(sim_payload) == plan_signature(async_payload)

    def test_critpath_identical_across_clocks(self, arrivals):
        """One session per service (no epoch sharing): the causal
        critical-path decomposition is clock-independent to the byte,
        and its phases tile the session's simulated time."""
        sim = make_service(clock="sim")
        asy = make_service(clock="async")
        try:
            sql = arrivals[0].query.sql()
            sim_session = submit_sql(sim, sql)
            asy_session = submit_sql(asy, sql)
            assert sim_session.wait(timeout=120.0)
            assert asy_session.wait(timeout=120.0)
            sim_cp = sim.critpath_payload(sim_session.session_id)
            asy_cp = asy.critpath_payload(asy_session.session_id)
        finally:
            sim.close()
            asy.close()
        assert json.dumps(sim_cp, sort_keys=True) == json.dumps(
            asy_cp, sort_keys=True
        )
        assert sim_cp["total"] > 0.0
        assert sum(sim_cp["phases"].values()) == pytest.approx(
            sim_cp["total"], rel=1e-9
        )

    def test_sessions_share_the_offer_cache(self, arrivals):
        """A repeated query hits pricing work cached by its predecessor."""
        service = make_service()
        try:
            sql = arrivals[0].query.sql()
            first = serve_one(service, sql)
            second = serve_one(service, sql)
        finally:
            service.close()
        assert first["cache"]["misses"] > 0
        assert second["cache"]["hits"] > 0
        assert plan_signature(first) == plan_signature(second)


def serve_one(service: BrokerService, sql: str, **payload) -> dict:
    session = submit_sql(service, sql, **payload)
    assert session.wait(timeout=120.0)
    return service.result_payload(session.session_id)


class TestBudgets:
    def test_round_budget_degrades_gracefully(self, arrivals):
        service = make_service(
            admission=AdmissionConfig(budget=SessionBudget(rounds=1))
        )
        try:
            payload = serve_one(service, arrivals[0].query.sql())
        finally:
            service.close()
        assert payload["state"] == DEGRADED
        assert payload["degraded"] is True
        assert payload["iterations"] == 1
        assert payload["found"]  # degraded still answers
        assert payload["plan_cost"] > 0

    def test_offer_budget_degrades_gracefully(self, arrivals):
        service = make_service(
            admission=AdmissionConfig(
                budget=SessionBudget(rounds=6, offers=1)
            )
        )
        try:
            payload = serve_one(service, arrivals[0].query.sql())
        finally:
            service.close()
        assert payload["state"] == DEGRADED
        assert payload["offers_considered"] >= 1


class TestExplain:
    def test_explain_works_on_broker_sessions(self, arrivals):
        service = make_service()
        try:
            session = submit_sql(service, arrivals[0].query.sql())
            assert session.wait(timeout=120.0)
            explanation = service.explain_payload(session.session_id)
        finally:
            service.close()
        assert explanation["found"]
        assert explanation["commodities"]

    def test_untraced_session_409s(self, arrivals):
        service = make_service()
        try:
            session = submit_sql(
                service, arrivals[0].query.sql(), trace=False
            )
            assert session.wait(timeout=120.0)
            with pytest.raises(BrokerError) as err:
                service.explain_payload(session.session_id)
            with pytest.raises(BrokerError) as crit_err:
                service.critpath_payload(session.session_id)
        finally:
            service.close()
        assert err.value.status == 409
        assert crit_err.value.status == 409


class TestRouter:
    @pytest.fixture()
    def service(self):
        service = make_service()
        yield service
        service.close()

    def test_submit_poll_result_explain(self, service, arrivals):
        router = Router(service)
        body = json.dumps({"sql": arrivals[0].query.sql()}).encode()
        status, payload = router.dispatch("POST", "/sessions", body)
        assert status == 202
        sid = payload["session"]
        assert service.get(sid).wait(timeout=120.0)
        status, payload = router.dispatch("GET", f"/sessions/{sid}")
        assert status == 200 and payload["state"] == COMPLETED
        status, payload = router.dispatch("GET", f"/sessions/{sid}/result")
        assert status == 200 and payload["found"]
        status, payload = router.dispatch("GET", f"/sessions/{sid}/explain")
        assert status == 200 and payload["commodities"]
        status, payload = router.dispatch("GET", f"/sessions/{sid}/critpath")
        assert status == 200 and payload["total"] > 0.0
        assert set(payload["phases"]) >= {"seller_compute", "buyer_dp"}
        status, payload = router.dispatch("GET", "/sessions")
        assert status == 200 and len(payload["sessions"]) == 1
        status, payload = router.dispatch("GET", "/metrics")
        assert status == 200 and payload["completed_total"] == 1
        status, payload = router.dispatch("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_session_latency_lands_in_a_millisecond_bucket(
        self, service, arrivals
    ):
        """The latency histogram is in milliseconds: a ~15 ms session is
        counted in a finite bucket by ``/metrics`` and
        ``/metrics/prom`` alike, not in +Inf."""
        service._negotiate = lambda session: time.sleep(0.015)
        router = Router(service)
        body = json.dumps({"sql": arrivals[0].query.sql()}).encode()
        status, payload = router.dispatch("POST", "/sessions", body)
        assert status == 202
        assert service.get(payload["session"]).wait(timeout=60.0)
        status, metrics = router.dispatch("GET", "/metrics")
        histogram = metrics["registry"]["histograms"][
            "broker.session_latency_ms"
        ]["-"]
        assert status == 200 and histogram["count"] == 1
        assert 15.0 <= histogram["sum"] < histogram["boundaries"][-1]
        assert histogram["counts"][-1] == 0  # the +Inf overflow bucket
        status, text = router.dispatch("GET", "/metrics/prom")
        assert status == 200
        buckets = {
            dict(labels)["le"]: value
            for labels, value in parse_prometheus_text(text)
            .series("repro_broker_session_latency_ms_bucket")
            .items()
        }
        finite = [le for le, count in buckets.items() if le != "+Inf"]
        assert buckets["+Inf"] == 1
        assert any(buckets[le] == 1 for le in finite)

    def test_result_is_409_until_terminal(self, service, arrivals):
        # Register a session that never runs: the result and explain
        # endpoints must refuse with 409 while it is non-terminal.
        spec = service.parse_spec({"sql": arrivals[0].query.sql()})
        pending = BrokerSession("pending", spec)
        with service._lock:
            service._sessions[pending.session_id] = pending
        router = Router(service)
        status, payload = router.dispatch("GET", "/sessions/pending/result")
        assert status == 409 and "queued" in payload["error"]
        status, payload = router.dispatch("GET", "/sessions/pending/explain")
        assert status == 409
        status, payload = router.dispatch("GET", "/sessions/pending/critpath")
        assert status == 409

    def test_error_statuses(self, service):
        router = Router(service)
        assert router.dispatch("POST", "/sessions", b"not json")[0] == 400
        assert router.dispatch("POST", "/sessions", b"[]")[0] == 400
        assert router.dispatch("POST", "/sessions", b"{}")[0] == 400
        bad_sql = json.dumps({"sql": "SELECT FROM"}).encode()
        assert router.dispatch("POST", "/sessions", bad_sql)[0] == 400
        bad_mode = json.dumps({"sql": "SELECT r0.a FROM R0 r0",
                               "mode": "magic"}).encode()
        assert router.dispatch("POST", "/sessions", bad_mode)[0] == 400
        assert router.dispatch("GET", "/sessions/nope")[0] == 404
        assert router.dispatch("GET", "/nope")[0] == 404
        assert router.dispatch("DELETE", "/sessions")[0] == 405
        assert router.dispatch("POST", "/metrics")[0] == 405

    def test_shed_returns_429(self, arrivals):
        service = make_service(
            admission=AdmissionConfig(max_concurrent=1, queue_limit=0)
        )
        try:
            router = Router(service)
            body = json.dumps({"sql": arrivals[0].query.sql()}).encode()
            status, payload = router.dispatch("POST", "/sessions", body)
        finally:
            service.close()
        assert status == 429
        assert payload["state"] == SHED


class TestHTTPServer:
    def test_round_trip_over_real_sockets(self, arrivals):
        service = make_service()
        server = start_server(service)
        try:
            body = json.dumps({"sql": arrivals[0].query.sql()}).encode()
            request = urllib.request.Request(
                f"{server.url}/sessions", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 202
                sid = json.loads(response.read())["session"]
            assert service.get(sid).wait(timeout=120.0)
            with urllib.request.urlopen(
                f"{server.url}/sessions/{sid}/result", timeout=60
            ) as response:
                payload = json.loads(response.read())
            assert payload["state"] == COMPLETED
            assert payload["found"]
            with urllib.request.urlopen(
                f"{server.url}/healthz", timeout=60
            ) as response:
                assert json.loads(response.read())["status"] == "ok"
        finally:
            server.shutdown_broker()


    @pytest.fixture(scope="class")
    def idle_server(self):
        """One broker for the HTTP-layer tests: its sessions never
        trade (the stub runner returns at once).  Shared on purpose —
        every abuse below must leave it serving the next test."""
        service = make_service()
        service._negotiate = lambda session: None
        server = start_server(service)
        yield server
        server.shutdown_broker()

    def test_response_is_one_segment_on_a_nodelay_socket(
        self, idle_server, monkeypatch
    ):
        """Headers and body leave in one send, so one recv after one
        request holds the whole response; and Nagle is off on the
        accepted socket, so a later two-write path cannot stall."""
        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        with socket.create_connection(idle_server.server_address[:2]) as sock:
            sock.settimeout(10.0)
            for _ in range(3):  # later requests are the ones that stalled
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: broker\r\n\r\n")
                status, headers, body = split_response(sock.recv(65536))
                assert status == 200
                assert len(body) == int(headers["content-length"])
                assert json.loads(body)["status"] == "ok"
        assert nodelay == [1]

    def test_keep_alive_requests_do_not_stall(self, idle_server):
        """The Nagle x delayed-ACK stall cost 44 ms per keep-alive
        request (20 requests = 880 ms); without it they take a few ms."""
        connection = http.client.HTTPConnection(
            *idle_server.server_address[:2], timeout=10.0
        )
        try:
            http_get(connection, "/healthz")  # connect, spawn the thread
            began = time.perf_counter()
            for _ in range(20):
                assert http_get(connection, "/healthz")[0] == 200
            elapsed = time.perf_counter() - began
        finally:
            connection.close()
        assert elapsed < 0.2

    @pytest.mark.parametrize(
        "head, body, expected",
        [
            pytest.param(
                "POST /sessions", b"Content-Length: abc\r\n\r\n", 400,
                id="content-length-not-a-number",
            ),
            pytest.param(
                "POST /sessions", b"Content-Length: -5\r\n\r\n", 400,
                id="content-length-negative",
            ),
            pytest.param(
                "POST /sessions", b"Content-Length: 1_0\r\n\r\n", 400,
                id="content-length-python-literal",
            ),
            pytest.param(  # refused on the header alone: no body is sent
                "POST /sessions",
                b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1), 413,
                id="body-over-the-ceiling",
            ),
            pytest.param(
                "POST /sessions", b"Content-Length: 8\r\n\r\nnot json", 400,
                id="body-not-json",
            ),
            pytest.param(
                "POST /sessions", b"Content-Length: 2\r\n\r\n[]", 400,
                id="body-not-an-object",
            ),
            pytest.param(
                "POST /sessions", b"Content-Length: 2\r\n\r\n\xff\xfe", 400,
                id="body-not-utf8",
            ),
            pytest.param(
                "GET /sessions/s1/result?wait=soon", b"\r\n", 400,
                id="wait-not-a-number",
            ),
            pytest.param(
                "GET /sessions/s1/result?wait=-1", b"\r\n", 400,
                id="wait-negative",
            ),
            pytest.param(
                "GET /sessions/s1/result?wait=", b"\r\n", 400,
                id="wait-empty",
            ),
        ],
    )
    def test_malformed_request_is_a_4xx(self, idle_server, head, body, expected):
        status, _, payload = raw_exchange(
            idle_server, head.encode() + b" HTTP/1.1\r\n" + body
        )
        assert status == expected
        assert "error" in json.loads(payload)
        assert_still_serving(idle_server)

    def test_truncated_body_is_a_400(self, idle_server):
        status, _, _ = raw_exchange(
            idle_server,
            b"POST /sessions HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
            then=lambda sock: sock.shutdown(socket.SHUT_WR),
        )
        assert status == 400
        assert_still_serving(idle_server)

    def test_silent_and_stalled_clients_release_their_threads(
        self, idle_server, monkeypatch
    ):
        """A client that connects and sends nothing is dropped at the
        socket timeout; one that sends half a body gets 408 first."""
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        address = idle_server.server_address[:2]
        with socket.create_connection(address) as silent, \
                socket.create_connection(address) as stalled:
            silent.settimeout(10.0)
            stalled.settimeout(10.0)
            stalled.sendall(
                b"POST /sessions HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"
            )
            status, _, _ = split_response(stalled.recv(65536))
            assert status == 408
            assert silent.recv(65536) == b""  # closed, nothing said
            assert stalled.recv(65536) == b""
        wait_until(lambda: not handler_threads())
        assert_still_serving(idle_server)

    def test_shutdown_finishes_sessions_and_answers_waiters(self, arrivals):
        """Graceful drain under load: 8 sessions in flight on 2 workers
        and a client blocked in ``?wait=`` on the last of them —
        shutdown lets every session finish and the waiter gets its 200,
        not a reset connection."""
        service = make_service(
            admission=AdmissionConfig(max_concurrent=2, queue_limit=64)
        )
        service._negotiate = lambda session: time.sleep(0.1)
        server = start_server(service)
        answer = {}
        try:
            sql = arrivals[0].query.sql()
            sessions = [submit_sql(service, sql) for _ in range(8)]
            last = sessions[-1].session_id

            def waiter():
                with urllib.request.urlopen(
                    f"{server.url}/sessions/{last}/result?wait=60", timeout=60
                ) as response:
                    answer["status"] = response.status
                    answer["payload"] = json.loads(response.read())

            thread = threading.Thread(target=waiter)
            thread.start()
            wait_until(lambda: server._in_flight == 1)
            assert not sessions[-1].done
        finally:
            server.shutdown_broker()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert all(session.state == COMPLETED for session in sessions)
        assert answer["status"] == 200
        assert answer["payload"]["session"] == last
        assert answer["payload"]["state"] == COMPLETED
        with pytest.raises(BrokerError) as err:
            submit_sql(service, sql)
        assert err.value.status == 503
        with pytest.raises(OSError):
            socket.create_connection(server.server_address[:2], timeout=2.0)

    def test_sigterm_drains_repro_serve(self):
        """``repro serve`` takes SIGTERM like Ctrl-C, even when it
        arrives mid-session: graceful shutdown, exit status 0."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-c",
                f"import sys; sys.path.insert(0, {src!r}); "
                "from repro.cli import main; "
                "sys.exit(main(['serve', '--clock', 'sim', '--port', '0', "
                "'--nodes', '6', '--relations', '4']))",
            ],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            url = process.stdout.readline().split()[3]
            body = json.dumps(
                {"sql": "SELECT * FROM R0 r0, R1 r1 WHERE r0.ref0 = r1.id"}
            ).encode()
            request = urllib.request.Request(
                f"{url}/sessions", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 202
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "shutting down" in output


def raw_exchange(server, request: bytes, then=None) -> tuple[int, dict, bytes]:
    """Send *request* on a fresh socket and parse what ONE recv returns."""
    with socket.create_connection(server.server_address[:2]) as sock:
        sock.settimeout(10.0)
        sock.sendall(request)
        if then is not None:
            then(sock)
        return split_response(sock.recv(65536))


def split_response(raw: bytes) -> tuple[int, dict, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


def http_get(connection, path: str) -> tuple[int, dict]:
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def assert_still_serving(server) -> None:
    with urllib.request.urlopen(f"{server.url}/healthz", timeout=10) as response:
        assert json.loads(response.read())["status"] == "ok"


def handler_threads() -> list[str]:
    return [
        thread.name for thread in threading.enumerate()
        if "process_request_thread" in thread.name
    ]


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def vm_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS in /proc/self/status")


class TestRetention:
    CAP = 3

    def test_oldest_finished_sessions_answer_410(self, arrivals):
        service = make_service(retain_sessions=self.CAP)
        try:
            sessions = []
            for arrival in arrivals[: self.CAP + 5]:
                sessions.append(submit_sql(service, arrival.query.sql()))
                assert sessions[-1].wait(timeout=120.0)
            router = Router(service)
            for session in sessions[:5]:
                for suffix in ("", "/result", "/explain", "/critpath"):
                    status, payload = router.dispatch(
                        "GET", f"/sessions/{session.session_id}{suffix}"
                    )
                    assert status == 410 and "gone" in payload["error"]
            for session in sessions[5:]:
                status, payload = router.dispatch(
                    "GET", f"/sessions/{session.session_id}/result"
                )
                assert status == 200 and payload["found"]
            for never_issued in ("s9", "s0", "s01", "s-1", "s", "nope", "s1x"):
                assert router.dispatch(
                    "GET", f"/sessions/{never_issued}"
                )[0] == 404
            assert len(service.sessions()) == self.CAP
            assert service.drain(timeout=10.0)
            # Totals are counted when a session finishes, so evicted
            # sessions stay in them.
            status, metrics = router.dispatch("GET", "/metrics")
            assert metrics["completed_total"] == self.CAP + 5
            assert metrics["states"]["completed"] == self.CAP + 5
            assert metrics["latency_ms"]["p50"] > 0
            for outcome in ("hits", "misses", "intern_hits"):
                assert metrics["cache"][outcome] == sum(
                    getattr(session.result.cache, outcome)
                    for session in sessions
                )
        finally:
            service.close()

    def test_running_session_is_never_evicted(self, arrivals):
        release = threading.Event()
        service = make_service(retain_sessions=self.CAP)
        service._negotiate = (
            lambda session: session.session_id == "s1"
            and release.wait(timeout=60.0)
        )
        try:
            sql = arrivals[0].query.sql()
            held = submit_sql(service, sql)
            for _ in range(self.CAP + 2):
                assert submit_sql(service, sql).wait(timeout=30.0)
            assert service.get("s1") is held and held.state == RUNNING
            assert len(service.sessions()) == self.CAP + 1
            with pytest.raises(BrokerError) as err:
                service.get("s2")
            assert err.value.status == 410
            release.set()
            assert service.drain(timeout=30.0)
            assert service.get("s1").state == COMPLETED
            assert len(service.sessions()) == self.CAP
        finally:
            release.set()
            service.close()

    def test_sessions_age_out(self, arrivals):
        service = make_service(retain_seconds=0.05)
        service._negotiate = lambda session: None
        try:
            sql = arrivals[0].query.sql()
            assert submit_sql(service, sql).wait(timeout=30.0)
            assert service.get("s1").done
            time.sleep(0.1)
            # Age is checked when a session finishes: the next one to
            # finish sweeps out what has expired.
            assert submit_sql(service, sql).wait(timeout=30.0)
            with pytest.raises(BrokerError) as err:
                service.get("s1")
            assert err.value.status == 410
            assert service.get("s2").done
        finally:
            service.close()

    def test_retention_limits_are_validated(self):
        world = build_world(**WORLD)
        with pytest.raises(ValueError):
            BrokerService(world=world, retain_sessions=0)
        with pytest.raises(ValueError):
            BrokerService(world=world, retain_seconds=0)

    def test_soak_memory_is_flat(self, arrivals):
        """500 traced sessions through one service with a cap of 64
        (the slowest test in this file, ~10 s): retention stays at the
        cap and resident memory stops growing.  Unbounded, the last 400
        sessions would add ~100 MB."""
        service = make_service(retain_sessions=64)
        sqls = [arrival.query.sql() for arrival in arrivals[:4]]
        try:
            rss_at_100 = None
            for index in range(500):
                session = submit_sql(service, sqls[index % len(sqls)])
                assert session.wait(timeout=120.0)
                assert session.state == COMPLETED
                if index == 99:
                    gc.collect()
                    rss_at_100 = vm_rss_kb()
            gc.collect()
            growth_kb = vm_rss_kb() - rss_at_100
            assert len(service.sessions()) <= 64
            assert service.get("s500").done
            with pytest.raises(BrokerError) as err:
                service.get("s100")
            assert err.value.status == 410
            assert service.metrics_payload()["completed_total"] == 500
        finally:
            service.close()
        assert growth_kb < 10 * 1024

    def test_session_leaves_no_cyclic_garbage(self, arrivals):
        """A traced session's rounds, network and tracer are freed by
        reference counting: retention, not a pending gen-2 collection,
        is what decides how long a session's memory lives."""
        service = make_service()
        sql = arrivals[0].query.sql()
        try:
            # first-call set-up (imports, memo tables) happens here
            assert submit_sql(service, sql).wait(timeout=60.0)
            gc.collect()
            gc.disable()
            try:
                session = submit_sql(service, sql)
                assert session.wait(timeout=60.0)
                assert service.result_payload(session.session_id)["found"]
                assert gc.collect() == 0
            finally:
                gc.enable()
        finally:
            service.close()

    def test_session_keeps_no_plan_round(self, arrivals, monkeypatch):
        """A finished session holds its trade's result, not the plan
        generation rounds (and their lattice records) behind it."""
        service = make_service()
        rounds = watch_plan_rounds(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            session = submit_sql(service, arrivals[0].query.sql())
            assert session.wait(timeout=60.0)
            assert service.result_payload(session.session_id)["found"]
            assert rounds
            handed = [prior for _ref, prior in rounds]
            assert handed == [False] + [True] * (len(rounds) - 1)
            assert all(ref() is None for ref, _prior in rounds)
        finally:
            gc.enable()
            service.close()


class TestWaitForResult:
    def test_wait_returns_when_the_session_finishes(self, arrivals):
        service = make_service()
        try:
            router = Router(service)
            session = submit_sql(service, arrivals[0].query.sql())
            status, payload = router.dispatch(
                "GET", f"/sessions/{session.session_id}/result?wait=60"
            )
            returned = time.monotonic()
            assert status == 200 and payload["found"]
            assert payload["state"] == COMPLETED
            # released by the done event, not by a poll interval
            assert returned - session.finished_at < 0.1
            # an already-finished session answers at once
            began = time.monotonic()
            again = router.dispatch(
                "GET", f"/sessions/{session.session_id}/result?wait=60"
            )
            assert time.monotonic() - began < 0.1
            assert again == (status, payload)
        finally:
            service.close()

    def test_wait_is_clamped_and_answers_409_at_the_ceiling(self, arrivals):
        release = threading.Event()
        service = make_service()
        service._negotiate = lambda session: release.wait(timeout=60.0)
        try:
            router = Router(service, max_wait=0.1)
            session = submit_sql(service, arrivals[0].query.sql())
            wait_until(lambda: session.state == RUNNING)
            path = f"/sessions/{session.session_id}/result"
            # without wait: today's immediate 409
            began = time.monotonic()
            unparameterised = router.dispatch("GET", path)
            assert time.monotonic() - began < 0.05
            assert unparameterised == (
                409, {"error": f"session {session.session_id} is running"}
            )
            # a huge wait is clamped to the ceiling, then the same 409
            began = time.monotonic()
            clamped = router.dispatch("GET", path + "?wait=1e9")
            assert 0.1 <= time.monotonic() - began < 5.0
            assert clamped == unparameterised
            assert router.dispatch("GET", path + "?wait=0") == unparameterised
            # a waiter is released the moment the session finishes
            timer = threading.Timer(0.05, release.set)
            timer.start()
            status, payload = Router(service, max_wait=30.0).dispatch(
                "GET", path + "?wait=30"
            )
            timer.join()
            assert status == 200 and payload["state"] == COMPLETED
        finally:
            release.set()
            service.close()

    def test_bad_wait_values_are_400(self, arrivals):
        service = make_service()
        service._negotiate = lambda session: None
        try:
            router = Router(service)
            session = submit_sql(service, arrivals[0].query.sql())
            assert session.wait(timeout=30.0)
            path = f"/sessions/{session.session_id}/result"
            for bad in ("soon", "-1", "-0.5", "nan", "", "1,5"):
                status, payload = router.dispatch("GET", f"{path}?wait={bad}")
                assert status == 400 and "wait" in payload["error"]
            for good in ("0", "0.5", "2", "inf", "1e3"):
                assert router.dispatch("GET", f"{path}?wait={good}")[0] == 200
            assert router.dispatch("GET", "/sessions/s99/result?wait=1")[0] == 404
        finally:
            service.close()
