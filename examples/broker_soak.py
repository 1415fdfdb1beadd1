"""Soak one broker daemon: 10,000 sessions, memory and service time flat.

Starts ``repro serve --port 0`` the way ``benchmarks/e2e``
does, then drives the ``serve_closed`` deck (42 queries, repeated) from
two keep-alive clients, each session one ``POST /sessions`` and one
``GET /sessions/<id>/result?wait=20``.  At session 200 and every
thousand sessions it prints the daemon's ``VmRSS``, the median of the
daemon-reported ``latency_ms`` (submit to finish; queue wait is ~0 with
two clients on eight workers, so this is service time) over the last
hundred sessions, and a fixed spin loop's time — this host flips
between two CPU speeds, so compare service times taken at the same spin
reading.

With bounded retention (``BrokerService(retain_sessions=256)``) both
columns are flat and an early session id answers ``410 Gone``; with
every session retained the daemon grew with each one (a finished
session holds ~26 KB, ~87 KB if submitted with ``"trace": true``) and
slowed by a fifth over 3,000.

Run with::

    python examples/broker_soak.py [sessions]      # default 10000, ~5 min
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import inputs  # noqa: E402  (benchmarks/e2e)
import spec  # noqa: E402
from daemon import Daemon  # noqa: E402
from measure import host_spin_ms  # noqa: E402

CLIENTS = 2
REPORT_EVERY = 1000
WINDOW = 100


def request(connection, method: str, path: str, body: dict | None = None):
    data = None if body is None else json.dumps(body)
    headers = {} if body is None else {"Content-Type": "application/json"}
    connection.request(method, path, body=data, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def main(total: int) -> int:
    deck = inputs.deck(spec.SIZES["serve_closed"], seed=11)
    service_ms: list[float | None] = [None] * total
    problems: list[str] = []
    handout = iter(range(total))
    lock = threading.Lock()
    rows: list[tuple[int, int, float, float]] = []

    with Daemon() as daemon:

        def report(done: int) -> None:
            window = [
                ms for ms in service_ms[max(0, done - WINDOW):done]
                if ms is not None
            ]
            row = (
                done,
                daemon.memory_kb()["VmRSS"],
                statistics.median(window),
                host_spin_ms()[0],
            )
            rows.append(row)
            print(
                f"{row[0]:>7} sessions  VmRSS {row[1] / 1024:7.1f} MB  "
                f"service p50 (last {WINDOW}) {row[2]:6.2f} ms  "
                f"spin {row[3]:5.2f} ms",
                flush=True,
            )

        def client() -> None:
            connection = daemon.connect()
            try:
                while True:
                    with lock:
                        slot = next(handout, None)
                        if slot is None:
                            return
                        if slot == 200 or (slot and slot % REPORT_EVERY == 0):
                            report(slot)
                    status, payload = request(
                        connection, "POST", "/sessions",
                        {"sql": deck[slot % len(deck)]},
                    )
                    if status != 202:
                        problems.append(f"slot {slot}: submit {status}")
                        continue
                    status, payload = request(
                        connection, "GET",
                        f"/sessions/{payload['session']}/result?wait=20",
                    )
                    if status != 200 or not payload.get("found"):
                        problems.append(f"slot {slot}: result {status}")
                        continue
                    service_ms[slot] = payload["latency_ms"]
            finally:
                connection.close()

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report(total)

        connection = daemon.connect()
        try:
            first = request(connection, "GET", "/sessions/s1/result")[0]
            last = request(connection, "GET", f"/sessions/s{total}/result")[0]
            never = request(connection, "GET", f"/sessions/s{total + 1}")[0]
            metrics = request(connection, "GET", "/metrics")[1]
        finally:
            connection.close()

    found = sum(ms is not None for ms in service_ms)
    early_window = [ms for ms in service_ms[100:200] if ms is not None]
    late_window = [ms for ms in service_ms[-WINDOW:] if ms is not None]
    print(f"found {found} of {total}; problems {len(problems)} {problems[:3]}")
    print(
        f"completed_total {metrics['completed_total']}  "
        f"s1 -> {first}  s{total} -> {last}  s{total + 1} -> {never}"
    )
    print(
        f"service p50 sessions 100-200 {statistics.median(early_window):.2f} ms, "
        f"last {WINDOW} {statistics.median(late_window):.2f} ms"
    )
    base = next((row for row in rows if row[0] >= REPORT_EVERY), rows[0])
    print(
        f"VmRSS at {base[0]} {base[1] / 1024:.1f} MB, "
        f"at {rows[-1][0]} {rows[-1][1] / 1024:.1f} MB "
        f"({rows[-1][1] / base[1] - 1.0:+.1%})"
    )
    return 0 if found == total and not problems else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 10_000))
