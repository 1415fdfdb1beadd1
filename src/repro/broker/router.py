"""HTTP routing for the broker: method+path regex -> service call.

Pure dispatch, no sockets: :meth:`Router.dispatch` takes the method,
path (with query string), and raw body, and returns ``(status,
payload)`` with the payload JSON-serializable.  The server module binds
this to :mod:`http.server`; tests drive it directly.

Endpoints
---------
``POST /sessions``            submit a query (202 accepted / 429 shed)
``GET  /sessions``            list retained sessions (status snapshots)
``GET  /sessions/<id>``       one session's status
``GET  /sessions/<id>/result``completed result (409 until terminal;
                              ``?wait=<seconds>`` blocks until then, up
                              to :data:`MAX_WAIT_S`)
``GET  /sessions/<id>/explain`` provenance audit (``?subquery=`` filter)
``GET  /sessions/<id>/critpath`` critical-path decomposition (409 until
                              terminal; requires a traced session)
``GET  /metrics``             serving metrics (occupancy, p50/p99, registry)
``GET  /metrics/prom``        Prometheus text exposition (``--live-obs`` adds
                              site/SLO/q-error families)
``GET  /sites``               per-site live statistics registry (``--live-obs``)
``GET  /events``              recent-event ring page (``?since=&limit=``)
``GET  /healthz``             liveness + occupancy

Every ``/sessions/<id>`` route answers ``410`` for an id the broker
issued and has since evicted (see ``BrokerService`` retention) and
``404`` for one it never issued.  String payloads (``/metrics/prom``)
pass through to the server verbatim as ``text/plain``; everything else
is JSON.
"""

from __future__ import annotations

import json
import math
import re
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.broker.service import BrokerError, BrokerService

__all__ = ["MAX_WAIT_S", "Router"]

_Handler = Callable[..., "tuple[int, dict]"]

#: Longest a ``?wait=`` request is held; a larger value is clamped.
MAX_WAIT_S = 20.0


class Router:
    """Maps (method, path) onto :class:`BrokerService` calls."""

    def __init__(self, service: BrokerService, max_wait: float = MAX_WAIT_S):
        self.service = service
        self.max_wait = max_wait
        self._routes: list[tuple[str, re.Pattern, _Handler]] = [
            ("POST", re.compile(r"^/sessions/?$"), self._submit),
            ("GET", re.compile(r"^/sessions/?$"), self._list),
            ("GET", re.compile(r"^/sessions/(?P<sid>[^/]+)/?$"), self._status),
            (
                "GET",
                re.compile(r"^/sessions/(?P<sid>[^/]+)/result/?$"),
                self._result,
            ),
            (
                "GET",
                re.compile(r"^/sessions/(?P<sid>[^/]+)/explain/?$"),
                self._explain,
            ),
            (
                "GET",
                re.compile(r"^/sessions/(?P<sid>[^/]+)/critpath/?$"),
                self._critpath,
            ),
            ("GET", re.compile(r"^/metrics/?$"), self._metrics),
            ("GET", re.compile(r"^/metrics/prom/?$"), self._metrics_prom),
            ("GET", re.compile(r"^/sites/?$"), self._sites),
            ("GET", re.compile(r"^/events/?$"), self._events),
            ("GET", re.compile(r"^/healthz/?$"), self._healthz),
        ]

    def dispatch(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, dict]:
        """Route one request; never raises — errors become payloads."""
        split = urlsplit(target)
        path = split.path
        params = {
            key: values[0]
            for key, values in parse_qs(
                split.query, keep_blank_values=True
            ).items()
        }
        try:
            path_matched = False
            for route_method, pattern, handler in self._routes:
                match = pattern.match(path)
                if match is None:
                    continue
                if route_method != method:
                    path_matched = True  # maybe another method owns it
                    continue
                return handler(body=body, params=params, **match.groupdict())
            if path_matched:
                return 405, {"error": f"{method} not allowed for {path}"}
            return 404, {"error": f"no route for {path}"}
        except BrokerError as exc:
            return exc.status, {"error": exc.message}
        except Exception as exc:  # never leak a traceback to the wire
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    # -- handlers ----------------------------------------------------------
    def _submit(self, body: bytes, params: dict) -> tuple[int, dict]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise BrokerError(400, f"bad JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BrokerError(400, "body must be a JSON object")
        spec = self.service.parse_spec(payload)
        session = self.service.submit(spec)
        snapshot = session.snapshot()
        if session.state == "shed":
            return 429, snapshot
        return 202, snapshot

    def _list(self, body: bytes, params: dict) -> tuple[int, dict]:
        return 200, {
            "sessions": [
                session.snapshot() for session in self.service.sessions()
            ]
        }

    def _status(self, body: bytes, params: dict, sid: str) -> tuple[int, dict]:
        return 200, self.service.get(sid).snapshot()

    def _result(self, body: bytes, params: dict, sid: str) -> tuple[int, dict]:
        raw = params.get("wait")
        if raw is not None:
            try:
                seconds = float(raw)
            except ValueError:
                seconds = math.nan
            if not seconds >= 0:  # negative, NaN or not a number at all
                raise BrokerError(
                    400, f"wait must be a non-negative number, got {raw!r}"
                )
            self.service.get(sid).wait(timeout=min(seconds, self.max_wait))
        return 200, self.service.result_payload(sid)

    def _explain(self, body: bytes, params: dict, sid: str) -> tuple[int, dict]:
        return 200, self.service.explain_payload(
            sid, subquery=params.get("subquery") or None
        )

    def _critpath(self, body: bytes, params: dict, sid: str) -> tuple[int, dict]:
        return 200, self.service.critpath_payload(sid)

    def _metrics(self, body: bytes, params: dict) -> tuple[int, dict]:
        return 200, self.service.metrics_payload()

    def _metrics_prom(self, body: bytes, params: dict) -> tuple[int, str]:
        return 200, self.service.prom_payload()

    def _sites(self, body: bytes, params: dict) -> tuple[int, dict]:
        return 200, self.service.sites_payload()

    def _events(self, body: bytes, params: dict) -> tuple[int, dict]:
        def _int_param(name: str, default: int) -> int:
            raw = params.get(name)
            if raw is None:
                return default
            try:
                return int(raw)
            except ValueError as exc:
                raise BrokerError(
                    400, f"{name} must be an integer, got {raw!r}"
                ) from exc

        return 200, self.service.events_payload(
            since=_int_param("since", 0), limit=_int_param("limit", 1000)
        )

    def _healthz(self, body: bytes, params: dict) -> tuple[int, dict]:
        occupancy = self.service.controller.occupancy()
        return 200, {"status": "ok", **occupancy}
