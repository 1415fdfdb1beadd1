"""Launch ``repro serve`` as a child process, and be that child.

Parent side, :class:`Daemon`: start the child, read the ephemeral port
from the daemon's own "broker listening on" line, wait for ``GET
/healthz``, read ``VmRSS``/``VmHWM`` from ``/proc/<pid>/status``, and
``SIGTERM`` + wait + kill on every exit path.

Child side (``python3 daemon.py [--spans FILE]``): call the entry point
``python -m repro serve --clock sim --port 0`` calls, every other flag
at its default.  ``--clock sim`` because the async clock turns simulated
link delays into real sleeps and would measure timers, not the program.
With ``--spans`` the span wrappers are installed first and the totals
written to FILE at shutdown.  ``SIGTERM`` is turned into the
``KeyboardInterrupt`` the daemon already shuts down cleanly on.  This
module imports nothing of the harness but ``spec``: whatever the child
imports is in the daemon's measured set-up time and memory.
"""

from __future__ import annotations

import http.client
import json
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import spec

SERVE_ARGV = ["serve", "--clock", "sim", "--port", "0"]
_READY_TIMEOUT_S = 30.0
_STOP_TIMEOUT_S = 10.0


class DaemonError(RuntimeError):
    pass


def proc_status_kb(pid: int | str = "self") -> dict[str, int]:
    """``{"VmRSS": kB, "VmHWM": kB}`` of a process, from /proc."""
    out = {}
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                out[key] = int(rest.split()[0])
    return out


class Daemon:
    """One broker daemon child; use as a context manager."""

    def __init__(self, spans_path: Path | None = None):
        self.spans_path = spans_path
        self.process: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        #: seconds from spawning the process to its first 200 on /healthz
        self.ready_s = 0.0

    def __enter__(self) -> "Daemon":
        try:
            self.start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        argv = [sys.executable, str(Path(__file__).resolve())]
        if self.spans_path is not None:
            argv += ["--spans", str(self.spans_path)]
        began = time.perf_counter()
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True
        )
        deadline = began + _READY_TIMEOUT_S
        line = self._first_line(deadline)
        match = re.search(r"broker listening on http://([^:/\s]+):(\d+)", line)
        if match is None:
            raise DaemonError(f"unexpected first line from daemon: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        while True:
            try:
                connection = self.connect()
                try:
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    response.read()
                finally:
                    connection.close()
                if response.status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise DaemonError("daemon never answered /healthz")
            time.sleep(0.01)
        self.ready_s = time.perf_counter() - began

    def _first_line(self, deadline: float) -> str:
        stdout = self.process.stdout
        remaining = deadline - time.perf_counter()
        readable, _, _ = select.select([stdout], [], [], max(0.0, remaining))
        if not readable:
            raise DaemonError("daemon printed nothing before the deadline")
        line = stdout.readline()
        if not line:
            raise DaemonError(
                f"daemon exited with code {self.process.wait()} before "
                "listening"
            )
        return line

    def connect(self) -> http.client.HTTPConnection:
        """A fresh keep-alive connection with the per-session timeout, so
        a hung daemon fails its sessions instead of hanging the run."""
        return http.client.HTTPConnection(
            self.host, self.port, timeout=spec.SESSION_TIMEOUT_S
        )

    def memory_kb(self) -> dict[str, int]:
        """``{"VmRSS": kB, "VmHWM": kB}`` of the daemon."""
        return proc_status_kb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM, wait, kill if it will not go; idempotent."""
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()


# ----------------------------------------------------------------------
def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def _child(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path = Path(argv[1])
    signal.signal(signal.SIGTERM, _raise_interrupt)
    from repro.cli import main

    if spans_path is None:
        return main(SERVE_ARGV)
    import spans

    # Sessions are small (a few hundred spans); keep every one and let
    # the parent pick the measured sessions it wants written out.
    recorder = spans.Recorder(keep_ops=None)
    with spans.install(recorder):
        code = main(SERVE_ARGV)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps({"ops": recorder.ops, "records": recorder.records})
    )
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
