"""A thin stdlib HTTP endpoint: ``/metrics`` + ``/healthz``.

``repro serve --listen PORT`` exposes the run's telemetry snapshot in
Prometheus text format the way a long-running daemon would — the
serve-side face of the live telemetry that ROADMAP "One instrumentation
seam per layer boundary" still wants served *during* the drain.  The
port is bound before the run (a busy one is a usage error in
milliseconds) and served after it.  Zero dependencies: this is
``http.server`` with two routes.

The server is **host-side plumbing outside the simulation**: it never
touches the virtual clock, and nothing in the deterministic result or
series depends on it.  Programmatic use::

    srv = make_server(lambda: exposition_text, port=0)
    port = srv.server_address[1]
    ... urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") ...
    srv.shutdown(); srv.server_close()
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.telemetry.prom import CONTENT_TYPE


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-telemetry/1.0"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.server.render_metrics().encode("utf-8")
            self._reply(200, CONTENT_TYPE, body)
        elif path == "/healthz":
            body = json.dumps(
                {"status": "ok", "endpoints": ["/metrics", "/healthz"]},
                sort_keys=True,
            ).encode("utf-8")
            self._reply(200, "application/json; charset=utf-8", body)
        else:
            self._reply(
                404, "text/plain; charset=utf-8",
                b"not found; try /metrics or /healthz\n",
            )

    def _reply(self, code: int, ctype: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        """Quiet: access logs would interleave with CLI output."""


class TelemetryServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the exposition callable."""

    daemon_threads = True

    def __init__(self, addr, render_metrics: Callable[[], str]) -> None:
        super().__init__(addr, _Handler)
        self.render_metrics = render_metrics

    def serve_until_interrupt(self) -> None:
        """Announce the endpoints on stderr and block until Ctrl-C."""
        host, port = self.server_address[:2]
        print(
            f"telemetry: http://{host}:{port}/metrics and /healthz "
            "(Ctrl-C to stop)",
            file=sys.stderr,
        )
        try:
            self.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass


def make_server(
    render_metrics: Callable[[], str],
    port: int = 0,
    host: str = "127.0.0.1",
) -> TelemetryServer:
    """Bind (not yet serving) — call ``serve_forever`` or use
    :func:`serve_in_thread`."""
    return TelemetryServer((host, port), render_metrics)


def serve_in_thread(server: TelemetryServer) -> threading.Thread:
    """Run ``server`` on a daemon thread (tests, embedding)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-telemetry", daemon=True
    )
    thread.start()
    return thread
