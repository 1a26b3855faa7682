"""Thin HTTP front end over :class:`ServiceState` (stdlib only).

``repro serve`` binds a :class:`~http.server.ThreadingHTTPServer` whose
handlers translate JSON requests into :class:`~repro.campaigns.service.
state.ServiceState` calls -- every endpoint is a few lines, and all
campaign logic stays in the scheduler where it is unit-testable without
sockets.  One request, one thread; the shared state is lock-protected.

Endpoints::

    GET  /healthz             liveness + uptime + lease/task counters
    GET  /metrics             Prometheus text exposition (version 0.0.4)
    GET  /campaigns           registered campaigns and their counts
    POST /campaigns           SubmitRequest: a CampaignSpec (idempotent)
    GET  /status?campaign=ID  progress snapshot (per-strategy counts);
                              &stream=1 streams NDJSON snapshots until
                              the campaign completes
    GET  /report?campaign=ID  cached markdown report (&fmt=csv for rows,
                              &tier=..., &improver=...)
    GET  /trace?campaign=ID   merged fleet trace as NDJSON (404 until a
                              worker ships its first span batch)
    POST /lease               LeaseRequest -> LeaseGrant (task or idle)
    POST /heartbeat           HeartbeatRequest -> {"renewed": [...]}
    POST /complete            CompleteRequest -> {"accepted", "done"}
    POST /traces              TraceBatch -> {"accepted", "dropped"}; spans
                              merge into per-campaign trace.jsonl

Every POST body is parsed once, by its route's type in
:mod:`~repro.campaigns.service.protocol` (the wire reference), before
the state is touched.  Refusals are ``{"error": text}``: 400 for a body
the protocol refuses, 404 for an unknown path or campaign, 413 for a
body above :data:`MAX_BODY_BYTES`.  Worker endpoints are POST because
they mutate lease state; read-side endpoints are plain GETs so ``curl``
is a usable debugging client.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .protocol import (CompleteRequest, HeartbeatRequest, LeaseRequest,
                       SubmitRequest, TraceBatch, decode_body)
from .state import ServiceState

logger = logging.getLogger("repro.service.http")

#: Interval of the background lease-expiry ticker and of /status streams.
TICK_INTERVAL = 0.25

#: Content type of ``GET /metrics`` (Prometheus text exposition).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4"

#: Largest request body read; a longer ``Content-Length`` gets 413.
MAX_BODY_BYTES = 16 * 1024 * 1024


#: POST route -> the protocol type its body is parsed into.
POST_REQUESTS = {"/campaigns": SubmitRequest, "/lease": LeaseRequest,
                 "/heartbeat": HeartbeatRequest,
                 "/complete": CompleteRequest, "/traces": TraceBatch}


class BodyTooLarge(ValueError):
    """A request whose ``Content-Length`` exceeds :data:`MAX_BODY_BYTES`."""


class ServiceHandler(BaseHTTPRequestHandler):
    """Request handler bound to a :class:`ServiceState` via the server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # routed through logging, debug-level by default: heartbeats every
    # ttl/3 from every worker would swamp stderr; ``repro serve -v``
    # raises the level so access lines show
    def log_message(self, fmt, *args):
        level = (logging.INFO if getattr(self.server, "verbose", False)
                 else logging.DEBUG)
        logger.log(level, "%s %s", self.address_string(), fmt % args)

    @property
    def state(self) -> ServiceState:
        return self.server.state

    def _send(self, body: bytes, content_type: str,
              status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        self._send((json.dumps(payload) + "\n").encode(),
                   "application/json", status)

    def _send_text(self, text: str, content_type: str) -> None:
        self._send(text.encode(), f"{content_type}; charset=utf-8")

    def _read_json(self) -> dict:
        """The request body as a JSON object (``{}`` when empty).

        Raises ValueError (:class:`BodyTooLarge` above
        :data:`MAX_BODY_BYTES`) with the client-facing error; on a bad
        ``Content-Length`` the body is left unread and the connection
        closed.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ValueError("bad Content-Length")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise BodyTooLarge("body too large")
        if length == 0:
            return {}
        return decode_body(self.rfile.read(length))

    def _campaign(self, query: dict):
        cid = (query.get("campaign") or [None])[0]
        return self.state.get(cid)

    def _reply(self, route, *args) -> None:
        """Run one route; an unknown path or campaign gets 404, a
        refused request 400, each as ``{"error": text}``."""
        try:
            route(*args)
        except KeyError as exc:
            self._send_json({"error": str(exc.args[0])}, status=404)
        except ValueError as exc:
            self._send_json({"error": str(exc)}, status=400)

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        url = urlparse(self.path)
        self._reply(self._get, url.path, parse_qs(url.query))

    def _get(self, path: str, query: dict) -> None:
        if path == "/healthz":
            self._send_json(self.state.health())
        elif path == "/metrics":
            self._send_text(self.state.metrics_text(), METRICS_CONTENT_TYPE)
        elif path == "/campaigns":
            self._send_json(self.state.status())
        elif path == "/status":
            if query.get("stream", ["0"])[0] in ("1", "true"):
                self._stream_status(query)
            else:
                self._send_json(self._campaign(query).status())
        elif path == "/report":
            campaign = self._campaign(query)
            fmt = (query.get("fmt") or ["markdown"])[0]
            text = campaign.report(
                fmt=fmt,
                tier=(query.get("tier") or ["device_model"])[0],
                improver=(query.get("improver") or ["clapton"])[0])
            self._send_text(text, "text/csv" if fmt == "csv"
                            else "text/markdown")
        elif path == "/trace":
            text = self._campaign(query).trace_text()
            if text is None:
                raise KeyError("no trace ingested yet")
            self._send_text(text, "application/x-ndjson")
        else:
            raise KeyError(f"unknown path {path}")

    def _stream_status(self, query: dict) -> None:
        """NDJSON snapshots every tick until the campaign completes.

        Chunked so clients see progress live; the final line has
        ``"done": true``.
        """
        campaign = self._campaign(query)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def chunk(payload: dict) -> None:
            data = (json.dumps(payload) + "\n").encode()
            self.wfile.write(f"{len(data):x}\r\n".encode())
            self.wfile.write(data + b"\r\n")
            self.wfile.flush()

        while True:
            snapshot = campaign.status()
            chunk(snapshot)
            if snapshot["complete"]:
                break
            time.sleep(TICK_INTERVAL)
        self.wfile.write(b"0\r\n\r\n")

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        url = urlparse(self.path)
        try:
            payload = self._read_json()
        except ValueError as exc:
            self._send_json({"error": str(exc)},
                            status=413 if isinstance(exc, BodyTooLarge)
                            else 400)
            return
        self._reply(self._post, url.path, payload)

    def _post(self, path: str, payload: dict) -> None:
        """Parse the body through the route's protocol type, then act."""
        if path not in POST_REQUESTS:
            raise KeyError(f"unknown path {path}")
        request = POST_REQUESTS[path].from_dict(payload)
        if path == "/campaigns":
            campaign, resumed = self.state.submit(request.spec)
            self._send_json({"campaign": campaign.id, "resumed": resumed,
                             **campaign.status()},
                            status=200 if resumed else 201)
        elif path == "/lease":
            self._send_json(self.state.lease(request).to_dict())
        elif path == "/heartbeat":
            self._send_json(self.state.heartbeat(request))
        elif path == "/complete":
            self._send_json(self.state.complete(request))
        else:
            self._send_json(self.state.post_traces(request))


class CampaignServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared service state."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], state: ServiceState,
                 verbose: bool = False):
        super().__init__(address, ServiceHandler)
        self.state = state
        self.verbose = verbose
        self._ticker: threading.Thread | None = None
        self._stop = threading.Event()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_ticker(self) -> None:
        """Expire overdue leases even when no requests arrive."""
        if self._ticker is not None:
            return

        def tick():
            while not self._stop.wait(TICK_INTERVAL):
                self.state.tick()

        self._ticker = threading.Thread(target=tick, daemon=True,
                                        name="lease-ticker")
        self._ticker.start()

    def stop(self) -> None:
        self._stop.set()
        self.shutdown()
        self.server_close()
        self.state.close()


def start_server(state: ServiceState, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> CampaignServer:
    """Bind, start the ticker, and serve in a daemon thread.

    ``port=0`` picks a free port (tests); read the bound one off
    ``server.url``.  The caller owns shutdown via ``server.stop()``.
    """
    server = CampaignServer((host, port), state, verbose=verbose)
    server.start_ticker()
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              name="repro-serve")
    thread.start()
    return server
