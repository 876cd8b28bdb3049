"""Stdlib-only threaded HTTP JSON API over the rationalization service.

Every JSON endpoint is an operation of :data:`repro.serve.ops.OPS`: the
edge looks the ``(verb, route)`` pair up in the table and hands the
parsed body to ``service.call(op, body)``.  ``POST /v1/rationalize``
serves ``rationalize_many`` when the body carries ``inputs``.  Two
routes are rendered here as text: ``GET /metrics`` (Prometheus text
exposition of the ``metrics`` op) and ``GET /tracez`` (ring-buffered
debug traces as JSONL).

A request error answers its own status with ``{"error": ...}``, plus a
machine-readable ``detail`` where the service gives one — a deploy of
an incompatible checkpoint answers 409 whose ``detail`` carries the
artifact's ``format_version`` / ``repro_version``.

A rationalize request's ``request_id`` (the client's, or minted by the
first tier that sees it) propagates router → worker → scheduler wave
and comes back in the response; HTTP-level traffic is itself counted in
the service registry as ``repro_http_requests_total{route,status}``.

The server is a :class:`http.server.ThreadingHTTPServer` — one thread per
connection, which is exactly the concurrency shape the micro-batching
scheduler coalesces: N handler threads block on their futures while the
scheduler worker runs one batched forward pass.  The attached service is
either a single-process :class:`RationalizationService` or, for the
sharded tier (``--workers N``), a :class:`repro.serve.router.ShardRouter`
— both expose the same ``call``, including typed overload (429) and
shutdown (503) rejections.  No third-party dependencies;
``python -m repro.experiments serve`` is the CLI entry.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs import render_prometheus
from repro.serve.ops import OPS, Op, RequestError
from repro.serve.service import RationalizationService

_MAX_BODY_BYTES = 1 << 20  # 1 MiB: single sentences, not documents

_JSON = "application/json"

_log = logging.getLogger(__name__)

#: ``(verb, route) -> op``; ``/v1/rationalize`` maps to ``rationalize``
#: (the first op declared on it, hence the reversed walk) and switches
#: by body in :func:`_select`.
_ROUTES = {(op.verb, op.route): op for op in reversed(OPS.values())}


def _select(op: Op, body: dict) -> Op:
    """The op a ``POST /v1/rationalize`` body addresses: the batched
    form ``{"inputs": [...]}`` is ``rationalize_many``."""
    if op.name != "rationalize" or "inputs" not in body:
        return op
    if body.get("token_ids") is not None or body.get("tokens") is not None:
        raise RequestError("'inputs' is mutually exclusive with 'token_ids'/'tokens'")
    return OPS["rationalize_many"]


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the attached service (one instance per request)."""

    # Set by make_server(); class attribute so the stdlib can instantiate us.
    service: RationalizationService = None
    quiet: bool = True
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002 (stdlib signature)
        """Suppress per-request stderr logging unless ``quiet`` is off."""
        if not self.quiet:
            super().log_message(format, *args)

    def _send_text(self, text: str, content_type: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _count(self, route: str, status: int) -> None:
        """HTTP-edge traffic counter, labeled by route and status."""
        self.service.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by route and response status.",
            ("route", "status"),
        ).inc(route=route, status=str(status))

    def _read_json(self) -> dict:
        length = self.headers.get("Content-Length", "")
        size = int(length) if length.isdecimal() else 0
        if not 0 < size <= _MAX_BODY_BYTES:
            # The body stays unread; drop the connection after replying so
            # a keep-alive client cannot desync on the leftover bytes.
            self.close_connection = True
            if size > _MAX_BODY_BYTES:
                raise RequestError(
                    f"request body too large (> {_MAX_BODY_BYTES} bytes)", status=413
                )
            raise RequestError("request body required, with an integer Content-Length")
        raw = self.rfile.read(size)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        return payload

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:
        """Dispatch the read-only ops, ``/metrics`` and ``/tracez``."""
        self._dispatch("GET")

    def do_POST(self) -> None:
        """Dispatch the POST ops (rationalize and the lifecycle ops)."""
        self._dispatch("POST")

    def _dispatch(self, verb: str) -> None:
        route = self.path
        op = _ROUTES.get((verb, route))
        status = 200
        request_id = None
        try:
            if op is None and (verb, route) != ("GET", "/tracez"):
                route = "unknown"
                if verb == "POST":
                    # The body stays unread: close afterwards so a
                    # keep-alive client cannot desync on the leftover bytes.
                    self.close_connection = True
                raise RequestError(f"no route {self.path!r}", status=404)
            if op is None:
                lines = self.service.trace_log.lines()
                text = "\n".join(lines) + ("\n" if lines else "")
                content_type = "application/x-ndjson; charset=utf-8"
            elif op.name == "metrics":
                text = render_prometheus(self.service.call("metrics", {}))
                content_type = _PROM_CONTENT_TYPE
            else:
                body = self._read_json() if verb == "POST" else {}
                request_id = body.get("request_id")
                op = _select(op, body)
                result = self.service.call(op.name, body)
                text = json.dumps({op.envelope: result} if op.envelope else result)
                content_type = _JSON
        except RequestError as exc:
            status = exc.status
            body = {"error": str(exc)}
            if exc.detail:
                body["detail"] = exc.detail
            text, content_type = json.dumps(body), _JSON
        except Exception as exc:
            status = 500
            _log.exception(
                "%s %s failed with 500 (request_id=%s)", verb, self.path, request_id
            )
            text, content_type = json.dumps({"error": str(exc)}), _JSON
        # Count before replying: a client that scrapes /metrics right after
        # its response must find its own request counted.
        self._count(route, status)
        self._send_text(text, content_type, status)


class RationaleServer:
    """The HTTP server wrapping a :class:`RationalizationService`.

    ``port=0`` binds an ephemeral port (the ``port`` attribute reports the
    real one) — the configuration the tests and the quickstart example
    use.  :meth:`start` serves from a daemon thread;
    :meth:`serve_forever` blocks (the CLI path).
    """

    def __init__(
        self,
        service: RationalizationService,
        host: str = "127.0.0.1",
        port: int = 8080,
        quiet: bool = True,
    ):
        self.service = service
        handler = type("BoundHandler", (_Handler,), {"service": service, "quiet": quiet})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        """Bound host address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RationaleServer":
        """Serve in a background daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI mode)."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop the HTTP loop and the batching scheduler (idempotent)."""
        if self._thread is not None:
            # httpd.shutdown() only returns once serve_forever() exits, so
            # it must target a loop running on another thread.
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        self.service.close()

    def __enter__(self) -> "RationaleServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
