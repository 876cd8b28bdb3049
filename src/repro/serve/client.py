"""Client for the rationalization service — in-process or over HTTP.

:meth:`Client.call` runs any operation of :data:`repro.serve.ops.OPS`
on either transport; the named methods (``rationalize``, ``deploy``,
``health``, …) are one-line calls to it:

- **in-process** (``Client(service=...)``) — calls ``service.call`` on
  the :class:`~repro.serve.service.RationalizationService` (or a
  :class:`~repro.serve.router.ShardRouter` — same surface) directly,
  still going through the cache and the micro-batching scheduler.  This
  is the load-generator / embedding-into-your-app mode.
- **socket** (``Client(base_url="http://host:port")``) — stdlib
  ``urllib`` against the JSON API of :mod:`repro.serve.http`, with a
  per-request timeout, a single retry on connection failure (a worker
  restart must not fail the caller), and failure/timeout counters
  exposed via :meth:`Client.transport_stats`.

Errors surface as :class:`ServeClientError` with the HTTP-equivalent
status code on both transports: 429 = overloaded (admission control),
503 = shutting down / worker died, 504 = timed out.
"""

from __future__ import annotations

import json
import os
import socket
import time
import urllib.error
import urllib.request
from typing import Optional

from repro.obs import MetricsRegistry
from repro.serve.ops import OPS, RequestError
from repro.serve.service import RationalizationService

#: URLError reasons that mean "the connection itself failed" — the only
#: failures worth one retry: the request never reached a worker, so
#: retrying cannot double-execute anything.
_CONNECT_ERRORS = (ConnectionError, ConnectionRefusedError, ConnectionResetError, OSError)


class ServeClientError(RuntimeError):
    """A request the service rejected (carries the HTTP status code).

    ``detail`` mirrors the server's machine-readable error context when
    present — e.g. the ``format_version``/``repro_version`` mismatch a
    409 deploy rejection reports.
    """

    def __init__(self, message: str, status: int = 500, detail: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.detail = detail


class Client:
    """Uniform client over the in-process and socket transports.

    Exactly one of ``service`` / ``base_url`` must be given.

    Parameters
    ----------
    timeout_s:
        Socket-level timeout per HTTP attempt; a hung worker surfaces as
        a 504 :class:`ServeClientError` instead of blocking forever.
    retries:
        Extra attempts after a *connection* failure (refused / reset —
        never after a timeout or an HTTP-level error, which may mean the
        server already accepted the work).
    """

    def __init__(
        self,
        service: Optional[RationalizationService] = None,
        base_url: Optional[str] = None,
        timeout_s: float = 60.0,
        retries: int = 1,
        retry_backoff_s: float = 0.05,
    ):
        if (service is None) == (base_url is None):
            raise ValueError("provide exactly one of 'service' or 'base_url'")
        self._service = service
        self._base_url = base_url.rstrip("/") if base_url else None
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.retry_backoff_s = float(retry_backoff_s)
        # Transport counters are registry instruments (client-private
        # registry) so even client-side telemetry follows the
        # metrics-discipline naming contract.
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_client_requests_total", "HTTP requests issued by this client."
        )
        self._m_retried = self.metrics.counter(
            "repro_client_retried_total", "Attempts retried after a connect failure."
        )
        self._m_connect_failures = self.metrics.counter(
            "repro_client_connect_failures_total", "Connection-level failures."
        )
        self._m_timeouts = self.metrics.counter(
            "repro_client_timeouts_total", "Requests that hit the socket timeout."
        )
        self._m_http_errors = self.metrics.counter(
            "repro_client_http_errors_total", "HTTP-level error responses."
        )

    # ------------------------------------------------------------------
    def call(self, op: str, **body):
        """Run serve operation ``op`` (a :data:`repro.serve.ops.OPS` name).

        ``None`` values are dropped and the body is encoded as JSON
        (numpy values and paths included) for both transports, so the
        in-process service binds exactly what the socket would carry.  A
        rejection raises :class:`ServeClientError` with the HTTP status.
        A list result comes back unwrapped from its JSON envelope; the
        ``metrics`` op answers the registry snapshot in-process and the
        Prometheus text exposition over the socket.
        """
        spec = OPS.get(op)
        if spec is None:
            raise ServeClientError(f"unknown operation {op!r}", status=404)
        unknown = set(body).difference(spec.fields)
        if unknown:
            raise TypeError(f"{op}() got unexpected field(s) {sorted(unknown)}")
        data = json.dumps(
            {key: value for key, value in body.items() if value is not None},
            default=_jsonable,
        )
        if self._service is not None:
            try:
                return self._service.call(op, json.loads(data))
            except RequestError as exc:
                raise ServeClientError(str(exc), status=exc.status, detail=exc.detail) from exc
        response = self._request(urllib.request.Request(
            self._base_url + spec.route,
            data=data.encode("utf-8") if spec.verb == "POST" else None,
            headers={"Content-Type": "application/json"},
        ))
        return response[spec.envelope] if spec.envelope else response

    def rationalize(self, model: Optional[str] = None, **body) -> dict:
        """``POST /v1/rationalize``: label + rationale for one sentence.

        ``body`` carries the ``rationalize`` fields of
        :data:`repro.serve.ops.OPS`: exactly one of ``token_ids`` /
        ``tokens``; ``debug=True`` asks the server for a span-timeline
        ``trace``; ``request_id`` pins the id minted at this edge so the
        response and server-side trace log correlate with client logs;
        ``version`` (or a ``model@version`` reference) pins an exact
        artifact version — the way a staged challenger is probed.
        """
        return self.call("rationalize", model=model, **body)

    def rationalize_many(self, model: Optional[str] = None, **body) -> dict:
        """Batched ``POST /v1/rationalize`` (``inputs=[...]`` plus the
        ``debug`` / ``request_id`` / ``version`` fields): one round trip,
        one scheduler wave; returns ``{"results": [...], "count": ...,
        "cached_count": ...}`` with a per-item ``cached`` flag."""
        return self.call("rationalize_many", model=model, **body)

    def deploy(self, model: str, path: str, **options) -> dict:
        """``POST /v1/deploy``: stage a challenger version of ``model``.

        ``version`` pins the new version's name; ``canary_fraction``
        diverts that share of live traffic to it; ``shadow=True``
        mirrors champion traffic into ``diff_log`` for the offline
        ``deploy-diff`` report; ``warm=True`` replays the server's
        request log through the challenger's cache first.
        """
        return self.call("deploy", model=model, path=path, **options)

    def promote(self, model: str, version: Optional[str] = None) -> dict:
        """``POST /v1/promote``: flip the live pointer (zero downtime)."""
        return self.call("promote", model=model, version=version)

    def rollback(self, model: str) -> dict:
        """``POST /v1/rollback``: restore the retained previous version."""
        return self.call("rollback", model=model)

    def warm(self, model: str, version: Optional[str] = None) -> dict:
        """``POST /v1/warm``: replay the request log through a version."""
        return self.call("warm", model=model, version=version)

    def deployments(self) -> list[dict]:
        """``GET /v1/deployments``: per-version lifecycle state rows."""
        return self.call("deployments")

    def models(self) -> list[dict]:
        """``GET /v1/models``: one metadata row per loaded artifact."""
        return self.call("models")

    def health(self) -> dict:
        """``GET /healthz``."""
        return self.call("health")

    def stats(self) -> dict:
        """``GET /statz``: cache, scheduler and latency statistics."""
        return self.call("stats")

    def transport_stats(self) -> dict:
        """Socket-transport health counters (all zero for in-process) —
        same key set as ever, rendered from the client's registry."""
        return {
            "requests": int(self._m_requests.value()),
            "retried": int(self._m_retried.value()),
            "connect_failures": int(self._m_connect_failures.value()),
            "timeouts": int(self._m_timeouts.value()),
            "http_errors": int(self._m_http_errors.value()),
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _is_timeout(exc: Exception) -> bool:
        if isinstance(exc, (socket.timeout, TimeoutError)):
            return True
        reason = getattr(exc, "reason", None)
        return isinstance(reason, (socket.timeout, TimeoutError))

    def _request(self, request: urllib.request.Request):
        self._m_requests.inc()
        attempts = self.retries + 1
        for attempt in range(attempts):
            try:
                with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                    text = response.read().decode("utf-8")
                    if response.headers.get_content_type() == "application/json":
                        return json.loads(text)
                    return text
            except urllib.error.HTTPError as exc:
                self._m_http_errors.inc()
                detail = None
                try:
                    body = json.loads(exc.read().decode("utf-8"))
                    message = body.get("error", str(exc))
                    detail = body.get("detail")
                except Exception:
                    message = str(exc)
                raise ServeClientError(message, status=exc.code, detail=detail) from exc
            except (urllib.error.URLError, ConnectionError, socket.timeout, TimeoutError) as exc:
                if self._is_timeout(exc):
                    # Never retried: the server may have accepted the work
                    # and a hung shard would double every slow request.
                    self._m_timeouts.inc()
                    raise ServeClientError(
                        f"request to {self._base_url} timed out after {self.timeout_s}s",
                        status=504,
                    ) from exc
                reason = getattr(exc, "reason", exc)
                self._m_connect_failures.inc()
                if not isinstance(reason, _CONNECT_ERRORS) or attempt + 1 >= attempts:
                    raise ServeClientError(
                        f"cannot reach {self._base_url}: {reason}", status=503
                    ) from exc
                self._m_retried.inc()
                time.sleep(self.retry_backoff_s)
        raise AssertionError("unreachable")  # pragma: no cover


def _jsonable(value):
    """``json.dumps`` fallback for numpy scalars/arrays and paths.  A
    float id stays a float so the server rejects it rather than
    truncating it to a different token."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, os.PathLike):
        return os.fspath(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")
