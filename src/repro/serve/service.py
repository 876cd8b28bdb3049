"""The serving core: request validation, caching, batching, inference.

:class:`RationalizationService` is the transport-independent heart of
``repro.serve`` — the HTTP layer (:mod:`repro.serve.http`) and the
in-process :class:`repro.serve.Client` both call it directly.  One
request is one sentence (token ids, or raw tokens when the checkpoint
embeds its vocabulary); the service

1. resolves the model artifact in the :class:`~repro.serve.registry.ModelRegistry`
   — the live version by default, an explicit one for ``name@version``
   references, or the canary version for the configured traffic fraction
   when a :class:`~repro.serve.lifecycle.DeploymentManager` route is active,
2. answers from the :class:`~repro.serve.cache.RationaleCache` when the
   exact (model, version, token-ids) triple has been served before,
3. otherwise submits to the :class:`~repro.serve.scheduler.MicroBatchScheduler`,
   which coalesces concurrent requests into length-bucketed batches and
   executes them on the scheduler thread through a pooled, graph-free
   :class:`repro.core.InferenceSession` (one per artifact, buffers reused
   across batches).

Responses are plain JSON-serializable dicts: predicted label, the binary
rationale mask, and the selected tokens when the vocabulary is known.

Observability: the service owns the process's
:class:`repro.obs.MetricsRegistry`.  The scheduler and cache register
their instruments on it, the backend bridges kernel timings and the
buffer-pool ledger into it as collectors, and the service itself records
``repro_requests_total{model,cached}``, per-model request-latency
histograms and per-(model, batch_size) batch-latency histograms — so
``GET /metrics`` renders the whole stack from one snapshot and
``metrics.reset()`` zeroes every subsystem atomically for bench warmup.
A request carrying ``debug=true`` gets a :class:`repro.obs.Trace`: the
request id (the client's, or minted by the first tier that sees it)
rides through the scheduler wave, and the response carries a span timeline (cache lookup,
queue wait, batch formation, inference, serialization) whose durations
tile the measured end-to-end latency; completed traces land in a
ring-buffered JSONL :class:`repro.obs.TraceLog`.

Lifecycle: the service owns a
:class:`~repro.serve.lifecycle.DeploymentManager` (``self.lifecycle``).
:meth:`RationalizationService.call` runs any operation of
:data:`repro.serve.ops.OPS` — the request path and the lifecycle ops
alike — on a JSON body, which is the one entry point the HTTP edge, the
shard worker and :class:`~repro.serve.Client` use.
Scheduler waves are keyed on ``(model, version)`` and the service tracks
an in-flight count per version on a condition variable, which is what
lets a promote wait for the *old* version's waves to drain after the
live pointer has already flipped (zero dropped requests, no response
ever mixes versions).
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future
from typing import Optional, Sequence

import numpy as np

from repro.backend.core import fusion, kernel_timing
from repro.backend.obs import attach_backend_collectors
from repro.core.inference import InferenceSession
from repro.data.batching import Batch
from repro.data.dataset import ReviewExample
from repro.obs import MetricsRegistry, Trace, TraceLog, new_request_id
from repro.serve.cache import RationaleCache, rationale_key
from repro.serve.lifecycle import DeploymentManager, RequestLog
from repro.serve.ops import OPS, RequestError, bind
from repro.serve.registry import (
    ArtifactCompatibilityError,
    LifecycleError,
    ModelArtifact,
    ModelRegistry,
    parse_model_ref,
)
from repro.serve.scheduler import MicroBatchScheduler


class RationalizationService:
    """Ties the registry, cache and scheduler into one request path.

    Parameters
    ----------
    registry:
        Loaded model artifacts.
    max_batch_size, max_wait_ms, bucket_width:
        Scheduler knobs (see :class:`MicroBatchScheduler`).
    cache_size:
        LRU capacity; ``0`` disables the rationale cache.
    fused:
        Dispatch encoder/softmax math to the backend's fused kernels
        while executing batches (the ``--fused`` serving flag).
    request_timeout_s:
        How long a caller waits for its future before giving up.
    trace_capacity:
        Ring-buffer size of the JSONL trace log (debug traces kept).
    request_log_size:
        Ring-buffer capacity of the warm-up request log; ``0`` (default)
        disables recording (see :class:`repro.serve.lifecycle.RequestLog`).
    drain_timeout_s:
        How long a promote/rollback waits for the outgoing version's
        in-flight waves before reporting an incomplete drain.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        bucket_width: int = 16,
        cache_size: int = 1024,
        fused: bool = False,
        request_timeout_s: float = 60.0,
        trace_capacity: int = 256,
        request_log_size: int = 0,
        drain_timeout_s: float = 30.0,
    ):
        self.registry = registry
        self.metrics = attach_backend_collectors(MetricsRegistry())
        self.trace_log = TraceLog(capacity=trace_capacity)
        self.cache = RationaleCache(cache_size, metrics=self.metrics)
        self.fused = bool(fused)
        self.request_timeout_s = float(request_timeout_s)
        self.scheduler = MicroBatchScheduler(
            self._execute_batch,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            bucket_width=bucket_width,
            metrics=self.metrics,
        )
        self.request_log = RequestLog(request_log_size)
        # Per-(model, version) in-flight wave counts; the condition is
        # what drain_version() blocks on while a promote retires the old
        # version. Tracked before submit, released by future callback.
        self._inflight_cond = threading.Condition()
        self._inflight_versions: dict[tuple[str, str], int] = {}
        # Canary routing decisions; deterministic seeding is the tests'
        # hook, production uses the default entropy.
        self._canary_rng = random.Random()
        self.lifecycle = DeploymentManager(self, drain_timeout_s=drain_timeout_s)
        self._m_canary_requests = self.metrics.counter(
            "repro_canary_requests_total",
            "Requests routed to a canary version.",
            ("model", "version"),
        )
        self._m_requests = self.metrics.counter(
            "repro_requests_total",
            "Rationalization requests served, by model and cache outcome.",
            ("model", "cached"),
        )
        self._m_errors = self.metrics.counter(
            "repro_request_errors_total",
            "Requests rejected with a typed error, by HTTP status.",
            ("status",),
        )
        self._m_latency = self.metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency per model.",
            ("model",),
        )
        self._m_batch_latency = self.metrics.histogram(
            "repro_batch_latency_seconds",
            "Batch execution latency per (model, batch_size).",
            ("model", "batch_size"),
        )
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def call(self, op: str, body: dict):
        """Run serve operation ``op`` (a :data:`repro.serve.ops.OPS` name)
        on a JSON ``body``: the body is bound against the op's fields
        (400 on a malformed one), then the op's method runs.  Every
        typed rejection is counted here, by status."""
        try:
            kwargs = bind(op, body)
            return getattr(self, OPS[op].method or op)(**kwargs)
        except RequestError as exc:
            self._m_errors.inc(status=str(exc.status))
            raise

    def rationalize(
        self,
        model: Optional[str] = None,
        token_ids: Optional[Sequence[int]] = None,
        tokens: Optional[Sequence[str]] = None,
        debug: bool = False,
        request_id: Optional[str] = None,
        version: Optional[str] = None,
    ) -> dict:
        """Serve one sentence: returns label + rationale mask (+ tokens).

        Exactly one of ``token_ids`` / ``tokens`` must be given; ``tokens``
        requires the checkpoint to embed its vocabulary.  ``version`` (or
        a ``model@version`` reference) pins an exact artifact version —
        any lifecycle state, which is how challengers are probed before
        promotion; without it the live version serves, minus the canary
        fraction.  With ``debug`` the response carries a ``trace`` span
        timeline whose stage durations tile the measured latency.
        """
        start = time.perf_counter()
        request_id = request_id or new_request_id()
        trace = Trace(request_id, start=start) if debug else None
        artifact = self._resolve(model, version)
        ids, token_strings = self._encode(artifact, token_ids, tokens)
        if trace is not None:
            trace.mark("validate")
        self.request_log.record(artifact.name, ids)
        key = rationale_key(artifact.name, ids, version=artifact.version)
        cached = self.cache.get(key)
        if trace is not None:
            trace.mark("cache_lookup")
        if cached is not None:
            response = dict(cached)
            response["cached"] = True
        else:
            future = self._submit(artifact, ids, trace)
            result = future.result(timeout=self.request_timeout_s)
            if trace is not None:
                # Gap between the scheduler resolving the future and
                # this thread being rescheduled to consume it.
                trace.mark("resolve_wait")
            response = dict(result)
            response["cached"] = False
            self.cache.put(key, result)
        response = self._finish(response, artifact, ids, token_strings)
        response["request_id"] = request_id
        self._mirror(artifact, ids, response, request_id)
        self._m_requests.inc(model=artifact.name, cached=str(response["cached"]).lower())
        return self._stamp(response, trace, start, artifact.name)

    def rationalize_many(
        self,
        model: Optional[str] = None,
        inputs: Optional[Sequence] = None,
        debug: bool = False,
        request_id: Optional[str] = None,
        version: Optional[str] = None,
    ) -> dict:
        """Serve a batched payload: one POST, per-item rationales.

        ``inputs`` is a non-empty list whose items are either flat
        token-id lists, token-string lists, or ``{"token_ids": ...}`` /
        ``{"tokens": ...}`` dicts.  Every cache miss is submitted to the
        scheduler *before* any result is awaited, so the whole payload
        lands in one wave and batches together; each per-item response
        carries its own ``cached`` flag.  With ``debug`` the envelope
        carries one trace spanning the whole payload.
        """
        start = time.perf_counter()
        request_id = request_id or new_request_id()
        trace = Trace(request_id, start=start) if debug else None
        artifact = self._resolve(model, version)
        if not isinstance(inputs, (list, tuple)) or not inputs:
            raise RequestError("'inputs' must be a non-empty list")
        encoded = []
        for index, item in enumerate(inputs):
            token_ids, tokens = self._split_item(item)
            try:
                encoded.append(self._encode(artifact, token_ids, tokens))
            except RequestError as exc:
                raise RequestError(f"inputs[{index}]: {exc}", status=exc.status)
        if trace is not None:
            trace.mark("validate")
        responses: list[Optional[dict]] = [None] * len(encoded)
        pending: list[tuple[int, tuple, Future]] = []
        for index, (ids, _) in enumerate(encoded):
            self.request_log.record(artifact.name, ids)
            key = rationale_key(artifact.name, ids, version=artifact.version)
            cached = self.cache.get(key)
            if cached is not None:
                response = dict(cached)
                response["cached"] = True
                responses[index] = response
            else:
                pending.append((index, key, self._submit(artifact, ids)))
        if trace is not None:
            trace.mark("cache_lookup")
        deadline = start + self.request_timeout_s
        for index, key, future in pending:
            result = future.result(timeout=max(deadline - time.perf_counter(), 0.001))
            response = dict(result)
            response["cached"] = False
            self.cache.put(key, result)
            responses[index] = response
        if trace is not None:
            trace.mark("inference")
        for index, (ids, token_strings) in enumerate(encoded):
            responses[index] = self._finish(responses[index], artifact, ids, token_strings)
            self._mirror(artifact, ids, responses[index], request_id)
        for response in responses:
            self._m_requests.inc(
                model=artifact.name, cached=str(response["cached"]).lower()
            )
        envelope = {
            "model": artifact.name,
            "count": len(responses),
            "cached_count": sum(1 for r in responses if r["cached"]),
            "request_id": request_id,
            "results": responses,
        }
        return self._stamp(envelope, trace, start, artifact.name)

    def _stamp(self, payload: dict, trace: Optional[Trace], start: float, model: str) -> dict:
        """Close a response: attach the debug trace, then stamp and
        record the end-to-end latency."""
        if trace is not None:
            trace.mark("serialization")
            trace_dict = trace.to_dict()
            self.trace_log.record(trace_dict)
            payload["trace"] = trace_dict
        latency_ms = (time.perf_counter() - start) * 1000.0
        payload["latency_ms"] = round(latency_ms, 3)
        self._m_latency.observe(latency_ms / 1000.0, model=model)
        return payload

    def _submit(self, artifact: ModelArtifact, ids, trace: Optional[Trace] = None) -> "Future":
        # Track before submitting: drain_version() must never observe a
        # zero count while a wave for this version is already queued.
        key = (artifact.name, artifact.version)
        with self._inflight_cond:
            self._inflight_versions[key] = self._inflight_versions.get(key, 0) + 1
        try:
            future = self.scheduler.submit(key, ids, trace=trace)
        except RuntimeError:
            self._release_inflight(key)
            # The scheduler only refuses after close(): drain semantics are
            # "finish accepted work, reject new work" — typed, not a 500.
            raise RequestError("service is shutting down", status=503) from None
        future.add_done_callback(lambda _f: self._release_inflight(key))
        return future

    def _release_inflight(self, key: tuple[str, str]) -> None:
        with self._inflight_cond:
            count = self._inflight_versions.get(key, 0) - 1
            if count <= 0:
                self._inflight_versions.pop(key, None)
            else:
                self._inflight_versions[key] = count
            self._inflight_cond.notify_all()

    def drain_version(self, model: str, version: str, timeout: float = 30.0) -> bool:
        """Block until no scheduler wave is in flight for ``model@version``.

        The promote path calls this *after* flipping the live pointer, so
        the old version's in-flight set only shrinks while we wait.
        """
        key = (model, str(version))
        with self._inflight_cond:
            return self._inflight_cond.wait_for(
                lambda: self._inflight_versions.get(key, 0) == 0, timeout
            )

    def _mirror(self, artifact: ModelArtifact, ids, response: dict, request_id) -> None:
        """Hand a served champion response to the shadow mirror (if any).

        Off the hot path by construction: ``ShadowMirror.submit`` is a
        non-blocking enqueue.  Requests the canary itself served are not
        mirrored back onto it.
        """
        route = self.lifecycle.route_for(artifact.name)
        if route is None:
            return
        mirror = route.get("mirror")
        if mirror is None or artifact.version == route["version"]:
            return
        mirror.submit(
            ids,
            {
                "version": artifact.version,
                "label": response.get("label"),
                "rationale": list(response.get("rationale", [])),
            },
            request_id=request_id,
        )

    @staticmethod
    def _split_item(item) -> tuple[Optional[Sequence], Optional[Sequence]]:
        """One batched-payload item -> (token_ids, tokens)."""
        if isinstance(item, dict):
            return item.get("token_ids"), item.get("tokens")
        if isinstance(item, (list, tuple)) and item and all(
            isinstance(t, str) for t in item
        ):
            return None, item
        return item, None

    def _finish(self, response: dict, artifact: ModelArtifact, ids, token_strings) -> dict:
        """Decorate one response copy with tokens/selected_tokens."""
        # The dict copy upstream is shallow: detach the mutable mask list
        # so a caller editing its response can never corrupt the cache.
        response["rationale"] = list(response["rationale"])
        if token_strings is None and artifact.vocab is not None:
            token_strings = artifact.vocab.decode(ids)
        if token_strings is not None:
            response["tokens"] = list(token_strings)
            response["selected_tokens"] = [
                t for t, m in zip(token_strings, response["rationale"]) if m
            ]
        return response

    def _resolve(
        self, model: Optional[str], version: Optional[str] = None
    ) -> ModelArtifact:
        names = self.registry.names()
        if model is None:
            if len(names) == 1:
                model = names[0]
            else:
                raise RequestError(f"request must name a model; available: {names}")
        try:
            name, ref_version = parse_model_ref(model)
        except ValueError as exc:
            raise RequestError(str(exc)) from None
        if version is not None and ref_version is not None and str(version) != str(ref_version):
            raise RequestError(
                f"conflicting version: reference {model!r} vs version={version!r}"
            )
        version = ref_version if version is None else str(version)
        try:
            if version is not None:
                return self.registry.get_version(name, version)
            return self._route(name)
        except KeyError as exc:
            raise RequestError(
                str(exc.args[0]) if exc.args else str(exc), status=404
            ) from None
        except ValueError as exc:  # e.g. an empty version: "name@"
            raise RequestError(str(exc)) from None

    def _route(self, name: str) -> ModelArtifact:
        """Live artifact of ``name``, minus the configured canary share."""
        route = self.lifecycle.route_for(name)
        if (
            route is not None
            and route["fraction"] > 0.0
            and self._canary_rng.random() < route["fraction"]
        ):
            try:
                candidate = self.registry.get_version(name, route["version"])
            except KeyError:
                candidate = None
            # Only a version still in canary state takes the diverted
            # share — a just-promoted or just-retired one falls through
            # to the live pointer, so routes can never resurrect it.
            if candidate is not None and candidate.state == "canary":
                self._m_canary_requests.inc(model=name, version=candidate.version)
                return candidate
        return self.registry.get(name)

    def _encode(self, artifact: ModelArtifact, token_ids, tokens) -> tuple[np.ndarray, Optional[list]]:
        if (token_ids is None) == (tokens is None):
            raise RequestError("provide exactly one of 'token_ids' or 'tokens'")
        if tokens is not None:
            if artifact.vocab is None:
                raise RequestError(
                    f"model {artifact.name!r} was saved without a vocabulary; "
                    "send 'token_ids' instead of 'tokens'"
                )
            if not (isinstance(tokens, (list, tuple)) and tokens
                    and all(isinstance(t, str) for t in tokens)):
                raise RequestError("'tokens' must be a non-empty list of strings")
            return artifact.vocab.encode(list(tokens)), list(tokens)
        try:
            ids_list = list(token_ids)
        except TypeError:
            raise RequestError("'token_ids' must be a non-empty flat list of integers")
        if not ids_list or not all(
            isinstance(t, (int, np.integer)) and not isinstance(t, bool) for t in ids_list
        ):
            # Reject rather than coerce: float ids would silently truncate
            # to different tokens and answer a confidently wrong rationale.
            raise RequestError("'token_ids' must be a non-empty flat list of integers")
        vocab_size = int(artifact.config.get("arch", {}).get("vocab_size", 0))
        try:
            ids = np.asarray(ids_list, dtype=np.int64)
        except OverflowError:
            ids = None
        if ids is None or vocab_size and (ids.min() < 0 or ids.max() >= vocab_size):
            raise RequestError(
                f"token ids must be in [0, {vocab_size}); got range "
                f"[{min(ids_list)}, {max(ids_list)}]"
            )
        return ids, None

    # ------------------------------------------------------------------
    # Batch execution (scheduler worker thread only)
    # ------------------------------------------------------------------
    def _session(self, artifact: ModelArtifact) -> InferenceSession:
        if artifact.session is None:
            # Bucketing happens at the scheduler level (groups arrive
            # pre-sorted), so the pooled session keeps input order and
            # just supplies the no-grad/dtype-policy/buffer-reuse path.
            artifact.session = InferenceSession(
                artifact.model, batch_size=self.scheduler.max_batch_size, bucketing=False
            )
        return artifact.session

    def _execute_batch(self, key: tuple[str, str], id_lists: Sequence[np.ndarray]) -> list[dict]:
        model_name, version = key
        artifact = self.registry.get_version(model_name, version)
        examples = [
            ReviewExample(
                tokens=[""] * len(ids),
                token_ids=np.asarray(ids, dtype=np.int64),
                label=0,
                rationale=np.zeros(len(ids), dtype=np.int64),
                aspect="serve",
            )
            for ids in id_lists
        ]
        session = self._session(artifact)
        model = artifact.model

        def run(batch: Batch) -> list[dict]:
            mask = np.asarray(model.select(batch))
            labels = model.predictor.predict(batch.token_ids, mask, batch.mask)
            return [
                {
                    "model": artifact.name,
                    "version": artifact.version,
                    "label": int(labels[i]),
                    "rationale": [int(v) for v in mask[i, : len(batch.examples[i])] > 0.5],
                    "n_selected": int((mask[i] > 0.5).sum()),
                    "n_tokens": len(batch.examples[i]),
                }
                for i in range(len(batch.examples))
            ]

        # Kernel timing rides along on the worker thread so `GET /statz`
        # can show where serving time goes without an external profiler.
        batch_started = time.perf_counter()
        with fusion(self.fused), kernel_timing(True):
            per_batch = session.map_batches(run, examples)
        self._m_batch_latency.observe(
            time.perf_counter() - batch_started,
            model=artifact.name,
            batch_size=len(id_lists),
        )
        return [result for batch_results in per_batch for result in batch_results]

    # ------------------------------------------------------------------
    # Lifecycle execution hooks (shadow mirror + warm-up)
    # ------------------------------------------------------------------
    def submit_version(self, artifact: ModelArtifact, token_ids) -> "Future":
        """Queue one request against an explicit artifact (warm-up path).

        Bypasses request validation — the ids were served once already —
        so :meth:`DeploymentManager.warm` can enqueue the whole replay as
        one scheduler wave before awaiting any result.
        """
        return self._submit(artifact, np.asarray(token_ids, dtype=np.int64))

    def execute_version(self, model: str, version: str, token_ids) -> dict:
        """Run one request synchronously against ``model@version``.

        The shadow mirror's challenger callback: served through the same
        scheduler (so mirrored traffic batches with itself) and the same
        versioned cache slice, but with none of the request-path
        decoration.
        """
        artifact = self.registry.get_version(model, str(version))
        ids = np.asarray([int(t) for t in token_ids], dtype=np.int64)
        key = rationale_key(artifact.name, ids, version=artifact.version)
        cached = self.cache.get(key)
        if cached is not None:
            return dict(cached)
        result = self._submit(artifact, ids).result(timeout=self.request_timeout_s)
        self.cache.put(key, result)
        return dict(result)

    # ------------------------------------------------------------------
    # Lifecycle ops
    # ------------------------------------------------------------------
    def deploy(
        self,
        model: str,
        path: str,
        version: Optional[str] = None,
        canary_fraction: float = 0.0,
        shadow: bool = False,
        diff_log: Optional[str] = None,
        warm: bool = False,
    ) -> dict:
        """``POST /v1/deploy``: stage a challenger version of ``model``.

        Incompatible artifacts answer 409 carrying the checkpoint's
        ``format_version``/``repro_version`` in ``detail``.
        """
        return self._lifecycle_call(
            self.lifecycle.deploy,
            model,
            path,
            version=version,
            canary_fraction=canary_fraction,
            shadow=shadow,
            diff_log=diff_log,
            warm=warm,
        )

    def promote(self, model: str, version: Optional[str] = None) -> dict:
        """``POST /v1/promote``: flip ``model``'s live pointer (zero-drop)."""
        return self._lifecycle_call(self.lifecycle.promote, model, version=version)

    def rollback(self, model: str) -> dict:
        """``POST /v1/rollback``: restore the retained previous version."""
        return self._lifecycle_call(self.lifecycle.rollback, model)

    def warm(self, model: str, version: Optional[str] = None) -> dict:
        """``POST /v1/warm``: replay the request log through a version."""
        warmed = self._lifecycle_call(self.lifecycle.warm, model, version=version)
        name, ref_version = parse_model_ref(model)
        return {"model": name, "version": version or ref_version, "warmed": warmed}

    def deployments(self) -> list[dict]:
        """``GET /v1/deployments`` payload rows."""
        return self.lifecycle.describe()

    def _lifecycle_call(self, fn, *args, **kwargs):
        """Translate lifecycle-layer exceptions to typed request errors."""
        try:
            return fn(*args, **kwargs)
        except ArtifactCompatibilityError as exc:
            raise RequestError(
                f"incompatible artifact: {exc}",
                status=409,
                detail={
                    "format_version": exc.format_version,
                    "repro_version": exc.repro_version,
                    "path": exc.path,
                },
            ) from exc
        except OSError as exc:
            raise RequestError(f"checkpoint not readable: {exc}") from exc
        except LifecycleError as exc:
            raise RequestError(str(exc), status=409) from exc
        except KeyError as exc:
            raise RequestError(
                str(exc.args[0]) if exc.args else str(exc), status=404
            ) from exc
        except ValueError as exc:
            raise RequestError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe_models(self) -> list[dict]:
        """``GET /v1/models`` payload rows (delegates to the registry)."""
        return self.registry.describe()

    def health(self) -> dict:
        """``GET /healthz`` payload."""
        return {
            "status": "ok",
            "models": self.registry.names(),
            "uptime_s": round(time.time() - self._started_at, 1),
        }

    def metrics_snapshot(self) -> dict:
        """Registry snapshot (instruments + backend collectors) for
        ``GET /metrics`` and the router's fleet aggregation."""
        return self.metrics.snapshot()

    def stats(self) -> dict:
        """``GET /statz`` payload — same JSON shape as ever, but every
        section now renders from the metrics registry."""
        entry = self._m_latency.merged_entry()
        latency = {"count": int(entry["count"])}
        if entry["count"]:
            latency.update(
                p50_ms=round(self._m_latency.percentile(50) * 1000.0, 3),
                p95_ms=round(self._m_latency.percentile(95) * 1000.0, 3),
                mean_ms=round(entry["sum"] / entry["count"] * 1000.0, 3),
            )
        snapshot = self.metrics.snapshot()
        return {
            "uptime_s": round(time.time() - self._started_at, 1),
            "cache": self.cache.stats(),
            "scheduler": self.scheduler.stats(),
            "latency": latency,
            "fused": self.fused,
            # Backend observability: wall time per dispatched kernel on the
            # worker thread, and buffer-pool hit/miss counters for the
            # pooled session's padded-batch (and any co-resident trainer's
            # gradient) buffers — reconstructed from the collector families
            # so /statz and /metrics can never disagree.
            "backend": {
                "kernel_timings": _kernel_timings_from(snapshot),
                "buffer_pool": _pool_stats_from(snapshot),
            },
        }

    def close(self) -> None:
        """Stop lifecycle routes, then the scheduler (idempotent)."""
        self.lifecycle.close()
        self.scheduler.close()

    def __enter__(self) -> "RationalizationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _kernel_timings_from(snapshot: dict) -> dict:
    """Rebuild the ``{kernel: {calls, total_ms}}`` table from the
    ``repro_kernel_*`` collector families (busiest kernel first)."""
    calls = snapshot.get("repro_kernel_calls_total", {}).get("series", {})
    seconds = snapshot.get("repro_kernel_seconds_total", {}).get("series", {})
    rows = [
        (name, int(calls.get(key, 0)), float(seconds.get(key, 0.0)))
        for key in calls
        for name in [key[0]]
    ]
    rows.sort(key=lambda row: row[2], reverse=True)
    return {
        name: {"calls": count, "total_ms": round(total * 1000.0, 3)}
        for name, count, total in rows
    }


def _pool_stats_from(snapshot: dict) -> dict:
    """Rebuild the aggregate buffer-pool ledger from ``repro_pool_*``."""

    def value(name: str) -> float:
        series = snapshot.get(name, {}).get("series", {})
        return float(series.get((), 0.0))

    hits = int(value("repro_pool_hits_total"))
    misses = int(value("repro_pool_misses_total"))
    total = hits + misses
    return {
        "pools": int(value("repro_pool_threads")),
        "hits": hits,
        "misses": misses,
        "released": int(value("repro_pool_released_total")),
        "dropped": int(value("repro_pool_dropped_total")),
        "evicted": int(value("repro_pool_evicted_total")),
        "retained": int(value("repro_pool_retained_buffers")),
        "retained_bytes": int(value("repro_pool_retained_bytes")),
        "hit_rate": round(hits / total, 4) if total else 0.0,
    }
