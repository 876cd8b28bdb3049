"""Front router for the sharded serving tier: admission, routing, respawn.

:class:`ShardRouter` owns the client-facing surface of a multi-process
deployment.  Its one entry point, :meth:`ShardRouter.call`, serves every
operation of :data:`repro.serve.ops.OPS` with the same contract as
:meth:`repro.serve.service.RationalizationService.call`, so the HTTP
layer and :class:`repro.serve.Client` work unchanged against one process
or N.  The op table's ``fanout`` decides where an op runs.

Three responsibilities:

- **Routing** — each request hashes its cache key ``(model, token ids)``
  to a *preferred* shard (hash affinity keeps every worker's rationale
  cache hot on repeated traffic), falling back to the least-loaded shard
  when the preferred one is at budget.
- **Admission control** — every worker has a bounded outstanding-request
  budget (``max_inflight_per_worker``); when all shards are at budget
  the request is rejected *immediately* with :class:`OverloadedError`
  (HTTP 429) instead of queueing without bound.  Routed / rejected /
  inflight / queue-depth counters aggregate across shards in ``stats()``
  (``GET /statz``).
- **Failure handling** — a collector thread per worker resolves response
  futures and watches the process; a dead worker's in-flight requests
  fail fast with :class:`WorkerDiedError` (HTTP 503) and the worker is
  respawned, so one crashed shard degrades capacity transiently instead
  of wedging callers until their timeouts.

Shutdown is a drain: admission closes first, every shard finishes its
accepted in-flight requests, schedulers stop, processes are joined — no
orphans (``tests/serve/test_shard.py`` asserts via
``multiprocessing.active_children``).

Model lifecycle: each shard runs its own
:class:`~repro.serve.lifecycle.DeploymentManager`, so a lifecycle op is
a **fleet broadcast**: shard 0 validates first (an incompatible artifact
answers its 409 before any other shard is touched), then the op fans out
to the rest.  Every applied op lands in an in-memory journal that
:meth:`ShardRouter._on_worker_death` replays into a respawned worker — a
shard killed mid-deploy reconverges with the fleet's version state from
its ``WorkerConfig`` checkpoints plus the journal, which the lifecycle
test suite proves with a SIGKILL.
"""

from __future__ import annotations

import threading
import time
import zlib
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path
from queue import Empty
from typing import Optional, Sequence

from repro.obs import (
    MetricsRegistry,
    Trace,
    TraceLog,
    merge_snapshots,
    new_request_id,
    splice_spans,
)
from repro.serve.ops import OPS, RequestError, bind
from repro.serve.shard import (
    MSG_ERROR,
    MSG_EXIT,
    MSG_FATAL,
    MSG_READY,
    MSG_RESULT,
    MSG_SHUTDOWN,
    WorkerConfig,
    spawn_worker,
)


class OverloadedError(RequestError):
    """Every shard is at its outstanding-request budget (HTTP 429)."""

    def __init__(self, message: str = "overloaded: all workers at inflight budget"):
        super().__init__(message, status=429)


class WorkerDiedError(RequestError):
    """The shard holding this request died before answering (HTTP 503)."""

    def __init__(self, message: str = "worker process died while serving the request"):
        super().__init__(message, status=503)


class _WorkerHandle:
    """Router-side view of one shard: process, queues, in-flight ledger.

    Dispatch/completion/failure counts live as ``repro_worker_*_total``
    counters (labeled by worker id) on the router's metrics registry —
    a respawned shard keeps accumulating the same labeled series.  The
    in-flight weight stays a plain int under the handle lock because it
    is *functional* admission state, not a statistic.
    """

    def __init__(self, config: WorkerConfig, budget: int, mp_context: Optional[str],
                 metrics: MetricsRegistry):
        self.config = config
        self.worker_id = config.worker_id
        self.budget = int(budget)
        self.ready = threading.Event()
        self.exited = threading.Event()
        self.models: list[dict] = []
        self.pid: Optional[int] = None
        self.fatal_error: Optional[str] = None
        self.collector: Optional[threading.Thread] = None
        self.process, self.request_q, self.response_q = spawn_worker(config, mp_context)
        self._lock = threading.Lock()
        self._inflight: dict[int, tuple[Future, int]] = {}
        self._inflight_weight = 0
        self._next_id = 0
        self._label = str(config.worker_id)
        self._m_dispatched = metrics.counter(
            "repro_worker_dispatched_total", "Requests dispatched per shard.", ("worker",)
        )
        self._m_completed = metrics.counter(
            "repro_worker_completed_total", "Requests completed per shard.", ("worker",)
        )
        self._m_failed = metrics.counter(
            "repro_worker_failed_total", "Requests failed per shard.", ("worker",)
        )
        self._closed = False
        self._dead = False

    # -- dispatch -------------------------------------------------------
    def try_dispatch(self, kind: str, payload: dict, weight: int = 1) -> Optional[Future]:
        """Admit-and-send atomically; ``None`` when at budget or closed.

        ``weight`` is the number of items the request carries (a batched
        payload counts each input against the budget); weight 0 marks
        control traffic (probes, broadcasts), which bypasses admission.
        """
        future: Future = Future()
        with self._lock:
            if self._closed or self._dead:
                return None
            if weight and self._inflight_weight >= self.budget:
                return None
            self._next_id += 1
            request_id = self._next_id
            self._inflight[request_id] = (future, weight)
            self._inflight_weight += weight
        if weight > 0:
            # Control traffic is not requests: a scrape must not
            # inflate the traffic counters it reports.
            self._m_dispatched.inc(worker=self._label)
        self.request_q.put((kind, request_id, payload))
        return future

    def resolve(self, request_id: int, result=None, error: Optional[Exception] = None) -> None:
        """Complete one in-flight request (collector thread only)."""
        with self._lock:
            entry = self._inflight.pop(request_id, None)
            if entry is None:
                return
            self._inflight_weight -= entry[1]
        if entry[1] > 0:
            if error is None:
                self._m_completed.inc(worker=self._label)
            else:
                self._m_failed.inc(worker=self._label)
        future = entry[0]
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)

    def fail_all(self, error: Exception) -> int:
        """Fail every in-flight request (worker death / hard shutdown)."""
        with self._lock:
            entries = list(self._inflight.values())
            self._inflight.clear()
            self._inflight_weight = 0
            self._dead = True
        counted = sum(1 for _, weight in entries if weight > 0)
        if counted:
            self._m_failed.inc(counted, worker=self._label)
        for future, _ in entries:
            future.set_exception(error)
        return len(entries)

    def begin_shutdown(self) -> None:
        """Close admission and send the drain sentinel (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.request_q.put((MSG_SHUTDOWN, None, None))

    def reap(self, timeout: float) -> None:
        """Wait for the drained worker to exit; escalate to terminate."""
        self.exited.wait(timeout)
        self.process.join(timeout)
        if self.process.is_alive():  # drain overran its budget: hard stop
            self.process.terminate()
            self.process.join(1.0)
        self.fail_all(RequestError("server shutting down", status=503))

    # -- introspection --------------------------------------------------
    @property
    def inflight(self) -> int:
        # Lock-free snapshot read (the documented stats convention).
        return self._inflight_weight

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def queued(self) -> int:
        try:
            return self.request_q.qsize()
        except NotImplementedError:  # macOS semaphores
            return -1

    def stats(self) -> dict:
        with self._lock:
            inflight = self._inflight_weight
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "alive": self.process.is_alive(),
            "inflight": inflight,
            "budget": self.budget,
            "dispatched": int(self._m_dispatched.value(worker=self._label)),
            "completed": int(self._m_completed.value(worker=self._label)),
            "failed": int(self._m_failed.value(worker=self._label)),
        }


class ShardRouter:
    """Route requests across N worker processes with bounded admission.

    Parameters
    ----------
    checkpoints:
        Serving artifacts every shard loads: paths, or ``(name, path)``
        pairs (a bare path serves under its file stem).
    workers:
        Number of worker processes.
    max_inflight_per_worker:
        Outstanding-request budget per shard; when every shard is at
        budget new requests fail fast with :class:`OverloadedError`.
    max_batch_size, max_wait_ms, bucket_width, cache_size, fused, dtype:
        Per-shard service knobs (see :class:`RationalizationService`).
    request_timeout_s:
        How long a caller waits for a shard's answer before a 504.
    mp_context:
        ``multiprocessing`` start method (``None`` = platform default).
    """

    def __init__(
        self,
        checkpoints: Sequence,
        workers: int = 2,
        max_inflight_per_worker: int = 32,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        bucket_width: int = 16,
        cache_size: int = 1024,
        fused: bool = True,
        dtype: Optional[str] = "float32",
        request_timeout_s: float = 60.0,
        mp_context: Optional[str] = None,
        startup_timeout_s: float = 120.0,
        request_log_size: int = 0,
        admin_timeout_s: float = 120.0,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if max_inflight_per_worker <= 0:
            raise ValueError("max_inflight_per_worker must be positive")
        self.workers = int(workers)
        self.max_inflight_per_worker = int(max_inflight_per_worker)
        self.request_timeout_s = float(request_timeout_s)
        self.startup_timeout_s = float(startup_timeout_s)
        self.admin_timeout_s = float(admin_timeout_s)
        self.mp_context = mp_context
        self.started_at = time.time()
        self._shard_kwargs = dict(
            checkpoints=tuple(self._normalize(checkpoints)),
            dtype=dtype,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            bucket_width=bucket_width,
            cache_size=cache_size,
            fused=fused,
            max_inflight=max_inflight_per_worker,
            request_log_size=request_log_size,
        )
        self._lock = threading.Lock()
        self._handles: list[_WorkerHandle] = []
        # Applied admin ops, in order; a respawned worker replays the
        # journal before taking traffic so it converges with the fleet's
        # deployment state (its WorkerConfig only knows the boot-time
        # checkpoints).
        self._admin_journal: list[tuple[str, dict]] = []
        self._closed = False
        # Router-side observability: its own counters/gauges live in this
        # registry; GET /metrics merges worker snapshots into it.
        self.metrics = MetricsRegistry()
        self.trace_log = TraceLog()
        self._m_routed = self.metrics.counter(
            "repro_router_routed_total", "Requests admitted and routed to a shard."
        )
        self._m_routed_items = self.metrics.counter(
            "repro_router_routed_items_total",
            "Items routed (a batched payload counts each input).",
        )
        self._m_rejected = self.metrics.counter(
            "repro_router_rejected_total",
            "Requests fast-rejected with 429 (all shards at budget).",
        )
        self._m_worker_deaths = self.metrics.counter(
            "repro_router_worker_deaths_total", "Worker processes that died."
        )
        self._m_respawns = self.metrics.counter(
            "repro_router_respawns_total", "Dead workers successfully respawned."
        )
        self._m_admin = self.metrics.counter(
            "repro_router_admin_total",
            "Broadcast (lifecycle) ops applied fleet-wide.",
            ("op",),
        )
        self.metrics.gauge(
            "repro_router_inflight",
            "Outstanding request weight across all shards.",
            callback=lambda: sum(h.inflight for h in self._snapshot_handles()),
        )
        self.metrics.gauge(
            "repro_router_alive_workers",
            "Worker processes currently alive.",
            callback=lambda: sum(1 for h in self._snapshot_handles() if h.alive),
        )
        handles = [self._spawn(worker_id) for worker_id in range(self.workers)]
        with self._lock:
            self._handles = handles
        try:
            for handle in handles:
                self._await_ready(handle)
        except Exception:
            self.close()
            raise

    @staticmethod
    def _normalize(checkpoints: Sequence) -> list[tuple[str, str]]:
        pairs = []
        for entry in checkpoints:
            if isinstance(entry, (tuple, list)) and len(entry) == 2:
                pairs.append((str(entry[0]), str(entry[1])))
            else:
                pairs.append((Path(str(entry)).stem, str(entry)))
        if not pairs:
            raise ValueError("ShardRouter needs at least one checkpoint to serve")
        return pairs

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _snapshot_handles(self) -> list:
        with self._lock:
            return list(self._handles)

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        config = WorkerConfig(worker_id=worker_id, **self._shard_kwargs)
        handle = _WorkerHandle(
            config, self.max_inflight_per_worker, self.mp_context, self.metrics
        )
        collector = threading.Thread(
            target=self._collect, args=(handle,),
            name=f"repro-serve-collector-{worker_id}", daemon=True,
        )
        handle.collector = collector
        collector.start()
        return handle

    def _await_ready(self, handle: _WorkerHandle) -> None:
        if not handle.ready.wait(self.startup_timeout_s):
            raise RuntimeError(
                f"worker {handle.worker_id} did not become ready within "
                f"{self.startup_timeout_s}s"
            )
        if handle.fatal_error is not None:
            raise RuntimeError(
                f"worker {handle.worker_id} failed to start: {handle.fatal_error}"
            )

    def _collect(self, handle: _WorkerHandle) -> None:
        """Per-worker collector: resolve futures, watch for process death."""
        while True:
            try:
                kind, ident, payload = handle.response_q.get(timeout=0.2)
            except Empty:
                if not handle.process.is_alive() and not handle.exited.is_set():
                    self._on_worker_death(handle)
                    return
                continue
            if kind == MSG_READY:
                handle.pid = payload["pid"]
                handle.models = payload["models"]
                handle.ready.set()
            elif kind == MSG_RESULT:
                handle.resolve(ident, result=payload)
            elif kind == MSG_ERROR:
                handle.resolve(
                    ident,
                    error=RequestError(
                        payload["error"],
                        status=payload.get("status", 500),
                        detail=payload.get("detail"),
                    ),
                )
            elif kind == MSG_FATAL:
                handle.fatal_error = payload["error"]
                handle.ready.set()
                handle.exited.set()
                return
            elif kind == MSG_EXIT:
                handle.exited.set()
                return

    def _on_worker_death(self, handle: _WorkerHandle) -> None:
        """Fail the dead shard's in-flight requests; respawn unless closing."""
        handle.exited.set()
        handle.fail_all(
            WorkerDiedError(
                f"worker {handle.worker_id} (pid {handle.pid}) died while serving"
            )
        )
        with self._lock:
            if self._closed:
                return
        self._m_worker_deaths.inc()
        replacement = self._spawn(handle.worker_id)
        try:
            self._await_ready(replacement)
        except RuntimeError:
            # Respawn failed (e.g. checkpoint vanished): run degraded on
            # the surviving shards rather than crash the router.
            replacement.begin_shutdown()
            replacement.reap(5.0)
            return
        self._replay_journal(replacement)
        adopt = False
        with self._lock:
            if not self._closed and handle.worker_id < len(self._handles):
                self._handles[handle.worker_id] = replacement
                adopt = True
        if adopt:
            self._m_respawns.inc()
        if not adopt:  # close() raced us: the replacement must not leak
            replacement.begin_shutdown()
            replacement.reap(5.0)

    def _replay_journal(self, handle: _WorkerHandle) -> None:
        """Re-apply every journaled broadcast op to a freshly spawned
        worker (see the module docstring).  Best-effort: a replay failure
        leaves the shard serving its boot state, which the next broadcast
        surfaces as a partial-apply error."""
        with self._lock:
            journal = list(self._admin_journal)
        for op, payload in journal:
            try:
                self._admin_one(handle, op, payload)
            except RequestError:
                continue

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _affinity(self, model, payload_key) -> int:
        digest = zlib.crc32(repr((model, payload_key)).encode("utf-8"))
        return digest % self.workers

    def _dispatch(self, kind: str, payload: dict, weight: int, preferred: int) -> Future:
        with self._lock:
            if self._closed:
                raise RequestError("server shutting down", status=503)
            handles = list(self._handles)
        # Preferred shard first (cache affinity), then the least loaded.
        order = [handles[preferred % len(handles)]]
        order += sorted(
            (h for h in handles if h is not order[0]), key=lambda h: h.inflight
        )
        for handle in order:
            future = handle.try_dispatch(kind, payload, weight=weight)
            if future is not None:
                self._m_routed.inc()
                self._m_routed_items.inc(weight)
                return future
        self._m_rejected.inc()
        raise OverloadedError(
            f"overloaded: {len(order)} worker(s) at inflight budget "
            f"{self.max_inflight_per_worker}"
        )

    def _await(self, future: Future, timeout_s: float, what: str = "request"):
        try:
            return future.result(timeout=timeout_s)
        except FutureTimeoutError:
            raise RequestError(f"{what} timed out after {timeout_s}s", status=504) from None

    def _stitch(self, trace: Trace, response: dict, start: float) -> dict:
        """Replace the router's coarse ``worker`` span with the shard's
        inner timeline plus a ``transport`` residual (queue + pickling),
        and re-stamp ``latency_ms`` as the router-side end-to-end time so
        the span durations still tile the measured latency."""
        worker_trace = response.get("trace") or {}
        spans = splice_spans(trace.spans(), "worker", worker_trace.get("spans", ()))
        trace_dict = {
            "request_id": trace.request_id,
            "spans": spans,
            "total_ms": sum(span["ms"] for span in spans),
        }
        self.trace_log.record(trace_dict)
        response["trace"] = trace_dict
        response["latency_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        return response

    def call(self, op: str, body: dict):
        """Serve operation ``op`` (a :data:`repro.serve.ops.OPS` name)
        where its ``fanout`` says; the body is bound here, before any
        shard is touched."""
        kwargs = bind(op, body)
        spec = OPS[op]
        if spec.fanout == "route":
            return self._route(op, kwargs)
        if spec.fanout == "broadcast":
            return self._broadcast(op, kwargs)
        if spec.fanout == "first":
            # Shards converge through broadcast + journal replay, so any
            # shard's view is the fleet's.
            for _, answer in self.probe(op):
                if answer is not None:
                    return answer
            raise WorkerDiedError(f"no worker answered {op!r}")
        return getattr(self, spec.method or op)(**kwargs)

    def _route(self, op: str, payload: dict) -> dict:
        """Send one request to a shard by cache affinity; a batched
        payload lands on a single shard (one wave there) and counts each
        input against the admission budget."""
        start = time.perf_counter()
        payload.setdefault("request_id", new_request_id())
        trace = Trace(payload["request_id"], start=start) if payload.get("debug") else None
        items = payload.get("inputs")
        if items is None:
            weight = 1
            key = tuple(payload.get("token_ids") or payload.get("tokens") or ())
        elif not items:
            raise RequestError("'inputs' must be a non-empty list")
        else:
            weight = len(items)
            first = items[0]
            key = (weight, tuple(first) if isinstance(first, (list, tuple)) else str(first))
        future = self._dispatch(
            op, payload, weight=weight, preferred=self._affinity(payload.get("model"), key)
        )
        if trace is None:
            return self._await(future, self.request_timeout_s)
        trace.mark("admission")
        response = self._await(future, self.request_timeout_s)
        trace.mark("worker")
        return self._stitch(trace, response, start)

    # ------------------------------------------------------------------
    # Fleet broadcast and probes (control plane: weight 0)
    # ------------------------------------------------------------------
    def _admin_one(self, handle: _WorkerHandle, op: str, payload: dict):
        """Apply one broadcast op on one shard."""
        future = handle.try_dispatch(op, payload, weight=0)
        if future is None:
            raise WorkerDiedError(
                f"worker {handle.worker_id} is not accepting control messages"
            )
        return self._await(future, self.admin_timeout_s, f"{op!r} on worker {handle.worker_id}")

    def _broadcast(self, op: str, payload: dict) -> dict:
        """Broadcast one op: shard 0 validates, then the rest apply (see
        the module docstring).  A straggler failure after shard 0
        succeeded reports 500 with the partial state named, so the
        operator can re-issue or drop the shard.  A deploy without a
        ``version`` lets each shard mint the next numeric one —
        deterministic given the identical history the journal keeps."""
        with self._lock:
            if self._closed:
                raise RequestError("server shutting down", status=503)
            handles = list(self._handles)
        result = self._admin_one(handles[0], op, payload)
        with self._lock:
            self._admin_journal.append((op, dict(payload)))
        failures = []
        for handle in handles[1:]:
            try:
                self._admin_one(handle, op, payload)
            except RequestError as exc:
                failures.append(f"worker {handle.worker_id}: {exc}")
        if failures:
            raise RequestError(
                f"{op!r} applied on worker {handles[0].worker_id} but failed on: "
                + "; ".join(failures),
                status=500,
            )
        self._m_admin.inc(op=op)
        if isinstance(result, dict):
            result = dict(result)
            result["workers"] = len(handles)
        return result

    def probe(self, op: str, worker_timeout_s: float = 5.0) -> list:
        """Ask every shard for a read-only op, bypassing admission so an
        overloaded tier still answers its own diagnosis (the unmerged
        per-shard view, for consistency checks).

        Returns ``[(handle, answer), ...]`` in worker order; a shard that
        is down, shutting down, or silent past ``worker_timeout_s``
        answers ``None``.
        """
        probes = [(h, h.try_dispatch(op, {}, weight=0)) for h in self._snapshot_handles()]
        answers = []
        for handle, future in probes:
            try:
                answer = None if future is None else future.result(timeout=worker_timeout_s)
            except (RequestError, FutureTimeoutError):
                answer = None
            answers.append((handle, answer))
        return answers

    # ------------------------------------------------------------------
    # Router-local ops
    # ------------------------------------------------------------------
    def describe_models(self) -> list[dict]:
        """``GET /v1/models`` rows (identical artifacts on every shard)."""
        for handle in self._snapshot_handles():
            if handle.models:
                return handle.models
        return []

    def health(self) -> dict:
        """``GET /healthz``: degraded (not dead) while a shard respawns."""
        handles = self._snapshot_handles()
        alive = sum(1 for h in handles if h.alive)
        return {
            "status": "ok" if alive == len(handles) else "degraded",
            "models": sorted({row["name"] for h in handles for row in h.models}),
            "workers": len(handles),
            "alive_workers": alive,
            "uptime_s": round(time.time() - self.started_at, 1),
        }

    def stats(self, worker_timeout_s: float = 5.0) -> dict:
        """Aggregated ``GET /statz``: router counters + per-shard stats.

        Shard service stats (cache / scheduler / latency) come from a
        :meth:`probe`; a shard that cannot answer within
        ``worker_timeout_s`` reports ``None``.
        """
        with self._lock:
            handles = list(self._handles)
            closed = self._closed
        router = {
            "workers": len(handles),
            "max_inflight_per_worker": self.max_inflight_per_worker,
            "routed": int(self._m_routed.value()),
            "routed_items": int(self._m_routed_items.value()),
            "rejected_overload": int(self._m_rejected.value()),
            "worker_deaths": int(self._m_worker_deaths.value()),
            "respawns": int(self._m_respawns.value()),
            "closed": closed,
        }
        router["alive_workers"] = sum(1 for h in handles if h.alive)
        router["inflight"] = sum(h.inflight for h in handles)
        router["queued"] = sum(max(h.queued(), 0) for h in handles)
        workers = []
        cache_totals = {"hits": 0, "misses": 0, "evictions": 0, "size": 0}
        sched_totals = {"requests": 0, "waves": 0, "batches": 0, "batched_items": 0}
        for handle, service_stats in self.probe("stats", worker_timeout_s):
            row = handle.stats()
            row["queued"] = handle.queued()
            row["service"] = service_stats
            if service_stats:
                for k in cache_totals:
                    cache_totals[k] += service_stats.get("cache", {}).get(k, 0)
                for k in sched_totals:
                    sched_totals[k] += service_stats.get("scheduler", {}).get(k, 0)
            workers.append(row)
        hits, misses = cache_totals["hits"], cache_totals["misses"]
        total = hits + misses
        cache_totals["hit_rate"] = round(hits / total, 4) if total else 0.0
        return {
            "uptime_s": round(time.time() - self.started_at, 1),
            "router": router,
            "workers": workers,
            "cache": cache_totals,
            "scheduler": sched_totals,
        }

    def metrics_snapshot(self, worker_timeout_s: float = 5.0) -> dict:
        """Fleet-wide metric snapshot for ``GET /metrics``.

        Probes every shard for its ``metrics`` op (see :meth:`probe`)
        and merges the per-worker registry snapshots bucket-wise into
        the router's own — counters sum, gauges sum or max by declared
        mode, histograms add per-bucket counts.  A shard that cannot answer within
        ``worker_timeout_s`` is simply missing from the merge.
        """
        snapshots = [self.metrics.snapshot()]
        snapshots += [
            snapshot
            for _, snapshot in self.probe("metrics", worker_timeout_s)
            if snapshot is not None
        ]
        return merge_snapshots(snapshots)

    # ------------------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Drain every shard and join its process/collector (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        for handle in handles:
            handle.begin_shutdown()
        for handle in handles:
            handle.reap(timeout)
        for handle in handles:
            if handle.collector is not None:
                handle.collector.join(timeout=5.0)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
