"""Shard worker process: one :class:`RationalizationService` per core.

The sharded serving tier (see :mod:`repro.serve.router`) splits the
stack at the service boundary: the **router process** owns the HTTP
listener and admission control, and each **worker process** spawned by
:func:`spawn_worker` hosts a full, independent serving core — artifact
registry, micro-batching scheduler thread, LRU rationale cache and
pooled no-grad :class:`repro.core.InferenceSession`.  Process isolation
is what finally buys multi-core throughput: the GIL serializes every
forward pass inside one interpreter, so N schedulers in N processes are
the only way to keep N cores busy.

Transport is a pair of ``multiprocessing`` queues per worker carrying
plain picklable tuples::

    router -> worker   (kind, request_id, payload)
        kind ∈ repro.serve.ops.OPS names ∪ {"shutdown"}
    worker -> router   (kind, request_id_or_worker_id, payload)
        kind ∈ {"ready", "result", "error", "fatal", "exit"}

The worker is generic over the op table: it answers any op with
``service.call(kind, payload)``, whichever way the router fans it out
(see :data:`repro.serve.ops.OPS`).  A ``diff_log`` field gets a
per-worker suffix (``log.w3.jsonl``) so the sharded tier never
interleaves JSONL writes from different processes — ``deploy-diff``
accepts a glob.

Inside the worker, requests fan out to a small thread pool (sized to the
router's per-worker admission budget) so concurrent requests block on
scheduler futures together and the micro-batcher still coalesces waves
exactly as in the single-process tier.  On ``"shutdown"`` the worker
stops reading, lets every in-flight request finish (the drain), closes
the scheduler, reports ``"exit"`` and leaves — it never abandons an
accepted request.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.serve.ops import RequestError

#: The drain sentinel; every other request kind is an op name.
MSG_SHUTDOWN = "shutdown"

#: Response kinds the router's collector threads understand.
MSG_READY = "ready"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_FATAL = "fatal"
MSG_EXIT = "exit"


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to rebuild its serving core.

    Picklable by construction (checkpoint *paths*, not loaded models), so
    the same config works under every ``multiprocessing`` start method —
    ``fork`` for cheap spawns on Linux, ``spawn`` where fork is unsafe.
    """

    worker_id: int
    #: ``(name, path)`` pairs of serving artifacts to load.
    checkpoints: tuple = ()
    dtype: Optional[str] = "float32"
    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    bucket_width: int = 16
    cache_size: int = 1024
    fused: bool = True
    #: Thread-pool width: matches the router's per-worker admission
    #: budget so every admitted request has a thread to block on.
    max_inflight: int = 32
    #: Warm-up request-log ring capacity (0 disables; see
    #: repro.serve.lifecycle.RequestLog).
    request_log_size: int = 0


def _build_service(config: WorkerConfig):
    """Load the artifacts and assemble this shard's serving core."""
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import RationalizationService

    registry = ModelRegistry(dtype=config.dtype)
    for name, path in config.checkpoints:
        registry.register_file(path, name=name)
    if not len(registry):
        raise ValueError("worker has no checkpoints to serve")
    return RationalizationService(
        registry,
        max_batch_size=config.max_batch_size,
        max_wait_ms=config.max_wait_ms,
        bucket_width=config.bucket_width,
        cache_size=config.cache_size,
        fused=config.fused,
        request_log_size=config.request_log_size,
    )


def worker_diff_log(path: str, worker_id: int) -> str:
    """Per-worker shadow diff-log path: ``log.jsonl`` -> ``log.w3.jsonl``.

    Every shard appends to its own file so concurrent processes never
    interleave JSONL records; ``deploy-diff`` reads the whole set with a
    ``log.w*.jsonl`` glob.
    """
    p = Path(path)
    return str(p.with_name(f"{p.stem}.w{worker_id}{p.suffix or '.jsonl'}"))


def worker_main(config: WorkerConfig, request_q, response_q) -> None:
    """Worker process entry point: serve requests until ``"shutdown"``.

    Top-level (picklable) so it runs under any start method.  Every
    failure is marshalled back as a message — the process itself only
    exits via the shutdown drain or a fatal load error.
    """
    # A foreground Ctrl-C signals the whole process group; shutdown is
    # the router's job (the "shutdown" sentinel drives the drain), so
    # the worker must not die mid-drain on the terminal's SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        service = _build_service(config)
    except Exception as exc:  # load failure: report and bail out
        response_q.put((MSG_FATAL, config.worker_id, {"error": str(exc)}))
        return
    pool = ThreadPoolExecutor(
        max_workers=max(2, config.max_inflight),
        thread_name_prefix=f"repro-shard-{config.worker_id}",
    )

    def respond(request_id: int, op: str, payload: dict) -> None:
        try:
            if payload.get("diff_log"):
                # Each shard appends to its own suffixed log: concurrent
                # processes must never interleave writes in one JSONL file.
                diff_log = worker_diff_log(payload["diff_log"], config.worker_id)
                payload = {**payload, "diff_log": diff_log}
            response_q.put((MSG_RESULT, request_id, service.call(op, payload)))
        except RequestError as exc:
            body = {"error": str(exc), "status": exc.status}
            if exc.detail:
                body["detail"] = exc.detail
            response_q.put((MSG_ERROR, request_id, body))
        except Exception as exc:  # never let one request kill the shard
            response_q.put((MSG_ERROR, request_id, {"error": str(exc), "status": 500}))

    response_q.put((
        MSG_READY,
        config.worker_id,
        {"pid": os.getpid(), "models": service.describe_models()},
    ))
    try:
        while True:
            kind, request_id, payload = request_q.get()
            if kind == MSG_SHUTDOWN:
                break
            pool.submit(respond, request_id, kind, payload)
    finally:
        # The drain: finish every accepted request, then stop the
        # scheduler (which itself drains its queue before joining).
        pool.shutdown(wait=True)
        service.close()
        response_q.put((MSG_EXIT, config.worker_id, {}))


def spawn_worker(config: WorkerConfig, context: Optional[str] = None):
    """Start one worker process; returns ``(process, request_q, response_q)``.

    ``context`` selects the ``multiprocessing`` start method (``None`` =
    platform default: ``fork`` on Linux).  The process is a daemon so a
    crashed router can never leave orphaned shards behind.
    """
    ctx = mp.get_context(context)
    request_q = ctx.Queue()
    response_q = ctx.Queue()
    process = ctx.Process(
        target=worker_main,
        args=(config, request_q, response_q),
        name=f"repro-serve-worker-{config.worker_id}",
        daemon=True,
    )
    process.start()
    return process, request_q, response_q
