"""repro.serve — stand a trained rationalizer up behind an HTTP JSON API.

The subsystem behind the ROADMAP's "serve heavy traffic" north star, in
layers (bottom-up):

- :mod:`~repro.serve.registry` — the **model artifact registry**:
  discovers ``.npz`` checkpoints written by :func:`save_artifact`,
  rebuilds any RNP-family model from its embedded config, and pins it to
  a float dtype.
- :mod:`~repro.serve.scheduler` — the **dynamic micro-batching
  scheduler**: coalesces concurrent single-sentence requests into
  length-bucketed batches (``max_batch_size`` / ``max_wait_ms`` knobs)
  executed by one worker thread.
- :mod:`~repro.serve.cache` — the **LRU rationale cache** keyed on
  (model, version, token ids), with hit/miss stats; rationalization is
  deterministic at serving time, so repeats are free, and versioned keys
  make hot-swap deploys stale-proof.
- :mod:`~repro.serve.lifecycle` + :mod:`~repro.serve.diff` — the
  **versioned model lifecycle**: ``model@version`` addressing with a
  ``staged → canary → live → retired`` state machine on the registry,
  zero-downtime hot-swap deploys (atomic live-pointer flip, in-flight
  wave drain, versioned cache invalidation), canary/shadow routing with
  JSONL rationale diff logs (``python -m repro.experiments
  deploy-diff``), and cache warm-up replayed from an opt-in request
  log.
- :mod:`~repro.serve.ops` — the **operation table** :data:`OPS`: every
  serve operation (rationalize and the lifecycle ops) declared once with
  its route, body fields and fan-out; the HTTP edge, the router, the
  shard workers and :class:`Client` all dispatch from it.
- :mod:`~repro.serve.http` — the **stdlib threaded HTTP JSON API** over
  the ops (plus Prometheus ``GET /metrics`` and ``GET /tracez``), started
  via ``python -m repro.experiments serve``.  Observability itself —
  the metrics registry, Prometheus exposition and request tracing —
  lives in :mod:`repro.obs`; every layer here registers its counters
  and latency histograms there.
- :mod:`~repro.serve.shard` + :mod:`~repro.serve.router` — the
  **sharded multi-process tier** (``--workers N`` / ``make serve
  WORKERS=N``): a front :class:`ShardRouter` hash-affinity/least-loaded
  routes requests to N worker processes (each hosting its own service
  stack above), with bounded-inflight admission control (429 on
  overload), dead-worker respawn, and cross-shard aggregated ``/statz``.

:class:`Client` speaks to either transport (in-process service object or
a socket), and :func:`~repro.serve.bench.run_serve_bench`
(``python -m repro.experiments serve-bench`` / ``make serve-bench``)
records ``BENCH_serve.json`` — micro-batched vs sequential throughput,
p50/p95 latency, and cache hit rate.

Quickstart (see ``examples/serve_quickstart.py`` for the full loop)::

    from repro.serve import ModelRegistry, RationalizationService, RationaleServer, save_artifact

    save_artifact(model, "ckpt/beer_dar.npz", vocab=dataset.vocab)
    registry = ModelRegistry(dtype="float32")
    registry.discover("ckpt")
    server = RationaleServer(RationalizationService(registry), port=8080)
    server.serve_forever()
"""

from repro.serve.cache import RationaleCache, rationale_key
from repro.serve.client import Client, ServeClientError
from repro.serve.diff import diff_report, render_diff_report, shadow_diff_report
from repro.serve.http import RationaleServer
from repro.serve.lifecycle import DeploymentManager, RequestLog, ShadowMirror
from repro.serve.registry import (
    ArtifactCompatibilityError,
    LifecycleError,
    ModelArtifact,
    ModelRegistry,
    build_model,
    export_config,
    model_families,
    parse_model_ref,
    save_artifact,
)
from repro.serve.router import OverloadedError, ShardRouter, WorkerDiedError
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.service import RationalizationService, RequestError
from repro.serve.shard import WorkerConfig

__all__ = [
    "ArtifactCompatibilityError",
    "Client",
    "DeploymentManager",
    "LifecycleError",
    "MicroBatchScheduler",
    "ModelArtifact",
    "ModelRegistry",
    "OverloadedError",
    "RationaleCache",
    "RationaleServer",
    "RationalizationService",
    "RequestError",
    "RequestLog",
    "ServeClientError",
    "ShadowMirror",
    "ShardRouter",
    "WorkerConfig",
    "WorkerDiedError",
    "build_model",
    "diff_report",
    "export_config",
    "model_families",
    "parse_model_ref",
    "rationale_key",
    "render_diff_report",
    "save_artifact",
    "shadow_diff_report",
]
