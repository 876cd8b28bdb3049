"""The benchmark's metric names and units, shared by every workload.

Every run prints every end-to-end metric (untraced) or every per-layer
metric (traced).  A per-layer metric of a layer the workload bypasses is
reported as 0: that is the design's prediction for it on that workload.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "latency_ms.p50": "ms",
    "throughput_per_s": "1/s",
}

#: Fused-kernel families reported one by one; the rest sum into "other".
KERNEL_FAMILIES = ("gru_sequence", "embedding_gather", "softmax_xent", "log_softmax", "binary_concrete")

#: Serve stage spans, as the program's ``debug=true`` timelines name them.
SERVE_STAGES = ("admission", "transport", "validate", "cache_lookup", "queue_wait",
                "batch_formation", "inference", "resolve_wait", "serialization")

PER_LAYER = {
    "data.batches_ms": "ms",
    "data.pad_efficiency": "ratio",
    "core.pretrain_s": "s",
    "core.generator.fwd_ms": "ms",
    "core.predictor.fwd_ms": "ms",
    "core.predictor_t.fwd_ms": "ms",
    "core.loss_ms": "ms",
    "core.inference.eval_ms": "ms",
    "autograd.backward_ms": "ms",
    "autograd.nodes_per_step": "count",
    "optim.step_ms": "ms",
    "optim.clip_ms": "ms",
    **{f"backend.{family}.{kind}": unit
       for family in (*KERNEL_FAMILIES, "other")
       for kind, unit in (("calls", "count"), ("ms", "ms"))},
    "backend.pool.hit_ratio": "ratio",
    "executor.unit_s.p50": "s",
    "executor.unit_s.max": "s",
    "executor.unit_wait_s": "s",
    "executor.busy_frac": "ratio",
    "executor.contention": "ratio",
    "store.land_ms": "ms",
    "http.edge_ms": "ms",
    **{f"serve.stage.{stage}_ms": "ms" for stage in SERVE_STAGES},
    "serve.cache.hit_ratio": "ratio",
    "serve.stream.repeat_frac": "ratio",
    "serve.scheduler.batch_size.mean": "count",
    "serve.batch_exec_ms.p50": "ms",
    "serve.router.rejected": "count",
    "serve.router.worker_deaths": "count",
    "serve.shard_balance": "ratio",
    "gen.late_ms.p99": "ms",
    "trace.overhead": "ratio",
    "trace.unattributed_frac": "ratio",
}


def kernel_family(kernel: str) -> str:
    """``gru_sequence_forward`` -> ``gru_sequence``; unlisted kernels -> ``other``."""
    for family in KERNEL_FAMILIES:
        if kernel.startswith(family + "_"):
            return family
    return "other"


def kernel_metrics(per_kernel: dict[str, tuple[float, float]], per: float) -> dict:
    """``backend.<family>.calls|ms`` from ``{kernel: (calls, ms)}``, divided by ``per``."""
    out = {f"backend.{f}.{k}": 0.0 for f in (*KERNEL_FAMILIES, "other") for k in ("calls", "ms")}
    for kernel, (calls, ms) in per_kernel.items():
        family = kernel_family(kernel)
        out[f"backend.{family}.calls"] += calls / per
        out[f"backend.{family}.ms"] += ms / per
    return out


def kernel_delta(before: dict, after: dict) -> dict[str, tuple[float, float]]:
    """Per-kernel ``(calls, ms)`` between two ``kernel_timings()`` snapshots."""
    delta = {}
    for name, entry in after.items():
        old = before.get(name, {"calls": 0, "total_ms": 0.0})
        calls = entry["calls"] - old["calls"]
        if calls:
            delta[name] = (float(calls), entry["total_ms"] - old["total_ms"])
    return delta


def complete(values: dict, names: dict) -> dict:
    """Every name in ``names``, zero where the workload bypassed the layer."""
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"metrics not in the benchmark's list: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in names}
