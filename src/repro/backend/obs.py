"""Bridge backend telemetry (kernel timings, buffer pool) into ``repro.obs``.

The backend keeps its own process-wide counters — per-kernel wall time
under ``_TIMING_LOCK`` and the per-thread :class:`BufferPool` ledger —
because they predate the metrics layer and are updated on hot paths
where an instrument call per kernel dispatch would be measurable
overhead.  Instead of duplicating the bookkeeping, these *collectors*
translate the existing snapshots into metric families at scrape time:

- ``repro_kernel_calls_total{kernel}`` / ``repro_kernel_seconds_total{kernel}``
  from :func:`repro.backend.kernel_timings`;
- ``repro_pool_*_total`` counters plus ``repro_pool_retained_buffers`` /
  ``repro_pool_retained_bytes`` / ``repro_pool_threads`` gauges from
  :func:`repro.backend.pool.pool_stats`.

:func:`attach_backend_collectors` wires both into a
:class:`~repro.obs.metrics.MetricsRegistry` together with their reset
hooks, so ``registry.reset()`` zeroes kernel timings and the pool ledger
in the same sweep as the serving-layer instruments.
"""

from __future__ import annotations

from repro.backend.core import kernel_timings, reset_kernel_timings
from repro.backend.pool import pool_stats, reset_pool_stats
from repro.obs.metrics import MetricsRegistry, counter_family, gauge_family


def kernel_collector() -> list:
    """Metric families for the per-kernel timing table."""
    timings = kernel_timings()
    calls = {name: entry["calls"] for name, entry in timings.items()}
    seconds = {name: entry["total_ms"] / 1000.0 for name, entry in timings.items()}
    return [
        counter_family(
            "repro_kernel_calls_total",
            "Backend kernel dispatch count (kernel timing enabled paths).",
            ("kernel",),
            calls,
        ),
        counter_family(
            "repro_kernel_seconds_total",
            "Accumulated wall time per backend kernel.",
            ("kernel",),
            seconds,
        ),
    ]


def pool_collector() -> list:
    """Metric families for the aggregated buffer-pool ledger."""
    stats = pool_stats()
    return [
        counter_family(
            "repro_pool_hits_total", "Buffer-pool acquire hits.", (), {(): stats["hits"]}
        ),
        counter_family(
            "repro_pool_misses_total", "Buffer-pool acquire misses.", (), {(): stats["misses"]}
        ),
        counter_family(
            "repro_pool_released_total", "Buffers released back to the pool.", (),
            {(): stats["released"]},
        ),
        counter_family(
            "repro_pool_dropped_total", "Releases dropped (over byte budget).", (),
            {(): stats["dropped"]},
        ),
        counter_family(
            "repro_pool_evicted_total", "LRU evictions at the pool ceiling.", (),
            {(): stats["evicted"]},
        ),
        gauge_family(
            "repro_pool_retained_buffers", "Free buffers currently retained.", (),
            {(): stats["retained"]},
        ),
        gauge_family(
            "repro_pool_retained_bytes", "Bytes currently retained by free buffers.", (),
            {(): stats["retained_bytes"]},
        ),
        gauge_family(
            "repro_pool_threads", "Live per-thread pools.", (), {(): stats["pools"]}
        ),
    ]


def attach_backend_collectors(registry: MetricsRegistry) -> MetricsRegistry:
    """Attach kernel + pool collectors (with resets) to ``registry``."""
    registry.register_collector(kernel_collector, reset=reset_kernel_timings)
    registry.register_collector(pool_collector, reset=reset_pool_stats)
    return registry
