"""The array layer: one numpy kernel table, dtype policy, fused kernels.

Public surface:

- Kernel table — :func:`get_backend` returns the one :class:`Backend`,
  which holds every fused numpy kernel under its name (listed in
  :mod:`repro.backend.kernels`); callers fetch kernels by name.
- dtype policy — :func:`set_default_dtype` / :func:`get_default_dtype` /
  :func:`default_dtype` (context manager).  ``float64`` (default) is the
  gradcheck/reference configuration; ``float32`` is the training /
  benchmarking fast path.
- Fusion switch — :func:`set_fusion` / :func:`fusion_enabled` /
  :func:`fusion` (context manager) routes
  :mod:`repro.autograd.functional` through the fused kernels.
- Per-kernel timing — :func:`kernel_timing` / :func:`set_kernel_timing` /
  :func:`kernel_timings` / :func:`reset_kernel_timings` account wall time
  per dispatched kernel (the bench breakdown and ``GET /statz``).
- Buffer pool — :class:`BufferPool`, :func:`get_pool`, :func:`pool_stats`,
  :func:`reset_pool_stats` (per-thread array recycling for the tape
  backward and padded-batch buffers).
- Fused autograd ops (loaded lazily to avoid import cycles with
  :mod:`repro.autograd`): :func:`fused_lstm_sequence`, :func:`fused_softmax`,
  :func:`fused_log_softmax`, :func:`fused_softmax_cross_entropy`,
  :func:`fused_gumbel_softmax`, :func:`fused_binary_concrete`,
  :func:`fused_attention`, :func:`fused_embedding_gather`,
  :func:`fused_dropout`.
"""

from repro.backend.core import (
    Backend,
    canonical_dtype,
    default_dtype,
    fusion,
    fusion_enabled,
    get_backend,
    get_default_dtype,
    kernel_timing,
    kernel_timing_enabled,
    kernel_timings,
    reset_kernel_timings,
    set_default_dtype,
    set_fusion,
    set_kernel_timing,
)
from repro.backend.pool import BufferPool, get_pool, pool_stats, reset_pool_stats
from repro.backend import kernels  # noqa: F401  (fills the kernel table)

_OPS_EXPORTS = (
    "fused_lstm_sequence",
    "fused_softmax",
    "fused_log_softmax",
    "fused_softmax_cross_entropy",
    "fused_gumbel_softmax",
    "fused_binary_concrete",
    "fused_attention",
    "fused_embedding_gather",
    "fused_dropout",
)

__all__ = [
    "Backend",
    "BufferPool",
    "canonical_dtype",
    "default_dtype",
    "fusion",
    "fusion_enabled",
    "get_backend",
    "get_default_dtype",
    "get_pool",
    "kernel_timing",
    "kernel_timing_enabled",
    "kernel_timings",
    "pool_stats",
    "reset_kernel_timings",
    "reset_pool_stats",
    "set_default_dtype",
    "set_fusion",
    "set_kernel_timing",
    *_OPS_EXPORTS,
]


def __getattr__(name: str):
    # The fused ops import repro.autograd, which imports this package for
    # the dtype policy — resolve them lazily to keep the import acyclic.
    if name in _OPS_EXPORTS:
        from repro.backend import ops

        return getattr(ops, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
