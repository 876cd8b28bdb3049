"""The numpy kernel table and the dtype/fusion policy.

This module is the single choke point for "how array math is executed":

- One :class:`Backend` (:func:`get_backend`) holds the table of *fused
  kernels* — hand-written numpy forward/backward pairs that collapse
  several elementary autodiff nodes into one (see
  :mod:`repro.backend.kernels`).  Callers fetch kernels by name.
- A **dtype policy**: every float tensor created while the policy is
  ``float64`` (the default) behaves exactly like the seed implementation,
  which keeps finite-difference gradient checks meaningful; switching to
  ``float32`` (:func:`set_default_dtype`) halves memory traffic for
  training and benchmarking.  The dtype and fusion policies are
  *per-thread* (fresh threads start at the defaults), so a serving
  worker's fast-path settings never leak into a training loop running
  concurrently on another thread.
- A **fusion switch**: :func:`set_fusion` / :func:`fusion` routes the
  thin wrappers in :mod:`repro.autograd.functional` to the fused kernels.
  It defaults to off so the composed reference ops define the numerics;
  ``float32`` + fusion is opt-in via
  :class:`repro.core.trainer.TrainConfig` or the experiments CLI (bucketed
  batching — which changes batch composition, never math — defaults on).
- **Per-kernel timing**: :func:`kernel_timing` wraps kernel dispatch with
  wall-clock accounting (:func:`kernel_timings`) for the bench breakdown
  and serving's ``GET /statz``; off by default with zero overhead.

Nothing in this module imports the autograd layer, so it can be imported
from anywhere in the package without cycles.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterator, Optional

import numpy as np

# ----------------------------------------------------------------------
# dtype policy
# ----------------------------------------------------------------------
_DTYPE_ALIASES = {
    "float32": np.float32,
    "float64": np.float64,
    "fp32": np.float32,
    "fp64": np.float64,
    "single": np.float32,
    "double": np.float64,
}


def canonical_dtype(dtype) -> np.dtype:
    """Normalize a dtype spec (string alias, np type, np.dtype) to a float np.dtype."""
    if isinstance(dtype, str):
        key = dtype.lower()
        if key not in _DTYPE_ALIASES:
            raise ValueError(f"unknown dtype alias {dtype!r}; use one of {sorted(_DTYPE_ALIASES)}")
        dtype = _DTYPE_ALIASES[key]
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ValueError(f"default dtype must be a float type, got {resolved}")
    return resolved


# The dtype/fusion policy is *per-thread* (with process-wide defaults):
# a serving worker toggling fusion for its batches must never perturb a
# training loop running concurrently on another thread.  Fresh threads
# start at the defaults below.
_POLICY_DEFAULT_DTYPE: np.dtype = np.dtype(np.float64)
_POLICY_DEFAULT_FUSION: bool = False
_policy = threading.local()


def get_default_dtype() -> np.dtype:
    """The dtype float tensors are created with (``float64`` unless changed)."""
    return getattr(_policy, "dtype", _POLICY_DEFAULT_DTYPE)


def set_default_dtype(dtype) -> np.dtype:
    """Set the calling thread's float dtype policy; returns the previous dtype."""
    previous = get_default_dtype()
    _policy.dtype = canonical_dtype(dtype)
    return previous


@contextlib.contextmanager
def default_dtype(dtype) -> Iterator[np.dtype]:
    """Context manager scoping :func:`set_default_dtype` to a block."""
    previous = set_default_dtype(dtype)
    try:
        yield get_default_dtype()
    finally:
        set_default_dtype(previous)


def fusion_enabled() -> bool:
    """Whether functional ops dispatch to the backend's fused kernels."""
    return getattr(_policy, "fusion", _POLICY_DEFAULT_FUSION)


def set_fusion(enabled: bool) -> bool:
    """Toggle fused-kernel dispatch for the calling thread; returns the
    previous setting."""
    previous = fusion_enabled()
    _policy.fusion = bool(enabled)
    return previous


@contextlib.contextmanager
def fusion(enabled: bool = True) -> Iterator[bool]:
    """Context manager scoping :func:`set_fusion` to a block."""
    previous = set_fusion(enabled)
    try:
        yield fusion_enabled()
    finally:
        set_fusion(previous)


# ----------------------------------------------------------------------
# Per-kernel timing
# ----------------------------------------------------------------------
# Opt-in wall-clock accounting of every fused-kernel dispatch: the *enable*
# flag is per-thread (like the dtype/fusion policy — a profiled serving
# worker never slows a concurrent trainer down), while the accumulated
# counters are process-wide behind a lock so `GET /statz` and the bench
# breakdown can read another thread's numbers.  Off by default: `kernel()`
# returns the raw callable with zero added overhead.
_TIMING_LOCK = threading.Lock()
_KERNEL_TIMINGS: dict[str, list] = {}  # name -> [calls, total_seconds]


def kernel_timing_enabled() -> bool:
    """Whether kernel dispatch on this thread records per-kernel wall time."""
    return getattr(_policy, "kernel_timing", False)


def set_kernel_timing(enabled: bool) -> bool:
    """Toggle per-kernel timing for the calling thread; returns the previous
    setting.  Kernels fetched while enabled stay instrumented for their
    lifetime (backward closures capture the instrumented callable)."""
    previous = kernel_timing_enabled()
    _policy.kernel_timing = bool(enabled)
    return previous


@contextlib.contextmanager
def kernel_timing(enabled: bool = True) -> Iterator[bool]:
    """Context manager scoping :func:`set_kernel_timing` to a block."""
    previous = set_kernel_timing(enabled)
    try:
        yield kernel_timing_enabled()
    finally:
        set_kernel_timing(previous)


def kernel_timings() -> dict[str, dict]:
    """Snapshot of accumulated per-kernel counters, busiest kernel first."""
    with _TIMING_LOCK:
        items = [(name, entry[0], entry[1]) for name, entry in _KERNEL_TIMINGS.items()]
    items.sort(key=lambda item: item[2], reverse=True)
    return {
        name: {"calls": calls, "total_ms": round(total * 1000.0, 3)}
        for name, calls, total in items
    }


def reset_kernel_timings() -> None:
    """Zero the per-kernel counters (start of a bench phase)."""
    with _TIMING_LOCK:
        _KERNEL_TIMINGS.clear()


def _record_kernel_time(name: str, elapsed: float) -> None:
    with _TIMING_LOCK:
        entry = _KERNEL_TIMINGS.get(name)
        if entry is None:
            _KERNEL_TIMINGS[name] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed


# ----------------------------------------------------------------------
# The kernel table
# ----------------------------------------------------------------------
class Backend:
    """The numpy kernel table: named fused kernels for the host CPU.

    Kernels register under their names with :meth:`register_kernel` (see
    :mod:`repro.backend.kernels`); consumers fetch them by name via
    :meth:`kernel`, the one dispatch point per-kernel timing wraps.
    """

    def __init__(self) -> None:
        self._kernels: dict[str, Callable] = {}

    def register_kernel(self, name: str, fn: Callable) -> Callable:
        """Register ``fn`` under ``name``."""
        self._kernels[name] = fn
        return fn

    def kernel(self, name: str) -> Callable:
        """Fetch a registered kernel; raises ``KeyError`` with the roster.

        With :func:`kernel_timing` enabled on the calling thread, the
        returned callable is wrapped to account its wall time under
        ``name`` (see :func:`kernel_timings`).
        """
        try:
            fn = self._kernels[name]
        except KeyError:
            raise KeyError(
                f"no kernel {name!r}; registered: {sorted(self._kernels)}"
            ) from None
        if not kernel_timing_enabled():
            return fn

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _record_kernel_time(name, time.perf_counter() - start)

        return timed

    def has_kernel(self, name: str) -> bool:
        """Whether a kernel is registered under ``name``."""
        return name in self._kernels

    def kernels(self) -> tuple[str, ...]:
        """Names of all registered kernels."""
        return tuple(sorted(self._kernels))


_BACKEND = Backend()


def get_backend() -> Backend:
    """The process's one kernel table."""
    return _BACKEND
