"""Shared plumbing of the benchmark: options, statistics, memory, fingerprint.

Nothing here imports the program under test at module import time, so the
runner can report a missing program as a plain import failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

#: Root of the checkout (the parent of this benchmark's directory).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave their reports and span files (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


@dataclasses.dataclass(frozen=True)
class Options:
    """One invocation: which workload, which seed, how long, traced or not."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str = "full"  # "tiny" shrinks every input (self-test only)
    corrupt: bool = False  # flip one output bit before checking (self-test only)

    @property
    def tiny(self) -> bool:
        return self.size == "tiny"

    def deadline(self) -> float:
        """``perf_counter`` value at which the measured window closes."""
        return time.perf_counter() + self.seconds


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


class CheckFailed(Exception):
    """A program output disagreed with its reference."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if pos == lo or ordered[hi] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(label, value)``; a sample too small for even the median to
    have ten samples above it reports its maximum, labelled ``"max"``.
    """
    n = len(values)
    best = None
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    if best is None:
        return "max", max(values)
    return f"p{best:g}", percentile(values, best)


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles, tail and count of a sample (for the report)."""
    label, value = tail(values)
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "p25": percentile(values, 25.0),
        "p75": percentile(values, 75.0),
        "tail": value,
        "tail_at": label,
        "max": max(values),
    }


def median_setup(build: Callable[[], object], teardown: Callable[[object], None], reps: int):
    """Run ``build`` ``reps`` times; keep the last result, tear the rest down.

    Returns ``(result, median_seconds, all_seconds)``.
    """
    times = []
    result = None
    for rep in range(reps):
        if result is not None:
            teardown(result)
        started = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - started)
    return result, statistics.median(times), times


# ----------------------------------------------------------------------
# Memory: peak RSS of this process plus every descendant
# ----------------------------------------------------------------------
def _status_kib(pid: int, field: str, name: str = "status") -> int:
    try:
        with open(f"/proc/{pid}/{name}") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def _rollup_kib(pid: int, field: str) -> int:
    return _status_kib(pid, field, name="smaps_rollup")


def _children(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(p) for p in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return found


class PeakRSS:
    """Samples the memory of this process plus every live descendant.

    Each sample sums the proportional set size (``Pss``: pages shared
    between a forked child and its parent count once in total) of the
    whole process tree; the peak is the largest sample, and never less
    than this process's own high-water RSS.
    """

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self._peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-rss", daemon=True)

    def _sample(self) -> None:
        pids = [os.getpid()]
        total = 0
        while pids:
            pid = pids.pop()
            total += _rollup_kib(pid, "Pss")
            pids.extend(_children(pid))
        self._peak_kib = max(self._peak_kib, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def mib(self) -> float:
        self._sample()
        return max(self._peak_kib, _status_kib(os.getpid(), "VmHWM")) / 1024.0


def cpu_ticks() -> list[int]:
    """System-wide CPU tick counters from /proc/stat (user ... steal)."""
    with open("/proc/stat") as handle:
        return [int(v) for v in handle.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU ticks between two readings the hypervisor stole."""
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7] / sum(deltas) if sum(deltas) else 0.0


# ----------------------------------------------------------------------
# Environment fingerprint (read, never set)
# ----------------------------------------------------------------------
def blas_threads() -> Optional[int]:
    """OpenBLAS thread count of numpy's bundled library, read via ctypes."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over the program's source files (identifies a non-git checkout)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    """What produced a result: cores, BLAS threads, versions, source identity."""
    import numpy

    return {
        "nproc": nproc(),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def write_report(opts: Options, report: dict) -> Path:
    """Write the run's full report (fingerprint, phases, spans summary)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = "trace" if opts.trace else "run"
    path = OUT_DIR / f"{opts.workload}-{tag}-seed{opts.seed}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")
    return path


def emit(result: dict) -> None:
    """Print the one-line result the runner's contract ends with."""
    sys.stdout.write(json.dumps(result, separators=(", ", ": ")) + "\n")
    sys.stdout.flush()
