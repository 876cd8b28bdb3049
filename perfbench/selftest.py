"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it checks that an untraced run prints every end-to-end
metric of ``BENCHMARK.json`` and a traced run every per-layer metric, each
with its unit; that a run whose program output was corrupted (one flipped
mask bit, one moved F1) reports ``correct: false``; and that the runner
exits non-zero, printing no result, in a directory that holds only the
benchmark and not the program.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 600


def run(workload: str, trace: int, corrupt: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
               "--corrupt", str(corrupt)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result: dict, declared: list) -> None:
    if not result["correct"]:
        raise AssertionError("a clean run reported correct: false")
    if result["attempted"] < 1 or result["failed"] != 0:
        raise AssertionError(f"attempted {result['attempted']}, failed {result['failed']}")
    names = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(names):
        raise AssertionError(f"metrics {sorted(result['metrics'])} != declared {sorted(names)}")
    for name, entry in result["metrics"].items():
        if entry["unit"] != names[name] or not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{name}: {entry}")


def check_without_program() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(SPEC["workloads"][0]["name"], trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError(f"without the program: exit {done.returncode}, stdout {done.stdout!r}")


def main() -> int:
    checks = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        checks.append((f"{workload}: end-to-end metrics",
                       lambda w=workload: check_metrics(result_of(run(w, 0)), SPEC["end_to_end"])))
        checks.append((f"{workload}: per-layer metrics",
                       lambda w=workload: check_metrics(result_of(run(w, 1)), SPEC["per_layer"])))

        def corrupted(w=workload):
            if result_of(run(w, 0, corrupt=1))["correct"]:
                raise AssertionError("a corrupted output passed the check")

        checks.append((f"{workload}: corrupted output fails the check", corrupted))
    checks.append(("no program: non-zero exit, no result", check_without_program))
    failures = 0
    for name, check in checks:
        try:
            check()
        except (AssertionError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
