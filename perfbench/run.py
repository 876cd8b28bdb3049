"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The full report (environment fingerprint, samples, phases) and, for traced
runs, the span file land in ``perfbench/out/``.  The program is imported
from ``src/`` of the checkout; without it the run fails with a non-zero
exit code and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    OUT_DIR, ROOT, CheckFailed, Options, PeakRSS, cpu_ticks, emit, fingerprint, metric, steal_share,
    write_report,
)
from layers import END_TO_END, PER_LAYER, complete  # noqa: E402

WORKLOADS = {"fit": "wl_fit", "catalog": "wl_catalog", "serve": "wl_serve"}


def parse_args(argv=None) -> Options:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (for the self-test)")
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                        help="flip one program output before checking it (for the self-test)")
    args = parser.parse_args(argv)
    return Options(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=bool(args.trace), size=args.size, corrupt=bool(args.corrupt))


def main(argv=None) -> int:
    opts = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    env = fingerprint()
    print(f"perfbench: env {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    workload = importlib.import_module(WORKLOADS[opts.workload])
    ticks = cpu_ticks()
    with PeakRSS() as rss:
        try:
            outcome = workload.run(opts, rss)
        except CheckFailed as exc:
            problem = str(exc)
            outcome = None
    if outcome is None:
        # The outputs were wrong: report that, with no measurements.
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
        write_report(opts, {"env": env, "options": vars(opts), "problem": problem})
        emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        return 0
    names = PER_LAYER if opts.trace else END_TO_END
    values = complete(outcome["metrics"], names)
    report = {
        "env": env,
        "options": vars(opts),
        "wall_s": time.perf_counter() - started,
        # Time the hypervisor ran something else while this run wanted the
        # CPU: the main source of run-to-run spread on a shared host.
        "cpu_steal_frac": steal_share(ticks, cpu_ticks()),
        "metrics": values,
        **outcome["report"],
    }
    if outcome.get("spans"):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"{opts.workload}-spans-seed{opts.seed}.jsonl"
        spans_path.write_text("".join(json.dumps(row) + "\n" for row in outcome["spans"]))
    path = write_report(opts, report)
    print(f"perfbench: report in {path.relative_to(ROOT)}", file=sys.stderr)
    emit({
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: metric(value, names[name]) for name, value in values.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
