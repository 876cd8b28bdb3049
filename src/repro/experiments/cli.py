"""Command-line entry point for regenerating paper artifacts.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments --artifact table2
    python -m repro.experiments --artifact fig6 --epochs 15 --n-train 800
    python -m repro.experiments --artifact table2 --dtype float32 --fused
    python -m repro.experiments --artifact table2 --no-bucketing  # seed batching
    python -m repro.experiments --spec my_scenario.json
    python -m repro.experiments --artifact table2 --jobs 4 --results-dir results
    python -m repro.experiments --all --jobs 4 --seeds 0,1,2 --results-dir results
    python -m repro.experiments experiments-bench
    python -m repro.experiments bench
    python -m repro.experiments bench --compare-to BENCH_backend.json
    python -m repro.experiments serve --model-dir ckpt --port 8080 --dtype float32 --fused
    python -m repro.experiments serve-bench
    python -m repro.experiments deploy-smoke
    python -m repro.experiments deploy-diff --shadow-log 'BENCH_deploy_shadow.w*.jsonl'

Each artifact is a declarative :class:`repro.api.ExperimentSpec` from the
catalog in :mod:`repro.api.experiments` (this table — including ``--list``
— is *generated* from the catalog, so help text cannot drift from the
registry); the output is the paper-style text table.  ``--spec`` runs a
user-authored spec JSON through the same engine — a new scenario is a
file, not a new runner function.  ``--dtype float32`` and ``--fused``
select the backend fast path (see :mod:`repro.backend`); length-bucketed
training batches are the default and ``--no-bucketing`` replays the seed
batch composition.  ``--jobs N`` fans a run's independent work units
across a process pool, ``--seeds`` repeats them per seed (mean±std
rows), and ``--results-dir`` lands every unit in the durable, resumable
run store (:mod:`repro.api.store`); ``--all`` sweeps the whole catalog
(``make experiments JOBS=N``) and ``experiments-bench`` records the
engine's jobs ∈ {1,2,4} scaling curve to ``BENCH_experiments.json``.  The ``bench`` command times the fast path against the
seed configuration, prints the fast path's per-kernel timing breakdown,
and records ``BENCH_backend.json``; with ``--compare-to`` it instead gates
against a recorded artifact (exit 1 if any config's ms_per_epoch regressed
more than 20% — ``make bench-compare``).

The ``serve`` command stands saved checkpoints (written by
:func:`repro.serve.save_artifact`) up behind the HTTP JSON API of
:mod:`repro.serve` (``POST /v1/rationalize``, ``GET /v1/models``,
``GET /healthz``, ``GET /statz``, Prometheus ``GET /metrics``,
``GET /tracez``); ``serve-bench`` runs the serving
load-generator (micro-batched vs sequential throughput, latency
percentiles, cache hit rate) and records ``BENCH_serve.json``.

``deploy-smoke`` scripts the versioned model lifecycle end to end
against a 2-worker fleet — baseline load, shadow deploy with log-driven
cache warm-up, zero-downtime promote, rollback — gating shadow-mirror
p95 overhead and recording ``BENCH_deploy.json`` plus the per-worker
rationale diff logs; ``deploy-diff`` turns those JSONL logs (paths or
globs) into a champion/challenger agreement report (label agreement,
exact-rationale rate, token-level IoU/F1).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

from repro.api.experiments import catalog
from repro.api.profiles import FAST_PROFILE, FULL_PROFILE, ExperimentProfile
from repro.api.spec import ExperimentSpec, render_spec
from repro.utils import render_table


def _artifact_table() -> dict[str, tuple[str, Callable]]:
    """``name -> (description, render_fn)``, generated from the spec catalog."""
    table: dict[str, tuple[str, Callable]] = {}
    for name, spec in catalog().items():
        table[name] = (spec.description, lambda p, spec=spec: render_spec(spec, p))
    return table


#: Artifact table (legacy import surface); regenerated from the catalog.
ARTIFACTS: dict[str, tuple[str, Callable]] = _artifact_table()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures of the DAR paper (ICDE 2024).",
    )
    parser.add_argument(
        "command", nargs="?",
        choices=(
            "bench", "serve", "serve-bench", "experiments-bench",
            "deploy-smoke", "deploy-diff",
        ),
        help="subcommand: 'bench' runs the backend perf smoke benchmark over "
             "its fixed configuration grid (only --seed and --bench-out apply); "
             "'serve' stands saved checkpoints up behind the HTTP JSON API; "
             "'serve-bench' runs the serving load generator and records "
             "BENCH_serve.json; 'experiments-bench' sweeps the process-pool "
             "experiment engine over jobs in {1,2,4} and records "
             "BENCH_experiments.json; 'deploy-smoke' scripts the versioned "
             "deploy lifecycle (deploy -> warm -> shadow -> promote -> "
             "rollback) against a small worker fleet and records "
             "BENCH_deploy.json; 'deploy-diff' summarizes shadow rationale "
             "diff logs into a champion/challenger agreement report",
    )
    parser.add_argument("--artifact", choices=sorted(ARTIFACTS), help="which artifact to regenerate")
    parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="run a user-authored ExperimentSpec JSON file through the same "
             "engine as the catalog artifacts (see repro.api.ExperimentSpec)",
    )
    parser.add_argument("--list", action="store_true", help="list available artifacts")
    parser.add_argument(
        "--all", action="store_true",
        help="regenerate every catalog artifact (make experiments); combines "
             "with --jobs/--seeds/--results-dir",
    )
    executor = parser.add_argument_group("parallel execution (repro.api.executor)")
    executor.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan independent (dataset, variant, method, seed) work units "
             "across N worker processes (1 = in-process serial engine; "
             "parallel rows are bit-identical to serial rows)",
    )
    executor.add_argument(
        "--seeds", default=None, metavar="S,S,...",
        help="comma-separated seed list: every unit repeats once per seed "
             "(each seed resamples model init + training RNG) and rows "
             "aggregate to mean±std",
    )
    executor.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="durable run store: land every completed unit (run_table.csv + "
             "sqlite catalog + result.json provenance); rerunning with the "
             "same directory resumes an interrupted sweep, executing only "
             "the missing units",
    )
    parser.add_argument("--profile", choices=("fast", "full"), default="fast")
    parser.add_argument("--n-train", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--dtype", choices=("float32", "float64"), default=None,
        help="storage dtype for parameters/activations (float32 = fast path)",
    )
    parser.add_argument(
        "--fused", action="store_true",
        help="dispatch functional ops to the backend's fused kernels",
    )
    parser.add_argument(
        "--bucketing", action="store_true",
        help="length-bucketed training batches (the default since the fast-path "
             "re-baseline; kept for compatibility)",
    )
    parser.add_argument(
        "--no-bucketing", action="store_true",
        help="disable length-bucketed training batches (replays the seed "
             "batch composition bit-for-bit)",
    )
    parser.add_argument(
        "--bench-out", default=None,
        help="output path for the bench JSON artifact (default BENCH_backend.json "
             "for 'bench', BENCH_serve.json for 'serve-bench')",
    )
    parser.add_argument(
        "--compare-to", default=None, metavar="PATH",
        help="bench only: compare against a recorded BENCH_backend.json and exit "
             "non-zero if any config's ms_per_epoch regressed by more than 20%% "
             "(the committed artifact is not overwritten unless --bench-out is given)",
    )
    serving = parser.add_argument_group("serving ('serve' subcommand)")
    serving.add_argument(
        "--checkpoint", action="append", default=None, metavar="PATH",
        help="serving artifact (.npz from repro.serve.save_artifact); repeatable",
    )
    serving.add_argument(
        "--model-dir", default=None,
        help="directory to discover *.npz serving artifacts in",
    )
    serving.add_argument("--host", default="127.0.0.1", help="bind address")
    serving.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    serving.add_argument(
        "--max-batch-size", type=int, default=None,
        help="micro-batching: most requests coalesced into one forward pass "
             "(serve default 32; also applies to serve-bench)",
    )
    serving.add_argument(
        "--max-wait-ms", type=float, default=None,
        help="micro-batching: how long a wave holds for stragglers "
             "(serve default 2.0; serve-bench default 8.0)",
    )
    serving.add_argument(
        "--cache-size", type=int, default=None,
        help="LRU rationale cache capacity, 0 disables caching (serve default 1024)",
    )
    serving.add_argument(
        "--workers", type=int, default=1,
        help="serve: worker processes behind the router (1 = single-process "
             "tier, N>1 = sharded tier with admission control); "
             "make serve WORKERS=N",
    )
    serving.add_argument(
        "--max-inflight", type=int, default=None,
        help="sharded serve: outstanding-request budget per worker before "
             "new requests are rejected with 429 (default 32)",
    )
    serving.add_argument(
        "--scaling-workers", default=None, metavar="N,N,...",
        help="serve-bench: comma-separated worker counts for the scaling "
             "sweep recorded in BENCH_serve.json (default 1,2,4; 0 or an "
             "empty value skips the sweep)",
    )
    serving.add_argument(
        "--request-log", type=int, default=None, metavar="N",
        help="serve: keep the last N served requests in a ring buffer so "
             "a deployed challenger can warm its cache from real traffic "
             "(POST /v1/deploy with \"warm\": true; default 0 = disabled)",
    )
    lifecycle = parser.add_argument_group("deploy lifecycle ('deploy-diff' subcommand)")
    lifecycle.add_argument(
        "--shadow-log", action="append", default=None, metavar="PATH_OR_GLOB",
        help="shadow diff log(s) to summarize; repeatable, and each value "
             "may be a glob — the sharded tier writes one log per worker "
             "(log.w0.jsonl, log.w1.jsonl, ...), so pass 'log.w*.jsonl'",
    )
    lifecycle.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="deploy-diff: also record the agreement report as JSON",
    )
    return parser


def resolve_profile(args: argparse.Namespace) -> ExperimentProfile:
    """Apply CLI overrides to the chosen base profile."""
    profile = FAST_PROFILE if args.profile == "fast" else FULL_PROFILE
    overrides = {}
    if args.n_train is not None:
        overrides["n_train"] = args.n_train
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.dtype is not None:
        overrides["dtype"] = args.dtype
    if args.fused:
        overrides["fused"] = True
    if args.no_bucketing:
        overrides["bucketing"] = False
    elif args.bucketing:
        overrides["bucketing"] = True
    return profile.scaled(**overrides) if overrides else profile


def run_bench(args: argparse.Namespace) -> int:
    """Run the backend perf smoke benchmark and print the comparison table."""
    from repro.experiments import bench

    ignored = [
        flag for flag, on in (
            ("--artifact", args.artifact is not None),
            ("--dtype", args.dtype is not None), ("--fused", args.fused),
            ("--bucketing", args.bucketing), ("--no-bucketing", args.no_bucketing),
            ("--n-train", args.n_train is not None),
            ("--epochs", args.epochs is not None), ("--profile", args.profile != "fast"),
        ) if on
    ]
    if ignored:
        print(
            f"# note: bench sweeps its own fixed configuration grid; ignoring {', '.join(ignored)}",
            file=sys.stderr,
        )
    baseline = None
    if args.compare_to is not None:
        try:
            baseline = bench.load_bench_artifact(args.compare_to)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load baseline {args.compare_to}: {exc}", file=sys.stderr)
            return 2
    # In compare mode the committed artifact is the reference — only write
    # a fresh one when explicitly asked to.
    if args.compare_to is not None and args.bench_out is None:
        out_path = None
    else:
        out_path = args.bench_out or bench.DEFAULT_BENCH_PATH
    seed = args.seed if args.seed is not None else 0
    start = time.time()
    artifact = bench.run_backend_bench(seed=seed, out_path=out_path)
    rows = artifact["results"]
    print(render_table("Backend perf smoke — LSTM train step", rows, key_column="config"))
    fast_name = bench.BENCH_GRID[-1].name
    breakdown = artifact["kernel_timings"].get(fast_name)
    if breakdown:
        kernel_rows = [{"kernel": name, **stats} for name, stats in breakdown.items()]
        print(render_table(f"Per-kernel timing — {fast_name}", kernel_rows, key_column="kernel"))
    if out_path:
        print(f"# recorded to {out_path} in {time.time() - start:.1f}s", file=sys.stderr)
    if baseline is not None:
        problems = bench.compare_bench(rows, baseline, max_regression=0.2, metric="ms_per_epoch")
        if problems:
            print(f"# PERF REGRESSION vs {args.compare_to}:", file=sys.stderr)
            for problem in problems:
                print(f"#   {problem}", file=sys.stderr)
            return 1
        print(f"# no perf regression vs {args.compare_to} (20% budget)", file=sys.stderr)
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Stand saved checkpoints up behind the repro.serve HTTP JSON API.

    ``--workers 1`` (the default) serves from one in-process service;
    ``--workers N`` stands up the sharded tier — a front router plus N
    worker processes, each with its own scheduler/cache/session, bounded
    per-worker admission (429 on overload) and dead-worker respawn.
    """
    from repro.serve import (
        ModelRegistry,
        RationaleServer,
        RationalizationService,
        ShardRouter,
    )

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    checkpoints: list[str] = []
    if args.model_dir:
        model_dir = Path(args.model_dir)
        if not model_dir.is_dir():
            print(f"error: model directory {model_dir} does not exist", file=sys.stderr)
            return 2
        checkpoints.extend(str(p) for p in sorted(model_dir.glob("*.npz")))
    checkpoints.extend(args.checkpoint or ())
    if not checkpoints:
        print(
            "error: nothing to serve — pass --checkpoint and/or --model-dir "
            "(artifacts are written by repro.serve.save_artifact)",
            file=sys.stderr,
        )
        return 2
    max_batch_size = args.max_batch_size if args.max_batch_size is not None else 32
    max_wait_ms = args.max_wait_ms if args.max_wait_ms is not None else 2.0
    cache_size = args.cache_size if args.cache_size is not None else 1024
    request_log_size = args.request_log if args.request_log is not None else 0
    try:
        if args.workers == 1:
            registry = ModelRegistry(dtype=args.dtype)
            for path in checkpoints:
                registry.register_file(path)
            service = RationalizationService(
                registry,
                max_batch_size=max_batch_size,
                max_wait_ms=max_wait_ms,
                cache_size=cache_size,
                fused=args.fused,
                request_log_size=request_log_size,
            )
        else:
            service = ShardRouter(
                checkpoints,
                workers=args.workers,
                max_inflight_per_worker=(
                    args.max_inflight if args.max_inflight is not None else 32
                ),
                max_batch_size=max_batch_size,
                max_wait_ms=max_wait_ms,
                cache_size=cache_size,
                fused=args.fused,
                dtype=args.dtype,
                request_log_size=request_log_size,
            )
    except (FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = sorted({row["name"] for row in service.describe_models()})
    server = RationaleServer(service, host=args.host, port=args.port, quiet=False)
    tier = "1 process" if args.workers == 1 else f"router + {args.workers} worker processes"
    print(f"# serving {', '.join(names)} on {server.url} ({tier})", file=sys.stderr)
    print(
        f"#   POST {server.url}/v1/rationalize   GET {server.url}/v1/models   "
        f"GET {server.url}/healthz   GET {server.url}/statz   "
        f"GET {server.url}/metrics   GET {server.url}/tracez",
        file=sys.stderr,
    )
    # serve_forever() returns after Ctrl-C, having already drained the
    # service (accepted requests finished, workers joined, no orphans).
    server.serve_forever()
    print("\n# drained", file=sys.stderr)
    return 0


def run_serve_bench_cli(args: argparse.Namespace) -> int:
    """Run the serving load generator and print the phase comparison table."""
    from repro.serve import bench as serve_bench

    ignored = [
        flag for flag, on in (
            ("--cache-size", args.cache_size is not None),
            ("--dtype", args.dtype is not None), ("--fused", args.fused),
            ("--artifact", args.artifact is not None), ("--bucketing", args.bucketing),
            ("--no-bucketing", args.no_bucketing),
        ) if on
    ]
    if ignored:
        print(
            "# note: serve-bench drives its own serving configuration "
            f"(float32, fused, per-phase cache); ignoring {', '.join(ignored)}",
            file=sys.stderr,
        )
    overrides = {}
    if args.max_batch_size is not None:
        overrides["max_batch_size"] = args.max_batch_size
    if args.max_wait_ms is not None:
        overrides["max_wait_ms"] = args.max_wait_ms
    if args.scaling_workers is not None:
        text = args.scaling_workers.strip()
        counts = tuple(int(x) for x in text.split(",") if x.strip()) if text else ()
        overrides["scaling_workers"] = tuple(c for c in counts if c > 0)
    out_path = args.bench_out or serve_bench.DEFAULT_SERVE_BENCH_PATH
    seed = args.seed if args.seed is not None else 0
    start = time.time()
    rows = serve_bench.run_serve_bench(seed=seed, out_path=out_path, **overrides)
    print(render_table("Serve bench — micro-batching vs sequential", rows, key_column="phase"))
    import json as json_mod

    artifact = json_mod.loads(Path(out_path).read_text()) if out_path else {}
    scaling = artifact.get("scaling")
    if scaling:
        print(render_table(
            f"Sharding scaling curve ({scaling['cores']} cores)",
            scaling["sweep"], key_column="workers",
        ))
    print(f"# recorded to {out_path} in {time.time() - start:.1f}s", file=sys.stderr)
    return 0


def run_deploy_smoke_cli(args: argparse.Namespace) -> int:
    """Script the deploy lifecycle against a small fleet; gate and record."""
    from repro.serve import bench as serve_bench
    from repro.serve.diff import render_diff_report

    # A lifecycle smoke needs a fleet: --workers 1 (the parser default,
    # sized for 'serve') is bumped to the 2-worker minimum.
    workers = max(2, args.workers)
    out_path = args.bench_out or serve_bench.DEFAULT_DEPLOY_BENCH_PATH
    seed = args.seed if args.seed is not None else 0
    start = time.time()
    artifact = serve_bench.run_deploy_smoke(workers=workers, seed=seed, out_path=out_path)
    print(render_table(
        f"Deploy lifecycle smoke ({workers} workers)",
        artifact["phases"], key_column="phase",
    ))
    print(render_diff_report(artifact["diff"]))
    gate = artifact["gate"]
    armed = "enforced" if gate["enforced"] else f"recorded only on {gate['cores']} core(s)"
    print(
        f"# promote served v{artifact['served_version_after_promote']}, "
        f"rollback served v{artifact['served_version_after_rollback']}; "
        f"dropped={gate['dropped_requests']} "
        f"shadow_p95_overhead={gate['shadow_p95_overhead_ratio']} "
        f"(budget {1.0 + gate['shadow_overhead_budget']:.2f}x, {armed})",
        file=sys.stderr,
    )
    print(f"# recorded to {out_path} in {time.time() - start:.1f}s", file=sys.stderr)
    if not gate["pass"]:
        print("# DEPLOY SMOKE GATE FAILED", file=sys.stderr)
        return 1
    return 0


def run_deploy_diff_cli(args: argparse.Namespace) -> int:
    """Summarize shadow diff logs into an agreement report."""
    from repro.serve.diff import render_diff_report, shadow_diff_report

    if not args.shadow_log:
        print(
            "error: deploy-diff needs at least one --shadow-log PATH_OR_GLOB "
            "(the sharded tier writes log.w0.jsonl, log.w1.jsonl, ... — "
            "pass 'log.w*.jsonl')",
            file=sys.stderr,
        )
        return 2
    try:
        report = shadow_diff_report(args.shadow_log)
    except OSError as exc:
        print(f"error: cannot read shadow log: {exc}", file=sys.stderr)
        return 2
    print(render_diff_report(report))
    if args.report_out:
        import json as json_mod

        Path(args.report_out).write_text(json_mod.dumps(report, indent=2) + "\n")
        print(f"# recorded to {args.report_out}", file=sys.stderr)
    if report["compared"] == 0:
        print("# no comparable shadow records found", file=sys.stderr)
        return 1
    return 0


def parse_seeds(text: str | None) -> tuple[int, ...] | None:
    """Parse ``--seeds "0,1,2"`` into a seed tuple (``None`` passes through)."""
    if text is None:
        return None
    seeds = tuple(int(part) for part in text.split(",") if part.strip())
    if not seeds:
        raise ValueError(f"--seeds {text!r} names no seeds")
    return seeds


def _execution_kwargs(args: argparse.Namespace) -> dict:
    """The executor pass-through (``--jobs/--seeds/--results-dir``)."""
    return {
        "jobs": args.jobs,
        "seeds": parse_seeds(args.seeds),
        "results_dir": args.results_dir,
    }


def run_experiments_bench_cli(args: argparse.Namespace) -> int:
    """Sweep the process-pool engine over jobs counts; record the curve."""
    from repro.experiments import expbench

    ignored = [
        flag for flag, on in (
            ("--artifact", args.artifact is not None),
            ("--jobs", args.jobs != 1), ("--seeds", args.seeds is not None),
            ("--results-dir", args.results_dir is not None),
            ("--dtype", args.dtype is not None), ("--fused", args.fused),
            ("--n-train", args.n_train is not None),
            ("--epochs", args.epochs is not None),
        ) if on
    ]
    if ignored:
        print(
            "# note: experiments-bench sweeps its own fixed workload over "
            f"jobs in {expbench.DEFAULT_JOBS_SWEEP}; ignoring {', '.join(ignored)}",
            file=sys.stderr,
        )
    out_path = args.bench_out or expbench.DEFAULT_EXPBENCH_PATH
    seed = args.seed if args.seed is not None else 0
    start = time.time()
    artifact = expbench.run_experiments_bench(seed=seed, out_path=out_path)
    print(render_table(
        f"Experiment engine scaling curve ({artifact['cores']} cores)",
        artifact["results"], key_column="jobs",
    ))
    identical = artifact["rows_identical_across_jobs"]
    print(f"# rows identical across jobs counts: {identical}", file=sys.stderr)
    print(f"# recorded to {out_path} in {time.time() - start:.1f}s", file=sys.stderr)
    return 0 if identical else 1


def run_all_artifacts(args: argparse.Namespace) -> int:
    """Regenerate every catalog artifact (``make experiments``)."""
    profile = resolve_profile(args)
    execution = _execution_kwargs(args)
    print(f"# profile: {profile}", file=sys.stderr)
    if execution["jobs"] != 1 or execution["results_dir"]:
        print(
            f"# executor: jobs={execution['jobs']} seeds={execution['seeds']} "
            f"results_dir={execution['results_dir']}",
            file=sys.stderr,
        )
    start = time.time()
    for name, spec in sorted(catalog().items()):
        print(f"\n# {name}: {spec.description}", file=sys.stderr)
        print(render_spec(spec, profile, **execution))
    print(f"# all artifacts done in {time.time() - start:.1f}s", file=sys.stderr)
    return 0


def run_spec_file(args: argparse.Namespace) -> int:
    """Load a user-authored spec JSON and run it through the engine."""
    try:
        spec = ExperimentSpec.from_json(args.spec)
        spec.resolve()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    profile = resolve_profile(args)
    print(f"# {spec.description or spec.name}\n# profile: {profile}\n", file=sys.stderr)
    start = time.time()
    print(render_spec(spec, profile, **_execution_kwargs(args)))
    print(f"# done in {time.time() - start:.1f}s", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: list artifacts, regenerate one (or a --spec file), run a
    bench, or serve."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        return run_bench(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "serve-bench":
        return run_serve_bench_cli(args)
    if args.command == "experiments-bench":
        return run_experiments_bench_cli(args)
    if args.command == "deploy-smoke":
        return run_deploy_smoke_cli(args)
    if args.command == "deploy-diff":
        return run_deploy_diff_cli(args)
    try:
        parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.spec is not None and args.artifact is not None:
        parser.error("--artifact and --spec are mutually exclusive")
    if args.all and (args.artifact is not None or args.spec is not None):
        parser.error("--all and --artifact/--spec are mutually exclusive")
    if args.spec is not None and not args.list:
        return run_spec_file(args)
    if args.all and not args.list:
        return run_all_artifacts(args)
    if args.list or not args.artifact:
        for name, spec in sorted(catalog().items()):
            print(f"{name:16s} {spec.description}")
        return 0
    spec = catalog()[args.artifact]
    profile = resolve_profile(args)
    print(f"# {spec.description}\n# profile: {profile}\n", file=sys.stderr)
    start = time.time()
    print(render_spec(spec, profile, **_execution_kwargs(args)))
    print(f"# done in {time.time() - start:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
