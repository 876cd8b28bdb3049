"""Workload ``catalog``: a Table II slice through the process-pool engine.

{RNP, DAR} x Beer {Aroma, Palate} with one seed, run by ``run_experiment``
with ``jobs = nproc`` into a fresh run store, on the default float64
composed-autograd numerics.  The traced run adds one DAR unit run alone
in-process, which gives the composed-path layer split and the base of
``executor.contention``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import shutil
import statistics
import time

from harness import OUT_DIR, CheckFailed, Options, PeakRSS, median_setup, nproc, summary
from layers import kernel_delta, kernel_metrics
from spans import Patcher, Tracer, TrainingLayers, spanned, unattributed

DATASETS = (("beer", "Aroma"), ("beer", "Palate"))
METHODS = ("RNP", "DAR")

FULL = dict(n_train=80, n_dev=24, n_test=24, embedding_dim=24, hidden_size=16,
            epochs=2, batch_size=20, pretrain_epochs=1)
TINY = dict(n_train=16, n_dev=8, n_test=8, embedding_dim=8, hidden_size=4,
            epochs=1, batch_size=8, pretrain_epochs=1)

#: A run always executes the slice at least this many times, so runs can be compared.
MIN_RUNS = 2


def _units(results_dir) -> list[dict]:
    """Every unit record the run store landed under ``results_dir``."""
    from repro.api import RunStore

    store = RunStore(results_dir)
    return [
        json.loads(path.read_text())
        for run in store.runs()
        for path in sorted((store.run_dir(run["run_id"]) / "units").glob("*.json"))
    ]


def _seconds(record: dict) -> float:
    return record["stats"]["duration_s"]


class _StoreSpans:
    """Parent-side spans around the run store, plus when each unit landed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.landed: dict[str, float] = {}

    def install(self, patcher: Patcher) -> None:
        from repro.api import RunStore
        from repro.api.store import RunRecord

        tracer = self.tracer
        land = vars(RunRecord)["land_unit"]

        def land_unit(record, unit_record):
            self.landed[unit_record["unit"]["key"]] = time.perf_counter()
            with tracer.span("store.land"):
                return land(record, unit_record)

        patcher.set(RunRecord, "land_unit", land_unit)
        patcher.set(RunRecord, "finalize", spanned(tracer, "store.land", vars(RunRecord)["finalize"]))
        patcher.set(RunStore, "begin_run", spanned(tracer, "store.land", vars(RunStore)["begin_run"]))


def run(opts: Options, rss: PeakRSS) -> dict:
    from repro.api import catalog, run_experiment
    from repro.api.profiles import ExperimentProfile

    jobs = nproc()
    shape = TINY if opts.tiny else FULL
    profile = ExperimentProfile(seed=opts.seed, **shape)
    work = OUT_DIR / f"catalog-seed{opts.seed}"
    shutil.rmtree(work, ignore_errors=True)
    counter = itertools.count()

    def fresh_dir():
        return work / f"r{next(counter):03d}"

    def setup():
        # The spec from the catalog, a fresh run store, and one tiny pass
        # through the pool (worker start-up, imports, store schema).
        spec = catalog()["table2"].scaled(name="perfbench", datasets=DATASETS, methods=METHODS)
        warm = ExperimentProfile(seed=opts.seed, **TINY)
        run_experiment(spec, warm, jobs=jobs, results_dir=fresh_dir())
        return spec

    spec, setup_s, setup_all = median_setup(setup, lambda _spec: None, reps=3)

    tracer = Tracer(run_id=f"catalog-{opts.seed}")
    store_spans = _StoreSpans(tracer)
    # The benchmark's own call into the executor is the layer boundary.
    execute = spanned(tracer, "api.executor", run_experiment) if opts.trace else run_experiment
    makespans, results, unit_records, store_s, waits, busy = [], [], [], [], [], []
    deadline = opts.deadline()
    while len(results) < MIN_RUNS or time.perf_counter() < deadline:
        results_dir = fresh_dir()
        with Patcher() as patcher:
            if opts.trace:
                store_spans.install(patcher)
            spans_before = len(tracer.spans)
            started = time.perf_counter()
            with tracer.span("bench.catalog") if opts.trace else contextlib.nullcontext():
                rows = execute(spec, profile, jobs=jobs, results_dir=results_dir)
            makespan = time.perf_counter() - started
        makespans.append(makespan)
        results.append(rows)
        records = _units(results_dir)
        unit_records.extend(records)
        busy.append(sum(_seconds(r) for r in records) / (jobs * makespan))
        if opts.trace:
            store_s.append(sum(
                end - start - covered for name, start, end, _p, covered in tracer.spans[spans_before:]
                if name == "store.land"))
            waits.extend(store_spans.landed[r["unit"]["key"]] - started - _seconds(r) for r in records)

    serial = _serial_rows(spec, profile)
    if opts.corrupt:
        results[-1] = _flip(results[-1])
    for index, rows in enumerate(results):
        if rows != results[0]:
            raise CheckFailed(f"catalog run {index} rows differ from run 0: {rows} vs {results[0]}")
    if results[0] != serial:
        raise CheckFailed(f"pool rows {results[0]} differ from the serial engine's {serial}")

    attempted = len(unit_records)
    failed = sum(1 for r in unit_records if r["status"] != "completed")
    dar = [r for r in _flat(serial) if r["method"] == "DAR"]
    report = {
        "setup_s_all": setup_all,
        "jobs": jobs,
        "profile": shape,
        "makespan_s": summary(makespans),
        "unit_s": summary([_seconds(r) for r in unit_records]),
        "rows": results[0],
        "rationale_f1_dar_mean": statistics.fmean(r["F1"] for r in dar),
        "pool_kernel_calls": sum(r["stats"]["kernel_calls"] for r in unit_records),
    }
    shutil.rmtree(work, ignore_errors=True)
    if not opts.trace:
        n_units = len(DATASETS) * len(METHODS)
        return {
            "attempted": attempted,
            "failed": failed,
            "report": report,
            "metrics": {
                "setup_s": setup_s,
                "peak_rss_mb": rss.mib(),
                "ok_frac": (attempted - failed) / attempted,
                "latency_ms.p50": 1000.0 * statistics.median(makespans),
                "throughput_per_s": n_units / statistics.median(makespans),
            },
        }

    alone, traced_alone, layers, kernels, pool = _unit_alone(spec, profile, tracer, work, serial)
    in_pool = [_seconds(r) for r in unit_records
               if r["unit"]["method"] == "DAR" and r["unit"]["aspect"] == "Aroma"]
    durations = [_seconds(r) for r in unit_records]
    metrics = layers.metrics(epochs=profile.epochs, batch_epochs=profile.epochs + profile.pretrain_epochs)
    metrics.update(kernel_metrics(kernels, per=1.0))
    metrics.update({
        "backend.pool.hit_ratio": pool,
        "executor.unit_s.p50": statistics.median(durations),
        "executor.unit_s.max": max(durations),
        "executor.unit_wait_s": statistics.fmean(waits),
        "executor.busy_frac": statistics.fmean(busy),
        "executor.contention": statistics.median(in_pool) / alone,
        "store.land_ms": 1000.0 * statistics.fmean(store_s),
        "trace.overhead": traced_alone / alone,
    })
    own = total = 0.0
    for root in ("bench.catalog", "bench.unit"):
        root_own, root_total = unattributed(tracer, root)
        own, total = own + root_own, total + root_total
    metrics["trace.unattributed_frac"] = own / total
    report["unit_alone_s"] = {"untraced": alone, "traced": traced_alone}
    report["self_s"] = tracer.self_seconds()
    shutil.rmtree(work, ignore_errors=True)
    return {"attempted": attempted, "failed": failed, "report": report, "metrics": metrics,
            "spans": tracer.rows()}


def _flat(rows) -> list[dict]:
    return [row for group in rows.values() for row in group] if isinstance(rows, dict) else list(rows)


def _flip(rows):
    """The same rows with one rationale F1 moved by 0.1."""
    first = next(iter(rows))
    group = [dict(r) for r in rows[first]]
    group[0]["F1"] = group[0]["F1"] + 0.1
    return {**rows, first: group}


def _serial_rows(spec, profile):
    """The same slice through the serial in-process engine."""
    from repro.api import execute_spec

    return execute_spec(spec, profile)


def _unit_alone(spec, profile, tracer: Tracer, work, serial):
    """The DAR x Aroma unit run alone in-process: untraced, then traced.
    Both must return the serial engine's row for that cell."""
    from repro.api import run_experiment
    from repro.backend import get_pool, kernel_timings

    aspect = DATASETS[0][1]
    expected = {aspect: [r for r in serial[aspect] if r["method"] == "DAR"]}
    one = spec.scaled(name="perfbench-unit", datasets=DATASETS[:1], methods=("DAR",))
    untraced_dir = work / "alone"
    rows = run_experiment(one, profile, jobs=1, results_dir=untraced_dir)
    if rows != expected:
        raise CheckFailed(f"DAR unit alone returned {rows}, the serial engine {expected}")
    alone = _seconds(_units(untraced_dir)[0])

    layers = TrainingLayers(tracer)
    traced_dir = work / "alone-traced"
    before, pool_before = kernel_timings(), get_pool().stats()
    with Patcher() as patcher:
        layers.install(patcher)
        with tracer.span("bench.unit"):
            rows = spanned(tracer, "api.executor", run_experiment)(
                one, profile, jobs=1, results_dir=traced_dir)
    if rows != expected:
        raise CheckFailed(f"traced DAR unit returned {rows}, the serial engine {expected}")
    kernels = kernel_delta(before, kernel_timings())
    pool_after = get_pool().stats()
    hits = pool_after["hits"] - pool_before["hits"]
    lookups = hits + pool_after["misses"] - pool_before["misses"]
    traced = _seconds(_units(traced_dir)[0])
    return alone, traced, layers, kernels, (hits / lookups if lookups else 0.0)
