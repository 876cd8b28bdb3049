"""Workload ``fit``: one complete DAR fit, repeated in-process.

Eq. 4 pretraining of the full-text predictor, cooperative training and the
per-epoch dev/test probes on synthetic Beer-Aroma at the fast profile's
shapes, on the fast path (float32, fused kernels, length bucketing).
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass

import numpy as np

from harness import CheckFailed, Options, PeakRSS, median_setup, summary
from layers import kernel_delta, kernel_metrics
from spans import Patcher, Tracer, TrainingLayers, unattributed


@dataclass(frozen=True)
class Shape:
    n_train: int
    n_eval: int
    embedding_dim: int
    hidden_size: int
    batch_size: int
    epochs: int
    pretrain_epochs: int


FULL = Shape(n_train=400, n_eval=100, embedding_dim=64, hidden_size=24, batch_size=100,
             epochs=10, pretrain_epochs=10)
TINY = Shape(n_train=40, n_eval=16, embedding_dim=16, hidden_size=8, batch_size=20,
             epochs=2, pretrain_epochs=1)

#: A run always makes at least this many fits, so repeats can be compared.
MIN_FITS = 2


def _fit(dataset, shape: Shape, seed: int, callback, tracer=None):
    from repro.core import DAR, TrainConfig, train_rationalizer

    def build():
        return DAR(
            vocab_size=len(dataset.vocab),
            embedding_dim=shape.embedding_dim,
            hidden_size=shape.hidden_size,
            alpha=dataset.gold_sparsity(),
            temperature=0.8,
            pretrained_embeddings=dataset.embeddings,
            rng=np.random.default_rng(seed),
        )

    if tracer is None:
        model = build()
    else:
        with tracer.span("core.init"):
            model = build()
    config = TrainConfig(
        epochs=shape.epochs, batch_size=shape.batch_size, lr=2e-3, seed=seed,
        pretrain_epochs=shape.pretrain_epochs, dtype="float32", fused=True, bucketing=True,
    )
    return train_rationalizer(model, dataset, config, callback=callback)


def run(opts: Options, rss: PeakRSS) -> dict:
    from repro.backend import get_pool, kernel_timing, kernel_timings
    from repro.data import build_beer_dataset

    shape = TINY if opts.tiny else FULL
    warmup = dataclasses.replace(shape, epochs=1, pretrain_epochs=1)

    def setup():
        # The inputs, then one short fit (one epoch of each phase) so lazy
        # set-up (kernel dispatch, buffer pool) finishes before timing.
        dataset = build_beer_dataset("Aroma", n_train=shape.n_train, n_dev=shape.n_eval,
                                     n_test=shape.n_eval, embedding_dim=shape.embedding_dim,
                                     seed=opts.seed)
        _fit(dataset, warmup, opts.seed, callback=None)
        return dataset

    dataset, setup_s, setup_all = median_setup(setup, lambda _ds: None, reps=3)

    rows, fit_s, traced_s, epoch_s = [], [], [], []
    tracer = Tracer(run_id=f"fit-{opts.seed}")
    layers = TrainingLayers(tracer)
    kernels = {}
    pool_hits = pool_misses = 0
    deadline = opts.deadline()
    while len(rows) < MIN_FITS or time.perf_counter() < deadline:
        marks: list[float] = []
        mark = lambda _model, _dataset, _info: marks.append(time.perf_counter())  # noqa: E731
        # A traced run times its first fit untraced: the base of trace.overhead.
        traced = opts.trace and len(rows) > 0
        started = time.perf_counter()
        if not traced:
            result = _fit(dataset, shape, opts.seed, mark)
            fit_s.append(time.perf_counter() - started)
            epoch_s.extend(np.diff(marks).tolist())
        else:
            before, pool_before = kernel_timings(), get_pool().stats()
            with Patcher() as patcher, kernel_timing(True):
                layers.install(patcher)
                started = time.perf_counter()
                with tracer.span("bench.fit"):
                    result = _fit(dataset, shape, opts.seed, mark, tracer)
                traced_s.append(time.perf_counter() - started)
            for name, (calls, ms) in kernel_delta(before, kernel_timings()).items():
                old = kernels.get(name, (0.0, 0.0))
                kernels[name] = (old[0] + calls, old[1] + ms)
            pool_after = get_pool().stats()
            pool_hits += pool_after["hits"] - pool_before["hits"]
            pool_misses += pool_after["misses"] - pool_before["misses"]
        rows.append(result.as_row())

    if opts.corrupt:
        rows[-1] = dict(rows[-1], F1=rows[-1]["F1"] + 0.1)
    for index, row in enumerate(rows[1:], start=1):
        if row != rows[0]:
            raise CheckFailed(f"fit {index} returned {row}, fit 0 returned {rows[0]}")

    fits = len(rows)
    report = {
        "setup_s_all": setup_all,
        "fit_s": summary(fit_s),
        "epoch_ms": summary([1000.0 * s for s in epoch_s]),
        "row": rows[0],
        "rationale_f1": rows[0]["F1"],
        "full_text_acc": rows[0]["FullAcc"],
        "fits": fits,
    }
    if not opts.trace:
        examples = shape.n_train * (shape.epochs + shape.pretrain_epochs)
        return {
            "attempted": fits,
            "failed": 0,
            "report": report,
            "metrics": {
                "setup_s": setup_s,
                "peak_rss_mb": rss.mib(),
                "ok_frac": 1.0,
                "latency_ms.p50": 1000.0 * statistics.median(epoch_s),
                "throughput_per_s": examples / statistics.median(fit_s),
            },
        }

    traced_fits = len(traced_s)
    own, total = unattributed(tracer, "bench.fit")
    metrics = layers.metrics(
        epochs=shape.epochs * traced_fits,
        batch_epochs=(shape.epochs + shape.pretrain_epochs) * traced_fits,
    )
    metrics.update(kernel_metrics(kernels, per=traced_fits))
    pool_total = pool_hits + pool_misses
    metrics["backend.pool.hit_ratio"] = pool_hits / pool_total if pool_total else 0.0
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(fit_s)
    metrics["trace.unattributed_frac"] = own / total
    report["traced_fit_s"] = summary(traced_s)
    report["kernels_per_fit"] = {k: (c / traced_fits, ms / traced_fits) for k, (c, ms) in kernels.items()}
    report["self_s_per_fit"] = {k: v / traced_fits for k, v in tracer.self_seconds().items()}
    return {"attempted": fits, "failed": 0, "report": report, "metrics": metrics, "spans": tracer.rows()}
