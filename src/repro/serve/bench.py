"""Serving load-generator benchmark (``python -m repro.experiments serve-bench``).

Measures what actually dominates online throughput for sequence models:
request-level micro-batching, result caching, and multi-core sharding —
not raw kernel speed.  Three phases over the same synthetic request
stream against an in-process service (no socket noise, same code path
the HTTP layer calls):

1. **sequential** — one request at a time, batching and caching disabled:
   the naive serving baseline.
2. **batched** — the same requests fired from concurrent client threads
   into the micro-batching scheduler (``max_batch_size``/``max_wait_ms``
   as configured): measures coalesced throughput and p50/p95 latency.
3. **cached** — the stream replayed against a warm rationale cache:
   measures the hit-rate path.

A fourth section sweeps the **sharded tier** (:class:`repro.serve.ShardRouter`)
over ``workers ∈ {1, 2, 4, ...}`` with the :class:`LoadGenerator` — a real
concurrent client with a worker pool, an outstanding-request cap and
failure/timeout/rejection counters — and records the **scaling curve**
(workers × throughput × p50/p95) so multi-core speedup is a committed,
regression-gated artifact, not folklore.

Results are printed as tables and recorded to ``BENCH_serve.json``;
``benchmarks/test_serve_smoke.py`` asserts micro-batched throughput stays
≥ 2× sequential (and, on ≥4-core machines, 4-worker sharding ≥ 1.8× one
worker) so serving regressions surface in every PR.

:func:`run_deploy_smoke` (``make deploy-smoke`` / ``python -m
repro.experiments deploy-smoke``) scripts the versioned-lifecycle story
end to end against a 2-worker fleet — baseline load, shadow deploy with
warm-up, promote, rollback — gates shadow-mirror p95 overhead, and
records ``BENCH_deploy.json`` plus the per-worker rationale diff logs.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.obs import Histogram, MetricsRegistry, family_total, parse_prometheus
from repro.serve.client import Client, ServeClientError
from repro.serve.http import RationaleServer
from repro.serve.registry import ModelRegistry, save_artifact
from repro.serve.router import ShardRouter
from repro.serve.service import RationalizationService

#: Default output artifact, written at the repository root when run via
#: ``make serve-bench`` / the CLI / the serve smoke test.
DEFAULT_SERVE_BENCH_PATH = "BENCH_serve.json"

#: Prometheus text scraped from the live batched service during the
#: bench, written next to the JSON artifact (and uploaded by CI).
SERVE_METRICS_SCRAPE_NAME = "BENCH_serve_metrics.prom"

#: Default output artifact of the deploy lifecycle smoke
#: (``make deploy-smoke`` / ``python -m repro.experiments deploy-smoke``).
DEFAULT_DEPLOY_BENCH_PATH = "BENCH_deploy.json"

#: Shadow diff log basename the deploy smoke hands to the fleet; each
#: worker appends to its own ``.wN``-suffixed file next to the artifact.
DEPLOY_SHADOW_LOG_NAME = "BENCH_deploy_shadow.jsonl"


def make_request_stream(
    n_requests: int = 192,
    vocab_size: int = 200,
    min_len: int = 8,
    max_len: int = 64,
    seed: int = 0,
) -> list[list[int]]:
    """Synthetic variable-length single-sentence requests."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(n_requests):
        length = int(rng.integers(min_len, max_len + 1))
        stream.append([int(t) for t in rng.integers(1, vocab_size, size=length)])
    return stream


def _build_artifact(tmp_dir: str, vocab_size: int, seed: int) -> str:
    """Save a small RNP checkpoint to serve (weights need not be trained —
    serving throughput is architecture-, not accuracy-, dependent)."""
    from repro.core import RNP

    model = RNP(
        vocab_size=vocab_size,
        embedding_dim=48,
        hidden_size=24,
        rng=np.random.default_rng(seed),
    )
    path = str(Path(tmp_dir) / "bench_rnp.npz")
    save_artifact(model, path)
    return path


def _histogram_percentiles(hist: Histogram) -> dict:
    """Latency percentiles derived from an exported-format histogram —
    the same estimate a Prometheus dashboard would compute from the
    ``/metrics`` buckets, so the committed artifact and live monitoring
    can never disagree about what "p95" means."""
    entry = hist.merged_entry()
    if not entry["count"]:
        return {}
    return {
        "p50_ms": round(hist.percentile(50) * 1000.0, 3),
        "p95_ms": round(hist.percentile(95) * 1000.0, 3),
        "mean_ms": round(entry["sum"] / entry["count"] * 1000.0, 3),
    }


class LoadGenerator:
    """Concurrent load-generator client with bounded outstanding requests.

    The client-side mirror of the server's admission control, in the
    style of huggingbench's client runner: a pool of ``workers`` sender
    threads, at most ``max_outstanding`` requests in flight at once, and
    counters for every way a request can fail (429 rejection, timeout,
    transport/server failure).  ``run`` fires a whole stream and returns
    one stats row; only successful requests count toward throughput and
    the latency percentiles.
    """

    def __init__(
        self,
        send: Callable[[object], dict],
        workers: int = 32,
        max_outstanding: int = 64,
    ):
        self.send = send
        self.workers = int(workers)
        self.max_outstanding = int(max_outstanding)
        # Client-side telemetry is registry instruments too: one
        # metrics.reset() zeroes a run, and the percentiles come from the
        # same fixed-bucket histogram the server exports.
        self.metrics = MetricsRegistry()
        self._m_ok = self.metrics.counter(
            "repro_loadgen_ok_total", "Requests answered successfully."
        )
        self._m_rejected = self.metrics.counter(
            "repro_loadgen_rejected_total", "Requests fast-rejected with 429."
        )
        self._m_timeouts = self.metrics.counter(
            "repro_loadgen_timeouts_total", "Requests that hit the client timeout."
        )
        self._m_failures = self.metrics.counter(
            "repro_loadgen_failures_total", "Transport/server failures."
        )
        self._m_latency = self.metrics.histogram(
            "repro_loadgen_latency_seconds", "Client-observed request latency."
        )

    def _one(self, item) -> None:
        start = time.perf_counter()
        try:
            self.send(item)
        except ServeClientError as exc:
            if exc.status == 429:
                self._m_rejected.inc()
            elif exc.status == 504:
                self._m_timeouts.inc()
            else:
                self._m_failures.inc()
            return
        except Exception:
            self._m_failures.inc()
            return
        self._m_ok.inc()
        self._m_latency.observe(time.perf_counter() - start)

    def run(self, stream: Sequence) -> dict:
        """Fire the whole stream through the pool; return one stats row."""
        self.metrics.reset()  # one atomic zeroing across every instrument
        gate = threading.Semaphore(self.max_outstanding)

        def gated(item) -> None:
            try:
                self._one(item)
            finally:
                gate.release()

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            for item in stream:
                gate.acquire()
                pool.submit(gated, item)
        elapsed = time.perf_counter() - start
        ok = int(self._m_ok.value())
        row = {
            "requests": len(stream),
            "ok": ok,
            "rejected": int(self._m_rejected.value()),
            "timeouts": int(self._m_timeouts.value()),
            "failures": int(self._m_failures.value()),
            "client_workers": self.workers,
            "max_outstanding": self.max_outstanding,
            "elapsed_s": round(elapsed, 4),
            "throughput_rps": round(ok / elapsed, 2) if elapsed else 0.0,
        }
        row.update(_histogram_percentiles(self._m_latency))
        return row


def _drive(service: RationalizationService, model: str, stream: list, workers: int) -> dict:
    """Fire the whole stream (with ``workers`` concurrent clients) and time it."""
    hist = Histogram("repro_bench_latency_seconds", "Bench-observed request latency.")

    def one(ids: list) -> None:
        start = time.perf_counter()
        service.rationalize(model=model, token_ids=ids)
        hist.observe(time.perf_counter() - start)

    start = time.perf_counter()
    if workers <= 1:
        for ids in stream:
            one(ids)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, stream))
    elapsed = time.perf_counter() - start
    return {
        "requests": len(stream),
        "workers": workers,
        "elapsed_s": round(elapsed, 4),
        "throughput_rps": round(len(stream) / elapsed, 2),
        **_histogram_percentiles(hist),
    }


def _scrape_metrics(service: RationalizationService) -> dict:
    """Stand up the HTTP layer on an ephemeral port, scrape ``/metrics``
    over a real socket, and grammar-check the exposition.

    Returns the raw scrape text plus a small summary (family count,
    ``repro_requests_total``); :func:`repro.obs.parse_prometheus` raises
    if the exposition is malformed, so a broken ``/metrics`` fails the
    bench rather than silently shipping an unscrapeable endpoint.
    """
    with RationaleServer(service, port=0) as server:
        text = Client(base_url=server.url, timeout_s=10.0).call("metrics")
    families = parse_prometheus(text)
    return {
        "text": text,
        "families": len(families),
        "requests_total": family_total(families, "repro_requests_total"),
    }


def run_scaling_bench(
    checkpoint: str,
    stream: list,
    warmup: list,
    workers_counts: Sequence[int] = (1, 2, 4),
    client_workers: int = 32,
    max_outstanding: int = 32,
    max_inflight_per_worker: int = 64,
    max_batch_size: int = 32,
    max_wait_ms: float = 8.0,
    fused: bool = True,
) -> list[dict]:
    """Sweep the sharded tier over worker counts; return the scaling curve.

    Each point stands up a fresh :class:`ShardRouter` (N worker processes,
    cache off so the curve measures compute, not replay hits), warms it
    with an untimed disjoint stream, then fires the timed stream through
    a :class:`LoadGenerator`.  The outstanding-request cap stays below
    the tier's aggregate admission budget so the curve records scaling,
    not rejection behaviour (the 429 path has its own tests).
    """
    rows: list[dict] = []
    for workers in workers_counts:
        with ShardRouter(
            [("bench", checkpoint)],
            workers=workers,
            max_inflight_per_worker=max_inflight_per_worker,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            cache_size=0,
            fused=fused,
            dtype="float32",
        ) as router:
            client = Client(service=router)
            generator = LoadGenerator(
                lambda ids: client.rationalize(model="bench", token_ids=ids),
                workers=client_workers,
                max_outstanding=max_outstanding,
            )
            generator.run(warmup)
            row = {"workers": workers, **generator.run(stream)}
            router_stats = router.stats()["router"]
            row["rejected_overload"] = router_stats["rejected_overload"]
            row["worker_deaths"] = router_stats["worker_deaths"]
        rows.append(row)
    base = rows[0]["throughput_rps"] or 1.0
    for row in rows:
        row["speedup_vs_1_worker"] = round(row["throughput_rps"] / base, 2)
    return rows


def run_serve_bench(
    # 384 requests: the sequential phase is a single pass over the stream,
    # so the request count is its only averaging — on shared machines 192
    # left enough run-to-run variance to move every derived speedup ratio.
    n_requests: int = 384,
    vocab_size: int = 200,
    min_len: int = 8,
    max_len: int = 64,
    max_batch_size: int = 32,
    max_wait_ms: float = 8.0,
    workers: int = 32,
    fused: bool = True,
    seed: int = 0,
    out_path: Optional[str] = DEFAULT_SERVE_BENCH_PATH,
    scaling_workers: Sequence[int] = (1, 2, 4),
    scaling_requests: int = 256,
) -> list[dict]:
    """Run the three serving phases (+ the sharding sweep); return table
    rows, record the artifact.  ``scaling_workers=()`` skips the sweep."""
    stream = make_request_stream(n_requests, vocab_size, min_len, max_len, seed)
    # Untimed warmup requests (disjoint from `stream` via a different seed,
    # so they never pre-populate cache entries the timed phases replay):
    # the first requests through a fresh service pay one-off costs (lazy
    # imports, allocator warmup, cold buffer pools) that otherwise show up
    # as run-to-run noise in the sequential baseline — and through it, in
    # every derived speedup ratio.
    warmup = make_request_stream(32, vocab_size, min_len, max_len, seed + 1)
    rows: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        checkpoint = _build_artifact(tmp_dir, vocab_size, seed)

        def make_service(batching: bool, cache_size: int) -> RationalizationService:
            registry = ModelRegistry(dtype="float32")
            artifact = registry.register_file(checkpoint, name="bench")
            assert artifact.family == "RNP"
            return RationalizationService(
                registry,
                max_batch_size=max_batch_size if batching else 1,
                max_wait_ms=max_wait_ms if batching else 0.0,
                cache_size=cache_size,
                fused=fused,
            )

        with make_service(batching=False, cache_size=0) as service:
            _drive(service, "bench", warmup, workers=1)
            sequential = _drive(service, "bench", stream, workers=1)
        rows.append({"phase": "sequential", "cache": False, **sequential})

        metrics_scrape: Optional[dict] = None
        with make_service(batching=True, cache_size=4 * n_requests) as service:
            _drive(service, "bench", warmup, workers=workers)
            # Zero every subsystem's instruments (scheduler, cache, pool
            # ledger, kernel timings, latency histograms) in one atomic
            # registry reset so the reported behaviour describes only the
            # timed phases.
            service.metrics.reset()
            batched = _drive(service, "bench", stream, workers=workers)
            scheduler_stats = service.scheduler.stats()
            batched["mean_batch_size"] = scheduler_stats["mean_batch_size"]
            batched["largest_batch"] = scheduler_stats["largest_batch"]
            rows.append({"phase": "batched", "cache": False, **batched})

            before = service.cache.stats()
            cached = _drive(service, "bench", stream, workers=workers)
            after = service.cache.stats()
            replay = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
            cached["hit_rate"] = round((after["hits"] - before["hits"]) / replay, 4) if replay else 0.0
            rows.append({"phase": "cached", "cache": True, **cached})

            # Scrape /metrics from the live (still-warm) service the same
            # way Prometheus would, so the committed artifact carries a
            # grammar-validated snapshot of the run's telemetry.
            metrics_scrape = _scrape_metrics(service)

        scaling_rows: list[dict] = []
        if scaling_workers:
            scaling_rows = run_scaling_bench(
                checkpoint,
                stream[:scaling_requests],
                warmup,
                workers_counts=tuple(scaling_workers),
                max_batch_size=max_batch_size,
                max_wait_ms=max_wait_ms,
                fused=fused,
            )

    speedup = round(batched["throughput_rps"] / sequential["throughput_rps"], 2)
    for row in rows:
        row["speedup_vs_sequential"] = round(
            row["throughput_rps"] / sequential["throughput_rps"], 2
        )
    if out_path:
        artifact = {
            "benchmark": "serve_microbatching",
            "setup": {
                "n_requests": n_requests,
                "vocab_size": vocab_size,
                "min_len": min_len,
                "max_len": max_len,
                "max_batch_size": max_batch_size,
                "max_wait_ms": max_wait_ms,
                "workers": workers,
                "fused": fused,
                "seed": seed,
            },
            "results": rows,
            "batched_vs_sequential_speedup": speedup,
        }
        if scaling_rows:
            # The scaling curve is meaningful relative to the recording
            # machine's core count: a 1-core box cannot show sharding
            # speedup, so the smoke gate conditions on `cores`.
            artifact["scaling"] = {
                "cores": os.cpu_count(),
                "n_requests": len(stream[:scaling_requests]),
                "sweep": scaling_rows,
                "best_speedup_vs_1_worker": max(
                    row["speedup_vs_1_worker"] for row in scaling_rows
                ),
            }
        if metrics_scrape is not None:
            scrape_path = Path(out_path).with_name(SERVE_METRICS_SCRAPE_NAME)
            scrape_path.write_text(metrics_scrape["text"])
            artifact["metrics"] = {
                "scrape": SERVE_METRICS_SCRAPE_NAME,
                "families": metrics_scrape["families"],
                "requests_total": metrics_scrape["requests_total"],
                "note": (
                    "latency percentiles in `results` are derived from the "
                    "exported fixed-bucket histograms, not raw samples"
                ),
            }
        Path(out_path).write_text(json.dumps(artifact, indent=2) + "\n")
    return rows


def run_deploy_smoke(
    workers: int = 2,
    n_requests: int = 96,
    vocab_size: int = 120,
    min_len: int = 8,
    max_len: int = 32,
    client_workers: int = 8,
    max_outstanding: int = 16,
    seed: int = 0,
    out_path: Optional[str] = DEFAULT_DEPLOY_BENCH_PATH,
    shadow_overhead_budget: float = 0.10,
) -> dict:
    """End-to-end lifecycle smoke against a ``workers``-shard fleet.

    One scripted run of the whole deploy story (``make deploy-smoke``):

    1. serve a champion, measure a **baseline** load phase;
    2. ``deploy`` a challenger with ``shadow=True`` + ``warm=True`` and
       re-run the same load (**shadow** phase) — the p95 delta between
       the two phases is the shadow mirror's hot-path overhead, gated at
       ``shadow_overhead_budget`` on multi-core machines (a 1-core box
       timeshares the mirror thread with the serving path, so the gate
       records-but-does-not-enforce there);
    3. ``promote`` the challenger (closes the mirrors, which flushes the
       per-worker diff logs), verify the fleet now answers with the new
       version and a **post-promote** phase drops nothing;
    4. ``rollback`` and verify the old version answers again;
    5. summarize the shadow diff logs (``log.w*.jsonl`` glob) with
       :func:`repro.serve.diff.shadow_diff_report`.

    Records the whole run to ``BENCH_deploy.json``; the diff logs stay
    next to it for CI artifact upload.
    """
    from repro.serve.diff import shadow_diff_report

    # Each phase gets a disjoint stream (different seeds): a repeated
    # stream would replay the rationale cache in the later phases, and a
    # cache-hit phase cannot measure shadow-mirror hot-path overhead.
    streams = {
        "warmup": make_request_stream(24, vocab_size, min_len, max_len, seed + 1),
        "baseline": make_request_stream(n_requests, vocab_size, min_len, max_len, seed),
        "shadow": make_request_stream(n_requests, vocab_size, min_len, max_len, seed + 2),
        "post-promote": make_request_stream(n_requests, vocab_size, min_len, max_len, seed + 3),
    }
    artifact: dict = {
        "benchmark": "serve_deploy_lifecycle",
        "setup": {
            "workers": workers,
            "n_requests": n_requests,
            "vocab_size": vocab_size,
            "client_workers": client_workers,
            "max_outstanding": max_outstanding,
            "seed": seed,
        },
    }
    with tempfile.TemporaryDirectory() as tmp_dir:
        champion = _build_artifact(tmp_dir, vocab_size, seed)
        challenger_dir = os.path.join(tmp_dir, "challenger")
        os.makedirs(challenger_dir)
        # Different seed -> different (untrained) weights: the diff report
        # has real disagreement to summarize instead of a vacuous 100%.
        challenger = _build_artifact(challenger_dir, vocab_size, seed + 1)

        base = Path(out_path) if out_path else Path(tmp_dir) / "deploy.json"
        shadow_log = str(base.with_name(DEPLOY_SHADOW_LOG_NAME))
        shadow_glob = str(
            Path(shadow_log).with_name(f"{Path(shadow_log).stem}.w*.jsonl")
        )
        # Mirrors append; drop any previous run's logs so the report
        # describes exactly this run.
        for stale in glob.glob(shadow_glob):
            os.unlink(stale)

        with ShardRouter(
            [("deploy", champion)],
            workers=workers,
            max_inflight_per_worker=max_outstanding,
            cache_size=4 * n_requests,
            dtype="float32",
            request_log_size=4 * n_requests,
        ) as router:
            client = Client(service=router)
            generator = LoadGenerator(
                lambda ids: client.rationalize(model="deploy", token_ids=ids),
                workers=client_workers,
                max_outstanding=max_outstanding,
            )
            generator.run(streams["warmup"])
            baseline = {"phase": "baseline", **generator.run(streams["baseline"])}

            deploy_row = client.deploy(
                "deploy",
                challenger,
                shadow=True,
                diff_log=shadow_log,
                warm=True,
            )
            shadow_phase = {"phase": "shadow", **generator.run(streams["shadow"])}

            promote_row = client.promote("deploy")
            probe = streams["baseline"][0]
            probe_promoted = client.rationalize(model="deploy", token_ids=probe)
            post_promote = {
                "phase": "post-promote", **generator.run(streams["post-promote"])
            }

            rollback_row = client.rollback("deploy")
            probe_rolled_back = client.rationalize(model="deploy", token_ids=probe)
            deployments = client.deployments()

        phases = [baseline, shadow_phase, post_promote]
        diff = shadow_diff_report([shadow_glob])

    dropped = sum(
        row["rejected"] + row["timeouts"] + row["failures"] for row in phases
    )
    ratio = None
    if baseline.get("p95_ms") and shadow_phase.get("p95_ms"):
        ratio = round(shadow_phase["p95_ms"] / baseline["p95_ms"], 4)
    cores = os.cpu_count() or 1
    # The overhead gate only arms when the mirror threads have spare
    # cores to run on: with `workers` shard processes already pinning
    # the box, anything under (workers + 2) cores timeshares the mirror
    # with the serving path and measures the machine, not the design.
    enforced = cores >= workers + 2
    gate_ok = (
        dropped == 0
        and promote_row["version"] == probe_promoted["version"]
        and probe_rolled_back["version"] == rollback_row["version"]
        and (not enforced or ratio is None or ratio <= 1.0 + shadow_overhead_budget)
    )
    artifact.update(
        {
            "phases": phases,
            "deploy": deploy_row,
            "promote": promote_row,
            "rollback": rollback_row,
            "served_version_after_promote": probe_promoted["version"],
            "served_version_after_rollback": probe_rolled_back["version"],
            "deployments": deployments,
            "diff": diff,
            "shadow_diff_glob": shadow_glob if out_path else None,
            "gate": {
                "cores": cores,
                "enforced": enforced,
                "dropped_requests": dropped,
                "shadow_p95_overhead_ratio": ratio,
                "shadow_overhead_budget": shadow_overhead_budget,
                "pass": gate_ok,
            },
        }
    )
    if out_path:
        Path(out_path).write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact
