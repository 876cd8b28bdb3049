"""Workload ``serve``: open-loop ``POST /v1/rationalize`` at fixed offered rates.

A seeded DAR checkpoint is trained and saved in set-up and served by a
:class:`RationaleServer` in front of a :class:`ShardRouter` with
``workers = nproc``.  Single-sentence requests arrive as a Poisson process
at a few fixed rates, from light load to past the knee.  The sentences are
drawn from the synthetic Beer dev/test pool, and a fixed share of them
repeat a recent request exactly.  At most ``nproc`` connections are open;
a request due while every connection is busy waits in the generator, and
its latency counts from the time it was due.
"""

from __future__ import annotations

import itertools
import os
import shutil
import statistics
import threading
import time
import urllib.request
from dataclasses import dataclass

import numpy as np

from harness import OUT_DIR, CheckFailed, Options, PeakRSS, median_setup, nproc, percentile, summary, tail
from layers import SERVE_STAGES, kernel_metrics

MODEL = "beer_dar"

#: Latency limit on the tail percentile that decides whether a rate is met.
LIMIT_MS = 50.0
#: Share of requests that repeat one of the last REPEAT_WINDOW requests exactly.
REPEAT_SHARE = 0.2
REPEAT_WINDOW = 256
#: A phase is invalid when the generator itself ran later than this (p99).
GEN_LATE_LIMIT_MS = 5.0


@dataclass(frozen=True)
class Shape:
    n_train: int
    pool: int  # dev and test examples each: the request pool
    embedding_dim: int
    hidden_size: int
    epochs: int
    pretrain_epochs: int
    warmup: int  # untimed requests before the first phase
    rates: tuple  # offered requests/second of the sweep, ascending
    nominal_rate: float  # the rate latency is reported at


FULL = Shape(n_train=200, pool=1800, embedding_dim=64, hidden_size=24, epochs=3,
             pretrain_epochs=3, warmup=100, rates=(100, 150, 200, 300), nominal_rate=50)
TINY = Shape(n_train=40, pool=60, embedding_dim=16, hidden_size=8, epochs=1,
             pretrain_epochs=1, warmup=10, rates=(40, 80), nominal_rate=20)

#: Share of the measured window spent at the nominal rate (the rest is the sweep).
NOMINAL_SHARE = 0.75


def _no_proxy_for_loopback() -> None:
    """Keep the loopback requests off any proxy the environment names."""
    for var in ("no_proxy", "NO_PROXY"):
        hosts = [h for h in os.environ.get(var, "").split(",") if h]
        os.environ[var] = ",".join(hosts + ["127.0.0.1", "localhost"])


# ----------------------------------------------------------------------
# Prometheus text (GET /metrics)
# ----------------------------------------------------------------------
def scrape(url: str) -> dict:
    """``{(name, ((label, value), ...)): value}`` of one ``/metrics`` page."""
    with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, labels = head, ()
        if "{" in head:
            name, rest = head.split("{", 1)
            pairs = []
            for part in _split_labels(rest.rstrip("}")):
                key, raw = part.split("=", 1)
                pairs.append((key, raw.strip('"')))
            labels = tuple(sorted(pairs))
        samples[(name, labels)] = float(value)
    return samples


def _split_labels(text: str) -> list[str]:
    parts, current, quoted = [], [], False
    for char in text:
        if char == '"' and (not current or current[-1] != "\\"):
            quoted = not quoted
        if char == "," and not quoted:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        parts.append("".join(current))
    return parts


def delta(before: dict, after: dict, name: str, **match) -> float:
    """Increase of every sample of ``name`` whose labels include ``match``."""
    total = 0.0
    for (sample, labels), value in after.items():
        if sample != name or not set(match.items()) <= set(labels):
            continue
        total += value - before.get((sample, labels), 0.0)
    return total


def per_label(before: dict, after: dict, name: str, label: str) -> dict:
    out: dict = {}
    for (sample, labels), value in after.items():
        if sample == name:
            key = dict(labels).get(label)
            out[key] = out.get(key, 0.0) + value - before.get((sample, labels), 0.0)
    return out


def histogram_p50_ms(before: dict, after: dict, name: str) -> float:
    """Median of a Prometheus histogram's increase, interpolated in its bucket."""
    buckets: dict[float, float] = {}
    for (sample, labels), value in after.items():
        if sample != name + "_bucket":
            continue
        bound = float(dict(labels)["le"])
        buckets[bound] = buckets.get(bound, 0.0) + value - before.get((sample, labels), 0.0)
    bounds = sorted(buckets)
    total = buckets[bounds[-1]] if bounds else 0.0
    if total <= 0:
        return 0.0
    lower, below = 0.0, 0.0
    for bound in bounds:
        if buckets[bound] >= total / 2:
            if bound == float("inf"):
                return 1000.0 * lower
            inside = buckets[bound] - below
            share = (total / 2 - below) / inside if inside else 0.0
            return 1000.0 * (lower + (bound - lower) * share)
        lower, below = bound, buckets[bound]
    return 1000.0 * lower


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def make_stream(pool: list, n: int, rng: np.random.Generator) -> tuple[list, float]:
    """``n`` token-id lists: fresh pool sentences, with REPEAT_SHARE exact
    repeats of recent requests.  Returns the stream and its measured share
    of requests that repeat an earlier one exactly."""
    order = rng.permutation(len(pool))
    stream, fresh = [], 0
    for i in range(n):
        if i and rng.random() < REPEAT_SHARE:
            stream.append(stream[i - 1 - int(rng.integers(min(i, REPEAT_WINDOW)))])
        else:
            stream.append(pool[order[fresh % len(order)]])
            fresh += 1
    return stream, 1.0 - len({tuple(ids) for ids in stream}) / n


@dataclass
class Phase:
    """One fixed offered rate and the requests sent at it."""

    name: str
    rate: float
    requests: list
    debug: bool = False
    records: list = None

    def run(self, url: str, connections: int, rng: np.random.Generator) -> None:
        from repro.serve import Client, ServeClientError

        n = len(self.requests)
        offsets = np.cumsum(rng.exponential(1.0 / self.rate, size=n))
        self.records = [None] * n
        lock = threading.Lock()
        cursor = iter(range(n))
        start = time.perf_counter() + 0.05

        def sender() -> None:
            client = Client(base_url=url, timeout_s=30.0)
            free_at = time.perf_counter()
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = start + offsets[i]
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    response, status = client.rationalize(
                        model=MODEL, token_ids=self.requests[i], debug=self.debug), 200
                except ServeClientError as exc:
                    response, status = None, exc.status
                done = time.perf_counter()
                self.records[i] = {
                    "due": due, "sent": sent, "done": done, "ready": max(due, free_at),
                    "status": status, "response": response,
                }
                free_at = done

        threads = [threading.Thread(target=sender, name=f"perfbench-conn{c}") for c in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # ------------------------------------------------------------------
    def latencies_ms(self) -> list[float]:
        """Due-to-done latency; a failed request counts as missing every limit."""
        return [1000.0 * (r["done"] - r["due"]) if r["status"] == 200 else float("inf")
                for r in self.records]

    def stats(self) -> dict:
        records = self.records
        latencies = self.latencies_ms()
        ok = [r for r in records if r["status"] == 200]
        late = [1000.0 * (r["sent"] - r["ready"]) for r in records]
        waits = [r["sent"] - r["due"] for r in records]
        quarter = max(len(waits) // 4, 1)
        # Backlog grows when requests wait longer for a free connection at
        # the end of the phase than at its start.
        growth_ms = 1000.0 * (statistics.fmean(waits[-quarter:]) - statistics.fmean(waits[:quarter]))
        label, tail_ms = tail(latencies)
        gen_late = percentile(late, 99.0)
        span_s = max(r["done"] for r in records) - min(r["due"] for r in records)
        return {
            "name": self.name,
            "rate": self.rate,
            "sent": len(records),
            "succeeded": len(ok),
            "failed": len(records) - len(ok),
            "rejected": sum(1 for r in records if r["status"] == 429),
            "latency_ms.p50": percentile(latencies, 50.0),
            "latency_ms.tail": tail_ms,
            "tail_at": label,
            "achieved_rps": len(ok) / span_s,
            "backlog_growth_ms": growth_ms,
            "gen.late_ms.p99": gen_late,
            "valid": bool(gen_late <= GEN_LATE_LIMIT_MS),
            "meets_limit": bool(tail_ms <= LIMIT_MS and growth_ms <= LIMIT_MS / 2),
        }


# ----------------------------------------------------------------------
def _setup(opts: Options, shape: Shape, work):
    from repro.core import DAR, TrainConfig, train_rationalizer
    from repro.data import AspectDataset, build_beer_dataset
    from repro.serve import Client, RationaleServer, ShardRouter, save_artifact

    counter = itertools.count()

    def build():
        dataset = build_beer_dataset("Aroma", n_train=shape.n_train, n_dev=shape.pool,
                                     n_test=shape.pool, embedding_dim=shape.embedding_dim,
                                     seed=opts.seed)
        # Train with small probe sets; the full dev/test pool is the traffic.
        probes = AspectDataset(dataset.aspect, dataset.train, dataset.dev[:100],
                               dataset.test[:100], dataset.vocab, dataset.embeddings)
        model = DAR(vocab_size=len(dataset.vocab), embedding_dim=shape.embedding_dim,
                    hidden_size=shape.hidden_size, alpha=dataset.gold_sparsity(),
                    temperature=0.8, pretrained_embeddings=dataset.embeddings,
                    rng=np.random.default_rng(opts.seed))
        train_rationalizer(model, probes, TrainConfig(
            epochs=shape.epochs, pretrain_epochs=shape.pretrain_epochs, batch_size=100,
            lr=2e-3, seed=opts.seed, dtype="float32", fused=True))
        path = work / f"ckpt{next(counter)}" / f"{MODEL}.npz"
        path.parent.mkdir(parents=True)
        save_artifact(model, path, vocab=dataset.vocab)
        router = ShardRouter([(MODEL, str(path))], workers=nproc(),
                             request_timeout_s=30.0)
        try:
            server = RationaleServer(router, port=0).start()
        except BaseException:
            router.close()
            raise
        Client(base_url=server.url).health()
        return dataset, path, server

    return median_setup(build, lambda built: built[2].shutdown(), reps=3)


def _reference(path, sentences: list) -> dict:
    """Label and rationale mask per sentence from an in-process
    InferenceSession on the same checkpoint.  Sentences are batched only
    with sentences of the same length, so no reference batch is padded."""
    from repro.backend import fusion
    from repro.core import InferenceSession
    from repro.data import ReviewExample
    from repro.serve import ModelRegistry

    registry = ModelRegistry(dtype="float32")
    model = registry.register_file(path, name=MODEL).model
    session = InferenceSession(model, batch_size=64, bucketing=False)

    def run(batch):
        mask = np.asarray(model.select(batch))
        labels = model.predictor.predict(batch.token_ids, mask, batch.mask)
        return [(int(labels[i]), [int(v) for v in mask[i] > 0.5]) for i in range(len(labels))]

    by_length: dict[int, list] = {}
    for ids in sentences:
        by_length.setdefault(len(ids), []).append(ids)
    expected = {}
    with fusion(True):
        for group in by_length.values():
            examples = [ReviewExample(tokens=[""] * len(ids), token_ids=np.asarray(ids, dtype=np.int64),
                                      label=0, rationale=np.zeros(len(ids), dtype=np.int64),
                                      aspect="serve") for ids in group]
            answers = [a for batch in session.map_batches(run, examples) for a in batch]
            expected.update(zip(group, answers))
    return expected


def _check(phases: list, path, corrupt: bool) -> None:
    for phase in phases:
        if None in phase.records:
            raise CheckFailed(f"phase {phase.name}: a request was never answered")
        stats = phase.stats()
        if stats["sent"] != stats["succeeded"] + stats["failed"]:
            raise CheckFailed(f"phase {phase.name}: sent != succeeded + failed")
    responses = [(tuple(phase.requests[i]), r["response"])
                 for phase in phases for i, r in enumerate(phase.records) if r["status"] == 200]
    if corrupt and responses:
        ids, response = responses[0]
        flipped = list(response["rationale"])
        flipped[0] = 1 - flipped[0]
        responses[0] = (ids, dict(response, rationale=flipped))
    expected = _reference(path, list({ids for ids, _ in responses}))
    for ids, response in responses:
        label, mask = expected[ids]
        if response["label"] != label or response["rationale"] != mask:
            raise CheckFailed(
                f"served {response['label']}/{response['rationale']} for {list(ids)}, "
                f"in-process InferenceSession gives {label}/{mask}")


def max_rate(phases: list) -> float:
    """The highest fixed rate whose tail meets LIMIT_MS with no growing
    backlog, among phases where the generator kept up (0 if none)."""
    met = [s["rate"] for s in (p.stats() for p in phases) if s["valid"] and s["meets_limit"]]
    return max(met, default=0.0)


def run(opts: Options, rss: PeakRSS) -> dict:
    _no_proxy_for_loopback()
    shape = TINY if opts.tiny else FULL
    connections = nproc()
    work = OUT_DIR / f"serve-seed{opts.seed}"
    shutil.rmtree(work, ignore_errors=True)
    (dataset, path, server), setup_s, setup_all = _setup(opts, shape, work)
    try:
        return _measure(opts, shape, connections, dataset, path, server, setup_s, setup_all, rss)
    finally:
        server.shutdown()
        shutil.rmtree(work, ignore_errors=True)


def _measure(opts, shape, connections, dataset, path, server, setup_s, setup_all, rss) -> dict:
    rng = np.random.default_rng(opts.seed)
    pool = [[int(t) for t in e.token_ids] for e in (*dataset.dev, *dataset.test)]
    warm = [[int(t) for t in e.token_ids] for e in dataset.train[: shape.warmup]]
    Phase("warmup", shape.nominal_rate, warm).run(server.url, connections, rng)

    if opts.trace:
        n = int(shape.nominal_rate * opts.seconds / 2)
        plan = [("untraced", shape.nominal_rate, n, False), ("traced", shape.nominal_rate, n, True)]
    else:
        sweep_s = (1.0 - NOMINAL_SHARE) * opts.seconds / len(shape.rates)
        plan = [(f"r{rate:g}", rate, int(rate * sweep_s), False) for rate in shape.rates]
        n = int(shape.nominal_rate * NOMINAL_SHARE * opts.seconds)
        plan = sorted(plan + [("nominal", shape.nominal_rate, n, False)], key=lambda item: item[1])
    stream, repeat_frac = make_stream(pool, sum(item[2] for item in plan), rng)
    phases, taken = [], 0
    scrapes = {}
    for name, rate, n, debug in plan:
        phase = Phase(name, rate, stream[taken: taken + n], debug=debug)
        taken += n
        before = scrape(server.url)
        phase.run(server.url, connections, rng)
        scrapes[name] = (before, scrape(server.url))
        phases.append(phase)

    checked = time.perf_counter()
    _check(phases, path, opts.corrupt)
    checked = time.perf_counter() - checked
    for phase in phases:
        before, after = scrapes[phase.name]
        received = delta(before, after, "repro_http_requests_total", route="/v1/rationalize")
        if received != len(phase.records):
            raise CheckFailed(f"phase {phase.name}: sent {len(phase.records)}, server counted {received}")

    by_name = {p.name: p for p in phases}
    attempted = sum(len(p.records) for p in phases)
    failed = sum(p.stats()["failed"] for p in phases)
    report = {
        "run_id": f"serve-{opts.seed}",
        "setup_s_all": setup_all,
        "connections": connections,
        "limit_ms": LIMIT_MS,
        "stream_repeat_frac": repeat_frac,
        "check_s": checked,
        "phases": [p.stats() for p in phases],
    }
    if not opts.trace:
        nominal = by_name["nominal"]
        stats = nominal.stats()
        report["nominal"] = stats
        report["max_rate_rps"] = max_rate(phases)
        # Capacity: the completion rate while offered more than the tier can
        # serve (the sweep's last phase is past the knee).
        capacity = max(phases, key=lambda p: p.rate).stats()["achieved_rps"]
        report["capacity_rps"] = capacity
        return {
            "attempted": attempted,
            "failed": failed,
            "report": report,
            "metrics": {
                "setup_s": setup_s,
                "peak_rss_mb": rss.mib(),
                "ok_frac": (attempted - failed) / attempted,
                "latency_ms.p50": stats["latency_ms.p50"],
                "throughput_per_s": capacity,
            },
        }
    return _layers(by_name["untraced"], by_name["traced"], scrapes["traced"], report,
                   attempted, failed)


def _layers(untraced: Phase, traced: Phase, scraped: tuple, report: dict, attempted: int,
            failed: int) -> dict:
    before, after = scraped
    ok = [r for r in traced.records if r["status"] == 200]
    stage_ms = {stage: 0.0 for stage in SERVE_STAGES}
    edge, unattributed, total, tiling = [], 0.0, 0.0, []
    served_ms = covered_ms = 0.0
    for record in ok:
        response = record["response"]
        spans = response["trace"]["spans"]
        for span in spans:
            if span["name"] not in stage_ms:
                raise CheckFailed(f"unexpected serve span {span['name']!r}")
            stage_ms[span["name"]] += span["ms"]
        rtt_ms = 1000.0 * (record["done"] - record["sent"])
        covered = sum(span["ms"] for span in spans)
        edge.append(rtt_ms - response["latency_ms"])
        unattributed += abs(response["latency_ms"] - covered)
        total += rtt_ms
        served_ms += response["latency_ms"]
        covered_ms += covered
        tiling.append(abs(covered - response["latency_ms"]) / response["latency_ms"])
    # The program's own trace contract: the stage spans tile the served
    # latency within 5%.  Under load single requests can miss it (the
    # report counts them); the stage means must tile the mean latency.
    if abs(covered_ms - served_ms) > 0.05 * served_ms:
        raise CheckFailed(f"stage spans sum to {covered_ms:.1f} ms of {served_ms:.1f} ms served")
    report["tiling_outside_5pct"] = sum(1 for err in tiling if err > 0.05) / len(tiling)

    hits = delta(before, after, "repro_cache_hits_total")
    lookups = hits + delta(before, after, "repro_cache_misses_total")
    batches = delta(before, after, "repro_scheduler_batches_total")
    dispatched = list(per_label(before, after, "repro_worker_dispatched_total", "worker").values())
    pool_hits = delta(before, after, "repro_pool_hits_total")
    pool_lookups = pool_hits + delta(before, after, "repro_pool_misses_total")
    calls = per_label(before, after, "repro_kernel_calls_total", "kernel")
    seconds = per_label(before, after, "repro_kernel_seconds_total", "kernel")
    n = len(ok)
    metrics = {
        "http.edge_ms": statistics.fmean(edge),
        **{f"serve.stage.{stage}_ms": ms / n for stage, ms in stage_ms.items()},
        "serve.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "serve.stream.repeat_frac": report["stream_repeat_frac"],
        "serve.scheduler.batch_size.mean": (
            delta(before, after, "repro_scheduler_batched_items_total") / batches if batches else 0.0),
        "serve.batch_exec_ms.p50": histogram_p50_ms(before, after, "repro_batch_latency_seconds"),
        "serve.router.rejected": delta(before, after, "repro_router_rejected_total"),
        "serve.router.worker_deaths": delta(before, after, "repro_router_worker_deaths_total"),
        "serve.shard_balance": max(dispatched) / min(dispatched) if dispatched and min(dispatched) else 0.0,
        "gen.late_ms.p99": traced.stats()["gen.late_ms.p99"],
        "backend.pool.hit_ratio": pool_hits / pool_lookups if pool_lookups else 0.0,
        "trace.overhead": traced.stats()["latency_ms.p50"] / untraced.stats()["latency_ms.p50"],
        "trace.unattributed_frac": unattributed / total,
    }
    metrics.update(kernel_metrics(
        {k: (calls[k], 1000.0 * seconds.get(k, 0.0)) for k in calls if calls[k]}, per=n))
    report["tiling_err"] = summary(tiling)
    # One row per stage of every traced request, plus its HTTP edge time.
    spans = []
    for record, edge_ms in zip(ok, edge):
        response = record["response"]
        for span in [*response["trace"]["spans"], {"name": "http.edge", "ms": edge_ms}]:
            spans.append({"run_id": report["run_id"], "request_id": response["request_id"],
                          "name": span["name"], "ms": span["ms"]})
    return {"attempted": attempted, "failed": failed, "report": report, "metrics": metrics, "spans": spans}
