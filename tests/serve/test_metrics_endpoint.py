"""`GET /metrics`, `GET /tracez` and debug tracing against live servers.

The acceptance surface of the observability layer (PR 8): the exposition
must be grammar-valid under a strict 0.0.4 parser for both the
single-process service and the sharded tier (where the router merges
worker snapshots bucket-wise), and a ``debug=true`` request must come
back with a span timeline that sums (±5%) to its measured end-to-end
latency.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.core import RNP
from repro.obs import merge_snapshots, parse_prometheus, sample_value
from repro.serve import (
    Client,
    ModelRegistry,
    RationaleServer,
    RationalizationService,
    ShardRouter,
    save_artifact,
)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("metrics_ckpt")
    model = RNP(vocab_size=64, embedding_dim=16, hidden_size=8, rng=np.random.default_rng(0))
    path = tmp_path / "tiny.npz"
    save_artifact(model, path)
    return str(path)


@pytest.fixture
def service(checkpoint):
    registry = ModelRegistry(dtype="float32")
    registry.register_file(checkpoint, name="tiny")
    with RationalizationService(registry, max_batch_size=8, max_wait_ms=2.0) as svc:
        yield svc


def _scrape(url):
    with urllib.request.urlopen(url + "/metrics", timeout=10.0) as response:
        assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
        return parse_prometheus(response.read().decode("utf-8"))


class TestMetricsEndpoint:
    def test_single_process_scrape_grammar_and_families(self, service):
        with RationaleServer(service, port=0) as server:
            client = Client(base_url=server.url)
            for i in range(6):
                client.rationalize(model="tiny", token_ids=[1 + i, 2, 3])
            client.rationalize(model="tiny", token_ids=[1, 2, 3])  # cache hit
            families = _scrape(server.url)

        # Request counters, split by cache outcome.
        assert sample_value(
            families, "repro_requests_total", {"model": "tiny", "cached": "false"}
        ) == 6
        assert sample_value(
            families, "repro_requests_total", {"model": "tiny", "cached": "true"}
        ) == 1
        # Every instrumented subsystem shows up in one scrape.
        for name in (
            "repro_request_latency_seconds",
            "repro_batch_latency_seconds",
            "repro_scheduler_requests_total",
            "repro_scheduler_queue_depth",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_cache_size",
            "repro_pool_hits_total",
            "repro_kernel_calls_total",
            "repro_http_requests_total",
        ):
            assert name in families, name
        assert sample_value(families, "repro_cache_hits_total", {}) == 1
        assert families["repro_request_latency_seconds"]["type"] == "histogram"
        assert sample_value(
            families, "repro_request_latency_seconds_count", {"model": "tiny"}
        ) == 7
        assert sample_value(
            families, "repro_http_requests_total", {"route": "/v1/rationalize", "status": "200"}
        ) == 7

    def test_request_counted_before_its_reply_is_sent(self, service, monkeypatch):
        from repro.serve.http import _Handler

        with RationaleServer(service, port=0) as server:
            client = Client(base_url=server.url)
            client.health()
            counter = service.metrics.get("repro_http_requests_total")
            seen = []
            send = _Handler._send_text

            def recording_send(handler, text, content_type, status=200):
                seen.append(counter.value(route="/healthz", status="200"))
                send(handler, text, content_type, status)

            monkeypatch.setattr(_Handler, "_send_text", recording_send)
            client.health()
        # A scrape issued the moment a response arrives must count it.
        assert seen == [2.0]

    def test_debug_trace_spans_sum_to_latency(self, service):
        with RationaleServer(service, port=0) as server:
            client = Client(base_url=server.url)
            response = client.rationalize(
                model="tiny", token_ids=[5, 6, 7], debug=True, request_id="feedc0de00000001"
            )
        assert response["request_id"] == "feedc0de00000001"
        trace = response["trace"]
        assert trace["request_id"] == "feedc0de00000001"
        names = [span["name"] for span in trace["spans"]]
        for stage in ("validate", "cache_lookup", "queue_wait", "inference", "serialization"):
            assert stage in names, names
        total = sum(span["ms"] for span in trace["spans"])
        assert total == pytest.approx(trace["total_ms"])
        assert total == pytest.approx(response["latency_ms"], rel=0.05)

    def test_non_debug_requests_carry_no_trace(self, service):
        with RationaleServer(service, port=0) as server:
            client = Client(base_url=server.url)
            response = client.rationalize(model="tiny", token_ids=[1, 2])
        assert "trace" not in response
        assert len(response["request_id"]) == 16

    def test_tracez_serves_recorded_traces(self, service):
        with RationaleServer(service, port=0) as server:
            client = Client(base_url=server.url)
            client.rationalize(model="tiny", token_ids=[9, 9], debug=True, request_id="aaaa0000aaaa0000")
            with urllib.request.urlopen(server.url + "/tracez", timeout=10.0) as response:
                assert response.headers["Content-Type"].startswith("application/x-ndjson")
                lines = response.read().decode("utf-8").splitlines()
        traces = [json.loads(line) for line in lines if line]
        assert any(t["request_id"] == "aaaa0000aaaa0000" for t in traces)


class TestShardedMetrics:
    def test_fleet_scrape_merges_workers(self, checkpoint):
        with ShardRouter([checkpoint], workers=2, max_wait_ms=2.0) as router:
            client = Client(service=router)
            for i in range(8):
                client.rationalize(token_ids=[1 + i, 2, 3])
            with RationaleServer(router, port=0) as server:
                families = _scrape(server.url)

        # Fleet totals: every request landed on some worker and was
        # counted in both the router's and its worker's registries.
        worker_total = sum(
            value
            for _, labels, value in families["repro_worker_completed_total"]["samples"]
        )
        assert worker_total == 8
        assert sample_value(families, "repro_router_routed_total", {}) == 8
        assert sample_value(
            families, "repro_request_latency_seconds_count", {"model": "tiny"}
        ) == 8
        # Two workers contributed distinct labeled series.
        workers = {
            labels["worker"]
            for _, labels, _ in families["repro_worker_completed_total"]["samples"]
        }
        assert len(workers) == 2

    def test_router_histogram_merge_equals_worker_sum(self, checkpoint):
        with ShardRouter([checkpoint], workers=2, max_wait_ms=2.0) as router:
            client = Client(service=router)
            for i in range(10):
                client.rationalize(token_ids=[3 + i, 1])
            merged = router.metrics_snapshot()
            # Re-probe each worker individually through the same op the
            # router uses, so the bucket-wise merge is checked against
            # ground truth (the sum of per-worker snapshots).
            per_worker = [
                snapshot
                for _, snapshot in router.probe("metrics", worker_timeout_s=10.0)
            ]
            assert all(snapshot is not None for snapshot in per_worker)

        worker_merged = merge_snapshots(per_worker)
        name = "repro_request_latency_seconds"
        expect = worker_merged[name]["series"][("tiny",)]
        got = merged[name]["series"][("tiny",)]
        assert got["count"] == expect["count"] == 10
        assert got["counts"] == expect["counts"]
        assert got["sum"] == pytest.approx(expect["sum"])

    def test_debug_trace_spliced_across_process_boundary(self, checkpoint):
        with ShardRouter([checkpoint], workers=1, max_wait_ms=2.0) as router:
            response = router.call(
                "rationalize",
                {"token_ids": [2, 4, 6], "debug": True, "request_id": "bbbb1111bbbb1111"},
            )
        trace = response["trace"]
        assert trace["request_id"] == "bbbb1111bbbb1111"
        names = [span["name"] for span in trace["spans"]]
        assert "admission" in names
        assert "transport" in names  # the splice residual
        assert "inference" in names  # the worker's inner timeline
        total = sum(span["ms"] for span in trace["spans"])
        assert total == pytest.approx(response["latency_ms"], rel=0.05)
