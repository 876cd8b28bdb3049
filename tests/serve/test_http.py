"""HTTP JSON API + service + client round-trips against a live server."""

import json
import logging
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import RNP
from repro.serve import (
    Client,
    ModelRegistry,
    RationaleServer,
    RationalizationService,
    ServeClientError,
    save_artifact,
)


@pytest.fixture(scope="module")
def served(tiny_beer, tmp_path_factory):
    """One live server (ephemeral port) shared by the module's tests."""
    tmp_path = tmp_path_factory.mktemp("serve_http")
    model = RNP(
        vocab_size=len(tiny_beer.vocab), embedding_dim=64, hidden_size=8,
        alpha=0.2, pretrained_embeddings=tiny_beer.embeddings,
        rng=np.random.default_rng(0),
    )
    save_artifact(model, tmp_path / "beer.npz", vocab=tiny_beer.vocab)
    registry = ModelRegistry(dtype="float32")
    registry.discover(tmp_path)
    service = RationalizationService(registry, max_batch_size=8, max_wait_ms=2.0)
    server = RationaleServer(service, port=0).start()
    yield server, service, model
    server.shutdown()


@pytest.fixture
def socket_client(served):
    server, _, _ = served
    return Client(base_url=server.url)


class TestEndpoints:
    def test_healthz(self, socket_client):
        health = socket_client.health()
        assert health["status"] == "ok"
        assert health["models"] == ["beer"]

    def test_models_listing(self, socket_client):
        rows = socket_client.models()
        assert len(rows) == 1
        row = rows[0]
        assert row["name"] == "beer" and row["family"] == "RNP"
        assert row["dtype"] == "float32" and row["has_vocab"]

    def test_rationalize_with_token_ids(self, served, socket_client, tiny_beer):
        _, _, model = served
        example = tiny_beer.test[0]
        response = socket_client.rationalize(
            model="beer", token_ids=[int(t) for t in example.token_ids]
        )
        assert response["n_tokens"] == len(example)
        assert len(response["rationale"]) == len(example)
        assert set(response["rationale"]) <= {0, 1}
        assert response["n_selected"] == sum(response["rationale"])
        assert response["label"] in (0, 1)
        # response matches a direct single-example forward pass
        from repro.data import pad_batch

        batch = pad_batch([example])
        np.testing.assert_array_equal(
            np.asarray(response["rationale"], dtype=np.float64),
            model.select(batch)[0],
        )

    def test_rationalize_with_tokens_and_cache(self, socket_client, tiny_beer):
        example = tiny_beer.test[1]
        first = socket_client.rationalize(model="beer", tokens=example.tokens)
        again = socket_client.rationalize(model="beer", tokens=example.tokens)
        assert first["selected_tokens"] == [
            t for t, m in zip(example.tokens, first["rationale"]) if m
        ]
        assert again["cached"] is True
        assert again["rationale"] == first["rationale"]

    def test_model_defaulting_with_single_artifact(self, socket_client):
        response = socket_client.rationalize(token_ids=[2, 3, 4, 5])
        assert response["model"] == "beer"

    def test_statz_counts_traffic(self, socket_client):
        socket_client.rationalize(model="beer", token_ids=[2, 3, 4])
        stats = socket_client.stats()
        assert stats["scheduler"]["requests"] >= 1
        assert stats["cache"]["hits"] + stats["cache"]["misses"] >= 1
        assert stats["latency"]["count"] >= 1

    def test_statz_reports_backend_observability(self, socket_client):
        """Per-kernel wall time and buffer-pool counters ride along on /statz
        so serving perf is inspectable without an external profiler."""
        socket_client.rationalize(model="beer", token_ids=[6, 7, 8])
        backend_stats = socket_client.stats()["backend"]
        timings = backend_stats["kernel_timings"]
        assert isinstance(timings, dict)
        for entry in timings.values():
            assert entry["calls"] >= 1 and entry["total_ms"] >= 0.0
        pool = backend_stats["buffer_pool"]
        # The worker's pooled session draws its padded-batch arrays from
        # the buffer pool, so serving traffic must have exercised it.
        assert pool["hits"] + pool["misses"] > 0
        assert "hit_rate" in pool and "retained_bytes" in pool

    def test_concurrent_socket_requests_all_answer(self, served, socket_client):
        server, service, _ = served
        rng = np.random.default_rng(5)
        streams = [[int(t) for t in rng.integers(2, 40, size=rng.integers(4, 12))]
                   for _ in range(16)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(
                lambda ids: socket_client.rationalize(model="beer", token_ids=ids), streams
            ))
        assert all(r["n_tokens"] == len(s) for r, s in zip(responses, streams))


class TestBatchedPayloads:
    def test_inputs_round_trip_with_per_item_cache_flags(self, socket_client, tiny_beer):
        example = tiny_beer.test[3]
        ids = [int(t) for t in example.token_ids]
        # Prime the cache with one item, then send it inside a batch.
        socket_client.rationalize(model="beer", token_ids=ids)
        response = socket_client.rationalize_many(
            model="beer", inputs=[ids, [2, 3, 4, 5, 6], {"token_ids": [7, 8, 9]}]
        )
        assert response["count"] == 3
        assert response["model"] == "beer"
        flags = [r["cached"] for r in response["results"]]
        assert flags[0] is True and flags[1] is False and flags[2] is False
        assert response["cached_count"] == 1
        assert [len(r["rationale"]) for r in response["results"]] == [len(ids), 5, 3]
        # Batched result for the primed item matches the single-request path.
        single = socket_client.rationalize(model="beer", token_ids=ids)
        assert response["results"][0]["rationale"] == single["rationale"]

    def test_inputs_accept_token_strings(self, socket_client, tiny_beer):
        example = tiny_beer.test[4]
        response = socket_client.rationalize_many(
            model="beer", inputs=[example.tokens, {"tokens": example.tokens[:3]}]
        )
        assert response["count"] == 2
        assert response["results"][0]["tokens"] == list(example.tokens)
        assert "selected_tokens" in response["results"][0]

    def test_one_wave_per_batched_payload(self, served, socket_client):
        _, service, _ = served
        before = service.scheduler.stats()["waves"]
        socket_client.rationalize_many(
            model="beer", inputs=[[10 + i, 11 + i, 12 + i] for i in range(6)]
        )
        waves = service.scheduler.stats()["waves"] - before
        # All six misses were submitted before any result was awaited, so
        # the scheduler coalesced them instead of running them one by one.
        assert waves <= 2

    def test_invalid_item_names_its_index(self, socket_client):
        with pytest.raises(ServeClientError) as err:
            socket_client.rationalize_many(model="beer", inputs=[[1, 2], [1.5]])
        assert err.value.status == 400
        assert "inputs[1]" in str(err.value)

    def test_empty_inputs_rejected(self, socket_client):
        with pytest.raises(ServeClientError) as err:
            socket_client.rationalize_many(model="beer", inputs=[])
        assert err.value.status == 400

    def test_inputs_exclusive_with_single_form(self, served):
        server, _, _ = served
        request = urllib.request.Request(
            server.url + "/v1/rationalize",
            data=b'{"model": "beer", "inputs": [[1, 2]], "token_ids": [1, 2]}',
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_in_process_many_matches_socket(self, served, socket_client):
        _, service, _ = served
        local = Client(service=service)
        inputs = [[3, 4, 5], [6, 7, 8, 9]]
        over_socket = socket_client.rationalize_many(model="beer", inputs=inputs)
        in_process = local.rationalize_many(model="beer", inputs=inputs)
        assert [r["rationale"] for r in in_process["results"]] == [
            r["rationale"] for r in over_socket["results"]
        ]


class TestErrors:
    def test_unknown_model_404(self, socket_client):
        with pytest.raises(ServeClientError) as err:
            socket_client.rationalize(model="missing", token_ids=[1, 2])
        assert err.value.status == 404

    def test_missing_payload_400(self, socket_client):
        with pytest.raises(ServeClientError) as err:
            socket_client.rationalize(model="beer")
        assert err.value.status == 400

    def test_both_payloads_400(self, socket_client):
        with pytest.raises(ServeClientError) as err:
            socket_client.rationalize(model="beer", token_ids=[1], tokens=["a"])
        assert err.value.status == 400

    def test_non_string_model_400_not_500(self, served):
        server, _, _ = served
        request = urllib.request.Request(
            server.url + "/v1/rationalize",
            data=b'{"model": ["beer"], "token_ids": [1, 2, 3]}',
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_unexpected_error_500_is_logged_with_request_id(
        self, served, monkeypatch, caplog
    ):
        server, service, _ = served

        def broken(name, body):
            raise RuntimeError("scheduler exploded")

        monkeypatch.setattr(service, "call", broken)
        body = {"model": "beer", "token_ids": [2, 3], "request_id": "req-500"}
        request = urllib.request.Request(
            server.url + "/v1/rationalize",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with caplog.at_level(logging.ERROR, logger="repro.serve.http"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 500
        [record] = [r for r in caplog.records if r.name == "repro.serve.http"]
        assert "req-500" in record.getMessage()
        assert record.exc_info[0] is RuntimeError

    def test_float_ids_rejected_not_truncated(self, socket_client):
        with pytest.raises(ServeClientError) as err:
            socket_client.rationalize(model="beer", token_ids=[1.9, 2.7])
        assert err.value.status == 400

    def test_out_of_range_ids_400(self, socket_client, tiny_beer):
        with pytest.raises(ServeClientError) as err:
            socket_client.rationalize(model="beer", token_ids=[len(tiny_beer.vocab) + 7])
        assert err.value.status == 400

    def test_invalid_json_400(self, served):
        server, _, _ = served
        request = urllib.request.Request(
            server.url + "/v1/rationalize", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_unknown_route_404(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/v2/nothing", timeout=10)
        assert err.value.code == 404


class TestInProcessClient:
    def test_requires_exactly_one_transport(self):
        with pytest.raises(ValueError):
            Client()

    def test_in_process_matches_socket(self, served, socket_client, tiny_beer):
        _, service, _ = served
        local = Client(service=service)
        example = tiny_beer.test[2]
        ids = [int(t) for t in example.token_ids]
        over_socket = socket_client.rationalize(model="beer", token_ids=ids)
        in_process = local.rationalize(model="beer", token_ids=ids)
        assert in_process["rationale"] == over_socket["rationale"]
        assert in_process["label"] == over_socket["label"]
        assert local.health()["status"] == "ok"
        assert local.models()[0]["name"] == "beer"

    def test_in_process_errors_carry_status(self, served):
        _, service, _ = served
        local = Client(service=service)
        with pytest.raises(ServeClientError) as err:
            local.rationalize(model="nope", token_ids=[1])
        assert err.value.status == 404
