"""Sharded serving tier: router, admission control, failure handling, drain.

Every test here spawns real worker processes (``multiprocessing``) — the
assertions cover the contracts the single-process tier never had to make:
bounded admission (429), typed worker-death failures + respawn, and the
shutdown drain leaving no orphaned processes.
"""

import multiprocessing as mp
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import RNP
from repro.serve import (
    Client,
    OverloadedError,
    RationaleServer,
    RequestError,
    ServeClientError,
    ShardRouter,
    WorkerDiedError,
    save_artifact,
)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """One tiny RNP serving artifact every router in this module loads."""
    tmp_path = tmp_path_factory.mktemp("shard_ckpt")
    model = RNP(
        vocab_size=64, embedding_dim=16, hidden_size=8, rng=np.random.default_rng(0)
    )
    path = tmp_path / "tiny.npz"
    save_artifact(model, path)
    return str(path)


def wait_until(predicate, timeout_s=20.0, interval_s=0.1):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestRouting:
    def test_round_trip_and_affinity_cache(self, checkpoint):
        with ShardRouter([checkpoint], workers=2, max_wait_ms=2.0) as router:
            client = Client(service=router)
            first = client.rationalize(model="tiny", token_ids=[1, 2, 3, 4])
            assert first["n_tokens"] == 4 and first["cached"] is False
            # Hash affinity: the identical request routes to the same
            # shard, whose rationale cache now holds the answer.
            again = client.rationalize(model="tiny", token_ids=[1, 2, 3, 4])
            assert again["cached"] is True
            assert again["rationale"] == first["rationale"]

    def test_requests_spread_and_all_answer(self, checkpoint):
        rng = np.random.default_rng(3)
        streams = [
            [int(t) for t in rng.integers(1, 60, size=rng.integers(4, 12))]
            for _ in range(24)
        ]
        with ShardRouter([checkpoint], workers=2, max_wait_ms=4.0) as router:
            client = Client(service=router)
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(pool.map(
                    lambda ids: client.rationalize(model="tiny", token_ids=ids), streams
                ))
            assert all(r["n_tokens"] == len(s) for r, s in zip(responses, streams))
            stats = router.stats()
            assert stats["router"]["routed"] == len(streams)
            # Both shards did work (with 24 requests and least-loaded
            # fallback the probability of a one-sided split is ~0).
            dispatched = [w["dispatched"] for w in stats["workers"]]
            assert all(d > 0 for d in dispatched)

    def test_batched_payload_routes_to_one_shard(self, checkpoint):
        with ShardRouter([checkpoint], workers=2) as router:
            client = Client(service=router)
            response = client.rationalize_many(
                model="tiny", inputs=[[1, 2, 3], [4, 5, 6, 7], {"token_ids": [8, 9]}]
            )
            assert response["count"] == 3
            assert [len(r["rationale"]) for r in response["results"]] == [3, 4, 2]
            assert all(r["cached"] is False for r in response["results"])

    def test_validation_errors_keep_their_status(self, checkpoint):
        with ShardRouter([checkpoint], workers=1) as router:
            client = Client(service=router)
            with pytest.raises(ServeClientError) as err:
                client.rationalize(model="missing", token_ids=[1])
            assert err.value.status == 404
            with pytest.raises(ServeClientError) as err:
                client.rationalize(model="tiny", token_ids=[1.5, 2.5])
            assert err.value.status == 400

    def test_models_and_health(self, checkpoint):
        with ShardRouter([checkpoint], workers=2) as router:
            rows = router.describe_models()
            assert [row["name"] for row in rows] == ["tiny"]
            health = router.health()
            assert health["status"] == "ok"
            assert health["workers"] == 2 and health["alive_workers"] == 2
            assert health["models"] == ["tiny"]


class TestAdmissionControl:
    def test_overload_rejects_429_and_counts(self, checkpoint):
        with ShardRouter(
            [checkpoint], workers=1, max_inflight_per_worker=1, max_wait_ms=8.0,
            cache_size=0,
        ) as router:
            client = Client(service=router)
            outcomes = []

            def one(_):
                try:
                    client.rationalize(model="tiny", token_ids=list(range(1, 40)))
                    return "ok"
                except ServeClientError as exc:
                    return exc.status

            with ThreadPoolExecutor(max_workers=12) as pool:
                outcomes = list(pool.map(one, range(12)))
            assert "ok" in outcomes  # admitted work still completes
            assert 429 in outcomes  # and the rest failed fast
            assert set(outcomes) <= {"ok", 429}
            stats = router.stats()
            assert stats["router"]["rejected_overload"] == outcomes.count(429)
            assert stats["router"]["rejected_overload"] >= 1
            # Aggregated admission counters are visible on /statz.
            assert stats["router"]["max_inflight_per_worker"] == 1
            assert "inflight" in stats["router"] and "queued" in stats["router"]

    def test_error_types_carry_http_statuses(self):
        assert OverloadedError().status == 429
        assert WorkerDiedError().status == 503
        assert isinstance(OverloadedError(), RequestError)


class TestFailureHandling:
    def test_dead_worker_is_detected_and_respawned(self, checkpoint):
        with ShardRouter([checkpoint], workers=1) as router:
            client = Client(service=router)
            client.rationalize(model="tiny", token_ids=[1, 2, 3])
            pid = router.stats()["workers"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            assert wait_until(lambda: router.stats()["router"]["respawns"] >= 1)
            stats = router.stats()["router"]
            assert stats["worker_deaths"] == 1
            # The respawned shard serves again (fresh cache, same artifact).
            response = client.rationalize(model="tiny", token_ids=[4, 5, 6])
            assert response["n_tokens"] == 3
            assert router.stats()["workers"][0]["pid"] != pid

    def test_inflight_requests_fail_typed_on_death(self, checkpoint):
        with ShardRouter(
            [checkpoint], workers=1, request_timeout_s=30.0
        ) as router:
            # A big batched payload keeps the shard busy long enough to
            # kill it mid-flight deterministically.
            inputs = [list(range(1, 50)) for _ in range(64)]
            errors = []

            def call():
                try:
                    router.call("rationalize_many", {"model": "tiny", "inputs": inputs})
                except RequestError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=call)
            thread.start()
            assert wait_until(lambda: router.stats(worker_timeout_s=0.1)["router"]["inflight"] > 0,
                              timeout_s=10.0, interval_s=0.02)
            pid = router.stats(worker_timeout_s=0.1)["workers"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            thread.join(timeout=20.0)
            assert not thread.is_alive()
            if errors:  # the kill landed while the batch was in flight
                assert errors[0].status == 503
                assert "died" in str(errors[0])


class TestGracefulDrain:
    def test_drain_completes_inflight_rejects_new_no_orphans(self, checkpoint):
        # A wave waits up to max_wait_ms for a full batch, so both payloads
        # stay in flight long enough to be observed before close().
        router = ShardRouter(
            [checkpoint], workers=2, max_inflight_per_worker=64,
            max_batch_size=64, max_wait_ms=500.0,
        )
        results = []

        def call():
            results.append(
                router.call(
                    "rationalize_many",
                    {"model": "tiny", "inputs": [list(range(1, 30)) for _ in range(16)]},
                )
            )

        threads = [threading.Thread(target=call) for _ in range(2)]
        for thread in threads:
            thread.start()
        # Let both payloads be admitted (16 items each), then shut down:
        # the drain must finish every accepted request before exiting.
        assert wait_until(lambda: router.stats(worker_timeout_s=0.1)["router"]["inflight"] >= 32,
                          timeout_s=10.0, interval_s=0.02)
        router.close()
        for thread in threads:
            thread.join(timeout=20.0)
        assert all(not t.is_alive() for t in threads)
        assert len(results) == 2
        assert all(r["count"] == 16 for r in results)
        # New work is rejected with the typed shutdown status ...
        with pytest.raises(RequestError) as err:
            router.call("rationalize", {"model": "tiny", "token_ids": [1, 2]})
        assert err.value.status == 503
        # ... and no worker process is left behind.
        assert mp.active_children() == []

    def test_close_is_idempotent(self, checkpoint):
        router = ShardRouter([checkpoint], workers=1)
        router.close()
        router.close()
        assert mp.active_children() == []


@pytest.fixture(scope="module")
def challenger_checkpoint(tmp_path_factory):
    """A second artifact (different weights) to deploy as version 2."""
    tmp_path = tmp_path_factory.mktemp("shard_ckpt_v2")
    model = RNP(
        vocab_size=64, embedding_dim=16, hidden_size=8, rng=np.random.default_rng(1)
    )
    path = tmp_path / "tiny_v2.npz"
    save_artifact(model, path)
    return str(path)


def fleet_states(router):
    """Per-shard ``[(version, state), ...]`` projections (None = no answer)."""
    return [
        sorted((r["version"], r["state"]) for r in rows) if rows is not None else None
        for _, rows in router.probe("deployments", worker_timeout_s=5.0)
    ]


class TestFleetLifecycle:
    def test_deploy_promote_rollback_converges_fleet_wide(
        self, checkpoint, challenger_checkpoint
    ):
        with ShardRouter([checkpoint], workers=2, request_log_size=16) as router:
            client = Client(service=router)
            client.rationalize(model="tiny", token_ids=[1, 2, 3])
            row = client.deploy("tiny", challenger_checkpoint, warm=True)
            assert (row["version"], row["state"]) == ("2", "staged")
            assert row["workers"] == 2  # broadcast reached every shard
            states = fleet_states(router)
            assert states[0] == states[1] == [("1", "live"), ("2", "staged")]
            promoted = client.promote("tiny")
            assert promoted["version"] == "2" and promoted["workers"] == 2
            # Every shard now answers with the new version (both shards
            # get exercised across distinct token-id requests).
            for i in range(6):
                response = client.rationalize(model="tiny", token_ids=[1 + i, 9, 3])
                assert response["version"] == "2"
            rolled = client.rollback("tiny")
            assert rolled["version"] == "1" and rolled["workers"] == 2
            assert (
                client.rationalize(model="tiny", token_ids=[7, 8])["version"] == "1"
            )
        assert mp.active_children() == []

    def test_shadow_diff_logs_are_per_worker_files(
        self, checkpoint, challenger_checkpoint, tmp_path
    ):
        diff_log = tmp_path / "shadow.jsonl"
        with ShardRouter([checkpoint], workers=2) as router:
            client = Client(service=router)
            client.deploy(
                "tiny", challenger_checkpoint, shadow=True, diff_log=str(diff_log)
            )
            for i in range(12):
                client.rationalize(model="tiny", token_ids=[1 + i, 2 + i, 3])
            # Promote closes every shard's mirror, which drains + flushes
            # its private .wN log — concurrent processes never share one.
            client.promote("tiny")
            logs = sorted(p.name for p in tmp_path.glob("shadow.w*.jsonl"))
            assert logs and set(logs) <= {"shadow.w0.jsonl", "shadow.w1.jsonl"}
            assert not diff_log.exists()  # nothing writes the unsuffixed path
            from repro.serve.diff import shadow_diff_report

            report = shadow_diff_report([str(tmp_path / "shadow.w*.jsonl")])
            assert report["compared"] >= 1 and report["malformed"] == 0
            assert "1->2" in report["models"]["tiny"]

    def test_sigkill_mid_deploy_respawn_converges_via_journal(
        self, checkpoint, challenger_checkpoint
    ):
        """Kill a shard after a deploy broadcast: the respawned worker
        replays the admin journal and rejoins the fleet consistent."""
        with ShardRouter([checkpoint], workers=2) as router:
            client = Client(service=router)
            client.deploy("tiny", challenger_checkpoint, canary_fraction=0.25)
            assert fleet_states(router) == [
                [("1", "live"), ("2", "canary")],
                [("1", "live"), ("2", "canary")],
            ]
            victim_pid = router.stats()["workers"][1]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            assert wait_until(lambda: router.stats()["router"]["respawns"] >= 1)
            # The replacement replays deploy + canary and converges.
            assert wait_until(
                lambda: fleet_states(router)
                == [
                    [("1", "live"), ("2", "canary")],
                    [("1", "live"), ("2", "canary")],
                ],
                timeout_s=30.0,
            )
            # The converged fleet still promotes atomically.
            promoted = client.promote("tiny")
            assert promoted["version"] == "2" and promoted["workers"] == 2
            for i in range(6):
                response = client.rationalize(model="tiny", token_ids=[2 + i, 5])
                assert response["version"] == "2"
        assert mp.active_children() == []


class TestShardedHTTP:
    def test_http_round_trip_and_aggregated_statz(self, checkpoint):
        with ShardRouter([checkpoint], workers=2) as router:
            with RationaleServer(router, port=0) as server:
                client = Client(base_url=server.url)
                response = client.rationalize(model="tiny", token_ids=[1, 2, 3])
                assert response["n_tokens"] == 3
                batched = client.rationalize_many(model="tiny", inputs=[[1, 2], [3, 4, 5]])
                assert batched["count"] == 2
                assert client.models()[0]["name"] == "tiny"
                assert client.health()["status"] == "ok"
                stats = client.stats()
                assert stats["router"]["routed"] >= 2
                assert stats["router"]["rejected_overload"] == 0
                assert len(stats["workers"]) == 2
                assert stats["cache"]["hits"] + stats["cache"]["misses"] >= 1
        assert mp.active_children() == []
