"""Versioned model lifecycle: hot-swap deploys, canary/shadow, warm-up.

Every test here runs under the runtime lock sanitizer (autouse conftest
fixture), so the hot-swap path is exercised with instrumented locks: a
lock-order inversion between the registry, scheduler, cache and the
deployment manager fails the test even when the interleaving happened
not to deadlock this time.
"""

import json
import logging
import random
import threading
import time

import numpy as np
import pytest

from repro.core import RNP
from repro.serve import (
    Client,
    ModelRegistry,
    RationaleServer,
    RationalizationService,
    RequestError,
    ServeClientError,
    save_artifact,
)
from repro.serve.cache import rationale_key
from repro.serve.diff import diff_report, shadow_diff_report
from repro.obs import MetricsRegistry
from repro.serve.lifecycle import RequestLog, ShadowMirror


@pytest.fixture(scope="module")
def checkpoints(tiny_beer, tmp_path_factory):
    """Champion (seed 0) and challenger (seed 1) RNP serving artifacts."""
    tmp_path = tmp_path_factory.mktemp("lifecycle_ckpt")
    paths = []
    for seed in (0, 1):
        model = RNP(
            vocab_size=len(tiny_beer.vocab), embedding_dim=64, hidden_size=8,
            alpha=0.2, pretrained_embeddings=tiny_beer.embeddings,
            rng=np.random.default_rng(seed),
        )
        path = tmp_path / f"rnp_seed{seed}.npz"
        save_artifact(model, path, vocab=tiny_beer.vocab)
        paths.append(str(path))
    return tuple(paths)


def make_service(champion_path: str, **overrides) -> RationalizationService:
    """A small single-process service with version 1 of model ``m`` live."""
    registry = ModelRegistry(dtype="float32")
    registry.register_file(champion_path, name="m")
    kwargs = dict(
        max_batch_size=8, max_wait_ms=1.0, cache_size=64, request_log_size=32
    )
    kwargs.update(overrides)
    return RationalizationService(registry, **kwargs)


def ids_for(i: int, length: int = 6) -> list[int]:
    """Distinct deterministic token-id lists (kept off reserved ids 0/1)."""
    return [2 + (i * 13 + j * 7) % 40 for j in range(length)]


class TestRequestLog:
    def test_disabled_by_default(self):
        log = RequestLog(0)
        assert not log.enabled
        log.record("m", [1, 2])
        assert len(log) == 0 and log.replay("m") == []

    def test_replay_is_unique_oldest_first_per_model(self):
        log = RequestLog(8)
        log.record("m", [1])
        log.record("other", [9])
        log.record("m", [2])
        log.record("m", [1])  # duplicate collapses
        assert log.replay("m") == [(1,), (2,)]
        assert log.replay("other") == [(9,)]

    def test_ring_buffer_drops_oldest(self):
        log = RequestLog(2)
        for i in range(4):
            log.record("m", [i])
        assert log.replay("m") == [(2,), (3,)]


class TestDeploy:
    def test_deploy_stages_challenger_without_traffic(self, checkpoints):
        champion, challenger = checkpoints
        with make_service(champion) as service:
            row = service.deploy(model="m", path=challenger)
            assert (row["version"], row["state"]) == ("2", "staged")
            assert row["live"] is False and row["canary_fraction"] == 0.0
            # Default traffic stays on the champion ...
            assert service.rationalize(model="m", token_ids=ids_for(0))["version"] == "1"
            # ... but the challenger is probeable by explicit reference.
            assert (
                service.rationalize(model="m", token_ids=ids_for(0), version="2")["version"]
                == "2"
            )
            assert (
                service.rationalize(model="m@2", token_ids=ids_for(0))["version"] == "2"
            )

    def test_incompatible_artifact_answers_409_with_detail(self, checkpoints, tmp_path):
        from repro.serialization import save_model

        champion, _ = checkpoints
        raw = tmp_path / "raw.npz"
        save_model(
            RNP(vocab_size=30, embedding_dim=8, hidden_size=4,
                rng=np.random.default_rng(0)),
            raw,
        )  # no serving config -> unservable
        with make_service(champion) as service:
            with pytest.raises(RequestError) as info:
                service.deploy(model="m", path=str(raw))
            assert info.value.status == 409
            assert info.value.detail["format_version"] >= 1
            assert info.value.detail["path"] == str(raw)

    def test_duplicate_version_answers_409(self, checkpoints):
        champion, challenger = checkpoints
        with make_service(champion) as service:
            with pytest.raises(RequestError) as info:
                service.deploy(model="m", path=challenger, version="1")
            assert info.value.status == 409

    def test_promote_unknown_model_answers_404(self, checkpoints):
        champion, _ = checkpoints
        with make_service(champion) as service:
            with pytest.raises(RequestError) as info:
                service.promote(model="ghost")
            assert info.value.status == 404


class TestHotSwap:
    def test_promote_flips_and_rollback_restores(self, checkpoints):
        champion, challenger = checkpoints
        with make_service(champion) as service:
            service.deploy(model="m", path=challenger)
            row = service.promote(model="m")
            assert row["version"] == "2" and row["live"] is True
            assert row["previous"] == "1" and row["drained"] is True
            assert service.rationalize(model="m", token_ids=ids_for(1))["version"] == "2"
            back = service.rollback(model="m")
            assert back["version"] == "1" and back["live"] is True
            assert service.rationalize(model="m", token_ids=ids_for(1))["version"] == "1"

    def test_promote_invalidates_only_the_retired_cache_slice(self, checkpoints):
        champion, challenger = checkpoints
        with make_service(champion) as service:
            for i in range(4):
                service.rationalize(model="m", token_ids=ids_for(i))
            service.deploy(model="m", path=challenger)
            # Probing the challenger populates its own slice.
            service.rationalize(model="m", token_ids=ids_for(0), version="2")
            row = service.promote(model="m")
            assert row["invalidated"] == 4  # the champion's slice, nothing else
            assert rationale_key("m", ids_for(0), version="2") in service.cache
            assert rationale_key("m", ids_for(0), version="1") not in service.cache

    def test_hot_swap_under_concurrent_load_drops_nothing(self, checkpoints):
        """The zero-downtime gate: promote mid-load, every request answers,
        every response is exactly the old or the new version."""
        champion, challenger = checkpoints
        with make_service(champion) as service:
            errors: list = []
            versions: set = set()
            stop = threading.Event()

            def hammer(tag: int) -> None:
                i = 0
                while not stop.is_set():
                    try:
                        response = service.rationalize(
                            model="m", token_ids=ids_for(tag * 1000 + i)
                        )
                        versions.add(response["version"])
                    except Exception as exc:  # pragma: no cover - the assertion
                        errors.append(exc)
                        return
                    i += 1

            threads = [
                threading.Thread(target=hammer, args=(tag,)) for tag in range(3)
            ]
            for t in threads:
                t.start()
            try:
                time.sleep(0.2)
                service.deploy(model="m", path=challenger)
                row = service.promote(model="m")
                time.sleep(0.2)
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=30.0)
            assert not errors
            assert row["drained"] is True
            # Only ever the champion or the challenger — never a torn state.
            assert versions <= {"1", "2"} and "2" in versions
            assert service.rationalize(model="m", token_ids=ids_for(7))["version"] == "2"


class TestCanaryShadow:
    def test_canary_fraction_splits_traffic(self, checkpoints):
        champion, challenger = checkpoints
        with make_service(champion, cache_size=0) as service:
            service._canary_rng = random.Random(1234)  # deterministic split
            service.deploy(model="m", path=challenger, canary_fraction=0.5)
            seen = {
                service.rationalize(model="m", token_ids=ids_for(i))["version"]
                for i in range(40)
            }
            assert seen == {"1", "2"}
            rows = {row["version"]: row for row in service.deployments()}
            assert rows["2"]["state"] == "canary"
            assert rows["2"]["canary_fraction"] == 0.5

    def test_shadow_mirrors_off_hot_path_and_diff_reports(self, checkpoints, tmp_path):
        champion, challenger = checkpoints
        diff_log = tmp_path / "shadow.jsonl"
        with make_service(champion) as service:
            service.deploy(model="m", path=challenger, shadow=True, diff_log=str(diff_log))
            for i in range(10):
                response = service.rationalize(model="m", token_ids=ids_for(i))
                assert response["version"] == "1"  # shadow never serves traffic
            assert service.lifecycle.drain_shadow("m", timeout=30.0)
            records = [json.loads(line) for line in diff_log.read_text().splitlines()]
            assert len(records) == 10
            assert {r["champion"]["version"] for r in records} == {"1"}
            assert {r["challenger"]["version"] for r in records} == {"2"}
            report = diff_report(records)
            assert report["compared"] == 10 and report["malformed"] == 0
            assert 0.0 <= report["label_agreement"] <= 1.0
            assert "1->2" in report["models"]["m"]
            # shadow_diff_report reads the same records back from disk.
            assert shadow_diff_report([str(diff_log)])["compared"] == 10

    def test_canary_and_shadow_metrics_are_observable(self, checkpoints, tmp_path):
        from repro.obs import parse_prometheus, render_prometheus

        champion, challenger = checkpoints
        with make_service(champion) as service:
            service._canary_rng = random.Random(7)
            service.deploy(
                model="m", path=challenger, canary_fraction=0.25,
                shadow=True, diff_log=str(tmp_path / "d.jsonl"),
            )
            for i in range(8):
                service.rationalize(model="m", token_ids=ids_for(i))
            service.lifecycle.drain_shadow("m", timeout=30.0)
            text = render_prometheus(service.metrics_snapshot())
            families = parse_prometheus(text)
            # samples are (sample_name, labels, value) triples.
            assert [
                value
                for _, labels, value in families["repro_canary_fraction"]["samples"]
                if labels.get("model") == "m"
            ] == [0.25]
            mirrored = sum(
                value
                for _, _, value in families["repro_canary_shadow_total"]["samples"]
            )
            assert mirrored >= 1  # canary-routed requests are not mirrored
            assert "repro_deploy_total" in families


class TestShadowMirror:
    def test_close_during_submit_loses_no_mirror(self, tmp_path):
        diff_log = tmp_path / "race.jsonl"
        mirror = ShadowMirror(
            "m", "2", run_challenger=lambda ids: {"label": 0, "rationale": []},
            diff_path=str(diff_log), metrics=MetricsRegistry(),
        )

        class ClosesMirror(list):
            """Token ids whose read runs close() in the middle of submit()."""

            def __iter__(self):
                mirror.close(timeout=1.0)
                return super().__iter__()

        accepted = mirror.submit(ClosesMirror([2, 3, 4]), {"version": "1"})
        # Either the mirror was written before the worker stopped, or it
        # was refused; it is never accepted and then silently lost.
        assert mirror.pending() == 0
        assert mirror.drain(0.5)
        assert len(diff_log.read_text().splitlines()) == int(accepted)

    def test_failed_challenger_is_logged_with_request_id(self, tmp_path, caplog):
        def broken(ids):
            raise RuntimeError("challenger down")

        metrics = MetricsRegistry()
        mirror = ShadowMirror(
            "m", "2", run_challenger=broken,
            diff_path=str(tmp_path / "d.jsonl"), metrics=metrics,
        )
        try:
            with caplog.at_level(logging.ERROR, logger="repro.serve.lifecycle"):
                assert mirror.submit([2, 3], {"version": "1"}, request_id="req-42")
                assert mirror.drain(10.0)
        finally:
            mirror.close()
        assert metrics.get("repro_canary_shadow_errors_total").value(model="m") == 1
        [record] = [r for r in caplog.records if r.name == "repro.serve.lifecycle"]
        assert "req-42" in record.getMessage()
        assert record.exc_info[0] is RuntimeError


class TestWarm:
    def test_deploy_warm_replays_request_log_into_challenger_cache(self, checkpoints):
        champion, challenger = checkpoints
        with make_service(champion) as service:
            for i in range(5):
                service.rationalize(model="m", token_ids=ids_for(i))
            row = service.deploy(model="m", path=challenger, warm=True)
            assert row["warmed"] == 5
            for i in range(5):
                assert rationale_key("m", ids_for(i), version="2") in service.cache
            # A warmed challenger answers its first explicit probe cached.
            probe = service.rationalize(model="m", token_ids=ids_for(0), version="2")
            assert probe["cached"] is True and probe["version"] == "2"

    def test_warm_without_request_log_warms_nothing(self, checkpoints):
        champion, challenger = checkpoints
        with make_service(champion, request_log_size=0) as service:
            service.rationalize(model="m", token_ids=ids_for(0))
            row = service.deploy(model="m", path=challenger, warm=True)
            assert row["warmed"] == 0


class TestDiffReport:
    @staticmethod
    def record(champ_rat, chall_rat, champ_label=1, chall_label=1, model="m"):
        return {
            "model": model,
            "token_ids": list(range(len(champ_rat))),
            "champion": {"version": "1", "label": champ_label, "rationale": champ_rat},
            "challenger": {"version": "2", "label": chall_label, "rationale": chall_rat},
        }

    def test_agreement_math(self):
        report = diff_report([
            self.record([1, 1, 0, 0], [1, 1, 0, 0]),              # exact match
            self.record([1, 0, 1, 0], [1, 0, 0, 1], chall_label=0),  # IoU 1/3
        ])
        assert report["compared"] == 2 and report["malformed"] == 0
        assert report["label_agreement"] == 0.5
        assert report["rationale_exact"] == 0.5
        assert report["rationale_iou"] == round((1.0 + 1 / 3) / 2, 4)

    def test_both_empty_rationales_agree_fully(self):
        report = diff_report([self.record([0, 0], [0, 0])])
        assert report["rationale_iou"] == 1.0 and report["rationale_exact"] == 1.0

    def test_malformed_records_counted_not_fatal(self):
        report = diff_report([
            self.record([1, 0], [1, 0]),
            {"model": "m", "champion": {"label": 1}},  # no challenger
            "not even a dict",
        ])
        assert report["compared"] == 1 and report["malformed"] == 2

    def test_pairs_grouped_per_model_and_version(self):
        report = diff_report([
            self.record([1], [1]),
            self.record([1], [0], model="other"),
        ])
        assert set(report["models"]) == {"m", "other"}
        assert report["models"]["m"]["1->2"]["records"] == 1


class TestAdminOverHTTP:
    def test_full_lifecycle_through_socket_client(self, checkpoints, tmp_path):
        champion, challenger = checkpoints
        service = make_service(champion)
        with RationaleServer(service, port=0) as server:
            client = Client(base_url=server.url)
            row = client.deploy(
                "m", challenger, shadow=True, diff_log=str(tmp_path / "d.jsonl")
            )
            assert (row["version"], row["state"]) == ("2", "canary")
            client.rationalize(model="m", token_ids=ids_for(0))
            promoted = client.promote("m")
            assert promoted["version"] == "2" and promoted["live"] is True
            assert client.rationalize(model="m", token_ids=ids_for(1))["version"] == "2"
            rolled = client.rollback("m")
            assert rolled["version"] == "1"
            states = {
                (r["version"], r["state"]) for r in client.deployments()
            }
            assert states == {("1", "live"), ("2", "retired")}
            stats = client.transport_stats()
            assert stats["requests"] >= 6 and stats["http_errors"] == 0

    def test_deploy_409_detail_survives_the_socket(self, checkpoints, tmp_path):
        from repro.serialization import save_model

        champion, _ = checkpoints
        raw = tmp_path / "raw.npz"
        save_model(
            RNP(vocab_size=30, embedding_dim=8, hidden_size=4,
                rng=np.random.default_rng(0)),
            raw,
        )
        service = make_service(champion)
        with RationaleServer(service, port=0) as server:
            client = Client(base_url=server.url)
            with pytest.raises(ServeClientError) as info:
                client.deploy("m", str(raw))
            assert info.value.status == 409
            assert info.value.detail["format_version"] >= 1
            assert client.transport_stats()["http_errors"] == 1
