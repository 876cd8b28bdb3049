"""The serve operation table (``repro.serve.ops.OPS``) against live servers.

Every layer dispatches from the one table, so these tests iterate it:
each op must be a service method taking exactly its declared fields,
answer on its route on both tiers, and be reachable through
``Client.call`` in-process and over the socket.  Malformed bodies must
answer a typed 4xx on both tiers — never a 500, never a dead worker.
"""

import http.client
import inspect
import json
import urllib.error
import urllib.request
from concurrent.futures import Future
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import RNP
from repro.obs import family_total, parse_prometheus
from repro.serve import (
    Client,
    ModelRegistry,
    RationaleServer,
    RationalizationService,
    RequestError,
    ServeClientError,
    ShardRouter,
    save_artifact,
)
from repro.serve.ops import OPS, bind

TIERS = ["service", "router"]


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """A champion and a challenger artifact of the same tiny RNP."""
    tmp_path = tmp_path_factory.mktemp("ops_ckpt")
    paths = []
    for seed in (0, 1):
        model = RNP(
            vocab_size=64, embedding_dim=16, hidden_size=8, rng=np.random.default_rng(seed)
        )
        path = tmp_path / f"tiny_v{seed + 1}.npz"
        save_artifact(model, path)
        paths.append(str(path))
    return paths


@contextmanager
def serving(tier, checkpoint):
    """A live HTTP server over a single-process service or a 2-worker router."""
    if tier == "service":
        registry = ModelRegistry(dtype="float32")
        registry.register_file(checkpoint, name="tiny")
        service = RationalizationService(registry, max_wait_ms=1.0)
    else:
        service = ShardRouter([("tiny", checkpoint)], workers=2, max_wait_ms=1.0)
    with RationaleServer(service, port=0) as server:
        yield server


@pytest.fixture(scope="module", params=TIERS)
def live(request, checkpoints):
    """One long-lived server per tier, shared by the read-mostly tests."""
    with serving(request.param, checkpoints[0]) as server:
        yield request.param, server


def post(url, route, body):
    """POST raw JSON; returns ``(status, decoded body)``."""
    request = urllib.request.Request(
        url + route,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def live_states(server):
    return sorted((r["version"], r["state"]) for r in Client(base_url=server.url).deployments())


def bodies(challenger):
    """One valid body per op, in an order that runs each op successfully."""
    return {
        "rationalize": {"model": "tiny", "token_ids": [1, 2, 3]},
        "rationalize_many": {"model": "tiny", "inputs": [[1, 2], [3, 4, 5]]},
        "deploy": {"model": "tiny", "path": challenger},
        "promote": {"model": "tiny"},
        "rollback": {"model": "tiny"},
        "warm": {"model": "tiny", "version": "1"},
        "deployments": {},
        "health": {},
        "models": {},
        "stats": {},
        "metrics": {},
    }


class TestTableDrift:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_is_a_service_method_taking_its_fields(self, name):
        op = OPS[name]
        method = getattr(RationalizationService, op.method or name)
        params = list(inspect.signature(method).parameters)[1:]
        assert set(params) == set(op.fields)
        for field in op.required:
            assert field in op.fields

    def test_every_route_answers(self, live):
        _, server = live
        for op in OPS.values():
            if op.verb == "GET":
                with urllib.request.urlopen(server.url + op.route, timeout=30) as response:
                    status = response.status
            else:
                # An empty body reaches the op and fails its binding.
                body = {"inputs": []} if "inputs" in op.fields else {}
                status, _ = post(server.url, op.route, body)
            assert status != 404, op.name

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("transport", ["in-process", "socket"])
    def test_client_call_reaches_every_op(self, tier, transport, checkpoints):
        table = bodies(checkpoints[1])
        assert set(table) == set(OPS), "every op needs a body here"
        with serving(tier, checkpoints[0]) as server:
            if transport == "socket":
                client = Client(base_url=server.url)
            else:
                client = Client(service=server.service)
            results = {name: client.call(name, **table[name]) for name in OPS}
        assert results["rationalize"]["n_tokens"] == 3
        assert results["rationalize_many"]["count"] == 2
        assert (results["deploy"]["version"], results["deploy"]["state"]) == ("2", "staged")
        assert results["promote"]["version"] == "2"
        assert results["rollback"]["version"] == "1"
        assert results["warm"]["warmed"] == 0
        assert {(r["version"], r["state"]) for r in results["deployments"]} == {
            ("1", "live"), ("2", "retired")
        }
        assert results["health"]["status"] == "ok"
        assert {row["name"] for row in results["models"]} == {"tiny"}
        assert "cache" in results["stats"]
        metrics = results["metrics"]
        if transport == "socket":
            metrics = parse_prometheus(metrics)
        assert "repro_requests_total" in metrics

    def test_client_rejects_unknown_fields_and_ops(self, live):
        _, server = live
        client = Client(base_url=server.url)
        with pytest.raises(TypeError, match="tokn_ids"):
            client.rationalize(model="tiny", tokn_ids=[1, 2])
        with pytest.raises(ServeClientError) as err:
            client.call("nope")
        assert err.value.status == 404


class TestMalformedBodies:
    @pytest.mark.parametrize(
        "route, body",
        [
            ("/v1/deploy", {"canary_fraction": "abc"}),
            ("/v1/deploy", {"canary_fraction": [1]}),
            ("/v1/deploy", {"canary_fraction": float("nan")}),
            ("/v1/deploy", {"canary_fraction": 10 ** 400}),
            ("/v1/deploy", {"path": 123}),
            ("/v1/deploy", {"shadow": "false"}),
            ("/v1/deploy", {"warm": 1}),
            ("/v1/deploy", {"path": None}),
            ("/v1/promote", {"model": ""}),
            ("/v1/rationalize", {"token_ids": [1, 2], "debug": "false"}),
            ("/v1/rationalize", {"token_ids": "12"}),
            ("/v1/rationalize", {"token_ids": [10 ** 30]}),
            ("/v1/rationalize", {"inputs": [[1, 2]], "request_id": 7}),
        ],
    )
    def test_wrong_json_type_answers_400(self, live, checkpoints, route, body):
        _, server = live
        base = {"model": "tiny"}
        if route == "/v1/deploy":
            base["path"] = checkpoints[1]
        status, payload = post(server.url, route, {**base, **body})
        assert status == 400, payload
        # Rejected before any shard applied anything.
        assert live_states(server) == [("1", "live")]

    def test_non_integer_content_length_answers_400(self, live):
        _, server = live
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/deploy")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            conn.send(b"{}")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_get_route_answers_the_request_errors_status(self, live, monkeypatch):
        _, server = live

        def draining():
            raise RequestError("draining", status=503)

        monkeypatch.setattr(server.service, "health", draining)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/healthz", timeout=30)
        assert err.value.code == 503

    def test_in_process_string_bool_is_rejected(self, checkpoints):
        registry = ModelRegistry(dtype="float32")
        registry.register_file(checkpoints[0], name="tiny")
        with RationalizationService(registry) as service:
            with pytest.raises(ServeClientError) as err:
                Client(service=service).deploy("tiny", checkpoints[1], shadow="false")
            assert err.value.status == 400
            assert [row["version"] for row in service.deployments()] == ["1"]

    def test_bind_drops_unknown_keys_and_nulls(self):
        assert bind("promote", {"model": "m", "version": None, "extra": 1}) == {"model": "m"}
        with pytest.raises(RequestError) as err:
            bind("rollback", {})
        assert err.value.status == 400


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)
#: Plausible values per field, so generated bodies also get past binding
#: into the service; every field can still take any JSON value.
PLAUSIBLE = {
    "model": st.sampled_from(["tiny", "tiny@1", "tiny@2", "nope", "tiny@"]),
    "version": st.sampled_from(["1", "2", ""]) | st.integers(-1, 3),
    "token_ids": st.lists(st.integers(-2, 70), max_size=6),
    "tokens": st.lists(st.text(max_size=4), max_size=4),
    "inputs": st.lists(
        st.lists(st.integers(0, 63), max_size=5)
        | st.fixed_dictionaries({"token_ids": st.lists(st.integers(0, 63), max_size=4)}),
        max_size=4,
    ),
    "canary_fraction": st.floats(-1.0, 2.0),
}
POST_OPS = [op for op in OPS.values() if op.verb == "POST"]


@st.composite
def op_requests(draw):
    op = draw(st.sampled_from(POST_OPS))
    body = draw(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=2))
    for name in op.fields:
        if draw(st.booleans()):
            body[name] = draw(PLAUSIBLE.get(name, JSON_VALUES) | JSON_VALUES)
    return op.route, body


class TestGeneratedBodies:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=op_requests())
    def test_every_status_is_2xx_or_4xx(self, live, case):
        _, server = live
        route, body = case
        status, payload = post(server.url, route, body)
        assert 200 <= status < 300 or 400 <= status < 500, (route, body, payload)

    def test_tier_survives_generated_traffic(self, live):
        """Runs after the generated bodies (same module-scoped server)."""
        tier, server = live
        client = Client(base_url=server.url)
        assert client.health()["status"] == "ok"
        assert live_states(server) == [("1", "live")]
        if tier == "router":
            families = parse_prometheus(client.call("metrics"))
            assert family_total(families, "repro_router_worker_deaths_total") == 0


class TestProbes:
    def test_probe_surfaces_unexpected_errors(self, checkpoints, monkeypatch):
        with ShardRouter([("tiny", checkpoints[0])], workers=1) as router:
            handle = router._snapshot_handles()[0]

            def broken(*args, **kwargs):
                future = Future()
                future.set_exception(RuntimeError("collector bug"))
                return future

            monkeypatch.setattr(handle, "try_dispatch", broken)
            with pytest.raises(RuntimeError, match="collector bug"):
                router.stats()
            monkeypatch.undo()
            assert router.stats()["workers"][0]["service"] is not None
