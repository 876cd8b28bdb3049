"""repro.serve.lifecycle — versioned model lifecycle on the serving tier.

Three capabilities layered over the versioned
:class:`~repro.serve.registry.ModelRegistry` and the request path of
:class:`~repro.serve.service.RationalizationService`:

- **Zero-downtime hot-swap deploys.**  :meth:`DeploymentManager.deploy`
  stages a challenger artifact (``staged`` state, serving no traffic);
  :meth:`DeploymentManager.promote` atomically flips the model's live
  pointer in the registry *first* — so new requests route to the new
  version immediately — then waits for in-flight scheduler waves on the
  old version to drain and invalidates only that ``(model, version)``
  slice of the rationale cache.  Flip-before-drain is deliberate: the
  other order never terminates under sustained load, while this order
  bounds the old version's in-flight set the moment the pointer moves.
  Requests that resolved the old version just before the flip complete
  normally against the retired (still loaded) artifact — zero drops,
  and versioned cache keys make their late ``put``\\ s harmless.

- **Canary / shadow routing.**  A canary route sends a configured
  fraction of a model's default traffic to the challenger version;
  shadow mode mirrors champion requests to the challenger *off the hot
  path* through :class:`ShadowMirror`, appending
  ``(request, champion_rationale, challenger_rationale)`` JSONL records
  that ``python -m repro.experiments deploy-diff`` summarizes into an
  agreement report before promotion.

- **Log-driven warm-up.**  :class:`RequestLog` (opt-in ring buffer on
  the service) records recently served token-id keys;
  :meth:`DeploymentManager.warm` replays them through the challenger's
  cache slice so its first live requests hit a hot cache.

Locking: the manager's own lock guards route/history mutation only.
The request path reads routes lock-free (an atomic dict snapshot —
routes are replaced wholesale, never mutated in place), and nothing in
this module holds one component's lock while calling into another —
the same leaf-lock convention the rest of the serve tier follows.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import deque
from pathlib import Path
from queue import Full, Queue
from typing import Callable, Optional, Sequence

from repro.serve.cache import rationale_key
from repro.serve.registry import LifecycleError, parse_model_ref

#: Queue sentinel shutting down a ShadowMirror's worker thread.
_STOP = object()

_log = logging.getLogger(__name__)


class RequestLog:
    """Opt-in ring buffer of recently served ``(model, token-ids)`` keys.

    Feeds :meth:`DeploymentManager.warm`: replaying the recorded keys
    through a challenger version's cache before it takes live traffic
    means its first requests hit a warm cache instead of paying
    cold-start latency.  ``capacity <= 0`` disables recording (the
    default; an enabled log costs one deque append per request —
    ``deque.append`` with ``maxlen`` is atomic under the GIL, so the
    hot path takes no lock).
    """

    def __init__(self, capacity: int = 0):
        self.capacity = int(capacity)
        self._entries: deque = deque(maxlen=max(self.capacity, 1))

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def record(self, model: str, token_ids: Sequence[int]) -> None:
        """Append one served request; the oldest entry falls off when full."""
        if self.capacity > 0:
            self._entries.append((model, tuple(int(t) for t in token_ids)))

    def replay(self, model: str) -> list[tuple]:
        """Unique recorded token-id tuples for ``model``, oldest first."""
        seen: set = set()
        keys: list[tuple] = []
        for name, ids in list(self._entries):
            if name == model and ids not in seen:
                seen.add(ids)
                keys.append(ids)
        return keys

    def __len__(self) -> int:
        return len(self._entries)


class ShadowMirror:
    """Mirrors champion traffic to a challenger version off the hot path.

    The request thread enqueues non-blocking — a full queue drops the
    mirror (counted on ``repro_canary_shadow_dropped_total``), never
    delaying the champion response.  One daemon thread replays each
    request against the challenger and appends a JSONL record::

        {"request_id": ..., "model": ..., "token_ids": [...],
         "champion": {"version": ..., "label": ..., "rationale": [...]},
         "challenger": {"version": ..., "label": ..., "rationale": [...]}}

    to the diff log.  The in-flight count is tracked on a condition
    variable so :meth:`drain` (used by promote and the smoke bench) can
    wait for the mirror to go quiet without polling.
    """

    def __init__(
        self,
        model: str,
        version: str,
        run_challenger: Callable[[Sequence[int]], dict],
        diff_path: str,
        metrics,
        queue_size: int = 256,
    ):
        self.model = model
        self.version = str(version)
        self.diff_path = str(diff_path)
        self._run = run_challenger
        self._queue: Queue = Queue(maxsize=max(1, int(queue_size)))
        self._m_mirrored = metrics.counter(
            "repro_canary_shadow_total",
            "Requests mirrored to a shadow challenger.",
            ("model",),
        )
        self._m_dropped = metrics.counter(
            "repro_canary_shadow_dropped_total",
            "Shadow mirrors dropped (queue full or mirror closed).",
            ("model",),
        )
        self._m_errors = metrics.counter(
            "repro_canary_shadow_errors_total",
            "Shadow challenger executions that failed.",
            ("model",),
        )
        self._cond = threading.Condition()
        self._pending = 0
        self._closed = False
        self._file = open(self.diff_path, "a", encoding="utf-8")
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-shadow-{model}", daemon=True
        )
        self._thread.start()

    def submit(
        self,
        token_ids: Sequence[int],
        champion: dict,
        request_id: Optional[str] = None,
    ) -> bool:
        """Queue one champion response for mirroring; never blocks."""
        item = {
            "request_id": request_id,
            "token_ids": [int(t) for t in token_ids],
            "champion": champion,
        }
        # The closed check and the pending increment are one step under
        # the condition, so close() either sees this mirror pending (and
        # drains it before stopping the worker) or this call sees closed.
        with self._cond:
            closed = self._closed
            if not closed:
                self._pending += 1
        if closed:
            self._m_dropped.inc(model=self.model)
            return False
        try:
            self._queue.put_nowait(item)
        except Full:
            with self._cond:
                self._pending -= 1
                self._cond.notify_all()
            self._m_dropped.inc(model=self.model)
            return False
        return True

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            try:
                challenger = self._run(item["token_ids"])
                record = {
                    "ts": time.time(),
                    "request_id": item["request_id"],
                    "model": self.model,
                    "token_ids": item["token_ids"],
                    "champion": item["champion"],
                    "challenger": {
                        "version": challenger.get("version", self.version),
                        "label": challenger.get("label"),
                        "rationale": list(challenger.get("rationale", [])),
                    },
                }
                self._file.write(json.dumps(record) + "\n")
                self._file.flush()
                self._m_mirrored.inc(model=self.model)
            except Exception:
                _log.exception(
                    "shadow mirror of %s@%s failed (request_id=%s)",
                    self.model, self.version, item["request_id"],
                )
                self._m_errors.inc(model=self.model)
            finally:
                with self._cond:
                    self._pending -= 1
                    self._cond.notify_all()
        self._file.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued mirror has been written (or timeout)."""
        with self._cond:
            return self._cond.wait_for(lambda: self._pending == 0, timeout)

    def pending(self) -> int:
        """Mirrors queued or in flight, not yet written to the log."""
        with self._cond:
            return self._pending

    def close(self, timeout: float = 10.0) -> None:
        """Drain outstanding mirrors, stop the worker, close the log."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
        self.drain(timeout)
        self._queue.put(_STOP)
        self._thread.join(timeout)


class DeploymentManager:
    """Owns deploy → canary/shadow → promote/rollback for one service.

    Constructed by :class:`~repro.serve.service.RationalizationService`
    (one manager per service — in the sharded tier every worker process
    runs its own, and the router broadcasts admin ops so the fleet
    converges).  All admin entry points raise
    :class:`~repro.serve.registry.LifecycleError` /
    :class:`~repro.serve.registry.ArtifactCompatibilityError` /
    ``KeyError``; the service facade translates those to HTTP statuses.
    """

    def __init__(
        self,
        service,
        drain_timeout_s: float = 30.0,
        shadow_queue_size: int = 256,
    ):
        self.service = service
        self.registry = service.registry
        self.metrics = service.metrics
        self.drain_timeout_s = float(drain_timeout_s)
        self.shadow_queue_size = int(shadow_queue_size)
        self._lock = threading.Lock()
        #: model -> route dict {"version", "fraction", "mirror", "diff_log"}.
        #: Routes are replaced wholesale (never mutated in place) so the
        #: request path can read them lock-free via route_for().
        self._routes: dict[str, dict] = {}
        #: (model, version) -> deploy record for GET /v1/deployments.
        self._history: dict[tuple, dict] = {}
        self._m_deploys = self.metrics.counter(
            "repro_deploy_total", "Challenger versions deployed (staged).", ("model",)
        )
        self._m_promotions = self.metrics.counter(
            "repro_deploy_promotions_total", "Versions promoted to live.", ("model",)
        )
        self._m_rollbacks = self.metrics.counter(
            "repro_deploy_rollbacks_total", "Rollbacks to the previous version.", ("model",)
        )
        self._m_invalidated = self.metrics.counter(
            "repro_deploy_invalidated_total",
            "Cache entries invalidated by version retirement.",
            ("model",),
        )
        self._m_warmed = self.metrics.counter(
            "repro_deploy_warmed_total",
            "Cache entries warmed from the request log.",
            ("model",),
        )
        self._m_canary_fraction = self.metrics.gauge(
            "repro_canary_fraction",
            "Configured canary traffic fraction per model.",
            ("model",),
        )

    # ------------------------------------------------------------------
    # Request-path read side
    # ------------------------------------------------------------------
    def route_for(self, model: str) -> Optional[dict]:
        """The active canary/shadow route for ``model`` (lock-free read)."""
        return self._routes.get(model)

    # ------------------------------------------------------------------
    # Admin operations
    # ------------------------------------------------------------------
    def deploy(
        self,
        model: str,
        path,
        version: Optional[str] = None,
        canary_fraction: float = 0.0,
        shadow: bool = False,
        diff_log: Optional[str] = None,
        warm: bool = False,
    ) -> dict:
        """Stage a challenger version of ``model`` from checkpoint ``path``.

        Optionally warms its cache from the request log and opens a
        canary/shadow route in the same call.  The challenger serves no
        default traffic until promoted (canary fraction aside).
        """
        fraction = float(canary_fraction or 0.0)
        if not 0.0 <= fraction <= 1.0:
            raise LifecycleError(
                f"canary_fraction must be in [0, 1], got {fraction}"
            )
        artifact = self.registry.stage_file(path, name=model, version=version)
        record = {
            "model": model,
            "version": artifact.version,
            "path": str(path),
            "deployed_at": time.time(),
            "warmed": 0,
            "diff_log": None,
        }
        if warm:
            record["warmed"] = self.warm(model, artifact.version)
        if fraction > 0.0 or shadow:
            route = self.start_canary(
                model,
                artifact.version,
                fraction=fraction,
                shadow=shadow,
                diff_log=diff_log,
            )
            record["diff_log"] = route.get("diff_log")
        with self._lock:
            self._history[(model, artifact.version)] = record
        self._m_deploys.inc(model=model)
        return self._describe_version(model, artifact.version)

    def start_canary(
        self,
        model: str,
        version: str,
        fraction: float = 0.0,
        shadow: bool = False,
        diff_log: Optional[str] = None,
    ) -> dict:
        """Route ``fraction`` of ``model`` traffic (and/or a shadow mirror)
        to ``version``, transitioning it ``staged -> canary``."""
        fraction = float(fraction or 0.0)
        if not 0.0 <= fraction <= 1.0:
            raise LifecycleError(f"canary_fraction must be in [0, 1], got {fraction}")
        artifact = self.registry.get_version(model, version)
        if artifact.state == "staged":
            self.registry.set_state(model, version, "canary")
        elif artifact.state != "canary":
            raise LifecycleError(
                f"cannot canary {model}@{version} from state {artifact.state!r}"
            )
        mirror = None
        if shadow:
            path = diff_log or f"shadow_{model}_{artifact.version}.jsonl"
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            mirror = ShadowMirror(
                model,
                artifact.version,
                run_challenger=self._challenger_runner(model, artifact.version),
                diff_path=path,
                metrics=self.metrics,
                queue_size=self.shadow_queue_size,
            )
        route = {
            "version": str(artifact.version),
            "fraction": fraction,
            "mirror": mirror,
            "diff_log": mirror.diff_path if mirror else None,
        }
        with self._lock:
            old = self._routes.get(model)
            self._routes[model] = route
        if old is not None and old.get("mirror") is not None:
            old["mirror"].close()
        self._m_canary_fraction.set(fraction, model=model)
        return route

    def _challenger_runner(self, model: str, version: str):
        """The mirror's execution callback (bound late for testability)."""
        def run(token_ids):
            return self.service.execute_version(model, version, token_ids)

        return run

    def stop_canary(self, model: str) -> Optional[dict]:
        """Tear down the canary/shadow route of ``model`` (if any)."""
        with self._lock:
            route = self._routes.pop(model, None)
        if route is not None:
            self._m_canary_fraction.set(0.0, model=model)
            mirror = route.get("mirror")
            if mirror is not None:
                mirror.close()
        return route

    def drain_shadow(self, model: str, timeout: Optional[float] = None) -> bool:
        """Wait for the model's shadow mirror (if any) to go quiet."""
        route = self.route_for(model)
        mirror = route.get("mirror") if route else None
        return mirror.drain(timeout if timeout is not None else self.drain_timeout_s) if mirror else True

    def promote(self, model: str, version: Optional[str] = None) -> dict:
        """Flip ``model``'s live pointer to ``version`` — zero downtime.

        ``version=None`` resolves the single staged/canary challenger (a
        convenience for the common one-challenger flow; ambiguous sets
        must name one).  Order of operations: close the challenger's
        canary route, **flip the live pointer atomically**, *then* drain
        the old version's in-flight waves and invalidate its cache slice
        — see the module docstring for why flip precedes drain.
        """
        name, ref_version = parse_model_ref(model)
        if version is None:
            version = ref_version
        if version is None:
            states = self.registry.versions(name)
            if not states:
                raise KeyError(
                    f"no model {name!r} loaded; available: {self.registry.names()}"
                )
            candidates = sorted(
                v for v, state in states.items() if state in ("staged", "canary")
            )
            if len(candidates) != 1:
                raise LifecycleError(
                    f"promote needs an explicit version for {name!r}; "
                    f"staged/canary candidates: {candidates}"
                )
            version = candidates[0]
        version = str(version)
        route = self.route_for(name)
        if route is not None and route["version"] == version:
            self.stop_canary(name)
        old, dropped = self.registry.promote_version(name, version)
        invalidated = 0
        drained = True
        if old is not None:
            drained = self.service.drain_version(name, old, timeout=self.drain_timeout_s)
            invalidated += self.service.cache.invalidate(name, old)
        if dropped is not None:
            invalidated += self.service.cache.invalidate(name, dropped.version)
        if invalidated:
            self._m_invalidated.inc(invalidated, model=name)
        self._m_promotions.inc(model=name)
        now = time.time()
        with self._lock:
            record = self._history.get((name, version))
            if record is not None:
                record["promoted_at"] = now
        row = self._describe_version(name, version)
        row.update({"previous": old, "drained": drained, "invalidated": invalidated})
        return row

    def rollback(self, model: str) -> dict:
        """Restore ``model``'s retained previous version to live."""
        name, _ = parse_model_ref(model)
        restored, retired = self.registry.rollback_version(name)
        route = self.route_for(name)
        if route is not None and route["version"] == restored:
            self.stop_canary(name)
        invalidated = 0
        drained = True
        if retired is not None:
            drained = self.service.drain_version(
                name, retired, timeout=self.drain_timeout_s
            )
            invalidated = self.service.cache.invalidate(name, retired)
        if invalidated:
            self._m_invalidated.inc(invalidated, model=name)
        self._m_rollbacks.inc(model=name)
        row = self._describe_version(name, restored)
        row.update({"previous": retired, "drained": drained, "invalidated": invalidated})
        return row

    def warm(self, model: str, version: Optional[str] = None) -> int:
        """Replay the request log through ``model@version``'s cache slice.

        Submits every recorded key as one scheduler wave (all futures
        created before any is awaited, mirroring ``rationalize_many``),
        then populates the cache from the results.  Returns the number
        of entries warmed.
        """
        name, ref_version = parse_model_ref(model)
        version = str(version or ref_version or "")
        if not version:
            raise LifecycleError("warm needs a model@version reference")
        artifact = self.registry.get_version(name, version)
        pending = []
        for ids in self.service.request_log.replay(name):
            key = rationale_key(name, ids, version=artifact.version)
            if key in self.service.cache:
                continue
            pending.append((key, self.service.submit_version(artifact, list(ids))))
        warmed = 0
        for key, future in pending:
            result = future.result(timeout=self.service.request_timeout_s)
            self.service.cache.put(key, result)
            warmed += 1
        if warmed:
            self._m_warmed.inc(warmed, model=name)
        return warmed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _describe_version(self, name: str, version: str) -> dict:
        artifact = self.registry.get_version(name, version)
        route = self.route_for(name)
        on_route = route is not None and route["version"] == str(version)
        with self._lock:
            record = dict(self._history.get((name, str(version)), {}))
        return {
            "model": name,
            "version": artifact.version,
            "state": artifact.state,
            "live": self.registry.live_version(name) == artifact.version,
            "path": artifact.path,
            "canary_fraction": route["fraction"] if on_route else 0.0,
            "shadow": bool(on_route and route.get("mirror") is not None),
            "diff_log": route.get("diff_log") if on_route else record.get("diff_log"),
            "warmed": record.get("warmed", 0),
        }

    def describe(self) -> list[dict]:
        """``GET /v1/deployments`` payload: one row per loaded version."""
        rows = []
        for model_row in self.registry.describe():
            rows.append(self._describe_version(model_row["name"], model_row["version"]))
        return rows

    def close(self) -> None:
        """Stop every canary route and shadow mirror."""
        with self._lock:
            routes = dict(self._routes)
            self._routes = {}
        for model, route in routes.items():
            self._m_canary_fraction.set(0.0, model=model)
            mirror = route.get("mirror")
            if mirror is not None:
                mirror.close()
