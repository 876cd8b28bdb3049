"""The serve operation table: every serve operation declared once.

The serving tier exposes the paper's product — DAR's generator selects
a rationale and the predictor labels it (``rationalize`` /
``rationalize_many``, which share ``POST /v1/rationalize``; the edge
picks ``rationalize_many`` when the body carries ``inputs``) — and the
lifecycle ops that stage and promote challenger rationalizers.
:data:`OPS` declares each with its HTTP verb and route, its JSON body
fields and its **fan-out** across the sharded tier: ``route`` (one
shard, by cache affinity), ``broadcast`` (every shard, shard 0
validating first, journaled for respawn replay), ``first`` (the first
shard that answers) or ``local`` (answered by the router itself).

Every layer is generic over the table: ``call(op, body)`` on
:class:`~repro.serve.service.RationalizationService` binds a body and
runs the op's method, on :class:`~repro.serve.router.ShardRouter` it
fans out per ``fanout``; the shard worker runs ``service.call`` for any
op, the HTTP edge dispatches by ``(verb, route)`` and
:meth:`repro.serve.Client.call` chooses the transport.  A new operation
is one ``OPS`` entry plus one service method whose keyword parameters
are the entry's fields.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional


class RequestError(ValueError):
    """A malformed or unservable request (maps to HTTP 400/404/409).

    ``detail`` is an optional JSON-serializable dict the HTTP edge
    includes in the error body — e.g. the ``format_version`` /
    ``repro_version`` mismatch a failed deploy reports with its 409.
    """

    def __init__(self, message: str, status: int = 400, detail: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.detail = detail


#: JSON type name -> check of a decoded value.  ``boolean`` takes only
#: ``true``/``false`` (a ``"false"`` string must not read as truthy);
#: ``number`` an int or float within the float range (NaN compares false).
_JSON_TYPES = {
    "string": lambda v: type(v) is str,
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "boolean": lambda v: type(v) is bool,
    "array": lambda v: type(v) in (list, tuple),
}

#: Body field -> the JSON types it accepts; a field means the same on
#: every op that takes it.
FIELD_TYPES = {
    "model": ("string",),
    "version": ("string", "integer"),
    "debug": ("boolean",),
    "request_id": ("string",),
    # Element checks (flat ints / strings) stay in the service's encoder:
    # the hot path walks each token exactly once.
    "token_ids": ("array",),
    "tokens": ("array",),
    "inputs": ("array",),
    "path": ("string",),
    "canary_fraction": ("number",),
    "shadow": ("boolean",),
    "diff_log": ("string",),
    "warm": ("boolean",),
}


@dataclass(frozen=True)
class Op:
    """One serve operation.

    ``fields`` names the body fields (see :data:`FIELD_TYPES`) and
    ``required`` those a request must carry (``null`` or ``""`` counts
    as absent).  ``method`` names the service method that runs it when it
    is not ``name``; ``envelope`` is the JSON key the HTTP edge wraps a
    list result under (``GET /v1/models`` answers ``{"models": [...]}``).
    """

    name: str
    verb: str
    route: str
    fanout: str
    fields: tuple = ()
    required: tuple = ()
    method: str = ""
    envelope: Optional[str] = None


#: Every serve operation, by name.
OPS: dict = {
    op.name: op
    for op in (
        Op("rationalize", "POST", "/v1/rationalize", "route",
           ("model", "token_ids", "tokens", "debug", "request_id", "version")),
        Op("rationalize_many", "POST", "/v1/rationalize", "route",
           ("model", "inputs", "debug", "request_id", "version"), required=("inputs",)),
        Op("deploy", "POST", "/v1/deploy", "broadcast",
           ("model", "path", "version", "canary_fraction", "shadow", "diff_log", "warm"),
           required=("model", "path")),
        Op("promote", "POST", "/v1/promote", "broadcast", ("model", "version"),
           required=("model",)),
        Op("rollback", "POST", "/v1/rollback", "broadcast", ("model",), required=("model",)),
        Op("warm", "POST", "/v1/warm", "broadcast", ("model", "version"), required=("model",)),
        Op("deployments", "GET", "/v1/deployments", "first", envelope="deployments"),
        Op("health", "GET", "/healthz", "local"),
        Op("models", "GET", "/v1/models", "local", method="describe_models", envelope="models"),
        Op("stats", "GET", "/statz", "local"),
        Op("metrics", "GET", "/metrics", "local", method="metrics_snapshot"),
    )
}


def bind(op: str, body: dict) -> dict:
    """Check a JSON ``body`` against ``OPS[op]``; return its keyword arguments.

    Unknown keys are dropped (old servers tolerate newer clients) and a
    ``null`` value counts as absent.  An unknown op answers 404; a
    missing required field or a value of the wrong JSON type answers
    400 — so a malformed body is rejected before any work (or any
    shard) is touched.  Only top-level types are checked.
    """
    spec = OPS.get(op)
    if spec is None:
        raise RequestError(f"unknown operation {op!r}", status=404)
    kwargs = {}
    for name in spec.fields:
        value = body.get(name)
        if value is None or (name in spec.required and isinstance(value, str) and not value):
            if name in spec.required:
                raise RequestError(f"{name!r} is required")
            continue
        types = FIELD_TYPES[name]
        if not any(_JSON_TYPES[kind](value) for kind in types):
            raise RequestError(
                f"{name!r} must be a JSON {' or '.join(types)}, got {type(value).__name__}"
            )
        kwargs[name] = value
    return kwargs
