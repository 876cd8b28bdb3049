"""Saving and loading trained rationalization models.

A saved model is a single ``.npz`` file holding every parameter (keyed by
the dotted names from :meth:`Module.named_parameters`) plus two
JSON-encoded blobs: a *config* describing how to rebuild the module (see
:mod:`repro.serve.registry` for the standard schema) and a *metadata*
record written automatically — format version, parameter dtype, the
array backend (always ``"numpy"``), and the package version.  Any RNP-family
model (including the baselines) round-trips through this format.

Checkpoints written before the metadata record existed (format version 0)
still load; :func:`load_model` validates the format version and every
parameter shape up front so mismatches surface as one clear
``ValueError`` instead of a bare numpy broadcasting error mid-load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.nn.module import Module

PathLike = Union[str, Path]

_CONFIG_KEY = "__config__"
_META_KEY = "__meta__"
_RESERVED_KEYS = (_CONFIG_KEY, _META_KEY)

#: Current checkpoint format version.  Bump when the on-disk layout
#: changes incompatibly; :func:`load_model` refuses newer versions.
FORMAT_VERSION = 1


def _encode_blob(payload: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)


def _decode_blob(array: np.ndarray) -> dict:
    return json.loads(bytes(array).decode("utf-8"))


def checkpoint_metadata(model: Module) -> dict:
    """The metadata record :func:`save_model` embeds in a checkpoint."""
    import repro

    dtype = "float64"
    for _, param in model.named_parameters():
        if param.data.dtype.kind == "f":
            dtype = str(param.data.dtype)
            break
    return {
        "format_version": FORMAT_VERSION,
        "dtype": dtype,
        "backend": "numpy",
        "repro_version": repro.__version__,
    }


def save_model(model: Module, path: PathLike, config: Optional[dict] = None) -> None:
    """Write the model's parameters (and an optional config dict) to ``path``.

    ``config`` must be JSON-serializable; it is stored alongside the
    parameters so :func:`load_model` can rebuild the module without
    out-of-band information.  A metadata record (format version, parameter
    dtype, backend, package version) is embedded automatically.
    """
    path = Path(path)
    arrays = dict(model.state_dict())
    for reserved in _RESERVED_KEYS:
        if reserved in arrays:
            raise ValueError(f"parameter name collides with reserved key {reserved!r}")
    arrays[_CONFIG_KEY] = _encode_blob(config if config is not None else {})
    arrays[_META_KEY] = _encode_blob(checkpoint_metadata(model))
    np.savez(path, **arrays)


def _resolve_path(path: PathLike) -> Path:
    path = Path(path)
    if not path.exists():
        # np.savez appends .npz when missing; accept either spelling.
        with_suffix = path.with_suffix(path.suffix + ".npz")
        if with_suffix.exists():
            return with_suffix
        raise FileNotFoundError(path)
    return path


def load_checkpoint(path: PathLike) -> tuple[dict, dict, dict]:
    """Read ``(state_dict, config, metadata)`` from a saved checkpoint.

    Checkpoints written before metadata existed report
    ``{"format_version": 0}``.
    """
    resolved = _resolve_path(path)
    try:
        archive = np.load(resolved)
    except Exception as exc:
        raise ValueError(f"{resolved} is not a readable .npz checkpoint: {exc}") from exc
    if _CONFIG_KEY not in archive.files:
        raise ValueError(
            f"{resolved} is not a repro checkpoint (no {_CONFIG_KEY!r} record); "
            "write checkpoints with repro.serialization.save_model"
        )
    config = _decode_blob(archive[_CONFIG_KEY])
    meta = _decode_blob(archive[_META_KEY]) if _META_KEY in archive.files else {"format_version": 0}
    state = {k: archive[k] for k in archive.files if k not in _RESERVED_KEYS}
    return state, config, meta


def load_state(path: PathLike) -> tuple[dict, dict]:
    """Read ``(state_dict, config)`` from a file written by :func:`save_model`."""
    state, config, _ = load_checkpoint(path)
    return state, config


def validate_state(model: Module, state: dict, meta: Optional[dict] = None, source: str = "checkpoint") -> None:
    """Check ``state`` is loadable into ``model``; raise a clear error if not.

    Raises ``ValueError`` naming every mismatched parameter shape (or an
    unsupported format version) and ``KeyError`` for missing/unexpected
    parameter names — never a bare numpy broadcasting error.
    """
    version = int((meta or {}).get("format_version", 0))
    if version > FORMAT_VERSION:
        raise ValueError(
            f"{source} has format version {version}, but this build of repro "
            f"only understands versions <= {FORMAT_VERSION}; upgrade repro to load it"
        )
    own = dict(model.named_parameters())
    mismatched = [
        f"{name}: checkpoint {tuple(state[name].shape)} vs model {tuple(own[name].data.shape)}"
        for name in sorted(set(own) & set(state))
        if tuple(state[name].shape) != tuple(own[name].data.shape)
    ]
    if mismatched:
        raise ValueError(
            f"{source} does not fit this model — parameter shape mismatch "
            f"({len(mismatched)} of {len(own)}): " + "; ".join(mismatched)
        )
    missing = set(own) - set(state)
    unexpected = set(state) - set(own)
    if missing or unexpected:
        raise KeyError(
            f"{source} state dict mismatch: missing={sorted(missing)}, "
            f"unexpected={sorted(unexpected)}"
        )


def load_model(model: Module, path: PathLike) -> dict:
    """Load parameters saved by :func:`save_model` into ``model`` (built by
    the caller, e.g. from the returned config); returns the config dict.

    The checkpoint is validated first (:func:`validate_state`), so an
    incompatible architecture or a too-new format version fails with one
    clear ``ValueError``/``KeyError`` naming the offending parameters.
    """
    state, config, meta = load_checkpoint(path)
    validate_state(model, state, meta, source=str(path))
    model.load_state_dict(state)
    return config
