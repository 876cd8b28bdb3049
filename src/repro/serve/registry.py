"""Model artifact registry: discover, rebuild, version and pin checkpoints.

A *serving artifact* is a ``.npz`` checkpoint written by
:func:`repro.serve.registry.save_artifact` (a thin wrapper over
:func:`repro.serialization.save_model` that embeds the standard config
schema).  The registry side rebuilds any RNP-family model — vanilla RNP,
DAR, and every baseline — from that embedded config alone, loads its
parameters, and pins it to a float dtype so the serving path never
silently promotes activations off the fast path.

Config schema (JSON, embedded in the checkpoint)::

    {
      "family": "DAR",                  # key into MODEL_FAMILIES
      "arch":  {"vocab_size": ..., "embedding_dim": ..., "hidden_size": ...,
                "num_classes": ..., "encoder": "gru"},
      "hyper": {"alpha": ..., "temperature": ..., ...},   # family-specific
      "vocab": ["token", ...]           # optional, non-reserved tokens
    }

**Versioned addressing and the deployment state machine** (the model
lifecycle layer, :mod:`repro.serve.lifecycle`): every loaded artifact is
a ``(model, version)`` pair, and ``registry.get`` accepts either a bare
model name (resolving the **live** version) or a ``"name@version"``
reference.  Versions move through::

    staged ──▶ canary ──▶ live ──▶ retired
       └─────────(promote)──▲         │
                            └─(rollback)

:meth:`ModelRegistry.promote_version` flips the live pointer atomically
under the registry lock — a concurrent ``get(name)`` observes either the
old or the new live artifact, never a torn state — and retains exactly
one retired version per model as the rollback target (older retired
versions are dropped and returned to the caller for cache invalidation).

Artifacts that cannot be rebuilt raise :class:`ArtifactCompatibilityError`
carrying the checkpoint's ``format_version``/``repro_version`` metadata,
so ``POST /v1/deploy`` can answer a clean 409 naming the mismatch.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.backend.core import canonical_dtype, default_dtype
from repro.data.vocabulary import Vocabulary
from repro.serialization import PathLike, load_checkpoint, save_model, validate_state
from repro.core.inference import InferenceSession

#: The deployment state machine's states, in lifecycle order.
DEPLOYMENT_STATES = ("staged", "canary", "live", "retired")

#: Legal deployment state transitions (see the module docstring diagram).
_ALLOWED_TRANSITIONS = frozenset({
    ("staged", "canary"),
    ("canary", "staged"),   # pause a canary without retiring it
    ("staged", "live"),
    ("canary", "live"),
    ("live", "retired"),
    ("retired", "live"),    # rollback
    ("staged", "retired"),  # abandon a challenger
    ("canary", "retired"),
})


class ArtifactCompatibilityError(ValueError):
    """A checkpoint that cannot be rebuilt/served by this build of repro.

    Carries the ``format_version`` and ``repro_version`` recorded in the
    checkpoint's ``__meta__`` blob (``None`` when the file was unreadable
    before metadata could be decoded), so the deploy surface can answer
    HTTP 409 with the exact mismatch instead of a bare 500.
    """

    def __init__(
        self,
        message: str,
        format_version: Optional[int] = None,
        repro_version: Optional[str] = None,
        path: Optional[str] = None,
    ):
        super().__init__(message)
        self.format_version = format_version
        self.repro_version = repro_version
        self.path = path


class LifecycleError(ValueError):
    """An illegal deployment state transition or version reference."""


def parse_model_ref(ref: str) -> tuple[str, Optional[str]]:
    """Split a ``"name"`` / ``"name@version"`` reference into its parts."""
    if not isinstance(ref, str):
        raise ValueError(f"model reference must be a string, got {type(ref).__name__}")
    if "@" not in ref:
        return ref, None
    name, _, version = ref.partition("@")
    if not name or not version or "@" in version:
        raise ValueError(
            f"bad model reference {ref!r}; expected 'name' or 'name@version'"
        )
    return name, version


def model_families() -> dict:
    """Name -> class map of every servable model family.

    Resolved through the method registry (:mod:`repro.api.registry`), so
    a third-party method registered with
    :func:`repro.api.register_method` is servable with no edits here —
    the same extension point that drives training and the experiment
    catalog.
    """
    from repro.api.registry import METHODS, ensure_builtin_methods

    ensure_builtin_methods()
    return {info.name: info.cls for info in METHODS.values()}


#: Constructor keywords shared by the whole RNP family.  Family-specific
#: keywords come from each method's registered ``hyper`` metadata.
_COMMON_HYPER = ("alpha", "lambda_sparsity", "lambda_coherence", "temperature")


def export_config(model, vocab: Optional[Vocabulary] = None) -> dict:
    """Derive the rebuildable config dict from a trained RNP-family model."""
    from repro.api.registry import METHODS, ensure_builtin_methods

    ensure_builtin_methods()
    family = getattr(model, "name", type(model).__name__)
    if family not in METHODS:
        raise ValueError(
            f"unknown model family {family!r}; servable families: {sorted(METHODS)}"
        )
    arch = {k: v for k, v in model.arch.items() if k != "pretrained_embeddings"}
    hyper = {k: getattr(model, k) for k in _COMMON_HYPER + METHODS[family].hyper}
    config = {"family": family, "arch": arch, "hyper": hyper}
    if vocab is not None:
        # Reserved <pad>/<unk> entries are re-created by Vocabulary().
        config["vocab"] = vocab.tokens[2:]
    return config


def build_model(config: dict, rng: Optional[np.random.Generator] = None):
    """Rebuild an RNP-family model from an :func:`export_config` dict.

    The returned model has freshly initialized parameters — callers load
    the checkpoint state over them.
    """
    family = config.get("family")
    families = model_families()
    if family not in families:
        raise ValueError(f"unknown model family {family!r}; known: {sorted(families)}")
    kwargs = dict(config.get("arch", {}))
    kwargs.update(config.get("hyper", {}))
    return families[family](rng=rng or np.random.default_rng(0), **kwargs)


def save_artifact(model, path: PathLike, vocab: Optional[Vocabulary] = None) -> dict:
    """Save ``model`` as a serving artifact; returns the embedded config.

    Wraps :func:`repro.serialization.save_model` with the registry's
    config schema, so the checkpoint is self-describing: the serving side
    rebuilds the model (and, when ``vocab`` is given, the tokenizer) with
    no out-of-band information.
    """
    config = export_config(model, vocab=vocab)
    save_model(model, path, config=config)
    return config


@dataclass
class ModelArtifact:
    """One loaded, servable model version pinned to a float dtype."""

    name: str
    path: str
    family: str
    config: dict
    meta: dict
    model: object
    dtype: str
    vocab: Optional[Vocabulary] = None
    #: Version identifier within the model's version set and the
    #: deployment state this version is in (see DEPLOYMENT_STATES);
    #: both are written only under the owning registry's lock.
    version: str = "1"
    state: str = "live"
    #: Pooled inference session (lazily built, buffers reused across
    #: batches); only the scheduler's single worker thread touches it.
    session: Optional[InferenceSession] = None

    @property
    def ref(self) -> str:
        """The canonical ``name@version`` reference for this artifact."""
        return f"{self.name}@{self.version}"

    def describe(self) -> dict:
        """The ``GET /v1/models`` row for this artifact."""
        return {
            "name": self.name,
            "version": self.version,
            "state": self.state,
            "family": self.family,
            "path": self.path,
            "dtype": self.dtype,
            "parameters": int(self.model.num_parameters()),
            "vocab_size": int(self.config.get("arch", {}).get("vocab_size", 0)),
            "has_vocab": self.vocab is not None,
            "format_version": int(self.meta.get("format_version", 0)),
        }


class ModelRegistry:
    """Loads serving artifacts and hands them out by name (and version).

    Parameters
    ----------
    dtype:
        Serving float dtype (``"float32"`` or ``"float64"``).  Parameters
        are cast at load time; ``None`` keeps each checkpoint's own dtype
        (recorded in its metadata).
    """

    def __init__(self, dtype: Optional[str] = None):
        self.dtype = str(canonical_dtype(dtype)) if dtype is not None else None
        #: name -> version -> artifact; live/previous are per-name version
        #: pointers (previous = the one retained rollback target).
        self._artifacts: dict[str, dict[str, ModelArtifact]] = {}
        self._live: dict[str, str] = {}
        self._previous: dict[str, Optional[str]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _load(self, path: PathLike, name: Optional[str]) -> ModelArtifact:
        """Rebuild one checkpoint into an artifact (no registry mutation).

        Raises :class:`ArtifactCompatibilityError` (a ``ValueError``
        subclass, so :meth:`discover`'s skip-with-warning path still
        applies) for anything that makes the checkpoint unservable.
        """
        path = Path(path)
        try:
            state, config, meta = load_checkpoint(path)
        except ValueError as exc:
            raise ArtifactCompatibilityError(str(exc), path=str(path)) from exc
        format_version = int(meta.get("format_version", 0))
        repro_version = meta.get("repro_version")
        if "family" not in config:
            raise ArtifactCompatibilityError(
                f"{path} has no serving config; save it with repro.serve.save_artifact",
                format_version=format_version,
                repro_version=repro_version,
                path=str(path),
            )
        target_dtype = np.dtype(self.dtype or meta.get("dtype", "float64"))
        try:
            with default_dtype(target_dtype):
                model = build_model(config)
            validate_state(model, state, meta, source=str(path))
        except (ValueError, KeyError) as exc:
            raise ArtifactCompatibilityError(
                str(exc),
                format_version=format_version,
                repro_version=repro_version,
                path=str(path),
            ) from exc
        model.load_state_dict(state)
        # Pin parameters to the serving dtype: a float64 checkpoint served
        # at float32 must not promote activations back to float64.
        for param in model.parameters():
            if param.data.dtype.kind == "f" and param.data.dtype != target_dtype:
                param.data = param.data.astype(target_dtype)
            param.requires_grad = False
        vocab = Vocabulary(config["vocab"]) if config.get("vocab") else None
        return ModelArtifact(
            name=name or path.stem,
            path=str(path),
            family=config["family"],
            config=config,
            meta=meta,
            model=model,
            dtype=str(target_dtype),
            vocab=vocab,
        )

    def register_file(self, path: PathLike, name: Optional[str] = None) -> ModelArtifact:
        """Load one checkpoint: rebuild, validate, pin, and register it live.

        This is the startup path — the artifact becomes version ``"1"``
        and the model's live version.  Deploying *additional* versions of
        an already-registered model goes through :meth:`stage_file` (the
        :class:`~repro.serve.lifecycle.DeploymentManager` path).
        """
        artifact = self._load(path, name)
        with self._lock:
            entry = self._artifacts.get(artifact.name)
            if entry:
                first = next(iter(entry.values()))
                raise ValueError(
                    f"a model named {artifact.name!r} is already registered "
                    f"(from {first.path}); pass an explicit name= to register both"
                )
            artifact.version = "1"
            artifact.state = "live"
            self._artifacts[artifact.name] = {artifact.version: artifact}
            self._live[artifact.name] = artifact.version
        return artifact

    def stage_file(
        self, path: PathLike, name: str, version: Optional[str] = None
    ) -> ModelArtifact:
        """Load a challenger checkpoint as a **staged** version of ``name``.

        ``version=None`` mints the next numeric version.  The staged
        artifact serves no traffic until routed (canary) or promoted —
        this is what ``POST /v1/deploy`` calls.  ``name`` need not exist
        yet: deploying a brand-new model stages it with no live version
        until the first promote.
        """
        artifact = self._load(path, name)
        with self._lock:
            entry = self._artifacts.setdefault(name, {})
            if version is None:
                numeric = [int(v) for v in entry if v.lstrip("-").isdigit()]
                minted = max(numeric, default=0) + 1
                while str(minted) in entry:
                    minted += 1
                version = str(minted)
            version = str(version)
            if version in entry:
                raise LifecycleError(
                    f"{name}@{version} is already deployed (from {entry[version].path}); "
                    "pick a new version or retire it first"
                )
            artifact.version = version
            artifact.state = "staged"
            entry[version] = artifact
        return artifact

    def discover(self, directory: PathLike) -> list[ModelArtifact]:
        """Register every ``*.npz`` serving artifact under ``directory``.

        Files that are not loadable serving artifacts (plain data archives,
        checkpoints saved without a serving config, duplicate names) are
        skipped with a :class:`UserWarning` rather than aborting the whole
        directory — one stray file must not take the server down.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"model directory {directory} does not exist")
        loaded = []
        for path in sorted(directory.glob("*.npz")):
            try:
                loaded.append(self.register_file(path))
            except ValueError as exc:
                warnings.warn(f"skipping {path}: {exc}", stacklevel=2)
        return loaded

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, ref: str) -> ModelArtifact:
        """Fetch the live artifact of ``name``, or ``name@version`` exactly.

        ``KeyError`` lists what is loaded.  Explicit version references
        resolve any lifecycle state (staged/canary/retired included) so
        challengers can be probed before they take live traffic.
        """
        name, version = parse_model_ref(ref)
        with self._lock:
            try:
                entry = self._artifacts[name]
            except KeyError:
                raise KeyError(
                    f"no model {name!r} loaded; available: {sorted(self._artifacts)}"
                ) from None
            if version is None:
                version = self._live.get(name)
                if version is None:
                    raise KeyError(
                        f"model {name!r} has no live version; deployed: "
                        f"{sorted(entry)} — promote one first"
                    )
            if version not in entry:
                raise KeyError(
                    f"no version {version!r} of model {name!r}; "
                    f"loaded versions: {sorted(entry)}"
                )
            return entry[version]

    def get_version(self, name: str, version: str) -> ModelArtifact:
        """Fetch one exact ``(name, version)`` artifact (any state)."""
        return self.get(f"{name}@{version}")

    def live_version(self, name: str) -> Optional[str]:
        """The version currently serving default traffic for ``name``."""
        with self._lock:
            return self._live.get(name)

    def previous_version(self, name: str) -> Optional[str]:
        """The retained rollback target for ``name`` (if any)."""
        with self._lock:
            return self._previous.get(name)

    def versions(self, name: str) -> dict[str, str]:
        """``version -> state`` for every loaded version of ``name``."""
        with self._lock:
            entry = self._artifacts.get(name, {})
            return {version: artifact.state for version, artifact in entry.items()}

    def names(self) -> list[str]:
        """Names of every loaded model."""
        with self._lock:
            return sorted(self._artifacts)

    def describe(self) -> list[dict]:
        """``GET /v1/models`` payload: one row per loaded version."""
        with self._lock:
            artifacts = [a for entry in self._artifacts.values() for a in entry.values()]
        return [
            a.describe()
            for a in sorted(artifacts, key=lambda a: (a.name, a.version))
        ]

    # ------------------------------------------------------------------
    # Deployment state machine
    # ------------------------------------------------------------------
    def _entry(self, name: str) -> dict[str, ModelArtifact]:
        """Version map of ``name`` (caller holds the lock)."""
        try:
            return self._artifacts[name]
        except KeyError:
            raise KeyError(
                f"no model {name!r} loaded; available: {sorted(self._artifacts)}"
            ) from None

    def set_state(self, name: str, version: str, state: str) -> ModelArtifact:
        """Transition ``name@version`` to ``state`` (legal moves only)."""
        if state not in DEPLOYMENT_STATES:
            raise LifecycleError(
                f"unknown deployment state {state!r}; states: {DEPLOYMENT_STATES}"
            )
        with self._lock:
            entry = self._entry(name)
            version = str(version)
            if version not in entry:
                raise KeyError(
                    f"no version {version!r} of model {name!r}; "
                    f"loaded versions: {sorted(entry)}"
                )
            artifact = entry[version]
            if artifact.state == state:
                return artifact
            if (artifact.state, state) not in _ALLOWED_TRANSITIONS:
                raise LifecycleError(
                    f"illegal transition {artifact.state!r} -> {state!r} for "
                    f"{name}@{version}; legal: staged->canary->live->retired"
                )
            if state == "live" or artifact.state == "live":
                raise LifecycleError(
                    f"the live pointer of {name!r} moves only through "
                    "promote_version()/rollback_version()"
                )
            artifact.state = state
            return artifact

    def promote_version(
        self, name: str, version: str
    ) -> tuple[Optional[str], Optional[ModelArtifact]]:
        """Atomically flip the live pointer of ``name`` to ``version``.

        The target must be ``staged`` or ``canary``.  The old live
        version (returned first) becomes ``retired`` and is retained as
        the rollback target; an *older* retired version displaced by it
        is dropped from memory and returned second so the caller can
        invalidate its cache entries.  Both pointer and states change
        under one lock acquisition — a concurrent ``get(name)`` sees the
        old or the new live artifact, never an intermediate.
        """
        with self._lock:
            entry = self._entry(name)
            version = str(version)
            if version not in entry:
                raise KeyError(
                    f"no version {version!r} of model {name!r}; "
                    f"loaded versions: {sorted(entry)}"
                )
            target = entry[version]
            if target.state == "live":
                raise LifecycleError(f"{name}@{version} is already live")
            if target.state not in ("staged", "canary"):
                raise LifecycleError(
                    f"cannot promote {name}@{version} from state {target.state!r}; "
                    "only staged/canary versions promote"
                )
            old = self._live.get(name)
            dropped: Optional[ModelArtifact] = None
            if old is not None:
                entry[old].state = "retired"
                stale = self._previous.get(name)
                if stale is not None and stale not in (old, version) and stale in entry:
                    # One rollback target per model: the displaced retired
                    # version is unloaded (memory) and handed back so the
                    # lifecycle layer can invalidate its cache entries.
                    dropped = entry.pop(stale)
                self._previous[name] = old
            target.state = "live"
            self._live[name] = version
            return old, dropped

    def rollback_version(self, name: str) -> tuple[str, Optional[str]]:
        """Restore the retained retired version of ``name`` to live.

        Returns ``(restored_version, retired_version)`` where the second
        element is the version that just lost live (``None`` only if the
        model somehow had no live version).  Rolling back twice toggles
        between the two newest versions.
        """
        with self._lock:
            entry = self._entry(name)
            target_version = self._previous.get(name)
            if target_version is None or target_version not in entry:
                raise LifecycleError(
                    f"model {name!r} has no retired version to roll back to"
                )
            target = entry[target_version]
            if target.state != "retired":
                raise LifecycleError(
                    f"rollback target {name}@{target_version} is in state "
                    f"{target.state!r}, expected 'retired'"
                )
            current = self._live.get(name)
            if current is not None:
                entry[current].state = "retired"
            target.state = "live"
            self._live[name] = target_version
            self._previous[name] = current
            return target_version, current

    def __len__(self) -> int:
        with self._lock:
            return len(self._artifacts)

    def __contains__(self, ref: str) -> bool:
        try:
            name, version = parse_model_ref(ref)
        except ValueError:
            return False
        with self._lock:
            entry = self._artifacts.get(name)
            if entry is None:
                return False
            return version is None or version in entry
