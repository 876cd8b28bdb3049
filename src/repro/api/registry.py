"""Method registry: rationalization methods as declarative metadata.

Everything the experiment harness, the estimator and the serving tier need
to know *about* a method — its checkpoint-selection protocol, whether its
Acc column is meaningful, the constructor keywords its serving artifacts
embed — is declared once, where the method is defined.  One extension
point:

- :func:`register_method` — a class decorator with which each model module
  *self-registers*, carrying its metadata (checkpoint-selection protocol,
  whether the Acc column is meaningful, constructor keywords embedded in
  serving artifacts, default constructor overrides).
- :class:`MethodInfo` — the frozen metadata record.
- :func:`get_method` / :func:`method_names` / :data:`METHODS` — lookup.

Third-party methods plug in without editing any harness code::

    from repro.api import register_method
    from repro.core import RNP

    @register_method("MyMethod", selection="dev_acc", hyper=("my_weight",))
    class MyMethod(RNP):
        ...

Once registered, the method trains through :class:`repro.api.Estimator`
(``get_method(name).cls`` is its class), appears in experiment specs,
and — because
``repro.serve`` resolves model families through this registry too — its
checkpoints are servable.

This module is intentionally a *leaf*: it imports nothing from
``repro.core`` or ``repro.baselines``, so model modules can import it at
class-definition time without cycles.  :func:`ensure_builtin_methods`
lazily imports the built-in model modules to trigger their registrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional


@dataclass(frozen=True)
class MethodInfo:
    """Declarative metadata of one registered rationalization method.

    Attributes
    ----------
    name:
        Registry key (the paper's method name, e.g. ``"DAR"``).
    cls:
        Model class; must accept the RNP-family constructor surface
        (``vocab_size``, ``embedding_dim``, ``hidden_size``, ``alpha``,
        ``temperature``, ``pretrained_embeddings``, ``encoder``, ``rng``).
    selection:
        Checkpoint-selection protocol for :class:`repro.core.TrainConfig`:
        ``"dev_acc"`` (the paper's DAR protocol), ``"test_f1"`` (the
        baseline protocol) or ``"final"``.
    reports_accuracy:
        Whether the predictive-accuracy (Acc) column is meaningful.
        Label-aware selectors (CAR, DMR) report ``None`` there.
    hyper:
        Family-specific constructor keywords read off a trained instance
        and embedded in serving artifacts (see
        :func:`repro.serve.export_config`).
    default_overrides:
        Constructor keyword defaults applied on every instantiation
        (explicit overrides win).
    """

    name: str
    cls: type
    selection: str = "test_f1"
    reports_accuracy: bool = True
    hyper: tuple[str, ...] = ()
    default_overrides: Mapping[str, object] = field(default_factory=dict)


#: Name -> :class:`MethodInfo` for every registered method.
METHODS: dict[str, MethodInfo] = {}

_SELECTIONS = ("dev_acc", "test_f1", "final")


def register_method(
    name: Optional[str] = None,
    *,
    selection: str = "test_f1",
    reports_accuracy: Optional[bool] = None,
    hyper: tuple[str, ...] = (),
    default_overrides: Optional[Mapping[str, object]] = None,
):
    """Class decorator registering a rationalization method with metadata.

    ``name`` defaults to the class's ``name`` attribute (falling back to
    ``__name__``); ``reports_accuracy`` defaults to the class's
    ``reports_accuracy`` attribute (falling back to ``True``), so existing
    model classes register without restating what they already declare.
    Re-registering a name replaces the previous entry (latest wins), which
    keeps module reloads idempotent.
    """
    if selection not in _SELECTIONS:
        raise ValueError(f"selection must be one of {_SELECTIONS}, got {selection!r}")

    def decorator(cls: type) -> type:
        method_name = name or getattr(cls, "name", cls.__name__)
        reports = reports_accuracy
        if reports is None:
            reports = bool(getattr(cls, "reports_accuracy", True))
        METHODS[method_name] = MethodInfo(
            name=method_name,
            cls=cls,
            selection=selection,
            reports_accuracy=reports,
            hyper=tuple(hyper),
            default_overrides=dict(default_overrides or {}),
        )
        return cls

    return decorator


def unregister_method(name: str) -> None:
    """Remove a registration (tests and plugin teardown)."""
    METHODS.pop(name, None)


def ensure_builtin_methods() -> None:
    """Import the built-in model modules so their registrations run.

    Safe to call repeatedly; the imports are no-ops once loaded.  Callers
    that merely *consume* the registry (the serve registry, the experiment
    catalog) use this instead of importing ``repro.core`` /
    ``repro.baselines`` at module scope.
    """
    import repro.baselines  # noqa: F401  (registration side effect)
    import repro.core  # noqa: F401  (registration side effect)


def get_method(name: str) -> MethodInfo:
    """Resolve a registered method; ``KeyError`` lists what is available."""
    ensure_builtin_methods()
    try:
        return METHODS[name]
    except KeyError:
        raise KeyError(
            f"unknown method {name!r}; registered: {sorted(METHODS)}"
        ) from None


def method_names() -> list[str]:
    """Sorted names of every registered method."""
    ensure_builtin_methods()
    return sorted(METHODS)

