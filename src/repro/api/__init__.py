"""repro.api — the unified training/experiment surface.

Three layers, a registry-style extension point next to the backend
kernel table and the serve artifact registry:

- :mod:`~repro.api.registry` — **method registry with metadata**: model
  classes self-register via :func:`register_method`, carrying their
  checkpoint-selection protocol, Acc-column semantics, artifact hyper
  keys and constructor defaults.  Third-party methods plug into
  training, experiments *and* serving without editing any harness code.
- :mod:`~repro.api.estimator` — the :class:`Estimator` facade:
  ``Estimator("DAR", profile).fit(dataset)`` → :class:`FitReport`, plus
  ``evaluate`` / ``predict`` / ``save`` (a ``repro.serve`` artifact) —
  one object from training to serving.
- :mod:`~repro.api.spec` + :mod:`~repro.api.experiments` — **declarative
  experiment specs**: every paper table/figure is an
  :class:`ExperimentSpec` in the catalog, executed by one engine and
  JSON round-trippable, so a new scenario is a spec file
  (``python -m repro.experiments --spec my_scenario.json``), not a new
  runner function.
- :mod:`~repro.api.executor` + :mod:`~repro.api.store` — **fleet-scale
  execution**: ``execute_spec(..., jobs=N, seeds=(...), results_dir=...)``
  fans a spec's independent work units across a process pool (rows
  bit-identical to the serial engine), aggregates multi-seed runs to
  mean±std, and lands every unit in a durable, resumable run store
  (``run_table.csv`` + cross-run sqlite catalog + spec provenance).

The registry submodule is import-cycle-safe (model modules import it at
class-definition time); everything heavier is exported lazily.
"""

from repro.api.registry import (
    METHODS,
    MethodInfo,
    ensure_builtin_methods,
    get_method,
    method_names,
    register_method,
    unregister_method,
)

__all__ = [
    "METHODS",
    "MethodInfo",
    "Estimator",
    "ExperimentSpec",
    "FitReport",
    "build_dataset",
    "catalog",
    "ensure_builtin_methods",
    "execute_spec",
    "get_dataset_family",
    "get_method",
    "method_names",
    "register_dataset",
    "register_method",
    "render_spec",
    "run_experiment",
    "unregister_method",
    "RunStore",
]

_LAZY = {
    "Estimator": ("repro.api.estimator", "Estimator"),
    "FitReport": ("repro.api.estimator", "FitReport"),
    "ExperimentSpec": ("repro.api.spec", "ExperimentSpec"),
    "execute_spec": ("repro.api.spec", "execute_spec"),
    "render_spec": ("repro.api.spec", "render_spec"),
    "register_dataset": ("repro.api.spec", "register_dataset"),
    "get_dataset_family": ("repro.api.spec", "get_dataset_family"),
    "build_dataset": ("repro.api.spec", "build_dataset"),
    "catalog": ("repro.api.experiments", "catalog"),
    "run_experiment": ("repro.api.executor", "run_experiment"),
    "RunStore": ("repro.api.store", "RunStore"),
}


def __getattr__(name: str):
    """Lazily import the estimator/spec layers (PEP 562).

    Model modules import :mod:`repro.api.registry` while *they* are being
    imported; resolving the heavier exports on first access keeps that
    free of import cycles.
    """
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
