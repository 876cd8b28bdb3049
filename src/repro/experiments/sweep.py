"""Hyper-parameter sweep utility.

Generalizes the paper's Fig. 3a protocol (five hyper-parameter sets of
vanilla RNP, observing the covariation of full-text accuracy and rationale
quality) to arbitrary methods and grids.  Each grid point is one
:class:`repro.api.Estimator`, which owns the key routing (train-config
fields → config, profile fields → profile, the rest → the model
constructor) — this module no longer keeps its own routing tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.api.estimator import Estimator
from repro.data.dataset import AspectDataset
from repro.api.profiles import ExperimentProfile


@dataclass
class SweepResult:
    """All runs of a sweep, with convenience accessors."""

    rows: list[dict] = field(default_factory=list)

    def best(self, metric: str = "F1") -> dict:
        """Row with the best value of ``metric``."""
        if not self.rows:
            raise ValueError("empty sweep")
        return max(self.rows, key=lambda r: r[metric])

    def correlation(self, x: str, y: str) -> float:
        """Pearson correlation between two recorded columns (the Fig. 3a
        statistic: corr(full-text accuracy, rationale F1))."""
        xs = np.array([r[x] for r in self.rows], dtype=float)
        ys = np.array([r[y] for r in self.rows], dtype=float)
        if xs.std() < 1e-12 or ys.std() < 1e-12:
            return 0.0
        return float(np.corrcoef(xs, ys)[0, 1])


def grid(param_grid: dict[str, Sequence[Any]]) -> list[dict]:
    """Expand a {name: values} grid into a list of configurations."""
    if not param_grid:
        return [{}]
    names = sorted(param_grid)
    combos = itertools.product(*(param_grid[n] for n in names))
    return [dict(zip(names, combo)) for combo in combos]


def run_sweep(
    method: str,
    dataset: AspectDataset,
    profile: ExperimentProfile,
    param_grid: dict[str, Sequence[Any]],
    alpha: Optional[float] = None,
) -> SweepResult:
    """Train ``method`` once per grid point and collect metric rows.

    Grid keys are routed by the :class:`Estimator`: architecture knobs
    (``hidden_size``, ``embedding_dim``, ``temperature``) go to the
    profile, optimization knobs (``lr``, ``batch_size``, ``epochs``, ...)
    to the train config, and anything else to the model constructor.  A
    swept ``seed`` reseeds *both* model initialization and the training
    RNG (the seed-era sweep only reseeded training, so every "seed" run
    silently started from the same weights).
    """
    result = SweepResult()
    for point in grid(param_grid):
        outcome = Estimator(method, profile=profile, alpha=alpha, **point).fit(dataset)
        row = {**point, "method": method}
        row.update(outcome.rationale.as_row())
        row["Acc"] = outcome.rationale_accuracy
        row["full_text_acc"] = outcome.full_text.accuracy
        result.rows.append(row)
    return result
