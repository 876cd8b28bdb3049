"""Multi-seed experiment aggregation.

The paper keeps one fixed seed across all experiments (Appendix B); for
users who want variance estimates, :func:`run_with_seeds` repeats any
method over several seeds and reports mean ± std for every metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.api.estimator import build_model, train_config
from repro.api.profiles import ExperimentProfile
from repro.api.registry import get_method
from repro.core.trainer import train_rationalizer
from repro.data.dataset import AspectDataset


@dataclass
class SeedAggregate:
    """Per-metric mean and standard deviation across seeds."""

    metric_rows: list[dict]

    def mean(self, metric: str) -> float:
        """Mean of ``metric`` across seeds."""
        return float(np.mean([r[metric] for r in self.metric_rows]))

    def std(self, metric: str) -> float:
        """Standard deviation of ``metric`` across seeds."""
        return float(np.std([r[metric] for r in self.metric_rows]))

    def summary(self, metrics: Sequence[str] = ("F1", "S", "full_text_acc")) -> dict:
        """``{metric: "mean±std"}`` over the recorded runs."""
        return {m: f"{self.mean(m):.1f}±{self.std(m):.1f}" for m in metrics}

    def __len__(self) -> int:
        return len(self.metric_rows)


def run_with_seeds(
    method: str,
    dataset_builder: Callable[[int], AspectDataset],
    profile: ExperimentProfile,
    seeds: Sequence[int] = (0, 1, 2),
    alpha: Optional[float] = None,
) -> SeedAggregate:
    """Train ``method`` once per seed (fresh data + fresh model each time).

    ``dataset_builder`` maps a seed to a dataset, so both the corpus
    sampling and the model initialization vary across runs — the honest
    notion of variance for synthetic-data experiments.
    """
    info = get_method(method)
    rows = []
    for seed in seeds:
        dataset = dataset_builder(seed)
        seeded_profile = profile.scaled(seed=seed)
        model = build_model(info, dataset, seeded_profile, alpha=alpha)
        config = train_config(info, seeded_profile)
        result = train_rationalizer(model, dataset, config)
        rows.append(
            {
                "seed": seed,
                "F1": result.rationale.f1,
                "P": result.rationale.precision,
                "R": result.rationale.recall,
                "S": result.rationale.sparsity,
                "Acc": result.rationale_accuracy,
                "full_text_acc": result.full_text.accuracy,
            }
        )
    return SeedAggregate(metric_rows=rows)
