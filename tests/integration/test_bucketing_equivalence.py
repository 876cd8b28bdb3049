"""Bucketed-vs-unbucketed training equivalence for every baseline family.

Bucketing (default on since the fast-path re-baseline) changes which
examples share a minibatch — never the math.  Two guarantees keep the
flipped default safe:

- **training**: a bucketed run's epoch loss stays within tolerance of the
  unbucketed run from the same seed/init (first-epoch losses are dominated
  by the shared initialization, so this bounds batching-induced drift);
- **evaluation**: metrics are order-independent per-example aggregates, so
  a bucketed and an unbucketed :class:`InferenceSession` must produce
  *identical* numbers for the same model — bucketing is invisible to
  callers.
"""

import numpy as np
import pytest

from repro.core.inference import InferenceSession
from repro.core.trainer import (
    evaluate_full_text,
    evaluate_rationale_quality,
    train_rationalizer,
)
from repro.data import build_beer_dataset
from repro.api import get_method
from repro.api.estimator import build_model, train_config
from repro.api.profiles import ExperimentProfile

PROFILE = ExperimentProfile(
    n_train=80, n_dev=24, n_test=24, hidden_size=8, epochs=2,
    batch_size=20, lr=2e-3, pretrain_epochs=1,
)

#: The eight baseline trainer families riding the flipped default.
BASELINES = ("A2R", "CAR", "CR", "DMR", "Inter_RAT", "SPECTRA", "3PLAYER", "VIB")


@pytest.fixture(scope="module")
def dataset():
    return build_beer_dataset("Aroma", n_train=80, n_dev=24, n_test=24, seed=5)


def _train(method, dataset, bucketing):
    model = build_model(get_method(method), dataset, PROFILE)
    config = train_config(get_method(method), PROFILE, bucketing=bucketing)
    result = train_rationalizer(model, dataset, config)
    return model, result


@pytest.mark.parametrize("method", BASELINES)
def test_bucketed_training_step_equivalence(method, dataset):
    _, unbucketed = _train(method, dataset, bucketing=False)
    model, bucketed = _train(method, dataset, bucketing=True)

    # Same-seed first-epoch losses agree to tolerance: bucketing reorders
    # batch membership but every example is seen exactly once per epoch.
    loss_u = unbucketed.history[0]["loss"]
    loss_b = bucketed.history[0]["loss"]
    assert np.isfinite(loss_u) and np.isfinite(loss_b)
    assert loss_b == pytest.approx(loss_u, rel=0.25), (
        f"{method}: bucketed first-epoch loss {loss_b:.4f} vs unbucketed {loss_u:.4f}"
    )

    # Eval metrics are identical for the same model regardless of whether
    # the evaluation session buckets (multiple batches: batch_size < n_test).
    session_b = InferenceSession(model, batch_size=10, bucketing=True)
    session_u = InferenceSession(model, batch_size=10, bucketing=False)
    quality_b = evaluate_rationale_quality(model, dataset.test, session=session_b)
    quality_u = evaluate_rationale_quality(model, dataset.test, session=session_u)
    assert quality_b.f1 == quality_u.f1
    assert quality_b.precision == quality_u.precision
    assert quality_b.recall == quality_u.recall
    assert quality_b.sparsity == quality_u.sparsity
    full_b = evaluate_full_text(model, dataset.test, session=session_b)
    full_u = evaluate_full_text(model, dataset.test, session=session_u)
    assert full_b.accuracy == full_u.accuracy
    assert full_b.f1 == full_u.f1
