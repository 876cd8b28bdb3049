"""Estimator facade: fit/evaluate/predict/save, routing, and seed semantics."""

import numpy as np
import pytest

from repro.api import Estimator, FitReport
from repro.api.estimator import route_overrides
from repro.api.profiles import ExperimentProfile

TINY = ExperimentProfile(
    n_train=40, n_dev=16, n_test=16, hidden_size=8, epochs=1, batch_size=20, pretrain_epochs=1
)


class TestRouting:
    def test_config_fields_win_ties(self):
        config, profile, model = route_overrides({"lr": 1e-3, "epochs": 3, "batch_size": 10})
        assert config == {"lr": 1e-3, "epochs": 3, "batch_size": 10}
        assert profile == {} and model == {}

    def test_profile_fields(self):
        config, profile, model = route_overrides({"hidden_size": 12, "temperature": 0.5})
        assert profile == {"hidden_size": 12, "temperature": 0.5}
        assert config == {} and model == {}

    def test_unknown_keys_go_to_model(self):
        _, _, model = route_overrides({"discriminator_weight": 2.0})
        assert model == {"discriminator_weight": 2.0}

    def test_estimator_applies_routing(self):
        est = Estimator("DAR", TINY, epochs=5, hidden_size=12, discriminator_weight=0.5)
        assert est.profile.hidden_size == 12
        assert est.config_overrides == {"epochs": 5}
        assert est.model_overrides == {"discriminator_weight": 0.5}
        assert est.make_config().epochs == 5

    def test_selection_comes_from_registry(self):
        assert Estimator("DAR", TINY).make_config().selection == "dev_acc"
        assert Estimator("RNP", TINY).make_config().selection == "test_f1"


class TestSeedThreading:
    """The satellite fix: seed drives model init, not just the training RNG."""

    def _init_embedding_head(self, seed, tiny_beer):
        est = Estimator("RNP", TINY, seed=seed)
        from repro.api.estimator import build_model

        model = build_model(est.info, tiny_beer, est.profile, seed=est.seed)
        return model.generator.head.weight.data.copy()

    def test_seed_changes_model_init(self, tiny_beer):
        a = self._init_embedding_head(1, tiny_beer)
        b = self._init_embedding_head(2, tiny_beer)
        assert not np.allclose(a, b)

    def test_same_seed_same_init(self, tiny_beer):
        a = self._init_embedding_head(5, tiny_beer)
        b = self._init_embedding_head(5, tiny_beer)
        np.testing.assert_array_equal(a, b)

    def test_seed_reaches_train_config(self):
        est = Estimator("RNP", TINY, seed=11)
        assert est.make_config().seed == 11

    def test_seed_via_overrides_also_threads(self):
        # A swept {"seed": v} grid point must behave like the named param.
        est = Estimator("RNP", TINY, **{"seed": 13})
        assert est.seed == 13
        assert est.make_config().seed == 13

    def test_sweep_seed_changes_model_init(self, tiny_beer):
        """Regression: the seed-era run_sweep left model init at profile.seed."""
        from repro.experiments.sweep import run_sweep

        result = run_sweep("RNP", tiny_beer, TINY, {"seed": [3, 4]})
        assert len(result.rows) == 2
        # With model init reseeded the two runs start from different weights;
        # their selected rationales (and thus F1/sparsity) differ.
        assert result.rows[0] != result.rows[1]


class TestFitPredictSave:
    def test_fit_returns_report_row(self, tiny_beer):
        report = Estimator("RNP", TINY).fit(tiny_beer)
        assert isinstance(report, FitReport)
        row = report.as_row()
        assert row["method"] == "RNP"
        assert set(row) >= {"S", "P", "R", "F1", "Acc", "FullAcc"}

    def test_label_aware_method_reports_no_acc(self, tiny_beer):
        row = Estimator("CAR", TINY).fit(tiny_beer).as_row()
        assert row["Acc"] is None

    def test_evaluate_matches_fit_metrics(self, tiny_beer):
        est = Estimator("RNP", TINY)
        fit_row = est.fit(tiny_beer).as_row()
        eval_row = est.evaluate(tiny_beer)
        assert eval_row["F1"] == fit_row["F1"]
        assert eval_row["FullAcc"] == fit_row["FullAcc"]

    def test_predict_rationalizes_raw_text(self, tiny_beer):
        est = Estimator("RNP", TINY)
        est.fit(tiny_beer)
        text = " ".join(tiny_beer.test[0].tokens)
        out = est.predict([text, tiny_beer.test[1].tokens])
        assert len(out) == 2
        for response, example in zip(out, tiny_beer.test[:2]):
            assert response["label"] in (0, 1)
            assert len(response["rationale"]) == len(example.tokens)
            assert set(response["selected"]) <= set(example.tokens)

    def test_unfitted_estimator_raises(self, tiny_beer):
        with pytest.raises(RuntimeError, match="not fitted"):
            Estimator("RNP", TINY).predict(["some text"])

    def test_save_produces_servable_artifact(self, tiny_beer, tmp_path):
        """The acceptance loop: Estimator('DAR').fit(ds).save(p) → repro.serve."""
        from repro.serve import Client, ModelRegistry, RationalizationService

        est = Estimator("DAR", TINY)
        est.fit(tiny_beer)
        path = tmp_path / "dar.npz"
        config = est.save(path)
        assert config["family"] == "DAR"
        assert config["vocab"]  # fit-time vocabulary embedded

        registry = ModelRegistry()
        artifact = registry.register_file(path)
        assert artifact.family == "DAR"
        service = RationalizationService(registry, max_wait_ms=0.5)
        try:
            client = Client(service)
            response = client.rationalize("dar", tokens=tiny_beer.test[0].tokens)
            assert response["label"] in (0, 1)
            # Served rationale agrees with the estimator's own predict().
            local = est.predict([tiny_beer.test[0].tokens])[0]
            assert response["rationale"] == local["rationale"]
        finally:
            service.close()
