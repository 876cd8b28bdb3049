"""Experiment harness: registry, factories, and fast smoke runs."""

import pytest

from repro.api import Estimator, execute_spec, get_method, method_names
from repro.api.estimator import build_model, train_config
from repro.api.experiments import complexity_spec, dataset_statistics_spec
from repro.api.profiles import ExperimentProfile
from repro.baselines import DMR
from repro.core import DAR, RNP


TINY = ExperimentProfile(n_train=40, n_dev=16, n_test=16, hidden_size=8, epochs=1, batch_size=20, pretrain_epochs=1)


class TestRegistryAndFactory:
    def test_registry_has_all_methods(self):
        expected = {"RNP", "DAR", "DMR", "A2R", "CAR", "Inter_RAT", "3PLAYER", "VIB", "SPECTRA", "CR"}
        assert set(method_names()) == expected

    def test_make_model_types(self, tiny_beer):
        assert isinstance(build_model(get_method("RNP"), tiny_beer, TINY), RNP)
        assert isinstance(build_model(get_method("DAR"), tiny_beer, TINY), DAR)
        assert isinstance(build_model(get_method("DMR"), tiny_beer, TINY), DMR)

    def test_make_model_unknown_raises(self, tiny_beer):
        with pytest.raises(KeyError):
            build_model(get_method("BOGUS"), tiny_beer, TINY)

    def test_alpha_defaults_to_gold_sparsity(self, tiny_beer):
        model = build_model(get_method("RNP"), tiny_beer, TINY)
        assert model.alpha == pytest.approx(tiny_beer.gold_sparsity())

    def test_alpha_override(self, tiny_beer):
        model = build_model(get_method("RNP"), tiny_beer, TINY, alpha=0.4)
        assert model.alpha == 0.4

    def test_kwargs_passthrough(self, tiny_beer):
        model = build_model(get_method("DAR"), tiny_beer, TINY, discriminator_weight=2.5)
        assert model.discriminator_weight == 2.5


class TestTrainConfigProtocols:
    def test_dar_uses_dev_accuracy(self):
        assert train_config(get_method("DAR"), TINY).selection == "dev_acc"

    def test_baselines_use_test_f1(self):
        for method in ("RNP", "DMR", "A2R"):
            assert train_config(get_method(method), TINY).selection == "test_f1"

    def test_overrides_win(self):
        config = train_config(get_method("DAR"), TINY, epochs=42)
        assert config.epochs == 42


class TestSmokeRuns:
    def test_run_method_returns_full_row(self, tiny_beer):
        row = Estimator("RNP", profile=TINY).fit(tiny_beer).as_row()
        assert row["method"] == "RNP"
        assert set(row) >= {"S", "P", "R", "F1", "Acc", "FullAcc"}

    def test_label_aware_methods_report_no_acc(self, tiny_beer):
        row = Estimator("CAR", profile=TINY).fit(tiny_beer).as_row()
        assert row["Acc"] is None

    def test_complexity_table_shape(self):
        rows = execute_spec(complexity_spec(), TINY)
        by_method = {r["method"]: r for r in rows}
        assert by_method["RNP"]["relative"] == "2.0x"
        assert by_method["DAR"]["relative"] == "3.0x"
        assert by_method["DAR"]["modules"] == "1gen+2pred"

    def test_dataset_statistics_six_rows(self):
        rows = execute_spec(dataset_statistics_spec(), TINY)
        assert len(rows) == 6
        assert {r["family"] for r in rows} == {"Beer", "Hotel"}
        for row in rows:
            assert row["train_pos"] == row["train_neg"]
