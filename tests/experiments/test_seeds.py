"""Multi-seed aggregation."""

import pytest

from repro.data import build_beer_dataset
from repro.api.profiles import ExperimentProfile
from repro.experiments.seeds import SeedAggregate, run_with_seeds

TINY = ExperimentProfile(n_train=40, n_dev=16, n_test=16, hidden_size=8, epochs=1, batch_size=20, pretrain_epochs=1)


class TestSeedAggregate:
    def test_mean_std(self):
        agg = SeedAggregate(metric_rows=[{"F1": 10.0}, {"F1": 20.0}, {"F1": 30.0}])
        assert agg.mean("F1") == pytest.approx(20.0)
        assert agg.std("F1") == pytest.approx(8.1649, rel=1e-3)
        assert len(agg) == 3

    def test_summary_format(self):
        agg = SeedAggregate(metric_rows=[{"F1": 10.0, "S": 5.0, "full_text_acc": 90.0}])
        summary = agg.summary()
        assert summary["F1"] == "10.0±0.0"


class TestRunWithSeeds:
    def test_varies_data_and_model(self):
        builder = lambda seed: build_beer_dataset(
            "Palate", n_train=40, n_dev=16, n_test=16, seed=seed
        )
        agg = run_with_seeds("RNP", builder, TINY, seeds=(0, 1))
        assert len(agg) == 2
        assert [r["seed"] for r in agg.metric_rows] == [0, 1]
        for row in agg.metric_rows:
            assert 0 <= row["F1"] <= 100
