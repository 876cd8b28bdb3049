"""Hyper-parameter sweep utility."""

import numpy as np
import pytest

from repro.api.profiles import ExperimentProfile
from repro.experiments.sweep import SweepResult, grid, run_sweep

TINY = ExperimentProfile(n_train=40, n_dev=16, n_test=16, hidden_size=8, epochs=1, batch_size=20, pretrain_epochs=1)


class TestGrid:
    def test_empty_grid_single_point(self):
        assert grid({}) == [{}]

    def test_cartesian_product(self):
        points = grid({"lr": [1e-3, 2e-3], "hidden_size": [8, 16]})
        assert len(points) == 4
        assert {"lr": 1e-3, "hidden_size": 16} in points

    def test_single_axis(self):
        assert grid({"lr": [0.1]}) == [{"lr": 0.1}]


class TestSweepResult:
    def test_best(self):
        result = SweepResult(rows=[{"F1": 10.0}, {"F1": 30.0}, {"F1": 20.0}])
        assert result.best()["F1"] == 30.0

    def test_best_empty_raises(self):
        with pytest.raises(ValueError):
            SweepResult().best()

    def test_correlation_perfect(self):
        rows = [{"a": float(i), "b": 2.0 * i} for i in range(5)]
        assert SweepResult(rows=rows).correlation("a", "b") == pytest.approx(1.0)

    def test_correlation_constant_column_zero(self):
        rows = [{"a": 1.0, "b": float(i)} for i in range(5)]
        assert SweepResult(rows=rows).correlation("a", "b") == 0.0


class TestRunSweep:
    def test_routes_keys_and_records_rows(self, tiny_beer):
        result = run_sweep(
            "RNP", tiny_beer, TINY,
            {"lr": [1e-3, 2e-3], "hidden_size": [8]},
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["method"] == "RNP"
            assert "F1" in row and "full_text_acc" in row
            assert row["hidden_size"] == 8

    def test_model_kwargs_pass_through(self, tiny_beer):
        result = run_sweep(
            "DAR", tiny_beer, TINY,
            {"discriminator_weight": [0.5]},
        )
        assert result.rows[0]["discriminator_weight"] == 0.5
