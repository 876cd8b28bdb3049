"""End-to-end pipeline with the LSTM encoder option."""

import pytest

from repro.api import Estimator
from repro.api.profiles import ExperimentProfile

TINY = ExperimentProfile(n_train=40, n_dev=16, n_test=16, hidden_size=8, epochs=1, batch_size=20, pretrain_epochs=1)


class TestLSTMPipeline:
    def test_rnp_with_lstm(self, tiny_beer):
        row = Estimator("RNP", profile=TINY, encoder="lstm").fit(tiny_beer).as_row()
        assert 0 <= row["F1"] <= 100

    def test_dar_with_lstm(self, tiny_beer):
        row = Estimator("DAR", profile=TINY, encoder="lstm").fit(tiny_beer).as_row()
        assert 0 <= row["F1"] <= 100
        assert row["method"] == "DAR"
