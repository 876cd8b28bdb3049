"""Short real-training integration runs for every baseline.

Each baseline trains for a couple of epochs on a small corpus; the point is
not final quality but that the full train/eval/selection pipeline works for
every method and produces sane metric rows end-to-end.
"""

import numpy as np
import pytest

from repro.data import build_beer_dataset
from repro.api import Estimator
from repro.api.profiles import ExperimentProfile

PROFILE = ExperimentProfile(
    n_train=120, n_dev=40, n_test=40, hidden_size=12, epochs=2,
    batch_size=40, lr=2e-3, pretrain_epochs=2,
)

METHODS = ("RNP", "DMR", "A2R", "CAR", "Inter_RAT", "3PLAYER", "VIB", "SPECTRA", "CR", "DAR")


@pytest.fixture(scope="module")
def dataset():
    return build_beer_dataset("Appearance", n_train=120, n_dev=40, n_test=40, seed=11)


@pytest.mark.parametrize("method", METHODS)
def test_method_trains_end_to_end(method, dataset):
    row = Estimator(method, profile=PROFILE).fit(dataset).as_row()
    assert row["method"] == method
    assert 0.0 <= row["F1"] <= 100.0
    assert 0.0 <= row["S"] <= 100.0
    assert 0.0 <= row["P"] <= 100.0
    assert 0.0 <= row["R"] <= 100.0
    if method in ("CAR", "DMR"):
        assert row["Acc"] is None
    else:
        assert 0.0 <= row["Acc"] <= 100.0


def test_transformer_encoder_pipeline(dataset):
    """The Table VI code path (transformer encoders) works for RNP and DAR."""
    for method in ("RNP", "DAR"):
        row = Estimator(method, profile=PROFILE, encoder="transformer").fit(dataset).as_row()
        assert 0.0 <= row["F1"] <= 100.0
