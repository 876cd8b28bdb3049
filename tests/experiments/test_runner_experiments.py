"""Tiny-scale smoke runs of the per-artifact catalog specs.

Each runner trains real (tiny) models, so these are integration tests of
the full experiment plumbing rather than of model quality.
"""

import numpy as np
import pytest

from repro.api.experiments import (
    ablation_frozen_spec,
    ablation_sampler_spec,
    ablation_weight_spec,
    beer_comparison_spec,
    bert_comparison_spec,
    fig3_accuracy_gap_spec,
    fig3_relationship_spec,
    fig6_dar_fulltext_spec,
    hotel_comparison_spec,
    low_sparsity_spec,
    skewed_generator_spec,
    skewed_predictor_spec,
    table1_fulltext_spec,
)
from repro.api.profiles import ExperimentProfile
from repro.api.spec import execute_spec

TINY = ExperimentProfile(
    n_train=40, n_dev=16, n_test=16, hidden_size=8, epochs=1,
    batch_size=20, pretrain_epochs=1,
)


class TestComparisonRunners:
    def test_beer_comparison_structure(self):
        spec = beer_comparison_spec(methods=("RNP", "DAR"), aspects=("Palate",))
        results = execute_spec(spec, TINY)
        assert set(results) == {"Palate"}
        assert [r["method"] for r in results["Palate"]] == ["RNP", "DAR"]

    def test_hotel_comparison_structure(self):
        results = execute_spec(hotel_comparison_spec(methods=("RNP",), aspects=("Location",)), TINY)
        assert set(results) == {"Location"}

    def test_low_sparsity_respects_alpha(self):
        spec = low_sparsity_spec(methods=("SPECTRA",), aspects=("Aroma",), sparsity=0.1)
        results = execute_spec(spec, TINY)
        row = results["Aroma"][0]
        # SPECTRA enforces the budget deterministically.
        assert row["S"] <= 25.0

    def test_bert_comparison_runs(self):
        rows = execute_spec(bert_comparison_spec(methods=("RNP",)), TINY)
        assert rows[0]["method"] == "RNP"


class TestSkewRunners:
    def test_skewed_predictor_rows(self):
        spec = skewed_predictor_spec(methods=("RNP",), aspects=("Aroma",), skew_epochs=(1,))
        rows = execute_spec(spec, TINY)
        assert len(rows) == 1
        assert rows[0]["setting"] == "skew1"
        assert rows[0]["aspect"] == "Aroma"

    def test_skewed_generator_rows(self):
        rows = execute_spec(skewed_generator_spec(methods=("RNP",), thresholds=(55.0,)), TINY)
        assert len(rows) == 1
        assert rows[0]["setting"] == "skew55.0"
        assert "Pre_acc" in rows[0]


class TestProbeRunners:
    def test_fig3_relationship_rows(self):
        spec = fig3_relationship_spec(
            param_sets=({"lr": 2e-3, "batch_size": 20, "hidden_size": 8},)
        )
        rows = execute_spec(spec, TINY)
        assert rows[0]["param_set"] == "Param1"
        assert 0 <= rows[0]["full_text_acc"] <= 100

    def test_fig3_gap_rows(self):
        rows = execute_spec(fig3_accuracy_gap_spec(aspects=("Service",)), TINY)
        assert len(rows) == 1
        assert {"rationale_acc", "full_text_acc"} <= set(rows[0])

    def test_table1_rows(self):
        rows = execute_spec(table1_fulltext_spec(aspects=("Location",)), TINY)
        assert rows[0]["aspect"] == "Location"

    def test_fig6_covers_six_aspects(self):
        rows = execute_spec(fig6_dar_fulltext_spec(), TINY)
        assert len(rows) == 6
        assert {r["aspect"] for r in rows} == {
            "Beer-Appearance", "Beer-Aroma", "Beer-Palate",
            "Hotel-Location", "Hotel-Service", "Hotel-Cleanliness",
        }


class TestAblationRunners:
    def test_frozen_discriminator_two_variants(self):
        rows = execute_spec(ablation_frozen_spec(), TINY)
        assert len(rows) == 2

    def test_weight_sweep(self):
        rows = execute_spec(ablation_weight_spec(weights=(0.0, 1.0)), TINY)
        assert [r["weight"] for r in rows] == [0.0, 1.0]

    def test_sampler_sweep(self):
        rows = execute_spec(ablation_sampler_spec(samplers=("gumbel", "topk")), TINY)
        assert {r["sampler"] for r in rows} == {"gumbel", "topk"}
