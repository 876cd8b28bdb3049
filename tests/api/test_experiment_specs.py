"""Spec catalog: JSON round-trips, resolution, CLI generation, execution."""

import json

import pytest

from repro.api import ExperimentSpec, catalog, execute_spec, render_spec
from repro.api.experiments import (
    ablation_weight_spec,
    beer_comparison_spec,
    skewed_generator_spec,
    skewed_predictor_spec,
)
from repro.api.spec import build_dataset, get_dataset_family
from repro.api.profiles import ExperimentProfile

TINY = ExperimentProfile(
    n_train=40, n_dev=16, n_test=16, hidden_size=8, epochs=1, batch_size=20, pretrain_epochs=1
)


class TestCatalog:
    def test_covers_every_paper_artifact(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "table8", "table9", "fig3a", "fig3b", "fig6",
            "ablation-frozen", "ablation-weight", "ablation-sampler",
        }
        assert set(catalog()) == expected

    def test_every_spec_round_trips_through_json(self):
        for name, spec in catalog().items():
            rebuilt = ExperimentSpec.from_json(spec.to_json())
            assert rebuilt == spec, f"{name} did not round-trip"

    def test_every_spec_resolves_builders_and_methods(self):
        for name, spec in catalog().items():
            spec.resolve()  # raises on unknown methods/dataset families
            for family, aspect in spec.datasets:
                assert aspect in get_dataset_family(family).aspects, (name, aspect)

    def test_spec_file_round_trip(self, tmp_path):
        spec = skewed_predictor_spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert ExperimentSpec.from_json(path) == spec


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentSpec(name="x", description="", kind="bogus")

    def test_unknown_row_field_rejected(self):
        with pytest.raises(ValueError, match="row field"):
            ExperimentSpec(name="x", description="", row_fields=("nope",))

    def test_unknown_variant_key_rejected(self):
        with pytest.raises(ValueError, match="variant keys"):
            ExperimentSpec(name="x", description="", variants=({"typo": 1},))

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            ExperimentSpec.from_dict({"name": "x", "description": "", "bogus": 1})

    def test_unknown_method_fails_resolve(self):
        spec = ExperimentSpec(name="x", description="", methods=("BOGUS",))
        with pytest.raises(KeyError):
            spec.resolve()


class TestCliGeneratedFromCatalog:
    def test_artifact_table_matches_catalog(self):
        from repro.experiments.cli import ARTIFACTS

        specs = catalog()
        assert set(ARTIFACTS) == set(specs)
        for name, (description, _fn) in ARTIFACTS.items():
            assert description == specs[name].description

    def test_list_output_generated_from_catalog(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name, spec in catalog().items():
            assert name in out
            assert spec.description in out

    def test_spec_flag_runs_user_scenario(self, tmp_path, capsys):
        spec = ExperimentSpec(
            name="my-scenario",
            description="statistics-only scenario",
            kind="statistics",
            datasets=(("beer", "Aroma"),),
            table_title="My scenario",
            key_column="family",
        )
        path = tmp_path / "scenario.json"
        spec.to_json(path)
        from repro.experiments.cli import main

        assert main(["--spec", str(path), "--n-train", "20"]) == 0
        out = capsys.readouterr().out
        assert "My scenario" in out
        assert "Aroma" in out

    def test_spec_flag_bad_file_errors(self, capsys):
        from repro.experiments.cli import main

        assert main(["--spec", "/nonexistent/spec.json"]) == 2
        capsys.readouterr()

    def test_spec_flag_unknown_method_errors(self, tmp_path, capsys):
        spec = ExperimentSpec(name="x", description="", methods=("BOGUS",),
                              datasets=(("beer", "Aroma"),))
        path = tmp_path / "bad.json"
        spec.to_json(path)
        from repro.experiments.cli import main

        assert main(["--spec", str(path)]) == 2
        capsys.readouterr()


class TestEngine:
    def test_grouped_spec_shapes(self):
        spec = beer_comparison_spec(methods=("RNP",), aspects=("Palate",))
        result = execute_spec(spec, TINY)
        assert set(result) == {"Palate"}
        assert result["Palate"][0]["method"] == "RNP"

    def test_variant_overrides_reach_the_model(self):
        rows = execute_spec(ablation_weight_spec(weights=(0.0, 1.0)), TINY)
        assert [r["weight"] for r in rows] == [0.0, 1.0]

    def test_pretrain_hook_emits_pre_acc(self):
        spec = skewed_generator_spec(methods=("RNP",), thresholds=(55.0,))
        rows = execute_spec(spec, TINY)
        assert rows[0]["setting"] == "skew55.0"
        assert "Pre_acc" in rows[0]

    def test_render_spec_produces_table(self):
        spec = catalog()["table9"]
        text = render_spec(spec, TINY)
        assert "Table IX" in text
        assert "Appearance" in text

    def test_dataset_builder_registry(self):
        dataset = build_dataset("beer", "Aroma", TINY)
        assert len(dataset.train) == TINY.n_train
        with pytest.raises(KeyError, match="beer"):
            get_dataset_family("wine")

    def test_artifact_and_spec_mutually_exclusive(self, tmp_path):
        from repro.experiments.cli import main

        path = tmp_path / "s.json"
        catalog()["table9"].to_json(path)
        with pytest.raises(SystemExit):
            main(["--artifact", "table9", "--spec", str(path)])

    def test_complexity_relative_column_anchors_to_rnp(self):
        from repro.api.experiments import complexity_spec

        rows = execute_spec(complexity_spec(methods=("DAR", "RNP")), TINY)
        by_method = {r["method"]: r for r in rows}
        # Rows before RNP render "-" (the paper anchors the unit to RNP).
        assert by_method["DAR"]["relative"] == "-"
        assert by_method["RNP"]["relative"] == "2.0x"
