"""Result persistence (JSON / markdown / diffs)."""

import pytest

from repro.experiments.reporting import (
    diff_rows,
    load_rows_json,
    rows_to_markdown,
    save_markdown_report,
    save_rows_json,
)

ROWS = [
    {"method": "RNP", "F1": 59.6, "S": 10.1},
    {"method": "DAR", "F1": 76.6, "S": 11.3},
]


class TestJsonRoundTrip:
    def test_rows_and_metadata(self, tmp_path):
        path = tmp_path / "table2.json"
        save_rows_json(ROWS, path, metadata={"table": "II", "seed": 0})
        rows, meta = load_rows_json(path)
        assert rows == [dict(r) for r in ROWS]
        assert meta["table"] == "II"

    def test_default_metadata_empty(self, tmp_path):
        path = tmp_path / "x.json"
        save_rows_json(ROWS, path)
        _, meta = load_rows_json(path)
        assert meta == {}

    def test_numpy_values_serialized(self, tmp_path):
        import numpy as np

        path = tmp_path / "np.json"
        save_rows_json([{"method": "RNP", "F1": np.float64(12.5)}], path)
        rows, _ = load_rows_json(path)
        assert rows[0]["F1"] == 12.5


class TestMarkdown:
    def test_table_structure(self):
        md = rows_to_markdown(ROWS)
        lines = md.splitlines()
        assert lines[0].startswith("| method |")
        assert lines[1].startswith("| --- |")
        assert "| DAR | 76.6 |" in md

    def test_empty(self):
        assert rows_to_markdown([]) == "*(empty)*"

    def test_missing_cell_dash(self):
        md = rows_to_markdown([{"method": "A", "F1": 1.0}, {"method": "B"}])
        assert "| B | - |" in md

    def test_report_file(self, tmp_path):
        path = tmp_path / "report.md"
        save_markdown_report({"Table II": ROWS}, path, title="Run 1")
        text = path.read_text()
        assert text.startswith("# Run 1")
        assert "## Table II" in text
        assert "| DAR |" in text


class TestDiff:
    def test_deltas(self):
        new = [{"method": "RNP", "F1": 62.0}, {"method": "DAR", "F1": 75.0}]
        diffs = diff_rows(ROWS, new)
        by_method = {d["method"]: d for d in diffs}
        assert by_method["RNP"]["delta"] == pytest.approx(2.4)
        assert by_method["DAR"]["delta"] == pytest.approx(-1.6)

    def test_unmatched_keys_skipped(self):
        diffs = diff_rows(ROWS, [{"method": "NEW", "F1": 1.0}])
        assert diffs == []


class TestSaveSpecResult:
    def test_embeds_spec_and_flattens_grouped_result(self, tmp_path):
        from repro.api import ExperimentSpec
        from repro.api.profiles import FAST_PROFILE
        from repro.experiments.reporting import load_rows_json, save_spec_result

        spec = ExperimentSpec(
            name="demo", description="demo spec", grouped=True,
            datasets=(("beer", "Aroma"),), methods=("RNP",),
        )
        result = {"Aroma": [{"method": "RNP", "F1": 10.0}]}
        path = tmp_path / "demo.json"
        flat = save_spec_result(spec, result, path, profile=FAST_PROFILE)
        assert flat == [{"aspect": "Aroma", "method": "RNP", "F1": 10.0}]
        rows, metadata = load_rows_json(path)
        assert rows == flat
        assert metadata["spec"]["name"] == "demo"
        assert metadata["profile"]["n_train"] == FAST_PROFILE.n_train
        # The provenance is executable: the embedded spec rebuilds itself.
        assert ExperimentSpec.from_dict(metadata["spec"]) == spec
