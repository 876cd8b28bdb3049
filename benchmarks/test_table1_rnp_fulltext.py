"""Table I — predictive P/R/F1 of RNP's predictor on the full text.

Paper shape: on some hotel aspects the predictor degenerates to a constant
class on full text (recall ~0 or ~100 with nan precision) even though it
classifies the selected rationales well — direct evidence of rationale
shift.
"""

from benchmarks.conftest import run_once
from repro.api.experiments import table1_fulltext_spec
from repro.api.spec import execute_spec
from repro.utils import render_table


def test_table1_rnp_fulltext_scores(benchmark, profile):
    rows = run_once(benchmark, execute_spec, table1_fulltext_spec(), profile)

    print()
    print(render_table("Table I — RNP predictor on full text (Hotel)", rows, key_column="aspect"))

    assert len(rows) == 3
    for row in rows:
        # Acc is always well-defined; P/R/F1 may be 'nan' when the
        # predictor never predicts the positive class (the paper's nan),
        # and S may hit 0.0 when the generator collapses entirely.
        assert row["Acc"] != "nan"
        assert 0.0 <= row["S"] <= 100.0
