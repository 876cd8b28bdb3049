"""Table IV — model complexity (modules and parameters).

Paper: RNP 1gen+1pred (2x), CAR 1gen+2pred (3x), DMR 1gen+3pred (4x),
A2R 1gen+2pred (3x), DAR 1gen+2pred (3x) — in units of one player's
parameters.  Our reimplementations carry: CAR 1gen+1pred (its class-wise
game reuses one predictor), DMR 1gen+2pred (logit matching needs one extra
predictor); DAR matches the paper exactly.
"""

from benchmarks.conftest import run_once
from repro.api.experiments import complexity_spec
from repro.api.spec import execute_spec
from repro.utils import render_table


def test_table4_complexity(benchmark, profile):
    rows = run_once(benchmark, execute_spec, complexity_spec(), profile)

    print()
    print(render_table("Table IV — model complexity", rows))

    by_method = {r["method"]: r for r in rows}
    assert by_method["RNP"]["relative"] == "2.0x"
    assert by_method["DAR"]["relative"] == "3.0x"
    assert by_method["DAR"]["modules"] == "1gen+2pred"
    assert by_method["A2R"]["modules"] == "1gen+2pred"
    # DAR adds exactly one predictor's worth of parameters over RNP.
    assert by_method["DAR"]["parameters"] > by_method["RNP"]["parameters"]
