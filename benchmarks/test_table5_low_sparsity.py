"""Table V — robustness at low rationale sparsity (~10-12%).

Paper shape: with the selection budget forced well below the human
annotation rate, DAR still leads RNP/CAR/DMR on every beer aspect (best
improvement 11.2% on Aroma).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.api.experiments import low_sparsity_spec
from repro.api.spec import execute_spec
from repro.utils import render_table


def test_table5_low_sparsity(benchmark, profile):
    results = run_once(benchmark, execute_spec, low_sparsity_spec(), profile)

    for aspect, rows in results.items():
        print()
        print(render_table(f"Table V — Beer-{aspect} (low sparsity)", rows))

    for aspect, rows in results.items():
        for row in rows:
            # The budget is enforced: selections stay in a low-sparsity band.
            assert row["S"] <= 35.0

    mean_f1 = {}
    for rows in results.values():
        for row in rows:
            mean_f1.setdefault(row["method"], []).append(row["F1"])
    mean_f1 = {m: np.mean(v) for m, v in mean_f1.items()}
    print("mean F1:", {m: round(v, 1) for m, v in mean_f1.items()})
    # Paper shape: DAR leads RNP/CAR/DMR under the tightened budget.
    others = [mean_f1[m] for m in mean_f1 if m != "DAR"]
    assert mean_f1["DAR"] > np.mean(others)
    assert mean_f1["DAR"] > mean_f1["RNP"]
