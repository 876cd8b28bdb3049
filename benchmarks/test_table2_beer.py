"""Table II — main comparison on (synthetic) BeerAdvocate.

Paper shape: DAR's rationale F1 beats RNP/DMR/Inter_RAT/A2R on all three
aspects (e.g. Palate: DAR 66.6 vs A2R 57.4/RNP 51.0), with every method
selecting near the human sparsity.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.api.experiments import beer_comparison_spec
from repro.api.spec import execute_spec
from repro.utils import render_table


def test_table2_beer_comparison(benchmark, profile):
    results = run_once(benchmark, execute_spec, beer_comparison_spec(), profile)

    for aspect, rows in results.items():
        print()
        print(render_table(f"Table II — Beer-{aspect}", rows))

    # Structural checks: every method produced a full row per aspect.
    for aspect, rows in results.items():
        assert [r["method"] for r in rows] == ["RNP", "DMR", "Inter_RAT", "A2R", "DAR"]
        for row in rows:
            assert 0.0 <= row["F1"] <= 100.0
            assert 0.0 <= row["S"] <= 100.0

    # Paper shape: DAR has the best mean F1 across aspects.
    mean_f1 = {}
    for rows in results.values():
        for row in rows:
            mean_f1.setdefault(row["method"], []).append(row["F1"])
    mean_f1 = {m: np.mean(v) for m, v in mean_f1.items()}
    print("mean F1:", {m: round(v, 1) for m, v in mean_f1.items()})
    assert mean_f1["DAR"] == max(mean_f1.values())
