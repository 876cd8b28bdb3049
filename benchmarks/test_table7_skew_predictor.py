"""Table VII — skewed-predictor synthetic setting (induced rationale shift).

The predictor is pretrained on first sentences only (mostly Appearance in
beer reviews) before the cooperative game starts on Aroma/Palate.

Paper shape: RNP collapses as the skew grows (Palate skew20: F1 0.6) and
A2R degrades heavily, while DAR is barely affected (Palate: ~60 across all
skews; Aroma: ~74 across all skews).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.api.experiments import skewed_predictor_spec
from repro.api.spec import execute_spec
from repro.utils import render_table


def test_table7_skewed_predictor(benchmark, profile):
    rows = run_once(benchmark, execute_spec, skewed_predictor_spec(), profile)

    for aspect in ("Aroma", "Palate"):
        subset = [r for r in rows if r["aspect"] == aspect]
        print()
        print(render_table(f"Table VII — skewed predictor, Beer-{aspect}", subset))

    def mean_f1(method):
        return np.mean([r["F1"] for r in rows if r["method"] == method])

    def worst_f1(method):
        return min(r["F1"] for r in rows if r["method"] == method)

    print({m: (round(mean_f1(m), 1), round(worst_f1(m), 1)) for m in ("RNP", "A2R", "DAR")})
    # Paper shape: DAR is robust to predictor skew — its *worst case* over
    # all skew settings stays usable while the paper's RNP falls to F1
    # 0.6-11 at skew20 (and ours is similarly erratic).  At this scale A2R
    # degrades less than in the paper (see EXPERIMENTS.md), so only the
    # RNP comparison is asserted.
    assert worst_f1("DAR") > 20.0
    assert worst_f1("DAR") >= worst_f1("RNP")
    assert mean_f1("DAR") > 40.0
