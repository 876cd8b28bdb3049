"""Fig. 3 (and App. Figs. 7/8) + the Fig. 3b accuracy gap on vanilla RNP.

Fig. 3a shape: across hyper-parameter sets, RNP's full-text prediction
accuracy is *positively correlated* with rationale quality — the paper's
motivating observation.

Fig. 3b shape: RNP's accuracy with the rationale input is high while its
full-text accuracy can collapse toward chance on some hotel aspects.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.api.experiments import fig3_accuracy_gap_spec, fig3_relationship_spec
from repro.api.spec import execute_spec
from repro.utils import render_table


def _both(profile):
    return (
        execute_spec(fig3_relationship_spec(), profile),
        execute_spec(fig3_accuracy_gap_spec(), profile),
    )


def test_fig3_rationale_shift_evidence(benchmark, profile):
    relationship, gap = run_once(benchmark, _both, profile)

    print()
    print(render_table("Fig. 3a — full-text acc vs rationale F1 (RNP, Hotel-Service)",
                       relationship, key_column="param_set"))
    print(render_table("Fig. 3b — rationale acc vs full-text acc (RNP)",
                       gap, key_column="aspect"))

    # Fig. 3a: positive association between full-text accuracy and F1.
    accs = np.array([r["full_text_acc"] for r in relationship])
    f1s = np.array([r["rationale_f1"] for r in relationship])
    if accs.std() > 1e-9 and f1s.std() > 1e-9:
        corr = np.corrcoef(accs, f1s)[0, 1]
        print(f"correlation(full-text acc, F1) = {corr:.2f}")
        assert corr > -0.2  # must not be strongly anti-correlated

    # Fig. 3b: the rationale-input accuracy is never the degenerate side —
    # the predictor fits whatever the generator feeds it.
    for row in gap:
        assert row["rationale_acc"] >= 45.0
