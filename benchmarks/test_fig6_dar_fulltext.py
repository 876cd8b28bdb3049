"""Fig. 6 — DAR's predictor generalizes to the full text (Theorem 1).

Paper shape: on all six aspects DAR's predictor scores high accuracy with
the full text as input even though it only ever saw selected rationales
during cooperative training (rationale acc 86-97.5, full-text acc 89-98).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.api.experiments import fig6_dar_fulltext_spec
from repro.api.spec import execute_spec
from repro.utils import render_table


def test_fig6_dar_generalizes_to_full_text(benchmark, profile):
    rows = run_once(benchmark, execute_spec, fig6_dar_fulltext_spec(), profile)

    print()
    print(render_table("Fig. 6 — DAR accuracy: rationale vs full text", rows, key_column="aspect"))

    assert len(rows) == 6
    mean_full = np.mean([r["full_text_acc"] for r in rows])
    mean_rat = np.mean([r["rationale_acc"] for r in rows])
    print(f"mean rationale acc {mean_rat:.1f}, mean full-text acc {mean_full:.1f}")
    # Theorem 1's practical consequence: full-text accuracy is far above
    # chance on average, tracking the rationale accuracy.
    assert mean_full > 65.0
    assert mean_rat > 65.0
