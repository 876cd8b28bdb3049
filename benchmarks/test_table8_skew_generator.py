"""Table VIII — skewed-generator synthetic setting.

The generator is pretrained to leak the class label through its first-token
selection (select the first token iff the class is 1) until its accuracy as
a first-token classifier passes a threshold ("Pre_acc").

Paper shape: RNP's rationale F1 collapses as Pre_acc grows (43.9 -> 8.8
from skew60 to skew75) while DAR degrades gracefully (55.7 -> 49.7).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.api.experiments import skewed_generator_spec
from repro.api.spec import execute_spec
from repro.utils import render_table


def test_table8_skewed_generator(benchmark, profile):
    rows = run_once(benchmark, execute_spec, skewed_generator_spec(), profile)

    print()
    print(render_table("Table VIII — skewed generator, Beer-Palate", rows))

    # Pre_acc reached the requested threshold for every setting.
    for row in rows:
        threshold = float(row["setting"].replace("skew", ""))
        assert row["Pre_acc"] >= threshold - 12.0  # small slack: epoch granularity

    def mean_f1(method):
        return np.mean([r["F1"] for r in rows if r["method"] == method])

    print({m: round(mean_f1(m), 1) for m in ("RNP", "DAR")})
    # Paper shape: DAR is more robust than RNP under generator skew.
    assert mean_f1("DAR") > mean_f1("RNP")
