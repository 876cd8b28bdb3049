"""Table IX — dataset statistics (scaled to the synthetic corpora).

Paper shape: balanced binary splits per aspect; annotation sparsity
ordering Appearance (18.5) > Aroma (15.6) > Palate (12.4) for beer, and
Service (11.5) > Cleanliness (8.9) ~ Location (8.5) for hotel.
"""

from benchmarks.conftest import run_once
from repro.api.experiments import dataset_statistics_spec
from repro.api.spec import execute_spec
from repro.utils import render_table


def test_table9_dataset_statistics(benchmark, profile):
    rows = run_once(benchmark, execute_spec, dataset_statistics_spec(), profile)

    print()
    print(render_table("Table IX — dataset statistics (scaled)", rows, key_column="family"))

    by_aspect = {r["aspect"]: r for r in rows}
    assert len(rows) == 6

    for row in rows:
        assert row["train_pos"] == row["train_neg"]  # balanced construction
        assert row["sparsity_pct"] > 0

    # Table IX sparsity ordering within each family.
    assert by_aspect["Appearance"]["sparsity_pct"] > by_aspect["Aroma"]["sparsity_pct"]
    assert by_aspect["Aroma"]["sparsity_pct"] > by_aspect["Palate"]["sparsity_pct"]
    assert by_aspect["Service"]["sparsity_pct"] > by_aspect["Location"]["sparsity_pct"]
