"""Run the Table II comparison on one beer aspect with every method.

Trains RNP, DMR, Inter_RAT, A2R, 3PLAYER, VIB, SPECTRA, CR and DAR on the
same synthetic Beer-Aroma dataset and prints a paper-style results table.

Run:  python examples/compare_baselines.py  (several minutes)
"""

from repro.api import Estimator
from repro.api.profiles import ExperimentProfile
from repro.data import build_beer_dataset
from repro.utils import render_table

METHODS = ("RNP", "DMR", "Inter_RAT", "A2R", "3PLAYER", "VIB", "SPECTRA", "CR", "DAR")


def main() -> None:
    profile = ExperimentProfile(n_train=400, n_dev=100, n_test=100, epochs=10)
    dataset = build_beer_dataset(
        "Aroma",
        n_train=profile.n_train,
        n_dev=profile.n_dev,
        n_test=profile.n_test,
        embedding_dim=profile.embedding_dim,
        seed=profile.seed,
    )

    rows = []
    for method in METHODS:
        print(f"training {method} ...")
        rows.append(Estimator(method, profile=profile).fit(dataset).as_row())

    print()
    print(render_table("Beer-Aroma — all methods", rows))
    best = max(rows, key=lambda r: r["F1"])
    print(f"best rationale F1: {best['method']} ({best['F1']})")


if __name__ == "__main__":
    main()
