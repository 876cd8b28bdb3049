"""Run a small comparison and export the results as JSON and markdown.

Demonstrates the reporting utilities: train two methods, save the rows,
reload them, and produce a diff — the workflow for tracking results across
code changes.

Run:  python examples/export_report.py  (writes into ./reports/)
"""

from pathlib import Path

from repro.api import Estimator
from repro.api.profiles import ExperimentProfile
from repro.data import build_beer_dataset
from repro.experiments.reporting import (
    diff_rows,
    load_rows_json,
    rows_to_markdown,
    save_markdown_report,
    save_rows_json,
)

PROFILE = ExperimentProfile(n_train=200, n_dev=60, n_test=60, epochs=5)


def main() -> None:
    out_dir = Path("reports")
    out_dir.mkdir(exist_ok=True)

    dataset = build_beer_dataset(
        "Aroma", n_train=PROFILE.n_train, n_dev=PROFILE.n_dev,
        n_test=PROFILE.n_test, seed=PROFILE.seed,
    )
    rows = []
    for method in ("RNP", "DAR"):
        print(f"training {method} ...")
        rows.append(Estimator(method, profile=PROFILE).fit(dataset).as_row())

    json_path = out_dir / "beer_aroma.json"
    save_rows_json(rows, json_path, metadata={"dataset": "Beer-Aroma", "profile": str(PROFILE)})
    save_markdown_report({"Beer-Aroma (RNP vs DAR)": rows}, out_dir / "beer_aroma.md")
    print(f"\nwrote {json_path} and {out_dir / 'beer_aroma.md'}:\n")
    print(rows_to_markdown(rows))

    # Reload and diff against itself (a no-op diff; in practice compare runs).
    reloaded, meta = load_rows_json(json_path)
    print("\nreloaded metadata:", meta)
    print("self-diff (all deltas 0):", diff_rows(reloaded, rows))


if __name__ == "__main__":
    main()
