"""Process-pool experiment engine: equivalence, resume, store, telemetry.

The engine's core contract is that fanning a spec's work units across
worker processes changes *nothing* about the rows — parallel runs are
bit-identical to the serial engine (the equivalence gate below extends
the PR 5 seed-semantics regression tests), interrupted sweeps resume
from the durable store executing only the missing units, and every unit
lands one ``run_table.csv`` row plus a sqlite catalog entry.
"""

import json
import sqlite3

import pytest

from repro.api import execute_spec
from repro.api.executor import (
    ExperimentExecutionError,
    WorkUnit,
    aggregate_cell_rows,
    executor_registry,
    plan_units,
    run_experiment,
    run_unit,
)
from repro.api.experiments import catalog, skewed_predictor_spec
from repro.api.store import RUN_TABLE_BASE_COLUMNS, RunStore, run_identity
from repro.api.profiles import ExperimentProfile
from repro.experiments.reporting import load_rows_json

TINY = ExperimentProfile(
    n_train=40, n_dev=16, n_test=16, hidden_size=8, epochs=1, batch_size=20, pretrain_epochs=1
)


def tiny_table2():
    """Table II cut to a 1-aspect × 2-method grid (2 units)."""
    return catalog()["table2"].scaled(
        datasets=(("beer", "Aroma"),), methods=("RNP", "DAR")
    )


def tiny_table7():
    """Table VII cut to 1 aspect × 1 method × 2 skew variants (2 units) —
    covers the pretrain-hook and generator-surgery paths."""
    return skewed_predictor_spec(
        methods=("DAR",), aspects=("Aroma",), skew_epochs=(1, 2)
    )


class TestPlanning:
    def test_unit_decomposition_and_keys(self):
        spec = catalog()["table2"].scaled(
            datasets=(("beer", "Aroma"), ("beer", "Palate")), methods=("RNP", "DAR")
        )
        units = plan_units(spec, TINY, (0, 7))
        assert len(units) == 2 * 2 * 2  # datasets x methods x seeds
        keys = [u.key for u in units]
        assert len(set(keys)) == len(keys)
        assert "d00_v00_RNP_r00_s0" in keys
        assert "d01_v00_DAR_r01_s7" in keys

    def test_units_are_picklable_plain_data(self):
        import pickle

        unit = plan_units(tiny_table2(), TINY, (0,))[0]
        assert isinstance(unit, WorkUnit)
        assert pickle.loads(pickle.dumps(unit)) == unit

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_experiment(tiny_table2(), TINY, seeds=(1, 1))

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(tiny_table2(), TINY, jobs=0)


class TestEquivalenceGate:
    """Parallel rows must be bit-identical to the serial engine's."""

    def test_table2_jobs4_identical_to_serial(self):
        spec = tiny_table2()
        serial = execute_spec(spec, TINY)
        parallel = execute_spec(spec, TINY, jobs=4)
        assert parallel == serial

    def test_table7_pretrain_variants_identical_to_serial(self):
        # Pretrain hooks + generator surgery exercise every RNG a unit
        # owns; the pool path must reproduce them exactly.
        spec = tiny_table7()
        serial = execute_spec(spec, TINY)
        parallel = execute_spec(spec, TINY, jobs=4)
        assert parallel == serial

    def test_unit_engine_identical_to_serial_in_process(self):
        # jobs=1 still routes through unit decomposition when any
        # executor feature is requested — same rows, same shape.
        spec = tiny_table2()
        assert run_experiment(spec, TINY, jobs=1) == execute_spec(spec, TINY)

    def test_untrained_kind_matches_serial(self):
        spec = catalog()["table4"]
        assert execute_spec(spec, TINY, jobs=2) == execute_spec(spec, TINY)


class TestSeedSweeps:
    def test_swept_seeds_resample_model_init(self):
        # Extends the PR 5 regression: a swept seed drives model init +
        # training RNG, so per-seed unit rows must differ.
        spec = tiny_table2()
        units = plan_units(spec, TINY, (3, 4))
        rows = {u.key: run_unit(u)["row"] for u in units}
        assert rows["d00_v00_RNP_r00_s3"] != rows["d00_v00_RNP_r01_s4"]
        assert rows["d00_v00_DAR_r00_s3"] != rows["d00_v00_DAR_r01_s4"]

    def test_multi_seed_rows_aggregate_mean_std(self):
        spec = tiny_table2()
        result = run_experiment(spec, TINY, seeds=(3, 4))
        rows = result["Aroma"]
        assert [r["method"] for r in rows] == ["RNP", "DAR"]
        for row in rows:
            assert row["seeds"] == 2
            assert "±" in row["F1"]

    def test_aggregate_cell_rows_folds_numeric_columns(self):
        folded = aggregate_cell_rows(
            [{"method": "RNP", "F1": 10.0, "Acc": None},
             {"method": "RNP", "F1": 20.0, "Acc": None}]
        )
        assert folded["method"] == "RNP"
        assert folded["F1"] == "15.0±7.1"
        assert folded["Acc"] is None
        assert folded["seeds"] == 2

    def test_single_seed_rows_stay_raw(self):
        row = aggregate_cell_rows([{"F1": 10.0}])
        assert row == {"F1": 10.0}


class TestRunStore:
    def test_run_identity_content_addressed(self):
        spec = tiny_table2()
        assert run_identity(spec, TINY, (0,)) == run_identity(spec, TINY, (0,))
        assert run_identity(spec, TINY, (0,)) != run_identity(spec, TINY, (0, 1))
        assert run_identity(spec, TINY, (0,)) != run_identity(
            spec, TINY.scaled(epochs=2), (0,)
        )

    def test_store_lands_units_table_catalog_and_provenance(self, tmp_path):
        spec = tiny_table2()
        result = execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)
        store = RunStore(tmp_path)
        run_id = run_identity(spec, TINY, (TINY.seed,))

        # one atomic unit file per (dataset, variant, method, seed)
        unit_files = sorted((store.run_dir(run_id) / "units").glob("*.json"))
        assert [p.stem for p in unit_files] == [
            "d00_v00_DAR_r00_s0", "d00_v00_RNP_r00_s0"
        ]

        # run_table.csv: one row per unit, base columns then metric columns
        table = (store.run_dir(run_id) / "run_table.csv").read_text().splitlines()
        header = table[0].split(",")
        assert header[: len(RUN_TABLE_BASE_COLUMNS)] == list(RUN_TABLE_BASE_COLUMNS)
        assert len(header) == len(set(header)), "duplicate run_table columns"
        assert "F1" in header and "ms_per_epoch" in header
        assert len(table) == 1 + len(unit_files)

        # sqlite catalog: runs row complete, units rows queryable
        runs = store.runs()
        assert len(runs) == 1
        assert runs[0]["run_id"] == run_id
        assert runs[0]["status"] == "complete"
        assert runs[0]["n_completed"] == 2
        units = store.units(run_id)
        assert {u["method"] for u in units} == {"RNP", "DAR"}
        assert all(u["duration_s"] > 0 for u in units)

        # result.json: rows + executable provenance round-trip
        rows, metadata = load_rows_json(store.run_dir(run_id) / "result.json")
        assert metadata["run_id"] == run_id
        assert metadata["jobs"] == 1 and metadata["seeds"] == [TINY.seed]
        from repro.api import ExperimentSpec

        rebuilt = ExperimentSpec.from_dict(metadata["spec"])
        assert rebuilt == spec
        flat = [row for group in result.values() for row in group]
        assert [r["F1"] for r in rows] == [r["F1"] for r in flat]

    def test_reindex_rebuilds_units_from_files(self, tmp_path):
        spec = tiny_table2()
        execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)
        store = RunStore(tmp_path)
        conn = sqlite3.connect(store.catalog_path)
        conn.execute("DELETE FROM units")
        conn.commit()
        conn.close()
        assert store.units() == []
        assert store.reindex() == 2
        assert len(store.units()) == 2


class TestResumability:
    def test_rerun_executes_only_missing_units(self, tmp_path, monkeypatch):
        spec = tiny_table2()
        clean = execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)
        run_id = run_identity(spec, TINY, (TINY.seed,))
        units_dir = RunStore(tmp_path).run_dir(run_id) / "units"

        # simulate a sweep killed after one unit landed
        (units_dir / "d00_v00_RNP_r00_s0.json").unlink()

        import repro.api.executor as executor_mod

        executed = []
        real_run_unit = executor_mod.run_unit

        def counting_run_unit(unit):
            executed.append(unit.key)
            return real_run_unit(unit)

        monkeypatch.setattr(executor_mod, "run_unit", counting_run_unit)
        resumed = execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)
        assert executed == ["d00_v00_RNP_r00_s0"]  # only the missing unit
        assert resumed == clean

    def test_completed_run_reruns_nothing(self, tmp_path, monkeypatch):
        spec = tiny_table2()
        clean = execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)

        import repro.api.executor as executor_mod

        def exploding_run_unit(unit):  # pragma: no cover - must not run
            raise AssertionError(f"unit {unit.key} re-executed on resume")

        monkeypatch.setattr(executor_mod, "run_unit", exploding_run_unit)
        assert execute_spec(spec, TINY, jobs=1, results_dir=tmp_path) == clean

    def test_interrupted_run_lands_completed_units_then_resumes(
        self, tmp_path, monkeypatch
    ):
        spec = tiny_table2()
        import repro.api.executor as executor_mod

        real_run_unit = executor_mod.run_unit

        def failing_run_unit(unit):
            if unit.method == "DAR":
                raise RuntimeError("worker killed")
            return real_run_unit(unit)

        monkeypatch.setattr(executor_mod, "run_unit", failing_run_unit)
        with pytest.raises(ExperimentExecutionError, match="d00_v00_DAR"):
            execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)

        store = RunStore(tmp_path)
        run_id = run_identity(spec, TINY, (TINY.seed,))
        assert [r["status"] for r in store.runs()] == ["interrupted"]
        landed = sorted(p.stem for p in (store.run_dir(run_id) / "units").glob("*.json"))
        assert landed == ["d00_v00_RNP_r00_s0"]  # completed unit survived

        # the retry executes only the failed unit and completes the run
        executed = []

        def counting_run_unit(unit):
            executed.append(unit.key)
            return real_run_unit(unit)

        monkeypatch.setattr(executor_mod, "run_unit", counting_run_unit)
        resumed = execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)
        assert executed == ["d00_v00_DAR_r00_s0"]
        assert resumed == execute_spec(spec, TINY)
        assert [r["status"] for r in store.runs()] == ["complete"]

    def test_untrained_spec_resumes_from_result_json(self, tmp_path):
        spec = catalog()["table4"]
        first = execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)
        again = execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)
        assert [r["parameters"] for r in again] == [r["parameters"] for r in first]


class TestTelemetry:
    def test_unit_counters_histogram_and_inflight(self, tmp_path):
        registry = executor_registry()
        registry.reset()
        spec = tiny_table2()
        execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)
        units_total = registry.get("repro_experiment_units_total")
        assert units_total.value(status="completed") == 2
        assert registry.get("repro_experiment_inflight_units").value() == 0
        hist = registry.get("repro_experiment_unit_seconds")
        assert hist.merged_entry()["count"] == 2
        assert registry.get("repro_experiment_runs_total").value(status="completed") == 1

        # resume path: nothing re-executes, resumed counter accounts for it
        registry.reset()
        execute_spec(spec, TINY, jobs=1, results_dir=tmp_path)
        assert units_total.value(status="resumed") == 2
        assert units_total.value(status="completed") == 0

    def test_failed_units_counted(self, monkeypatch):
        registry = executor_registry()
        registry.reset()
        import repro.api.executor as executor_mod

        def failing_run_unit(unit):
            raise RuntimeError("boom")

        monkeypatch.setattr(executor_mod, "run_unit", failing_run_unit)
        with pytest.raises(ExperimentExecutionError):
            run_experiment(tiny_table2(), TINY, jobs=1)
        units_total = registry.get("repro_experiment_units_total")
        assert units_total.value(status="failed") == 2
        assert registry.get("repro_experiment_runs_total").value(status="failed") == 1

    def test_metric_names_pass_the_naming_contract(self):
        from repro.obs.metrics import METRIC_NAME_RE

        for name in executor_registry().names():
            assert METRIC_NAME_RE.match(name), name
