"""The command-line interface for regenerating artifacts."""

import pytest

from repro.experiments.cli import ARTIFACTS, build_parser, main, resolve_profile


class TestParser:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "fig6" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "table9" in capsys.readouterr().out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--artifact", "table99"])

    def test_all_artifacts_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "table8", "table9", "fig3a", "fig3b", "fig6",
            "ablation-frozen", "ablation-weight", "ablation-sampler",
        }
        assert set(ARTIFACTS) == expected


class TestProfileResolution:
    def test_default_fast(self):
        args = build_parser().parse_args(["--artifact", "table9"])
        profile = resolve_profile(args)
        from repro.api.profiles import FAST_PROFILE

        assert profile == FAST_PROFILE

    def test_overrides(self):
        args = build_parser().parse_args(
            ["--artifact", "table9", "--n-train", "99", "--epochs", "2", "--seed", "7"]
        )
        profile = resolve_profile(args)
        assert profile.n_train == 99
        assert profile.epochs == 2
        assert profile.seed == 7

    def test_full_profile(self):
        args = build_parser().parse_args(["--artifact", "table9", "--profile", "full"])
        assert resolve_profile(args).n_train >= 2000


class TestBackendKnobs:
    def test_defaults_keep_seed_numerics_with_bucketing_on(self):
        # dtype/fusion default to the seed numerics; bucketing defaults ON
        # since the fast-path re-baseline (it changes batch composition,
        # not math) and is opted out of with --no-bucketing.
        args = build_parser().parse_args(["--artifact", "table9"])
        profile = resolve_profile(args)
        assert profile.dtype == "float64"
        assert profile.fused is False
        assert profile.bucketing is True

    def test_no_bucketing_replays_seed_batching(self):
        args = build_parser().parse_args(["--artifact", "table9", "--no-bucketing"])
        assert resolve_profile(args).bucketing is False

    def test_fast_path_flags(self):
        args = build_parser().parse_args(
            ["--artifact", "table9", "--dtype", "float32", "--fused", "--bucketing"]
        )
        profile = resolve_profile(args)
        assert profile.dtype == "float32"
        assert profile.fused is True
        assert profile.bucketing is True

    def test_invalid_dtype_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dtype", "float16"])

    def test_bench_command_parses(self):
        args = build_parser().parse_args(["bench", "--bench-out", "/tmp/x.json"])
        assert args.command == "bench"
        assert args.bench_out == "/tmp/x.json"

    def test_bench_command_runs(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import bench as bench_mod

        full_bench = bench_mod.run_backend_bench

        def tiny_bench(seed=0, out_path=None, **_):
            return full_bench(
                n_examples=8, min_len=4, max_len=10, embedding_dim=8, hidden_size=4,
                batch_size=4, repeats=1, seed=seed, out_path=out_path,
            )

        monkeypatch.setattr(bench_mod, "run_backend_bench", tiny_bench)
        out_file = tmp_path / "BENCH_backend.json"
        assert main(["bench", "--bench-out", str(out_file)]) == 0
        assert out_file.exists()
        table = capsys.readouterr().out
        assert "speedup_vs_seed" in table
        assert "seed (float64, composed, naive)" in table
        import json

        artifact = json.loads(out_file.read_text())
        assert "kernel_timings" in artifact and "buffer_pool" in artifact
        # The fused configs carry a per-kernel breakdown.
        assert any(artifact["kernel_timings"].values())

    def test_bench_compare_gate(self, tmp_path, capsys, monkeypatch):
        """--compare-to passes against itself and fails against a tightened
        baseline (the `make bench-compare` regression gate)."""
        import json

        from repro.experiments import bench as bench_mod

        full_bench = bench_mod.run_backend_bench

        def tiny_bench(seed=0, out_path=None, **_):
            return full_bench(
                n_examples=8, min_len=4, max_len=10, embedding_dim=8, hidden_size=4,
                batch_size=4, repeats=1, seed=seed, out_path=out_path,
            )

        monkeypatch.setattr(bench_mod, "run_backend_bench", tiny_bench)
        baseline_file = tmp_path / "BENCH_backend.json"
        assert main(["bench", "--bench-out", str(baseline_file)]) == 0
        # Comparing against a generous baseline passes...
        generous = json.loads(baseline_file.read_text())
        for row in generous["results"]:
            row["ms_per_epoch"] = row["ms_per_epoch"] * 100.0
        generous_file = tmp_path / "generous.json"
        generous_file.write_text(json.dumps(generous))
        assert main(["bench", "--compare-to", str(generous_file)]) == 0
        # ...and against an impossible one fails with exit code 1.
        impossible = json.loads(baseline_file.read_text())
        for row in impossible["results"]:
            row["ms_per_epoch"] = row["ms_per_epoch"] / 100.0
        impossible_file = tmp_path / "impossible.json"
        impossible_file.write_text(json.dumps(impossible))
        assert main(["bench", "--compare-to", str(impossible_file)]) == 1
        capsys.readouterr()

    def test_bench_compare_missing_baseline_errors(self, capsys):
        assert main(["bench", "--compare-to", "/nonexistent/bench.json"]) == 2
        capsys.readouterr()


class TestExecution:
    def test_table9_runs_quickly(self, capsys):
        # table9 involves no training — safe to execute in a unit test.
        assert main(["--artifact", "table9", "--n-train", "20"]) == 0
        out = capsys.readouterr().out
        assert "Appearance" in out
        assert "Cleanliness" in out

    def test_table4_runs_quickly(self, capsys):
        assert main(["--artifact", "table4", "--n-train", "20"]) == 0
        out = capsys.readouterr().out
        assert "1gen+2pred" in out
