"""Smoke tests for the repro-cloud CLI (every subcommand runs)."""

import pytest

from repro.cli import main


class TestCli:
    def test_describe(self, capsys):
        assert main(["describe", "--clients", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "clusters" in out

    def test_solve(self, capsys):
        assert main(["solve", "--clients", "6", "--seed", "1", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "profit" in out

    def test_solve_sharded_two_tier(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--clients", "12",
                    "--seed", "1",
                    "--rounds", "2",
                    "--shards", "4",
                    "--workers", "1",
                    "--shard-levels", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "profit" in out

    def test_solve_rejects_bad_shard_levels(self):
        with pytest.raises(SystemExit):
            main(["solve", "--clients", "6", "--shard-levels", "3"])

    def test_solve_fleet_view(self, capsys):
        assert (
            main(["solve", "--clients", "5", "--seed", "2", "--fleet"]) == 0
        )
        out = capsys.readouterr().out
        assert "cluster 0" in out
        assert "OFF" in out or "#" in out

    def test_compare(self, capsys):
        assert (
            main(["compare", "--clients", "6", "--seed", "1", "--mc-trials", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "proposed heuristic" in out
        assert "modified PS" in out

    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--clients",
                    "5",
                    "--seed",
                    "1",
                    "--duration",
                    "60",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "analytical mean" in out

    def test_simulate_gps_mode(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--clients",
                    "4",
                    "--seed",
                    "1",
                    "--duration",
                    "40",
                    "--mode",
                    "gps",
                ]
            )
            == 0
        )
        assert "mode=gps" in capsys.readouterr().out

    def test_epochs(self, capsys):
        assert (
            main(
                [
                    "epochs",
                    "--clients",
                    "5",
                    "--seed",
                    "1",
                    "--epochs",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "re-allocate" in out

    def test_experiment_scalability(self, capsys):
        assert main(["experiment", "scalability"]) == 0
        out = capsys.readouterr().out
        assert "solve seconds" in out
        assert "coverage:" in out

    def test_experiment_fig4_with_workers_and_run_dir(self, capsys, tmp_path):
        args = [
            "experiment",
            "fig4",
            "--sweep-clients",
            "5",
            "6",
            "--scenarios",
            "1",
            "--mc-trials",
            "2",
            "--workers",
            "2",
            "--run-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "coverage: 2/2 cells" in out
        assert (tmp_path / "manifest.json").exists()
        # Immediately resuming a completed sweep re-runs nothing.
        assert main(args + ["--resume"]) == 0
        assert "2 resumed from checkpoint" in capsys.readouterr().out

    def test_experiment_fig5_quick(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "fig5",
                    "--sweep-clients",
                    "5",
                    "--scenarios",
                    "1",
                    "--mc-trials",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worst" in out
        assert "coverage: 1/1 cells" in out

    def test_multitier(self, capsys):
        assert main(["multitier", "--apps", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "apps served" in out
        assert "end-to-end R" in out

    def test_admission(self, capsys):
        assert main(["admission", "--clients", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "admission control" in out

    def test_predict(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "--clients",
                    "5",
                    "--seed",
                    "3",
                    "--factors",
                    "0.7",
                    "1.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trust prediction" in out

    def test_epochs_pattern(self, capsys):
        assert (
            main(
                [
                    "epochs",
                    "--clients",
                    "4",
                    "--seed",
                    "1",
                    "--epochs",
                    "2",
                    "--pattern",
                    "bursty",
                ]
            )
            == 0
        )
        assert "re-allocate" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_epochs_warm_policy(self, capsys):
        assert (
            main(
                [
                    "epochs",
                    "--clients",
                    "4",
                    "--seed",
                    "1",
                    "--epochs",
                    "2",
                    "--warm",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "warm service" in out
        assert "cold solves" in out

    def test_serve(self, capsys):
        assert (
            main(["serve", "--clients", "4", "--seed", "1", "--epochs", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "final profit" in out
        assert "snapshot hash" in out

    def test_serve_with_artifacts(self, capsys, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        snapshot = str(tmp_path / "snap.json")
        assert (
            main(
                [
                    "serve",
                    "--clients",
                    "4",
                    "--seed",
                    "1",
                    "--epochs",
                    "2",
                    "--churn",
                    "0.5",
                    "--journal",
                    journal,
                    "--snapshot",
                    snapshot,
                ]
            )
            == 0
        )
        import json

        from repro.service import AllocationService

        snap = json.load(open(snapshot))
        restored = AllocationService.restore(snap)
        assert restored.seq > 0


class TestCliErrorMapping:
    """Every subcommand maps library errors to a one-liner + exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["describe", "--clients", "0"],
            ["solve", "--clients", "0"],
            ["compare", "--clients", "0"],
            ["simulate", "--clients", "0"],
            ["epochs", "--clients", "0"],
            ["serve", "--clients", "0"],
            ["admission", "--clients", "0"],
            ["predict", "--clients", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_instance_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_epochs_bad_epoch_count_exits_2(self, capsys):
        assert main(["epochs", "--clients", "4", "--epochs", "0"]) == 2
        assert "num_epochs" in capsys.readouterr().err


class TestGapCommand:
    def test_gap_tiny_matrix(self, capsys):
        assert (
            main(
                [
                    "gap",
                    "--clients",
                    "8",
                    "--seeds",
                    "1",
                    "--dual-clients",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "gap/exact/certification/n00008/s000" in out
        assert "cells clean" in out

    def test_gap_dual_only(self, capsys):
        assert (
            main(
                ["gap", "--clients", "6", "--seeds", "1", "--dual-clients", "12"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "gap/dual/certification/n00012/s000" in out

    def test_gap_breach_exits_1(self, capsys, monkeypatch):
        # An impossible threshold forces a breach: exit 1, not an error.
        assert (
            main(
                [
                    "gap",
                    "--clients",
                    "8",
                    "--seeds",
                    "1",
                    "--dual-clients",
                    "0",
                    "--tolerance",
                    "0.0",
                    "--budget",
                    "1",
                ]
            )
            == 1
        )
        assert "breached" in capsys.readouterr().out

    def test_gap_cpsat_backend_without_ortools(self, capsys):
        try:
            import ortools  # noqa: F401

            pytest.skip("ortools installed; the degraded path is not reachable")
        except ImportError:
            pass
        assert main(["gap", "--clients", "4", "--backend", "cpsat"]) == 2
        assert "ortools" in capsys.readouterr().err
