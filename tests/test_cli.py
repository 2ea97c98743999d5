import filecmp
import json
from pathlib import Path

import pytest

from sgnn_lab import ConfigError
from sgnn_lab.cli import FLOCK_CHECKS, SOURCE_CHECKS, _apply_overrides, main, run_checks
from sgnn_lab.experiments import FlockingConfig, SourceLocConfig

TINY_SOURCE = ["nodes=8", "communities=2", "tau_max=4", "train_size=60", "val_size=12",
               "test_size=24", "features=8", "order=2", "iterations=30",
               "batch_size=30", "test_p=1.0;0.7;0.5", "seeds=0"]
TINY_FLOCK = ["agents=5", "steps=10", "train_trajectories=2", "eval_trajectories=1",
              "features=6", "order=2", "iterations=20", "batch_size=10",
              "test_p=1.0;0.7", "seeds=0"]


def run(args):
    return main([str(a) for a in args])


class TestMomentCheck:
    def test_default_battery_passes(self, tmp_path):
        assert run(["moment-check", "--seed", "1", "--out", tmp_path,
                    "--samples", "5000"]) == 0
        text = (tmp_path / "moment_check.csv").read_text()
        assert "second_moment" in text and "nonlinearity_variance" in text

    def test_kind_filter(self, tmp_path):
        assert run(["moment-check", "--kind", "laplacian", "--out", tmp_path,
                    "--samples", "5000"]) == 0
        text = (tmp_path / "moment_check.csv").read_text()
        assert "/laplacian/" in text and "/adjacency/" not in text

    def test_max_edges_guard_respected(self, tmp_path):
        assert run(["moment-check", "--max-edges", "3", "--out", tmp_path,
                    "--samples", "5000"]) == 0
        text = (tmp_path / "moment_check.csv").read_text()
        assert "star5" not in text  # 5 spokes exceed the 3-edge guard

    def test_json_format(self, tmp_path):
        assert run(["moment-check", "--out", tmp_path, "--format", "json",
                    "--samples", "5000"]) == 0
        payload = json.loads((tmp_path / "moment_check.json").read_text())
        assert all(row["pass"] for row in payload)


class TestVarianceSweep:
    def test_assert_mode_passes_on_stable_grid(self, tmp_path):
        assert run(["variance-sweep", "--seed", "2", "--out", tmp_path,
                    "--samples", "300", "--assert", "--p", "0", "0.95", "1"]) == 0
        header = (tmp_path / "variance_sweep.csv").read_text().splitlines()[0]
        assert header.startswith("p,n_samples,mc_variance")

    def test_every_csv_cell_is_a_number(self, tmp_path):
        # mc_std_error was once written as "np.float64(...)"
        assert run(["variance-sweep", "--seed", "0", "--out", tmp_path,
                    "--samples", "50", "--p", "0", "0.9"]) == 0
        lines = (tmp_path / "variance_sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)  # raises on a cell that is not a plain number

    def test_deterministic_under_seed(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["variance-sweep", "--seed", "5", "--out", tmp_path / sub,
                        "--samples", "200", "--p", "0.9"]) == 0
        assert filecmp.cmp(tmp_path / "a" / "variance_sweep.csv",
                           tmp_path / "b" / "variance_sweep.csv", shallow=False)


class TestGradCheck:
    def test_passes(self, tmp_path):
        assert run(["grad-check", "--cases", "3", "--out", tmp_path]) == 0
        lines = (tmp_path / "grad_check.csv").read_text().splitlines()
        assert len(lines) == 4


class TestConvergence:
    def test_writes_summary(self, tmp_path):
        assert run(["convergence", "--T", "40", "--seeds", "2", "--out", tmp_path]) == 0
        lines = (tmp_path / "convergence_T40.csv").read_text().splitlines()
        assert lines[0] == "seed,iterations,min_grad_sq,final_cost"
        assert len(lines) == 4  # 2 seeds + mean row
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "mean"]

    def test_seed_offsets_the_run_seeds(self, tmp_path):
        for seed in ("0", "5"):
            assert run(["convergence", "--T", "20", "--seeds", "2", "--seed", seed,
                        "--out", tmp_path / seed]) == 0
        lines = (tmp_path / "5" / "convergence_T20.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["5", "6", "mean"]
        assert not filecmp.cmp(tmp_path / "0" / "convergence_T20.csv",
                               tmp_path / "5" / "convergence_T20.csv", shallow=False)

    def test_missing_horizon_is_config_error(self, tmp_path):
        assert run(["convergence", "--out", tmp_path]) == 2


class TestTrainSource:
    def test_tiny_run_writes_artifacts(self, tmp_path):
        assert run(["train-source", "--out", tmp_path, *TINY_SOURCE]) == 0
        assert (tmp_path / "source_accuracy.csv").exists()
        assert (tmp_path / "source_sgnn_trace_seed0.csv").exists()
        assert (tmp_path / "source_sgnn_seed0.ckpt").exists()

    def test_unknown_override_rejected(self, tmp_path):
        assert run(["train-source", "--out", tmp_path, "bogus_key=3"]) == 2

    def test_malformed_override_rejected(self, tmp_path):
        assert run(["train-source", "--out", tmp_path, "nodes"]) == 2


class TestTrainFlock:
    def test_tiny_run_writes_artifacts(self, tmp_path):
        assert run(["train-flock", "--out", tmp_path, *TINY_FLOCK]) == 0
        assert (tmp_path / "flock_cost.csv").exists()
        assert (tmp_path / "flock_sgnn_seed0.ckpt").exists()

    def test_assert_runs_the_flock_checks(self, tmp_path, capsys):
        rc = run(["train-flock", "--assert", "--out", tmp_path, *TINY_FLOCK])
        lines = [line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  ")]
        assert [label for _, label in lines] == [label for label, _ in FLOCK_CHECKS]
        assert rc == (0 if all(status.strip() == "PASS" for status, _ in lines) else 1)


def _rows(means: dict) -> list[dict]:
    return [{"p": p, "method": method, "seed": seed, "metric": "m", "value": value}
            for (method, p), value in means.items() for seed in (0, 1)]


class TestExperimentChecks:
    SOURCE_PASS = {("sgnn", 0.7): 0.8, ("gnn", 0.7): 0.6, ("sgnn", 0.5): 0.5,
                   ("gnn", 0.5): 0.3}
    FLOCK_PASS = {("sgnn", 0.7): 1.0, ("gnn", 0.7): 2.0, ("zero", 0.7): 5.0}

    def test_source_pass(self, capsys):
        assert run_checks(SOURCE_CHECKS, _rows(self.SOURCE_PASS), SourceLocConfig()) == 0
        assert capsys.readouterr().out.count("PASS") == len(SOURCE_CHECKS)

    def test_source_fail(self, capsys):
        rows = _rows({**self.SOURCE_PASS, ("gnn", 0.5): 0.5})  # 0.25 above chance
        assert run_checks(SOURCE_CHECKS, rows, SourceLocConfig()) == 1
        assert "FAIL: gnn within 0.1 of chance at p=0.5" in capsys.readouterr().out

    def test_source_missing_p_fails(self, capsys):
        rows = [r for r in _rows(self.SOURCE_PASS) if r["p"] != 0.5]
        assert run_checks(SOURCE_CHECKS, rows, SourceLocConfig()) == 1
        assert capsys.readouterr().out.count("FAIL") == 2

    def test_flock_pass(self, capsys):
        assert run_checks(FLOCK_CHECKS, _rows(self.FLOCK_PASS), FlockingConfig()) == 0
        assert capsys.readouterr().out.count("PASS") == len(FLOCK_CHECKS)

    def test_flock_fail(self, capsys):
        rows = _rows({**self.FLOCK_PASS, ("gnn", 0.7): 0.5})
        assert run_checks(FLOCK_CHECKS, rows, FlockingConfig()) == 1
        assert "FAIL: sgnn cost <= gnn cost at p=0.7" in capsys.readouterr().out

    def test_flock_missing_p_fails(self, capsys):
        rows = [r for r in _rows(self.FLOCK_PASS) if r["method"] != "zero"]
        assert run_checks(FLOCK_CHECKS, rows, FlockingConfig()) == 1
        assert capsys.readouterr().out.count("FAIL") == 2


class TestExitCodes:
    def test_unknown_command_is_config_error(self):
        assert run(["definitely-not-a-command"]) == 2

    def test_bad_flag_value(self):
        assert run(["grad-check", "--cases", "not-an-int"]) == 2

    def test_nonpositive_iterations(self):
        assert run(["train-source", "--T", "0"]) == 2

    @pytest.mark.parametrize("command", ["train-flock", "convergence"])
    def test_nonpositive_iterations_rejected_by_argument_type(self, command):
        assert run([command, "--T", "0"]) == 2

    # --seeds 0 once ran every seed on the experiments and wrote a NaN mean row
    # on convergence; --seeds -1 dropped the last seed; --seeds above the
    # config's seed count once ran fewer seeds than asked and exited 0
    @pytest.mark.parametrize("argv", [
        "train-source --seeds 0", "train-source --seeds -1", "train-flock --seeds 0",
        "train-flock --seeds -1", "convergence --T 1 --seeds 0", "convergence --T 1 --seeds -1",
        "train-source --seeds 3 seeds=0", "train-flock --seeds 2 seeds=0",
    ])
    def test_nonpositive_seeds_rejected_by_argument_type(self, tmp_path, argv):
        assert run([*argv.split(), "--out", tmp_path]) == 2

    # --cases 0 once checked no case and exited 0, --max-edges 0 left the
    # second-moment battery empty, and --jobs 0 or -2 quietly ran serially
    @pytest.mark.parametrize("argv", [
        "grad-check --cases 0", "moment-check --max-edges 0 --samples 2000",
        "train-source --jobs 0", "train-source --jobs -2", "train-flock --jobs 0",
    ])
    def test_nonpositive_count_rejected_by_argument_type(self, tmp_path, argv):
        tiny = {"train-source": TINY_SOURCE, "train-flock": TINY_FLOCK}.get(argv.split()[0], [])
        assert run([*argv.split(), "--out", tmp_path, *tiny]) == 2
        assert not any(tmp_path.iterdir())

    # test_size=0 once raised ZeroDivisionError after training both models,
    # train_trajectories=0 a bare numpy stacking error, and eval_trajectories=0
    # wrote NaN cost rows and exited 0
    @pytest.mark.parametrize("argv", [
        ["train-source", *TINY_SOURCE, "test_size=0"],
        ["train-flock", *TINY_FLOCK, "train_trajectories=0"],
        ["train-flock", *TINY_FLOCK, "eval_trajectories=0"],
    ], ids=["test_size", "train_trajectories", "eval_trajectories"])
    def test_empty_experiment_size_is_config_error(self, tmp_path, argv):
        assert run([*argv, "--out", tmp_path]) == 2
        assert not any(tmp_path.iterdir())

    # a value that does not convert once died with a traceback and exit 1, and
    # an empty seed list wrote a header-only table and exited 0
    @pytest.mark.parametrize("argv", [
        "train-source iterations=abc", "train-source test_p=1.0;x", "train-source lr=fast",
        "train-flock seeds=0;one", "train-source seeds=", "train-flock seeds=;",
    ])
    def test_bad_override_value_is_config_error(self, tmp_path, argv):
        assert run([*argv.split(), "--out", tmp_path]) == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["train-source", "convergence"])
    def test_single_p_rejects_a_grid(self, tmp_path, command):
        assert run([command, "--T", "1", "--p", "0.5", "0.9", "--out", tmp_path]) == 2

    # flags a command does not read are not declared on it
    @pytest.mark.parametrize("argv", [
        "moment-check --jobs 2", "moment-check --T 5", "moment-check --p 0.5",
        "moment-check --assert", "variance-sweep --jobs 2", "variance-sweep --T 5",
        "grad-check --jobs 2", "grad-check --T 5", "grad-check --p 0.5", "grad-check --assert",
        "convergence --T 1 --jobs 2", "convergence --T 1 --assert",
    ])
    def test_unread_flag_rejected(self, tmp_path, argv):
        assert run([*argv.split(), "--out", tmp_path]) == 2


def test_unparsable_value_names_key_and_value():
    with pytest.raises(ConfigError, match="iterations='abc'"):
        _apply_overrides(SourceLocConfig(), ["iterations=abc"])


class TestDeterminism:
    def test_train_source_bit_reproduces(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["train-source", "--seed", "3", "--out", tmp_path / sub,
                        *TINY_SOURCE]) == 0
        for name in ("source_accuracy.csv", "source_sgnn_trace_seed0.csv",
                     "source_sgnn_seed0.ckpt", "source_gnn_seed0.ckpt"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_worker_pool_matches_serial(self, tmp_path):
        two_seeds = [o for o in TINY_SOURCE if not o.startswith("seeds=")]
        two_seeds += ["seeds=0;1", "iterations=15"]
        assert run(["train-source", "--out", tmp_path / "serial", "--jobs", "1",
                    *two_seeds]) == 0
        assert run(["train-source", "--out", tmp_path / "pool", "--jobs", "2",
                    *two_seeds]) == 0
        assert filecmp.cmp(tmp_path / "serial" / "source_accuracy.csv",
                           tmp_path / "pool" / "source_accuracy.csv", shallow=False)
