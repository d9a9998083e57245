"""Command line surface: formats, determinism, exit codes."""

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hyperconc import BranchClass, IterationTrace, analytics, cli, oracle, protocol, sampling

GOLDEN = Path(__file__).parent / "data" / "grid_r1_res3.csv"


def run_cli(*argv, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "hyperconc", *argv],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


class TestGrid:
    def test_golden_csv_bytes(self, tmp_path):
        out = tmp_path / "grid.csv"
        run_cli("grid", "--rounds", "1", "--resolution", "3", "--out", str(out), check=True)
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_header_exact(self):
        proc = run_cli("grid", "--rounds", "1", "--resolution", "2", check=True)
        assert proc.stdout.splitlines()[0] == "alpha_sq,delta_sq,rounds,p_total"

    def test_stdout_matches_file_output(self, tmp_path):
        out = tmp_path / "grid.csv"
        proc = run_cli("grid", "--rounds", "2", "--resolution", "4", "--out", str(out), check=True)
        assert proc.stdout == ""
        piped = run_cli("grid", "--rounds", "2", "--resolution", "4", check=True)
        assert piped.stdout == out.read_text()

    def test_include_endpoints(self):
        proc = run_cli("grid", "--resolution", "3", "--include-endpoints", check=True)
        lines = proc.stdout.splitlines()[1:]
        assert lines[0].startswith("0,0,")
        assert lines[-1].startswith("1,1,")
        # degenerate corners can never concentrate
        assert lines[0].endswith(",0") and lines[-1].endswith(",0")

    def test_json_format(self):
        proc = run_cli("grid", "--resolution", "2", "--format", "json", check=True)
        doc = json.loads(proc.stdout)
        assert doc["rounds"] == 1 and doc["resolution"] == 2
        assert len(doc["points"]) == 4
        assert set(doc["points"][0]) == {"alpha_sq", "delta_sq", "p_total"}

    def test_deterministic(self):
        a = run_cli("grid", "--rounds", "3", "--resolution", "5", check=True)
        b = run_cli("grid", "--rounds", "3", "--resolution", "5", check=True)
        assert a.stdout == b.stdout

    def test_worst_case_within_budget(self, capsys):
        # The largest grid the limits admit: 10,201 points at 50 rounds.
        t0 = time.perf_counter()
        code = cli.main(["grid", "--rounds", "50", "--resolution", "101"])
        elapsed = time.perf_counter() - t0
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == 1 + 10_201
        assert elapsed < 30.0, f"{elapsed:.1f}s (budget 30s)"


class TestSimulate:
    def test_json_key_order(self):
        proc = run_cli(
            "simulate", "--scheme", "a", "--n", "2", "--alpha-sq", "0.8",
            "--delta-sq", "0.6", "--rounds", "2", "--trials", "50", check=True,
        )
        doc = json.loads(proc.stdout)
        assert list(doc) == [
            "scheme", "n", "alpha_sq", "delta_sq", "rounds", "trials", "seed",
            "success_rate", "standard_error", "per_round_success_counts",
            "residual_class_counts",
        ]
        assert doc["seed"] == 0
        assert len(doc["per_round_success_counts"]) == 2

    def test_equal_seeds_equal_bytes(self):
        argv = (
            "simulate", "--scheme", "b", "--n", "2", "--alpha-sq", "0.7",
            "--delta-sq", "0.7", "--rounds", "2", "--trials", "200", "--seed", "11",
        )
        a = run_cli(*argv, check=True)
        b = run_cli(*argv, check=True)
        assert a.stdout == b.stdout

    def test_different_seed_changes_output(self):
        base = (
            "simulate", "--scheme", "a", "--n", "2", "--alpha-sq", "0.8",
            "--delta-sq", "0.6", "--rounds", "1", "--trials", "300",
        )
        a = run_cli(*base, "--seed", "1", check=True)
        b = run_cli(*base, "--seed", "2", check=True)
        assert a.stdout != b.stdout

    def test_single_trial_wellformed(self):
        proc = run_cli(
            "simulate", "--scheme", "a", "--n", "2", "--alpha-sq", "0.8",
            "--delta-sq", "0.6", "--trials", "1", check=True,
        )
        doc = json.loads(proc.stdout)
        assert doc["trials"] == 1
        assert doc["successes" if "successes" in doc else "success_rate"] is not None
        assert sum(doc["per_round_success_counts"]) in (0, 1)


class TestEnumerate:
    def test_reports_class_masses(self):
        proc = run_cli(
            "enumerate", "--scheme", "a", "--n", "2",
            "--alpha-sq", "0.8", "--delta-sq", "0.6", check=True,
        )
        doc = json.loads(proc.stdout)
        classes = doc["class_mass"]
        assert classes["ee"] == pytest.approx(0.1536, abs=1e-10)
        assert sum(classes.values()) == pytest.approx(1.0, abs=1e-10)
        assert doc["success_probability"] == pytest.approx(0.1536, abs=1e-10)
        assert len(doc["leaves"]) == 16


class TestVerify:
    def test_quick_passes_and_is_deterministic(self):
        a = run_cli("verify", "--quick", check=True)
        b = run_cli("verify", "--quick", check=True)
        assert a.stdout == b.stdout
        assert "PASS" in a.stdout and "FAIL" not in a.stdout

    def test_failed_check_exits_two(self, monkeypatch, capsys):
        # Move the closed-form round-1 split 1e-6 off the enumerated class
        # masses, keeping it a distribution: the checks that read it fail,
        # the run finishes its table, and exits 2.
        split = analytics.round1_probabilities

        def shifted(alpha_sq, delta_sq):
            p = split(alpha_sq, delta_sq)
            return dataclasses.replace(p, ee=p.ee + 1e-6, oo=p.oo - 1e-6)

        monkeypatch.setattr(analytics, "round1_probabilities", shifted)
        assert cli.main(["verify", "--quick"]) == 2
        rows = capsys.readouterr().out.splitlines()
        assert rows[-1] == "verification FAILED"
        round1 = [r for r in rows if r.startswith("round1-vs-enumeration")]
        assert len(round1) == 2 and all(r.endswith(" FAIL") for r in round1)
        assert any(r.startswith("unrolled-vs-markov") and r.endswith(" PASS") for r in rows)


class TestExitCodes:
    def test_bad_arguments_exit_one(self):
        assert run_cli("grid", "--resolution", "1").returncode == 1
        assert run_cli("grid", "--rounds", "0").returncode == 1
        assert run_cli(
            "simulate", "--scheme", "a", "--n", "2",
            "--alpha-sq", "1.5", "--delta-sq", "0.6",
        ).returncode == 1
        assert run_cli(
            "simulate", "--scheme", "a", "--n", "1",
            "--alpha-sq", "0.8", "--delta-sq", "0.6",
        ).returncode == 1

    @pytest.mark.parametrize(
        "command,option,limit",
        [
            (["grid"], "--resolution", cli.GRID_MAX_RESOLUTION),
            (["grid"], "--rounds", cli.GRID_MAX_ROUNDS),
            (["simulate", "--scheme", "a", "--n", "2", "--alpha-sq", "0.8", "--delta-sq", "0.6"],
             "--trials", cli.SIMULATE_MAX_TRIALS),
            (["simulate", "--scheme", "b", "--n", "2", "--alpha-sq", "0.7", "--delta-sq", "0.7"],
             "--rounds", cli.SIMULATE_MAX_ROUNDS),
        ],
    )
    def test_work_limits(self, command, option, limit, capsys, monkeypatch):
        # The limit itself reaches the (stubbed) work; one above it exits 1
        # before any work starts.
        class Started(Exception):
            pass

        def start(*args):
            raise Started

        monkeypatch.setattr(analytics, "grid_sweep", start)
        monkeypatch.setattr(sampling, "mc_estimate", start)
        with pytest.raises(Started):
            cli.main(command + [option, str(limit)])
        assert cli.main(command + [option, str(limit + 1)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} must lie in [") and err.count("\n") == 1, err
        assert err.endswith(f", {limit}], got {limit + 1}\n"), err

    @pytest.mark.parametrize(
        "command,seed",
        [
            (["simulate", "--scheme", "a", "--n", "2", "--alpha-sq", "0.8", "--delta-sq", "0.6"],
             -1),
            (["verify", "--quick"], -3),
        ],
    )
    def test_negative_seed(self, command, seed, capsys, monkeypatch):
        # Seed 0 reaches the (stubbed) work; a negative seed exits 1 with
        # one error line naming the option, before any work starts.
        class Started(Exception):
            pass

        def start(*args, **kwargs):
            raise Started

        monkeypatch.setattr(sampling, "mc_estimate", start)
        monkeypatch.setattr(cli, "run_verification", start)
        with pytest.raises(Started):
            cli.main(command + ["--seed", "0"])
        assert cli.main(command + ["--seed", str(seed)]) == 1
        assert capsys.readouterr().err == f"error: --seed must lie in [0, inf), got {seed}\n"

    def test_unknown_command_exit_one(self):
        assert run_cli("frobnicate").returncode == 1

    def test_unwritable_path_exit_three(self, tmp_path):
        target = tmp_path / "no_such_dir" / "grid.csv"
        proc = run_cli("grid", "--resolution", "2", "--out", str(target))
        assert proc.returncode == 3

    def test_no_partial_file_on_write_failure(self, tmp_path, monkeypatch):
        # atomic emit: a failed run must not leave a half-written target
        target = tmp_path / "missing" / "out.csv"
        run_cli("grid", "--resolution", "2", "--out", str(target))
        assert not target.exists()


class TestConsistencyErrors:
    """An internal disagreement exits 2 with one error line, never a traceback."""

    SIMULATE_A = ["simulate", "--scheme", "a", "--n", "2", "--alpha-sq", "0.8",
                  "--delta-sq", "0.6", "--rounds", "2", "--trials", "50"]
    SIMULATE_B = ["simulate", "--scheme", "b", "--n", "2", "--alpha-sq", "0.7",
                  "--delta-sq", "0.7", "--rounds", "3", "--trials", "400"]

    @staticmethod
    def run(argv, capsys):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return code, err

    @staticmethod
    def patch_leaves(monkeypatch, edit):
        enumerate_scheme = oracle.enumerate_scheme

        def patched(*args, **kwargs):
            tree = enumerate_scheme(*args, **kwargs)
            leaves = tuple(edit(i, leaf) for i, leaf in enumerate(tree.leaves))
            return dataclasses.replace(tree, leaves=leaves)

        monkeypatch.setattr(oracle, "enumerate_scheme", patched)

    def test_trial_zero_replay_mismatch(self, monkeypatch, capsys):
        monkeypatch.setattr(sampling, "iterate_scheme_a",
                            lambda *args: IterationTrace((), True, 1, 99))
        code, err = self.run(self.SIMULATE_A, capsys)
        assert code == 2 and "single-trace replay" in err

    def test_settled_state_survives_pool(self, monkeypatch, capsys):
        monkeypatch.setattr(protocol, "branch_concentrates",
                            lambda branch, pol, spa: branch is BranchClass.EE)
        code, err = self.run(self.SIMULATE_B, capsys)
        assert code == 2 and "fully settled state survived" in err

    def test_success_leaf_not_maximal(self, monkeypatch, capsys):
        self.patch_leaves(monkeypatch, lambda i, leaf: dataclasses.replace(leaf, succeeded=False))
        code, err = self.run(["verify", "--quick"], capsys)
        assert code == 2 and "not maximal" in err

    def test_residual_coefficients_disagree(self, monkeypatch, capsys):
        self.patch_leaves(
            monkeypatch, lambda i, leaf: dataclasses.replace(leaf, pol_sq=leaf.pol_sq + 1e-6 * i)
        )
        code, err = self.run(["verify", "--quick"], capsys)
        assert code == 2 and "coefficients disagree" in err

    def test_success_evaluators_disagree(self, monkeypatch, capsys):
        unrolled = analytics.round_success_unrolled
        monkeypatch.setattr(analytics, "round_success_unrolled",
                            lambda k, a, d: unrolled(k, a, d) + 1e-9)
        code, err = self.run(["grid", "--resolution", "2"], capsys)
        assert code == 2 and "evaluators disagree" in err
