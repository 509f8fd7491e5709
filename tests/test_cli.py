import csv
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import mnlqg
from mnlqg import (
    bench,
    cli,
    moments,
    open_loop_controller,
    pendulum_problem,
    policy_iteration_solve,
    save_controller,
    save_problem,
    value_iteration_solve,
)
from mnlqg.bench import SUMMARY_COLUMNS, TRACE_COLUMNS
from mnlqg.cli import main
from mnlqg.exceptions import RetryExhausted

from conftest import (
    make_scalar_problem,
    make_singular_filter_problem,
    make_unstabilizable_problem,
    synthetic_problem,
)


@pytest.fixture
def pendulum_file(tmp_path):
    path = tmp_path / "pendulum.json"
    path.write_text(save_problem(pendulum_problem(0.0)))
    return str(path)


@pytest.fixture
def noisy_pendulum_file(tmp_path):
    path = tmp_path / "noisy_pendulum.json"
    path.write_text(save_problem(pendulum_problem(0.05)))
    return str(path)


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(save_problem(make_scalar_problem()))
    return str(path)


# One finite but huge entry in each gain of the pendulum's open-loop
# controller (F = A, K = 0, L = 0): each overflows float64 in the loop's
# products or in its operator gain.
HUGE_GAINS = {"K": [[1e160, 0.0]], "L": [[1e160], [0.0]], "F": [[1e160, 0.1], [1.0, 0.95]]}


def huge_gain_files(tmp_path, field):
    """Paths of the pendulum document at eta = 0.05 and of its open-loop
    controller with ``field`` replaced by its entry of HUGE_GAINS."""
    problem = pendulum_problem(0.05)
    ctrl = json.loads(save_controller(open_loop_controller(problem)))
    ctrl[field] = HUGE_GAINS[field]
    problem_path, ctrl_path = tmp_path / "problem.json", tmp_path / "controller.json"
    problem_path.write_text(save_problem(problem))
    ctrl_path.write_text(json.dumps(ctrl))
    return str(problem_path), str(ctrl_path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture
def forked(monkeypatch):
    """Pids of the children os.fork makes during the test, recorded by a
    wrapper around the real os.fork."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def child_begins_first(monkeypatch, forked):
    """Returns a function that installs a stand-in for bench.random_problem
    and makes usable CPUs ``cpus``; each fork then returns in the parent
    only once the child has begun its first instance, so the first child
    holds the first seed and every child holds one."""
    read_fd, write_fd = os.pipe()
    parent = os.getpid()
    fork = os.fork

    def fork_after_child_begins():
        pid = fork()
        if pid:
            assert select.select([read_fd], [], [], 60)[0], "the child began no instance"
            os.read(read_fd, 1)
        return pid

    def install(random_problem, cpus):
        begun = []

        def announced(seed):
            if os.getpid() != parent and not begun:
                begun.append(seed)
                os.write(write_fd, b"x")
            return random_problem(seed)

        monkeypatch.setattr(bench, "random_problem", announced)
        monkeypatch.setattr(os, "fork", fork_after_child_begins)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    yield install
    os.close(read_fd)
    os.close(write_fd)


def assert_reaped(pids):
    """Each pid is a child that has ended and been waited for."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestValidateCommand:
    def test_valid_pendulum_exits_zero_with_warning(self, pendulum_file, capsys):
        assert main(["validate", pendulum_file]) == 0
        out = capsys.readouterr().out
        assert "W not positive definite" in out

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["validate", str(path)]) == 2

    def test_dimension_mismatch_names_field(self, tmp_path, capsys):
        doc = json.loads(save_problem(pendulum_problem(0.0)))
        doc["B"] = [[0.0, 0.1]]
        path = tmp_path / "bad_dim.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "B" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/problem.json"]) == 2

    def test_invalid_cost_matrix(self, tmp_path, capsys):
        doc = json.loads(save_problem(make_scalar_problem()))
        doc["Q"] = [[1.0, 0.0], [0.0, -1.0]]
        path = tmp_path / "badq.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "Q not positive definite" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value",
        [("A", float("nan")), ("noise.A[0].sigma", float("inf"))],
        ids=["nan-in-A", "infinite-sigma"],
    )
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, command, field, value):
        doc = json.loads(save_problem(make_scalar_problem(sigma_a=0.3)))
        if field == "A":
            doc["A"][0][0] = value
        else:
            doc["noise"]["A"][0]["sigma"] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "solve":
            argv += ["--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "ok" not in captured.out
        assert captured.err.startswith(f"error: {field} ") and "finite" in captured.err


    @pytest.mark.parametrize(
        "field, value",
        [("A", "1.0"), ("A", True), ("A", 10**400), ("noise.A[0].sigma", 10**400)],
        ids=["string-in-A", "bool-in-A", "oversized-int-in-A", "oversized-int-sigma"],
    )
    @pytest.mark.parametrize("command", ["validate", "solve", "rollout"])
    def test_non_number_is_input_error(self, tmp_path, capsys, command, field, value):
        doc = json.loads(save_problem(make_scalar_problem(sigma_a=0.3)))
        if field == "A":
            doc["A"][0][0] = value
        else:
            doc["noise"]["A"][0]["sigma"] = value
        path = tmp_path / "non_number.json"
        path.write_text(json.dumps(doc))
        ctrl_path = tmp_path / "ctrl.json"
        ctrl_path.write_text('{"F": [[0.5]], "K": [[0.0]], "L": [[0.0]]}')
        argv = {
            "validate": [command, str(path)],
            "solve": [command, str(path), "--out", str(tmp_path / "report.json")],
            "rollout": [command, str(path), str(ctrl_path)]
            + ["--horizon", "5", "--trials", "2", "--seed", "0"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} ")

    @pytest.mark.parametrize(
        "command, field",
        [
            (command, field)
            for field in ("noise.b", "Qx", "noise.A[0].sgima", "k")
            for command in ("validate", "solve", "rollout")
            if not (command == "validate" and field == "k")  # validate reads no controller
        ],
    )
    def test_unknown_field_is_input_error(self, tmp_path, capsys, command, field):
        """A misspelled field exits 2 with its name, where it would be
        dropped and its default used: "noise": {"b": ...} would solve a
        noise-free problem."""
        doc = json.loads(save_problem(make_scalar_problem(sigma_a=0.3)))
        ctrl = {"F": [[0.5]], "K": [[0.0]], "L": [[0.0]]}
        if field == "noise.b":
            doc["noise"]["b"] = doc["noise"].pop("A")
        elif field == "Qx":
            doc["Qx"] = doc["Q"]
        elif field == "k":
            ctrl["k"] = [[1.0]]
        else:
            doc["noise"]["A"][0]["sgima"] = 2.0
        path, ctrl_path = tmp_path / "problem.json", tmp_path / "ctrl.json"
        path.write_text(json.dumps(doc))
        ctrl_path.write_text(json.dumps(ctrl))
        argv = {
            "validate": [command, str(path)],
            "solve": [command, str(path), "--init", str(ctrl_path), "--out", str(tmp_path / "report.json")],
            "rollout": [command, str(path), str(ctrl_path)]
            + ["--horizon", "5", "--trials", "2", "--seed", "0"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown field '{field}'\n"


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["mnlqg", "mnlqg.cli"])
    def test_exit_codes(self, module, scalar_file):
        src = os.path.dirname(os.path.dirname(mnlqg.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", module, *args], env=env, capture_output=True, text=True
            )

        ok = run("validate", scalar_file)
        assert ok.returncode == 0
        assert ok.stdout.strip() == "ok"
        missing = run("validate", scalar_file + ".missing")
        assert missing.returncode == 2
        assert "error:" in missing.stderr


class TestSolveCommand:
    def test_pi_on_quiet_pendulum(self, pendulum_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["solve", pendulum_file, "--method", "pi", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "policy_iteration"
        assert doc["converged"] is True
        assert doc["residual_norm"] <= 1e-9
        assert set(doc["controller"]) == {"F", "K", "L"}
        assert set(doc["solution"]) == {"P", "Phat", "S", "Shat"}
        assert doc["history"][0]["delta"] is None
        assert "e_k" not in doc["history"][0]
        printed = capsys.readouterr().out
        assert "iterations:" in printed and "cost:" in printed

    @pytest.mark.parametrize("eta", [0.0, 0.05])
    def test_open_loop_init_on_openloop_unstable_system_exits_three(self, tmp_path, capsys, eta):
        path, out = tmp_path / "pendulum.json", tmp_path / "report.json"
        path.write_text(save_problem(pendulum_problem(eta)))
        code = main(["solve", str(path), "--method", "pi", "--init", "open-loop", "--out", str(out)])
        assert code == 3
        assert "initial policy is not mean-square stabilizing" in capsys.readouterr().err

    def test_vi_matches_pi_gains(self, pendulum_file, tmp_path):
        out_pi = tmp_path / "pi.json"
        out_vi = tmp_path / "vi.json"
        assert main(["solve", pendulum_file, "--method", "pi", "--out", str(out_pi)]) == 0
        assert main(["solve", pendulum_file, "--method", "vi", "--out", str(out_vi)]) == 0
        doc_pi = json.loads(out_pi.read_text())
        doc_vi = json.loads(out_vi.read_text())
        K_pi = np.array(doc_pi["controller"]["K"])
        K_vi = np.array(doc_vi["controller"]["K"])
        L_pi = np.array(doc_pi["controller"]["L"])
        L_vi = np.array(doc_vi["controller"]["L"])
        assert np.allclose(K_pi, K_vi, atol=1e-8)
        assert np.allclose(L_pi, L_vi, atol=1e-8)

    @pytest.mark.parametrize(
        "problem, method, rows",
        [("scalar", "vi", None), ("noisy-pendulum", "vi", None), ("noisy-pendulum", "pi", 31)],
    )
    def test_trace_flag_adds_e_k(
        self, scalar_file, noisy_pendulum_file, tmp_path, problem, method, rows
    ):
        """Every history row has e_k, from 1.0 at the first iterate to 0.0 at
        the last; PI on the pendulum at eta = 0.05 takes 30 steps."""
        path = scalar_file if problem == "scalar" else noisy_pendulum_file
        out = tmp_path / "report.json"
        assert main(["solve", path, "--method", method, "--trace", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        e_k = [entry["e_k"] for entry in doc["history"]]
        assert len(e_k) == doc["iterations"] + 1 and e_k[0] == 1.0 and e_k[-1] == 0.0, e_k
        assert rows is None or len(e_k) == rows

    @pytest.mark.parametrize("problem, explicit", [("n10", "open-loop"), ("noisy-pendulum", "lqg")])
    def test_auto_init_matches_the_explicit_start(self, tmp_path, capsys, problem, explicit):
        """--init auto picks the open loop where it is stable (the
        benchmark's n=10 instance, seed 11) and the noise-free design where
        it is not (the pendulum at eta = 0.05): the reports are those of
        that start given explicitly, outside the wall-clock seconds, and
        both converge."""
        instance = synthetic_problem(11, 10) if problem == "n10" else pendulum_problem(0.05)
        path = tmp_path / "problem.json"
        path.write_text(save_problem(instance))
        reports = []
        for init in ("auto", explicit):
            out = tmp_path / f"{init}.json"
            assert main(["solve", str(path), "--method", "pi", "--init", init, "--out", str(out)]) == 0
            assert "converged: true" in capsys.readouterr().out.splitlines()
            document = json.loads(out.read_text())
            for entry in document["history"]:
                del entry["seconds"]
            reports.append(document)
        assert reports[0] == reports[1]

    def test_controller_file_init(self, scalar_file, tmp_path):
        problem = make_scalar_problem()
        report = value_iteration_solve(problem)
        init_path = tmp_path / "init.json"
        init_path.write_text(save_controller(report.controller))
        out = tmp_path / "report.json"
        code = main(
            ["solve", scalar_file, "--method", "pi", "--init", str(init_path), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["iterations"] <= 2

    @pytest.mark.parametrize(
        "flags",
        [["--max-iter", "-1"], ["--tol", "nan"], ["--tol", "-0.5"], ["--tol", "inf"], ["--tol", "1e400"]],
        ids=["negative-max-iter", "nan-tol", "negative-tol", "infinite-tol", "overflowing-tol"],
    )
    def test_bad_limit_is_input_error(self, scalar_file, tmp_path, capsys, flags):
        assert main(["solve", scalar_file, *flags, "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[0]} must be")

    def test_invalid_problem_is_input_error(self, tmp_path):
        doc = json.loads(save_problem(make_scalar_problem()))
        doc["Q"] = [[1.0, 0.0], [0.0, -1.0]]
        path = tmp_path / "badq.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--out", str(out)]) == 2

    def test_failed_noise_free_fallback_is_a_solver_error(self, tmp_path, capsys):
        path = tmp_path / "singular.json"
        path.write_text(save_problem(make_singular_filter_problem()))
        out = tmp_path / "report.json"
        code = main(
            ["solve", str(path), "--method", "pi", "--init", "auto", "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "noise-free fallback failed: H_yy block is numerically singular" in err

    def test_lyapunov_solve_failure_exits_three(self, pendulum_file, tmp_path, capsys, monkeypatch):
        """A negated inverse of I - Psi_s leaves the certificate undecided,
        the radius decides the noise-free design's loop stable, and
        refining against the inverse stops contracting: a solver error
        (exit 3), not an input error."""
        monkeypatch.setattr(moments, "_inverse", lambda M: -np.linalg.inv(M))
        out = tmp_path / "report.json"
        code = main(["solve", pendulum_file, "--method", "pi", "--out", str(out)])
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 3 and len(errors) == 1, err
        assert errors[0].endswith("refinement against the inverse of I - Psi_s stopped contracting"), err
        assert not out.exists()

    def test_diverged_noise_free_design_exits_three(self, tmp_path, capsys):
        path = tmp_path / "unstabilizable.json"
        path.write_text(save_problem(make_unstabilizable_problem()))
        out = tmp_path / "report.json"
        code = main(["solve", str(path), "--method", "pi", "--init", "lqg", "--out", str(out)])
        assert code == 3
        assert "value iteration diverged after 630 iterations" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_vi_exits_three(self, tmp_path, capsys):
        doc = json.loads(save_problem(pendulum_problem(1.0)))
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["solve", str(path), "--method", "vi", "--out", str(out)])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["vi", "pi"])
    @pytest.mark.parametrize("sigma", [1e120, 1.3e154])
    def test_sigma_that_overflows_the_operators_is_a_named_solver_error(
        self, tmp_path, capsys, sigma, method
    ):
        """sigma^2 is finite, but sigma^2 times the iterate, or Psi_s, is not:
        one error line and no NumPy warning (an error under the tests'
        warning filter).  VI diverges; PI finds neither initial policy
        stabilizing, the noise-free design's loop at radius inf where Psi_s
        overflows."""
        doc = json.loads(save_problem(pendulum_problem(0.05)))
        doc["noise"]["B"][0]["sigma"] = sigma
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path), "--method", method, "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 3 and len(errors) == 1, err
        assert "unexpected error" not in err and "Warning" not in err
        cause = "value iteration diverged" if method == "vi" else "initial policy is not mean-square"
        assert errors[0].startswith(f"error: {cause}"), err

    @pytest.mark.parametrize("field", sorted(HUGE_GAINS))
    def test_huge_gain_init_is_not_stabilizing(self, tmp_path, capsys, field):
        """A finite but huge entry in F, K or L overflows the loop's
        products or its operator gain: the initial loop is not stable, at
        radius inf, with one error line and no NumPy warning (an error under
        the tests' warning filter)."""
        problem_path, ctrl_path = huge_gain_files(tmp_path, field)
        code = main(["solve", problem_path, "--init", ctrl_path, "--out", str(tmp_path / "r.json")])
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 3 and len(errors) == 1, err
        assert out == "" and "unexpected error" not in err and not re.search(r"\bnan\b", err)
        assert errors[0] == (
            "error: initial policy is not mean-square stabilizing "
            "(second-moment spectral radius inf)"
        ), err


class TestBenchPendulumCommand:
    def test_row_cardinality_with_failures_recorded(self, tmp_path, capsys):
        prefix = str(tmp_path / "pend")
        code = main(["bench-pendulum", "--etas", "0,0.5,1.0", "--out", prefix])
        assert code == 0
        rows = read_rows(f"{prefix}_summary.csv")
        assert len(rows) == 6  # 2 methods x 3 etas
        assert [row["eta"] for row in rows] == ["0.0", "0.0", "0.5", "0.5", "1.0", "1.0"]
        quiet = [row for row in rows if row["eta"] == "0.0"]
        assert all(row["converged"] == "true" for row in quiet)
        noisy = [row for row in rows if row["eta"] != "0.0"]
        assert all(row["converged"] == "false" and row["error"] for row in noisy)

    def test_low_noise_levels_converge(self, tmp_path):
        prefix = str(tmp_path / "pend")
        assert main(["bench-pendulum", "--etas", "0,0.05", "--out", prefix]) == 0
        rows = read_rows(f"{prefix}_summary.csv")
        assert len(rows) == 4 and all(row["converged"] == "true" for row in rows), rows

    def test_single_method(self, tmp_path):
        prefix = str(tmp_path / "pend")
        code = main(["bench-pendulum", "--etas", "0", "--methods", "pi", "--out", prefix])
        assert code == 0
        rows = read_rows(f"{prefix}_summary.csv")
        assert len(rows) == 1
        assert rows[0]["method"] == "policy_iteration"
        assert rows[0]["ratio_iterations"] == ""

    def test_header_matches_contract(self, tmp_path):
        prefix = str(tmp_path / "pend")
        main(["bench-pendulum", "--etas", "0", "--out", prefix])
        with open(f"{prefix}_summary.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert tuple(header) == SUMMARY_COLUMNS
        with open(f"{prefix}_trace.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert tuple(header) == TRACE_COLUMNS

    def test_bad_eta_is_input_error(self, tmp_path):
        prefix = str(tmp_path / "pend")
        assert main(["bench-pendulum", "--etas", "0,banana", "--out", prefix]) == 2
        assert main(["bench-pendulum", "--etas", "2.0", "--out", prefix]) == 2

    def test_out_of_range_eta_stops_before_any_solve(self, tmp_path, monkeypatch):
        from mnlqg import bench

        def no_solve(problem, methods):
            raise AssertionError("a level was solved before every eta was checked")

        monkeypatch.setattr(bench, "run_comparison", no_solve)
        prefix = tmp_path / "pend"
        assert main(["bench-pendulum", "--etas", "0,2.0", "--out", str(prefix)]) == 2
        assert not (tmp_path / "pend_summary.csv").exists()


class TestBenchRandomCommand:
    def test_rows_and_ratios(self, tmp_path):
        prefix = str(tmp_path / "rand")
        code = main(["bench-random", "--count", "2", "--seed", "42", "--out", prefix])
        assert code == 0
        rows = read_rows(f"{prefix}_summary.csv")
        assert len(rows) == 4
        assert {row["seed"] for row in rows} == {"42", "43"}
        assert all(row["ratio_iterations"] != "" for row in rows)
        traces = read_rows(f"{prefix}_trace.csv")
        assert {row["method"] for row in traces} == {"policy_iteration", "value_iteration"}
        first = [r for r in traces if r["method"] == "policy_iteration" and r["seed"] == "42"]
        assert first[0]["e_k"] == "1.0"

    def test_lyapunov_solve_failure_is_recorded_in_the_row(self, tmp_path, capsys, monkeypatch):
        """Refinement that stops contracting fails each method of each
        instance; the run goes on and records the cause in the rows."""
        monkeypatch.setattr(moments, "_inverse", lambda M: -np.linalg.inv(M))
        prefix = str(tmp_path / "rand")
        code = main(["bench-random", "--count", "2", "--seed", "7000", "--out", prefix])
        assert code == 0, capsys.readouterr().err
        rows = read_rows(f"{prefix}_summary.csv")
        assert [(row["seed"], row["converged"]) for row in rows] == [
            ("7000", "false"), ("7000", "false"), ("7001", "false"), ("7001", "false")
        ]
        cause = "refinement against the inverse of I - Psi_s stopped contracting"
        assert all(row["error"] == cause for row in rows), rows

    def test_deterministic_across_runs(self, tmp_path):
        prefix_a = str(tmp_path / "a")
        prefix_b = str(tmp_path / "b")
        assert main(["bench-random", "--count", "3", "--seed", "7", "--out", prefix_a]) == 0
        assert main(["bench-random", "--count", "3", "--seed", "7", "--out", prefix_b]) == 0
        rows_a = read_rows(f"{prefix_a}_summary.csv")
        rows_b = read_rows(f"{prefix_b}_summary.csv")
        wall_columns = ("wall_seconds", "ratio_time")
        for row_a, row_b in zip(rows_a, rows_b):
            for column in SUMMARY_COLUMNS:
                if column not in wall_columns:
                    assert row_a[column] == row_b[column]

    def test_jobs_preserve_order_and_content(self, tmp_path):
        prefix_seq = str(tmp_path / "seq")
        prefix_par = str(tmp_path / "par")
        assert main(["bench-random", "--count", "4", "--seed", "3", "--out", prefix_seq]) == 0
        assert main(
            ["bench-random", "--count", "4", "--seed", "3", "--jobs", "3", "--out", prefix_par]
        ) == 0
        rows_seq = read_rows(f"{prefix_seq}_summary.csv")
        rows_par = read_rows(f"{prefix_par}_summary.csv")
        wall_columns = ("wall_seconds", "ratio_time")
        assert len(rows_seq) == len(rows_par) == 8
        for row_a, row_b in zip(rows_seq, rows_par):
            for column in SUMMARY_COLUMNS:
                if column not in wall_columns:
                    assert row_a[column] == row_b[column]

    @pytest.mark.parametrize(
        "jobs, count, cpus, affinity, expected",
        [
            (64, 64, 4, True, 4),  # capped by the CPUs
            (8, 8, 3, False, 3),  # CPUs from os.cpu_count without affinity
            (64, 3, 8, True, 3),  # capped by the seeds
            (2, 5, 8, True, 2),  # --jobs itself
            (4, 5, 1, True, None),  # one CPU: serial
            (1, 5, 8, True, None),
            (8, 1, 8, True, None),  # one seed: serial
        ],
    )
    def test_worker_count_is_capped(
        self, tmp_path, monkeypatch, forked, jobs, count, cpus, affinity, expected
    ):
        """The calling process is one of the workers: it forks one child
        fewer than there are workers."""

        def no_instance(seed):
            raise RetryExhausted(f"no instance for seed {seed}")

        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(bench, "random_problem", no_instance)
        argv = ["bench-random", "--count", str(count), "--seed", "0", "--jobs", str(jobs)]
        assert main(argv + ["--out", str(tmp_path / "cap")]) == 3
        assert len(forked) == (0 if expected is None else expected - 1)
        assert_reaped(forked)

    def test_worker_failure_matches_serial(self, tmp_path, monkeypatch, capsys, forked):
        """A seed whose generation fails in a forked process is reported as
        in a serial run, the other rows keep their order, and no child
        outlives the command."""
        real_random_problem = bench.random_problem

        def fail_seed_43(seed, *args, **kwargs):
            if seed == 43:
                raise RetryExhausted("no instance for seed 43")
            return real_random_problem(seed, *args, **kwargs)

        # Forked children inherit the patched module attribute.
        monkeypatch.setattr(bench, "random_problem", fail_seed_43)
        # Two usable CPUs, so --jobs 2 forks one child on any machine.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        outputs = {}
        for jobs in ("1", "2"):
            prefix = str(tmp_path / f"jobs{jobs}")
            argv = ["bench-random", "--count", "3", "--seed", "42", "--jobs", jobs]
            assert main(argv + ["--out", prefix]) == 3
            rows = read_rows(f"{prefix}_summary.csv")
            for row in rows:
                del row["wall_seconds"], row["ratio_time"]
            outputs[jobs] = rows, capsys.readouterr().err
        assert len(forked) == 1
        assert_reaped(forked)
        rows, err = outputs["2"]
        assert "seed=43: no instance for seed 43\n" in err
        assert [row["seed"] for row in rows] == ["42", "42", "44", "44"]
        assert outputs["2"] == outputs["1"]

    @pytest.mark.parametrize("methods", ["pi,vi", "vi"])
    def test_uneven_shares_match_serial(self, tmp_path, monkeypatch, forked, methods):
        """Five seeds over three processes: the rows and traces are those
        of --jobs 1 outside the wall-clock columns."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        outputs = {}
        for jobs in ("1", "3"):
            prefix = str(tmp_path / f"jobs{jobs}")
            argv = ["bench-random", "--count", "5", "--seed", "7000", "--jobs", jobs]
            assert main(argv + ["--methods", methods, "--out", prefix]) == 0
            summary = read_rows(f"{prefix}_summary.csv")
            for row in summary:
                del row["wall_seconds"], row["ratio_time"]
            trace = read_rows(f"{prefix}_trace.csv")
            for row in trace:
                del row["cum_seconds"]
            outputs[jobs] = summary, trace
        assert len(forked) == 2
        assert_reaped(forked)
        assert len(outputs["3"][0]) == 5 * len(methods.split(","))
        assert outputs["3"] == outputs["1"]

    def test_methods_vi_rows_match_those_of_both_methods(self, tmp_path):
        """The VI rows of --methods vi are those of --methods pi,vi,
        outside the columns that compare the two methods."""
        cells = ("seed", "iterations", "final_residual", "cost_J", "converged")
        rows = {}
        for methods in ("pi,vi", "vi"):
            prefix = str(tmp_path / methods.replace(",", "_"))
            argv = ["bench-random", "--count", "5", "--seed", "7000", "--methods", methods]
            assert main(argv + ["--out", prefix]) == 0
            rows[methods] = [
                {cell: row[cell] for cell in cells}
                for row in read_rows(f"{prefix}_summary.csv")
                if row["method"] == "value_iteration"
            ]
        assert len(rows["vi"]) == 5 and rows["vi"] == rows["pi,vi"]

    def test_killed_child_exits_three(self, tmp_path, capsys, forked, child_begins_first):
        """A child that dies without reporting fails the command with its
        signal named, writes no CSV, and leaves no process behind."""
        parent = os.getpid()
        real_random_problem = bench.random_problem

        def killed_in_child(seed):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_random_problem(seed)

        child_begins_first(killed_in_child, cpus=2)
        prefix = str(tmp_path / "killed")
        argv = ["bench-random", "--count", "3", "--seed", "42", "--jobs", "2", "--out", prefix]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"unexpected error: bench-random worker process \d+ was killed by SIGKILL "
            r"before it reported its rows\n",
            err,
        ), err
        assert not os.path.exists(f"{prefix}_summary.csv")
        assert len(forked) == 1
        assert_reaped(forked)

    def test_every_seed_claimed_once_under_contention(self, tmp_path, monkeypatch, capsys, forked):
        """Four processes on a fake four CPUs race for 2000 instant seeds:
        each seed is run by exactly one process (a lost update of the
        shared counter would run one twice or skip one), and the error
        lines come out in seed order."""
        log = os.open(tmp_path / "claims", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def logged(seed):
            os.write(log, f"{seed}\n".encode())
            raise RetryExhausted(f"no instance for seed {seed}")

        monkeypatch.setattr(bench, "random_problem", logged)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        argv = ["bench-random", "--count", "2000", "--seed", "0", "--jobs", "4"]
        try:
            assert main(argv + ["--out", str(tmp_path / "race")]) == 3
        finally:
            os.close(log)
        claims = (tmp_path / "claims").read_text().split()
        assert sorted(map(int, claims)) == list(range(2000))
        err = capsys.readouterr().err
        assert err == "".join(f"seed={seed}: no instance for seed {seed}\n" for seed in range(2000))
        assert len(forked) == 3
        assert_reaped(forked)

    @pytest.mark.parametrize(
        "status, how",
        [
            (signal.SIGKILL, "was killed by SIGKILL"),
            (signal.SIGRTMIN + 1, f"was killed by signal {signal.SIGRTMIN + 1}"),
            (1 << 8, "exited with status 1"),
        ],
    )
    def test_ended_child_names_its_status(self, status, how):
        exc = cli._ended_without_report(1234, status)
        assert str(exc) == f"bench-random worker process 1234 {how} before it reported its rows"

    def test_exception_in_child_matches_serial(
        self, tmp_path, capsys, forked, child_begins_first
    ):
        """An exception other than MnlqgError, raised in a child (which
        holds the first seed), exits as it does in a serial run."""
        real_random_problem = bench.random_problem

        def divide_at_seed_42(seed):
            if seed == 42:
                raise ZeroDivisionError("no instance at seed 42")
            return real_random_problem(seed)

        child_begins_first(divide_at_seed_42, cpus=2)
        outputs = {}
        for jobs in ("1", "2"):
            prefix = str(tmp_path / f"jobs{jobs}")
            argv = ["bench-random", "--count", "3", "--seed", "42", "--jobs", jobs]
            outputs[jobs] = main(argv + ["--out", prefix]), capsys.readouterr()
            assert not os.path.exists(f"{prefix}_summary.csv")
        assert outputs["1"] == (3, ("", "unexpected error: no instance at seed 42\n"))
        assert outputs["2"] == outputs["1"]
        assert len(forked) == 1
        assert_reaped(forked)

    def test_failure_in_own_share_reaps_children(
        self, tmp_path, capsys, forked, child_begins_first
    ):
        """The calling process's own instance raises: the child finishes the
        seed it holds, is reaped, and the exception is the command's."""
        parent = os.getpid()
        real_random_problem = bench.random_problem

        def divide_in_parent(seed):
            if os.getpid() == parent:
                raise ZeroDivisionError(f"no instance at seed {seed}")
            return real_random_problem(seed)

        child_begins_first(divide_in_parent, cpus=2)
        prefix = str(tmp_path / "own")
        argv = ["bench-random", "--count", "3", "--seed", "42", "--jobs", "2", "--out", prefix]
        assert main(argv) == 3
        assert capsys.readouterr().err == "unexpected error: no instance at seed 43\n"
        assert not os.path.exists(f"{prefix}_summary.csv")
        assert len(forked) == 1
        assert_reaped(forked)

    def test_interrupt_kills_children(self, tmp_path, forked, child_begins_first):
        """An interrupt in the calling process kills the children it forked
        and reaps them before it propagates."""
        parent = os.getpid()

        def interrupted(seed):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(120)

        child_begins_first(interrupted, cpus=3)
        argv = ["bench-random", "--count", "4", "--seed", "42", "--jobs", "3"]
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["--out", str(tmp_path / "interrupted")])
        assert time.monotonic() - start < 60
        assert len(forked) == 2
        assert_reaped(forked)


class TestRolloutCommand:
    @pytest.mark.parametrize(
        "problem, horizon, trials", [("scalar", 200, 8), ("noisy-pendulum", 1000, 50)]
    )
    def test_rollout_smoke(self, tmp_path, capsys, problem, horizon, trials):
        """A solved controller (VI on the scalar instance, PI on the
        pendulum at eta = 0.05) rolls out to a finite cost estimate."""
        if problem == "scalar":
            instance = make_scalar_problem()
            ctrl = value_iteration_solve(instance).controller
        else:
            instance = pendulum_problem(0.05)
            ctrl = policy_iteration_solve(instance).controller
        problem_path, ctrl_path = tmp_path / "problem.json", tmp_path / "ctrl.json"
        problem_path.write_text(save_problem(instance))
        ctrl_path.write_text(save_controller(ctrl))
        code = main(
            [
                "rollout", str(problem_path), str(ctrl_path),
                "--horizon", str(horizon), "--trials", str(trials), "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert f"horizon: {horizon}" in lines and f"trials: {trials}" in lines, out
        for name in ("cost_mean", "cost_stderr"):
            assert math.isfinite(float(re.search(rf"^{name}: (.*)$", out, re.M).group(1))), out

    def test_unstable_controller_exits_three(self, scalar_file, tmp_path, capsys):
        ctrl_path = tmp_path / "ctrl.json"
        ctrl_path.write_text('{"F": [[3.0]], "K": [[5.0]], "L": [[4.0]]}')
        code = main(
            [
                "rollout", scalar_file, str(ctrl_path),
                "--horizon", "5000", "--trials", "4", "--seed", "1",
            ]
        )
        assert code == 3
        assert "overflow" in capsys.readouterr().err

    def test_huge_estimator_gain_keeps_a_finite_estimate(self, tmp_path, capsys):
        """A huge L overflows W' but not the rollout, which injects L v
        itself: the estimate stays finite, without a NumPy warning."""
        problem_path, ctrl_path = huge_gain_files(tmp_path, "L")
        argv = ["rollout", problem_path, ctrl_path, "--horizon", "3", "--trials", "2", "--seed", "0"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        assert math.isfinite(float(re.search(r"^cost_mean: (.*)$", out, re.M).group(1))), out
        assert "error" not in err and "Warning" not in err


    def test_overflowing_costs_keep_a_finite_stderr(self, tmp_path, capsys):
        """The pendulum's open loop at eta = 0.05 grows to per-trial costs
        near 1e171, whose squares overflow float64: the standard error is
        still finite, without a NumPy warning (an error under the tests'
        warning filter)."""
        problem = pendulum_problem(0.05)
        problem_path, ctrl_path = tmp_path / "problem.json", tmp_path / "controller.json"
        problem_path.write_text(save_problem(problem))
        ctrl_path.write_text(save_controller(open_loop_controller(problem)))
        argv = ["rollout", str(problem_path), str(ctrl_path),
                "--horizon", "800", "--trials", "2", "--seed", "0"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        mean = float(re.search(r"^cost_mean: (.*)$", out, re.M).group(1))
        stderr = float(re.search(r"^cost_stderr: (.*)$", out, re.M).group(1))
        assert mean > 1e160 and 1e160 < stderr < math.inf, out
        assert "error" not in err and "Warning" not in err


# Pendulum controllers (n = 2, m = 1, p = 1) with one matrix of a wrong
# shape, keyed by the case, with the matrix the error names.  "F" is a
# consistent 3-state compensator; "K-vs-F" does not fit its own F.
MISFIT_CONTROLLERS = {
    "F": ("F", {"F": np.eye(3).tolist(), "K": [[0.0, 0.0, 0.0]], "L": [[0.0], [0.0], [0.0]]}),
    "K": ("K", {"F": np.eye(2).tolist(), "K": [[0.0, 0.0], [0.0, 0.0]], "L": [[0.0], [0.0]]}),
    "L": ("L", {"F": np.eye(2).tolist(), "K": [[0.0, 0.0]], "L": [[0.0, 0.0], [0.0, 0.0]]}),
    "K-vs-F": ("K", {"F": np.eye(2).tolist(), "K": [[0.0, 0.0, 0.0]], "L": [[0.0], [0.0]]}),
}


class TestControllerMisfit:
    """A controller that does not fit the problem, or its own F, is one
    input error that names the matrix; no report is written."""

    @pytest.mark.parametrize("command", ["solve", "rollout"])
    @pytest.mark.parametrize("case", sorted(MISFIT_CONTROLLERS))
    def test_exits_two_naming_the_matrix(self, tmp_path, capsys, command, case):
        name, ctrl = MISFIT_CONTROLLERS[case]
        problem_path, ctrl_path = tmp_path / "problem.json", tmp_path / "controller.json"
        problem_path.write_text(save_problem(pendulum_problem(0.05)))
        ctrl_path.write_text(json.dumps(ctrl))
        report = tmp_path / "report.json"
        if command == "solve":
            argv = ["solve", str(problem_path), "--init", str(ctrl_path), "--out", str(report)]
        else:
            argv = ["rollout", str(problem_path), str(ctrl_path),
                    "--horizon", "5", "--trials", "2", "--seed", "0"]
        code = main(argv)
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 2 and len(errors) == 1, err
        assert errors[0].startswith(f"error: {name} must have "), err
        assert not re.search(r"\bnan\b", err), err
        if case != "K-vs-F":
            assert "for problem dimensions n=2, m=1, p=1" in errors[0], err
        assert out == "" and not report.exists()


# Problem and controller documents with every field present: noise on A, B
# and C, a nonzero X0.  Both are valid, and the open-loop controller's
# rollout is finite.
SWEEP_PROBLEM = {
    "n": 2, "m": 1, "p": 1,
    "A": [[0.5, 0.1], [0.0, 0.4]],
    "B": [[0.0], [1.0]],
    "C": [[1.0, 0.0]],
    "noise": {
        "A": [{"sigma": 0.1, "pattern": [[1.0, 0.0], [0.0, 1.0]]}],
        "B": [{"sigma": 0.2, "pattern": [[0.0], [1.0]]}],
        "C": [{"sigma": 0.1, "pattern": [[1.0, 0.5]]}],
    },
    "Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "W": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]],
    "X0": [[0.1, 0.0], [0.0, 0.1]],
}
SWEEP_CONTROLLER = {"F": [[0.5, 0.1], [0.0, 0.4]], "K": [[0.0, 0.0]], "L": [[0.0], [0.0]]}
SWEEP_MATRICES = ("A", "B", "C", "Q", "W", "X0") + tuple(
    f"noise.{key}[0].pattern" for key in "ABC"
)
SWEEP_SIGMAS = tuple(f"noise.{key}[0].sigma" for key in "ABC")
ENTRY_MUTATIONS = ("drop", "shape", "string", "bool", "nonfinite", "oversized")
# A finite but huge K overflows the stage weight Q'.  Only rollout reads
# the document as an input error; solve counts the loop not stable
# (TestSolveCommand.test_huge_gain_init_is_not_stabilizing).
ROLLOUT_ONLY = (("controller", "K", "overflows"),)
SWEEP_CASES = (
    [("problem", field, kind) for field in "nmp" for kind in ENTRY_MUTATIONS + ("mismatch",)]
    + [
        ("problem", field, kind)
        for field in SWEEP_MATRICES
        for kind in ENTRY_MUTATIONS
        if (field, kind) != ("X0", "drop")  # optional, defaults to zero
    ]
    + [("problem", field, kind) for field in SWEEP_SIGMAS for kind in ENTRY_MUTATIONS]
    + [("problem", field, "negative") for field in SWEEP_SIGMAS]
    + [("problem", field, "asymmetric") for field in ("Q", "W", "X0")]
    + [("problem", field, "not-psd") for field in ("W", "X0")]
    + [("controller", field, kind) for field in "FKL" for kind in ENTRY_MUTATIONS]
    + [("problem", field, "square-overflows") for field in SWEEP_SIGMAS]
    + list(ROLLOUT_ONLY)
)


def _locate(doc, field):
    """(container, key) of a field path such as "noise.B[0].sigma"."""
    if not field.startswith("noise."):
        return doc, field
    key, rest = field[len("noise."):].split("[0].")
    return doc["noise"][key][0], rest


def _mutate(doc, field, kind, rng):
    """Apply one seeded mutation to ``doc[field]`` in place.

    Returns the name the error must carry: the field itself, or for a key
    dropped from a noise term, the term ("noise.B[0]")."""
    parent, key = _locate(doc, field)
    value = parent[key]
    if kind == "drop":
        del parent[key]
        return field.rsplit(".", 1)[0] if field.startswith("noise.") else field
    if kind in ("asymmetric", "not-psd"):
        M = np.array(value)
        if kind == "asymmetric":
            i, j = rng.choice(len(M), size=2, replace=False)
            M[i, j] += rng.uniform(0.5, 1.0)
        else:
            v = rng.standard_normal(len(M))
            M -= (1.0 + np.abs(M).sum()) * np.outer(v, v) / (v @ v)
        parent[key] = M.tolist()
        return field
    if kind == "negative":
        parent[key] = -rng.uniform(0.1, 1.0)
        return field
    if kind == "square-overflows":  # finite, but sigma**2 is not
        parent[key] = 10.0 ** rng.uniform(155, 300)
        return field
    if kind == "mismatch":  # another positive dimension
        parent[key] = int(rng.choice([k for k in range(1, value + 4) if k != value]))
        return field
    if kind == "shape":
        if not isinstance(value, list):
            parent[key] = [value]
        else:
            rows = [list(row) for row in value]
            choice = rng.integers(3)
            if choice == 0:  # drop a row
                del rows[rng.integers(len(rows))]
            elif choice == 1:  # append a row
                rows.append(list(rows[0]))
            else:  # ragged: one entry more in one row
                rows[rng.integers(len(rows))].append(1.0)
            parent[key] = rows
        return field
    bad = {
        "string": str,
        "bool": lambda x: bool(rng.integers(2)),
        "nonfinite": lambda x: float(rng.choice([np.nan, np.inf, -np.inf])),
        "oversized": lambda x: int(rng.choice([-1, 1])) * 10 ** int(rng.integers(309, 500)),
        "overflows": lambda x: float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(160, 300),
    }[kind]
    if isinstance(value, list):
        row = value[rng.integers(len(value))]
        j = rng.integers(len(row))
        row[j] = bad(row[j])
    else:
        parent[key] = bad(value)
    return field


class TestInputContractSweep:
    """Seeded mutations of every field of valid problem and controller
    documents.  Each command that reads the document exits 2 with one error
    line that names the field; none reaches "unexpected error".  A
    dimension that fits no matrix it sizes, huge or merely mismatched, is
    named itself.  Every output line is under 200 characters: a ragged
    matrix row, for one, is named by its row, not by numpy's text."""

    @pytest.mark.parametrize("document, field, kind", SWEEP_CASES)
    def test_mutation_exits_two_naming_the_field(self, tmp_path, capsys, document, field, kind):
        problem_path = tmp_path / "problem.json"
        controller_path = tmp_path / "controller.json"
        report = str(tmp_path / "report.json")
        commands = {
            "problem": [
                ["validate", str(problem_path)],
                ["solve", str(problem_path), "--out", report],
                ["rollout", str(problem_path), str(controller_path),
                 "--horizon", "5", "--trials", "2", "--seed", "0"],
            ],
            "controller": [
                ["solve", str(problem_path), "--init", str(controller_path), "--out", report],
                ["rollout", str(problem_path), str(controller_path),
                 "--horizon", "5", "--trials", "2", "--seed", "0"],
            ],
        }[document]
        if (document, field, kind) in ROLLOUT_ONLY:
            commands = [argv for argv in commands if argv[0] == "rollout"]
        for seed in range(3):
            docs = json.loads(json.dumps({"problem": SWEEP_PROBLEM, "controller": SWEEP_CONTROLLER}))
            rng = np.random.default_rng([seed, SWEEP_CASES.index((document, field, kind))])
            name = _mutate(docs[document], field, kind, rng)
            problem_path.write_text(json.dumps(docs["problem"]))
            controller_path.write_text(json.dumps(docs["controller"]))
            named = re.compile(rf"^error: (missing field '{re.escape(name)}'|{re.escape(name)} )", re.M)
            for argv in commands:
                code = main(argv)
                out, err = capsys.readouterr()
                where = f"{argv[0]} seed {seed}: {out}{err}"
                assert code == 2, where
                assert "unexpected error" not in err, where
                assert named.search(out + err), where
                assert len(re.findall(r"^error: ", out + err, re.M)) == 1, where
                # nan is said only of an input that holds one, never of a cost
                assert kind == "nonfinite" or not re.search(r"\bnan\b", out + err), where
                assert max(map(len, (out + err).splitlines())) < 200, where

    def test_unmutated_documents_pass(self, tmp_path, capsys):
        problem_path = tmp_path / "problem.json"
        controller_path = tmp_path / "controller.json"
        problem_path.write_text(json.dumps(SWEEP_PROBLEM))
        controller_path.write_text(json.dumps(SWEEP_CONTROLLER))
        assert main(["validate", str(problem_path)]) == 0
        argv = ["rollout", str(problem_path), str(controller_path)]
        assert main(argv + ["--horizon", "5", "--trials", "2", "--seed", "0"]) == 0
        argv = ["solve", str(problem_path), "--init", str(controller_path)]
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0


class TestArgumentErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["bench-random", "rollout"])
    def test_negative_seed_is_named(self, tmp_path, capsys, command):
        if command == "bench-random":
            argv = ["bench-random", "--count", "1", "--seed", "-5", "--out", str(tmp_path / "x")]
        else:
            problem = pendulum_problem(0.05)
            problem_path, ctrl_path = tmp_path / "p.json", tmp_path / "c.json"
            problem_path.write_text(save_problem(problem))
            ctrl_path.write_text(save_controller(open_loop_controller(problem)))
            argv = ["rollout", str(problem_path), str(ctrl_path)]
            argv += ["--horizon", "3", "--trials", "2", "--seed", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: --seed must be >= 0", err

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-random", "--count", "2"])
        assert excinfo.value.code == 2
