"""Policy evaluation against a held inverse of I - Psi_s
(``moments.evaluate(aug, prior)``), on the benchmark's n=10 synthetic
instance and three more instances from 136 unknowns on.

Above the cut-over, PI passes each ``Evaluation`` to the next evaluation,
which refines against its inverse, warm-started from its solution, and
inverts afresh only where that stops contracting; the tests compare it with
the fresh path, forced by raising the cut-over or by passing no prior.
PI's default start evaluates its first loop once, so a ``--init auto``
solve inverts once per distinct loop.
"""

import collections
import importlib.util
import json
from pathlib import Path

import numpy as np
import numpy.linalg as la
import pytest

import mnlqg
from mnlqg import (
    Controller,
    NoiseTerm,
    ProblemInstance,
    SystemModel,
    build_augmented,
    moments,
    open_loop_controller,
    pendulum_problem,
    policy_iteration_solve,
    random_problem,
    stabilizing_initial_controller,
)
from mnlqg.cli import main
from mnlqg.exceptions import NotMsStable
from mnlqg.moments import evaluate
from mnlqg.riccati import gain_operators

from conftest import assert_same_report
from oracles import lyapunov_extended

# cost of the benchmark's pi-large solve on the fresh path
PI_LARGE_COST = 0.3215663851692543
PI_LARGE_ITERATIONS = 10


def _synthetic_problem(seed, n, noise_fraction):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    return instances.synthetic_problem(mnlqg, seed, n, 2, 2, noise_fraction)


@pytest.fixture(scope="module")
def problem():
    problem = _synthetic_problem(11, 10, 0.5)
    assert 10 * 21 >= moments.HELD_INVERSE_MIN_UNKNOWNS
    return problem


@pytest.fixture(scope="module")
def initial(problem):
    return stabilizing_initial_controller(problem)


@pytest.fixture(scope="module")
def fresh_report(problem, initial):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "HELD_INVERSE_MIN_UNKNOWNS", np.inf)
        return policy_iteration_solve(problem, initial)


@pytest.fixture(scope="module")
def held_report(problem, initial):
    return policy_iteration_solve(problem, initial)


def count_inversions(monkeypatch):
    calls = {"inv": 0, "build": 0}
    inv, build = la.inv, moments.build_second_moment_matrix

    def counted_inv(a):
        calls["inv"] += 1
        return inv(a)

    def counted_build(aug, side):
        calls["build"] += 1
        return build(aug, side)

    monkeypatch.setattr(la, "inv", counted_inv)
    monkeypatch.setattr(moments, "build_second_moment_matrix", counted_build)
    return calls


def converged_loop(problem, report):
    return build_augmented(problem, report.controller)


def loop_of(problem, X):
    """The loop of the policy improved from X, as PI forms it."""
    sys_ = problem.system
    K, L = gain_operators(X, problem)
    return build_augmented(problem, Controller(sys_.A + sys_.B @ K - L @ sys_.C, K, L))


@pytest.fixture(scope="module")
def previous_evaluation(problem, held_report):
    """The evaluation of the loop before the converged one: the loop whose
    (P', S') gave the solve's last iterate, and so the report's prior."""
    return evaluate(loop_of(problem, held_report.solution_history[-2]))


def count_longdouble_operators(monkeypatch):
    """Counts the operator applications (``_add_operator``) to longdouble
    matrices."""
    calls = {"longdouble": 0}
    add_operator = moments._add_operator

    def counted(R, M, terms, sign=1.0):
        calls["longdouble"] += M.dtype == np.longdouble
        return add_operator(R, M, terms, sign)

    monkeypatch.setattr(moments, "_add_operator", counted)
    return calls


class TestSamePathAsFreshInverses:
    def test_iterations_cost_and_solution(self, fresh_report, held_report):
        assert held_report.iterations == fresh_report.iterations == PI_LARGE_ITERATIONS
        assert abs(held_report.cost - fresh_report.cost) <= 4 * np.spacing(fresh_report.cost)
        assert abs(fresh_report.cost - PI_LARGE_COST) <= 4 * np.spacing(PI_LARGE_COST)
        for held, fresh in zip(held_report.solution.blocks(), fresh_report.solution.blocks()):
            assert la.norm(held - fresh) <= 1e-14 * la.norm(fresh)
        assert held_report.residual_norm <= 1e-9

    def test_every_iterate_within_rounding_of_the_fresh_one(self, fresh_report, held_report):
        pairs = zip(held_report.solution_history, fresh_report.solution_history)
        for held, fresh in pairs:
            assert held.distance(fresh) <= 1e-14 * fresh.max_norm()


class TestInversionsPerSolve:
    def test_init_auto_solve_inverts_two_distinct_loops_once_each(self, problem, tmp_path, monkeypatch):
        """The initial policy's evaluation is PI's first: 2 inversions and 2
        Psi_s builds for the 2 loops the held inverse does not serve."""
        path = tmp_path / "problem.json"
        path.write_text(mnlqg.save_problem(problem))
        out = tmp_path / "report.json"
        calls = count_inversions(monkeypatch)
        argv = ["solve", str(path), "--method", "pi", "--init", "auto", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["iterations"] == PI_LARGE_ITERATIONS
        assert abs(report["cost"] - PI_LARGE_COST) <= 4 * np.spacing(PI_LARGE_COST)
        # Psi_s is built only for the fresh inversions
        assert calls == {"inv": 2, "build": 2}

    def test_fresh_path_inverts_every_evaluation(self, problem, initial, monkeypatch):
        monkeypatch.setattr(moments, "HELD_INVERSE_MIN_UNKNOWNS", np.inf)
        calls = count_inversions(monkeypatch)
        report = policy_iteration_solve(problem, initial)
        assert calls["inv"] == report.iterations + 2

    def test_default_start_inverts_once_less_than_two_calls(self, monkeypatch):
        """At n=2 every evaluation inverts: the default start inverts
        iterations + 2 times (the loops and the report's cost), the route
        through stabilizing_initial_controller once more, for the initial
        loop it evaluates twice."""
        small, _ = random_problem(7000)
        calls = count_inversions(monkeypatch)
        report = policy_iteration_solve(small)
        assert calls["inv"] == report.iterations + 2
        calls["inv"] = 0
        two_calls = policy_iteration_solve(small, stabilizing_initial_controller(small))
        assert calls["inv"] == two_calls.iterations + 3
        assert two_calls.iterations == report.iterations


class TestDefaultStart:
    def test_same_report_as_the_two_call_route(self, problem, held_report):
        assert_same_report(policy_iteration_solve(problem), held_report)


class TestFallback:
    def test_inverse_of_a_distant_loop_inverts_once(self, problem, held_report, monkeypatch):
        """The open loop's inverse does not contract on the converged
        policy's loop: one fresh inversion, and the fresh path's solution."""
        prior = evaluate(build_augmented(problem, open_loop_controller(problem)))
        aug = converged_loop(problem, held_report)
        expected = evaluate(aug).solution
        calls = count_inversions(monkeypatch)
        evaluation = evaluate(aug, prior)
        sol, inv = evaluation.solution, evaluation.inv
        assert calls["inv"] == 1
        assert inv is not prior.inv
        assert np.array_equal(sol.Pprime, expected.Pprime)
        assert np.array_equal(sol.Sprime, expected.Sprime)

    def test_inverse_of_a_near_loop_serves_without_inverting(self, problem, held_report, monkeypatch):
        aug = converged_loop(problem, held_report)
        fresh = evaluate(aug)
        expected = fresh.solution
        calls = count_inversions(monkeypatch)
        evaluation = evaluate(aug, fresh)
        sol, inv = evaluation.solution, evaluation.inv
        assert calls == {"inv": 0, "build": 0}
        assert inv is fresh.inv
        for got, want in ((sol.Pprime, expected.Pprime), (sol.Sprime, expected.Sprime)):
            assert la.norm(got - want) <= 1e-14 * la.norm(want)

    def test_undecided_certificate_takes_the_fresh_path(self, problem, held_report, monkeypatch):
        """The held path counts a loop as stable only where the certificate
        returns True; otherwise the loop is inverted and decided afresh."""
        aug = converged_loop(problem, held_report)
        fresh = evaluate(aug)
        expected = fresh.solution
        certificate = moments._positive_operator_test
        verdicts = []

        def undecided_first(aug, X):
            verdicts.append(certificate(aug, X))
            return None if len(verdicts) == 1 else verdicts[-1]

        monkeypatch.setattr(moments, "_positive_operator_test", undecided_first)
        calls = count_inversions(monkeypatch)
        evaluation = evaluate(aug, fresh)
        sol, inv = evaluation.solution, evaluation.inv
        assert verdicts == [True, True] and calls["inv"] == 1 and inv is not fresh.inv
        assert np.array_equal(sol.Pprime, expected.Pprime)
        assert np.array_equal(sol.Sprime, expected.Sprime)

    def test_unstable_loop_keeps_the_exact_radius(self, problem, held_report):
        """Tripled noise variances put the open loop past the boundary (the
        instance sits at half the critical noise); with a held inverse it
        is still not stable, and its cost still raises NotMsStable with the
        fresh path's radius, bit for bit."""
        sys_ = problem.system

        def tripled(terms):
            return tuple(NoiseTerm(t.sigma * np.sqrt(3.0), t.pattern) for t in terms)

        noisy = ProblemInstance(
            SystemModel(sys_.A, sys_.B, sys_.C, *map(tripled, (sys_.noise_a, sys_.noise_b, sys_.noise_c))),
            problem.cost,
            problem.noise,
        )
        aug = build_augmented(noisy, open_loop_controller(noisy))
        prior = evaluate(converged_loop(problem, held_report))
        fresh_evaluation, refined_evaluation = evaluate(aug), evaluate(aug, prior)
        assert not fresh_evaluation.stable and not refined_evaluation.stable
        with pytest.raises(NotMsStable) as fresh:
            fresh_evaluation.cost()
        with pytest.raises(NotMsStable) as refined:
            refined_evaluation.cost()
        assert fresh.value.radius > 1.0
        assert refined.value.radius == fresh.value.radius
        assert str(refined.value) == str(fresh.value)

    def test_radius_of_a_held_evaluation_is_the_fresh_one(self, problem, held_report, monkeypatch):
        """An evaluation served by a held inverse keeps no Psi_s; its radius
        builds Psi_s once, on request, and equals the fresh path's, bit for
        bit."""
        aug = converged_loop(problem, held_report)
        fresh = evaluate(aug)
        calls = count_inversions(monkeypatch)
        evaluation = evaluate(aug, fresh)
        assert evaluation.inv is fresh.inv and evaluation.psi is None
        assert calls == {"inv": 0, "build": 0}
        assert fresh.psi is None and fresh.exact_radius is None
        assert evaluation.radius() == fresh.radius() < 1.0
        assert calls == {"inv": 0, "build": 2}


class TestWarmStart:
    def test_one_longdouble_residual_per_side(self, problem, held_report, previous_evaluation, monkeypatch):
        """A held evaluation of the converged loop, from the loop before it,
        applies the operator to longdouble matrices 3 times: the
        certificate's residual and one residual per side."""
        calls = count_longdouble_operators(monkeypatch)
        evaluation = evaluate(converged_loop(problem, held_report), previous_evaluation)
        assert evaluation.inv is previous_evaluation.inv
        assert calls == {"longdouble": 3}

    def test_longdouble_operators_per_solve(self, problem, monkeypatch):
        """A --init auto solve: 3 longdouble applications (the certificate
        and one residual per side) for each of its 2 fresh evaluations
        (``TestColdStart``) and each of its 10 held ones."""
        calls = count_longdouble_operators(monkeypatch)
        report = policy_iteration_solve(problem)
        assert report.iterations == PI_LARGE_ITERATIONS
        assert calls["longdouble"] == 36

    def test_prior_is_left_unchanged(self, problem, held_report, previous_evaluation):
        """The refinement adds in place, so it must start from copies of the
        prior's arrays."""
        prior = previous_evaluation
        arrays = (prior.solution.Pprime, prior.solution.Sprime, prior.candidate, prior.inv)
        before = [a.copy() for a in arrays]
        evaluation = evaluate(converged_loop(problem, held_report), prior)
        assert evaluation.inv is prior.inv
        assert not np.shares_memory(evaluation.candidate, prior.candidate)
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()

    def test_fresh_candidate_is_the_certificate_candidate(self, problem, held_report):
        aug = converged_loop(problem, held_report)
        fresh = evaluate(aug)
        assert np.array_equal(fresh.candidate, fresh.inv @ moments._hvec(np.eye(aug.dim)))


@pytest.fixture
def open_loop():
    problem, _ = random_problem(7000)
    return build_augmented(problem, open_loop_controller(problem))


class TestColdStart:
    def test_one_longdouble_residual_per_side(self, open_loop, monkeypatch):
        """A fresh evaluation applies the operator to longdouble matrices 3
        times, as a held one does (``TestWarmStart``): the certificate's
        residual and one residual per side."""
        calls = count_longdouble_operators(monkeypatch)
        evaluation = evaluate(open_loop)
        assert evaluation.stable and evaluation.exact_radius is None
        assert calls == {"longdouble": 3}

    def test_refinement_that_stops_contracting_raises(self, open_loop, monkeypatch):
        """A negated inverse leaves the certificate undecided, so the radius
        decides the loop stable; refining against it then diverges, which
        raises like a singular I - Psi_s."""
        monkeypatch.setattr(moments, "_inverse", lambda M: -la.inv(M))
        with pytest.raises(la.LinAlgError, match="stopped contracting"):
            evaluate(open_loop)


def count_term_builds(monkeypatch):
    """Counts the operator-term lists (``_operator_blocks``) built, per
    (value side, dtype)."""
    calls = collections.Counter()
    build = moments._operator_blocks

    def counted(aug, value, dtype=np.longdouble):
        calls[value, dtype] += 1
        return build(aug, value, dtype)

    monkeypatch.setattr(moments, "_operator_blocks", counted)
    return calls


class TestTermListsPerEvaluation:
    """Each evaluation builds one operator-term list per side and dtype:
    the certificate and the refinements of a side share it."""

    def test_fresh_evaluation(self, open_loop, monkeypatch):
        calls = count_term_builds(monkeypatch)
        assert evaluate(open_loop).stable
        assert calls == {(True, np.longdouble): 1, (False, np.longdouble): 1}

    def test_held_evaluation(self, problem, held_report, previous_evaluation, monkeypatch):
        calls = count_term_builds(monkeypatch)
        evaluation = evaluate(converged_loop(problem, held_report), previous_evaluation)
        assert evaluation.inv is previous_evaluation.inv
        assert calls == {
            (True, np.float64): 1,
            (True, np.longdouble): 1,
            (False, np.float64): 1,
            (False, np.longdouble): 1,
        }

    def test_solve(self, problem, monkeypatch):
        """Over a --init auto solve, no list is built twice for one loop."""
        calls = count_term_builds(monkeypatch)
        evaluations = []
        evaluate_ = moments.evaluate

        def counted(aug, prior=None):
            evaluations.append(aug)
            return evaluate_(aug, prior)

        monkeypatch.setattr(moments, "evaluate", counted)
        report = policy_iteration_solve(problem)
        assert report.iterations == PI_LARGE_ITERATIONS
        assert len(evaluations) == 12
        assert calls[True, np.longdouble] == calls[False, np.longdouble] == 12
        assert max(calls.values()) == 12


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is float64 here, so the reference is no more precise",
)
def test_held_path_within_one_ulp_of_the_largest_entry(problem, held_report, previous_evaluation):
    """The converged loop, evaluated from the loop before it: each side is
    within one float64 ulp of its largest entry of the unrounded longdouble
    solution (measured 0.33 ulp on the value side, 0.49 on the covariance
    side)."""
    aug = converged_loop(problem, held_report)
    evaluation = evaluate(aug, previous_evaluation)
    assert evaluation.inv is previous_evaluation.inv
    for side, M in (("value", evaluation.solution.Pprime), ("covariance", evaluation.solution.Sprime)):
        error = np.abs(M.astype(np.longdouble) - lyapunov_extended(aug, side))
        assert np.max(error) <= np.spacing(np.max(np.abs(M))), side


@pytest.mark.parametrize(
    "seed, n, noise_fraction, iterations",
    [
        (11, 8, 0.5, 11),  # 136 unknowns, at the cut-over
        (11, 10, 0.8, 11),  # higher noise
        (12, 10, 0.5, 14),  # another seed
    ],
)
def test_held_and_fresh_paths_agree(seed, n, noise_fraction, iterations, monkeypatch):
    problem = _synthetic_problem(seed, n, noise_fraction)
    assert n * (2 * n + 1) >= moments.HELD_INVERSE_MIN_UNKNOWNS
    held = policy_iteration_solve(problem)
    monkeypatch.setattr(moments, "HELD_INVERSE_MIN_UNKNOWNS", np.inf)
    fresh = policy_iteration_solve(problem)
    assert held.iterations == fresh.iterations == iterations
    assert abs(held.cost - fresh.cost) <= 4 * np.spacing(fresh.cost)
    for got, want in zip(held.solution_history, fresh.solution_history):
        assert got.distance(want) <= 1e-14 * want.max_norm()


class TestBelowTheCutOver:
    def test_small_loop_holds_no_inverse(self, monkeypatch):
        """At n=2 (10 unknowns) a prior's inverse is ignored: the evaluation
        is the fresh one, bit for bit, with one inversion."""
        problem = pendulum_problem(0.05)
        aug = build_augmented(problem, stabilizing_initial_controller(problem))
        expected = evaluate(aug).solution
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments, "HELD_INVERSE_MIN_UNKNOWNS", 0)
            prior = evaluate(aug)
        assert prior.inv is not None
        calls = count_inversions(monkeypatch)
        evaluation = evaluate(aug, prior)
        sol, inv = evaluation.solution, evaluation.inv
        assert inv is None and calls["inv"] == 1
        assert np.array_equal(sol.Pprime, expected.Pprime)
        assert np.array_equal(sol.Sprime, expected.Sprime)
