"""Policy evaluation against a held inverse of I - Psi_s
(``moments.evaluate(aug, prior)``), on the benchmark's n=10 synthetic
instance and three more instances from 136 unknowns on.

Above the cut-over, PI passes each ``Evaluation`` to the next evaluation,
which refines against its inverse, warm-started from its solution, and
inverts afresh only where that stops contracting; the tests compare it with
the fresh path, forced by raising the cut-over or by passing no prior.
PI's default start evaluates its first loop once, so a ``--init auto``
solve inverts once per distinct loop.  PI evaluates its early iterates
loosely, to a forcing tolerance (``TestForcingRule``), so held and fresh
iterates agree within a multiple of it.
"""

import json

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
from mnlqg.exceptions import LyapunovSolveFailure, NotMsStable
from mnlqg.moments import HELD_FLOAT64_TOL, ValueCovarianceTuple, evaluate
from mnlqg.riccati import FORCING, gain_operators

from conftest import assert_same_report, synthetic_problem
from oracles import lyapunov_extended

# cost of the benchmark's pi-large solve on the fresh path
PI_LARGE_COST = 0.3215663851692543
PI_LARGE_ITERATIONS = 10
# Which of pi-large's iterates are evaluated loosely: k = 2 .. 7 (tau_k
# from 4.5e-4 down to 1.3e-11).
PI_LARGE_LOOSE = [False, False] + [True] * 6 + [False] * 3
# A held iterate is within (FORCING_BOUND tau_k + 1e-14) ||X|| of the fresh
# one, with tau_k = FORCING delta_{k-1} / ||X_{k-1}|| from the held solve's
# history for k >= 2 and 0 before (``assert_iterates_agree``).  A loose
# evaluation stops refining once a correction is at most tau_k of the
# largest entry, and it refines on only while each correction is at most a
# quarter of the one before, so at that rate the error left is at most
# tau_k / 3 of that entry (the tail 1/4 + 1/16 + ... of a geometric
# series).  The change of norm to X's blockwise Frobenius norm, and the
# part of an earlier iterate's error that the gain update carries into
# X_k, have no bound free of the instance, so the factor is set above the
# largest ratio measured: 1.51, over synthetic seeds 11-13 at n = 8 .. 16
# and the three cases of ``test_held_and_fresh_paths_agree``, exact
# iterates after loose ones included (1.22).
FORCING_BOUND = 2.0


@pytest.fixture(scope="module")
def problem():
    problem = synthetic_problem(11, 10, 0.5)
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
    """Counts the loops whose I - Psi_s is inverted (``moments._inverse``,
    which inverts a decoupled one block by block) and the Psi_s builds."""
    calls = {"inv": 0, "build": 0}
    inverse, build = moments._inverse, moments.build_second_moment_matrix

    def counted_inv(a):
        calls["inv"] += 1
        return inverse(a)

    def counted_build(aug, side):
        calls["build"] += 1
        return build(aug, side)

    monkeypatch.setattr(moments, "_inverse", counted_inv)
    monkeypatch.setattr(moments, "build_second_moment_matrix", counted_build)
    return calls


def assert_iterates_agree(held, fresh):
    """Every iterate of the held solve within (FORCING_BOUND tau_k + 1e-14)
    ||X|| of the fresh solve's (``FORCING_BOUND``)."""
    iterates = [ValueCovarianceTuple(*X) for X in held.solution_history]
    assert len(iterates) == len(fresh.solution_history)
    for k, (got, want) in enumerate(zip(iterates, fresh.solution_history)):
        want = ValueCovarianceTuple(*want)
        tau = FORCING * held.history[k - 1].delta / iterates[k - 1].max_norm() if k >= 2 else 0.0
        assert got.distance(want) <= (FORCING_BOUND * tau + 1e-14) * want.max_norm(), k


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
    return evaluate(loop_of(problem, ValueCovarianceTuple(*held_report.solution_history[-2])))


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

    def test_every_iterate_within_its_forcing_tolerance_of_the_fresh_one(self, fresh_report, held_report):
        assert_iterates_agree(held_report, fresh_report)


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
        applies the operator to longdouble matrices 2 times: one residual
        per side; the certificate's residual is float64."""
        calls = count_longdouble_operators(monkeypatch)
        evaluation = evaluate(converged_loop(problem, held_report), previous_evaluation)
        assert evaluation.inv is previous_evaluation.inv
        assert calls == {"longdouble": 2}

    def test_longdouble_operators_per_solve(self, problem, monkeypatch):
        """A --init auto solve: 2 longdouble applications (one residual per
        side) for each of its 6 exact evaluations, the 2 fresh ones
        (``TestColdStart``) and 4 held ones; its 6 loose evaluations
        (``TestForcingRule``) take none."""
        calls = count_longdouble_operators(monkeypatch)
        report = policy_iteration_solve(problem)
        assert report.iterations == PI_LARGE_ITERATIONS
        assert calls["longdouble"] == 12

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
        """A fresh evaluation applies the operator to longdouble matrices 2
        times, as a held one does (``TestWarmStart``): one residual per
        side."""
        calls = count_longdouble_operators(monkeypatch)
        evaluation = evaluate(open_loop)
        assert evaluation.stable and evaluation.exact_radius is None
        assert calls == {"longdouble": 2}

    def test_refinement_that_stops_contracting_raises(self, open_loop, monkeypatch):
        """A negated inverse leaves the certificate undecided, so the radius
        decides the loop stable; refining against it then diverges, which
        raises like a singular I - Psi_s."""
        monkeypatch.setattr(moments, "_inverse", lambda M: -la.inv(M))
        with pytest.raises(LyapunovSolveFailure, match="stopped contracting"):
            evaluate(open_loop)


def record_evaluations(monkeypatch):
    """Records each ``moments.evaluate`` call as (loop, the tolerance it
    was given, the evaluation's tolerance, its longdouble operator
    applications)."""
    seen, evaluate_ = [], moments.evaluate
    calls = count_longdouble_operators(monkeypatch)

    def recorded(aug, prior=None, tolerance=None):
        calls["longdouble"] = 0
        evaluation = evaluate_(aug, prior, tolerance)
        seen.append((aug, tolerance, evaluation.tolerance, calls["longdouble"]))
        return evaluation

    monkeypatch.setattr(moments, "evaluate", recorded)
    return seen


class TestForcingRule:
    """PI evaluates iterate k >= 2 to tau_k = FORCING delta_{k-1} /
    ||X_{k-1}||: loosely, by float64 refinement to tau_k and without the
    longdouble step, while tau_k > HELD_FLOAT64_TOL; every other
    evaluation is exact."""

    def test_pi_large_pattern_in_the_report(self, problem, tmp_path):
        """The report's history rows carry each iterate's tau_k, null for
        an exact evaluation: pi-large's first two iterates are exact, the
        next six loose, and the rest exact through the end."""
        path = tmp_path / "problem.json"
        path.write_text(mnlqg.save_problem(problem))
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--method", "pi", "--init", "auto", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["history"]
        assert [row["tolerance"] is not None for row in rows] == PI_LARGE_LOOSE
        loose = [row["tolerance"] for row in rows if row["tolerance"] is not None]
        assert all(tau > HELD_FLOAT64_TOL for tau in loose)
        assert loose == sorted(loose, reverse=True)

    def test_tau_of_each_loose_evaluation(self, held_report):
        iterates = [ValueCovarianceTuple(*X) for X in held_report.solution_history]
        for k, entry in enumerate(held_report.history):
            if entry.tolerance is not None:
                tau = FORCING * held_report.history[k - 1].delta / iterates[k - 1].max_norm()
                assert entry.tolerance == tau > HELD_FLOAT64_TOL

    def test_stopping_and_cost_evaluations_take_the_longdouble_step(self, problem, monkeypatch):
        """One longdouble residual per side in each exact evaluation, none
        in a loose one; the last two evaluations, the one that stops the
        solve and the report's cost, are exact."""
        seen = record_evaluations(monkeypatch)
        report = policy_iteration_solve(problem)
        assert report.iterations == PI_LARGE_ITERATIONS
        loose = [tolerance is not None for _, _, tolerance, _ in seen]
        assert loose == PI_LARGE_LOOSE + [False]
        assert [count for *_, count in seen] == [0 if flag else 2 for flag in loose]

    def test_loose_evaluation_never_ends_a_solve(self, problem, monkeypatch):
        """At tol 1e-3 the step of the loose iterate 4 passes the stopping
        test: that loop is evaluated again, exactly, from the loose
        evaluation, and the exact iterate ends the solve."""
        seen = record_evaluations(monkeypatch)
        report = policy_iteration_solve(problem, tol=1e-3)
        assert report.iterations == 4
        (loose_aug, tau, loose_tau, _), (aug, given, exact_tau, count) = seen[-3:-1]
        assert aug is loose_aug and tau == loose_tau > HELD_FLOAT64_TOL
        assert given is None and exact_tau is None and count == 2
        assert report.history[-1].tolerance is None
        exact = moments.extract_tuple(evaluate(aug).solution)
        assert ValueCovarianceTuple(*report.solution_history[-1]).distance(exact) <= 1e-14 * exact.max_norm()

    def test_tolerance_at_or_below_the_float64_floor_is_exact(self, open_loop):
        """``evaluate`` is loose only above HELD_FLOAT64_TOL: at or below it,
        and for NaN, the evaluation is the exact one, bit for bit."""
        exact = evaluate(open_loop).solution
        for tolerance in (HELD_FLOAT64_TOL, 1e-13, np.nan):
            evaluation = evaluate(open_loop, tolerance=tolerance)
            assert evaluation.tolerance is None
            assert np.array_equal(evaluation.solution.Pprime, exact.Pprime)
            assert np.array_equal(evaluation.solution.Sprime, exact.Sprime)

    def test_loose_fresh_evaluation_skips_the_longdouble_step(self, open_loop, monkeypatch):
        """A loose fresh evaluation keeps the cold start inv b, at float64
        accuracy, and takes no longdouble residual."""
        exact = evaluate(open_loop).solution
        calls = count_longdouble_operators(monkeypatch)
        evaluation = evaluate(open_loop, tolerance=1e-6)
        assert evaluation.tolerance == 1e-6 and calls == {"longdouble": 0}
        for got, want in ((evaluation.solution.Pprime, exact.Pprime), (evaluation.solution.Sprime, exact.Sprime)):
            assert la.norm(got - want) <= 1e-14 * la.norm(want)


def record_term_tuples(monkeypatch):
    """Records the term tuple that each operator application
    (``_add_operator``) takes.  The list keeps every tuple alive, so no two
    of them share an id."""
    seen = []
    add_operator = moments._add_operator

    def recorded(R, M, terms, sign=1.0):
        seen.append(terms)
        return add_operator(R, M, terms, sign)

    monkeypatch.setattr(moments, "_add_operator", recorded)
    return seen


def side_ids(aug):
    """The ids of the loop's two term tuples, one per side."""
    return {id(aug.terms), id(aug.covariance_terms)}


class TestTermListsPerEvaluation:
    """Each loop keeps one float64 operator-term tuple per side: the
    certificate and every residual of a side, float64 or longdouble, share
    it."""

    def test_fresh_evaluation(self, open_loop, monkeypatch):
        seen = record_term_tuples(monkeypatch)
        assert evaluate(open_loop).stable
        assert seen[0] is open_loop.terms  # the certificate's
        assert {id(terms) for terms in seen} == side_ids(open_loop)

    def test_held_evaluation(self, problem, held_report, previous_evaluation, monkeypatch):
        seen = record_term_tuples(monkeypatch)
        aug = converged_loop(problem, held_report)
        evaluation = evaluate(aug, previous_evaluation)
        assert evaluation.inv is previous_evaluation.inv
        assert seen[0] is aug.terms  # the certificate candidate's
        assert {id(terms) for terms in seen} == side_ids(aug)

    def test_solve(self, problem, monkeypatch):
        """Over a --init auto solve, each loop's residuals take its own two
        tuples, and no other."""
        seen = record_term_tuples(monkeypatch)
        evaluations = []
        evaluate_ = moments.evaluate

        def counted(aug, prior=None, tolerance=None):
            evaluations.append(aug)
            return evaluate_(aug, prior, tolerance)

        monkeypatch.setattr(moments, "evaluate", counted)
        report = policy_iteration_solve(problem)
        assert report.iterations == PI_LARGE_ITERATIONS
        assert len(evaluations) == 12
        ids = {id(terms) for terms in seen}
        assert ids == set().union(*map(side_ids, evaluations))
        assert len(ids) == 2 * 12


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
    problem = synthetic_problem(seed, n, noise_fraction)
    assert n * (2 * n + 1) >= moments.HELD_INVERSE_MIN_UNKNOWNS
    held = policy_iteration_solve(problem)
    monkeypatch.setattr(moments, "HELD_INVERSE_MIN_UNKNOWNS", np.inf)
    fresh = policy_iteration_solve(problem)
    assert held.iterations == fresh.iterations == iterations
    assert abs(held.cost - fresh.cost) <= 4 * np.spacing(fresh.cost)
    assert_iterates_agree(held, fresh)


def solve_pi_and_vi(problem, tmp_path):
    """The JSON reports of ``solve --method pi --init auto`` and
    ``solve --method vi`` on ``problem``."""
    path = tmp_path / "problem.json"
    path.write_text(mnlqg.save_problem(problem))
    reports = []
    for method, init in (("pi", ["--init", "auto"]), ("vi", [])):
        out = tmp_path / f"{method}.json"
        assert main(["solve", str(path), "--method", method, *init, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    return reports


class TestAgreesWithValueIteration:
    """PI solves whose evaluations hold an inverse reach VI's fixed point."""

    def test_n10(self, problem, tmp_path):
        pi, vi = solve_pi_and_vi(problem, tmp_path)
        assert pi["converged"] and vi["converged"]
        J = pi["cost"]
        assert abs(J - vi["cost"]) <= 1e-9 * (1.0 + abs(J))
        assert pi["residual_norm"] <= 1e-9
        # the fixed points themselves, as acceptance 01 compares them
        blocks = ("P", "Phat", "S", "Shat")
        x_pi, x_vi = ([np.array(report["solution"][b]) for b in blocks] for report in (pi, vi))
        distance = max(la.norm(a - b) for a, b in zip(x_pi, x_vi))
        max_norm = max(la.norm(m) for m in x_pi + x_vi)
        assert distance <= 1e-8 * (1.0 + max_norm)

    def test_n16_open_loop_inverted_by_blocks(self, tmp_path):
        """At n=16 the open loop's I - Psi_s, 528 square, is inverted by its
        136-, 256- and 136-square hvec blocks."""
        problem = synthetic_problem(11, 16, 0.5)
        psi = moments.build_second_moment_matrix(build_augmented(problem, open_loop_controller(problem)), "value")
        blocks = moments._decoupled_blocks(np.eye(len(psi)) - psi)
        assert [len(block) for block in blocks] == [136, 256, 136]
        pi, vi = solve_pi_and_vi(problem, tmp_path)
        assert pi["converged"] and vi["converged"]
        J = pi["cost"]
        assert abs(J - vi["cost"]) <= 1e-9 * (1.0 + abs(J))
        assert pi["residual_norm"] <= 1e-9
        assert vi["residual_norm"] <= 1e-9


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
