import csv
import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import mnlqg
from mnlqg import (
    Controller,
    NoiseModel,
    NoiseTerm,
    ProblemInstance,
    SystemModel,
    ValueCovarianceTuple,
    build_augmented,
    build_second_moment_matrix,
    convergence_metric,
    monte_carlo_cost,
    open_loop_controller,
    pendulum_problem,
    policy_iteration_solve,
    random_problem,
    run_comparison,
    save_problem,
    spectral_radius,
    value_iteration_solve,
)
from mnlqg import bench, riccati
from mnlqg.bench import _ROLLOUT_BLOCK, _ROLLOUT_DRAWS, MAX_REDRAWS, write_trace_csv
from mnlqg.cli import main
from mnlqg.exceptions import RetryExhausted, UnstableRollout
from mnlqg.moments import evaluate_policy

from conftest import make_scalar_problem, synthetic_problem
from oracles import (
    convergence_metric_reference,
    critical_noise_scale_reference,
    monte_carlo_cost_reference,
    specrad,
)

POOL_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "ensemble_pool.json"


def open_loop_radius(problem):
    aug = build_augmented(problem, open_loop_controller(problem))
    return spectral_radius(build_second_moment_matrix(aug, "value"))


class TestPendulumProblem:
    def test_fixed_data(self):
        problem = pendulum_problem(1.0)
        assert np.array_equal(problem.system.A, [[1.0, 0.1], [1.0, 0.95]])
        assert np.array_equal(problem.system.B, [[0.0], [0.1]])
        assert np.array_equal(problem.system.C, [[1.0, 0.0]])
        assert np.array_equal(problem.cost.Q, np.eye(3))
        assert np.array_equal(problem.noise.W, np.diag([0.0, 0.01, 0.001]))
        assert np.array_equal(problem.noise.X0, np.zeros((2, 2)))
        term = problem.system.noise_b[0]
        assert term.sigma == 1.0
        assert np.array_equal(term.pattern, [[0.0], [1.0]])
        assert problem.system.noise_a == () and problem.system.noise_c == ()

    @pytest.mark.parametrize("eta,expected", [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    def test_sigma_scales_with_eta(self, eta, expected):
        assert pendulum_problem(eta).system.noise_b[0].sigma == expected

    def test_eta_range_enforced(self):
        with pytest.raises(ValueError):
            pendulum_problem(1.5)


class TestRandomProblem:
    @pytest.mark.parametrize("seed", range(12))
    def test_open_loop_ms_stable(self, seed):
        problem, eta = random_problem(seed)
        assert 0.0 <= eta <= 1.0
        assert open_loop_radius(problem) < 1.0

    @pytest.mark.parametrize("seed", range(12))
    def test_critical_scaling_before_eta(self, seed):
        problem, eta = random_problem(seed)
        assert eta > 0.0
        sys = problem.system
        unscaled = ProblemInstance(
            SystemModel(
                A=sys.A,
                B=sys.B,
                C=sys.C,
                noise_a=(NoiseTerm(sys.noise_a[0].sigma / np.sqrt(eta), sys.noise_a[0].pattern),),
                noise_b=(NoiseTerm(sys.noise_b[0].sigma / np.sqrt(eta), sys.noise_b[0].pattern),),
                noise_c=(NoiseTerm(sys.noise_c[0].sigma / np.sqrt(eta), sys.noise_c[0].pattern),),
            ),
            problem.cost,
            problem.noise,
        )
        assert np.sqrt(open_loop_radius(unscaled)) == pytest.approx(1.0, abs=1e-8)

    def test_deterministic(self):
        p1, eta1 = random_problem(42)
        p2, eta2 = random_problem(42)
        assert eta1 == eta2
        assert np.array_equal(p1.system.A, p2.system.A)
        assert np.array_equal(p1.system.noise_a[0].pattern, p2.system.noise_a[0].pattern)
        assert p1.system.noise_b[0].sigma == p2.system.noise_b[0].sigma

    def test_distinct_seeds_differ(self):
        p1, _ = random_problem(1)
        p2, _ = random_problem(2)
        assert not np.array_equal(p1.system.A, p2.system.A)

    def test_dimensions(self):
        problem, _ = random_problem(0)
        assert (problem.n, problem.m, problem.p) == (2, 1, 1)
        assert np.array_equal(problem.cost.Q, np.eye(3))
        assert np.array_equal(problem.noise.W, 0.01 * np.eye(3))

    def test_retry_budget_exhaustion_raises(self, monkeypatch):
        draws = []

        def unreachable(*args):
            draws.append(args)
            return None

        monkeypatch.setattr(bench, "_critical_noise_scale", unreachable)
        with pytest.raises(RetryExhausted, match=f"in {MAX_REDRAWS} draws"):
            random_problem(0)
        assert len(draws) == MAX_REDRAWS

    def test_bitwise_equal_to_per_midpoint_assembly(self, monkeypatch):
        """The bisection on precomputed term products gives the same
        instances, byte for byte, as assembling each midpoint's problem:
        seeds 7000-7199 and the seeds the benchmark's pool excludes.  Every
        matrix whose radius the bisection takes is bitwise the same too."""
        excluded = json.loads(POOL_FILE.read_text())["excluded"]
        seeds = list(range(7000, 7200)) + sorted(int(seed) for seed in excluded)
        assert len(seeds) == 219

        def generate():
            seen = []

            def recording_radius(matrix):
                seen.append(matrix.tobytes())
                return spectral_radius(matrix)

            with monkeypatch.context() as patch:
                patch.setattr(mnlqg.moments, "spectral_radius", recording_radius)
                return [random_problem(seed) for seed in seeds], seen

        fast, fast_radii = generate()
        monkeypatch.setattr(mnlqg.bench, "_critical_noise_scale", critical_noise_scale_reference)
        reference, reference_radii = generate()
        assert fast_radii == reference_radii
        for seed, (problem, eta), (ref_problem, ref_eta) in zip(seeds, fast, reference):
            assert save_problem(problem) == save_problem(ref_problem), seed
            assert repr(eta) == repr(ref_eta), seed

    def test_bitwise_equal_to_full_matrix_bisection(self, monkeypatch):
        """``spectral_radius`` takes the open loop's radius from its three
        decoupled hvec blocks, which may differ from a full-matrix
        ``eigvals`` in the last bits.  No bisection step flips: the
        instances are byte for byte those of bisections on the full-matrix
        radius, here (seeds 7000-7199 and the seeds the benchmark's pool
        excludes) and in the benchmark's generator at n = 4 and 10."""
        excluded = json.loads(POOL_FILE.read_text())["excluded"]
        seeds = list(range(7000, 7200)) + sorted(int(seed) for seed in excluded)

        def generate():
            randoms = [random_problem(seed) for seed in seeds]
            synthetic = [synthetic_problem(11, n) for n in (4, 10)]
            return [(save_problem(p), repr(eta)) for p, eta in randoms], [save_problem(p) for p in synthetic]

        blocks = generate()
        monkeypatch.setattr(mnlqg.moments, "spectral_radius", specrad)
        monkeypatch.setattr(mnlqg, "spectral_radius", specrad)  # the generator's name
        full = generate()
        assert blocks[1] == full[1]
        for seed, got, want in zip(seeds, blocks[0], full[0]):
            assert got == want, seed

    def test_generation_builds_no_kronecker_product(self, monkeypatch):
        """The critical-noise bisections, here and in the benchmark's
        generator (which calls the package API by name), work on Psi_s."""

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called while generating an instance")

        monkeypatch.setattr(np, "kron", no_kron)
        problems = [random_problem(seed)[0] for seed in range(7000, 7005)]
        problems.append(synthetic_problem(11, 4))
        for problem in problems:
            assert open_loop_radius(problem) < 1.0


def trajectory(*iterates):
    """The (k, 4, n, n) array of ``iterates``, as ``solution_history``."""
    return np.array([X.blocks() for X in iterates])


class TestConvergenceMetric:
    def test_zero_at_reference(self):
        X = ValueCovarianceTuple(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        assert convergence_metric(trajectory(X), X) == [0.0]

    def test_starts_at_one(self):
        ref = ValueCovarianceTuple(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        start = ValueCovarianceTuple(*np.zeros((4, 2, 2)))
        mid = ValueCovarianceTuple(0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        e = convergence_metric(trajectory(start, mid, ref), ref)
        assert e[0] == 1.0
        assert e[1] == pytest.approx(0.5)
        assert e[2] == 0.0

    def test_zero_initial_error_block_guard(self):
        ref = ValueCovarianceTuple(np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        start = ValueCovarianceTuple(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        drifted = ValueCovarianceTuple(
            0.5 * np.eye(2), 0.1 * np.eye(2), np.eye(2), np.zeros((2, 2))
        )
        e = convergence_metric(trajectory(start, drifted), ref)
        # Phat starts at its fixed point; its later drift must not poison e_k
        # through a zero denominator.
        assert np.isfinite(e[1])
        assert e[0] == 1.0

    def test_empty_history(self):
        ref = ValueCovarianceTuple(*np.zeros((4, 2, 2)))
        assert convergence_metric(np.empty((0, 4, 2, 2)), ref) == []

    @pytest.mark.parametrize("block", range(4), ids=["P", "Phat", "S", "Shat"])
    def test_nan_in_any_block_reaches_e_k(self, block):
        ref = ValueCovarianceTuple(*np.array([np.eye(2)] * 4))
        stack = np.array([0.5 * np.eye(2)] * 4)
        stack[block, 1, 1] = np.nan
        e = convergence_metric(np.array([np.zeros((4, 2, 2)), stack, ref.blocks()]), ref)
        assert e[0] == 1.0 and math.isnan(e[1]) and e[2] == 0.0
        # a NaN initial error is not read as a zero one
        assert all(map(math.isnan, convergence_metric(np.array([stack, ref.blocks()]), ref)))

    @pytest.mark.parametrize(
        "make_problem",
        [lambda seed=seed: random_problem(seed)[0] for seed in range(7000, 7010)]
        + [lambda: pendulum_problem(0.05)],
        ids=[f"random-{seed}" for seed in range(7000, 7010)] + ["pendulum-0.05"],
    )
    def test_bitwise_the_per_block_loop(self, make_problem):
        problem = make_problem()
        pi = policy_iteration_solve(problem)
        for report in (pi, value_iteration_solve(problem)):
            # against PI's fixed point, as bench-random, and its own, as solve --trace
            for reference in (pi.solution, report.solution):
                got = convergence_metric(report.solution_history, reference)
                assert got == convergence_metric_reference(report.solution_history, reference)
                assert got[0] == 1.0
            assert got[-1] == 0.0


class TestRunComparison:
    def test_scalar_both_methods(self, scalar_problem):
        result = run_comparison(scalar_problem)
        by_method = {rec.method: rec for rec in result.records}
        assert set(by_method) == {"policy_iteration", "value_iteration"}
        pi, vi = by_method["policy_iteration"], by_method["value_iteration"]
        assert pi.converged and vi.converged
        assert pi.iterations < vi.iterations
        assert result.ratio_iterations == pytest.approx(vi.iterations / pi.iterations)
        assert result.ratio_time is not None
        # e_k traces: start at 1, end below tolerance-induced bound
        for rec in (pi, vi):
            assert rec.e_k[0] == pytest.approx(1.0)
            assert rec.e_k[-1] <= 1e-6
            assert all(e >= 0.0 and np.isfinite(e) for e in rec.e_k)
            assert len(rec.cum_seconds) == len(rec.e_k)

    def test_every_trace_row_has_its_seconds(self, tmp_path):
        entries = [(seed, *reversed(random_problem(seed))) for seed in range(7000, 7010)]
        entries = [(seed, eta, run_comparison(problem)) for seed, eta, problem in entries]
        entries.append((0, 1.0, run_comparison(pendulum_problem(1.0))))  # both fail
        for _, _, result in entries:
            for rec in result.records:
                if rec.converged:
                    assert len(rec.e_k) == len(rec.cum_seconds) == rec.iterations + 1
                else:
                    assert rec.e_k == rec.cum_seconds == ()
        path = tmp_path / "trace.csv"
        write_trace_csv(path, entries)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == sum(len(rec.e_k) for _, _, r in entries for rec in r.records)
        assert all(row["cum_seconds"] for row in rows)

    def test_single_method_no_ratios(self, scalar_problem):
        result = run_comparison(scalar_problem, ("policy_iteration",))
        assert len(result.records) == 1
        assert result.ratio_iterations is None
        assert result.ratio_time is None

    def test_failure_is_recorded_not_raised(self):
        problem = pendulum_problem(1.0)  # no stabilizing compensator exists
        result = run_comparison(problem)
        assert all(not rec.converged for rec in result.records)
        assert all(rec.error for rec in result.records)
        assert result.ratio_iterations is None

    def test_quiet_pendulum_ordering(self):
        result = run_comparison(pendulum_problem(0.0))
        by_method = {rec.method: rec for rec in result.records}
        assert by_method["policy_iteration"].iterations < by_method["value_iteration"].iterations

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_instances_converge_and_agree(self, seed):
        problem, _ = random_problem(seed)
        result = run_comparison(problem)
        by_method = {rec.method: rec for rec in result.records}
        pi, vi = by_method["policy_iteration"], by_method["value_iteration"]
        assert pi.converged and vi.converged
        assert pi.cost == pytest.approx(vi.cost, rel=1e-6)
        assert result.ratio_iterations > 1.0


class TestMonteCarloCost:
    def test_zero_noise_zero_start_gives_zero(self):
        problem = make_scalar_problem(w_diag=(0.0, 0.0))
        ctrl = Controller(F=[[0.2]], K=[[-0.1]], L=[[0.1]])
        estimate = monte_carlo_cost(problem, ctrl, horizon=50, trials=8, seed=0)
        assert estimate.cost_mean == 0.0
        assert estimate.cost_stderr == 0.0

    def test_scalar_cross_check_against_solver(self, scalar_problem):
        report = value_iteration_solve(scalar_problem)
        _, _, J = evaluate_policy(scalar_problem, report.controller)
        estimate = monte_carlo_cost(
            scalar_problem, report.controller, horizon=10_000, trials=200, seed=12345
        )
        assert abs(estimate.cost_mean - J) <= 3.0 * estimate.cost_stderr

    def test_deterministic_given_seed(self, scalar_problem):
        report = value_iteration_solve(scalar_problem)
        e1 = monte_carlo_cost(scalar_problem, report.controller, 500, 16, seed=7)
        e2 = monte_carlo_cost(scalar_problem, report.controller, 500, 16, seed=7)
        assert e1.cost_mean == e2.cost_mean
        assert e1.cost_stderr == e2.cost_stderr

    def test_multiplicative_noise_instance_cross_check(self):
        # all three noise channels active; the sampler and the solver must
        # agree within sampling error plus the finite-horizon allowance
        problem, _ = random_problem(7)
        report = value_iteration_solve(problem)
        estimate = monte_carlo_cost(
            problem, report.controller, horizon=10_000, trials=100, seed=99
        )
        bound = 4.0 * estimate.cost_stderr + 0.05 * abs(report.cost)
        assert abs(estimate.cost_mean - report.cost) <= bound

    def test_unstable_rollout_detected(self):
        problem = make_scalar_problem(w_diag=(0.01, 0.01))
        blowup = Controller(F=[[3.0]], K=[[5.0]], L=[[4.0]])
        with pytest.raises(UnstableRollout):
            monte_carlo_cost(problem, blowup, horizon=2_000, trials=4, seed=1)

    def test_argument_validation(self, scalar_problem):
        ctrl = Controller(F=[[0.2]], K=[[0.0]], L=[[0.0]])
        with pytest.raises(ValueError):
            monte_carlo_cost(scalar_problem, ctrl, horizon=0, trials=4, seed=0)
        bad = Controller(F=np.eye(2), K=np.zeros((1, 2)), L=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            monte_carlo_cost(scalar_problem, bad, horizon=10, trials=4, seed=0)


def two_terms_per_channel_problem():
    """random_problem(7) with each noise term split into two terms of
    different patterns and sizes, so the A, B and C scalars of a step are
    six distinct draws."""
    base, _ = random_problem(7)
    sys_ = base.system

    def split(terms):
        (t,) = terms
        return (
            NoiseTerm(0.6 * t.sigma, t.pattern),
            NoiseTerm(0.5 * t.sigma, t.pattern[::-1, ::-1]),
        )

    system = SystemModel(
        sys_.A,
        sys_.B,
        sys_.C,
        noise_a=split(sys_.noise_a),
        noise_b=split(sys_.noise_b),
        noise_c=split(sys_.noise_c),
    )
    return ProblemInstance(system, base.cost, base.noise)


def nonzero_start_problem():
    base, _ = random_problem(7)
    X0 = np.array([[0.5, 0.1], [0.1, 0.2]])
    return ProblemInstance(base.system, base.cost, NoiseModel(W=base.noise.W, X0=X0))


ROLLOUT_PROBLEMS = {
    "scalar": make_scalar_problem,
    "random_7": lambda: random_problem(7)[0],
    "two_terms_per_channel": two_terms_per_channel_problem,
    "nonzero_start": nonzero_start_problem,
}


@pytest.fixture(scope="module")
def rollout_pairs():
    """(problem, VI controller) per entry of ROLLOUT_PROBLEMS."""
    pairs = {}
    for name, make in ROLLOUT_PROBLEMS.items():
        problem = make()
        pairs[name] = (problem, value_iteration_solve(problem).controller)
    return pairs


def assert_matches_reference(problem, ctrl, horizon, trials, seed):
    fast = monte_carlo_cost(problem, ctrl, horizon, trials, seed)
    ref = monte_carlo_cost_reference(problem, ctrl, horizon, trials, seed)
    assert (fast.horizon, fast.trials, fast.seed) == (horizon, trials, seed)
    for field in ("cost_mean", "cost_stderr"):
        got, want = getattr(fast, field), getattr(ref, field)
        if want == 0.0:
            assert got == 0.0, field
        else:
            assert abs(got - want) <= 1e-12 * abs(want), (field, got, want)
    return ref


class TestRolloutMatchesReference:
    """The augmented-loop rollout against the step-by-step simulation of the
    raw system equations, on the same random stream."""

    @pytest.mark.parametrize("name", sorted(ROLLOUT_PROBLEMS))
    @pytest.mark.parametrize(
        "horizon", [1, 7, _ROLLOUT_BLOCK - 1, _ROLLOUT_BLOCK + 1, 300]
    )
    def test_matches_reference(self, rollout_pairs, name, horizon):
        problem, ctrl = rollout_pairs[name]
        assert_matches_reference(problem, ctrl, horizon, trials=16, seed=horizon)

    @pytest.mark.parametrize("name", sorted(ROLLOUT_PROBLEMS))
    def test_single_trial(self, rollout_pairs, name):
        problem, ctrl = rollout_pairs[name]
        ref = assert_matches_reference(problem, ctrl, 2 * _ROLLOUT_BLOCK + 3, trials=1, seed=5)
        assert ref.cost_stderr == 0.0

    @pytest.mark.parametrize("name", sorted(ROLLOUT_PROBLEMS))
    def test_shorter_blocks_for_many_trials(self, rollout_pairs, name):
        problem, ctrl = rollout_pairs[name]
        sys_ = problem.system
        terms = len(sys_.noise_a) + len(sys_.noise_b) + len(sys_.noise_c)
        per_trial = sys_.n + sys_.p + terms  # values drawn per trial and step
        trials = _ROLLOUT_DRAWS // (3 * per_trial)  # blocks of three steps
        assert _ROLLOUT_DRAWS // (trials * per_trial) == 3
        assert_matches_reference(problem, ctrl, 2 * _ROLLOUT_BLOCK + 1, trials, seed=11)

    def test_nonzero_start_enters_the_cost(self, rollout_pairs):
        # the first stage cost sees x0 alone, so the draw of x0 is exercised
        problem, ctrl = rollout_pairs["nonzero_start"]
        ref = assert_matches_reference(problem, ctrl, 1, trials=16, seed=3)
        assert ref.cost_mean > 0.0

    def test_zero_cost_is_exact(self):
        problem = make_scalar_problem(w_diag=(0.0, 0.0))
        ctrl = Controller(F=[[0.2]], K=[[-0.1]], L=[[0.1]])
        ref = assert_matches_reference(problem, ctrl, _ROLLOUT_BLOCK + 1, trials=8, seed=0)
        assert ref.cost_mean == 0.0 and ref.cost_stderr == 0.0


class TestRolloutOverflow:
    """The first overflowing step, as the step-by-step reference reports it.

    With seed 2 the reference overflows at step 125 under the moderate
    gains, and at step 2 under the huge ones, whose states then reach inf
    and nan before the block ends; neither may warn."""

    GAINS = {"moderate": (3.0, 5.0, 4.0), "huge": (1e50, 1e50, 1e50)}

    def overflow_step(self, fn, gains, horizon):
        problem = make_scalar_problem(w_diag=(0.01, 0.01))
        F, K, L = gains
        ctrl = Controller(F=[[F]], K=[[K]], L=[[L]])
        with pytest.raises(UnstableRollout) as info:
            fn(problem, ctrl, horizon=horizon, trials=4, seed=2)
        return info.value.step

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gains", sorted(GAINS))
    def test_mid_block(self, gains):
        gains = self.GAINS[gains]
        step = self.overflow_step(monte_carlo_cost_reference, gains, 2_000)
        assert step % _ROLLOUT_BLOCK < _ROLLOUT_BLOCK - 1  # steps follow in its block
        assert self.overflow_step(monte_carlo_cost, gains, 2_000) == step

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gains", sorted(GAINS))
    def test_last_partial_block(self, gains):
        gains = self.GAINS[gains]
        step = self.overflow_step(monte_carlo_cost_reference, gains, 2_000)
        # end the horizon one step short of the end of the overflow's block
        horizon = step - step % _ROLLOUT_BLOCK + _ROLLOUT_BLOCK - 1
        assert step < horizon
        assert self.overflow_step(monte_carlo_cost_reference, gains, horizon) == step
        assert self.overflow_step(monte_carlo_cost, gains, horizon) == step


class TestComparisonMethods:
    def test_methods_validated(self, scalar_problem):
        with pytest.raises(ValueError, match="unknown method 'newton'"):
            run_comparison(scalar_problem, ("newton",))
        with pytest.raises(ValueError, match="nonempty"):
            run_comparison(scalar_problem, ())

    def test_per_method_iteration_defaults(self, scalar_problem, tmp_path, monkeypatch):
        """run_comparison, and solve without --tol or --max-iter, leave the
        tolerance and the cap to each solver's own defaults: 1e-12, and
        1000 PI or 100000 VI iterations."""
        for solver, cap in (
            (riccati.policy_iteration_solve, 1_000),
            (riccati.value_iteration_solve, 100_000),
        ):
            defaults = inspect.signature(solver).parameters
            assert (defaults["tol"].default, defaults["max_iter"].default) == (1e-12, cap)
        received = []

        def recording(solver):
            def wrapped(*args, **kwargs):
                received.append((solver.__name__, kwargs))
                return solver(*args, **kwargs)

            return wrapped

        for name in ("policy_iteration_solve", "value_iteration_solve"):
            monkeypatch.setattr(riccati, name, recording(getattr(riccati, name)))
        run_comparison(scalar_problem)
        path = tmp_path / "scalar.json"
        path.write_text(save_problem(scalar_problem))
        for method in ("pi", "vi"):
            argv = ["solve", str(path), "--method", method, "--out", str(tmp_path / "r.json")]
            assert main(argv) == 0
        assert received == [
            ("policy_iteration_solve", {}),
            ("value_iteration_solve", {}),
        ] * 2
        received.clear()
        argv = ["solve", str(path), "--max-iter", "77", "--tol", "1e-9"]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
        assert received == [("policy_iteration_solve", {"tol": 1e-9, "max_iter": 77})]


class TestBenchmarkContract:
    def test_traced_functions_resolve(self, monkeypatch):
        # The benchmark's tracer wraps these module attributes by name; a
        # rename or removal makes its traced runs fail.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclasses
        spec.loader.exec_module(tracer)
        assert tracer.TRACED
        for module, attr in tracer.TRACED:
            target = importlib.import_module(f"{tracer.PACKAGE}.{module}")
            assert callable(getattr(target, attr, None)), f"{module}.{attr}"
