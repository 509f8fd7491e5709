import numpy as np
import numpy.linalg as la
import pytest

from mnlqg import (
    Controller,
    CostModel,
    NoiseModel,
    NoiseTerm,
    ProblemInstance,
    SystemModel,
    ValueCovarianceTuple,
    gain_operators,
    noise_free_controller,
    open_loop_controller,
    pendulum_problem,
    policy_iteration_solve,
    q_operators,
    random_problem,
    riccati_residual,
    stabilizing_initial_controller,
    value_iteration_solve,
)
from mnlqg import moments, riccati
from mnlqg.exceptions import (
    Diverged,
    DualityViolation,
    InitialPolicyNotStabilizing,
    IterateNotStabilizing,
    SingularBlock,
    SolverError,
)

from conftest import (
    assert_same_report,
    make_scalar_problem,
    make_singular_filter_problem,
    make_unstabilizable_problem,
)
from oracles import (
    dare_control_fixed_point,
    dare_filter_fixed_point,
    optimal_cost,
    q_matrices,
    reference_gain_blocks,
    reference_gains,
    reference_residual,
    riccati_residual_full,
    scalar_noise_free_fixed_point,
    value_iteration_reference,
    value_iteration_step,
)

P_STAR, S_STAR, K_STAR, L_STAR = scalar_noise_free_fixed_point()


def zero_tuple(n):
    return ValueCovarianceTuple.zeros(n)


def tuple_from_scalars(p, phat, s, shat):
    return ValueCovarianceTuple([[p]], [[phat]], [[s]], [[shat]])


class TestGainOperators:
    def test_zero_dynamics_zero_control_gain(self):
        problem = ProblemInstance(
            SystemModel(A=[[0.0]], B=[[1.0]], C=[[1.0]]),
            CostModel(np.eye(2)),
            NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
        )
        K, L = gain_operators(tuple_from_scalars(2.0, 1.0, 0.5, 0.25), problem)
        assert K == pytest.approx(0.0)
        assert L == pytest.approx(0.0)  # W_xy = 0 and A = 0 kill H_xy too

    def test_scalar_fixed_point_gains(self, scalar_problem):
        X = tuple_from_scalars(P_STAR, 0.0, S_STAR, 0.0)
        K, L = gain_operators(X, scalar_problem)
        assert K[0, 0] == pytest.approx(K_STAR, rel=1e-12)
        assert L[0, 0] == pytest.approx(L_STAR, rel=1e-12)
        assert K[0, 0] == pytest.approx(-0.265564, abs=1e-6)
        assert L[0, 0] == pytest.approx(0.265564, abs=1e-6)

    def test_singular_block_detected(self):
        # Q_uu = 0 with B = 0 makes G_uu exactly singular at X = 0.
        problem = ProblemInstance(
            SystemModel(A=[[0.5]], B=[[0.0]], C=[[1.0]]),
            CostModel([[1.0, 0.0], [0.0, 0.0]]),
            NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
        )
        with pytest.raises(SingularBlock, match="G_uu"):
            gain_operators(zero_tuple(1), problem)

    @pytest.mark.parametrize("block, unknown", [("G_uu", "P"), ("H_yy", "S")])
    def test_nan_block_is_singular(self, block, unknown):
        """NaN entries make the singular values fail to converge; that is a
        SingularBlock (a SolverError), not numpy's LinAlgError."""
        problem, _ = random_problem(7000)
        blocks = dict.fromkeys(("P", "Phat", "S", "Shat"), np.zeros((2, 2)))
        blocks[unknown] = np.full((2, 2), np.nan)
        X = ValueCovarianceTuple(**blocks)
        for fn in (gain_operators, riccati_residual):
            with pytest.raises(SingularBlock, match=block) as info:
                fn(X, problem)
            assert isinstance(info.value, SolverError)
            assert info.value.block == block and np.isnan(info.value.cond)


def rel_err(actual, expected):
    return la.norm(actual - expected) / la.norm(expected)


def random_spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + 0.1 * np.eye(n)


def three_state_noisy_problem():
    """n=3, m=2, p=2 instance with A, B and C noise terms."""
    rng = np.random.default_rng(3)
    n, m, p = 3, 2, 2
    system = SystemModel(
        A=0.5 * rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((p, n)),
        noise_a=(NoiseTerm(0.2, rng.standard_normal((n, n))),),
        noise_b=(
            NoiseTerm(0.3, rng.standard_normal((n, m))),
            NoiseTerm(0.1, rng.standard_normal((n, m))),
        ),
        noise_c=(NoiseTerm(0.25, rng.standard_normal((p, n))),),
    )
    Q = rng.standard_normal((n + m, n + m))
    W = rng.standard_normal((n + p, n + p))
    return ProblemInstance(
        system,
        CostModel(Q @ Q.T + np.eye(n + m)),
        NoiseModel(W=W @ W.T + np.eye(n + p), X0=np.zeros((n, n))),
    )


def four_state_problem():
    """n=4, m=2, p=2 instance with one A, B and C noise term each; A is
    scaled to spectral radius 0.9."""
    rng = np.random.default_rng(4)
    n, m, p = 4, 2, 2
    A = rng.standard_normal((n, n))
    A *= 0.9 / max(abs(la.eigvals(A)))
    system = SystemModel(
        A=A,
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((p, n)),
        noise_a=(NoiseTerm(0.4, rng.standard_normal((n, n)) / n),),
        noise_b=(NoiseTerm(0.4, rng.standard_normal((n, m)) / n),),
        noise_c=(NoiseTerm(0.4, rng.standard_normal((p, n)) / n),),
    )
    Q = rng.standard_normal((n + m, n + m))
    W = rng.standard_normal((n + p, n + p))
    return ProblemInstance(
        system,
        CostModel(Q @ Q.T + np.eye(n + m)),
        NoiseModel(W=W @ W.T + np.eye(n + p), X0=np.zeros((n, n))),
    )


def oracle_problem(kind, seed):
    if kind == "random":
        return random_problem(seed)[0]
    return three_state_noisy_problem() if kind == "three-state" else four_state_problem()


ORACLE_CASES = [("random", seed) for seed in range(7000, 7010)] + [
    ("three-state", 3),
    ("four-state", 4),
]


class TestQOperators:
    def test_at_zero_returns_penalties(self, scalar_mult_problem):
        X = zero_tuple(1)
        K, L = gain_operators(X, scalar_mult_problem)
        G, H = q_matrices(X, scalar_mult_problem, K, L)
        assert np.array_equal(G, scalar_mult_problem.cost.Q)
        assert np.array_equal(H, scalar_mult_problem.noise.W)
        q = q_operators(X, scalar_mult_problem)
        assert np.array_equal(q.Guu, G[1:, 1:])
        assert np.array_equal(q.Hyy, H[1:, 1:])

    def test_noise_free_reduces_to_classical(self):
        rng = np.random.default_rng(11)
        n, m, p = 2, 1, 1
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        problem = ProblemInstance(
            SystemModel(A=A, B=B, C=C),
            CostModel(np.eye(n + m)),
            NoiseModel(W=0.01 * np.eye(n + p), X0=np.zeros((n, n))),
        )
        P = rng.standard_normal((n, n))
        P = P @ P.T
        S = rng.standard_normal((n, n))
        S = S @ S.T
        X = ValueCovarianceTuple(P, np.zeros((n, n)), S, np.zeros((n, n)))
        K, L = gain_operators(X, problem)
        G, H = q_matrices(X, problem, K, L)
        G_expected = problem.cost.Q + np.block(
            [[A.T @ P @ A, A.T @ P @ B], [B.T @ P @ A, B.T @ P @ B]]
        )
        H_expected = problem.noise.W + np.block(
            [[A @ S @ A.T, A @ S @ C.T], [C @ S @ A.T, C @ S @ C.T]]
        )
        assert np.allclose(G, G_expected, atol=1e-13)
        assert np.allclose(H, H_expected, atol=1e-13)
        q = q_operators(X, problem)
        assert np.allclose(q.Gux, G_expected[n:, :n], atol=1e-13)
        assert np.allclose(q.Guu, G_expected[n:, n:], atol=1e-13)
        assert np.allclose(q.Hxy, H_expected[:n, n:], atol=1e-13)
        assert np.allclose(q.Hyy, H_expected[n:, n:], atol=1e-13)

    def test_scalar_state_noise_couples_value_blocks(self, scalar_mult_problem):
        # sigma_A = 0.3 with P = Phat = 1 adds 0.09 twice to G_xx.
        X = tuple_from_scalars(1.0, 1.0, 0.0, 0.0)
        G, _ = q_matrices(X, scalar_mult_problem, [[0.0]], [[0.0]])
        assert G[0, 0] == pytest.approx(1.0 + 0.25 + 0.09 + 0.09, rel=1e-14)

    @pytest.mark.parametrize("kind, seed", ORACLE_CASES)
    def test_blocks_and_residual_match_full_matrix_oracle(self, kind, seed):
        problem = oracle_problem(kind, seed)
        n = problem.n
        rng = np.random.default_rng(seed)
        X = ValueCovarianceTuple(*(random_spd(rng, n) for _ in range(4)))
        q = q_operators(X, problem)
        G, H = q_matrices(X, problem, *gain_operators(X, problem))
        assert rel_err(q.Gux, G[n:, :n]) <= 1e-13
        assert rel_err(q.Guu, G[n:, n:]) <= 1e-13
        assert rel_err(q.Hxy, H[:n, n:]) <= 1e-13
        assert rel_err(q.Hyy, H[n:, n:]) <= 1e-13
        R = riccati_residual(X, problem)
        for block, expected in zip(R.blocks(), riccati_residual_full(X, problem)):
            assert rel_err(block, expected) <= 1e-13


    @pytest.mark.parametrize("kind, seed", ORACLE_CASES)
    def test_bitwise_equal_to_the_reference_residual(self, kind, seed):
        """The per-solve step, with its shared products and ``.dot`` calls,
        changes no bit of the ``@``-form gain blocks, gains and residual."""
        problem = oracle_problem(kind, seed)
        rng = np.random.default_rng(seed)
        X = ValueCovarianceTuple(*(random_spd(rng, problem.n) for _ in range(4)))
        q = q_operators(X, problem)
        blocks = reference_gain_blocks(X, problem)[:4]
        for got, want in zip((q.Gux, q.Guu, q.Hxy, q.Hyy), blocks):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(gain_operators(X, problem), reference_gains(X, problem)):
            assert got.tobytes() == want.tobytes()
        R = riccati_residual(X, problem)
        for got, want in zip(R.blocks(), reference_residual(X, problem)):
            assert got.tobytes() == want.tobytes()


class TestRiccatiResidual:
    def test_at_zero(self):
        problem = ProblemInstance(
            SystemModel(A=[[0.5]], B=[[1.0]], C=[[1.0]]),
            CostModel(np.eye(2)),
            NoiseModel(W=0.01 * np.eye(2), X0=np.zeros((1, 1))),
        )
        R = riccati_residual(zero_tuple(1), problem)
        assert np.allclose(R.P, [[1.0]], atol=1e-15)
        assert np.allclose(R.Phat, [[0.0]], atol=1e-15)
        assert np.allclose(R.S, [[0.01]], atol=1e-15)
        assert np.allclose(R.Shat, [[0.0]], atol=1e-15)

    def test_vanishes_at_converged_solution(self, scalar_problem):
        report = value_iteration_solve(scalar_problem)
        R = riccati_residual(report.solution, scalar_problem)
        assert R.max_norm() <= 1e-9

    def test_vanishes_at_scalar_closed_form(self, scalar_problem):
        # Phat*, Shat* follow from the closed-loop equations at (P*, S*).
        a, b, c = 0.5, 1.0, 1.0
        zg = (a * P_STAR * b) ** 2 / (1.0 + b * P_STAR * b)
        phat = zg / (1.0 - (a - L_STAR * c) ** 2)
        zh = (a * S_STAR * c) ** 2 / (0.01 + c * S_STAR * c)
        shat = zh / (1.0 - (a + b * K_STAR) ** 2)
        X = tuple_from_scalars(P_STAR, phat, S_STAR, shat)
        R = riccati_residual(X, scalar_problem)
        assert R.max_norm() <= 1e-9


class TestValueIteration:
    def test_first_step_from_zero(self):
        problem = ProblemInstance(
            SystemModel(A=[[0.5]], B=[[1.0]], C=[[1.0]]),
            CostModel(np.eye(2)),
            NoiseModel(W=0.01 * np.eye(2), X0=np.zeros((1, 1))),
        )
        X1 = value_iteration_step(zero_tuple(1), problem)
        assert np.allclose(X1.P, [[1.0]], atol=1e-15)
        assert np.allclose(X1.S, [[0.01]], atol=1e-15)
        assert np.allclose(X1.Phat, [[0.0]], atol=1e-15)
        assert np.allclose(X1.Shat, [[0.0]], atol=1e-15)

    def test_fixed_point_is_stationary(self, scalar_problem):
        report = value_iteration_solve(scalar_problem)
        X_next = value_iteration_step(report.solution, scalar_problem)
        assert X_next.distance(report.solution) <= 1e-9

    def test_scalar_solution(self, scalar_problem):
        report = value_iteration_solve(scalar_problem)
        assert report.converged
        assert report.method == "value_iteration"
        assert report.solution.P[0, 0] == pytest.approx(P_STAR, rel=1e-10)
        assert report.solution.S[0, 0] == pytest.approx(S_STAR, rel=1e-10)
        assert report.controller.K[0, 0] == pytest.approx(K_STAR, rel=1e-8)
        assert report.controller.L[0, 0] == pytest.approx(L_STAR, rel=1e-8)

    def test_divergence_detected(self):
        problem = ProblemInstance(
            SystemModel(
                A=[[2.0]], B=[[1.0]], C=[[1.0]],
                noise_a=(NoiseTerm(10.0, [[1.0]]),),
            ),
            CostModel(np.eye(2)),
            NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
        )
        with pytest.raises(Diverged):
            value_iteration_solve(problem)

    def test_history_shapes(self, scalar_problem):
        report = value_iteration_solve(scalar_problem)
        assert len(report.history) == report.iterations + 1
        assert len(report.solution_history) == report.iterations + 1
        assert report.history[0].delta is None
        assert report.history[-1].delta <= 1e-12
        seconds = [entry.seconds for entry in report.history]
        assert seconds == sorted(seconds)


VI_REFERENCE_CASES = [("random", seed) for seed in range(7000, 7020)] + [
    ("pendulum", 0.0),
    ("pendulum", 0.05),
    ("scalar", None),
    ("three-state", 3),
    ("four-state", 4),
]


def vi_reference_problem(kind, arg):
    if kind == "pendulum":
        return pendulum_problem(arg)
    return make_scalar_problem() if kind == "scalar" else oracle_problem(kind, arg)


class TestValueIterationMatchesReference:
    """The solver's iterates and step sizes equal the plain loop's bitwise:
    the unsymmetrized step X + R(X) and the norm helper change no bit."""

    @pytest.mark.parametrize("kind, arg", VI_REFERENCE_CASES)
    def test_bitwise_iterates_and_steps(self, kind, arg):
        problem = vi_reference_problem(kind, arg)
        report = value_iteration_solve(problem)
        iterates, steps = value_iteration_reference(problem)
        assert report.iterations == len(steps)
        assert [entry.delta for entry in report.history[1:]] == steps
        assert len(report.solution_history) == len(iterates)
        for X, X_ref in zip(report.solution_history, iterates):
            for block, ref in zip(X.blocks(), X_ref.blocks()):
                assert block.tobytes() == ref.tobytes()
                assert not block.flags.writeable
        R = riccati_residual(report.solution, problem)
        assert report.residual_norm == max(float(la.norm(b)) for b in R.blocks())


class TestPolicyIteration:
    def test_scalar_from_open_loop(self, scalar_problem):
        report = policy_iteration_solve(
            scalar_problem, open_loop_controller(scalar_problem)
        )
        assert report.converged
        assert report.method == "policy_iteration"
        assert report.controller.K[0, 0] == pytest.approx(K_STAR, rel=1e-8)
        assert report.controller.L[0, 0] == pytest.approx(L_STAR, rel=1e-8)

    def test_agrees_with_value_iteration(self, scalar_problem):
        vi = value_iteration_solve(scalar_problem)
        pi = policy_iteration_solve(
            scalar_problem, open_loop_controller(scalar_problem)
        )
        scale = 1.0 + max(vi.solution.max_norm(), pi.solution.max_norm())
        assert vi.solution.distance(pi.solution) <= 1e-8 * scale

    def test_quiet_pendulum_agreement(self, pendulum_quiet):
        vi = value_iteration_solve(pendulum_quiet)
        pi = policy_iteration_solve(
            pendulum_quiet, stabilizing_initial_controller(pendulum_quiet)
        )
        scale = 1.0 + max(vi.solution.max_norm(), pi.solution.max_norm())
        assert vi.solution.distance(pi.solution) <= 1e-8 * scale
        assert pi.iterations < vi.iterations

    def test_unstable_initial_rejected(self):
        problem = pendulum_problem(1.0)
        bad = Controller(F=2.0 * np.eye(2), K=np.zeros((1, 2)), L=np.zeros((2, 1)))
        with pytest.raises(InitialPolicyNotStabilizing) as excinfo:
            policy_iteration_solve(problem, bad)
        assert excinfo.value.radius >= 4.0

    def test_pendulum_open_loop_is_not_stabilizing(self):
        # rho(A) ~ 1.2922 for this family, so the open loop can never be
        # used to start policy iteration, at any noise level.
        problem = pendulum_problem(0.0)
        with pytest.raises(InitialPolicyNotStabilizing):
            policy_iteration_solve(problem, open_loop_controller(problem))

    def test_gain_consistency(self, scalar_problem):
        report = policy_iteration_solve(
            scalar_problem, open_loop_controller(scalar_problem)
        )
        K, L = gain_operators(report.solution, scalar_problem)
        assert np.array_equal(K, report.controller.K)
        assert np.array_equal(L, report.controller.L)

    def test_residual_certificate(self, scalar_problem, pendulum_quiet):
        report = policy_iteration_solve(
            scalar_problem, open_loop_controller(scalar_problem), tol=1e-12
        )
        assert report.residual_norm <= 10 * 1e-12
        report = policy_iteration_solve(
            pendulum_quiet, stabilizing_initial_controller(pendulum_quiet), tol=1e-12
        )
        assert report.residual_norm <= 10 * 1e-12


# Policy-iteration iteration counts and costs from the stabilizing initial
# policy, recorded with the LU-solve policy evaluation that the single
# inverse of I - Psi_s replaced.  At eta = 0 the noise-free initial policy
# is already optimal, and one improvement confirms it.
PINNED_PI_RESULTS = [
    ("random-7000", 6, 0.028647522949597944),
    ("random-7001", 4, 0.07650347655275255),
    ("random-7002", 5, 0.7351117562875352),
    ("random-7003", 13, 0.06075760438574922),
    ("random-7004", 7, 0.02741191340273505),
    ("random-7005", 18, 0.2299109333358928),
    ("random-7006", 4, 0.022935207217584526),
    ("random-7007", 10, 0.1949517027219169),
    ("random-7008", 14, 0.15999128741536822),
    ("random-7009", 5, 0.03360931545644876),
    ("pendulum-0.0", 1, 4.754353247465056),
    ("pendulum-0.05", 30, 12.909822794445718),
]


class TestPinnedPolicyIteration:
    """The refined policy evaluation keeps every iteration count and each
    cost within 4 ulps."""

    @pytest.mark.parametrize("name, iterations, cost", PINNED_PI_RESULTS)
    def test_iterations_and_cost(self, name, iterations, cost):
        kind, arg = name.rsplit("-", 1)
        problem = random_problem(int(arg))[0] if kind == "random" else pendulum_problem(float(arg))
        report = policy_iteration_solve(problem, stabilizing_initial_controller(problem))
        assert report.iterations == iterations
        assert abs(report.cost - cost) <= 4 * np.spacing(cost)


class TestStabilityDecision:
    """Each policy evaluation builds the operator and decides stability once."""

    def test_one_operator_and_radius_per_evaluation(self, monkeypatch):
        problem, _ = random_problem(7000)
        initial = stabilizing_initial_controller(problem)
        calls = {"build": 0, "radius": 0}
        build, radius = moments.build_second_moment_matrix, moments.spectral_radius

        def counted_build(aug, side):
            calls["build"] += 1
            return build(aug, side)

        def counted_radius(matrix):
            calls["radius"] += 1
            return radius(matrix)

        monkeypatch.setattr(moments, "build_second_moment_matrix", counted_build)
        monkeypatch.setattr(moments, "spectral_radius", counted_radius)
        report = policy_iteration_solve(problem, initial)
        # iterations + 1 evaluations in the loop, one more for the report's cost
        assert calls["build"] == report.iterations + 2
        assert calls["radius"] <= report.iterations + 2

    def test_destabilizing_improvement_is_reported(self, scalar_problem, monkeypatch):
        # K = 2 puts an eigenvalue 0.5 + 2 = 2.5 into the compensator F = A + B K
        monkeypatch.setattr(
            riccati, "gain_operators", lambda X, problem: (np.array([[2.0]]), np.zeros((1, 1)))
        )
        with pytest.raises(IterateNotStabilizing) as excinfo:
            policy_iteration_solve(scalar_problem, open_loop_controller(scalar_problem))
        assert excinfo.value.iteration == 1
        assert excinfo.value.radius >= 1.0


class TestEigvalsOffThePolicyPath:
    """The positive-operator test decides stability without eigenvalues."""

    @pytest.mark.parametrize(
        "make_problem",
        [lambda: random_problem(7000)[0], lambda: pendulum_problem(0.05)],
        ids=["random-7000", "pendulum-0.05"],
    )
    def test_no_spectral_radius_calls(self, make_problem, monkeypatch):
        problem = make_problem()
        calls = []
        radius = moments.spectral_radius

        def counted_radius(matrix):
            calls.append(matrix)
            return radius(matrix)

        monkeypatch.setattr(moments, "spectral_radius", counted_radius)
        report = policy_iteration_solve(problem, stabilizing_initial_controller(problem))
        assert report.converged
        assert calls == []

    def test_destabilizing_improvement_keeps_exact_radius(self):
        problem, _ = random_problem(315)
        with pytest.raises(IterateNotStabilizing) as excinfo:
            policy_iteration_solve(problem, stabilizing_initial_controller(problem))
        assert excinfo.value.iteration == 1
        assert excinfo.value.radius == pytest.approx(1.0233645609376563, rel=1e-9)
        assert "spectral radius 1.02336)" in str(excinfo.value)


class TestStoppingRule:
    # Iterates with norms in the thousands cannot resolve an absolute step
    # of 1e-12 in float64; the default tolerance alone cannot be relied on here.
    @pytest.mark.parametrize(
        "make_problem",
        [lambda: pendulum_problem(0.03), lambda: random_problem(477)[0]],
        ids=["pendulum-0.03", "random-477"],
    )
    def test_large_norm_instances_converge_at_default_tol(self, make_problem):
        problem = make_problem()
        vi = value_iteration_solve(problem)
        pi = policy_iteration_solve(problem, stabilizing_initial_controller(problem))
        assert pi.solution.max_norm() > 1e3
        scale = 1.0 + max(vi.solution.max_norm(), pi.solution.max_norm())
        assert vi.solution.distance(pi.solution) <= 1e-8 * scale
        assert vi.residual_norm <= 1e-9
        assert pi.residual_norm <= 1e-9


class TestNoiseFreeReduction:
    @pytest.mark.parametrize("method", ["vi", "pi"])
    def test_quiet_pendulum_matches_decoupled_designs(self, method, pendulum_quiet):
        problem = pendulum_quiet
        Qxx, Qxu, _, Quu = problem.q_blocks()
        Wxx, Wxy, _, Wyy = problem.w_blocks()
        P_ref, K_ref = dare_control_fixed_point(
            problem.system.A, problem.system.B, Qxx, Qxu, Quu
        )
        S_ref, L_ref = dare_filter_fixed_point(
            problem.system.A, problem.system.C, Wxx, Wxy, Wyy
        )
        if method == "vi":
            report = value_iteration_solve(problem)
        else:
            report = policy_iteration_solve(
                problem, stabilizing_initial_controller(problem)
            )
        assert la.norm(report.solution.P - P_ref) <= 1e-8 * (1 + la.norm(P_ref))
        assert la.norm(report.solution.S - S_ref) <= 1e-8 * (1 + la.norm(S_ref))
        assert la.norm(report.controller.K - K_ref) <= 1e-8 * (1 + la.norm(K_ref))
        assert la.norm(report.controller.L - L_ref) <= 1e-8 * (1 + la.norm(L_ref))


class TestOptimalCost:
    def test_scalar_forms_agree_with_lyapunov_cost(self, scalar_problem):
        report = value_iteration_solve(scalar_problem)
        J = optimal_cost(
            report.solution, report.controller.K, report.controller.L, scalar_problem
        )
        assert J == pytest.approx(report.cost, rel=1e-9)

    def test_zero_control_gain_collapses_to_trace_sum(self):
        problem = ProblemInstance(
            SystemModel(A=[[0.0]], B=[[1.0]], C=[[1.0]]),
            CostModel(np.eye(2)),
            NoiseModel(W=np.diag([0.3, 0.7]), X0=np.zeros((1, 1))),
        )
        s, shat = 0.3, 0.0
        # with A = 0: P = Q_xx = 1, Phat = 0, S = W_xx, Shat = 0
        X = tuple_from_scalars(1.0, 0.0, s, shat)
        J = optimal_cost(X, np.zeros((1, 1)), np.zeros((1, 1)), problem)
        assert J == pytest.approx(s + shat, rel=1e-12)

    def test_zero_noise_gives_zero_cost(self):
        problem = ProblemInstance(
            SystemModel(A=[[0.5]], B=[[1.0]], C=[[1.0]]),
            CostModel(np.eye(2)),
            NoiseModel(W=np.zeros((2, 2)), X0=np.zeros((1, 1))),
        )
        X = tuple_from_scalars(P_STAR, 0.2, 0.0, 0.0)
        J = optimal_cost(X, [[K_STAR]], [[0.0]], problem)
        assert J == 0.0

    def test_disagreement_raises(self, scalar_problem):
        X = tuple_from_scalars(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DualityViolation):
            optimal_cost(X, [[0.0]], [[0.0]], scalar_problem)

    def test_multiplicative_noise_fixed_point(self):
        from mnlqg import random_problem

        problem, _ = random_problem(11)
        report = value_iteration_solve(problem)
        J = optimal_cost(
            report.solution, report.controller.K, report.controller.L, problem
        )
        assert J == pytest.approx(report.cost, rel=1e-9)


class TestInitialPolicies:
    def test_noise_free_gains_match_oracle(self, pendulum_quiet):
        problem = pendulum_quiet
        ctrl = noise_free_controller(problem)
        K, L = ctrl.K, ctrl.L
        Qxx, Qxu, _, Quu = problem.q_blocks()
        Wxx, Wxy, _, Wyy = problem.w_blocks()
        _, K_ref = dare_control_fixed_point(problem.system.A, problem.system.B, Qxx, Qxu, Quu)
        _, L_ref = dare_filter_fixed_point(problem.system.A, problem.system.C, Wxx, Wxy, Wyy)
        assert np.allclose(K, K_ref, atol=1e-9)
        assert np.allclose(L, L_ref, atol=1e-9)

    def test_auto_prefers_open_loop_when_stable(self, scalar_problem):
        ctrl = stabilizing_initial_controller(scalar_problem)
        assert np.array_equal(ctrl.K, np.zeros((1, 1)))
        assert np.array_equal(ctrl.F, scalar_problem.system.A)

    def test_auto_falls_back_for_unstable_open_loop(self, pendulum_quiet):
        ctrl = stabilizing_initial_controller(pendulum_quiet)
        expected = noise_free_controller(pendulum_quiet)
        assert np.array_equal(ctrl.K, expected.K)
        assert np.array_equal(ctrl.L, expected.L)

    def test_auto_raises_when_nothing_stabilizes(self):
        problem = pendulum_problem(1.0)  # not ms-compensatable at this level
        with pytest.raises(InitialPolicyNotStabilizing):
            stabilizing_initial_controller(problem)

    def test_noise_free_gains_singular_block(self):
        with pytest.raises(SingularBlock, match="H_yy"):
            noise_free_controller(make_singular_filter_problem())

    def test_auto_reports_failed_noise_free_fallback(self):
        with pytest.raises(InitialPolicyNotStabilizing) as excinfo:
            stabilizing_initial_controller(make_singular_filter_problem())
        assert "noise-free fallback failed: H_yy block is numerically singular" in str(
            excinfo.value
        )
        assert excinfo.value.radius == pytest.approx(1.44, rel=1e-12)
        assert isinstance(excinfo.value.__cause__, SingularBlock)

    def test_auto_reports_diverged_noise_free_fallback(self):
        with pytest.raises(InitialPolicyNotStabilizing) as excinfo:
            stabilizing_initial_controller(make_unstabilizable_problem())
        assert str(excinfo.value).endswith(
            "noise-free fallback failed: value iteration diverged after 630 iterations"
        )
        assert excinfo.value.radius == pytest.approx(1.44, rel=1e-12)
        assert isinstance(excinfo.value.__cause__, Diverged)


class TestDefaultStart:
    """``policy_iteration_solve(problem)`` starts from the ``auto`` policy
    and the evaluation that chose it: the report and the errors of the
    route through ``stabilizing_initial_controller``, bit for bit."""

    @pytest.mark.parametrize("seed", range(7000, 7010))
    def test_open_loop_branch(self, seed):
        problem, _ = random_problem(seed)
        initial = stabilizing_initial_controller(problem)
        assert np.array_equal(initial.F, problem.system.A) and not initial.K.any()
        assert_same_report(policy_iteration_solve(problem), policy_iteration_solve(problem, initial))

    def test_noise_free_branch(self):
        problem = pendulum_problem(0.05)
        initial = stabilizing_initial_controller(problem)
        assert np.array_equal(initial.K, noise_free_controller(problem).K)
        assert_same_report(policy_iteration_solve(problem), policy_iteration_solve(problem, initial))

    @pytest.mark.parametrize(
        "make_problem",
        [make_unstabilizable_problem, make_singular_filter_problem, lambda: pendulum_problem(0.1)],
    )
    def test_same_error_when_nothing_stabilizes(self, make_problem):
        problem = make_problem()
        with pytest.raises(InitialPolicyNotStabilizing) as chosen:
            stabilizing_initial_controller(problem)
        with pytest.raises(InitialPolicyNotStabilizing) as solved:
            policy_iteration_solve(problem)
        assert str(solved.value) == str(chosen.value)
        assert solved.value.radius == chosen.value.radius
        assert type(solved.value.__cause__) is type(chosen.value.__cause__)


class TestSymmetryInvariant:
    def test_iterates_stay_symmetric(self, scalar_mult_problem):
        rng = np.random.default_rng(3)
        n = 2
        A = rng.standard_normal((n, n))
        A *= 0.6 / max(abs(la.eigvals(A)))
        problem = ProblemInstance(
            SystemModel(
                A=A, B=rng.standard_normal((n, 1)), C=rng.standard_normal((1, n)),
                noise_a=(NoiseTerm(0.2, rng.standard_normal((n, n))),),
            ),
            CostModel(np.eye(n + 1)),
            NoiseModel(W=0.01 * np.eye(n + 1), X0=np.zeros((n, n))),
        )
        report = value_iteration_solve(problem, tol=1e-10)
        for X in report.solution_history[:: max(1, report.iterations // 10)]:
            for block in X.blocks():
                assert np.array_equal(block, block.T)
