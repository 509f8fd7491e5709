import math
import re

import numpy as np
import numpy.linalg as la
import pytest

import mnlqg
from mnlqg import (
    Controller,
    build_augmented,
    build_second_moment_matrix,
    noise_free_controller,
    open_loop_controller,
    pendulum_problem,
    policy_iteration_solve,
    random_problem,
    spectral_radius,
    stabilizing_initial_controller,
)
from mnlqg import moments
from mnlqg.exceptions import DualityViolation, EigenvalueFailure, LyapunovSolveFailure, NotMsStable
from mnlqg.moments import (
    STABILITY_MARGIN,
    AugmentedSolution,
    Evaluation,
    ValueCovarianceTuple,
    evaluate,
    extract_tuple,
    solve_lyapunov,
)
from mnlqg.riccati import gain_operators

from conftest import make_random_controller, make_scalar_problem, synthetic_problem
from oracles import (
    apply_covariance_operator,
    apply_value_operator,
    certificate_residual_full_terms,
    full_spectral_radius,
    full_value_operator,
    hvec,
    is_ms_stable,
    lyapunov_by_recursion,
    lyapunov_extended,
    lyapunov_residual_full_terms,
    restrict_to_symmetric,
    second_moment_matrix_full_terms,
    specrad,
    unhvec,
)


def scalar_open_loop_aug(sigma_a=0.3, w_diag=(0.01, 0.01)):
    problem = make_scalar_problem(sigma_a=sigma_a, w_diag=w_diag)
    return build_augmented(problem, open_loop_controller(problem))


def random_problem_any(rng, n=2, m=1, p=1, noise_scale=0.4):
    """Unstructured random instance for operator-level property checks."""
    from mnlqg import CostModel, NoiseModel, NoiseTerm, ProblemInstance, SystemModel

    system = SystemModel(
        A=rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((p, n)),
        noise_a=(NoiseTerm(noise_scale * rng.random(), rng.standard_normal((n, n))),),
        noise_b=(NoiseTerm(noise_scale * rng.random(), rng.standard_normal((n, m))),),
        noise_c=(NoiseTerm(noise_scale * rng.random(), rng.standard_normal((p, n))),),
    )
    Q = rng.standard_normal((n + m, n + m))
    W = rng.standard_normal((n + p, n + p))
    return ProblemInstance(
        system,
        CostModel(Q @ Q.T + np.eye(n + m)),
        NoiseModel(W=W @ W.T + np.eye(n + p), X0=np.zeros((n, n))),
    )


class TestBuildAugmented:
    def test_pendulum_open_loop_blocks(self):
        problem = pendulum_problem(1.0)
        aug = build_augmented(problem, open_loop_controller(problem))
        A = problem.system.A
        Z = np.zeros((2, 2))
        assert np.array_equal(aug.Phi, np.block([[A, Z], [Z, A]]))
        # zero control gain annihilates the input-noise lift, stored as its
        # n x n block; lifts() still gives it full-size, bitwise
        (s2, block) = aug.lifts_b[0]
        assert s2 == 1.0
        assert block.shape == (2, 2) and np.array_equal(block, np.zeros((2, 2)))
        ((s2, lift),) = aug.lifts()
        assert s2 == 1.0
        assert lift.tobytes() == np.zeros((4, 4)).tobytes()

    def test_scalar_qprime(self, scalar_problem):
        ctrl = Controller(F=[[0.5]], K=[[0.0]], L=[[0.0]])
        aug = build_augmented(scalar_problem, ctrl)
        assert np.array_equal(aug.Qprime, np.diag([1.0, 0.0]))

    def test_scalar_wprime_with_gain(self, scalar_problem):
        ctrl = Controller(F=[[0.5]], K=[[0.0]], L=[[0.3]])
        aug = build_augmented(scalar_problem, ctrl)
        assert np.allclose(aug.Wprime, np.diag([0.01, 0.0009]), atol=1e-15)

    def test_phi_block_structure(self):
        rng = np.random.default_rng(5)
        problem = random_problem_any(rng)
        ctrl = make_random_controller(problem, rng)
        aug = build_augmented(problem, ctrl)
        sys = problem.system
        expected = np.block(
            [[sys.A, sys.B @ ctrl.K], [ctrl.L @ sys.C, ctrl.F]]
        )
        assert np.array_equal(aug.Phi, expected)
        # weights and lifts: bitwise the np.block assembly, on nonzero gains
        # and noise on A, B and C
        K, L = ctrl.K, ctrl.L
        assert np.all(K != 0.0) and np.all(L != 0.0)
        Qxx, Qxu, Qux, Quu = problem.q_blocks()
        Qprime = np.block([[Qxx, Qxu @ K], [K.T @ Qux, K.T @ Quu @ K]])
        assert np.array_equal(aug.Qprime, 0.5 * (Qprime + Qprime.T))
        Wxx, Wxy, Wyx, Wyy = problem.w_blocks()
        Wprime = np.block([[Wxx, Wxy @ L.T], [L @ Wyx, L @ Wyy @ L.T]])
        assert np.array_equal(aug.Wprime, 0.5 * (Wprime + Wprime.T))
        Z = np.zeros((problem.n, problem.n))
        (ta,), (tb,), (tc,) = sys.noise_a, sys.noise_b, sys.noise_c
        expected_lifts = (
            (ta.sigma**2, np.block([[ta.pattern, Z], [Z, Z]])),
            (tb.sigma**2, np.block([[Z, tb.pattern @ K], [Z, Z]])),
            (tc.sigma**2, np.block([[Z, Z], [L @ tc.pattern, Z]])),
        )
        assert all(s2 != 0.0 for s2, _ in expected_lifts)
        assert (len(aug.lifts_a), len(aug.lifts_b), len(aug.lifts_c)) == (1, 1, 1)
        for (s2, lift), (s2_expected, block) in zip(aug.lifts(), expected_lifts):
            assert s2 == s2_expected
            assert np.array_equal(lift, block)

    def test_dimension_mismatch_rejected(self, scalar_problem):
        bad = Controller(F=np.eye(2), K=[[0.0, 0.0]], L=[[0.0], [0.0]])
        with pytest.raises(ValueError, match="dimensions"):
            build_augmented(scalar_problem, bad)

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("F", dict(F=np.eye(2), K=[[0.0, 0.0]], L=[[0.0], [0.0]])),
            ("K", dict(F=[[0.5]], K=[[0.0], [0.0]], L=[[0.0]])),
            ("L", dict(F=[[0.5]], K=[[0.0]], L=[[0.0, 0.0]])),
        ],
    )
    def test_misfit_names_the_matrix(self, scalar_problem, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must have shape 1x1 for problem dimensions"):
            build_augmented(scalar_problem, Controller(**bad))


class TestSecondMomentMatrix:
    def test_scalar_with_state_noise(self):
        aug = scalar_open_loop_aug(sigma_a=0.3)
        psi = build_second_moment_matrix(aug, "value")
        assert np.allclose(psi, np.diag([0.34, 0.25, 0.25]), atol=1e-15)

    def test_zero_dynamics(self, scalar_problem):
        ctrl = Controller(F=[[0.0]], K=[[0.0]], L=[[0.0]])
        aug = build_augmented(scalar_problem, ctrl)
        aug = type(aug)(
            Phi=np.zeros((2, 2)),
            Qprime=aug.Qprime,
            Wprime=aug.Wprime,
            lifts_a=(),
            lifts_b=(),
            lifts_c=(),
        )
        psi = build_second_moment_matrix(aug, "value")
        assert np.array_equal(psi, np.zeros((3, 3)))

    @pytest.mark.parametrize("seed", range(8))
    def test_operator_application_identity(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem_any(rng)
        ctrl = make_random_controller(problem, rng)
        aug = build_augmented(problem, ctrl)
        M = rng.standard_normal((4, 4))
        M = M + M.T
        psi = build_second_moment_matrix(aug, "value")
        gamma = build_second_moment_matrix(aug, "covariance")
        direct_v = apply_value_operator(aug, M)
        direct_c = apply_covariance_operator(aug, M)
        assert np.allclose(unhvec(psi @ hvec(M)), direct_v, rtol=1e-12, atol=1e-13)
        assert np.allclose(unhvec(gamma @ hvec(M)), direct_c, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_shared_spectrum(self, seed):
        rng = np.random.default_rng(100 + seed)
        problem = random_problem_any(rng)
        ctrl = make_random_controller(problem, rng)
        aug = build_augmented(problem, ctrl)
        r_value = spectral_radius(build_second_moment_matrix(aug, "value"))
        r_cov = spectral_radius(build_second_moment_matrix(aug, "covariance"))
        assert abs(r_value - r_cov) <= 1e-10

    def test_side_validated(self):
        aug = scalar_open_loop_aug()
        with pytest.raises(ValueError, match="side"):
            build_second_moment_matrix(aug, "primal")


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == 1.0

    def test_zero(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_scalar_open_loop_value(self):
        aug = scalar_open_loop_aug(sigma_a=0.3)
        psi = build_second_moment_matrix(aug, "value")
        assert spectral_radius(psi) == pytest.approx(0.34, rel=1e-10)

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,), (2, 2, 2)])
    def test_not_a_square_matrix_is_a_value_error(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            spectral_radius(np.ones(shape))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, entry):
        for size in (3, 4, 10):  # with and without the hvec blocks
            M = np.eye(size)
            M[0, 0] = entry
            with pytest.raises(EigenvalueFailure, match="^eigenvalue computation failed: Array must not contain infs or NaNs$"):
                spectral_radius(M)

    def test_non_finite_eigenvalue(self):
        with pytest.raises(EigenvalueFailure, match="^eigenvalue computation produced non-finite values$"):
            spectral_radius(np.full((3, 3), 1e308))

    def test_non_convergence(self, monkeypatch):
        def failing(a):
            np.sqrt(np.float64(-1.0))  # sets the invalid flag, as a LAPACK failure does
            return np.full(a.shape[0], np.nan, dtype=complex)

        monkeypatch.setattr(moments, "_eigvals", failing)
        for matrix in (np.eye(4), np.eye(10), 2.0 * np.ones((10, 10))):
            with pytest.raises(EigenvalueFailure, match="^eigenvalue computation failed: Eigenvalues did not converge$"):
                spectral_radius(matrix)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decoupled_blocks(self, n):
        """An n(2n+1)-square matrix with no entry between its hvec blocks
        has the largest radius of its three diagonal blocks, from a matrix
        with any other non-zero entry one eigvals call on the whole."""
        rng = np.random.default_rng(n)
        i, j = np.tril_indices(2 * n)
        i, j = i[np.argsort(j, kind="stable")], np.sort(j)  # _hvec order
        block = (i >= n).astype(int) + (j >= n)
        M = rng.standard_normal((len(i), len(i))) * (block[:, None] == block)
        radii = [specrad(M[np.ix_(block == b, block == b)]) for b in range(3)]
        assert spectral_radius(M) == max(radii)
        assert spectral_radius(M) == pytest.approx(specrad(M), rel=1e-13)
        M[np.argmax(block == 0), np.argmax(block == 2)] = 1e-300
        assert spectral_radius(M) == specrad(M)
        assert spectral_radius(M.astype(complex)) == specrad(M.astype(complex))


@pytest.fixture
def eigvals_shapes(monkeypatch):
    """The shapes of the matrices passed to the LAPACK eigenvalue seam."""
    shapes, seam = [], moments._eigvals

    def recording(a):
        shapes.append(a.shape)
        return seam(a)

    monkeypatch.setattr(moments, "_eigvals", recording)
    return shapes


class TestEigenvalueWork:
    """The open loop decouples into three hvec blocks (K = 0, L = 0, any
    F), whose radii stand in for the full matrix's; any other loop takes
    one call on the whole."""

    @pytest.mark.parametrize("side", ["value", "covariance"])
    def test_random_open_loop(self, side, eigvals_shapes):
        problem, _ = random_problem(7000)
        aug = build_augmented(problem, open_loop_controller(problem))
        eigvals_shapes.clear()
        spectral_radius(build_second_moment_matrix(aug, side))
        assert eigvals_shapes == [(3, 3), (4, 4), (3, 3)]

    def test_benchmark_instance_open_loops(self, eigvals_shapes, monkeypatch):
        """At F = A the (xhat, x) and (xhat, xhat) blocks have radius
        rho(A)^2, below the (x, x) block's: each radius of the bisection
        takes the eigenvalues of one 55 x 55 block, and those of the
        100 x 100 block never."""
        radii = []

        def counting(matrix):
            radii.append(matrix.shape)
            return spectral_radius(matrix)

        monkeypatch.setattr(mnlqg, "spectral_radius", counting)  # the generator's name
        problem = synthetic_problem(11, 10)
        assert len(radii) > 3 and set(radii) == {(210, 210)}
        assert eigvals_shapes == [(55, 55)] * len(radii)
        eigvals_shapes.clear()
        aug = build_augmented(problem, open_loop_controller(problem))
        spectral_radius(build_second_moment_matrix(aug, "value"))
        assert eigvals_shapes == [(55, 55)]

    def test_benchmark_open_loop_bounds_no_xx_block(self, eigvals_shapes, monkeypatch):
        """The (x, x) block comes first and takes its eigenvalues at once:
        no bound is computed on it, only on the two noise-free blocks,
        which the bounds skip, at every radius of the generator's
        bisection and at the instance's open loop."""
        bounded, power_bounds = [], moments._power_bounds

        def recording(block):
            bounded.append(block.copy())
            return power_bounds(block)

        monkeypatch.setattr(moments, "_power_bounds", recording)
        problem = synthetic_problem(11, 10)
        radii = len(eigvals_shapes)
        assert radii > 3 and eigvals_shapes == [(55, 55)] * radii
        assert [block.shape for block in bounded] == [(100, 100), (55, 55)] * radii
        aug = build_augmented(problem, open_loop_controller(problem))
        psi = build_second_moment_matrix(aug, "value")
        label = hvec_block_labels(10)
        xx, xhat_x, xhat_xhat = (psi[np.ix_(label == b, label == b)] for b in range(3))
        bounded.clear()
        eigvals_shapes.clear()
        assert spectral_radius(psi) == specrad(xx)
        assert eigvals_shapes == [(55, 55)]
        assert [block.tobytes() for block in bounded] == [xhat_x.tobytes(), xhat_xhat.tobytes()]

    def test_converged_loop_is_one_call(self, eigvals_shapes):
        problem, _ = random_problem(7000)
        report = policy_iteration_solve(problem)
        aug = build_augmented(problem, report.controller)
        eigvals_shapes.clear()
        radius = evaluate(aug).radius()
        assert eigvals_shapes == [(10, 10)]
        psi = build_second_moment_matrix(aug, "value")
        assert radius == float(np.max(np.abs(la.eigvals(psi))))


def hvec_block_labels(n):
    """0, 1 or 2 for each ``_hvec`` entry (i, j) of the symmetric 2n x 2n
    matrices in the (x, x), (xhat, x) or (xhat, xhat) block."""
    i, j = np.tril_indices(2 * n)
    i, j = i[np.argsort(j, kind="stable")], np.sort(j)  # _hvec order
    return (i >= n).astype(int) + (j >= n)


def decoupled(blocks):
    """The n(2n+1)-square matrix with ``blocks`` (n(n+1)/2, n^2 and
    n(n+1)/2 square) as its (x, x), (xhat, x) and (xhat, xhat) hvec blocks
    and zeros elsewhere."""
    label = hvec_block_labels(math.isqrt(len(blocks[1])))
    M = np.zeros((len(label),) * 2, dtype=np.result_type(*blocks))
    for b, block in enumerate(blocks):
        M[np.ix_(label == b, label == b)] = block
    return M


def scaled_to_radius(rng, k, radius):
    block = rng.standard_normal((k, k))
    return block * (radius / specrad(block))


class TestPowerBounds:
    """The certified bounds by repeated squaring (``_power_bounds``) that
    let ``spectral_radius`` skip a decoupled block's eigenvalues."""

    @staticmethod
    def blocks(rng, k):
        Q, _ = la.qr(rng.standard_normal((k, k)))
        shift = np.eye(k, k=1)
        return {
            "random": rng.standard_normal((k, k)) / math.sqrt(k),
            "scaled Jordan": 0.9 * np.eye(k) + 1e3 * shift,
            # eigvals scatters the eigenvalues of a rotated Jordan block by
            # about u^(1/k); the bounds hold for what it computes
            "rotated Jordan": Q @ (0.5 * np.eye(k) + shift) @ Q.T,
            "triangular": 10.0 * np.triu(rng.standard_normal((k, k)), 1) + np.diag(rng.uniform(-0.5, 0.5, k)),
            # the squared norm of B^16, near 1e-384, underflows
            "tiny nilpotent": Q @ (1e-12 * shift) @ Q.T,
            "complex": (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / math.sqrt(2 * k),
            "complex triangular": np.triu(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))),
        }

    @pytest.mark.parametrize("k", [moments.POWER_BOUND_MIN_SIZE, 36, 55])
    def test_every_bound_is_at_least_the_radius(self, k):
        for name, block in self.blocks(np.random.default_rng(k), k).items():
            bounds = list(moments._power_bounds(block))
            assert len(bounds) == moments.POWER_BOUND_SQUARINGS, name
            assert min(bounds) >= specrad(block), name

    @pytest.mark.parametrize(
        "radii, shapes",
        [
            ((1.0, 1.0, 1.0), [(21, 21), (36, 36), (21, 21)]),
            ((1.0, 1.0 - 1e-9, 1.0 - 1e-7), [(21, 21), (36, 36), (21, 21)]),
            ((1.0 - 1e-12, 1.0, 1.0 - 1e-6), [(21, 21), (36, 36), (21, 21)]),
            ((0.5, 1.0, 0.999999), [(21, 21), (36, 36), (21, 21)]),
            ((1.0, 0.5, 0.25), [(21, 21)]),
        ],
    )
    def test_radius_is_bitwise_the_largest_block_radius(self, radii, shapes, eigvals_shapes):
        """Tied and nearly tied blocks (n = 6: 21, 36 and 21 rows, all
        above the crossover) take their eigenvalues; only a block well
        below the largest radius found before it, in hvec order, is
        skipped: a block of radius 0.5 first is no bound on the others."""
        rng = np.random.default_rng(6)
        blocks = [scaled_to_radius(rng, k, r) for k, r in zip((21, 36, 21), radii)]
        M = decoupled(blocks)
        expected = max(specrad(block) for block in blocks)
        eigvals_shapes.clear()
        assert spectral_radius(M) == expected
        assert eigvals_shapes == shapes
        assert spectral_radius(M.T) == max(specrad(block.T) for block in blocks)

    def test_identical_blocks(self, eigvals_shapes):
        rng = np.random.default_rng(8)
        block = scaled_to_radius(rng, 21, 0.9)
        M = decoupled([block, scaled_to_radius(rng, 36, 0.3), block])
        assert spectral_radius(M) == specrad(block)
        assert eigvals_shapes == [(21, 21), (21, 21)]

    def test_complex_blocks(self):
        rng = np.random.default_rng(9)
        blocks = [scaled_to_radius(rng, k, r) * np.exp(1j * r) for k, r in zip((21, 36, 21), (0.7, 1.0, 1.0 - 1e-8))]
        assert spectral_radius(decoupled(blocks)) == max(specrad(block) for block in blocks)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_squares_are_not_skipped(self, sign, eigvals_shapes):
        """A nilpotent block with entries near 1e150: the norm of its
        square overflows, so the first bound is inf, and the next square,
        to inf (one sign) or to inf - inf = NaN (mixed signs), without a
        warning (the tests' filter makes one an error).  The block, of
        radius 0, is not skipped after the block of radius 0.5, and the
        identity after it is not either."""
        rng = np.random.default_rng(10)
        nilpotent = 1e150 * np.triu(rng.uniform(1.0, 2.0, (36, 36)), 1)
        nilpotent[::2] *= sign
        bounds = list(moments._power_bounds(nilpotent))
        assert not any(math.isfinite(b) for b in bounds)
        assert bounds[0] == math.inf
        assert math.isnan(bounds[1]) == (sign < 0)
        blocks = [0.5 * np.eye(21), nilpotent, np.eye(21)]
        eigvals_shapes.clear()
        assert spectral_radius(decoupled(blocks)) == 1.0
        assert eigvals_shapes == [(21, 21), (36, 36), (21, 21)]

    def test_block_the_first_square_decides_takes_one_squaring(self, eigvals_shapes, monkeypatch):
        """Each block whose first bound, after one squaring, lies below the
        largest radius is skipped after that one matrix product."""
        products = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products[-1] += 1
                return (np.asarray(self) @ np.asarray(other)).view(Counted)

        power_bounds = moments._power_bounds

        def counted(block):
            products.append(0)
            return power_bounds(block.view(Counted))

        monkeypatch.setattr(moments, "_power_bounds", counted)
        rng = np.random.default_rng(12)
        blocks = [scaled_to_radius(rng, k, r) for k, r in zip((21, 36, 21), (1.0, 0.1, 0.1))]
        assert next(power_bounds(blocks[1])) < 1.0 - moments.POWER_BOUND_MARGIN
        eigvals_shapes.clear()
        assert spectral_radius(decoupled(blocks)) == specrad(blocks[0])
        assert eigvals_shapes == [(21, 21)]
        assert products == [1, 1]

    def test_failures_keep_their_messages(self, monkeypatch):
        blocks = [0.5 * np.eye(21), np.full((36, 36), 1e308), np.eye(21)]
        with pytest.raises(EigenvalueFailure, match="^eigenvalue computation produced non-finite values$"):
            spectral_radius(decoupled(blocks))

        def failing(a):
            np.sqrt(np.float64(-1.0))  # sets the invalid flag, as a LAPACK failure does
            return np.full(a.shape[0], np.nan, dtype=complex)

        monkeypatch.setattr(moments, "_eigvals", failing)
        rng = np.random.default_rng(11)
        blocks = [scaled_to_radius(rng, k, r) for k, r in zip((21, 36, 21), (1.0, 0.5, 0.25))]
        with pytest.raises(EigenvalueFailure, match="^eigenvalue computation failed: Eigenvalues did not converge$"):
            spectral_radius(decoupled(blocks))


def six_state_loop(sigma):
    """A 6-state compensator loop with noise of standard deviation ``sigma``
    on A, B and C and a dense injected covariance W; stable for sigma below
    about 0.276 (radius 0.92 at 0.25, 0.98 at 0.27)."""
    from mnlqg import CostModel, NoiseModel, NoiseTerm, ProblemInstance, SystemModel

    rng = np.random.default_rng(3)
    n, m, p = 6, 2, 2
    A = rng.standard_normal((n, n))
    A *= 0.8 / specrad(A)
    B, C = rng.standard_normal((n, m)), rng.standard_normal((p, n))
    patterns = rng.standard_normal((n, n)), rng.standard_normal((n, m)), rng.standard_normal((p, n))
    ctrl = Controller(*(0.05 * rng.standard_normal(shape) for shape in ((n, n), (m, n), (n, p))))
    G = rng.standard_normal((n + p, n + p))
    system = SystemModel(
        A=A,
        B=B,
        C=C,
        noise_a=(NoiseTerm(sigma, patterns[0]),),
        noise_b=(NoiseTerm(sigma, patterns[1]),),
        noise_c=(NoiseTerm(sigma, patterns[2]),),
    )
    problem = ProblemInstance(
        system, CostModel(np.eye(n + m)), NoiseModel(W=G @ G.T, X0=np.zeros((n, n)))
    )
    return build_augmented(problem, ctrl)


class TestReducedOperator:
    """Psi_s and Gamma_s (``build_second_moment_matrix``), the second-moment
    operators on the lower triangle of symmetric matrices, against the full
    (2n)^2 x (2n)^2 Kronecker matrix of the oracles."""

    @staticmethod
    def random_loop(n):
        rng = np.random.default_rng(40 + n)
        problem = random_problem_any(rng, n=n, m=2, p=2)
        aug = build_augmented(problem, make_random_controller(problem, rng))
        # a non-symmetric Phi and nonzero lifts of the A, B and C noise
        assert not np.array_equal(aug.Phi, aug.Phi.T)
        assert all(s2 > 0.0 and np.any(lift != 0.0) for s2, lift in aug.lifts())
        return aug

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_equals_the_restriction_of_the_full_matrix(self, n):
        aug = self.random_loop(n)
        psi_s = build_second_moment_matrix(aug, "value")
        assert psi_s.shape == (n * (2 * n + 1),) * 2
        assert np.array_equal(psi_s, restrict_to_symmetric(full_value_operator(aug)))

    @pytest.mark.parametrize("seed", range(7000, 7010))
    def test_equals_the_restriction_on_random_problem_policies(self, seed):
        problem, _ = random_problem(seed)
        aug = build_augmented(problem, stabilizing_initial_controller(problem))
        full = full_value_operator(aug)
        assert np.array_equal(
            build_second_moment_matrix(aug, "value"), restrict_to_symmetric(full)
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_covariance_side_is_the_omega_adjoint(self, n):
        """Gamma_s = Omega^-1 Psi_s.T Omega with Omega = diag(1 on the
        diagonal, 2 off it), bitwise: the identity the covariance solve uses."""
        aug = self.random_loop(n)
        gamma_s = build_second_moment_matrix(aug, "covariance")
        omega = np.array([1.0 if c == e else 2.0 for e in range(2 * n) for c in range(e, 2 * n)])
        adjoint = build_second_moment_matrix(aug, "value").T * omega / omega[:, None]
        assert np.array_equal(gamma_s, adjoint)
        assert np.array_equal(gamma_s, restrict_to_symmetric(full_value_operator(aug).T))

    @pytest.mark.parametrize("seed", range(7000, 7050))
    def test_spectral_radius_matches_full_eigvals(self, seed):
        problem, _ = random_problem(seed)
        initial = stabilizing_initial_controller(problem)
        for aug in (
            build_augmented(problem, initial),
            build_augmented(scaled_noise(problem, 3.0), initial),
        ):
            reference = full_spectral_radius(aug)
            for side in ("value", "covariance"):
                radius = spectral_radius(build_second_moment_matrix(aug, side))
                assert radius == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_spectral_radius_matches_full_eigvals_on_pendulum_candidates(self):
        problem = pendulum_problem(0.05)
        for ctrl in (open_loop_controller(problem), noise_free_controller(problem)):
            aug = build_augmented(problem, ctrl)
            radius = spectral_radius(build_second_moment_matrix(aug, "value"))
            assert radius == pytest.approx(full_spectral_radius(aug), rel=1e-12, abs=0.0)
            assert evaluate(aug).radius() == radius

    def test_evaluation_needs_no_kronecker_product(self, monkeypatch):
        aug = six_state_loop(0.25)

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called on the policy-evaluation path")

        monkeypatch.setattr(np, "kron", no_kron)
        sol = evaluate(aug).solution
        for M, op, rhs in (
            (sol.Pprime, apply_value_operator, aug.Qprime),
            (sol.Sprime, apply_covariance_operator, aug.Wprime),
        ):
            assert np.array_equal(M, M.T)
            assert la.norm(M - op(aug, M) - rhs) <= 1e-10 * (1.0 + la.norm(M))


def two_term_loop(with_b=True):
    """A 3-state compensator loop with two noise terms on A and on C, and
    two on B or none (``with_b``)."""
    from mnlqg import CostModel, NoiseModel, NoiseTerm, ProblemInstance, SystemModel

    rng = np.random.default_rng(11)
    n, m, p = 3, 2, 2

    def terms(shape):
        return tuple(NoiseTerm(0.2 * rng.random(), rng.standard_normal(shape)) for _ in range(2))

    system = SystemModel(
        A=0.5 * rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((p, n)),
        noise_a=terms((n, n)),
        noise_b=terms((n, m)) if with_b else (),
        noise_c=terms((p, n)),
    )
    problem = ProblemInstance(
        system, CostModel(np.eye(n + m)), NoiseModel(W=np.eye(n + p), X0=np.zeros((n, n)))
    )
    return build_augmented(problem, make_random_controller(problem, rng, scale=0.2))


def block_lift_loops():
    """Loops whose lifts cover every family layout: one term per family with
    non-zero gains, two terms in a family, no B-noise, and open loops, whose
    B- and C-lifts are zero."""
    rng = np.random.default_rng(23)
    loops = {}
    for n in (1, 2, 3):
        problem = random_problem_any(rng, n=n, m=2, p=2)
        loops[f"one-term-n{n}"] = build_augmented(problem, make_random_controller(problem, rng))
    loops["two-terms"] = two_term_loop(with_b=True)
    loops["no-b-noise"] = two_term_loop(with_b=False)
    problem, _ = random_problem(7003)
    loops["random-7003-open-loop"] = build_augmented(problem, open_loop_controller(problem))
    problem = pendulum_problem(0.05)
    loops["pendulum-noise-free"] = build_augmented(problem, noise_free_controller(problem))
    return loops


BLOCK_LIFT_LOOPS = block_lift_loops()


def value_bytes(a):
    """The bytes that hold the values of a longdouble array: ``tobytes``
    also copies the undefined padding of the 80-bit x87 format (10 of 16
    bytes used, little-endian)."""
    a = np.ascontiguousarray(a)
    used = 10 if np.finfo(a.dtype).nmant == 63 else a.itemsize
    return a.view(np.uint8).reshape(a.size, a.itemsize)[:, :used].tobytes()


class TestBlockLifts:
    """Each lift is applied on its n x n block only, bitwise as the sums with
    every lift over the whole augmented state (the ``*_full_terms``
    oracles)."""

    def test_layouts(self):
        two, no_b = BLOCK_LIFT_LOOPS["two-terms"], BLOCK_LIFT_LOOPS["no-b-noise"]
        assert (len(two.lifts_a), len(two.lifts_b), len(two.lifts_c)) == (2, 2, 2)
        assert (len(no_b.lifts_a), len(no_b.lifts_b), len(no_b.lifts_c)) == (2, 0, 2)

    @pytest.mark.parametrize("side", ["value", "covariance"])
    @pytest.mark.parametrize("name", sorted(BLOCK_LIFT_LOOPS))
    def test_second_moment_matrix(self, name, side):
        aug = BLOCK_LIFT_LOOPS[name]
        psi = build_second_moment_matrix(aug, side)
        assert psi.tobytes() == second_moment_matrix_full_terms(aug, side).tobytes()

    @staticmethod
    def symmetric_ld(aug, seed):
        """A symmetric longdouble matrix with +0.0 and -0.0 entries."""
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((aug.dim, aug.dim))
        M = (M + M.T).astype(np.longdouble)
        M[0, :] = M[:, 0] = 0.0
        M[-1, :] = M[:, -1] = -0.0
        return M

    @pytest.mark.parametrize("side", ["value", "covariance"])
    @pytest.mark.parametrize("name", sorted(BLOCK_LIFT_LOOPS))
    def test_lyapunov_residual(self, name, side):
        from mnlqg.moments import _add_operator

        aug = BLOCK_LIFT_LOOPS[name]
        value = side == "value"
        rhs = (aug.Qprime if value else aug.Wprime).astype(np.longdouble)
        terms = aug.terms if value else aug.covariance_terms
        for seed in range(3):
            M = self.symmetric_ld(aug, seed)
            R = _add_operator(rhs - M, M, terms)
            assert value_bytes(R) == value_bytes(lyapunov_residual_full_terms(aug, side, M))

    @pytest.mark.parametrize("name", sorted(BLOCK_LIFT_LOOPS))
    def test_certificate_residual(self, name):
        from mnlqg.moments import _add_operator

        aug = BLOCK_LIFT_LOOPS[name]
        for seed in range(3):
            X = self.symmetric_ld(aug, seed)
            R = _add_operator(X.copy(), X, aug.terms, -1.0)
            assert value_bytes(R) == value_bytes(certificate_residual_full_terms(aug, X))


class TestOneInversePerEvaluation:
    """A policy evaluation inverts I - Psi_s once and solves no d x d system."""

    @staticmethod
    def count_linalg(monkeypatch, d):
        calls = {"inv": 0, "solve_dxd": 0}
        inv, solve = la.inv, la.solve

        def counted_inv(a):
            calls["inv"] += 1
            return inv(a)

        def counted_solve(a, b):
            calls["solve_dxd"] += np.shape(a) == (d, d)
            return solve(a, b)

        monkeypatch.setattr(la, "inv", counted_inv)
        monkeypatch.setattr(la, "solve", counted_solve)
        return calls

    @pytest.mark.parametrize("make_aug", [lambda: six_state_loop(0.25), lambda: two_term_loop()])
    def test_evaluate(self, make_aug, monkeypatch):
        aug = make_aug()
        d = aug.dim * (aug.dim + 1) // 2
        calls = self.count_linalg(monkeypatch, d)
        evaluate(aug)
        assert calls == {"inv": 1, "solve_dxd": 0}

    def test_policy_iteration(self, monkeypatch):
        problem = pendulum_problem(0.05)
        initial = stabilizing_initial_controller(problem)
        calls = self.count_linalg(monkeypatch, 10)
        report = policy_iteration_solve(problem, initial)
        # iterations + 1 evaluations in the loop, one more for the report's cost
        assert calls == {"inv": report.iterations + 2, "solve_dxd": 0}

    def test_singular_operator_leaves_the_radius_to_decide(self, monkeypatch):
        """The marginal scalar loop has I - Psi_s = 0: the inverse fails, the
        certificate gives no verdict and the exact radius 1 decides."""
        from mnlqg import moments

        verdicts = []
        certificate = moments._positive_operator_test

        def recorded(aug, X):
            verdicts.append(certificate(aug, X))
            return verdicts[-1]

        monkeypatch.setattr(moments, "_positive_operator_test", recorded)
        decision = evaluate(scalar_loop(1.0))
        assert decision.inv is None and verdicts == []
        assert not decision.stable and decision.exact_radius == 1.0

    def test_non_finite_inverse_leaves_the_radius_to_decide(self, monkeypatch):
        """An unstable loop that the certificate rejects without eigenvalues
        (``test_certified_verdicts_skip_the_radius``) goes to the radius
        when the inverse is not finite."""
        monkeypatch.setattr(la, "inv", lambda a: np.full(np.shape(a), np.inf))
        decision = evaluate(scalar_loop(1.2))
        assert decision.inv is None
        assert not decision.stable
        assert decision.exact_radius == pytest.approx(1.44, rel=1e-12)
        with pytest.raises(NotMsStable):
            decision.cost()

    def test_stable_loop_without_inverse_raises(self, monkeypatch):
        """The radius decides the loop stable, and with no inverse to solve
        with the evaluation raises."""
        monkeypatch.setattr(la, "inv", lambda a: np.full(np.shape(a), np.nan))
        aug = scalar_open_loop_aug(sigma_a=0.3)
        assert spectral_radius(build_second_moment_matrix(aug, "value")) < 1.0 - STABILITY_MARGIN
        with pytest.raises(LyapunovSolveFailure, match="singular"):
            evaluate(aug)


def count_la_inv(monkeypatch):
    """The shapes of the matrices passed to ``la.inv``."""
    shapes, inv = [], la.inv

    def counted(a):
        shapes.append(a.shape)
        return inv(a)

    monkeypatch.setattr(la, "inv", counted)
    return shapes


def open_loop_operator(n):
    """I - Psi_s of the open loop of the benchmark's instance with n states."""
    problem = synthetic_problem(11, n)
    psi = build_second_moment_matrix(build_augmented(problem, open_loop_controller(problem)), "value")
    return np.eye(len(psi)) - psi


class TestBlockInverse:
    """``moments._inverse`` inverts a decoupled I - Psi_s from
    HELD_INVERSE_MIN_UNKNOWNS rows on by its three hvec blocks."""

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_open_loop_is_inverted_by_block(self, n, monkeypatch):
        M = open_loop_operator(n)
        assert len(M) >= moments.HELD_INVERSE_MIN_UNKNOWNS
        expected = la.inv(M)
        shapes = count_la_inv(monkeypatch)
        inv = moments._inverse(M)
        k, m = n * (n + 1) // 2, n * n
        assert shapes == [(k, k), (m, m), (k, k)]
        assert la.norm(inv - expected) <= 1e-15 * la.norm(expected)
        label = hvec_block_labels(n)
        assert not inv[label[:, None] != label].any()
        for b in range(3):
            block = np.ix_(label == b, label == b)
            assert np.array_equal(inv[block], la.inv(M[block]))

    @pytest.mark.parametrize("b", [0, 1, 2])
    @pytest.mark.parametrize("entry", [0.0, 1e-310, np.nan])
    def test_singular_or_non_finite_block_gives_none(self, b, entry):
        """A zero pivot fails ``la.inv``; a subnormal one overflows its
        inverse to inf; a NaN entry inside the block keeps the matrix
        decoupled and its inverse NaN."""
        label = hvec_block_labels(8)
        M = np.eye(len(label))
        i = np.flatnonzero(label == b)[-1]
        M[i, i] = entry
        assert moments._decoupled_blocks(M) is not None
        assert moments._inverse(M) is None

    def test_coupled_matrix_takes_one_inverse(self, monkeypatch):
        M = open_loop_operator(8)
        label = hvec_block_labels(8)
        M[np.argmax(label == 0), np.argmax(label == 2)] = 1e-300
        assert moments._decoupled_blocks(M) is None
        expected = la.inv(M)
        shapes = count_la_inv(monkeypatch)
        assert moments._inverse(M).tobytes() == expected.tobytes()
        assert shapes == [(136, 136)]

    def test_below_the_cut_over_takes_one_inverse(self, monkeypatch):
        M = open_loop_operator(7)
        assert len(M) < moments.HELD_INVERSE_MIN_UNKNOWNS
        assert moments._decoupled_blocks(M) is not None
        expected = la.inv(M)
        shapes = count_la_inv(monkeypatch)
        assert moments._inverse(M).tobytes() == expected.tobytes()
        assert shapes == [(105, 105)]


class TestHalfVectorization:
    """``_hvec`` and ``_unhvec`` read and write flat C-order positions;
    their arrays are bitwise those of the 2-D indexing M[i, j]."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_bitwise_the_two_dimensional_indexing(self, d, dtype):
        h = moments._half_indices(d)
        M = np.random.default_rng(d).standard_normal((d, d)).astype(dtype) / 3
        for matrix in (M, M.T):  # a transposed view is read in its own order
            got = moments._hvec(matrix)
            assert got.dtype == dtype and got.tobytes() == matrix[h.i, h.j].tobytes()
        x = M[h.i, h.j]
        expected = np.empty((d, d), dtype=dtype)
        expected[h.i, h.j] = x
        expected[h.j, h.i] = x
        got = moments._unhvec(x, d)
        assert got.dtype == dtype and got.shape == (d, d) and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()


class TestMsStable:
    """``evaluate``'s verdict and exact radius on closed-form loops."""

    def test_scalar_stable(self):
        decision = evaluate(scalar_open_loop_aug(sigma_a=0.3))
        assert decision.stable
        assert decision.radius() == pytest.approx(0.34, rel=1e-10)

    def test_marginal_is_not_stable(self):
        problem = make_scalar_problem()
        system = problem.system
        from mnlqg import CostModel, NoiseModel, ProblemInstance, SystemModel

        marginal = ProblemInstance(
            SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]]),
            CostModel(np.eye(2)),
            NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
        )
        decision = evaluate(build_augmented(marginal, open_loop_controller(marginal)))
        assert not decision.stable
        assert decision.radius() == pytest.approx(1.0, rel=1e-10)

    def test_noise_pushes_past_one(self):
        problem = make_scalar_problem(sigma_a=0.6)
        from mnlqg import CostModel, NoiseModel, NoiseTerm, ProblemInstance, SystemModel

        problem = ProblemInstance(
            SystemModel(A=[[0.9]], B=[[1.0]], C=[[1.0]], noise_a=(NoiseTerm(0.6, [[1.0]]),)),
            CostModel(np.eye(2)),
            NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
        )
        decision = evaluate(build_augmented(problem, open_loop_controller(problem)))
        assert not decision.stable
        assert decision.radius() == pytest.approx(0.81 + 0.36, rel=1e-10)


def scaled_noise(problem, factor):
    """The same instance with every noise standard deviation times ``factor``."""
    from mnlqg import NoiseTerm, ProblemInstance, SystemModel

    sys = problem.system

    def scale(terms):
        return tuple(NoiseTerm(factor * t.sigma, t.pattern) for t in terms)

    system = SystemModel(
        sys.A, sys.B, sys.C, scale(sys.noise_a), scale(sys.noise_b), scale(sys.noise_c)
    )
    return ProblemInstance(system, problem.cost, problem.noise)


def scalar_loop(a):
    """Open loop of x+ = a x with no noise: every operator eigenvalue is a^2."""
    from mnlqg import CostModel, NoiseModel, ProblemInstance, SystemModel

    problem = ProblemInstance(
        SystemModel(A=[[a]], B=[[1.0]], C=[[1.0]]),
        CostModel(np.eye(2)),
        NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
    )
    return build_augmented(problem, open_loop_controller(problem))


class TestPositiveOperatorTest:
    """``evaluate``'s verdict agrees with the exact spectral-radius decision."""

    @staticmethod
    def assert_sound(aug):
        """Certified loops lie inside the margin and are solved; the cost of
        a rejected loop raises NotMsStable with the exact radius, bitwise.
        Returns the evaluation."""
        radius = spectral_radius(build_second_moment_matrix(aug, "value"))
        decision = evaluate(aug)
        if decision.stable:
            assert radius < 1.0 - STABILITY_MARGIN
            assert decision.solution is not None
        else:
            assert not radius < 1.0 - STABILITY_MARGIN
            with pytest.raises(NotMsStable) as excinfo:
                decision.cost()
            assert excinfo.value.radius == radius
        return decision

    @pytest.mark.parametrize("seed", range(7000, 7050))
    def test_random_initial_policies_iterates_and_scaled_noise(self, seed):
        problem, _ = random_problem(seed)
        initial = stabilizing_initial_controller(problem)
        loops = [build_augmented(problem, initial)]
        A, B, C = problem.system.A, problem.system.B, problem.system.C
        report = policy_iteration_solve(problem, initial)
        for X in report.solution_history:
            K, L = gain_operators(ValueCovarianceTuple(*X), problem)
            loops.append(build_augmented(problem, Controller(A + B @ K - L @ C, K, L)))
        for factor in (1.5, 3.0, 10.0):
            loops.append(build_augmented(scaled_noise(problem, factor), initial))
        decisions = [self.assert_sound(aug) for aug in loops]
        # the initial policy and the iterates are stable
        assert all(d.stable for d in decisions[:-3])

    @pytest.mark.parametrize("eta", [0.0, 0.0125, 0.025, 0.0375, 0.05, 0.06, 0.1, 1.0])
    def test_pendulum_levels(self, eta):
        problem = pendulum_problem(eta)
        for ctrl in (open_loop_controller(problem), noise_free_controller(problem)):
            self.assert_sound(build_augmented(problem, ctrl))

    def test_verdict_holds_for_any_candidate(self):
        """The test certifies whatever X its solve returns: solving with a
        wrong operator I - c Psi may leave the decision open, never make it
        wrong."""
        from mnlqg.moments import _positive_operator_test

        loops = []
        for seed in range(7000, 7010):
            problem, _ = random_problem(seed)
            initial = stabilizing_initial_controller(problem)
            loops.append(build_augmented(problem, initial))
            loops.append(build_augmented(scaled_noise(problem, 3.0), initial))
        problem = pendulum_problem(0.05)
        for ctrl in (open_loop_controller(problem), noise_free_controller(problem)):
            loops.append(build_augmented(problem, ctrl))
        seen = set()
        for aug in loops:
            psi_s = build_second_moment_matrix(aug, "value")
            radius = spectral_radius(psi_s)
            identity = hvec(np.eye(aug.dim))
            for c in (0.5, 0.9, 1.0, 1.1, 2.0):
                X = unhvec(la.inv(np.eye(len(psi_s)) - c * psi_s) @ identity)
                verdict = _positive_operator_test(aug, X)
                seen.add(verdict)
                if verdict is True:
                    assert radius < 1.0 - STABILITY_MARGIN
                elif verdict is False:
                    assert not radius < 1.0 - STABILITY_MARGIN
        assert seen == {True, False, None}

    def test_exactly_singular_operator_falls_back(self):
        aug = scalar_loop(1.0)  # I - Psi is the zero matrix
        decision = evaluate(aug)
        assert not decision.stable
        assert decision.exact_radius == 1.0
        with pytest.raises(NotMsStable) as excinfo:
            decision.cost()
        assert excinfo.value.radius == 1.0

    def test_radius_just_inside_the_margin_is_rejected(self):
        aug = scalar_loop(np.sqrt(1.0 - 0.5 * STABILITY_MARGIN))
        radius = spectral_radius(build_second_moment_matrix(aug, "value"))
        assert 1.0 - STABILITY_MARGIN < radius < 1.0
        decision = evaluate(aug)
        assert not decision.stable
        assert decision.exact_radius == radius  # decided by the fallback
        with pytest.raises(NotMsStable) as excinfo:
            decision.cost()
        assert excinfo.value.radius == radius

    def test_certified_verdicts_skip_the_radius(self):
        """The float64 certificate decides without eigenvalues up to a
        radius of 1 - 1e-8, a tenth of the margin away from it, and on the
        converged loop of random_problem(477), where policy iteration
        stalls on rounding noise."""
        stable = evaluate(scalar_open_loop_aug(sigma_a=0.3))
        unstable = evaluate(scalar_loop(1.2))
        assert stable.stable and stable.exact_radius is None
        assert not unstable.stable and unstable.exact_radius is None
        assert unstable.radius() == pytest.approx(1.44, rel=1e-12)
        problem, _ = random_problem(477)
        loops = [scalar_loop(np.sqrt(1.0 - 10.0**-k)) for k in range(2, 9)]
        loops.append(build_augmented(problem, policy_iteration_solve(problem).controller))
        for aug in loops:
            evaluation = evaluate(aug)
            assert evaluation.stable and evaluation.exact_radius is None


class TestSolveLyapunov:
    def test_scalar_value_side(self):
        aug = scalar_open_loop_aug(sigma_a=0.3)
        Pprime = solve_lyapunov(aug, "value")
        assert np.allclose(Pprime, np.diag([1.0 / 0.66, 0.0]), rtol=1e-12, atol=1e-14)

    def test_scalar_covariance_side(self):
        aug = scalar_open_loop_aug(sigma_a=0.3, w_diag=(0.01, 0.0))
        Sprime = solve_lyapunov(aug, "covariance")
        assert np.allclose(Sprime, np.diag([0.01 / 0.66, 0.0]), rtol=1e-12, atol=1e-14)

    def test_zero_dynamics_fixed_point_is_rhs(self, scalar_problem):
        ctrl = Controller(F=[[0.0]], K=[[0.0]], L=[[0.1]])
        aug = build_augmented(scalar_problem, ctrl)
        zeroed = type(aug)(
            Phi=np.zeros((2, 2)),
            Qprime=aug.Qprime,
            Wprime=aug.Wprime,
            lifts_a=(),
            lifts_b=(),
            lifts_c=(),
        )
        assert np.allclose(solve_lyapunov(zeroed, "value"), zeroed.Qprime, atol=1e-15)

    def test_unstable_loop_raises(self):
        from mnlqg import CostModel, NoiseModel, ProblemInstance, SystemModel

        unstable = ProblemInstance(
            SystemModel(A=[[1.2]], B=[[1.0]], C=[[1.0]]),
            CostModel(np.eye(2)),
            NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
        )
        aug = build_augmented(unstable, open_loop_controller(unstable))
        with pytest.raises(NotMsStable):
            solve_lyapunov(aug, "value")

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_contract(self, seed):
        from mnlqg import CostModel, NoiseModel, NoiseTerm, ProblemInstance, SystemModel

        rng = np.random.default_rng(200 + seed)
        A = rng.standard_normal((2, 2))
        A *= 0.5 / specrad(A)
        problem = ProblemInstance(
            SystemModel(
                A=A,
                B=rng.standard_normal((2, 1)),
                C=rng.standard_normal((1, 2)),
                noise_a=(NoiseTerm(0.1 * rng.random(), rng.standard_normal((2, 2))),),
                noise_b=(NoiseTerm(0.1 * rng.random(), rng.standard_normal((2, 1))),),
                noise_c=(NoiseTerm(0.1 * rng.random(), rng.standard_normal((1, 2))),),
            ),
            CostModel(np.eye(3)),
            NoiseModel(W=0.01 * np.eye(3), X0=np.zeros((2, 2))),
        )
        ctrl = make_random_controller(problem, rng, scale=0.05)
        aug = build_augmented(problem, ctrl)
        stable, _ = is_ms_stable(aug)
        assert stable, "test construction should produce a stable loop"
        Pprime = solve_lyapunov(aug, "value")
        residual = Pprime - (apply_value_operator(aug, Pprime) + aug.Qprime)
        assert la.norm(residual) <= 1e-10 * (1.0 + la.norm(Pprime))
        Sprime = solve_lyapunov(aug, "covariance")
        residual = Sprime - (apply_covariance_operator(aug, Sprime) + aug.Wprime)
        assert la.norm(residual) <= 1e-10 * (1.0 + la.norm(Sprime))
        assert np.array_equal(Pprime, Pprime.T)
        assert np.array_equal(Sprime, Sprime.T)
        # outputs stay PSD up to roundoff from the dense solve
        from mnlqg.matrixmath import min_eigval

        for M in (Pprime, Sprime):
            assert min_eigval(M) >= -1e-8 * (1.0 + la.norm(M))
        X = extract_tuple(AugmentedSolution(Pprime=Pprime, Sprime=Sprime))
        for block in X.blocks():
            assert min_eigval(block) >= -1e-8 * (1.0 + la.norm(block))

    def test_recursion_reaches_direct_solution(self):
        aug = scalar_open_loop_aug(sigma_a=0.3)
        direct = solve_lyapunov(aug, "value")
        recursed = lyapunov_by_recursion(aug, "value", iterations=200)
        assert np.allclose(direct, recursed, atol=1e-8)
        direct_s = solve_lyapunov(aug, "covariance")
        recursed_s = lyapunov_by_recursion(aug, "covariance", iterations=200)
        assert np.allclose(direct_s, recursed_s, atol=1e-8)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is float64 here, so the reference is no more precise",
)
class TestExtendedPrecisionAccuracy:
    """``evaluate``'s fresh solve lands within one float64 ulp of its
    largest entry of the unrounded longdouble solution while cond(I - Psi_s)
    is moderate, a norm-wise bound: on the converged loop of the
    benchmark's n=10 instance 2 small entries of P' are more than one of
    their own ulps off.  On the instances here (radius up to 0.984) every
    entry is within one of its own ulps, which is what the tests assert.
    At radius 0.99987 it stays within the policy-iteration stopping floor
    (riccati.STEP_FLOOR_ULPS), where 5.3 ulps (value) and 3.6 (covariance)
    are measured; the floor relies on evaluations this accurate."""

    @staticmethod
    def assert_within_one_ulp(aug):
        sol = evaluate(aug).solution
        for side, M in (("value", sol.Pprime), ("covariance", sol.Sprime)):
            reference = lyapunov_extended(aug, side)
            error = np.abs(M.astype(np.longdouble) - reference)
            assert np.all(error <= np.spacing(np.abs(M))), side

    @pytest.mark.parametrize("seed", range(7000, 7010))
    def test_random_problem_initial_policy(self, seed):
        problem, _ = random_problem(seed)
        self.assert_within_one_ulp(
            build_augmented(problem, stabilizing_initial_controller(problem))
        )

    def test_six_state_compensator_near_the_boundary(self):
        from mnlqg import CostModel, NoiseModel, NoiseTerm, ProblemInstance, SystemModel

        rng = np.random.default_rng(3)
        n, m, p = 6, 2, 2
        A = rng.standard_normal((n, n))
        A *= 0.8 / specrad(A)
        problem = ProblemInstance(
            SystemModel(
                A=A,
                B=rng.standard_normal((n, m)),
                C=rng.standard_normal((p, n)),
                noise_a=(NoiseTerm(0.25, rng.standard_normal((n, n))),),
                noise_b=(NoiseTerm(0.25, rng.standard_normal((n, m))),),
                noise_c=(NoiseTerm(0.25, rng.standard_normal((p, n))),),
            ),
            CostModel(np.eye(n + m)),
            NoiseModel(W=0.01 * np.eye(n + p), X0=np.zeros((n, n))),
        )
        aug = build_augmented(problem, make_random_controller(problem, rng, scale=0.05))
        stable, radius = is_ms_stable(aug)
        assert stable and radius > 0.9, "test construction should be stable near the boundary"
        self.assert_within_one_ulp(aug)

    def test_covariance_side_near_the_boundary_with_dense_injected_noise(self):
        """The covariance solve runs on (I - Psi_s).T with the Omega scaling;
        cond(I - Psi_s) is about 300 at this radius."""
        aug = six_state_loop(0.27)
        stable, radius = is_ms_stable(aug)
        assert stable and radius >= 0.98, "test construction should be stable near the boundary"
        assert np.all(aug.Wprime != 0.0)
        S = evaluate(aug).solution.Sprime
        error = np.abs(S.astype(np.longdouble) - lyapunov_extended(aug, "covariance"))
        assert np.all(error <= np.spacing(np.abs(S)))

    def test_within_the_stopping_floor_at_the_boundary(self):
        """At radius 0.99987, cond(I - Psi_s) is about 3.7e4 and one ulp is
        out of reach (measured with the inverse of I - Psi_s and one
        longdouble residual per side: 5.3 ulps on the value side, 3.6 on
        the covariance side); both stay below the 32-ulp stopping floor."""
        from mnlqg.riccati import STEP_FLOOR_ULPS

        aug = six_state_loop(0.275)
        stable, radius = is_ms_stable(aug)
        assert stable and radius > 0.9998, "test construction should sit at the boundary"
        sol = evaluate(aug).solution
        for side, M in (("value", sol.Pprime), ("covariance", sol.Sprime)):
            error = np.abs(M.astype(np.longdouble) - lyapunov_extended(aug, side))
            assert np.all(error <= STEP_FLOOR_ULPS * np.spacing(np.abs(M))), side


class TestEvaluationCost:
    def test_scalar_cost_and_duality(self):
        aug = scalar_open_loop_aug(sigma_a=0.3, w_diag=(0.01, 0.01))
        J = evaluate(aug).cost()
        assert J == pytest.approx(0.01 / 0.66, rel=1e-12)

    def test_zero_injected_noise_means_zero_cost(self, scalar_problem):
        problem = make_scalar_problem(sigma_a=0.3, w_diag=(0.0, 0.0))
        aug = build_augmented(problem, open_loop_controller(problem))
        assert evaluate(aug).cost() == 0.0

    def test_duality_violation_raises(self):
        aug = scalar_open_loop_aug(sigma_a=0.3)
        sol = AugmentedSolution(
            Pprime=np.diag([5.0, 0.0]), Sprime=np.diag([1.0, 0.0])
        )
        with pytest.raises(DualityViolation):
            Evaluation(aug, True, sol).cost()


class TestExtractTuple:
    def test_diagonal_value_matrix(self):
        sol = AugmentedSolution(
            Pprime=np.diag([3.5, 0.0]), Sprime=np.diag([0.2, 0.0])
        )
        X = extract_tuple(sol)
        assert X.P[0, 0] == pytest.approx(3.5)
        assert np.array_equal(X.Phat, [[0.0]])

    def test_optimal_covariance_structure(self):
        s, shat = 0.7, 0.4
        Sprime = np.array([[s + shat, shat], [shat, shat]])
        sol = AugmentedSolution(Pprime=np.eye(2), Sprime=Sprime)
        X = extract_tuple(sol)
        assert X.S[0, 0] == pytest.approx(s, abs=1e-15)
        assert X.Shat[0, 0] == pytest.approx(shat, abs=1e-15)

    def test_optimal_value_structure(self):
        p, phat = 2.25, 1.5
        Pprime = np.array([[p + phat, -phat], [-phat, phat]])
        sol = AugmentedSolution(Pprime=Pprime, Sprime=np.eye(2))
        X = extract_tuple(sol)
        assert X.P[0, 0] == pytest.approx(p, abs=1e-15)
        assert X.Phat[0, 0] == pytest.approx(phat, abs=1e-15)

    def test_blockwise_definition(self):
        rng = np.random.default_rng(17)
        M = rng.standard_normal((4, 4))
        Pprime = M @ M.T
        N = rng.standard_normal((4, 4))
        Sprime = N @ N.T
        X = extract_tuple(AugmentedSolution(Pprime=Pprime, Sprime=Sprime))
        E = np.hstack([np.eye(2), np.eye(2)])
        D = np.hstack([np.eye(2), -np.eye(2)])
        assert np.allclose(X.P, E @ Pprime @ E.T, atol=1e-14)
        assert np.allclose(X.S, D @ Sprime @ D.T, atol=1e-14)


class TestValueCovarianceTuple:
    """The four blocks are views of one read-only stacked array."""

    def test_views_of_one_symmetrized_stack(self):
        rng = np.random.default_rng(29)
        blocks = [rng.standard_normal((3, 3)) for _ in range(4)]
        X = ValueCovarianceTuple(*blocks)
        stack = X.blocks()
        assert stack.shape == (4, 3, 3) and not stack.flags.writeable
        for name, M, block in zip(("P", "Phat", "S", "Shat"), blocks, stack):
            view = getattr(X, name)
            assert view.base is stack
            # bitwise the blockwise (M + M.T) / 2
            assert view.tobytes() == block.tobytes() == (0.5 * (M + M.T)).tobytes()

    def test_block_of_another_shape_is_named(self):
        with pytest.raises(ValueError, match=r"block Phat has shape \(3, 3\), but P has shape \(2, 2\)"):
            ValueCovarianceTuple(np.eye(2), np.eye(3), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("name", ["P", "Phat", "S", "Shat"])
    def test_non_square_block_is_named(self, name):
        blocks = {block: np.eye(2) for block in ("P", "Phat", "S", "Shat")}
        blocks[name] = np.ones((2, 3))
        with pytest.raises(ValueError, match=rf"block {name} has shape \(2, 3\), not a square matrix's"):
            ValueCovarianceTuple(**blocks)

    def test_four_non_square_blocks_name_the_first(self):
        with pytest.raises(ValueError, match=r"block P has shape \(2, 3\), not a square matrix's"):
            ValueCovarianceTuple(*(np.ones((2, 3)) for _ in range(4)))

    @pytest.mark.parametrize("block", range(4), ids=["P", "Phat", "S", "Shat"])
    def test_nan_in_any_block_reaches_both_norms(self, block):
        stack = np.arange(16.0).reshape(4, 2, 2)
        stack[block, 1, 1] = np.nan
        X = ValueCovarianceTuple(*stack)
        assert math.isnan(X.max_norm())
        zero = ValueCovarianceTuple(*np.zeros((4, 2, 2)))
        assert math.isnan(X.distance(zero))
        assert math.isnan(zero.distance(X))
