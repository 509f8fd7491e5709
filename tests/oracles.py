"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately written from the defining recursions and
expectations, independent of the package's solver code paths: the classical
decoupled Riccati designs are plain fixed-point iterations on the mean
system, the second-moment operator is applied by expanding the expectation
congruence term by term (no Kronecker products), the extended-precision
Lyapunov reference assembles the Kronecker lift in longdouble and eliminates
it with a plain Gaussian elimination (no LAPACK), the quadratic-form
operators G(X) and H(X) are assembled as full matrices and cut into blocks
(the package forms the blocks directly), and the scalar fixed point comes
from the closed-form quadratic.  The second-moment operator on all (2n)^2
entries (the Kronecker matrix, with ``vec``/``unvec``), its restriction to
symmetric matrices column by column and the half-vectorization ``hvec``
serve as references for the package's operator Psi_s, which acts on the
lower-triangle entries only; ``is_ms_stable`` decides stability from the
Kronecker matrix's spectral radius.  The ``*_full_terms`` functions form
Psi_s and the extended-precision residuals with every noise lift over the
whole augmented state, the references for the package's sums, which touch
each lift's block only.  ``monte_carlo_cost_reference``
simulates the raw system equations (x, y, u, xhat) one step at a time, the
reference for the package's augmented-loop rollout; ``reference_residual``
is the Riccati residual R(X) written out once more, every product in ``@``
form, independent of the package's per-solve step; ``value_iteration_step`` the single
update X <- X + R(X) that value iteration applies, and
``value_iteration_reference`` the plain loop of those updates, each through
the symmetrizing constructor, with ``la.norm`` step sizes.
``convergence_metric_reference`` is the e_k trace block by block, each
norm by ``la.norm``, the reference for the package's one batched product
over the stacked trajectory.
``critical_noise_scale_reference`` is the instance generator's
critical-noise bisection with a whole problem, its open loop and its whole
Psi_s assembled at every midpoint, where the generator forms only the
(x, x) hvec block.
``lyapunov_exact`` refines a float64 Lyapunov solution against residuals
formed exactly in ``fractions.Fraction``: a reference exact on every
platform, where ``lyapunov_extended`` is as precise as the platform's
longdouble.
"""

import math
from fractions import Fraction

import numpy as np
import numpy.linalg as la

from mnlqg import moments
from mnlqg.bench import RolloutEstimate
from mnlqg.exceptions import DualityViolation, UnstableRollout
from mnlqg.matrixmath import frobenius, psd_factor
from mnlqg.model import CostModel, NoiseModel, NoiseTerm, ProblemInstance, SystemModel
from mnlqg.moments import STABILITY_MARGIN, ValueCovarianceTuple
from mnlqg.riccati import (
    DEFAULT_TOL,
    STEP_FLOOR_ULPS,
    VI_MAX_ITER,
    open_loop_controller,
)


def vec(M):
    """Stack the columns of M into a vector (column-major)."""
    return np.asarray(M).reshape(-1, order="F")


def unvec(v):
    """Inverse of ``vec`` for square matrices."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    return v.reshape((d, d), order="F")


def _lower_pairs(d):
    """(row, column) of the lower-triangle entries of a d x d matrix, column
    by column."""
    return [(c, e) for e in range(d) for c in range(e, d)]


def hvec(M):
    """The lower-triangle entries of M, column by column: the coordinates of
    a symmetric M in the basis E_cc, E_ce + E_ec (c > e)."""
    M = np.asarray(M)
    return np.array([M[c, e] for c, e in _lower_pairs(M.shape[0])])


def unhvec(x):
    """The symmetric matrix with lower triangle ``x`` (inverse of ``hvec``)."""
    d = int(round((math.sqrt(8 * len(x) + 1) - 1) / 2))
    M = np.empty((d, d))
    for value, (c, e) in zip(x, _lower_pairs(d)):
        M[c, e] = M[e, c] = value
    return M


def specrad(M):
    """Spectral radius (largest eigenvalue magnitude) of a square matrix."""
    return float(np.max(np.abs(la.eigvals(M))))


def dare_control_fixed_point(A, B, Qxx, Qxu, Quu, tol=1e-14, max_iter=1_000_000):
    """Classical discrete-time control Riccati solution by fixed-point
    iteration; returns (P, K) with K the optimal state-feedback gain."""
    P = np.array(Qxx, dtype=float)
    for _ in range(max_iter):
        G = Quu + B.T @ P @ B
        P_next = Qxx + A.T @ P @ A - (Qxu + A.T @ P @ B) @ la.solve(G, Qxu.T + B.T @ P @ A)
        P_next = 0.5 * (P_next + P_next.T)
        if la.norm(P_next - P) <= tol * (1.0 + la.norm(P_next)):
            P = P_next
            break
        P = P_next
    K = -la.solve(Quu + B.T @ P @ B, Qxu.T + B.T @ P @ A)
    return P, K


def dare_filter_fixed_point(A, C, Wxx, Wxy, Wyy, tol=1e-14, max_iter=1_000_000):
    """Classical discrete-time filtering Riccati solution by fixed-point
    iteration; returns (S, L) with L the one-step predictor gain."""
    S = np.array(Wxx, dtype=float)
    for _ in range(max_iter):
        H = Wyy + C @ S @ C.T
        S_next = Wxx + A @ S @ A.T - (Wxy + A @ S @ C.T) @ la.solve(H, Wxy.T + C @ S @ A.T)
        S_next = 0.5 * (S_next + S_next.T)
        if la.norm(S_next - S) <= tol * (1.0 + la.norm(S_next)):
            S = S_next
            break
        S = S_next
    L = la.solve((Wyy + C @ S @ C.T).T, (Wxy + A @ S @ C.T).T).T
    return S, L


def apply_value_operator(aug, M):
    """E[Phi_t.T M Phi_t] expanded term by term (no vectorization)."""
    out = aug.Phi.T @ M @ aug.Phi
    for s2, lift in aug.lifts():
        out = out + s2 * (lift.T @ M @ lift)
    return out


def apply_covariance_operator(aug, M):
    """E[Phi_t M Phi_t.T] expanded term by term (no vectorization)."""
    out = aug.Phi @ M @ aug.Phi.T
    for s2, lift in aug.lifts():
        out = out + s2 * (lift @ M @ lift.T)
    return out


def full_value_operator(aug):
    """The (2n)^2 x (2n)^2 matrix Phi.T (x) Phi.T + sum s2 lift.T (x) lift.T."""
    T = np.kron(aug.Phi.T, aug.Phi.T)
    for s2, lift in aug.lifts():
        T = T + s2 * np.kron(lift.T, lift.T)
    return T


def full_spectral_radius(aug):
    """Spectral radius of the value-side operator on all (2n)^2 entries."""
    return specrad(full_value_operator(aug))


def is_ms_stable(aug):
    """Mean-square stability decision and spectral radius from the Kronecker
    matrix: stable when the radius is below 1 - STABILITY_MARGIN."""
    radius = full_spectral_radius(aug)
    return radius < 1.0 - STABILITY_MARGIN, radius


def restrict_to_symmetric(T):
    """Matrix of the operator T (on column-major vec) restricted to
    symmetric matrices, in the basis E_cc, E_ce + E_ec (c > e) ordered
    column by column over the lower triangle.

    Column (c, e) is T applied to that basis matrix, read off at the
    lower-triangle rows: T[:, (c, e)] + T[:, (e, c)] off the diagonal.
    """
    d = int(round(math.sqrt(T.shape[0])))
    pairs = _lower_pairs(d)
    rows = [c + d * e for c, e in pairs]
    out = np.empty((len(pairs), len(pairs)))
    for k, (c, e) in enumerate(pairs):
        column = T[rows, c + d * e]
        if c != e:
            column = column + T[rows, e + d * c]
        out[:, k] = column
    return out


def _terms(aug):
    """(s2, D) over (1, Phi) and the lifts, every D over the full augmented
    state."""
    return ((1.0, aug.Phi),) + aug.lifts()


def second_moment_matrix_full_terms(aug, side):
    """Psi_s ("value") or Gamma_s ("covariance") summed from every term's
    product over all rows and columns: 0.0 + T_Phi + s2 T_lift for each
    lift, gathered, with the Omega scaling on the covariance side.  The
    reference for the package's sum, which adds each lift's product on its
    block only."""
    rows = 0.0
    for s2, D in _terms(aug):
        rows = rows + s2 * moments.term_product(D)
    psi = moments.gather_second_moment(rows)
    if side == "value":
        return psi
    omega = np.array([1.0 if c == e else 2.0 for c, e in _lower_pairs(aug.dim)])
    return psi.T * omega / omega[:, None]


def lyapunov_residual_full_terms(aug, side, M):
    """rhs - M + op(M) in the precision of M, float64 or longdouble, with
    rhs = Q' (value side) or W' (covariance side) and each term s2 D.T M D
    (D transposed on the covariance side) formed with ``@`` over the full
    augmented state, in the order Phi, then the lifts."""
    value = side == "value"
    R = (aug.Qprime if value else aug.Wprime).astype(M.dtype) - M
    for s2, D in _terms(aug):
        D = (D if value else D.T).astype(M.dtype)
        R += M.dtype.type(s2) * (D.T @ M @ D)
    return R


def certificate_residual_full_terms(aug, X):
    """X - Psi(X) in the precision of X, float64 or longdouble, each term
    formed with ``@`` and subtracted over the full augmented state, in the
    order Phi, then the lifts."""
    R = X.copy()
    for s2, D in _terms(aug):
        D = D.astype(X.dtype)
        R -= X.dtype.type(s2) * (D.T @ X @ D)
    return R


def lyapunov_by_recursion(aug, side, iterations=20_000):
    """Solve the steady-state second-moment equation by plain recursion.

    Iterates M <- op(M) + rhs from M = rhs; converges for mean-square
    stable loops.  Independent of the package's direct linear solve.
    """
    if side == "value":
        op, rhs = apply_value_operator, aug.Qprime
    else:
        op, rhs = apply_covariance_operator, aug.Wprime
    M = np.array(rhs, dtype=float)
    for _ in range(iterations):
        M = op(aug, M) + rhs
    return M


def scalar_noise_free_fixed_point():
    """Closed-form coupled fixed point for the scalar noise-free instance
    a=0.5, b=c=1, Q=I2, W=0.01*I2.

    The value equation reduces to p^2 - p/4 - 1 = 0 and its covariance dual
    to s^2 - s/400 - 1/10000 = 0; the gains follow as k = -0.5 p / (1 + p)
    and l = 0.5 s / (0.01 + s).
    """
    p = (0.25 + math.sqrt(0.25**2 + 4.0)) / 2.0
    s = (0.0025 + math.sqrt(0.0025**2 + 4.0 * 0.0001)) / 2.0
    k = -0.5 * p / (1.0 + p)
    ell = 0.5 * s / (0.01 + s)
    return p, s, k, ell


def solve_by_extended_elimination(A, b):
    """Solve A x = b by Gaussian elimination with partial pivoting in
    extended precision.

    Inputs are promoted to ``np.longdouble`` (80-bit on x86; identical to
    float64 on platforms without extended precision); returns the
    longdouble solution.
    """
    A = np.array(A, dtype=np.longdouble)
    x = np.array(b, dtype=np.longdouble)
    n = A.shape[0]
    for k in range(n - 1):
        pivot = k + int(np.argmax(np.abs(A[k:, k])))
        if pivot != k:
            A[[k, pivot]] = A[[pivot, k]]
            x[[k, pivot]] = x[[pivot, k]]
        if A[k, k] == 0.0:
            raise la.LinAlgError("matrix is singular")
        mult = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k + 1 :] -= mult[:, None] * A[k, k + 1 :]
        x[k + 1 :] -= mult * x[k]
    if A[n - 1, n - 1] == 0.0:
        raise la.LinAlgError("matrix is singular")
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - A[k, k + 1 :] @ x[k + 1 :]) / A[k, k]
    return x


def lyapunov_extended(aug, side):
    """Generalized Lyapunov solution assembled and eliminated in longdouble.

    Builds I - T with T = Phi.T (x) Phi.T + sum_i s2_i lift_i.T (x) lift_i.T
    on the value side (no transposes on the covariance side) in extended
    precision and returns the symmetrized longdouble solution, unrounded.
    """
    ld = np.longdouble
    Phi = aug.Phi.astype(ld)
    if side == "value":
        T = np.kron(Phi.T, Phi.T)
        for s2, lift in aug.lifts():
            lifted = lift.astype(ld)
            T = T + ld(s2) * np.kron(lifted.T, lifted.T)
        rhs = aug.Qprime.astype(ld)
    else:
        T = np.kron(Phi, Phi)
        for s2, lift in aug.lifts():
            lifted = lift.astype(ld)
            T = T + ld(s2) * np.kron(lifted, lifted)
        rhs = aug.Wprime.astype(ld)
    M = unvec(solve_by_extended_elimination(np.eye(T.shape[0], dtype=ld) - T, vec(rhs)))
    return 0.5 * (M + M.T)


_exact = np.vectorize(Fraction, otypes=[object])


def lyapunov_exact(aug, side, start, rounds=3):
    """Generalized Lyapunov solution of the float64 data, exact in rationals,
    refined from the float64 symmetric ``start``.

    Y is kept as an exact sum of float64 matrices.  Each round forms the
    residual rhs - Y + sum_i s2_i D_i.T Y D_i (D_i transposed on the
    covariance side) exactly in Fractions, and adds to Y its float64 image
    under the inverse of I - T restricted to symmetric matrices, T the
    Kronecker operator.  That inverse is accurate to about cond(I - T) eps,
    so each round shrinks Y's error by that factor.  Returns Y as an object
    array of Fractions.
    """
    value = side == "value"
    terms = [(s2, D if value else D.T) for s2, D in _terms(aug)]
    T = sum(s2 * np.kron(D.T, D.T) for s2, D in terms)
    correction = la.inv(np.eye(aug.dim * (aug.dim + 1) // 2) - restrict_to_symmetric(T))
    exact_terms = [(Fraction(s2), _exact(D)) for s2, D in terms]
    rhs = _exact(aug.Qprime if value else aug.Wprime)
    Y = _exact(start)
    for _ in range(rounds):
        R = rhs - Y
        for s2, D in exact_terms:
            R = R + s2 * (D.T @ Y @ D)
        Y = Y + _exact(unhvec(correction @ hvec(R.astype(float))))
    return Y


def ulps_off_exact(M, Y):
    """|M - Y| entry by entry in ulps of that entry of the float64 M, each
    ratio exact (an object array of Fractions); Y as from
    ``lyapunov_exact``."""
    ulp = _exact(np.spacing(np.abs(M)))
    return abs(_exact(M) - Y) / ulp


def _symmetrize(M):
    return 0.5 * (M + M.T)


def q_matrices(X, problem, K, L):
    """Full quadratic-form matrices (G(X), H(X)) over stacked (state, input)
    and (state, output), assembled with ``np.block`` and symmetrized; (K, L)
    are the gains entering the output- and input-noise terms."""
    sys = problem.system
    A, B, C = sys.A, sys.B, sys.C
    n, m, p = sys.n, sys.m, sys.p
    K = np.asarray(K, dtype=float)
    L = np.asarray(L, dtype=float)

    G = problem.cost.Q + np.block(
        [[A.T @ X.P @ A, A.T @ X.P @ B], [B.T @ X.P @ A, B.T @ X.P @ B]]
    )
    P_sum = X.P + X.Phat
    G_top = np.zeros((n, n))
    for t in sys.noise_a:
        G_top += t.sigma**2 * (t.pattern.T @ P_sum @ t.pattern)
    for t in sys.noise_c:
        G_top += t.sigma**2 * (t.pattern.T @ L.T @ X.Phat @ L @ t.pattern)
    G_bot = np.zeros((m, m))
    for t in sys.noise_b:
        G_bot += t.sigma**2 * (t.pattern.T @ P_sum @ t.pattern)
    G = G + np.block([[G_top, np.zeros((n, m))], [np.zeros((m, n)), G_bot]])

    H = problem.noise.W + np.block(
        [[A @ X.S @ A.T, A @ X.S @ C.T], [C @ X.S @ A.T, C @ X.S @ C.T]]
    )
    S_sum = X.S + X.Shat
    H_top = np.zeros((n, n))
    for t in sys.noise_a:
        H_top += t.sigma**2 * (t.pattern @ S_sum @ t.pattern.T)
    for t in sys.noise_b:
        H_top += t.sigma**2 * (t.pattern @ K @ X.Shat @ K.T @ t.pattern.T)
    H_bot = np.zeros((p, p))
    for t in sys.noise_c:
        H_bot += t.sigma**2 * (t.pattern @ S_sum @ t.pattern.T)
    H = H + np.block([[H_top, np.zeros((n, p))], [np.zeros((p, n)), H_bot]])

    return _symmetrize(G), _symmetrize(H)


def riccati_residual_full(X, problem):
    """R(X) as (P, Phat, S, Shat) blocks from the full G and H.

    The gains and both Schur complements are solved from the blocks of the
    assembled matrices: K = -G_uu^{-1} G_ux, L = H_xy H_yy^{-1},
    Zg = G_xu G_uu^{-1} G_ux and Zh = H_xy H_yy^{-1} H_yx.
    """
    n = problem.n
    A, B, C = problem.system.A, problem.system.B, problem.system.C
    # the gain blocks do not depend on the gains, so zero gains give them
    G, H = q_matrices(X, problem, np.zeros((problem.m, n)), np.zeros((n, problem.p)))
    K = -la.solve(G[n:, n:], G[n:, :n])
    L = la.solve(H[n:, n:].T, H[:n, n:].T).T
    G, H = q_matrices(X, problem, K, L)
    Zg = G[:n, n:] @ la.solve(G[n:, n:], G[n:, :n])
    Zh = H[:n, n:] @ la.solve(H[n:, n:], H[n:, :n])
    ALC = A - L @ C
    ABK = A + B @ K
    return (
        _symmetrize(-X.P + G[:n, :n] - Zg),
        _symmetrize(-X.Phat + ALC.T @ X.Phat @ ALC + Zg),
        _symmetrize(-X.S + H[:n, :n] - Zh),
        _symmetrize(-X.Shat + ABK @ X.Shat @ ABK.T + Zh),
    )


def optimal_cost(X, K, L, problem):
    """Cost at a converged solution, from the cost-weight/covariance side.

    Returns <Q_xx, S> + <[I; K]^T Q [I; K], Shat> and asserts agreement with
    the dual form <W_xx, P> + <[I, -L] W [I, -L]^T, Phat>; raises
    DualityViolation on disagreement beyond 1e-9 relative.
    """
    n = problem.n
    K = np.asarray(K, dtype=float)
    L = np.asarray(L, dtype=float)
    Qxx = problem.q_blocks()[0]
    Wxx = problem.w_blocks()[0]
    IK = np.vstack([np.eye(n), K])
    J_q = frobenius(Qxx, X.S) + frobenius(IK.T @ problem.cost.Q @ IK, X.Shat)
    IL = np.hstack([np.eye(n), -L])
    J_w = frobenius(Wxx, X.P) + frobenius(IL @ problem.noise.W @ IL.T, X.Phat)
    if abs(J_q - J_w) > 1e-9 * (1.0 + abs(J_q)):
        raise DualityViolation(J_q, J_w)
    return J_q


def monte_carlo_cost_reference(problem, ctrl, horizon, trials, seed):
    """Monte-Carlo average cost from the raw system equations, step by step.

    The reference for ``bench.monte_carlo_cost``: simulates x, y, u and xhat
    one step at a time, drawing per step the additive noise (w, v) and then
    the A, B and C noise scalars, exactly the stream the package draws in
    blocks.  Raises UnstableRollout at the first step whose x is non-finite
    or above 1e100 in magnitude.
    """
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be >= 1")
    sys = problem.system
    n, p = sys.n, sys.p
    if ctrl.F.shape != (n, n) or ctrl.K.shape != (sys.m, n) or ctrl.L.shape != (n, p):
        raise ValueError("controller dimensions do not match the problem")
    rng = np.random.default_rng(seed)
    W_factor = psd_factor(problem.noise.W)
    X0_factor = psd_factor(problem.noise.X0)
    x = rng.standard_normal((trials, n)) @ X0_factor.T
    xhat = np.zeros((trials, n))
    costs = np.zeros(trials)
    Q = problem.cost.Q
    for step in range(horizon):
        wv = rng.standard_normal((trials, n + p)) @ W_factor.T
        alphas = [rng.standard_normal((trials, 1)) for _ in sys.noise_a]
        betas = [rng.standard_normal((trials, 1)) for _ in sys.noise_b]
        gammas = [rng.standard_normal((trials, 1)) for _ in sys.noise_c]

        u = xhat @ ctrl.K.T
        z = np.hstack([x, u])
        costs += np.einsum("ti,ij,tj->t", z, Q, z)

        y = x @ sys.C.T + wv[:, n:]
        for g, t in zip(gammas, sys.noise_c):
            y += t.sigma * g * (x @ t.pattern.T)
        x_next = x @ sys.A.T + u @ sys.B.T + wv[:, :n]
        for a, t in zip(alphas, sys.noise_a):
            x_next += t.sigma * a * (x @ t.pattern.T)
        for b, t in zip(betas, sys.noise_b):
            x_next += t.sigma * b * (u @ t.pattern.T)
        xhat = xhat @ ctrl.F.T + y @ ctrl.L.T
        x = x_next
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e100:
            raise UnstableRollout(step)
    per_trial = costs / horizon
    mean = float(per_trial.mean())
    stderr = float(per_trial.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return RolloutEstimate(horizon, trials, seed, mean, stderr)


def reference_gain_blocks(X, problem):
    """(G_ux, G_uu, H_xy, H_yy, P + Phat, S + Shat): the gain blocks of G(X)
    and H(X), each product evaluated left to right with ``@``, and the two
    block sums the residual's noise terms take."""
    sys = problem.system
    A, B, C = sys.A, sys.B, sys.C
    _, _, Qux, Quu = problem.q_blocks()
    _, Wxy, _, Wyy = problem.w_blocks()

    P_sum = X.P + X.Phat
    Guu = Quu + B.T @ X.P @ B
    for t in sys.noise_b:
        Guu = Guu + t.sigma**2 * (t.pattern.T @ P_sum @ t.pattern)
    Gux = Qux + B.T @ X.P @ A

    S_sum = X.S + X.Shat
    Hyy = Wyy + C @ X.S @ C.T
    for t in sys.noise_c:
        Hyy = Hyy + t.sigma**2 * (t.pattern @ S_sum @ t.pattern.T)
    Hxy = Wxy + A @ X.S @ C.T
    return Gux, Guu, Hxy, Hyy, P_sum, S_sum


def reference_gains(X, problem):
    """(K, L) = (-G_uu^{-1} G_ux, H_xy H_yy^{-1}) by ``la.solve``, with no
    condition check: the package's checks only raise, they change no bit."""
    Gux, Guu, Hxy, Hyy, _, _ = reference_gain_blocks(X, problem)
    return -la.solve(Guu, Gux), la.solve(Hyy.T, Hxy.T).T


def reference_residual(X, problem):
    """R(X) as four symmetrized blocks (P, Phat, S, Shat), from the gain
    blocks, the corners G_xx and H_xx, and the Schur complements -G_ux^T K
    and L H_xy^T, every product in ``@`` form.  Bitwise the value
    iteration's reference: the package's step must reproduce it."""
    sys = problem.system
    A, B, C = sys.A, sys.B, sys.C
    Qxx = problem.q_blocks()[0]
    Wxx = problem.w_blocks()[0]
    Gux, Guu, Hxy, Hyy, P_sum, S_sum = reference_gain_blocks(X, problem)
    K = -la.solve(Guu, Gux)
    L = la.solve(Hyy.T, Hxy.T).T

    Gxx = Qxx + A.T @ X.P @ A
    for t in sys.noise_a:
        Gxx = Gxx + t.sigma**2 * (t.pattern.T @ P_sum @ t.pattern)
    for t in sys.noise_c:
        LC = L @ t.pattern
        Gxx = Gxx + t.sigma**2 * (LC.T @ X.Phat @ LC)

    Hxx = Wxx + A @ X.S @ A.T
    for t in sys.noise_a:
        Hxx = Hxx + t.sigma**2 * (t.pattern @ S_sum @ t.pattern.T)
    for t in sys.noise_b:
        BK = t.pattern @ K
        Hxx = Hxx + t.sigma**2 * (BK @ X.Shat @ BK.T)

    Zg = -Gux.T @ K
    Zh = L @ Hxy.T
    ALC = A - L @ C
    ABK = A + B @ K
    return (
        _symmetrize(-X.P + Gxx - Zg),
        _symmetrize(-X.Phat + ALC.T @ X.Phat @ ALC + Zg),
        _symmetrize(-X.S + Hxx - Zh),
        _symmetrize(-X.Shat + ABK @ X.Shat @ ABK.T + Zh),
    )


def value_iteration_step(X, problem):
    """One update X <- X + R(X), blockwise, with R from ``reference_residual``."""
    R = reference_residual(X, problem)
    return ValueCovarianceTuple(*(x + r for x, r in zip(X.blocks(), R)))


def value_iteration_reference(problem, tol=DEFAULT_TOL, max_iter=VI_MAX_ITER):
    """Value iteration from X = 0 as a plain loop of ``value_iteration_step``.

    Each step size is the max over blocks of ``la.norm`` of the difference,
    and the loop stops by the solvers' rule, step <= max(tol,
    STEP_FLOOR_ULPS eps ||X||).  Returns (iterates, step sizes); raises
    AssertionError when the cap is hit first.
    """
    eps = np.finfo(np.float64).eps
    X = ValueCovarianceTuple(*np.zeros((4, problem.n, problem.n)))
    iterates, steps = [X], []
    for _ in range(max_iter):
        X_next = value_iteration_step(X, problem)
        delta = max(float(la.norm(a - b)) for a, b in zip(X_next.blocks(), X.blocks()))
        iterates.append(X_next)
        steps.append(delta)
        X = X_next
        norm = max(float(la.norm(b)) for b in X.blocks())
        if delta <= max(tol, STEP_FLOOR_ULPS * eps * norm):
            return iterates, steps
    raise AssertionError(f"value iteration did not converge in {max_iter} steps")


def critical_noise_scale_reference(A, Ad, variance):
    """The critical-noise bisection, assembling the instance at each midpoint.

    Same arguments, bracket, bisection and stopping rules as the instance
    generator's ``bench._critical_noise_scale``; every radius evaluation
    builds a problem with A-noise sigma sqrt(c * variance), its open loop
    and the whole Psi_s.  At the open loop (K = 0, L = 0) the B- and
    C-lifts vanish whatever B, C and their patterns, so these are all ones,
    with B- and C-noise of sigma 1, one input and one output.
    """
    n = A.shape[0]
    ones_b, ones_c = np.ones((n, 1)), np.ones((1, n))

    def radius(c):
        system = SystemModel(
            A,
            ones_b,
            ones_c,
            noise_a=(NoiseTerm(np.sqrt(c * variance), Ad),),
            noise_b=(NoiseTerm(1.0, ones_b),),
            noise_c=(NoiseTerm(1.0, ones_c),),
        )
        problem = ProblemInstance(system, CostModel(np.eye(n + 1)), NoiseModel(W=np.eye(n + 1), X0=np.zeros((n, n))))
        aug = moments.build_augmented(problem, open_loop_controller(problem))
        return moments.spectral_radius(moments.build_second_moment_matrix(aug, "value"))

    hi = 1.0
    for _ in range(80):
        if radius(hi) >= 1.0:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = radius(mid)
        if abs(r - 1.0) <= 1e-10:
            return mid
        if r < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def convergence_metric_reference(history, reference):
    """e_k = max over blocks of ||M_k - M*||_F / ||M_0 - M*||_F, a block
    whose initial error is at most 1e-300 counting 0, for ``history`` a
    (k, 4, n, n) trajectory: one ``la.norm`` per block and iterate."""
    if not len(history):
        return []
    base = [float(la.norm(b0 - br)) for b0, br in zip(history[0], reference.blocks())]
    return [
        max(
            0.0 if den <= 1e-300 else float(la.norm(bk - br)) / den
            for bk, br, den in zip(X, reference.blocks(), base)
        )
        for X in history
    ]
