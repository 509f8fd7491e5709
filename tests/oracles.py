"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately written from the defining recursions and
expectations, independent of the package's solver code paths: the classical
decoupled Riccati designs are plain fixed-point iterations on the mean
system, the second-moment operator is applied by expanding the expectation
congruence term by term (no Kronecker products), the extended-precision
Lyapunov reference assembles the Kronecker lift in longdouble and eliminates
it with a plain Gaussian elimination (no LAPACK), and the scalar fixed point
comes from the closed-form quadratic.
"""

import math

import numpy as np
import numpy.linalg as la


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
    x = solve_by_extended_elimination(np.eye(T.shape[0], dtype=ld) - T, rhs.reshape(-1, order="F"))
    M = x.reshape(rhs.shape, order="F")
    return 0.5 * (M + M.T)
