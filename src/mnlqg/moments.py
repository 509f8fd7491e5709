"""Second-moment analysis of the augmented closed loop.

Closing the loop with a compensator (F, K, L) stacks the state and the state
estimate into z = [x; xhat], whose mean transition matrix and lifted noise
directions are

    Phi = [[A, B K], [L C, F]],
    An'[i] = [[An[i], 0], [0, 0]],       (state-dependent noise)
    Bn'[i] = [[0, Bn[i] K], [0, 0]],     (input-dependent noise)
    Cn'[i] = [[0, 0], [L Cn[i], 0]],     (output-dependent noise)

with effective stage weight Q' and injected covariance W' obtained by
congruence of Q and W with [[I, 0], [0, K]] and [[I, 0], [0, L]].

The linear operator M -> E[Phi_t.T M Phi_t] acting on symmetric matrices is
represented explicitly through column-major vectorization,

    Psi = Phi.T (x) Phi.T + sum_i sigma_i^2 lift_i.T (x) lift_i.T,

and its covariance-side dual Gamma drops the transposes, so Gamma = Psi.T and
both share one spectrum.  The closed loop is mean-square stable iff the
spectral radius is below one, in which case the steady-state value matrix P'
and second moment S' solve the generalized discrete Lyapunov equations

    P' = Psi(P') + Q',        S' = Gamma(S') + W',

and the average cost of the policy is <P', W'> = <S', Q'>.  A policy
evaluation builds I - Psi once, decides stability once, and solves both
equations with it (the covariance side with the transpose): one float64
LAPACK solve per side, refined with extended-precision residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from .exceptions import DualityViolation, EigenvalueFailure, NotMsStable
from .matrixmath import frobenius, solve_linear_extended, symmetrize, unvec, vec
from .model import Controller, ProblemInstance

__all__ = [
    "STABILITY_MARGIN",
    "AugmentedClosedLoop",
    "SecondMomentOperator",
    "AugmentedSolution",
    "ValueCovarianceTuple",
    "build_augmented",
    "build_second_moment_matrix",
    "spectral_radius",
    "is_ms_stable",
    "solve_lyapunov",
    "solve_both",
    "evaluate_cost",
    "extract_tuple",
    "evaluate_policy",
]

# radius < 1 - STABILITY_MARGIN counts as mean-square stable; the margin
# guards the dense solve against a near-singular (I - Psi).
STABILITY_MARGIN = 1e-9

COST_DUALITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AugmentedClosedLoop:
    """Augmented closed-loop data: mean transition, weights, noise lifts.

    Each lift entry is a pair (sigma^2, 2n x 2n direction matrix).
    """

    Phi: np.ndarray
    Qprime: np.ndarray
    Wprime: np.ndarray
    lifts_a: tuple[tuple[float, np.ndarray], ...]
    lifts_b: tuple[tuple[float, np.ndarray], ...]
    lifts_c: tuple[tuple[float, np.ndarray], ...]

    @property
    def dim(self) -> int:
        return self.Phi.shape[0]

    def lifts(self):
        return self.lifts_a + self.lifts_b + self.lifts_c


@dataclass(frozen=True, eq=False)
class SecondMomentOperator:
    """Explicit matrix of the second-moment operator on vectorized inputs."""

    matrix: np.ndarray
    side: str  # "value" (Psi) or "covariance" (Gamma)


@dataclass(frozen=True, eq=False)
class AugmentedSolution:
    """Steady-state value matrix P' and second moment S' of a stable loop."""

    Pprime: np.ndarray
    Sprime: np.ndarray


@dataclass(frozen=True, eq=False)
class ValueCovarianceTuple:
    """The joint variable X = (P, Phat, S, Shat) of the coupled equations."""

    P: np.ndarray
    Phat: np.ndarray
    S: np.ndarray
    Shat: np.ndarray

    def __post_init__(self):
        for name in ("P", "Phat", "S", "Shat"):
            M = symmetrize(np.asarray(getattr(self, name), dtype=float))
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @classmethod
    def zeros(cls, n: int) -> "ValueCovarianceTuple":
        Z = np.zeros((n, n))
        return cls(Z, Z, Z, Z)

    def blocks(self):
        return (self.P, self.Phat, self.S, self.Shat)

    def distance(self, other: "ValueCovarianceTuple") -> float:
        """Max over blocks of the Frobenius norm of the difference."""
        return max(
            float(la.norm(a - b)) for a, b in zip(self.blocks(), other.blocks())
        )

    def max_norm(self) -> float:
        return max(float(la.norm(b)) for b in self.blocks())

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(b)) for b in self.blocks())


def build_augmented(problem: ProblemInstance, ctrl: Controller) -> AugmentedClosedLoop:
    """Assemble the augmented closed loop for a problem/controller pair."""
    sys = problem.system
    n, m, p = sys.n, sys.m, sys.p
    if ctrl.F.shape != (n, n) or ctrl.K.shape != (m, n) or ctrl.L.shape != (n, p):
        raise ValueError(
            f"controller shapes {ctrl.F.shape}/{ctrl.K.shape}/{ctrl.L.shape} do not "
            f"match problem dimensions n={n}, m={m}, p={p}"
        )
    A, B, C = sys.A, sys.B, sys.C
    K, L = ctrl.K, ctrl.L

    def blocks(xx, xz, zx, zz):
        out = np.empty((2 * n, 2 * n))
        out[:n, :n], out[:n, n:], out[n:, :n], out[n:, n:] = xx, xz, zx, zz
        return out

    Phi = blocks(A, B @ K, L @ C, ctrl.F)
    Qxx, Qxu, Qux, Quu = problem.q_blocks()
    Qprime = blocks(Qxx, Qxu @ K, K.T @ Qux, K.T @ Quu @ K)
    Wxx, Wxy, Wyx, Wyy = problem.w_blocks()
    Wprime = blocks(Wxx, Wxy @ L.T, L @ Wyx, L @ Wyy @ L.T)
    lifts_a = tuple(
        (t.sigma**2, blocks(t.pattern, 0.0, 0.0, 0.0)) for t in sys.noise_a
    )
    lifts_b = tuple(
        (t.sigma**2, blocks(0.0, t.pattern @ K, 0.0, 0.0)) for t in sys.noise_b
    )
    lifts_c = tuple(
        (t.sigma**2, blocks(0.0, 0.0, L @ t.pattern, 0.0)) for t in sys.noise_c
    )
    return AugmentedClosedLoop(
        Phi, symmetrize(Qprime), symmetrize(Wprime), lifts_a, lifts_b, lifts_c
    )


def build_second_moment_matrix(aug: AugmentedClosedLoop, side: str) -> SecondMomentOperator:
    """Explicit (2n)^2 x (2n)^2 matrix of Psi ("value") or Gamma = Psi.T."""
    if side not in ("value", "covariance"):
        raise ValueError(f"side must be 'value' or 'covariance', got {side!r}")
    T = np.kron(aug.Phi.T, aug.Phi.T)
    for s2, M in aug.lifts():
        T += s2 * np.kron(M.T, M.T)
    return SecondMomentOperator(T if side == "value" else T.T, side)


def spectral_radius(op: SecondMomentOperator) -> float:
    """Magnitude of the dominant eigenvalue of the operator matrix."""
    try:
        eigs = la.eigvals(op.matrix)
    except la.LinAlgError as exc:
        raise EigenvalueFailure(f"eigenvalue computation failed: {exc}") from exc
    radius = float(np.max(np.abs(eigs)))
    if not np.isfinite(radius):
        raise EigenvalueFailure("eigenvalue computation produced non-finite values")
    return radius


def is_ms_stable(aug: AugmentedClosedLoop) -> tuple[bool, float]:
    """Mean-square stability decision and the second-moment spectral radius.

    The value-side radius is used for the decision on both sides (the two
    operators share their spectrum).
    """
    radius = spectral_radius(build_second_moment_matrix(aug, "value"))
    return radius < 1.0 - STABILITY_MARGIN, radius


def _lyapunov_matrix(aug: AugmentedClosedLoop) -> np.ndarray:
    """I - Psi of a mean-square stable loop; raises NotMsStable otherwise."""
    psi = build_second_moment_matrix(aug, "value")
    radius = spectral_radius(psi)
    if not radius < 1.0 - STABILITY_MARGIN:
        raise NotMsStable(radius)
    return np.eye(psi.matrix.shape[0]) - psi.matrix


def _solve_side(aug: AugmentedClosedLoop, lyap: np.ndarray, side: str) -> np.ndarray:
    """Solve one side given I - Psi, refining with longdouble residuals.

    Both operators are M -> sum_i s2_i D_i.T M D_i over (1, Phi) and the
    lifts, transposed on the covariance side, so the residual
    rhs - (M - op(M)) is applied in matrix form, without a Kronecker product.
    """
    value = side == "value"
    A_lin, rhs = (lyap, aug.Qprime) if value else (lyap.T, aug.Wprime)
    terms = [
        (np.longdouble(s2), (D if value else D.T).astype(np.longdouble))
        for s2, D in ((1.0, aug.Phi),) + aug.lifts()
    ]
    rhs_ld, d = rhs.astype(np.longdouble), rhs.shape[0]

    def residual(x):
        M = x.reshape((d, d), order="F")
        R = rhs_ld - M
        for s2, D in terms:
            R += s2 * (D.T @ M @ D)
        return vec(R)

    x = solve_linear_extended(A_lin, vec(rhs), residual)
    return symmetrize(unvec(x)).astype(np.float64)


def solve_lyapunov(aug: AugmentedClosedLoop, side: str) -> np.ndarray:
    """Steady-state solution of the generalized Lyapunov equation.

    side="value" returns P' solving P' = Psi(P') + Q'; side="covariance"
    returns S' solving S' = Gamma(S') + W'.  The dense system
    (I - T) vec(M) = vec(rhs) ((2n)^2 unknowns) is solved in float64 with
    I - Psi, or its transpose I - Gamma, and refined with residuals in
    extended precision (``matrixmath.solve_linear_extended``); the
    symmetrized result is rounded to float64, within one ulp per entry.

    Raises NotMsStable when the loop's spectral radius is not inside the
    stability margin.
    """
    if side not in ("value", "covariance"):
        raise ValueError(f"side must be 'value' or 'covariance', got {side!r}")
    return _solve_side(aug, _lyapunov_matrix(aug), side)


def solve_both(aug: AugmentedClosedLoop) -> AugmentedSolution:
    """Solve both sides as ``solve_lyapunov`` does, sharing one I - Psi and
    one stability decision (NotMsStable when the loop is not stable)."""
    lyap = _lyapunov_matrix(aug)
    return AugmentedSolution(
        Pprime=_solve_side(aug, lyap, "value"),
        Sprime=_solve_side(aug, lyap, "covariance"),
    )


def evaluate_cost(sol: AugmentedSolution, aug: AugmentedClosedLoop) -> float:
    """Average cost <P', W'> of the policy, cross-checked against <S', Q'>.

    Raises DualityViolation when the two forms disagree beyond
    1e-9 * (1 + |J|), which signals an upstream solve bug.
    """
    J = frobenius(sol.Pprime, aug.Wprime)
    J_dual = frobenius(sol.Sprime, aug.Qprime)
    if abs(J - J_dual) > COST_DUALITY_TOL * (1.0 + abs(J)):
        raise DualityViolation(J, J_dual)
    return J


def extract_tuple(sol: AugmentedSolution) -> ValueCovarianceTuple:
    """Split (P', S') into the joint variable X = (P, Phat, S, Shat).

    P = [I I] P' [I I]^T, Phat = lower-right block of P', S = [I -I] S'
    [I -I]^T (the steady second moment of the estimation error x - xhat),
    Shat = lower-right block of S' (the second moment of xhat).
    """
    n = sol.Pprime.shape[0] // 2
    Pp, Sp = sol.Pprime, sol.Sprime
    P = Pp[:n, :n] + Pp[:n, n:] + Pp[n:, :n] + Pp[n:, n:]
    Phat = Pp[n:, n:]
    S = Sp[:n, :n] - Sp[:n, n:] - Sp[n:, :n] + Sp[n:, n:]
    Shat = Sp[n:, n:]
    return ValueCovarianceTuple(P, Phat, S, Shat)


def evaluate_policy(problem: ProblemInstance, ctrl: Controller):
    """Full policy evaluation: returns (aug, solution, cost).

    Raises NotMsStable when the controller does not stabilize the loop in
    the mean-square sense.
    """
    aug = build_augmented(problem, ctrl)
    sol = solve_both(aug)
    return aug, sol, evaluate_cost(sol, aug)
