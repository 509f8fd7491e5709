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

Stability is decided without eigenvalues where possible.  Psi maps positive
semidefinite matrices to positive semidefinite ones, so the positive-operator
criterion (Damm, *Rational Matrix Equations in Stochastic Control*, 2004)
applies: with X solving X - Psi(X) = I and R = X - Psi(X) recomputed for the
rounded X, X > 0 and R >= r I with r > 0 give Psi(X) <= (1 - r / lmax(X)) X,
hence rho(Psi) <= 1 - r / lmax(X); and R > 0 with X not positive
semidefinite gives rho(Psi) > 1.  Only when this test cannot decide is the
dense spectral radius computed.
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
    "StabilityDecision",
    "ValueCovarianceTuple",
    "build_augmented",
    "build_second_moment_matrix",
    "spectral_radius",
    "is_ms_stable",
    "decide_stability",
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


def _operator_terms(aug: AugmentedClosedLoop, value: bool):
    """Longdouble pairs (s2_i, D_i) with op(M) = sum_i s2_i D_i.T M D_i.

    The pairs run over (1, Phi) and the lifts, transposed on the covariance
    side, so an operator is applied in matrix form, without a Kronecker
    product.
    """
    return [
        (np.longdouble(s2), (D if value else D.T).astype(np.longdouble))
        for s2, D in ((1.0, aug.Phi),) + aug.lifts()
    ]


def _positive_operator_test(aug: AugmentedClosedLoop, lyap: np.ndarray) -> bool | None:
    """Stability certificate from one solve with ``lyap`` = I - Psi.

    Solves X - Psi(X) = I, symmetrizes X and recomputes R = X - Psi(X) in
    longdouble.  Psi is a positive operator, so (Damm 2004):

    * X > 0 and R >= r I, r > 0: Psi(X) <= X - r I <= (1 - r / lmax(X)) X,
      hence rho(Psi) <= 1 - r / lmax(X).  True when that bound is below
      1 - STABILITY_MARGIN.
    * R > 0 and X not positive semidefinite: a stable loop would have
      X = sum_k Psi^k(R) >= R > 0, hence rho(Psi) > 1.  False.

    None otherwise (singular or non-finite solve, R not positive definite,
    X nearly singular, or a bound too close to 1).  Eigenvalues count only
    beyond an allowance for the rounding of R and of ``eigvalsh``.
    """
    d = aug.dim
    try:
        X = symmetrize(unvec(la.solve(lyap, vec(np.eye(d)))))
    except la.LinAlgError:
        return None
    if not np.all(np.isfinite(X)):
        return None
    X_ld = X.astype(np.longdouble)
    R = X_ld.copy()
    for s2, D in _operator_terms(aug, value=True):
        R -= s2 * (D.T @ X_ld @ D)
    wX = la.eigvalsh(X)
    wR = la.eigvalsh(symmetrize(R).astype(np.float64))
    # ||X||_F + ||Psi(X)||_F <= gain * ||X||_F: the scale of the longdouble sum
    gain = 1.0 + sum(s2 * float(la.norm(D)) ** 2 for s2, D in ((1.0, aug.Phi),) + aug.lifts())
    eps, eps_ld = np.finfo(np.float64).eps, float(np.finfo(np.longdouble).eps)
    slack_X = d * eps * max(-wX[0], wX[-1])
    slack_R = d * eps * max(-wR[0], wR[-1]) + 4 * d * eps_ld * gain * float(la.norm(X))
    r = wR[0] - slack_R
    if not r > 0.0:
        return None
    if wX[0] > slack_X:
        return True if 1.0 - r / (wX[-1] + slack_X) < 1.0 - STABILITY_MARGIN else None
    return False if wX[0] < -slack_X else None


@dataclass(eq=False)
class StabilityDecision:
    """One mean-square stability decision of a closed loop.

    ``operator`` is Psi and ``lyap`` is I - Psi.  ``exact_radius`` holds the
    spectral radius once it has been computed: by the fallback when the
    positive-operator test cannot decide, or on request by ``radius()``.
    """

    stable: bool
    operator: SecondMomentOperator
    lyap: np.ndarray
    exact_radius: float | None = None

    def radius(self) -> float:
        """The exact spectral radius, computed on first request."""
        if self.exact_radius is None:
            self.exact_radius = spectral_radius(self.operator)
        return self.exact_radius


def decide_stability(aug: AugmentedClosedLoop) -> StabilityDecision:
    """Decide mean-square stability by the positive-operator test first.

    The test costs one extra solve with I - Psi.  When it cannot decide, the
    decision is the exact one of ``is_ms_stable``: spectral radius below
    1 - STABILITY_MARGIN.
    """
    psi = build_second_moment_matrix(aug, "value")
    lyap = np.eye(psi.matrix.shape[0]) - psi.matrix
    verdict = _positive_operator_test(aug, lyap)
    decision = StabilityDecision(bool(verdict), psi, lyap)
    if verdict is None:
        decision.stable = decision.radius() < 1.0 - STABILITY_MARGIN
    return decision


def _lyapunov_matrix(aug: AugmentedClosedLoop) -> np.ndarray:
    """I - Psi of a mean-square stable loop (``decide_stability``); raises
    NotMsStable with the exact spectral radius otherwise."""
    decision = decide_stability(aug)
    if not decision.stable:
        raise NotMsStable(decision.radius())
    return decision.lyap


def _solve_side(aug: AugmentedClosedLoop, lyap: np.ndarray, side: str) -> np.ndarray:
    """Solve one side given I - Psi, refining with longdouble residuals.

    The residual rhs - (M - op(M)) is applied in matrix form
    (``_operator_terms``).
    """
    value = side == "value"
    A_lin, rhs = (lyap, aug.Qprime) if value else (lyap.T, aug.Wprime)
    terms = _operator_terms(aug, value)
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

    Raises NotMsStable when the loop is not mean-square stable, as decided
    by ``decide_stability``.
    """
    if side not in ("value", "covariance"):
        raise ValueError(f"side must be 'value' or 'covariance', got {side!r}")
    return _solve_side(aug, _lyapunov_matrix(aug), side)


def solve_both(aug: AugmentedClosedLoop) -> AugmentedSolution:
    """Solve both sides as ``solve_lyapunov`` does, sharing one I - Psi and
    one stability decision (``decide_stability``: the positive-operator
    test, and the spectral radius only when it cannot decide; NotMsStable
    with the exact radius when the loop is not stable)."""
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
