"""Coupled Riccati equations for jointly optimal control and estimation.

With multiplicative noise the control and estimation designs do not
separate: the optimality conditions couple four n x n unknowns
X = (P, Phat, S, Shat) through two quadratic-form operators

    G(X)  over stacked (state, input)   -- the control side,
    H(X)  over stacked (state, output)  -- the estimation side,

whose gain blocks (``q_operators``) give the gain updates

    K(X) = -G_uu^{-1} G_ux,      L(X) = H_xy H_yy^{-1},

and whose Schur complements, which reuse the gains as -G_ux^T K and
L H_xy^T, give the fixed-point map; G and H are never assembled whole.  The
residual R(X) stacks the four defining equations; X* solves R(X*) = 0 and
the optimal compensator is (A + B K(X*) - L(X*) C, K(X*), L(X*)).

Two solvers are provided:

* ``value_iteration_solve``: the contraction X <- X + R(X) from X = 0; needs
  no stabilizing policy but converges at a linear rate.
* ``policy_iteration_solve``: alternates exact policy evaluation (via the
  generalized Lyapunov equations) with the gain update; needs a mean-square
  stabilizing initial policy and converges in few iterations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from . import moments
from .exceptions import (
    Diverged,
    InitialPolicyNotStabilizing,
    IterateNotStabilizing,
    MaxIterationsExceeded,
    NotMsStable,
    SingularBlock,
    SolverError,
)
from .matrixmath import condition_number, frobenius_norm, symmetrize
from .model import Controller, ProblemInstance
from .moments import ValueCovarianceTuple

__all__ = [
    "DEFAULT_TOL",
    "VI_MAX_ITER",
    "PI_MAX_ITER",
    "QFunctionPair",
    "RiccatiResidual",
    "HistoryEntry",
    "SolveReport",
    "gain_operators",
    "q_operators",
    "riccati_residual",
    "value_iteration_solve",
    "policy_iteration_solve",
    "noise_free_gains",
    "open_loop_controller",
    "noise_free_controller",
    "stabilizing_initial_controller",
]

DEFAULT_TOL = 1e-12
VI_MAX_ITER = 100_000
PI_MAX_ITER = 1_000

COND_LIMIT = 1e12
OVERFLOW_GUARD = 1e100
# Float64 floor of the stopping test, in units of eps * ||X||: once the step
# is this close to rounding noise the iterates have stopped moving.  Measured
# steps of converged policy iteration level off at 8-23 eps * ||X||.
STEP_FLOOR_ULPS = 32


@dataclass(frozen=True, eq=False)
class QFunctionPair:
    """Gain-relevant blocks of the control-side G(X) and estimation-side H(X),
    with the parts of them that the residual's corners G_xx and H_xx reuse."""

    Gux: np.ndarray  # m x n
    Guu: np.ndarray  # m x m
    Hxy: np.ndarray  # n x p
    Hyy: np.ndarray  # p x p
    Qxx: np.ndarray  # n x n
    Wxx: np.ndarray  # n x n
    P_sum: np.ndarray  # P + Phat
    S_sum: np.ndarray  # S + Shat


@dataclass(frozen=True, eq=False)
class RiccatiResidual:
    """The four stacked equation residuals at some X, one block per unknown."""

    P: np.ndarray
    Phat: np.ndarray
    S: np.ndarray
    Shat: np.ndarray

    def blocks(self):
        return (self.P, self.Phat, self.S, self.Shat)

    def block_norms(self):
        return tuple(frobenius_norm(b) for b in self.blocks())

    def max_norm(self) -> float:
        return max(self.block_norms())


@dataclass(frozen=True)
class HistoryEntry:
    """One iteration record: step size (None for the first policy
    evaluation) and cumulative wall-clock seconds."""

    delta: float | None
    seconds: float


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a coupled-Riccati solve.

    ``solution_history`` keeps the full iterate trajectory so convergence
    metrics can be computed against a reference fixed point afterwards; it is
    not part of the serialized report.
    """

    controller: Controller
    solution: ValueCovarianceTuple
    cost: float
    iterations: int
    residual_norm: float
    history: tuple[HistoryEntry, ...]
    method: str  # "policy_iteration" or "value_iteration"
    converged: bool
    solution_history: tuple[ValueCovarianceTuple, ...]


def _step_converged(delta: float, norm: float, tol: float) -> bool:
    """Stopping test shared by both solvers: step <= max(tol, c eps ||X||).

    ``delta`` is the blockwise max Frobenius norm of the step and ``norm``
    (||X||) the blockwise max Frobenius norm of the new iterate.  The absolute
    ``tol`` governs until ||X|| exceeds tol / (c eps) (about 140 at the
    default 1e-12); beyond that a float64 iterate cannot resolve a step of
    ``tol`` and the relative floor takes over.
    """
    floor = STEP_FLOOR_ULPS * np.finfo(np.float64).eps * norm
    return delta <= max(tol, floor)


def _check_condition(M, name):
    """SingularBlock when M's condition number is not finite or exceeds
    COND_LIMIT, or when its singular values do not converge (NaN entries)."""
    try:
        cond = condition_number(M)
    except la.LinAlgError as exc:
        raise SingularBlock(name, math.nan) from exc
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise SingularBlock(name, cond)


def q_operators(X: ValueCovarianceTuple, problem: ProblemInstance) -> QFunctionPair:
    """The gain blocks G_ux, G_uu, H_xy, H_yy of G(X) and H(X), formed only here.

    None of them depends on the gains; G_xu = G_ux^T and H_yx = H_xy^T.
    The pair also keeps Q_xx, W_xx and the sums P + Phat and S + Shat for
    ``riccati_residual``.
    """
    sys = problem.system
    A, B, C = sys.A, sys.B, sys.C
    Qxx, _, Qux, Quu = problem.q_blocks()
    Wxx, Wxy, _, Wyy = problem.w_blocks()

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
    return QFunctionPair(Gux, Guu, Hxy, Hyy, Qxx, Wxx, P_sum, S_sum)


def _gains(q: QFunctionPair):
    """(K, L) from the gain blocks, each solve after its condition check."""
    _check_condition(q.Guu, "G_uu")
    K = -la.solve(q.Guu, q.Gux)
    _check_condition(q.Hyy, "H_yy")
    L = la.solve(q.Hyy.T, q.Hxy.T).T
    return K, L


def gain_operators(X: ValueCovarianceTuple, problem: ProblemInstance):
    """Gains (K, L) at X; SingularBlock when G_uu or H_yy is singular."""
    return _gains(q_operators(X, problem))


def riccati_residual(X: ValueCovarianceTuple, problem: ProblemInstance) -> RiccatiResidual:
    """R(X): one symmetric n x n residual block per unknown.

    Besides the gain blocks, forms only the corners G_xx and H_xx, from the
    weights and block sums that ``q_operators`` keeps; the Schur
    complements G_xu G_uu^{-1} G_ux = -G_ux^T K and H_xy H_yy^{-1} H_yx =
    L H_xy^T reuse the gains."""
    sys = problem.system
    A, B, C = sys.A, sys.B, sys.C
    q = q_operators(X, problem)
    K, L = _gains(q)

    Gxx = q.Qxx + A.T @ X.P @ A
    for t in sys.noise_a:
        Gxx = Gxx + t.sigma**2 * (t.pattern.T @ q.P_sum @ t.pattern)
    for t in sys.noise_c:
        LC = L @ t.pattern
        Gxx = Gxx + t.sigma**2 * (LC.T @ X.Phat @ LC)

    Hxx = q.Wxx + A @ X.S @ A.T
    for t in sys.noise_a:
        Hxx = Hxx + t.sigma**2 * (t.pattern @ q.S_sum @ t.pattern.T)
    for t in sys.noise_b:
        BK = t.pattern @ K
        Hxx = Hxx + t.sigma**2 * (BK @ X.Shat @ BK.T)

    Zg = -q.Gux.T @ K
    Zh = L @ q.Hxy.T
    ALC = A - L @ C
    ABK = A + B @ K
    return RiccatiResidual(
        P=symmetrize(-X.P + Gxx - Zg),
        Phat=symmetrize(-X.Phat + ALC.T @ X.Phat @ ALC + Zg),
        S=symmetrize(-X.S + Hxx - Zh),
        Shat=symmetrize(-X.Shat + ABK @ X.Shat @ ABK.T + Zh),
    )


def _finalize_report(problem, X_star, history, tuples, method):
    """Build the report fields shared by both solvers.

    The reported controller is recomputed from the converged X via
    gain_operators, so the report's gains and the gain operators agree
    exactly; its cost is evaluated through the Lyapunov equations with the
    duality cross-check.
    """
    A, B, C = problem.system.A, problem.system.B, problem.system.C
    K, L = gain_operators(X_star, problem)
    ctrl = Controller(A + B @ K - L @ C, K, L)
    _, _, cost = moments.evaluate_policy(problem, ctrl)
    residual_norm = riccati_residual(X_star, problem).max_norm()
    return SolveReport(
        controller=ctrl,
        solution=X_star,
        cost=cost,
        iterations=len(tuples) - 1,
        residual_norm=residual_norm,
        history=tuple(history),
        method=method,
        converged=True,
        solution_history=tuple(tuples),
    )


def value_iteration_solve(
    problem: ProblemInstance,
    tol: float = DEFAULT_TOL,
    max_iter: int = VI_MAX_ITER,
) -> SolveReport:
    """Solve R(X) = 0 by the recursion X <- X + R(X) from X = 0.

    Stops when the blockwise max Frobenius norm of the step drops to
    ``tol``, or to STEP_FLOOR_ULPS float64 ulps of the iterate's norm when
    that is larger (see ``_step_converged``).  Raises Diverged when any
    block norm passes the overflow guard (the instance then admits no
    mean-square stabilizing compensator) and MaxIterationsExceeded when the
    cap is hit first.
    """
    X = ValueCovarianceTuple.zeros(problem.n)
    tuples = [X]
    history = [HistoryEntry(delta=None, seconds=0.0)]
    start = time.perf_counter()
    for k in range(1, max_iter + 1):
        X_next = X.plus(riccati_residual(X, problem))
        delta = X_next.distance(X)
        history.append(HistoryEntry(delta, time.perf_counter() - start))
        tuples.append(X_next)
        X = X_next
        norm = X.max_norm()
        if not math.isfinite(delta) or norm > OVERFLOW_GUARD:
            raise Diverged("value iteration", k)
        if _step_converged(delta, norm, tol):
            return _finalize_report(problem, X, history, tuples, "value_iteration")
    raise MaxIterationsExceeded("value iteration", max_iter, history[-1].delta)


def policy_iteration_solve(
    problem: ProblemInstance,
    initial: Controller,
    tol: float = DEFAULT_TOL,
    max_iter: int = PI_MAX_ITER,
) -> SolveReport:
    """Alternate exact policy evaluation and gain improvement.

    Each iteration evaluates the current policy by solving both generalized
    Lyapunov equations and extracting X, then updates the gains to
    (K(X), L(X)) with model matrix A + B K - L C.  Stops when successive
    evaluated X differ by at most ``tol`` (blockwise max Frobenius norm), or
    by at most STEP_FLOOR_ULPS float64 ulps of the iterate's norm when that
    is larger (see ``_step_converged``).

    The initial policy must be mean-square stabilizing
    (InitialPolicyNotStabilizing otherwise), and so must every improved
    policy (IterateNotStabilizing), as decided once by its evaluation; the
    solver never falls back to a different method silently.
    """
    sys = problem.system
    A, B, C = sys.A, sys.B, sys.C
    aug = moments.build_augmented(problem, initial)
    tuples: list[ValueCovarianceTuple] = []
    history: list[HistoryEntry] = []
    previous: ValueCovarianceTuple | None = None
    start = time.perf_counter()
    for k in range(max_iter + 1):
        try:
            sol = moments.solve_both(aug)
        except NotMsStable as exc:
            if k == 0:
                raise InitialPolicyNotStabilizing(exc.radius) from exc
            raise IterateNotStabilizing(k, exc.radius) from exc
        X = moments.extract_tuple(sol)
        tuples.append(X)
        delta = None if previous is None else X.distance(previous)
        history.append(HistoryEntry(delta, time.perf_counter() - start))
        if delta is not None and _step_converged(delta, X.max_norm(), tol):
            return _finalize_report(problem, X, history, tuples, "policy_iteration")
        K, L = gain_operators(X, problem)
        improved = Controller(A + B @ K - L @ C, K, L)
        aug = moments.build_augmented(problem, improved)
        previous = X
    raise MaxIterationsExceeded("policy iteration", max_iter, history[-1].delta)


# ---------------------------------------------------------------------------
# initial policies


def open_loop_controller(problem: ProblemInstance) -> Controller:
    """The open-loop policy (F, K, L) = (A, 0, 0)."""
    sys = problem.system
    return Controller(
        sys.A.copy(), np.zeros((sys.m, sys.n)), np.zeros((sys.n, sys.p))
    )


def noise_free_gains(problem: ProblemInstance, tol: float = 1e-13, max_iter: int = 500_000):
    """Classical gains (K, L) ignoring the multiplicative noise terms.

    Fixed-point iteration of the two decoupled discrete Riccati recursions
    on the mean system; used to build fallback initial policies for policy
    iteration when the open loop is not mean-square stable.  Every solve
    with G_uu or H_yy follows its condition check (SingularBlock).
    """
    sys = problem.system
    A, B, C = sys.A, sys.B, sys.C
    Qxx, Qxu, Qux, Quu = problem.q_blocks()
    Wxx, Wxy, Wyx, Wyy = problem.w_blocks()

    def iterate(update, start, label):
        M = start.copy()
        for _ in range(max_iter):
            M_next = update(M)
            if not np.all(np.isfinite(M_next)) or la.norm(M_next) > OVERFLOW_GUARD:
                raise Diverged(label, max_iter)
            if la.norm(M_next - M) <= tol * (1.0 + la.norm(M_next)):
                return M_next
            M = M_next
        raise MaxIterationsExceeded(label, max_iter, float(la.norm(M_next - M)))

    def control_block(P):
        Guu = Quu + B.T @ P @ B
        _check_condition(Guu, "G_uu")
        return Guu

    def filter_block(S):
        Hyy = Wyy + C @ S @ C.T
        _check_condition(Hyy, "H_yy")
        return Hyy

    def control_update(P):
        Gux = Qux + B.T @ P @ A
        return symmetrize(Qxx + A.T @ P @ A - (Qxu + A.T @ P @ B) @ la.solve(control_block(P), Gux))

    def filter_update(S):
        Hyx = Wyx + C @ S @ A.T
        return symmetrize(Wxx + A @ S @ A.T - (Wxy + A @ S @ C.T) @ la.solve(filter_block(S), Hyx))

    P = iterate(control_update, Qxx, "noise-free control Riccati recursion")
    S = iterate(filter_update, Wxx, "noise-free filter Riccati recursion")
    K = -la.solve(control_block(P), Qux + B.T @ P @ A)
    L = la.solve(filter_block(S).T, (Wxy + A @ S @ C.T).T).T
    return K, L


def noise_free_controller(problem: ProblemInstance) -> Controller:
    """Compensator built from the classical noise-free gains."""
    sys = problem.system
    K, L = noise_free_gains(problem)
    return Controller(sys.A + sys.B @ K - L @ sys.C, K, L)


def stabilizing_initial_controller(problem: ProblemInstance) -> Controller:
    """Deterministic initial policy for policy iteration.

    Prefers the open-loop policy (A, 0, 0); when that is not mean-square
    stabilizing, falls back to the classical noise-free design.  Raises
    InitialPolicyNotStabilizing when neither candidate stabilizes the loop,
    or when the noise-free design itself fails.  Each candidate is checked
    by ``moments.decide_stability``, so the dense spectral radius is
    computed only when the positive-operator test cannot decide, or to
    report the radius of a rejected candidate in that error.
    """
    ol = open_loop_controller(problem)
    ol_check = moments.decide_stability(moments.build_augmented(problem, ol))
    if ol_check.stable:
        return ol
    try:
        ctrl = noise_free_controller(problem)
    except SolverError as exc:
        raise InitialPolicyNotStabilizing(
            ol_check.radius(), f"noise-free fallback failed: {exc}"
        ) from exc
    check = moments.decide_stability(moments.build_augmented(problem, ctrl))
    if check.stable:
        return ctrl
    raise InitialPolicyNotStabilizing(
        ol_check.radius(),
        f"noise-free fallback is also not stabilizing (radius {check.radius():.6g})",
    )
