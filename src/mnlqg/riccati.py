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
residual R(X) stacks the four defining equations, one symmetric block per
unknown, and lives in X's space: ``riccati_residual`` returns it as a
``ValueCovarianceTuple``, and value iteration steps X <- X + R(X).  X* solves
R(X*) = 0 and the optimal compensator is (A + B K(X*) - L(X*) C, K(X*), L(X*)).

The Riccati step (``_RiccatiStep``) is built once per solve: A, B, C and
their transposes, the Q/W blocks and each noise term's (sigma^2, D, D^T).
It reads X as the (4, n, n) stack of (P, Phat, S, Shat).  PI takes each
gain update from its ``gain_blocks`` and ``gains``, and each improved
compensator from its ``controller``, VI each step from its ``residual``,
and the report one ``residual`` pass at the converged X, for the
controller's gains and the residual norm.  VI keeps its iterates as
plain stacks, exactly symmetric by construction, and a solve keeps its
whole trajectory as one (iterations + 1, 4, n, n) array.  A pass
takes the products B^T P and A S once each, through ``ndarray.dot``: for
2-d float64 operands it reaches the same BLAS routine as ``@`` with the
same operands, without the ufunc dispatch (0.43 us against 0.95 us at
2x2), and the results are bitwise equal, but that a zero product of two
1x1 matrices (n=1) can be -0.0 where ``@`` gives +0.0.  The iterates start
at +0.0 and absorb that sign.  ``q_operators``, ``gain_operators`` and
``riccati_residual`` build a step for one call each; no solver calls them.

Two solvers are provided:

* ``value_iteration_solve``: the contraction X <- X + R(X) from X = 0,
  taking each step and its norms in one pass; needs no stabilizing policy
  but converges at a linear rate.
* ``policy_iteration_solve``: alternates exact policy evaluation (via the
  generalized Lyapunov equations, ``moments.evaluate``) with the gain
  update; needs a mean-square stabilizing initial policy, chosen by
  default as ``stabilizing_initial_controller`` does, and converges in few
  iterations.

PI's fallback initial policy, the classical noise-free design, is value
iteration on the instance without multiplicative noise: with every sigma = 0
the coupled equations split into the control and filter Riccati equations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import numpy.linalg as la
from numpy.linalg import _umath_linalg

from . import moments
from .exceptions import (
    Diverged,
    InitialPolicyNotStabilizing,
    IterateNotStabilizing,
    MaxIterationsExceeded,
    SingularBlock,
    SolverError,
)
from .matrixmath import condition_number, frobenius_norms, symmetrize
from .model import Controller, ProblemInstance, SystemModel
from .moments import ValueCovarianceTuple

__all__ = [
    "DEFAULT_TOL",
    "VI_MAX_ITER",
    "PI_MAX_ITER",
    "QFunctionPair",
    "HistoryEntry",
    "SolveReport",
    "gain_operators",
    "q_operators",
    "riccati_residual",
    "value_iteration_solve",
    "policy_iteration_solve",
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
    """Gain-relevant blocks of the control-side G(X) and estimation-side H(X)."""

    Gux: np.ndarray  # m x n
    Guu: np.ndarray  # m x m
    Hxy: np.ndarray  # n x p
    Hyy: np.ndarray  # p x p


@dataclass(frozen=True)
class HistoryEntry:
    """One iteration record: step size (None for the first policy
    evaluation) and cumulative wall-clock seconds."""

    delta: float | None
    seconds: float


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a coupled-Riccati solve.

    ``solution_history`` keeps the full iterate trajectory, one read-only
    (iterations + 1, 4, n, n) array of the stacks (P, Phat, S, Shat), so
    convergence metrics can be computed against a reference fixed point
    afterwards; it is not part of the serialized report.  ``solution`` is
    its last iterate.
    """

    controller: Controller
    solution: ValueCovarianceTuple
    cost: float
    iterations: int
    residual_norm: float
    history: tuple[HistoryEntry, ...]
    method: str  # "policy_iteration" or "value_iteration"
    converged: bool
    solution_history: np.ndarray


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


def _solve(a, b):
    """``la.solve(a, b)`` for float64 matrices a and b where a has passed
    ``_check_condition``: the LAPACK gufunc that ``la.solve`` calls, so the
    result is bitwise the same, without its argument checks and error-state
    context (1.2 us in place of 4.6 us at 1x1).  That context only turns a
    singular a into LinAlgError, and the condition check has excluded one."""
    return _umath_linalg.solve(a, b, signature="dd->d")


class _RiccatiStep:
    """The Riccati step of one problem, built once per solve.

    Holds A, B, C and their transposes, the Q/W blocks and each noise
    family's (sigma^2, D, D^T).  ``gain_blocks`` and ``residual`` take X as
    the (4, n, n) stack of (P, Phat, S, Shat).  They and ``gains`` evaluate
    every product left to right with ``ndarray.dot``, bitwise the ``@``
    form up to the sign of a zero at n=1 (module docstring); the products
    that form shares are taken once: B^T P for G_uu and G_ux, A S for H_xy
    and H_xx.
    """

    __slots__ = (
        "A", "At", "B", "Bt", "C", "Ct",
        "Qxx", "Qux", "Quu", "Wxx", "Wxy", "Wyy",
        "noise_a", "noise_b", "noise_c",
    )

    def __init__(self, problem: ProblemInstance):
        sys = problem.system
        self.A, self.B, self.C = sys.A, sys.B, sys.C
        self.At, self.Bt, self.Ct = sys.A.T, sys.B.T, sys.C.T
        self.Qxx, _, self.Qux, self.Quu = problem.q_blocks()
        self.Wxx, self.Wxy, _, self.Wyy = problem.w_blocks()
        self.noise_a, self.noise_b, self.noise_c = (
            tuple((t.sigma**2, t.pattern, t.pattern.T) for t in terms)
            for terms in (sys.noise_a, sys.noise_b, sys.noise_c)
        )

    def gain_blocks(self, X: np.ndarray):
        """(G_ux, G_uu, H_xy, H_yy), with the block sums P + Phat and
        S + Shat and the product A S that the corners reuse."""
        P, Phat, S, Shat = X
        P_sum = P + Phat
        BtP = self.Bt.dot(P)
        Guu = self.Quu + BtP.dot(self.B)
        for s2, D, Dt in self.noise_b:
            Guu += s2 * Dt.dot(P_sum).dot(D)
        Gux = self.Qux + BtP.dot(self.A)

        S_sum = S + Shat
        Hyy = self.Wyy + self.C.dot(S).dot(self.Ct)
        for s2, D, Dt in self.noise_c:
            Hyy += s2 * D.dot(S_sum).dot(Dt)
        AS = self.A.dot(S)
        Hxy = self.Wxy + AS.dot(self.Ct)
        return Gux, Guu, Hxy, Hyy, P_sum, S_sum, AS

    def controller(self, K, L) -> Controller:
        """The compensator (A + B K - L C, K, L) of the gains (K, L)."""
        return Controller(self.A + self.B @ K - L @ self.C, K, L)

    @staticmethod
    def gains(Gux, Guu, Hxy, Hyy):
        """(K, L) from the gain blocks, each solve after its condition check."""
        _check_condition(Guu, "G_uu")
        K = -_solve(Guu, Gux)
        _check_condition(Hyy, "H_yy")
        L = _solve(Hyy.T, Hxy.T).T
        return K, L

    def residual(self, X: np.ndarray):
        """(K, L, R): the gains at X and the four blocks of R(X) before
        symmetrization, stacked in the order (P, Phat, S, Shat).

        Besides the gain blocks, forms only the corners G_xx and H_xx; the
        Schur complements G_xu G_uu^{-1} G_ux = -G_ux^T K and
        H_xy H_yy^{-1} H_yx = L H_xy^T reuse the gains.  -M + N is written
        N - M, the same IEEE operation."""
        A, At = self.A, self.At
        P, Phat, S, Shat = X
        Gux, Guu, Hxy, Hyy, P_sum, S_sum, AS = self.gain_blocks(X)
        K, L = self.gains(Gux, Guu, Hxy, Hyy)

        Gxx = self.Qxx + At.dot(P).dot(A)
        for s2, D, Dt in self.noise_a:
            Gxx += s2 * Dt.dot(P_sum).dot(D)
        for s2, D, _ in self.noise_c:
            LC = L.dot(D)
            Gxx += s2 * LC.T.dot(Phat).dot(LC)

        Hxx = self.Wxx + AS.dot(At)
        for s2, D, Dt in self.noise_a:
            Hxx += s2 * D.dot(S_sum).dot(Dt)
        for s2, D, _ in self.noise_b:
            BK = D.dot(K)
            Hxx += s2 * BK.dot(Shat).dot(BK.T)

        Zg = (-Gux.T).dot(K)
        Zh = L.dot(Hxy.T)
        ALC = A - L.dot(self.C)
        ABK = A + self.B.dot(K)
        Gxx -= P
        Gxx -= Zg
        Hxx -= S
        Hxx -= Zh
        RPhat = ALC.T.dot(Phat).dot(ALC) - Phat
        RPhat += Zg
        RShat = ABK.dot(Shat).dot(ABK.T) - Shat
        RShat += Zh
        return K, L, np.array((Gxx, RPhat, Hxx, RShat))


def q_operators(X: ValueCovarianceTuple, problem: ProblemInstance) -> QFunctionPair:
    """The gain blocks G_ux, G_uu, H_xy, H_yy of G(X) and H(X).

    None of them depends on the gains; G_xu = G_ux^T and H_yx = H_xy^T.
    """
    return QFunctionPair(*_RiccatiStep(problem).gain_blocks(X.blocks())[:4])


def gain_operators(X: ValueCovarianceTuple, problem: ProblemInstance):
    """Gains (K, L) at X; SingularBlock when G_uu or H_yy is singular."""
    step = _RiccatiStep(problem)
    return step.gains(*step.gain_blocks(X.blocks())[:4])


def riccati_residual(X: ValueCovarianceTuple, problem: ProblemInstance) -> ValueCovarianceTuple:
    """R(X), in X's space: one symmetric n x n residual block per unknown
    (``_RiccatiStep.residual``, symmetrized by the constructor)."""
    return ValueCovarianceTuple(*_RiccatiStep(problem).residual(X.blocks())[2])


def _finalize_report(problem, step, trajectory, history, method, prior=None):
    """The report shared by both solvers, from the list of iterate stacks
    ``trajectory``.  One pass of the solve's ``step`` at the converged X,
    the last, gives the controller's gains, as ``gain_operators``, and the
    residual norm, as ``riccati_residual(X).max_norm()``; the cost is the
    controller's evaluation (from PI's last, ``prior``, where it serves),
    with the duality cross-check."""
    solution_history = np.array(trajectory)
    solution_history.setflags(write=False)
    K, L, R = step.residual(solution_history[-1])
    ctrl = step.controller(K, L)
    cost = moments.evaluate(moments.build_augmented(problem, ctrl), prior).cost()
    return SolveReport(
        controller=ctrl,
        solution=ValueCovarianceTuple(*solution_history[-1]),
        cost=cost,
        iterations=len(trajectory) - 1,
        residual_norm=ValueCovarianceTuple(*R).max_norm(),
        history=tuple(history),
        method=method,
        converged=True,
        solution_history=solution_history,
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
    block norm passes the overflow guard, or a step overflows float64
    before it does, as a huge sigma^2 makes it (the instance then admits
    no mean-square stabilizing compensator), and MaxIterationsExceeded
    when the cap is hit first.
    """
    step = _RiccatiStep(problem)
    X = np.zeros((4, problem.n, problem.n))
    trajectory = [X]
    history = [HistoryEntry(delta=None, seconds=0.0)]
    start = time.perf_counter()
    try:
        with np.errstate(over="raise"):
            for k in range(1, max_iter + 1):
                previous, X = X, symmetrize(step.residual(X)[2]) + X
                delta = float(frobenius_norms(X - previous).max())
                history.append(HistoryEntry(delta, time.perf_counter() - start))
                trajectory.append(X)
                norm = float(frobenius_norms(X).max())
                if not math.isfinite(delta) or norm > OVERFLOW_GUARD:
                    raise Diverged("value iteration", k)
                if _step_converged(delta, norm, tol):
                    break
            else:
                raise MaxIterationsExceeded("value iteration", max_iter, history[-1].delta)
    except FloatingPointError:
        raise Diverged("value iteration", k) from None
    return _finalize_report(problem, step, trajectory, history, "value_iteration")


def policy_iteration_solve(
    problem: ProblemInstance,
    initial: Controller | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = PI_MAX_ITER,
) -> SolveReport:
    """Alternate exact policy evaluation and gain improvement.

    The initial policy is evaluated (``moments.evaluate``: both
    generalized Lyapunov equations, then X extracted); each of at most
    ``max_iter`` iterations then improves the policy to the compensator of
    the gains (K(X), L(X)) (``_RiccatiStep.controller``) and evaluates it.
    Stops when successive evaluated X differ by at most ``tol`` (blockwise
    max Frobenius norm), or by at most STEP_FLOOR_ULPS float64 ulps of the
    iterate's norm when that is larger (see ``_step_converged``).

    With ``initial`` None the solve starts from the policy that
    ``stabilizing_initial_controller`` returns, and from the evaluation
    that chose it, so its first loop is evaluated once; the history's
    seconds then include that choice.  Each evaluation is passed to the
    next, which refines against its inverse, from its solution, and
    inverts afresh only where that stops contracting.

    The initial policy must be mean-square stabilizing
    (InitialPolicyNotStabilizing otherwise), and so must every improved
    policy (IterateNotStabilizing), as decided once by its evaluation; the
    solver never falls back to a different method silently.
    """
    step = _RiccatiStep(problem)
    start = time.perf_counter()
    if initial is None:
        _, evaluation = _initial_evaluation(problem)
    else:
        evaluation = moments.evaluate(moments.build_augmented(problem, initial))
        if not evaluation.stable:
            raise InitialPolicyNotStabilizing(evaluation.radius())
    X = moments.extract_tuple(evaluation.solution)
    trajectory = [X.blocks()]
    history = [HistoryEntry(delta=None, seconds=time.perf_counter() - start)]
    for k in range(1, max_iter + 1):
        K, L = step.gains(*step.gain_blocks(X.blocks())[:4])
        aug = moments.build_augmented(problem, step.controller(K, L))
        evaluation = moments.evaluate(aug, evaluation)
        if not evaluation.stable:
            raise IterateNotStabilizing(k, evaluation.radius())
        previous, X = X, moments.extract_tuple(evaluation.solution)
        delta = X.distance(previous)
        trajectory.append(X.blocks())
        history.append(HistoryEntry(delta, time.perf_counter() - start))
        if _step_converged(delta, X.max_norm(), tol):
            return _finalize_report(
                problem, step, trajectory, history, "policy_iteration", evaluation
            )
    raise MaxIterationsExceeded("policy iteration", max_iter, history[-1].delta)


# ---------------------------------------------------------------------------
# initial policies


def open_loop_controller(problem: ProblemInstance) -> Controller:
    """The open-loop policy (F, K, L) = (A, 0, 0)."""
    sys = problem.system
    return Controller(
        sys.A.copy(), np.zeros((sys.m, sys.n)), np.zeros((sys.n, sys.p))
    )


def noise_free_controller(problem: ProblemInstance) -> Controller:
    """The classical noise-free compensator: value iteration on the instance
    with every multiplicative noise term removed."""
    sys = problem.system
    noise_free = ProblemInstance(
        SystemModel(sys.A, sys.B, sys.C), problem.cost, problem.noise
    )
    return value_iteration_solve(noise_free).controller


def _initial_evaluation(problem: ProblemInstance) -> tuple[Controller, moments.Evaluation]:
    """The deterministic initial policy for policy iteration, with the
    ``moments.evaluate`` of its loop.

    Prefers the open-loop policy (A, 0, 0); when that is not mean-square
    stabilizing, falls back to the classical noise-free design.  Raises
    InitialPolicyNotStabilizing, with the open loop's exact radius, when
    neither candidate stabilizes the loop or the noise-free design itself
    fails; the dense spectral radius is computed only for that error or
    where the positive-operator test cannot decide.
    """
    ol = open_loop_controller(problem)
    ol_evaluation = moments.evaluate(moments.build_augmented(problem, ol))
    if ol_evaluation.stable:
        return ol, ol_evaluation
    try:
        ctrl = noise_free_controller(problem)
    except SolverError as exc:
        raise InitialPolicyNotStabilizing(
            ol_evaluation.radius(), f"noise-free fallback failed: {exc}"
        ) from exc
    evaluation = moments.evaluate(moments.build_augmented(problem, ctrl))
    if evaluation.stable:
        return ctrl, evaluation
    raise InitialPolicyNotStabilizing(
        ol_evaluation.radius(),
        f"noise-free fallback is also not stabilizing (radius {evaluation.radius():.6g})",
    )


def stabilizing_initial_controller(problem: ProblemInstance) -> Controller:
    """The initial policy that ``policy_iteration_solve`` starts from by
    default: the open loop, or else the noise-free design
    (``_initial_evaluation``)."""
    return _initial_evaluation(problem)[0]
