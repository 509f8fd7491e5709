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

The Riccati step (``_RiccatiStep``) is built once per solve: A, B, C and
their transposes, the Q/W blocks and each noise term's (sigma^2, D, D^T).
One pass forms the gain blocks, the gains, the corners and the residual
blocks, taking the products B^T P and A S once each.  Products go through
``ndarray.dot``: for 2-d float64 operands it reaches the same BLAS routine
as ``@`` with the same operands, without the ufunc dispatch (0.43 us
against 0.95 us at 2x2), and the results are bitwise equal, but that a
zero product of two 1x1 matrices (n=1) can be -0.0 where ``@`` gives
+0.0.  The iterates start at +0.0 and absorb that sign.  At n=2 a step is
per-call overhead: over the benchmark's 64 n=2 ``ensemble`` instances it
takes 56-69 us against 95-112 us with ``@`` and per-step set-up (one BLAS
thread, shared 2-CPU machine).
``q_operators``, ``gain_operators`` and ``riccati_residual`` wrap the step.

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
from .matrixmath import condition_number, frobenius_norm, symmetrize
from .model import Controller, ProblemInstance, SystemModel
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
    family's (sigma^2, D, D^T).  ``gain_blocks``, ``gains`` and ``residual``
    evaluate every product left to right with ``ndarray.dot``, bitwise the
    ``@`` form up to the sign of a zero at n=1 (module docstring); the
    products that form shares are taken once: B^T P for G_uu and G_ux, A S
    for H_xy and H_xx.
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

    def gain_blocks(self, X: ValueCovarianceTuple):
        """(G_ux, G_uu, H_xy, H_yy), with the block sums P + Phat and
        S + Shat and the product A S that the corners reuse."""
        P, S = X.P, X.S
        P_sum = P + X.Phat
        BtP = self.Bt.dot(P)
        Guu = self.Quu + BtP.dot(self.B)
        for s2, D, Dt in self.noise_b:
            Guu += s2 * Dt.dot(P_sum).dot(D)
        Gux = self.Qux + BtP.dot(self.A)

        S_sum = S + X.Shat
        Hyy = self.Wyy + self.C.dot(S).dot(self.Ct)
        for s2, D, Dt in self.noise_c:
            Hyy += s2 * D.dot(S_sum).dot(Dt)
        AS = self.A.dot(S)
        Hxy = self.Wxy + AS.dot(self.Ct)
        return Gux, Guu, Hxy, Hyy, P_sum, S_sum, AS

    @staticmethod
    def gains(Gux, Guu, Hxy, Hyy):
        """(K, L) from the gain blocks, each solve after its condition check."""
        _check_condition(Guu, "G_uu")
        K = -_solve(Guu, Gux)
        _check_condition(Hyy, "H_yy")
        L = _solve(Hyy.T, Hxy.T).T
        return K, L

    def residual(self, X: ValueCovarianceTuple):
        """The four blocks of R(X) before symmetrization, in the order
        (P, Phat, S, Shat).

        Besides the gain blocks, forms only the corners G_xx and H_xx; the
        Schur complements G_xu G_uu^{-1} G_ux = -G_ux^T K and
        H_xy H_yy^{-1} H_yx = L H_xy^T reuse the gains.  -M + N is written
        N - M, the same IEEE operation."""
        A, At = self.A, self.At
        P, Phat, S, Shat = X.P, X.Phat, X.S, X.Shat
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
        return Gxx, RPhat, Hxx, RShat


def q_operators(X: ValueCovarianceTuple, problem: ProblemInstance) -> QFunctionPair:
    """The gain blocks G_ux, G_uu, H_xy, H_yy of G(X) and H(X).

    None of them depends on the gains; G_xu = G_ux^T and H_yx = H_xy^T.
    """
    return QFunctionPair(*_RiccatiStep(problem).gain_blocks(X)[:4])


def gain_operators(X: ValueCovarianceTuple, problem: ProblemInstance):
    """Gains (K, L) at X; SingularBlock when G_uu or H_yy is singular."""
    step = _RiccatiStep(problem)
    return step.gains(*step.gain_blocks(X)[:4])


def riccati_residual(X: ValueCovarianceTuple, problem: ProblemInstance) -> RiccatiResidual:
    """R(X): one symmetric n x n residual block per unknown
    (``_RiccatiStep.residual``, symmetrized)."""
    return RiccatiResidual(*(symmetrize(R) for R in _RiccatiStep(problem).residual(X)))


def _finalize_report(problem, X_star, history, tuples, method, prior=None):
    """Build the report fields shared by both solvers.

    The reported controller is recomputed from the converged X via
    gain_operators, so the report's gains and the gain operators agree
    exactly; its cost is that of its evaluation (``moments.evaluate``, from
    PI's last evaluation, ``prior``, where it serves), with the duality
    cross-check.
    """
    A, B, C = problem.system.A, problem.system.B, problem.system.C
    K, L = gain_operators(X_star, problem)
    ctrl = Controller(A + B @ K - L @ C, K, L)
    cost = moments.evaluate(moments.build_augmented(problem, ctrl), prior).cost()
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


def _max_block_norm(blocks):
    """``max(frobenius_norm(M) for M in blocks)`` for exactly symmetric
    blocks stacked in one array.  One batched matmul takes every block's
    dot product with itself through the same ``ddot`` call as
    ``frobenius_norm``; a symmetric block's elements come in the same order
    whether raveled by rows or by columns."""
    rows = blocks.reshape(len(blocks), 1, -1)
    return max(map(math.sqrt, (rows @ rows.transpose(0, 2, 1)).ravel().tolist()))


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
    step = _RiccatiStep(problem)
    X = ValueCovarianceTuple.zeros(problem.n)
    stacked = np.zeros((4, problem.n, problem.n))  # X's blocks
    tuples = [X]
    history = [HistoryEntry(delta=None, seconds=0.0)]
    start = time.perf_counter()
    for k in range(1, max_iter + 1):
        R = np.array(step.residual(X))
        X_next = R + R.transpose(0, 2, 1)
        X_next *= 0.5
        X_next += stacked
        X_next.setflags(write=False)
        delta = _max_block_norm(X_next - stacked)
        stacked, X = X_next, ValueCovarianceTuple.of_symmetric(*X_next)
        history.append(HistoryEntry(delta, time.perf_counter() - start))
        tuples.append(X)
        norm = _max_block_norm(stacked)
        if not math.isfinite(delta) or norm > OVERFLOW_GUARD:
            raise Diverged("value iteration", k)
        if _step_converged(delta, norm, tol):
            return _finalize_report(problem, X, history, tuples, "value_iteration")
    raise MaxIterationsExceeded("value iteration", max_iter, history[-1].delta)


def policy_iteration_solve(
    problem: ProblemInstance,
    initial: Controller | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = PI_MAX_ITER,
) -> SolveReport:
    """Alternate exact policy evaluation and gain improvement.

    Each iteration evaluates the current policy (``moments.evaluate``:
    both generalized Lyapunov equations, then X extracted), then updates
    the gains to (K(X), L(X)) with model matrix A + B K - L C.  Stops when
    successive evaluated X differ by at most ``tol`` (blockwise max
    Frobenius norm), or by at most STEP_FLOOR_ULPS float64 ulps of the
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
    sys = problem.system
    A, B, C = sys.A, sys.B, sys.C
    start = time.perf_counter()
    if initial is None:
        _, evaluation = _initial_evaluation(problem)
    else:
        evaluation = moments.evaluate(moments.build_augmented(problem, initial))
        if not evaluation.stable:
            raise InitialPolicyNotStabilizing(evaluation.radius())
    tuples: list[ValueCovarianceTuple] = []
    history: list[HistoryEntry] = []
    previous: ValueCovarianceTuple | None = None
    for k in range(max_iter + 1):
        if k > 0:
            evaluation = moments.evaluate(aug, evaluation)
            if not evaluation.stable:
                raise IterateNotStabilizing(k, evaluation.radius())
        X = moments.extract_tuple(evaluation.solution)
        tuples.append(X)
        delta = None if previous is None else X.distance(previous)
        history.append(HistoryEntry(delta, time.perf_counter() - start))
        if delta is not None and _step_converged(delta, X.max_norm(), tol):
            return _finalize_report(
                problem, X, history, tuples, "policy_iteration", evaluation
            )
        K, L = gain_operators(X, problem)
        aug = moments.build_augmented(problem, Controller(A + B @ K - L @ C, K, L))
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
