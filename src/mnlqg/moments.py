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

The linear operator M -> E[Phi_t.T M Phi_t] has the explicit matrix, under
column-major vectorization,

    Psi = Phi.T (x) Phi.T + sum_i sigma_i^2 lift_i.T (x) lift_i.T,

and its covariance-side dual Gamma drops the transposes, so Gamma = Psi.T and
both share one spectrum.  The closed loop is mean-square stable iff the
spectral radius is below one, in which case the steady-state value matrix P'
and second moment S' solve the generalized discrete Lyapunov equations

    P' = Psi(P') + Q',        S' = Gamma(S') + W',

and the average cost of the policy is <P', W'> = <S', Q'>.

Both operators map symmetric matrices to symmetric ones, and every dense
computation here works on that subspace: a symmetric d x d matrix (d = 2n)
is represented by its d(d+1)/2 lower-triangle entries in column-major order
(``_hvec``), in the basis E_ii, E_ij + E_ji.  The reduced operator Psi_s
(``build_second_moment_matrix``) is the only operator matrix built; it is
assembled from (1, Phi) and the lifts by index gathers, without the
Kronecker product above: the sigma-free product of each term
(``term_product``), weighted by 1 or its sigma^2, summed and gathered
(``gather_second_moment``).  Each lift is zero outside one n x n block of
the augmented state (the A-lifts at (x, x), the B-lifts at (x, xhat), the
C-lifts at (xhat, x)), so its product is formed, and added, only over the
half-vectorized rows and columns that block touches; the extended-precision
residuals likewise apply each lift on its block only.  Psi_s loses no part
of the spectral radius: rho(Psi) is attained at a positive semidefinite
eigenvector (Krein-Rutman), which is symmetric.  Under the trace inner
product <M, N> = hvec(M).T Omega hvec(N), with Omega = diag(1 on the
diagonal, 2 off it), Gamma is the adjoint of Psi, so

    Gamma_s = Omega^-1 Psi_s.T Omega,    I - Gamma_s = Omega^-1 (I - Psi_s).T Omega.

Every policy evaluation goes through one seam, ``evaluate``, which returns
an ``Evaluation``: the stability verdict, (P', S') of a stable loop, the
inverse to hold, the exact radius on demand and the cost.  A fresh
evaluation builds I - Psi_s once and inverts it once; the inverse serves
the stability test and both equations (the covariance side with its
transpose, for the unknown Omega hvec(S')).  Policy iteration holds that
inverse across the loops of one solve, passing each evaluation to the next
as its ``prior``; refinement against the inverse of another loop converges
at the rate rho(I - inv_held (I - Psi_s)), which late in a solve, where the
policy hardly moves, is far below one.  Both paths solve the two sides
with one refinement (``_refine_sides``) that differs only in its start: a
fresh evaluation starts cold from inv @ b, already at float64 accuracy; a
held one warm-starts from the prior's P' and S', which late in a solve are
within rounding of the new ones (as in inexact Newton-Kleinman methods),
and takes float64 residual steps first.  Then one longdouble residual at
the float64 solution and float64 residuals of the small correction to it
bring the side to extended-precision accuracy.  The held path also refines
the certificate candidate from the prior's, with float64 residuals.  All
residuals are formed in matrix form, so the held path forms neither Psi_s
nor a new inverse.  Where the held inverse stops contracting, or the
certificate does not certify the loop stable, the evaluation falls back to
the fresh path, which also reports the exact radius of a loop that is not
stable.  Below HELD_INVERSE_MIN_UNKNOWNS unknowns every evaluation is
fresh.

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

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import numpy.linalg as la

from .exceptions import DualityViolation, EigenvalueFailure, NotMsStable
from .matrixmath import frobenius, frobenius_norm, solve_linear_extended, symmetrize
from .model import Controller, ProblemInstance

__all__ = [
    "STABILITY_MARGIN",
    "AugmentedClosedLoop",
    "AugmentedSolution",
    "Evaluation",
    "ValueCovarianceTuple",
    "build_augmented",
    "build_second_moment_matrix",
    "term_product",
    "gather_second_moment",
    "spectral_radius",
    "evaluate",
    "solve_lyapunov",
    "extract_tuple",
    "evaluate_policy",
]

# radius < 1 - STABILITY_MARGIN counts as mean-square stable; the margin
# guards the dense solve against a near-singular (I - Psi).
STABILITY_MARGIN = 1e-9

COST_DUALITY_TOL = 1e-9

# Loops with at least this many symmetric unknowns, n(2n+1) for the 2n x 2n
# augmented state, hold their inverse of I - Psi_s for the next loop of the
# same solve (``evaluate``).  Below it an inverse is cheaper than
# refinement steps in Python.  Measured crossover, PI solves of the
# benchmark's synthetic instances on one BLAS thread, medians of three runs
# alternating the two paths: fresh inverses win at n = 7 (105 unknowns,
# 19-27 ms against 22-30 ms), the held one from n = 8 (136 unknowns,
# 20-31 ms against 31-43 ms).
HELD_INVERSE_MIN_UNKNOWNS = 136
# Refinement against a held inverse, relative to the largest entry: the
# certificate's candidate need not be accurate; the float64 residual steps
# of each side stop above their rounding floor, about cond(I - Psi_s) eps.
HELD_CANDIDATE_TOL = 1e-6
HELD_FLOAT64_TOL = 1e-11


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
    # operator terms per (side, dtype), each built on first use (``_terms``)
    term_lists: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.Phi.shape[0]

    def lifts(self):
        return self.lifts_a + self.lifts_b + self.lifts_c


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

    @classmethod
    def of_symmetric(cls, P, Phat, S, Shat) -> "ValueCovarianceTuple":
        """The tuple of four exactly symmetric float64 blocks, frozen as they
        are: ``symmetrize`` would change no bit of a block whose entries stay
        below half the float64 maximum.  The blocks are made read-only."""
        out = object.__new__(cls)
        for name, M in zip(("P", "Phat", "S", "Shat"), (P, Phat, S, Shat)):
            M.setflags(write=False)
            object.__setattr__(out, name, M)
        return out

    def distance(self, other: "ValueCovarianceTuple") -> float:
        """Max over blocks of the Frobenius norm of the difference."""
        return max(
            frobenius_norm(a - b) for a, b in zip(self.blocks(), other.blocks())
        )

    def max_norm(self) -> float:
        return max(frobenius_norm(b) for b in self.blocks())


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


class _HalfIndices(NamedTuple):
    """Index arrays of the half-vectorization of symmetric d x d matrices.

    Entry k of ``_hvec(M)`` is M[i[k], j[k]], i >= j, in column-major
    order; lo and up are the positions of (i, j) and (j, i) in the
    column-major ``vec`` of a d x d matrix; off marks the entries with
    i > j, and omega is 1 on the diagonal entries and 2 off them.
    """

    i: np.ndarray
    j: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    off: np.ndarray
    omega: np.ndarray


@functools.lru_cache(maxsize=None)
def _half_indices(d: int) -> _HalfIndices:
    j, i = np.triu_indices(d)
    h = _HalfIndices(i, j, i + d * j, j + d * i, i != j, np.where(i == j, 1.0, 2.0))
    for a in h:
        a.setflags(write=False)
    return h


def _hvec(M):
    """The lower-triangle entries of M, column by column."""
    h = _half_indices(M.shape[0])
    return M[h.i, h.j]


def _unhvec(x, d):
    """The symmetric d x d matrix with lower triangle ``x`` (inverse of
    ``_hvec``)."""
    h = _half_indices(d)
    M = np.empty((d, d), dtype=x.dtype)
    M[h.i, h.j] = x
    M[h.j, h.i] = x
    return M


def _lift_blocks(aug: AugmentedClosedLoop):
    """(s2, r, c, D[r, c]) for each lift (s2, D), in the order of
    ``aug.lifts()``, with r and c the slices of the n x n block outside
    which D is zero: (x, x) for the A-lifts, (x, xhat) for the B-lifts and
    (xhat, x) for the C-lifts."""
    n = aug.dim // 2
    x, xhat = slice(0, n), slice(n, 2 * n)
    for family, r, c in ((aug.lifts_a, x, x), (aug.lifts_b, x, xhat), (aug.lifts_c, xhat, x)):
        for s2, D in family:
            yield s2, r, c, D[r, c]


@functools.lru_cache(maxsize=None)
def _block_positions(d: int, r: int, c: int) -> np.ndarray:
    """Where the ``term_product`` of the n x n block D[r:r+n, c:c+n] of a
    d x d term D (n = d/2) sits in the flattened ``term_product`` of D: at
    the ``_hvec`` rows of the lower triangle of the diagonal block at c,
    and at the entries [e, c'] with e and c' in r:r+n."""
    n = d // 2
    h, hb = _half_indices(d), _half_indices(n)
    position = np.empty((d, d), dtype=np.intp)
    position[h.i, h.j] = np.arange(len(h.i))
    k = position[hb.i + c, hb.j + c]
    e = np.arange(r, r + n)
    flat = (k[:, None, None] * d + e[:, None]) * d + e
    flat = flat.ravel()
    flat.setflags(write=False)
    return flat


def build_second_moment_matrix(aug: AugmentedClosedLoop, side: str) -> np.ndarray:
    """Psi_s ("value") or Gamma_s ("covariance"), the second-moment operator
    on symmetric matrices: n(2n+1) square, acting on ``_hvec``.

    Column (c, e) of Psi_s is hvec(Psi(E_ce + E_ec)), or hvec(Psi(E_cc)).
    Of the matrix of Psi on column-major vec only the lower-triangle rows
    are formed: row (a, b) at column (c, e) is the sum over the terms
    (s2, D) of s2 D[c, a] D[e, b], in the order (1, Phi), then the lifts,
    and the mirrored column (e, c) is added where c > e.  A lift that is
    zero outside the rows R and columns C of its block (``_lift_blocks``)
    adds non-zeros only at rows (a, b) in C x C and columns (c, e) in
    R x R, so its product is formed from the block alone and added there in
    place.  Everywhere else it would add a signed zero, which changes no
    bit of a sum that starts from 0.0 + Phi's product: no entry of that is
    -0.0.  Gamma_s is Omega^-1 Psi_s.T Omega; the factors of Omega are 1
    and 2, so the scaling is exact.
    """
    if side not in ("value", "covariance"):
        raise ValueError(f"side must be 'value' or 'covariance', got {side!r}")
    d = aug.dim
    rows = term_product(aug.Phi)
    rows += 0.0  # as 0.0 + rows: -0.0 becomes +0.0
    flat = rows.reshape(-1)  # a view: term_product returns a C-contiguous array
    for s2, r, c, D in _lift_blocks(aug):
        flat[_block_positions(d, r.start, c.start)] += (s2 * term_product(D)).reshape(-1)
    psi = gather_second_moment(rows)
    h = _half_indices(d)
    return psi if side == "value" else psi.T * h.omega / h.omega[:, None]


def term_product(D: np.ndarray) -> np.ndarray:
    """The sigma-free product of one term D of Psi_s (Phi or a lift).

    Entry [k, e, c] is D[c, a] D[e, b] for the lower-triangle row
    k = (a, b) of ``_hvec``.  Psi_s gathers (``gather_second_moment``)
    the sum of s2 times these products over the terms (s2, D), in the
    order (1, Phi), then the lifts.
    """
    h = _half_indices(D.shape[0])
    X = D.T
    return X[h.i, None, :] * X[h.j, :, None]


def gather_second_moment(rows: np.ndarray) -> np.ndarray:
    """Psi_s from the weighted sum ``rows`` of the ``term_product``s.

    Column (c, e) takes column (c, e) of the sum and, where c > e, adds the
    mirrored column (e, c).
    """
    k, d, _ = rows.shape
    h = _half_indices(d)
    rows = rows.reshape(k, d * d)
    psi = rows[:, h.lo]
    np.add(psi, rows[:, h.up], out=psi, where=h.off)
    return psi


def spectral_radius(matrix: np.ndarray) -> float:
    """Magnitude of the dominant eigenvalue of a square matrix (``eigvals``).

    On Psi_s or Gamma_s this is the spectral radius of the second-moment
    operator.  Raises EigenvalueFailure when ``eigvals`` fails or returns
    non-finite values.
    """
    try:
        eigs = la.eigvals(matrix)
    except la.LinAlgError as exc:
        raise EigenvalueFailure(f"eigenvalue computation failed: {exc}") from exc
    radius = float(np.max(np.abs(eigs)))
    if not np.isfinite(radius):
        raise EigenvalueFailure("eigenvalue computation produced non-finite values")
    return radius


def _operator_blocks(aug: AugmentedClosedLoop, value: bool, dtype=np.longdouble):
    """Terms (s2, r, c, D) in ``dtype`` with op(M) = sum s2 D.T M[r, r] D,
    each added into the block (c, c) only.

    Phi acts on the whole augmented state; each lift acts on its block
    (``_lift_blocks``).  On the covariance side the pairs are transposed
    and r and c swap, so an operator is applied in matrix form, without a
    Kronecker product.  Extended-precision residuals take the default
    longdouble terms; the float64 ones serve the cheap steps of a
    refinement (``_refine_sides``, ``_evaluate_against``).
    """
    full = slice(0, aug.dim)
    return [
        (dtype(s2), r, c, D.astype(dtype)) if value else (dtype(s2), c, r, D.T.astype(dtype))
        for s2, r, c, D in [(1.0, full, full, aug.Phi), *_lift_blocks(aug)]
    ]


def _terms(aug: AugmentedClosedLoop, value: bool, dtype=np.longdouble):
    """``_operator_blocks(aug, value, dtype)``, built once per loop: the
    certificate and both refinements of an evaluation share each list."""
    key = (value, dtype)
    terms = aug.term_lists.get(key)
    if terms is None:
        terms = aug.term_lists[key] = _operator_blocks(aug, value, dtype)
    return terms


def _add_operator(R, M, terms, sign=1.0):
    """R += sign op(M) in place, each term on its block (``_operator_blocks``).

    Outside its block a lift's full-size product is +0.0, which changes no
    entry once Phi's term, over the whole state, has been added; so the
    sums are bitwise those of full-size terms.  Subtracting is adding the
    negation, so ``sign`` -1 is bitwise ``R -= op(M)``.
    """
    for s2, r, c, D in terms:
        R[c, c] += (sign * s2) * (D.T @ M[r, r] @ D)
    return R


def _positive_operator_test(aug: AugmentedClosedLoop, X: np.ndarray) -> bool | None:
    """Stability certificate from a candidate X for X - Psi(X) = I.

    Recomputes R = X - Psi(X) in longdouble.  Psi is a positive operator,
    so (Damm 2004):

    * X > 0 and R >= r I, r > 0: Psi(X) <= X - r I <= (1 - r / lmax(X)) X,
      hence rho(Psi) <= 1 - r / lmax(X).  True when that bound is below
      1 - STABILITY_MARGIN.
    * R > 0 and X not positive semidefinite: a stable loop would have
      X = sum_k Psi^k(R) >= R > 0, hence rho(Psi) > 1.  False.

    None otherwise (non-finite X, R not positive definite, X nearly
    singular, or a bound too close to 1).  Eigenvalues count only beyond an
    allowance for the rounding of R and of ``eigvalsh``.
    """
    d = aug.dim
    if not np.all(np.isfinite(X)):
        return None
    X_ld = X.astype(np.longdouble)
    R = _add_operator(X_ld.copy(), X_ld, _terms(aug, True), -1.0)
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


def _inverse(M: np.ndarray) -> np.ndarray | None:
    """M^-1, or None when ``la.inv`` fails or returns non-finite entries."""
    try:
        inv = la.inv(M)
    except la.LinAlgError:
        return None
    return inv if np.isfinite(inv).all() else None


def _side_system(aug: AugmentedClosedLoop, side: str, rhs=None):
    """(b, omega, residual, minus_operator) of one side on the symmetric
    subspace.

    The value side solves (I - Psi_s) hvec(P') = hvec(Q').  The covariance
    side solves (I - Psi_s).T y = Omega hvec(W') for y = Omega hvec(S'),
    since I - Gamma_s = Omega^-1 (I - Psi_s).T Omega; the factors of Omega
    are 1 and 2, so the scaling is exact, and the inverse of the
    transpose is the transpose of the inverse.  ``rhs`` replaces Q' or W'.
    ``residual(y)`` returns b - A y and ``minus_operator(y)`` returns -A y,
    the residual with a zero right-hand side, in the dtype of ``y``,
    float64 or longdouble, applying the operator in matrix form
    (``_add_operator``) with the loop's terms in that dtype (``_terms``).
    """
    value = side == "value"
    if rhs is None:
        rhs = aug.Qprime if value else aug.Wprime
    d = rhs.shape[0]
    omega = 1.0 if value else _half_indices(d).omega

    def apply(y, zero_rhs):
        M = _unhvec(y / omega, d)
        R = (0.0 if zero_rhs else rhs.astype(y.dtype, copy=False)) - M
        return omega * _hvec(_add_operator(R, M, _terms(aug, value, y.dtype.type)))

    return omega * _hvec(rhs), omega, lambda y: apply(y, False), lambda y: apply(y, True)


def _refine_sides(
    aug: AugmentedClosedLoop, inv: np.ndarray, start: AugmentedSolution | None = None
) -> AugmentedSolution | None:
    """(P', S'), each side (``_side_system``) refined against ``inv``, an
    approximate inverse of I - Psi_s (its transpose on the covariance side);
    None where a refinement stops contracting (``solve_linear_extended``).

    Each side reaches a float64 solution y: from the warm ``start``, an
    earlier loop's solution (left unchanged), by float64 residual steps to
    HELD_FLOAT64_TOL; cold, without a ``start``, as inv @ b, already at
    float64 accuracy when ``inv`` is I - Psi_s's own inverse.  Then
    r0 = b - A y is computed once, in longdouble.  The correction delta
    solving A delta = r0 starts at inv @ r0, the first correction of a
    refinement from zero; unless that is within a float64 ulp of the
    largest entry of y, it is refined with float64 residuals r0 - A delta
    until a correction is.  The float64 error of A delta, about
    eps_float64 * gain * ||delta||, is far below the longdouble rounding of
    r0, about eps_longdouble * gain * ||y||, while ||delta|| is far below
    ||y||, so y + delta is as accurate as a refinement with longdouble
    residuals throughout (mixed-precision refinement; Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 12), at one longdouble
    operator application per side.

    The exactly symmetric result is within one float64 ulp of its largest
    entry of the extended-precision solution while cond(I - Psi_s) stays
    well below eps_float64 / eps_longdouble (about 2000 with 80-bit
    longdouble), as at radius 0.984, where it is 300.  The bound is
    norm-wise: on the converged loop of the benchmark's n=10 instance
    (radius 0.671, condition number 14.5) the cold start's largest error
    is 0.31 ulp of the largest entry, while 2 of the 400 entries of P' are
    more than one of their own ulps off (the worst 4.7, at an entry of
    1.9e-4).  Closer to the boundary the error grows with
    cond(I - Psi_s) * eps_longdouble relative to the norm of the solution:
    at radius 0.99987, where it is 3.7e4, up to 5.3 ulps of an entry on
    the value side and 3.6 on the covariance side.
    """
    eps, sides = np.finfo(np.float64).eps, []
    starts = (None, None) if start is None else (start.Pprime, start.Sprime)
    for side, side_inv, M in zip(("value", "covariance"), (inv, inv.T), starts):
        b, omega, residual, minus_operator = _side_system(aug, side)
        if M is None:
            y = side_inv @ b
        else:
            y = solve_linear_extended(side_inv, omega * _hvec(M), residual, HELD_FLOAT64_TOL)
            if y is None:
                return None
        y_ld = y.astype(np.longdouble)
        r0 = residual(y_ld).astype(np.float64)
        delta, scale = side_inv @ r0, float(abs(y).max())
        if abs(delta).max() > eps * scale:
            delta = solve_linear_extended(
                side_inv, delta, lambda dy: r0 + minus_operator(dy), eps, scale
            )
            if delta is None:
                return None
        x = (y_ld + delta) / omega
        sides.append(_unhvec(x, aug.dim).astype(np.float64))
    return AugmentedSolution(*sides)


def _evaluate_against(aug: AugmentedClosedLoop, prior: "Evaluation") -> "Evaluation | None":
    """The evaluation of a loop refined against the held inverse of
    ``prior``, an earlier evaluation of the same solve, and warm-started
    from its candidate, P' and S'; None when the held inverse does not
    serve.

    The certificate's candidate X, solving X - Psi(X) = I, is refined
    with float64 residuals to HELD_CANDIDATE_TOL;
    ``_positive_operator_test`` is sound for any candidate, so the loop
    counts as stable only where it returns True.  Both sides are then
    refined from ``prior.solution`` (``_refine_sides``).  None when the
    test does not return True, or when a refinement stops contracting
    (``solve_linear_extended``).  ``prior`` is left unchanged: every start
    is a copy.
    """
    d, held = aug.dim, prior.inv
    _, _, residual, _ = _side_system(aug, "value", np.eye(d))
    x = solve_linear_extended(held, prior.candidate.copy(), residual, HELD_CANDIDATE_TOL)
    if x is None or _positive_operator_test(aug, _unhvec(x, d)) is not True:
        return None
    sol = _refine_sides(aug, held, prior.solution)
    return None if sol is None else Evaluation(aug, True, sol, held, x)


@dataclass(eq=False)
class Evaluation:
    """One policy evaluation of a closed loop (``evaluate``).

    ``stable`` is the mean-square stability verdict.  A stable loop carries
    its ``solution`` (P', S'), its certificate's ``candidate`` hvec(X) for
    X - Psi(X) = I, and ``inv``, the inverse of I - Psi_s, or None below
    HELD_INVERSE_MIN_UNKNOWNS: the next evaluation of the same solve
    refines against ``inv`` from ``candidate`` and ``solution``.
    ``exact_radius`` holds the spectral radius once it has been computed:
    by the fallback when the positive-operator test cannot decide, or on
    request by ``radius()``.  Only a loop that is
    not stable keeps Psi_s (``psi``), for its radius.
    """

    aug: AugmentedClosedLoop
    stable: bool
    solution: AugmentedSolution | None = None
    inv: np.ndarray | None = None
    candidate: np.ndarray | None = None
    psi: np.ndarray | None = None
    exact_radius: float | None = None

    def radius(self) -> float:
        """The exact spectral radius, computed on first request; Psi_s is
        built for it where the evaluation kept none."""
        if self.exact_radius is None:
            psi = self.psi if self.psi is not None else build_second_moment_matrix(self.aug, "value")
            self.exact_radius = spectral_radius(psi)
        return self.exact_radius

    def cost(self) -> float:
        """Average cost <P', W'> of the policy, cross-checked against <S', Q'>.

        Raises NotMsStable with the exact radius when the loop is not
        stable, and DualityViolation when the two forms disagree beyond
        1e-9 * (1 + |J|), which signals an upstream solve bug.
        """
        sol = self._stable_solution()
        J = frobenius(sol.Pprime, self.aug.Wprime)
        J_dual = frobenius(sol.Sprime, self.aug.Qprime)
        if abs(J - J_dual) > COST_DUALITY_TOL * (1.0 + abs(J)):
            raise DualityViolation(J, J_dual)
        return J

    def _stable_solution(self) -> AugmentedSolution:
        if not self.stable:
            raise NotMsStable(self.radius())
        return self.solution


def evaluate(aug: AugmentedClosedLoop, prior: Evaluation | None = None) -> Evaluation:
    """Evaluate the policy of a closed loop: its mean-square stability and,
    when it is stable, both sides (P', S').  Never raises NotMsStable.

    From HELD_INVERSE_MIN_UNKNOWNS unknowns on, the ``inv`` of ``prior``,
    an earlier evaluation of the same solve, is tried first, warm-started
    from ``prior`` (``_evaluate_against``), and held again where it
    serves; ``prior`` is left unchanged.  Otherwise Psi_s is built and
    I - Psi_s inverted once.  The positive-operator test's
    candidate is X = (I - Psi_s)^-1 hvec(I); when the inverse fails or the
    test cannot decide, the loop is stable iff its exact spectral radius
    is below 1 - STABILITY_MARGIN.  A stable loop is solved on both sides
    with that inverse from the cold start (``_refine_sides``), and the
    evaluation holds it from the cut-over on.  A loop decided stable by
    its radius whose I - Psi_s LAPACK cannot invert, or whose refinement
    stops contracting, raises ``LinAlgError``.
    """
    d = aug.dim
    hold = d * (d + 1) // 2 >= HELD_INVERSE_MIN_UNKNOWNS
    if hold and prior is not None and prior.inv is not None:
        evaluation = _evaluate_against(aug, prior)
        if evaluation is not None:
            return evaluation
    psi = build_second_moment_matrix(aug, "value")
    inv = _inverse(np.eye(psi.shape[0]) - psi)
    verdict = radius = candidate = None
    if inv is not None:
        candidate = inv @ _hvec(np.eye(d))
        verdict = _positive_operator_test(aug, _unhvec(candidate, d))
    if verdict is None:
        radius = spectral_radius(psi)
        verdict = radius < 1.0 - STABILITY_MARGIN
    if not verdict:
        return Evaluation(aug, False, psi=psi, exact_radius=radius)
    del psi  # a stable evaluation keeps no Psi_s, and the solves need none
    if inv is None:
        raise la.LinAlgError("I - Psi_s of a loop inside the stability margin is singular")
    sol = _refine_sides(aug, inv)
    if sol is None:
        raise la.LinAlgError("refinement against the inverse of I - Psi_s stopped contracting")
    return Evaluation(aug, True, sol, inv if hold else None, candidate, exact_radius=radius)


def solve_lyapunov(aug: AugmentedClosedLoop, side: str) -> np.ndarray:
    """P' solving P' = Psi(P') + Q' (side="value") or S' solving
    S' = Gamma(S') + W' (side="covariance"), by ``evaluate``; NotMsStable
    when the loop is not mean-square stable."""
    if side not in ("value", "covariance"):
        raise ValueError(f"side must be 'value' or 'covariance', got {side!r}")
    sol = evaluate(aug)._stable_solution()
    return sol.Pprime if side == "value" else sol.Sprime


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
    """Full policy evaluation (``evaluate``): returns (aug, solution, cost).

    Raises NotMsStable when the controller does not stabilize the loop in
    the mean-square sense.
    """
    evaluation = evaluate(build_augmented(problem, ctrl))
    return evaluation.aug, evaluation.solution, evaluation.cost()
