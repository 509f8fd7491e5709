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
C-lifts at (xhat, x)), and the loop stores only that block; ``lifts()``
builds the zero-padded 2n x 2n matrices on call, for the Monte-Carlo
rollout.  Each lift's product is formed, and added, only over the
half-vectorized rows and columns its block touches, and the residuals in
matrix form likewise apply each lift on its block only, from the loop's one
term tuple per side (``AugmentedClosedLoop.terms`` and
``covariance_terms``).  Psi_s loses no part of the spectral radius:
rho(Psi) is attained at a positive semidefinite eigenvector
(Krein-Rutman), which is symmetric.  Under the trace inner product
<M, N> = hvec(M).T Omega hvec(N), with Omega = diag(1 on the diagonal, 2
off it), Gamma is the adjoint of Psi, so

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
within rounding of the new ones, and takes float64 residual steps first.
An exact evaluation then takes one longdouble residual at the float64
solution, and float64 residuals of the small correction to it bring the
side to extended-precision accuracy; that residual is the only
computation in extended precision, and every residual of a side takes the
loop's one float64 term tuple for it.  A loose evaluation, which policy
iteration asks for while its steps are large (``evaluate``'s
``tolerance``), refines in float64 to that relative tolerance only and
takes no longdouble residual: as in inexact Newton-Kleinman methods
(Feitzinger, Hylla and Sachs, SIAM J. Matrix Anal. Appl. 31, 2009), an
iterate that serves one gain update need not be accurate beyond the
step it is part of.  The held path also refines the certificate
candidate from the prior's, with float64 residuals, loose or exact alike.
All residuals are formed in matrix form, so the held path forms neither
Psi_s nor a new inverse.  Where the held inverse stops
contracting, or the certificate does not certify the loop stable, the
evaluation falls back to the fresh path, which also reports the exact
radius of a loop that is not stable.  Below HELD_INVERSE_MIN_UNKNOWNS
unknowns every evaluation is fresh.

Stability is decided without eigenvalues where possible.  Psi maps positive
semidefinite matrices to positive semidefinite ones, so the positive-operator
criterion (Damm, *Rational Matrix Equations in Stochastic Control*, 2004)
applies: with X solving X - Psi(X) = I and R = X - Psi(X) recomputed in
float64 for the rounded X, X > 0 and R >= r I with r > 0 give
Psi(X) <= (1 - r / lmax(X)) X, hence rho(Psi) <= 1 - r / lmax(X); and R > 0
with X not positive semidefinite gives rho(Psi) > 1.  Only when this test
cannot decide is the dense spectral radius computed (``spectral_radius``).
At K = 0 and L = 0, for any F, as at the open loop of a critical-noise
bisection, Phi = diag(A, F) and the B- and C-lifts vanish, so Psi maps the
(x, x), (xhat, x) and (xhat, xhat) blocks of M each into its own block:
Psi_s splits into three diagonal blocks of the hvec coordinates, n(n+1)/2,
n^2 and n(n+1)/2 square, and its radius is the largest of theirs.  Both
``spectral_radius`` and the inverse of I - Psi_s (``_inverse``) read the
decoupling from the entries (``_decoupled_blocks``), so a Psi_s with any
entry coupling two blocks takes one eigenvalue call, or one inverse, on
the whole.  From HELD_INVERSE_MIN_UNKNOWNS unknowns on, a decoupled
I - Psi_s, as at the open loop that policy iteration's default start
evaluates first, is inverted block by block: its inverse is the
block-diagonal matrix of the three blocks' inverses.  Of the three
blocks, in hvec order, the first, (x, x), takes its eigenvalues, and each
later block takes none where a certified bound by repeated squaring
(Gelfand's formula, ``_power_bounds``) places it below the largest radius
found before it.  At F = A the (x, x) block holds the radius: the other
two carry no noise and have radius rho(A)^2, that of M -> A.T M A, and the
(x, x) block adds to that map the positive A-noise terms, which cannot
lower its radius (Damm 2004).  So at every radius of the benchmark
generator's bisections the (x, x) block alone takes its eigenvalues, and
the bounds skip the two after it.  A complex matrix, which no operator
here is, takes one eigenvalue call on the whole.  A
loop whose operator gain (``AugmentedClosedLoop._gain``) overflows float64
has a Psi_s that float64 cannot hold; it counts as not stable, with radius
inf, and Psi_s is not built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import numpy.linalg as la
from numpy.linalg import _umath_linalg

from .exceptions import DualityViolation, EigenvalueFailure, LyapunovSolveFailure, NotMsStable
from .matrixmath import (
    frobenius, frobenius_norm, frobenius_norms, solve_linear_extended, symmetrize,
)
from .model import Controller, ProblemInstance

__all__ = [
    "STABILITY_MARGIN",
    "AugmentedClosedLoop",
    "AugmentedSolution",
    "Evaluation",
    "ValueCovarianceTuple",
    "build_augmented",
    "build_second_moment_matrix",
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
# same solve (``evaluate``).  Measured, PI solves of the benchmark's
# synthetic instances (README table): fresh inverses win up to n = 5 (55
# unknowns, 11.4-11.8 ms against 11.7-12.3 ms), the held one from n = 6
# (78 unknowns, 8.1-8.2 ms against 9.9-10.9 ms).  The cut-over stays at
# n = 8, since moving it changes the outputs of the solves it moves across
# and also gates ``_inverse``'s block path.
HELD_INVERSE_MIN_UNKNOWNS = 136
# Refinement against a held inverse, relative to the largest entry: the
# certificate's candidate need not be accurate; the float64 residual steps
# of each side stop above their rounding floor, about cond(I - Psi_s) eps.
HELD_CANDIDATE_TOL = 1e-6
HELD_FLOAT64_TOL = 1e-11
# A decoupled block after the first (``spectral_radius``) is skipped where
# its bound lies below the largest radius found so far by this relative
# margin, after at most POWER_BOUND_SQUARINGS squarings.
POWER_BOUND_MARGIN = 1e-6
POWER_BOUND_SQUARINGS = 4


@dataclass(frozen=True, eq=False)
class AugmentedClosedLoop:
    """Augmented closed-loop data: mean transition, weights, noise lifts.

    Each lift entry is a pair (sigma^2, n x n block): the lift's direction
    is zero outside that block of the augmented state, at (x, x) for the
    A-lifts, (x, xhat) for the B-lifts and (xhat, x) for the C-lifts.
    ``terms`` and ``covariance_terms`` are the operator's terms on each
    side, built once per loop; ``lifts()`` gives the full-size directions.
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

    @functools.cached_property
    def terms(self):
        """(s2, r, c, D) with Psi(M) = sum s2 D.T M[r, r] D, each term added
        into the block (c, c) only: (1, full, full, Phi), then each lift on
        its block, in the order A, B, C."""
        d = self.dim
        full, x, xhat = slice(0, d), slice(0, d // 2), slice(d // 2, d)
        families = ((self.lifts_a, x, x), (self.lifts_b, x, xhat), (self.lifts_c, xhat, x))
        lifts = ((s2, r, c, D) for family, r, c in families for s2, D in family)
        return ((1.0, full, full, self.Phi), *lifts)

    @functools.cached_property
    def covariance_terms(self):
        """The terms of Gamma: each pair of ``terms`` transposed, with r
        and c swapped."""
        return tuple((s2, c, r, D.T) for s2, r, c, D in self.terms)

    def lifts(self):
        """Each lift as (sigma^2, 2n x 2n direction), zero outside its
        block, in the order A, B, C; built on call."""
        d = self.dim
        full = []
        for s2, r, c, D in self.terms[1:]:
            lift = np.zeros((d, d))
            lift[r, c] = D
            full.append((s2, lift))
        return tuple(full)

    @functools.cached_property
    def _gain(self) -> float:
        """1 + the sum of s2 ||D||_F^2 over ``terms``, a Python float that
        overflows to inf without a warning.  ||X||_F + ||Psi(X)||_F <= gain
        ||X||_F, and no entry of Psi_s or of a partial sum of its terms
        exceeds gain in size."""
        with np.errstate(over="ignore"):
            return 1.0 + sum(s2 * frobenius_norm(D) ** 2 for s2, _, _, D in self.terms)


@dataclass(frozen=True, eq=False)
class AugmentedSolution:
    """Steady-state value matrix P' and second moment S' of a stable loop."""

    Pprime: np.ndarray
    Sprime: np.ndarray


@dataclass(frozen=True, eq=False, init=False)
class ValueCovarianceTuple:
    """The joint variable X = (P, Phat, S, Shat) of the coupled equations,
    symmetrized in one operation (bitwise ``symmetrize`` of each block) into
    one read-only (4, n, n) array, ``blocks()``, of which ``P``, ``Phat``,
    ``S`` and ``Shat`` are views."""

    P: np.ndarray
    Phat: np.ndarray
    S: np.ndarray
    Shat: np.ndarray
    _stack: np.ndarray = field(init=False, repr=False)
    _NAMES = ("P", "Phat", "S", "Shat")

    def __init__(self, P, Phat, S, Shat):
        blocks = (P, Phat, S, Shat)
        try:
            stack = np.array(blocks, dtype=float)
        except ValueError:
            self._check_shapes(blocks)
            raise
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            self._check_shapes(blocks)
        stack = symmetrize(stack)
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        for name, M in zip(self._NAMES, stack):
            object.__setattr__(self, name, M)

    @classmethod
    def _check_shapes(cls, blocks):
        """ValueError naming the first block not a square matrix of P's shape."""
        shapes = [np.shape(M) for M in blocks]
        for name, shape in zip(cls._NAMES, shapes):
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"block {name} has shape {shape}, not a square matrix's")
            if shape != shapes[0]:
                raise ValueError(f"block {name} has shape {shape}, but P has shape {shapes[0]}")

    def blocks(self) -> np.ndarray:
        return self._stack

    def distance(self, other: "ValueCovarianceTuple") -> float:
        """Max over blocks of the Frobenius norm of the difference; NaN
        when any block's norm is NaN."""
        return float(frobenius_norms(self._stack - other._stack).max())

    def max_norm(self) -> float:
        """Max over blocks of the Frobenius norm; NaN when any block's is."""
        return float(frobenius_norms(self._stack).max())


def build_augmented(problem: ProblemInstance, ctrl: Controller) -> AugmentedClosedLoop:
    """Assemble the augmented closed loop for a problem/controller pair.

    The one check that a controller fits its problem: ValueError naming F,
    K or L when its shape is not (n, n), (m, n) or (n, p).

    The lifts are stored as their n x n blocks: the A-lift's is the noise
    pattern itself, the B-lift's pattern @ K and the C-lift's L @ pattern.
    A product that overflows float64, as of a finite but huge gain, is inf
    or NaN without a warning; the loop's gain is then inf, and ``evaluate``
    counts it not stable.
    """
    sys = problem.system
    n, m, p = sys.n, sys.m, sys.p
    for name, shape in (("F", (n, n)), ("K", (m, n)), ("L", (n, p))):
        got = getattr(ctrl, name).shape
        if got != shape:
            raise ValueError(
                f"{name} must have shape {shape[0]}x{shape[1]} for problem dimensions "
                f"n={n}, m={m}, p={p}, got {got}"
            )
    A, B, C = sys.A, sys.B, sys.C
    K, L = ctrl.K, ctrl.L

    def blocks(xx, xz, zx, zz):
        out = np.empty((2 * n, 2 * n))
        out[:n, :n], out[:n, n:], out[n:, :n], out[n:, n:] = xx, xz, zx, zz
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        Phi = blocks(A, B @ K, L @ C, ctrl.F)
        Qxx, Qxu, Qux, Quu = problem.q_blocks()
        Qprime = symmetrize(blocks(Qxx, Qxu @ K, K.T @ Qux, K.T @ Quu @ K))
        Wxx, Wxy, Wyx, Wyy = problem.w_blocks()
        Wprime = symmetrize(blocks(Wxx, Wxy @ L.T, L @ Wyx, L @ Wyy @ L.T))
        lifts_b = tuple((t.sigma**2, t.pattern @ K) for t in sys.noise_b)
        lifts_c = tuple((t.sigma**2, L @ t.pattern) for t in sys.noise_c)
    lifts_a = tuple((t.sigma**2, t.pattern) for t in sys.noise_a)
    return AugmentedClosedLoop(Phi, Qprime, Wprime, lifts_a, lifts_b, lifts_c)


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
    """The lower-triangle entries of M, column by column: M[i, j] sits at
    the C-order flat position ``up`` = i d + j."""
    return M.take(_half_indices(M.shape[0]).up)


def _unhvec(x, d):
    """The symmetric d x d matrix with lower triangle ``x`` (inverse of
    ``_hvec``), written at the C-order flat positions of (i, j) and
    (j, i)."""
    h = _half_indices(d)
    M = np.empty(d * d, dtype=x.dtype)
    M[h.up] = x
    M[h.lo] = x
    return M.reshape(d, d)


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
    and the mirrored column (e, c) is added where c > e.  A lift, stored
    as its block on the rows R and columns C of the augmented state
    (``AugmentedClosedLoop.terms``), adds non-zeros only at rows (a, b) in
    C x C and columns (c, e) in R x R, so its product is formed from the
    block alone and added there in place.  Everywhere else it would add a
    signed zero, which changes no bit of a sum that starts from
    0.0 + Phi's product: no entry of that is -0.0.  Gamma_s is Omega^-1 Psi_s.T Omega; the factors of Omega are 1
    and 2, so the scaling is exact.
    """
    if side not in ("value", "covariance"):
        raise ValueError(f"side must be 'value' or 'covariance', got {side!r}")
    d = aug.dim
    rows = term_product(aug.Phi) + 0.0  # -0.0 becomes +0.0
    flat = rows.reshape(-1)  # a view: rows is C-contiguous
    for s2, r, c, D in aug.terms[1:]:
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


@functools.lru_cache(maxsize=None)
def _hvec_blocks(size: int) -> tuple[np.ndarray, tuple[tuple[slice, int], ...]] | None:
    """The three hvec blocks of the symmetric 2n x 2n matrices, for a
    size x size matrix acting on ``_hvec``; None when size is not n(2n+1)
    for any n >= 1.

    The blocks are the diagonal blocks of the rows and columns whose entry
    (i, j) lies in (x, x), (xhat, x) and (xhat, xhat), in that order:
    n(n+1)/2, n^2 and n(n+1)/2 square.  Returns the flat (C-order)
    positions of their entries, block after block and each row by row, and
    per block its slice of them and its size.
    """
    n = (math.isqrt(8 * size + 1) - 1) // 4  # 8 n(2n+1) + 1 = (4n + 1)^2
    if n < 1 or n * (2 * n + 1) != size:
        return None
    h = _half_indices(2 * n)
    block = (h.i >= n).astype(np.intp) + (h.j >= n)  # i >= j: no (x, xhat)
    rows = [np.flatnonzero(block == b) for b in range(3)]
    entries = np.concatenate([(k[:, None] * size + k).ravel() for k in rows])
    entries.setflags(write=False)
    sizes = [len(k) for k in rows]
    ends = np.cumsum([k * k for k in sizes]).tolist()
    return entries, tuple((slice(end - k * k, end), k) for end, k in zip(ends, sizes))


def _decoupled_blocks(a: np.ndarray) -> list[np.ndarray] | None:
    """The three diagonal hvec blocks (``_hvec_blocks``) of a square matrix
    ``a`` that no non-zero entry couples, in hvec order; None where ``a`` is
    not n(2n+1) square or an entry outside the blocks is not zero (a NaN
    counts as non-zero)."""
    blocks = _hvec_blocks(a.shape[0])
    if blocks is None:
        return None
    entries, spans = blocks
    inside = a.take(entries)
    if np.count_nonzero(inside) != np.count_nonzero(a):  # a coupling entry
        return None
    return [inside[span].reshape(k, k) for span, k in spans]


def _eigvals(a: np.ndarray) -> np.ndarray:
    """The complex eigenvalues of one square matrix with finite entries:
    the LAPACK gufunc that ``la.eigvals`` calls, so they are bitwise its,
    without its argument checks and error-state context, which
    ``spectral_radius`` applies once per radius.  A LAPACK failure leaves
    NaNs and sets the floating-point invalid flag."""
    return _umath_linalg.eigvals(a, signature="D->D" if a.dtype.kind == "c" else "d->D")


def spectral_radius(matrix: np.ndarray) -> float:
    """Magnitude of the dominant eigenvalue of a square matrix.

    On Psi_s or Gamma_s this is the spectral radius of the second-moment
    operator.  Where the matrix is n(2n+1) square and no non-zero entry
    couples two of its hvec blocks (``_hvec_blocks``), its eigenvalues are
    those of the three diagonal blocks, and the radius is the largest of
    their radii.  Psi_s and Gamma_s decouple so at K = 0 and L = 0, for
    any F: Phi = diag(A, F), the B- and C-lifts vanish, and Psi(M) maps
    M[x, x], M[xhat, x] and M[xhat, xhat] each into its own block.  This is
    the open loop of the benchmark generator's critical-noise bisection,
    where eigenvalues of matrices 55, 100 and 55 square stand in for one
    210 square at n=10.  Every other matrix takes one call on the whole,
    bitwise the radius ``la.eigvals`` gives.

    Not every block needs its eigenvalues.  The first takes them; each
    later block, in hvec order, is bounded by repeated squaring
    (``_power_bounds``) and skipped where a bound, refined while it is not,
    lies below the largest radius found so far by the relative
    POWER_BOUND_MARGIN.  At the open loop with F = A the (x, x) block,
    first, holds the radius (module docstring), so the other two are
    skipped, and a radius at n=10 takes the eigenvalues of one block 55
    square, at n=4 of one block 10 square.  On the benchmark generator's
    bisections (seeds 11-20 at n = 1 to 6, 8 and 10, 11-13 at n = 12 and 11
    at n = 16; 2,554 radii) every radius took the eigenvalues of the (x, x)
    block alone.  The radius stays bitwise the largest of all blocks'
    computed radii: a skipped block's bound exceeds the radius of every
    perturbation of it within the backward error of ``eigvals``, so the
    eigenvalues it would have computed are no larger than the bound, up to
    the rounding of their magnitudes (a few units of u), and the margin,
    1e-6, is ten orders of magnitude above that rounding and leaves room
    for a backward error beyond the bound's allowance: the skipped block's
    computed radius would have stayed below the largest.  The bounds are
    for real blocks, so a complex matrix takes one call on the whole.

    ValueError naming the shape unless the matrix is square and not
    empty.  EigenvalueFailure, with ``la.eigvals``'s message, when an entry
    is not finite or LAPACK does not converge, and when an eigenvalue is
    not finite.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"spectral_radius needs a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise EigenvalueFailure("eigenvalue computation failed: Array must not contain infs or NaNs")
    parts = [a] if a.dtype.kind == "c" else _decoupled_blocks(a) or [a]
    radius = 0.0
    with np.errstate(all="ignore", invalid="raise"):
        try:
            for part in parts:
                limit = radius * (1.0 - POWER_BOUND_MARGIN)
                if radius > 0.0 and any(b < limit for b in _power_bounds(part)):
                    continue
                # np.maximum keeps a NaN radius, which max() would drop
                radius = float(np.maximum(radius, abs(_eigvals(part)).max()))
        except FloatingPointError as exc:
            raise EigenvalueFailure("eigenvalue computation failed: Eigenvalues did not converge") from exc
    if not np.isfinite(radius):
        raise EigenvalueFailure("eigenvalue computation produced non-finite values")
    return radius


def _power_bounds(block: np.ndarray):
    """Successive upper bounds on the spectral radius of a k x k ``block``,
    by Gelfand's formula rho(B) <= ||B^m||^(1/m), one per squaring.

    C_0 = B and C_j = fl(C_{j-1}^2) for j = 1 .. POWER_BOUND_SQUARINGS;
    c_j >= ||C_j||_F and e_j >= ||C_j - B^(2^j)||_F, so
    rho(B) <= (c_j + e_j)^(1 / 2^j), the j-th bound, yielded after the
    j-th squaring, so that a block the first square decides takes one.

    A computed product of real k x k matrices is off by at most
    gamma |X| |Y| entrywise, gamma = k u / (1 - k u) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, sec. 3.5), so
    e_j = (2 c_{j-1} + e_{j-1}) e_{j-1} + gamma c_{j-1}^2.  Every scalar
    is rounded up by the factor 1 + 2 k^2 u, above the relative error of a
    norm's sum of squares and of each scalar operation.  Underflow, which
    the relative bounds leave out, adds at most k^2 times the smallest
    normal float64 to a squared norm and to an e_j, and that is added to
    both.  e_0 is not 0 but gamma c_0, an allowance for the backward error
    of ``eigvals`` (LAPACK's QR algorithm finds the eigenvalues of some
    B + E with ||E|| a small multiple of u ||B||): each bound then holds
    for the radius of every such B + E, the radius ``eigvals`` would
    report, up to the rounding of its magnitudes.  The block is real, as
    every decoupled block ``spectral_radius`` bounds, and is squared in
    the float64 cast that ``eigvals`` takes.  Squarings that overflow give
    an inf or NaN bound, without a warning.
    """
    C = block.astype(np.float64, copy=False)
    k, u = C.shape[0], np.finfo(np.float64).eps / 2
    gamma, up = k * u / (1.0 - k * u), 1.0 + 2.0 * k * k * u
    tiny = k * k * np.finfo(np.float64).tiny

    def norm(X):
        x = X.ravel()
        return math.sqrt(np.vdot(x, x) + tiny) * up

    with np.errstate(over="ignore", invalid="ignore"):
        c = norm(C)
    e = gamma * c * up
    for j in range(1, POWER_BOUND_SQUARINGS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            C = C @ C
            e = ((2.0 * c + e) * e + gamma * c * c + tiny) * up
            c = norm(C)
        yield (c + e) ** (0.5**j) * up


def _add_operator(R, M, terms, sign=1.0):
    """R += sign op(M) in place, for ``terms`` a side's tuple
    (``AugmentedClosedLoop.terms`` or ``covariance_terms``): each term
    s2 D.T M[r, r] D added into the block (c, c) only, in the precision of
    M (a float64 D is cast exactly to a longdouble M's).

    Outside its block a lift's full-size product is +0.0, which changes no
    entry once Phi's term, over the whole state, has been added; so the
    sums are bitwise those of full-size terms.  Subtracting is adding the
    negation, so ``sign`` -1 is bitwise ``R -= op(M)``.

    Each product is D.T.dot(M[r, r]).dot(D), bitwise D.T @ M[r, r] @ D
    but for the sign of a zero: ``ndarray.dot`` skips the ufunc dispatch
    of ``@``, and for longdouble, where neither has a BLAS path, sums in
    the same order about three times as fast (20 us against 59 us for a
    20 x 20 triple product, 1.8 us against 2.9 us in float64; timeit, best
    of 7, one BLAS thread, Xeon).  At n=1 a 1 x 1 lift block takes ``dot``'s
    scalar path, whose zero product can be -0.0 where ``@`` sums to +0.0
    (``riccati`` module docstring); adding +0.0 restores that sign and
    changes no other value.
    """
    cast = M.dtype != np.float64
    for s2, r, c, D in terms:
        if cast:
            D = D.astype(M.dtype)
        R[c, c] += (sign * s2) * (D.T.dot(M[r, r]).dot(D) + 0.0)
    return R


def _positive_operator_test(aug: AugmentedClosedLoop, X: np.ndarray) -> bool | None:
    """Stability certificate from a candidate X for X - Psi(X) = I.

    Recomputes R = X - Psi(X) in float64.  Psi is a positive operator,
    so (Damm 2004):

    * X > 0 and R >= r I, r > 0: Psi(X) <= X - r I <= (1 - r / lmax(X)) X,
      hence rho(Psi) <= 1 - r / lmax(X).  True when that bound is below
      1 - STABILITY_MARGIN.
    * R > 0 and X not positive semidefinite: a stable loop would have
      X = sum_k Psi^k(R) >= R > 0, hence rho(Psi) > 1.  False.

    None otherwise (non-finite X, R not positive definite, X nearly
    singular, or a bound too close to 1).  Eigenvalues count only beyond an
    allowance for the rounding of ``eigvalsh`` and of R, whose float64 sum
    is at most gain ||X||_F in size (``AugmentedClosedLoop._gain``), so that
    its rounding error is at most 4 d eps gain ||X||_F in the Frobenius
    norm, and by Weyl's inequality in each eigenvalue.  None also where
    that scale overflows float64.
    """
    d, eps = aug.dim, np.finfo(np.float64).eps
    scale = aug._gain * frobenius_norm(X)
    if not scale < np.inf:
        return None
    R = _add_operator(X.copy(), X, aug.terms, -1.0)
    wX = la.eigvalsh(X)
    wR = la.eigvalsh(symmetrize(R))
    slack_X = d * eps * max(-wX[0], wX[-1])
    slack_R = d * eps * max(-wR[0], wR[-1]) + 4 * d * eps * scale
    r = wR[0] - slack_R
    if not r > 0.0:
        return None
    if wX[0] > slack_X:
        return True if 1.0 - r / (wX[-1] + slack_X) < 1.0 - STABILITY_MARGIN else None
    return False if wX[0] < -slack_X else None


def _inverse(M: np.ndarray) -> np.ndarray | None:
    """M^-1 for M = I - Psi_s, or None when an ``la.inv`` fails or returns
    non-finite entries.

    From HELD_INVERSE_MIN_UNKNOWNS rows on, an M whose hvec blocks no
    non-zero entry couples (``_decoupled_blocks``), as at the open loop
    that PI's default start evaluates, is inverted block by block: the
    inverse of a block-diagonal matrix is block-diagonal, so each of the
    three diagonal blocks is inverted alone and scattered back to its
    positions, with exact zeros elsewhere.  At n=10 that is three
    inverses 55, 100 and 55 square for one 210 square.  Every other M,
    and every M below the cut-over, takes one ``la.inv`` on the whole.
    """
    parts = _decoupled_blocks(M) if M.shape[0] >= HELD_INVERSE_MIN_UNKNOWNS else None
    try:
        if parts is None:
            inv = la.inv(M)
        else:
            inv = np.zeros_like(M)
            inv.put(_hvec_blocks(M.shape[0])[0], np.concatenate([la.inv(part).ravel() for part in parts]))
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
    the residual with a zero right-hand side, in the precision of ``y``,
    float64 or, for the one residual per side of ``_refine_sides``,
    longdouble, applying the operator in matrix form (``_add_operator``)
    with the loop's float64 term tuple of the side (``aug.terms`` or
    ``aug.covariance_terms``).
    """
    value = side == "value"
    if rhs is None:
        rhs = aug.Qprime if value else aug.Wprime
    d = rhs.shape[0]
    omega = 1.0 if value else _half_indices(d).omega
    terms = aug.terms if value else aug.covariance_terms

    def apply(y, zero_rhs):
        M = _unhvec(y if value else y / omega, d)
        R = _hvec(_add_operator((0.0 if zero_rhs else rhs) - M, M, terms))
        return R if value else omega * R

    return omega * _hvec(rhs), omega, lambda y: apply(y, False), lambda y: apply(y, True)


def _refine_sides(
    aug: AugmentedClosedLoop,
    inv: np.ndarray,
    start: AugmentedSolution | None = None,
    tolerance: float | None = None,
) -> AugmentedSolution | None:
    """(P', S'), each side (``_side_system``) refined against ``inv``, an
    approximate inverse of I - Psi_s (its transpose on the covariance side);
    None where a refinement stops contracting (``solve_linear_extended``).

    Each side reaches a float64 solution y: from the warm ``start``, an
    earlier loop's solution (left unchanged), by float64 residual steps to
    HELD_FLOAT64_TOL, or to ``tolerance`` where one is given; cold, without
    a ``start``, as inv @ b, already at float64 accuracy when ``inv`` is
    I - Psi_s's own inverse.  With a ``tolerance`` (a loose evaluation,
    ``evaluate``) y is the side's solution.  Without one, r0 = b - A y is
    computed once, in longdouble.  The correction delta
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
    entry of the exact solution of the float64 data while cond(I - Psi_s)
    stays well below eps_float64 / eps_longdouble (about 2000 with 80-bit
    longdouble), as at radius 0.984, where it is 300.  The bound is
    norm-wise: on the converged loop of the benchmark's n=10 instance
    (radius 0.671, condition number 14.5) the cold start's largest error
    is 0.286 ulp of the largest entry on the value side and 0.489 on the
    covariance side, while 2 of the 400 entries of P' are more than one of
    their own ulps off (the worst 1.94, at an entry of 1.9e-4).  Closer to
    the boundary the error grows with cond(I - Psi_s) * eps_longdouble
    relative to the norm of the solution: at radius 0.99987, where it is
    3.7e4, up to 0.84 ulps of an entry on the value side and 2.81 on the
    covariance side.  Every figure is measured against the exact rational
    solution of the tests' oracle ``lyapunov_exact``.
    """
    eps, sides = np.finfo(np.float64).eps, []
    starts = (None, None) if start is None else (start.Pprime, start.Sprime)
    float64_tol = HELD_FLOAT64_TOL if tolerance is None else tolerance
    for side, side_inv, M in zip(("value", "covariance"), (inv, inv.T), starts):
        b, omega, residual, minus_operator = _side_system(aug, side)
        if M is None:
            y = side_inv.dot(b)
        else:
            y = solve_linear_extended(side_inv, omega * _hvec(M), residual, float64_tol)
            if y is None:
                return None
        if tolerance is None:
            y_ld = y.astype(np.longdouble)
            r0 = residual(y_ld).astype(np.float64)
            delta, scale = side_inv.dot(r0), float(abs(y).max())
            if abs(delta).max() > eps * scale:
                delta = solve_linear_extended(
                    side_inv, delta, lambda dy: r0 + minus_operator(dy), eps, scale
                )
                if delta is None:
                    return None
            y = y_ld + delta
        sides.append(_unhvec(y / omega, aug.dim).astype(np.float64, copy=False))
    return AugmentedSolution(*sides)


def _evaluate_against(
    aug: AugmentedClosedLoop, prior: "Evaluation", tolerance: float | None
) -> "Evaluation | None":
    """The evaluation of a loop refined against the held inverse of
    ``prior``, an earlier evaluation of the same solve, and warm-started
    from its candidate, P' and S'; None when the held inverse does not
    serve.

    The certificate's candidate X, solving X - Psi(X) = I, is refined
    with float64 residuals to HELD_CANDIDATE_TOL;
    ``_positive_operator_test`` is sound for any candidate, so the loop
    counts as stable only where it returns True.  Both sides are then
    refined from ``prior.solution`` (``_refine_sides``), to ``tolerance``
    where it is not None.  None when the
    test does not return True, or when a refinement stops contracting
    (``solve_linear_extended``).  ``prior`` is left unchanged: every start
    is a copy.

    Loose evaluations start warm too: refined to their tolerance from the
    cold start held @ b instead, the six loose evaluations of the
    benchmark's n=10 PI solve took 88 float64 operator applications in
    place of 50, and the seven of its n=12 instance 135 in place of 73.
    """
    d, held = aug.dim, prior.inv
    _, _, residual, _ = _side_system(aug, "value", np.eye(d))
    x = solve_linear_extended(held, prior.candidate.copy(), residual, HELD_CANDIDATE_TOL)
    if x is None or _positive_operator_test(aug, _unhvec(x, d)) is not True:
        return None
    sol = _refine_sides(aug, held, prior.solution, tolerance)
    return None if sol is None else Evaluation(aug, True, sol, held, x, tolerance=tolerance)


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
    not stable keeps Psi_s (``psi``), for its radius.  ``tolerance`` is the
    relative tolerance of a loose evaluation (``evaluate``), None for an
    exact one.
    """

    aug: AugmentedClosedLoop
    stable: bool
    solution: AugmentedSolution | None = None
    inv: np.ndarray | None = None
    candidate: np.ndarray | None = None
    psi: np.ndarray | None = None
    exact_radius: float | None = None
    tolerance: float | None = None

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


def evaluate(
    aug: AugmentedClosedLoop, prior: Evaluation | None = None, tolerance: float | None = None
) -> Evaluation:
    """Evaluate the policy of a closed loop: its mean-square stability and,
    when it is stable, both sides (P', S').  Never raises NotMsStable.
    A loop whose operator gain overflows float64 is not stable, with
    ``exact_radius`` inf (module docstring).

    The evaluation is exact, each side within a float64 ulp of its largest
    entry (``_refine_sides``), unless ``tolerance`` exceeds
    HELD_FLOAT64_TOL: then it is loose, each side's float64 refinement
    stops at that relative tolerance and the longdouble residual and its
    correction are skipped.  The evaluation records the tolerance of a
    loose evaluation (``Evaluation.tolerance``), None for an exact one.
    Policy iteration asks for loose evaluations while its steps are large
    (``riccati.policy_iteration_solve``).  The stability verdict does not
    depend on it: the certificate's candidate is refined to
    HELD_CANDIDATE_TOL either way.

    From HELD_INVERSE_MIN_UNKNOWNS unknowns on, the ``inv`` of ``prior``,
    an earlier evaluation of the same solve, is tried first, warm-started
    from ``prior`` (``_evaluate_against``), and held again where it
    serves; ``prior`` is left unchanged.  Otherwise Psi_s is built and
    I - Psi_s inverted once (``_inverse``), block by block where it
    decouples from the cut-over on, as at the open loop.  The
    positive-operator test's
    candidate is X = (I - Psi_s)^-1 hvec(I); when the inverse fails or the
    test cannot decide, the loop is stable iff its exact spectral radius
    is below 1 - STABILITY_MARGIN.  A stable loop is solved on both sides
    with that inverse from the cold start (``_refine_sides``), and the
    evaluation holds it from the cut-over on.  A loop decided stable by
    its radius whose I - Psi_s LAPACK cannot invert, or whose refinement
    stops contracting, raises ``LyapunovSolveFailure``, a ``SolverError``.
    """
    d = aug.dim
    if not aug._gain < np.inf:  # Psi_s would overflow float64
        return Evaluation(aug, False, exact_radius=np.inf)
    if not (tolerance is not None and tolerance > HELD_FLOAT64_TOL):  # also NaN
        tolerance = None
    hold = d * (d + 1) // 2 >= HELD_INVERSE_MIN_UNKNOWNS
    if hold and prior is not None and prior.inv is not None:
        evaluation = _evaluate_against(aug, prior, tolerance)
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
        raise LyapunovSolveFailure("I - Psi_s of a loop inside the stability margin is singular")
    sol = _refine_sides(aug, inv, tolerance=tolerance)
    if sol is None:
        raise LyapunovSolveFailure("refinement against the inverse of I - Psi_s stopped contracting")
    return Evaluation(
        aug, True, sol, inv if hold else None, candidate, exact_radius=radius, tolerance=tolerance
    )


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
