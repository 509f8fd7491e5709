"""Small dense linear-algebra helpers shared across the package."""

import math

import numpy as np
import numpy.linalg as la

# Refinement steps after the float64 solve in ``solve_linear_extended``: each
# shrinks the error by about cond(A) * eps, so the second one matters for
# loops near the stability boundary, where cond(I - Psi) grows.
REFINE_STEPS = 2
# ``refine_until`` gives up on an approximate inverse when a correction is
# more than this fraction of the one before it, or after this many steps.
REFINE_CONTRACTION = 0.25
REFINE_MAX_STEPS = 40
# Eigenvalue floors of ``is_positive_definite`` and ``is_positive_semidefinite``.
PD_TOL = 1e-12
PSD_TOL = 1e-10


def symmetrize(M):
    """Return (M + M.T) / 2."""
    M = np.asarray(M)
    return 0.5 * (M + M.T)


def frobenius(A, B):
    """Frobenius inner product <A, B> = trace(A.T @ B)."""
    return float(np.tensordot(A, B, axes=2))


def frobenius_norm(M):
    """Frobenius norm of a float array as a Python float.

    The same dot product of the memory-order ravel that ``la.norm`` takes
    for a float array without ``ord`` or ``axis``, so the result is bitwise
    equal to ``float(la.norm(M))``, without its dispatch.
    """
    x = M.ravel(order="K")
    return math.sqrt(x.dot(x))


def condition_number(M):
    """2-norm condition number of a 2-d M, bitwise equal to ``np.linalg.cond``.

    One ``svd`` without vectors and numpy's own rule: s_max / s_min with
    floating-point errors ignored, and NaN (a zero or infinite block) read
    as inf unless M has NaN entries.  ``svd`` raises ``LinAlgError`` where
    it does not converge, as on NaN entries.

    A 1x1 M takes no ``svd``: its one singular value is |M|, so the ratio is
    1.0 when the entry is finite and non-zero, and inf (NaN read as inf)
    when it is 0 or infinite.
    """
    if M.shape == (1, 1):
        x = abs(float(M[0, 0]))
        if math.isnan(x):
            raise la.LinAlgError("SVD did not converge")
        return 1.0 if 0.0 < x < math.inf else math.inf
    s = la.svd(M, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = float(s[0] / s[-1])
    if math.isnan(cond) and not np.isnan(M).any():
        return math.inf
    return cond


def min_eigval(M):
    """Smallest eigenvalue of the symmetric part of M."""
    return float(la.eigvalsh(symmetrize(M))[0])


def is_positive_definite(M):
    """Smallest eigenvalue strictly above the absolute floor PD_TOL."""
    return min_eigval(M) > PD_TOL


def is_positive_semidefinite(M):
    """Smallest eigenvalue at least -PSD_TOL (1 + ||M||_F)."""
    M = np.asarray(M)
    return min_eigval(M) >= -PSD_TOL * (1.0 + la.norm(M))


def psd_factor(M):
    """A factor G with G @ G.T == M for symmetric PSD M.

    Eigenvalues below zero are clipped, so a slightly indefinite input
    (roundoff) yields the factor of its PSD projection.
    """
    w, V = la.eigh(symmetrize(M))
    return V * np.sqrt(np.clip(w, 0.0, None))


def solve_linear_extended(inv, b, residual):
    """Solve A x = b given the float64 inverse ``inv`` of A, then refine in
    extended precision.

    ``residual(x)`` returns b - A x in ``np.longdouble`` (80-bit on x86) for
    the longdouble iterate ``x``; each refinement step adds ``inv`` times
    that residual.  Mixed-precision iterative refinement (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 12): the error after a step
    is (I - inv A) times the error before it, up to the rounding of the
    residual, so refinement converges at the rate ||I - inv A|| for any
    approximate inverse ``inv``.  For the float64 inverse of A itself that
    rate is about cond(A) * eps: an inverse is not backward stable, but
    each step shrinks the error down to one float64 ulp while
    cond(A) * eps_longdouble stays well below eps_float64, and to about
    cond(A) * eps_longdouble relative to ||x|| beyond that.  One inverse
    serves any number of right-hand sides and steps, where each LAPACK
    solve would factor A again.  Returns the longdouble solution after
    REFINE_STEPS steps; ``refine_until`` takes as many as an approximate
    inverse needs.
    """
    x = (inv @ b).astype(np.longdouble)
    for _ in range(REFINE_STEPS):
        x += inv @ residual(x).astype(np.float64)
    return x


def refine_until(inv, x, residual, tol, scale=None):
    """Refine ``x`` toward the solution of A x = b against an approximate
    inverse ``inv`` of A, until a correction is at most ``tol`` times
    ``scale``, by default the largest entry of ``x``.

    ``residual(x)`` returns b - A x in the dtype of ``x``; each step adds
    ``inv`` times it, rounded to float64, to ``x`` in place.  The error
    shrinks by about ||I - inv A|| per step (``solve_linear_extended``), so
    successive corrections should shrink by at least that much.  Returns
    None when one does not shrink to REFINE_CONTRACTION times the one
    before it (for the first, times ``scale``), or after REFINE_MAX_STEPS
    steps: the inverse is then too far from A's to pay, or the rounding of
    the residual has stopped the progress.  A ``scale`` lets ``x`` be a
    correction to a larger solution, starting from zero.
    """
    previous = float(np.max(np.abs(x))) if scale is None else scale
    for _ in range(REFINE_MAX_STEPS):
        dx = inv @ residual(x).astype(np.float64)
        x += dx
        size = float(np.max(np.abs(dx)))
        if size <= tol * (float(np.max(np.abs(x))) if scale is None else scale):
            return x
        if not size <= REFINE_CONTRACTION * previous:
            return None
        previous = size
    return None
