"""Small dense linear-algebra helpers shared across the package."""

import math

import numpy as np
import numpy.linalg as la

# Refinement steps after the float64 solve in ``solve_linear_extended``: each
# shrinks the error by about cond(A) * eps, so the second one matters for
# loops near the stability boundary, where cond(I - Psi) grows.
REFINE_STEPS = 2


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
    """
    s = la.svd(M, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = float(s[0] / s[-1])
    if math.isnan(cond) and not np.isnan(M).any():
        return math.inf
    return cond


def min_eigval(M):
    """Smallest eigenvalue of the symmetric part of M."""
    return float(la.eigvalsh(symmetrize(M))[0])


def is_positive_definite(M, tol=1e-12):
    """Smallest eigenvalue strictly above an absolute floor."""
    return min_eigval(M) > tol


def is_positive_semidefinite(M, tol=1e-10):
    """Smallest eigenvalue above a floor scaled to the matrix size."""
    M = np.asarray(M)
    return min_eigval(M) >= -tol * (1.0 + la.norm(M))


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
    and Stability of Numerical Algorithms*, ch. 12): an inverse is not
    backward stable, but each step shrinks the error by about cond(A) * eps
    while that is well below one, down to one float64 ulp while
    cond(A) * eps_longdouble stays well below eps_float64, and to about
    cond(A) * eps_longdouble relative to ||x|| beyond that.  One inverse
    serves any number of right-hand sides and steps, where each LAPACK
    solve would factor A again.  Returns the longdouble solution.
    """
    x = (inv @ b).astype(np.longdouble)
    for _ in range(REFINE_STEPS):
        x += inv @ residual(x).astype(np.float64)
    return x
