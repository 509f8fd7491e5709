"""Small dense linear-algebra helpers shared across the package."""

import math

import numpy as np
import numpy.linalg as la

# ``solve_linear_extended`` gives up on an approximate inverse when a
# correction is more than this fraction of the one before it, or after this
# many steps.
REFINE_CONTRACTION = 0.25
REFINE_MAX_STEPS = 40
# Eigenvalue floors of ``is_positive_definite`` and ``is_positive_semidefinite``.
PD_TOL = 1e-12
PSD_TOL = 1e-10


def symmetrize(M):
    """Return (M + M.T) / 2, of each matrix of a stack on the last two axes."""
    M = np.asarray(M)
    return 0.5 * (M + M.swapaxes(-1, -2))


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


def frobenius_norms(blocks):
    """Frobenius norms of the n x n blocks along the last two axes of
    ``blocks``.  One batched matmul takes each block's dot product with
    itself by the ``ddot`` call of ``frobenius_norm``: bitwise its result on
    an exactly symmetric block, whose rows and columns ravel alike."""
    rows = blocks.reshape(-1, 1, blocks.shape[-1] * blocks.shape[-2])
    return np.sqrt(rows @ rows.transpose(0, 2, 1)).reshape(blocks.shape[:-2])


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


def solve_linear_extended(inv, x, residual, tol, scale=None):
    """Refine the float64 ``x`` toward the solution of A x = b against an
    approximate inverse ``inv`` of A, until a correction is at most ``tol``
    times ``scale``, by default the largest entry of ``x``.

    ``residual(x)`` returns b - A x in float64; each step adds ``inv``
    times it to ``x`` in place.  Iterative refinement (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 12): the error after a step
    is (I - inv A) times the error before it, up to the rounding of the
    residual, so successive corrections shrink by about ||I - inv A||,
    which for the float64 inverse of A itself is about cond(A) * eps.  One
    inverse serves any number of right-hand sides and steps, where each
    LAPACK solve would factor A again.  Returns None when a correction does
    not shrink to REFINE_CONTRACTION times the one before it (for the
    first, times ``scale``), or after REFINE_MAX_STEPS steps: the inverse
    is then too far from A's to pay, or the rounding of the residual has
    stopped the progress.  A ``scale`` lets ``x`` be a small correction to
    a larger solution: refining the correction against a residual taken
    once in extended precision gives the solution to that precision
    (``moments._refine_sides``).
    """
    previous = float(abs(x).max()) if scale is None else scale
    for _ in range(REFINE_MAX_STEPS):
        dx = inv.dot(residual(x))
        x += dx
        size = float(abs(dx).max())
        if size <= tol * (float(abs(x).max()) if scale is None else scale):
            return x
        if not size <= REFINE_CONTRACTION * previous:
            return None
        previous = size
    return None
