"""Seeded synthetic problem instances for the benchmark.

``synthetic_problem(seed, n, m, p, noise_fraction)`` draws one instance with
one multiplicative noise term per matrix (A, B and C):

1. Mean matrices and noise patterns have standard-normal entries; A is
   rescaled to a spectral radius drawn uniformly from [0.5, 0.9).
2. Three relative variances are drawn uniformly from [0.1, 1).  A common
   scale ``c`` multiplies them; ``c`` is bisected until the open loop
   ``(F, K, L) = (A, 0, 0)`` sits at the mean-square stability boundary
   (second-moment spectral radius 1 within 1e-9), using only the public
   ``riccati.open_loop_controller`` and ``moments`` operator API.
3. The variances are multiplied by ``noise_fraction * c``, so the instance
   is open-loop mean-square stable for ``noise_fraction < 1``.

Rejection rule: a draw is discarded, and the next draw from the same
generator is taken, when rho(A) <= 1e-12 (A cannot be rescaled) or when
doubling ``c`` 60 times from 1 does not reach the boundary (the A-noise
pattern cannot destabilize the open loop).  Both tests look only at the
drawn matrices and the open-loop operator; no solver is run.  Q = I and
W = 0.01 I; X0 = 0.

The same arguments give the same matrices, so ``mnlqg.save_problem`` of
the result is byte-identical across runs.
"""

from __future__ import annotations

import numpy as np

MAX_DRAWS = 20
MAX_DOUBLINGS = 60
BOUNDARY_TOL = 1e-9


def _assemble(mnlqg, A, B, C, patterns, variances):
    Ad, Bd, Cd = patterns
    n, m = B.shape
    p = C.shape[0]
    sigmas = np.sqrt(variances)
    system = mnlqg.SystemModel(
        A,
        B,
        C,
        noise_a=(mnlqg.NoiseTerm(sigmas[0], Ad),),
        noise_b=(mnlqg.NoiseTerm(sigmas[1], Bd),),
        noise_c=(mnlqg.NoiseTerm(sigmas[2], Cd),),
    )
    return mnlqg.ProblemInstance(
        system,
        mnlqg.CostModel(np.eye(n + m)),
        mnlqg.NoiseModel(W=0.01 * np.eye(n + p), X0=np.zeros((n, n))),
    )


def _open_loop_radius(mnlqg, problem):
    aug = mnlqg.build_augmented(problem, mnlqg.open_loop_controller(problem))
    return mnlqg.spectral_radius(mnlqg.build_second_moment_matrix(aug, "value"))


def _critical_scale(mnlqg, A, B, C, patterns, variances):
    """Scale c with open-loop radius 1 at variances c * variances, or None."""

    def radius(c):
        return _open_loop_radius(mnlqg, _assemble(mnlqg, A, B, C, patterns, c * variances))

    hi = 1.0
    for _ in range(MAX_DOUBLINGS):
        if radius(hi) >= 1.0:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        r = radius(mid)
        if abs(r - 1.0) <= BOUNDARY_TOL or hi - lo <= 1e-15 * hi:
            return mid
        if r < 1.0:
            lo = mid
        else:
            hi = mid


def synthetic_problem(mnlqg, seed: int, n: int, m: int, p: int, noise_fraction: float):
    """Instance of the stated size at ``noise_fraction`` of critical noise.

    ``mnlqg`` is the imported package (passed in so this module imports
    nothing from the program at load time).  Raises RuntimeError when
    ``MAX_DRAWS`` draws are all rejected.
    """
    if not 0.0 <= noise_fraction < 1.0:
        raise ValueError(f"noise_fraction must lie in [0, 1), got {noise_fraction}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        A = rng.standard_normal((n, n))
        rho_target = rng.uniform(0.5, 0.9)
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        patterns = (
            rng.standard_normal((n, n)),
            rng.standard_normal((n, m)),
            rng.standard_normal((p, n)),
        )
        variances = rng.uniform(0.1, 1.0, size=3)
        rho_A = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho_A <= 1e-12:
            continue
        A = A * (rho_target / rho_A)
        scale = _critical_scale(mnlqg, A, B, C, patterns, variances)
        if scale is None:
            continue
        return _assemble(mnlqg, A, B, C, patterns, noise_fraction * scale * variances)
    raise RuntimeError(f"seed {seed}: all {MAX_DRAWS} draws rejected")
