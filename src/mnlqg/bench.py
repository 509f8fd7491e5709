"""Experiment instances, solver comparisons, and Monte-Carlo validation.

Two instance families are provided: a fixed pendulum discretization with
input-dependent noise scaled by a level factor eta in [0, 1], and randomly
generated two-state systems whose multiplicative noise variances are scaled
so the open loop sits exactly at the mean-square stability boundary before a
random fraction eta of that critical level is applied (the generated
instances are therefore open-loop mean-square stable by construction).

``run_comparison`` runs the chosen methods on one instance, each solver
with its own tolerance and iteration cap (``riccati``'s defaults), computes
the relative-error trace

    e_k = max over blocks of ||M_k - M*||_F / ||M_0 - M*||_F

against the fixed point of the first converged method, policy iteration
before value iteration, and reports per-method iteration counts, timings,
and the value-iteration/policy-iteration ratios.

CSV outputs (written by the CLI): a summary with one row per
(instance, method) and a long-format trace of e_k per iteration.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import moments, riccati
from .exceptions import RetryExhausted, SolverError, UnstableRollout
from .matrixmath import frobenius_norms, psd_factor
from .model import Controller, CostModel, NoiseModel, NoiseTerm, ProblemInstance, SystemModel
from .moments import ValueCovarianceTuple

__all__ = [
    "ConvergenceRecord",
    "ComparisonResult",
    "RolloutEstimate",
    "pendulum_problem",
    "random_problem",
    "convergence_metric",
    "run_comparison",
    "monte_carlo_cost",
    "SUMMARY_COLUMNS",
    "TRACE_COLUMNS",
    "write_summary_csv",
    "write_trace_csv",
]

METHODS = ("policy_iteration", "value_iteration")

# Denominators below this are treated as a zero initial error and the
# block's relative error is pinned to 0 so it cannot poison the max.
ZERO_ERROR_GUARD = 1e-300

# Draws ``random_problem`` makes before it gives up on a seed.
MAX_REDRAWS = 20

# Steps whose noise one generator call draws in ``monte_carlo_cost``: enough
# to amortize the per-call overhead, few enough that the block buffers stay
# small.  A block is shorter when its draws would pass _ROLLOUT_DRAWS values,
# so the buffers grow with the number of trials no faster than one step's.
_ROLLOUT_BLOCK = 8
_ROLLOUT_DRAWS = 2**14
# A rollout state above this magnitude counts as overflowed.
_ROLLOUT_OVERFLOW = 1e100


@dataclass(frozen=True, eq=False)
class ConvergenceRecord:
    """Per-method outcome on one instance."""

    method: str
    converged: bool
    iterations: int | None
    wall_seconds: float | None
    final_residual: float | None
    cost: float | None
    e_k: tuple[float, ...] = ()
    cum_seconds: tuple[float, ...] = ()
    error: str | None = None


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    """All method records for one instance plus the VI/PI ratios."""

    records: tuple[ConvergenceRecord, ...]
    ratio_iterations: float | None = None
    ratio_time: float | None = None


@dataclass(frozen=True, eq=False)
class RolloutEstimate:
    """Finite-horizon, finite-sample estimate of the average cost."""

    horizon: int
    trials: int
    seed: int
    cost_mean: float
    cost_stderr: float


def pendulum_problem(eta: float) -> ProblemInstance:
    """Euler-discretized torque-actuated pendulum with input-dependent noise.

    States are angular position and velocity; the single multiplicative
    noise term acts on the torque channel with standard deviation eta.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    system = SystemModel(
        A=[[1.0, 0.1], [1.0, 0.95]],
        B=[[0.0], [0.1]],
        C=[[1.0, 0.0]],
        noise_b=(NoiseTerm(eta * 1.0, [[0.0], [1.0]]),),
    )
    return ProblemInstance(
        system,
        CostModel(np.eye(3)),
        NoiseModel(W=np.diag([0.0, 0.01, 0.001]), X0=np.zeros((2, 2))),
    )


def _critical_noise_scale(A, Ad, variance):
    """Scale c on the A-noise variance putting the open loop exactly at
    radius 1.

    The radius is monotone increasing in c, so the root is bracketed by
    doubling and then bisected until |radius - 1| <= 1e-10.  Returns None
    when the target is unreachable (noise directions that cannot push the
    open loop to the boundary).

    At the open loop (K = 0, L = 0, F = A) the B- and C-lifts vanish and
    Psi_s splits into three hvec blocks (``moments.spectral_radius``).  The
    (x, x) block is the n-state operator M -> A.T M A + s2 Ad.T M Ad, s2
    the A-noise variance at scale c; the other two carry no noise and have
    radius rho(A)^2, that of M -> A.T M A.  Adding a positive map cannot
    lower the radius (Damm, *Rational Matrix Equations in Stochastic
    Control*, 2004), so the (x, x) block holds the open loop's radius, and
    only it is formed: T_A + s2 T_Ad, gathered from the sigma-free term
    products of A and Ad, formed once per draw, is bitwise the (x, x) block
    of the assembled instance's Psi_s (s2 = sigma^2 with sigma =
    sqrt(c variance), rounded as for a noise term of that sigma).  A
    rounding may still put a noise-free block's computed radius above the
    (x, x) block's, but every decision compares the radius with 1, and
    rho(A)^2 < 1 by construction: a decision could differ from one on the
    whole Psi_s only where rho(A)^2 lay within rounding of 1 - 1e-10.
    """
    T_A, T_Ad = moments.term_product(A) + 0.0, moments.term_product(Ad)  # + 0.0: -0.0 becomes +0.0

    def radius(c):
        s2 = float(np.sqrt(c * variance)) ** 2
        return moments.spectral_radius(moments.gather_second_moment(T_A + s2 * T_Ad))

    hi = 1.0
    for _ in range(80):
        if radius(hi) >= 1.0:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = radius(mid)
        if abs(r - 1.0) <= 1e-10:
            return mid
        if r < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def random_problem(seed: int):
    """Random two-state instance (n=2, m=1, p=1, one noise term per matrix).

    Entries of the mean matrices and noise patterns are standard normal; A
    is rescaled to a uniform random spectral radius in [0, 1); the noise
    variances are drawn uniform, rescaled so the open loop sits exactly at
    the mean-square stability boundary, and then multiplied by a uniform
    random level eta.  Returns (problem, eta); deterministic in ``seed``.

    Raises RetryExhausted when no draw reaches the boundary target within
    MAX_REDRAWS attempts.
    """
    rng = np.random.default_rng(seed)
    n, m, p = 2, 1, 1
    Q = np.eye(n + m)
    W = 0.01 * np.eye(n + p)
    for _ in range(MAX_REDRAWS):
        A = rng.standard_normal((n, n))
        rho_target = rng.uniform(0.0, 1.0)
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        patterns = (
            rng.standard_normal((n, n)),
            rng.standard_normal((n, m)),
            rng.standard_normal((p, n)),
        )
        variances = rng.uniform(0.0, 1.0, size=3)
        eta = rng.uniform(0.0, 1.0)
        rho_A = moments.spectral_radius(A)
        if rho_A <= 1e-12:
            continue
        A = A * (rho_target / rho_A)
        scale = _critical_noise_scale(A, patterns[0], variances[0])
        if scale is None:
            continue
        sigmas = np.sqrt(scale * variances * eta)
        system = SystemModel(A, B, C, *((NoiseTerm(s, D),) for s, D in zip(sigmas, patterns)))
        return ProblemInstance(system, CostModel(Q), NoiseModel(W=W, X0=np.zeros((n, n)))), eta
    raise RetryExhausted(
        f"could not reach the open-loop stability boundary in {MAX_REDRAWS} draws"
    )


def convergence_metric(
    history: np.ndarray, reference: ValueCovarianceTuple
) -> list[float]:
    """Relative errors e_k of an iterate trajectory against a fixed point.

    ``history`` is a (k, 4, n, n) array of iterate stacks (P, Phat, S,
    Shat), as ``SolveReport.solution_history``.  Per block,
    delta_k = ||M_k - M*|| / ||M_0 - M*|| (Frobenius); blocks whose initial
    error is zero contribute 0.  e_k is the max over the four blocks, so
    e_0 = 1 whenever the trajectory does not start at the fixed point, and
    NaN when any block's delta_k is: a NaN initial error is not read as a
    zero one.  The norms of the whole trajectory are taken in one batched
    product (``frobenius_norms``).
    """
    if not len(history):
        return []
    norms = frobenius_norms(history - reference.blocks())
    base = norms[0]
    deltas = np.divide(norms, base, out=np.zeros_like(norms), where=~(base <= ZERO_ERROR_GUARD))
    return deltas.max(axis=1).tolist()


def _run_method(problem, method):
    if method == "value_iteration":
        return riccati.value_iteration_solve(problem)
    return riccati.policy_iteration_solve(problem)


def run_comparison(
    problem: ProblemInstance, methods: tuple[str, ...] = METHODS
) -> ComparisonResult:
    """Run each of ``methods`` on one instance and collect records.

    ``methods`` is a nonempty selection from METHODS (ValueError otherwise).
    Solver failures are captured per method (they do not raise), so a batch
    caller can keep going; the VI/PI ratios are filled only when both
    methods produced converged runs.
    """
    if not methods:
        raise ValueError("methods must be nonempty")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    reports = {}
    failures = {}
    for method in methods:
        try:
            reports[method] = _run_method(problem, method)
        except SolverError as exc:
            failures[method] = exc

    # e_k's anchor: the fixed point of the first converged method in METHODS
    reference = next((reports[m].solution for m in METHODS if m in reports), None)

    records = []
    for method in methods:
        if method in reports:
            rep = reports[method]
            e_k = (
                tuple(convergence_metric(rep.solution_history, reference))
                if reference is not None
                else ()
            )
            records.append(
                ConvergenceRecord(
                    method=method,
                    converged=rep.converged,
                    iterations=rep.iterations,
                    wall_seconds=rep.history[-1].seconds,
                    final_residual=rep.residual_norm,
                    cost=rep.cost,
                    e_k=e_k,
                    cum_seconds=tuple(entry.seconds for entry in rep.history),
                )
            )
        else:
            exc = failures[method]
            records.append(
                ConvergenceRecord(
                    method=method,
                    converged=False,
                    iterations=getattr(exc, "iterations", None),
                    wall_seconds=None,
                    final_residual=None,
                    cost=None,
                    error=str(exc),
                )
            )

    ratio_iterations = None
    ratio_time = None
    if (
        "policy_iteration" in reports
        and "value_iteration" in reports
        and reports["policy_iteration"].iterations > 0
    ):
        pi_rep = reports["policy_iteration"]
        vi_rep = reports["value_iteration"]
        ratio_iterations = vi_rep.iterations / pi_rep.iterations
        pi_time = pi_rep.history[-1].seconds
        if pi_time > 0.0:
            ratio_time = vi_rep.history[-1].seconds / pi_time
    return ComparisonResult(tuple(records), ratio_iterations, ratio_time)


def monte_carlo_cost(
    problem: ProblemInstance,
    ctrl: Controller,
    horizon: int,
    trials: int,
    seed: int,
) -> RolloutEstimate:
    """Estimate the average cost by simulating the closed loop.

    Simulates ``trials`` independent rollouts of length ``horizon`` with
    Gaussian additive noise (joint covariance W), Gaussian multiplicative
    scalars, x0 ~ N(0, X0), and xhat0 = 0; returns the mean over trials of
    the time-averaged cost and its standard error.  Raises UnstableRollout
    at the first step whose state x overflows (non-finite or above 1e100 in
    magnitude), ValueError naming F, K or L when the controller does not
    fit the problem (``moments.build_augmented``), and ValueError naming K
    when the stage weight Q' is not finite, as where a finite but huge K
    overflows K.T Q_uu K.

    The rollouts simulate the augmented loop z = [x; xhat] of
    ``moments.build_augmented``, trials along the last axis.  One step is
    one stacked product plus the injected additive noise,

        z' = [Phi | D_1 | ... | D_q] [z; s_1 g_1 z; ...; s_q g_q z] + [w; L v],

    with D_i the sigma-free lift directions, s_i the noise terms' ``sigma``
    and g_i ~ N(0, 1) per trial; the stage cost is z.T Q' z.  The noise of
    a block of steps comes from one generator call, filled in the order of
    the per-step recursion on (x, xhat): x0, then per step (w, v) and the
    A, B and C scalars.  The estimate is therefore deterministic in ``seed``
    and matches that recursion to about 1e-12 relative.
    """
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be >= 1")
    aug = moments.build_augmented(problem, ctrl)  # checks the controller's shapes
    if not np.isfinite(aug.Qprime).all():
        raise ValueError("K makes the stage weight Q' non-finite: its products with Q overflow float64")
    sys = problem.system
    n, p = sys.n, sys.p
    d = 2 * n
    sigmas = np.array([t.sigma for t in sys.noise_a + sys.noise_b + sys.noise_c])
    q = sigmas.size
    Tw = np.concatenate([aug.Phi] + [D for _, D in aug.lifts()], axis=1)
    W_factor = psd_factor(problem.noise.W)
    inject = np.empty((d, n + p))
    inject[:n] = W_factor[:n]
    inject[n:] = ctrl.L @ W_factor[n:]

    rng = np.random.default_rng(seed)
    X0_factor = psd_factor(problem.noise.X0)
    additive = trials * (n + p)
    per_step = additive + trials * q
    block = min(_ROLLOUT_BLOCK, max(1, _ROLLOUT_DRAWS // per_step))
    # states[0] is the state entering a block; states[j + 1] is first set
    # to the injected noise of step j and then receives the step product.
    states = np.zeros((block + 1, d, trials))
    states[0, :n] = X0_factor @ rng.standard_normal((trials, n)).T
    draws = np.empty((block, per_step))
    coef = np.ones((block, 1 + q, 1, trials))  # coef[:, 0] = 1 keeps z
    lifted = np.empty((1 + q, d, trials))
    stacked = lifted.reshape((1 + q) * d, trials)
    step_product = np.empty((d, trials))
    costs = np.zeros(trials)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, horizon, block):
            k = min(block, horizon - start)
            rng.standard_normal(out=draws[:k])
            e = draws[:k, :additive].reshape(k, trials, n + p).transpose(0, 2, 1)
            np.matmul(inject, e, out=states[1 : k + 1])
            coef[:k, 1:, 0] = sigmas[:, None] * draws[:k, additive:].reshape(k, q, trials)
            for j in range(k):
                np.multiply(states[j], coef[j], out=lifted)
                np.matmul(Tw, stacked, out=step_product)
                states[j + 1] += step_product
            # nan compares False, so a non-finite x also counts as overflowed
            within = np.abs(states[1 : k + 1, :n]).max(axis=(1, 2)) <= _ROLLOUT_OVERFLOW
            if not within.all():
                raise UnstableRollout(start + int(np.argmin(within)))
            visited = states[:k]
            costs += ((aug.Qprime @ visited) * visited).sum((0, 1))
            states[0] = states[k]
    per_trial = costs / horizon
    mean = float(per_trial.mean())
    stderr = 0.0
    if trials > 1:
        # std squares the deviations, which overflow for costs near 1e154.
        # Costs scaled by 2^-e are at most 1 in magnitude, and a power of two
        # scales exactly, so a stderr that is finite unscaled stays bitwise.
        e = np.frexp(np.abs(per_trial).max())[1]
        stderr = float(np.ldexp(np.ldexp(per_trial, -e).std(ddof=1) / np.sqrt(trials), e))
    return RolloutEstimate(horizon, trials, seed, mean, stderr)


# ---------------------------------------------------------------------------
# CSV output

SUMMARY_COLUMNS = (
    "seed",
    "eta",
    "method",
    "iterations",
    "wall_seconds",
    "final_residual",
    "cost_J",
    "converged",
    "ratio_iterations",
    "ratio_time",
    "error",
)

TRACE_COLUMNS = ("seed", "method", "k", "e_k", "cum_seconds")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summary_csv(path, entries) -> None:
    """Write one row per (instance, method).

    ``entries`` is a sequence of (seed, eta, ComparisonResult).  The
    wall_seconds and ratio_time columns are wall-clock measurements and are
    exempt from byte-level reproducibility; everything else is deterministic
    given seeds.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for seed, eta, result in entries:
            for rec in result.records:
                writer.writerow(
                    [
                        _cell(seed),
                        _cell(float(eta)),
                        rec.method,
                        _cell(rec.iterations),
                        _cell(rec.wall_seconds),
                        _cell(rec.final_residual),
                        _cell(rec.cost),
                        _cell(rec.converged),
                        _cell(result.ratio_iterations),
                        _cell(result.ratio_time),
                        _cell(rec.error),
                    ]
                )


def write_trace_csv(path, entries) -> None:
    """Write the long-format e_k traces, one row per (instance, method, k)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for seed, _eta, result in entries:
            for rec in result.records:
                for k, (e_k, cum) in enumerate(zip(rec.e_k, rec.cum_seconds, strict=True)):
                    writer.writerow(
                        [_cell(seed), rec.method, k, _cell(float(e_k)), _cell(cum)]
                    )
