import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mnlqg
from mnlqg import (
    Controller,
    CostModel,
    NoiseModel,
    NoiseTerm,
    ProblemInstance,
    SystemModel,
    pendulum_problem,
)

# Filled by the acceptance suite; echoed at the end of the run so the
# per-criterion verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def synthetic_problem(seed, n, noise_fraction=0.5):
    """The benchmark's synthetic instance (``perfbench/instances.py``, which
    imports nothing from the program) with m = p = 2."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    return instances.synthetic_problem(mnlqg, seed, n, 2, 2, noise_fraction)


def make_scalar_problem(sigma_a=0.0, w_diag=(0.01, 0.01)):
    """Scalar instance a=0.5, b=c=1 with optional state-dependent noise."""
    noise_a = (NoiseTerm(sigma_a, [[1.0]]),) if sigma_a else ()
    system = SystemModel(
        A=[[0.5]], B=[[1.0]], C=[[1.0]], noise_a=noise_a
    )
    return ProblemInstance(
        system,
        CostModel(np.eye(2)),
        NoiseModel(W=np.diag(w_diag), X0=np.zeros((1, 1))),
    )


def make_singular_filter_problem():
    """Scalar a=1.2, c=0 with no output noise: the filter's H_yy block is 0.

    The open loop is not mean-square stable (radius 1.44), so an ``auto``
    initial policy needs the noise-free design, whose first value-iteration
    step hits the singular block.
    """
    return ProblemInstance(
        SystemModel(A=[[1.2]], B=[[1.0]], C=[[0.0]]),
        CostModel(np.eye(2)),
        NoiseModel(W=np.diag([1.0, 0.0]), X0=np.zeros((1, 1))),
    )


def make_unstabilizable_problem():
    """Scalar a=1.2 with no input (b=0): no policy stabilizes the loop.

    The open loop is not mean-square stable (radius 1.44), and the
    noise-free design's control Riccati equation has no solution, so value
    iteration on it diverges.
    """
    return ProblemInstance(
        SystemModel(A=[[1.2]], B=[[0.0]], C=[[1.0]]),
        CostModel(np.eye(2)),
        NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
    )


def make_random_controller(problem, rng, scale=0.3):
    """Arbitrary (not necessarily stabilizing) controller with matching dims."""
    n, m, p = problem.n, problem.m, problem.p
    return Controller(
        F=scale * rng.standard_normal((n, n)),
        K=scale * rng.standard_normal((m, n)),
        L=scale * rng.standard_normal((n, p)),
    )


def assert_same_report(got, want):
    """Two solve reports agree bit for bit, iterate trajectory included,
    outside the wall-clock seconds of their histories."""
    assert (got.method, got.converged, got.iterations) == (want.method, want.converged, want.iterations)
    assert got.cost == want.cost and got.residual_norm == want.residual_norm
    for name in ("F", "K", "L"):
        assert np.array_equal(getattr(got.controller, name), getattr(want.controller, name))
    assert [entry.delta for entry in got.history] == [entry.delta for entry in want.history]
    assert len(got.solution_history) == len(want.solution_history)
    got_stacks = (got.solution.blocks(), *got.solution_history)
    want_stacks = (want.solution.blocks(), *want.solution_history)
    for X, Y in zip(got_stacks, want_stacks):
        assert all(np.array_equal(a, b) for a, b in zip(X, Y))


@pytest.fixture
def scalar_problem():
    return make_scalar_problem()


@pytest.fixture
def scalar_mult_problem():
    return make_scalar_problem(sigma_a=0.3)


@pytest.fixture
def pendulum_quiet():
    return pendulum_problem(0.0)
