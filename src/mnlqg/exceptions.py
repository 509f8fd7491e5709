"""Exception types raised by the solvers, generators, and file readers."""

import copyreg


class MnlqgError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # Pickle (e.g. from a bench-random worker process) by message and
        # attributes: Exception's default calls cls(*args), which does not
        # fit the subclasses whose __init__ takes the fields the message is
        # built from.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ProblemFormatError(MnlqgError):
    """A problem or controller document could not be read."""


class ParseError(ProblemFormatError):
    """The document is not well-formed JSON."""


class SchemaError(ProblemFormatError):
    """The document is valid JSON but violates the schema (missing field,
    wrong type, wrong dimension)."""


class SolverError(MnlqgError):
    """Base class for solver and simulation failures."""


class NotMsStable(SolverError):
    """A Lyapunov solve was requested for a closed loop that is not
    mean-square stable."""

    def __init__(self, radius):
        self.radius = radius
        super().__init__(
            f"closed loop is not mean-square stable "
            f"(second-moment spectral radius {radius:.6g} >= 1)"
        )


class EigenvalueFailure(SolverError):
    """The dense eigenvalue computation failed or produced non-finite values."""


class LyapunovSolveFailure(SolverError):
    """The Lyapunov equations of a loop decided mean-square stable could
    not be solved: I - Psi_s could not be inverted, or refinement against
    its inverse stopped contracting."""


class SingularBlock(SolverError):
    """A gain computation hit a numerically singular G_uu or H_yy block."""

    def __init__(self, block, cond):
        self.block = block
        self.cond = cond
        super().__init__(
            f"{block} block is numerically singular (condition estimate {cond:.3g})"
        )


class DualityViolation(SolverError):
    """The value-side and covariance-side cost forms disagree, which signals
    an upstream solve bug or severe ill-conditioning."""

    def __init__(self, primal, dual):
        self.primal = primal
        self.dual = dual
        super().__init__(
            f"cost duality violated: value form {primal!r} vs covariance form {dual!r}"
        )


class InitialPolicyNotStabilizing(SolverError):
    """Policy iteration was started from a policy that is not
    mean-square stabilizing."""

    def __init__(self, radius, detail=""):
        self.radius = radius
        msg = (
            f"initial policy is not mean-square stabilizing "
            f"(second-moment spectral radius {radius:.6g})"
        )
        if detail:
            msg = f"{msg}; {detail}"
        super().__init__(msg)


class IterateNotStabilizing(SolverError):
    """A policy produced by an improvement step failed the mean-square
    stability check."""

    def __init__(self, iteration, radius):
        self.iteration = iteration
        self.radius = radius
        super().__init__(
            f"improved policy at iteration {iteration} is not mean-square "
            f"stabilizing (second-moment spectral radius {radius:.6g})"
        )


class MaxIterationsExceeded(SolverError):
    """An iterative solve hit its iteration cap before meeting the tolerance."""

    def __init__(self, method, iterations, last_delta):
        self.method = method
        self.iterations = iterations
        self.last_delta = last_delta
        step = f"{last_delta:.6g}" if last_delta is not None else "n/a"
        super().__init__(
            f"{method} did not converge within {iterations} iterations "
            f"(last step size {step})"
        )


class Diverged(SolverError):
    """An iterative solve blew past the overflow guard, which signals an
    instance with no mean-square stabilizing solution."""

    def __init__(self, method, iterations):
        self.method = method
        self.iterations = iterations
        super().__init__(f"{method} diverged after {iterations} iterations")


class UnstableRollout(SolverError):
    """A Monte-Carlo rollout overflowed, which signals a controller that is
    not mean-square stabilizing or a horizon that is too long."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"rollout state overflowed at step {step}")


class RetryExhausted(SolverError):
    """Random problem generation failed to meet its construction target
    within the allowed number of redraws."""
