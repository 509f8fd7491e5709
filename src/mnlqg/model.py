"""Problem data types, validation, and the canonical JSON file formats.

A problem instance bundles a discrete-time linear system whose matrices are
perturbed by multiplicative noise,

    x[t+1] = A_t x[t] + B_t u[t] + w[t],      y[t] = C_t x[t] + v[t],

    A_t = A + sum_i alpha[t,i] * An[i],   alpha[t,i] ~ (0, sigma_A[i]^2)

(and likewise for B_t, C_t), with a quadratic stage cost on (x, u) given by a
single (n+m) x (n+m) matrix Q, and the joint covariance W of the additive
noises (w, v) as a single (n+p) x (n+p) matrix.  A controller is the linear
dynamic compensator

    xhat[t+1] = F xhat[t] + L y[t],           u[t] = K xhat[t].

All types are immutable value objects: matrices are copied on construction
and marked read-only, so instances are safe to share between threads.

File formats (JSON, UTF-8):

* problem document: keys ``n``, ``m``, ``p`` (ints), ``A``, ``B``, ``C``,
  ``Q``, ``W`` (nested arrays), optional ``X0`` (defaults to zero), optional
  ``noise`` object with lists ``A``/``B``/``C`` of ``{"sigma": s,
  "pattern": [[...]]}`` entries.
* controller document: keys ``F``, ``K``, ``L`` (nested arrays).

Numbers round-trip bit-for-bit through ``save_problem``/``load_problem``
because serialization uses the shortest decimal repr.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from .exceptions import ParseError, SchemaError
from .matrixmath import is_positive_definite, is_positive_semidefinite

__all__ = [
    "NoiseTerm",
    "SystemModel",
    "CostModel",
    "NoiseModel",
    "ProblemInstance",
    "Controller",
    "Violation",
    "ValidationReport",
    "validate",
    "load_problem",
    "save_problem",
    "load_controller",
    "save_controller",
]

SYM_TOL = 1e-10


def _frozen_matrix(value, name):
    arr = np.array(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


def _require_shape(arr, shape, name):
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")


@dataclass(frozen=True, eq=False)
class NoiseTerm:
    """One multiplicative noise direction: standard deviation and pattern."""

    sigma: float
    pattern: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "pattern", _frozen_matrix(self.pattern, "pattern"))


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Mean dynamics (A, B, C) plus multiplicative noise terms per matrix."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    noise_a: tuple[NoiseTerm, ...] = ()
    noise_b: tuple[NoiseTerm, ...] = ()
    noise_c: tuple[NoiseTerm, ...] = ()

    def __post_init__(self):
        A = _frozen_matrix(self.A, "A")
        B = _frozen_matrix(self.B, "B")
        C = _frozen_matrix(self.C, "C")
        n = A.shape[0]
        _require_shape(A, (n, n), "A")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape[0]}")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {C.shape[1]}")
        m, p = B.shape[1], C.shape[0]
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        for field, shape in (("noise_a", (n, n)), ("noise_b", (n, m)), ("noise_c", (p, n))):
            terms = tuple(getattr(self, field))
            for i, term in enumerate(terms):
                _require_shape(term.pattern, shape, f"{field}[{i}].pattern")
            object.__setattr__(self, field, terms)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class CostModel:
    """Quadratic stage cost matrix over stacked (state, input)."""

    Q: np.ndarray

    def __post_init__(self):
        Q = _frozen_matrix(self.Q, "Q")
        _require_shape(Q, (Q.shape[0], Q.shape[0]), "Q")
        object.__setattr__(self, "Q", Q)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Joint additive-noise covariance W over stacked (w, v), and the
    initial-state covariance X0 (used by the Monte-Carlo simulator only)."""

    W: np.ndarray
    X0: np.ndarray

    def __post_init__(self):
        W = _frozen_matrix(self.W, "W")
        _require_shape(W, (W.shape[0], W.shape[0]), "W")
        X0 = _frozen_matrix(self.X0, "X0")
        _require_shape(X0, (X0.shape[0], X0.shape[0]), "X0")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "X0", X0)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A complete problem: system, cost, and additive-noise model."""

    system: SystemModel
    cost: CostModel
    noise: NoiseModel

    def __post_init__(self):
        n, m, p = self.system.n, self.system.m, self.system.p
        _require_shape(self.cost.Q, (n + m, n + m), "Q")
        _require_shape(self.noise.W, (n + p, n + p), "W")
        _require_shape(self.noise.X0, (n, n), "X0")

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def m(self) -> int:
        return self.system.m

    @property
    def p(self) -> int:
        return self.system.p

    def q_blocks(self):
        """(Q_xx, Q_xu, Q_ux, Q_uu) split at index n."""
        n = self.n
        Q = self.cost.Q
        return Q[:n, :n], Q[:n, n:], Q[n:, :n], Q[n:, n:]

    def w_blocks(self):
        """(W_xx, W_xy, W_yx, W_yy) split at index n."""
        n = self.n
        W = self.noise.W
        return W[:n, :n], W[:n, n:], W[n:, :n], W[n:, n:]


@dataclass(frozen=True, eq=False)
class Controller:
    """Linear dynamic compensator (F, K, L)."""

    F: np.ndarray
    K: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        F = _frozen_matrix(self.F, "F")
        K = _frozen_matrix(self.K, "K")
        L = _frozen_matrix(self.L, "L")
        n = F.shape[0]
        _require_shape(F, (n, n), "F")
        if K.shape[1] != n:
            raise ValueError(f"K must have {n} columns, got {K.shape[1]}")
        if L.shape[0] != n:
            raise ValueError(f"L must have {n} rows, got {L.shape[0]}")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "L", L)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    field: str
    message: str
    severity: str  # "error" or "warning"

    def __str__(self):
        return f"{self.severity}: {self.field} {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "error")

    @property
    def warnings(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "warning")


def _check_symmetric(violations, name, M):
    if la.norm(M - M.T) > SYM_TOL * (1.0 + la.norm(M)):
        violations.append(Violation(name, "not symmetric", "error"))
        return False
    return True


def validate(problem: ProblemInstance) -> ValidationReport:
    """Check the numeric invariants of a problem instance.

    Dimension consistency is enforced at construction time, so this reports
    only data-level problems: noise standard deviations must be nonnegative,
    with a square (the variance the solvers use) finite in float64, Q must be
    symmetric positive definite, W symmetric positive definite (positive
    semidefinite W is tolerated with a warning because the solver only needs
    the W_yy Schur block to be invertible), and X0 symmetric positive
    semidefinite.
    """
    violations: list[Violation] = []
    sys = problem.system
    for name, terms in (
        ("noise.A", sys.noise_a),
        ("noise.B", sys.noise_b),
        ("noise.C", sys.noise_c),
    ):
        for i, term in enumerate(terms):
            if term.sigma < 0.0:
                violations.append(
                    Violation(f"{name}[{i}].sigma", "negative standard deviation", "error")
                )
            elif math.isinf(term.sigma * term.sigma):
                violations.append(
                    Violation(f"{name}[{i}].sigma", "squared overflows float64", "error")
                )

    Q = problem.cost.Q
    if _check_symmetric(violations, "Q", Q) and not is_positive_definite(Q):
        violations.append(Violation("Q", "not positive definite", "error"))

    W = problem.noise.W
    if _check_symmetric(violations, "W", W) and not is_positive_definite(W):
        if is_positive_semidefinite(W):
            violations.append(Violation("W", "not positive definite", "warning"))
        else:
            violations.append(Violation("W", "not positive semidefinite", "error"))

    X0 = problem.noise.X0
    if _check_symmetric(violations, "X0", X0) and not is_positive_semidefinite(X0):
        violations.append(Violation("X0", "not positive semidefinite", "error"))

    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# JSON serialization


def _parse_document(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    return doc


def _int_field(doc, key):
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        shown = repr(value)
        if len(shown) > 40:
            shown = f"{shown[:30]}... ({len(shown)} characters)"
        raise SchemaError(f"{key} must be a positive integer, got {shown}")
    return value


def _matrix_field(doc, key, shape):
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    return _matrix_value(doc[key], key, shape)


def _is_number(value):
    """A JSON number: int or float, not bool (``True`` is an int in Python)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix_value(value, name, shape):
    """Finite float array from a JSON value; shape None skips the shape check.

    Every entry must be a JSON number: numpy would read strings such as
    "1.0" and booleans as numbers.  Every row must have as many entries as
    the first: numpy's message for a ragged matrix is mostly its internals."""
    rows = value if isinstance(value, list) else [value]
    for i, row in enumerate(rows):
        for entry in row if isinstance(row, list) else [row]:
            if not _is_number(entry):
                raise SchemaError(f"{name} has a non-numeric entry {entry!r}")
        if isinstance(row, list) != isinstance(rows[0], list):
            raise SchemaError(f"{name} mixes rows and bare numbers")
        if isinstance(row, list) and len(row) != len(rows[0]):
            raise SchemaError(f"{name} row {i} has {len(row)} entries, expected {len(rows[0])}")
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{name} is not a numeric matrix: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name} has a non-finite entry")
    if shape is not None:
        _check_shape(arr, name, shape)
    return arr


def _check_shape(arr, name, shape):
    if arr.shape != shape:
        raise SchemaError(f"{name} must have shape {shape[0]}x{shape[1]}, got {arr.shape}")


def _check_dimensions(n, m, p, A, B, C, Q, W):
    """SchemaError naming n, m or p when it fits none of the row and column
    counts it sets in those of A, B, C, Q and W that are 2-d.

    Where one of them agrees with the field, the others are at fault, and
    their own shape checks name them.  Runs before any shape message, which
    would write a huge dimension out in full."""

    def sizes(*axes):
        return [(name, M, M.shape[axis] - offset) for name, M, axis, offset in axes if M.ndim == 2]

    for key, value, fits in (
        ("n", n, sizes(("A", A, 0, 0), ("A", A, 1, 0), ("B", B, 0, 0), ("C", C, 1, 0))),
        ("m", m, sizes(("B", B, 1, 0), ("Q", Q, 0, n))),
        ("p", p, sizes(("C", C, 0, 0), ("W", W, 0, n))),
    ):
        if fits and all(value != size for _, _, size in fits):
            name, M, _ = fits[0]
            raise SchemaError(f"{key} does not fit {name}, whose shape is {M.shape[0]}x{M.shape[1]}")


def _noise_terms(noise_doc, key, shape):
    entries = noise_doc.get(key, [])
    if not isinstance(entries, list):
        raise SchemaError(f"noise.{key} must be a list")
    terms = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "sigma" not in entry or "pattern" not in entry:
            raise SchemaError(f"noise.{key}[{i}] must be an object with sigma and pattern")
        sigma = entry["sigma"]
        # a Python int compares exactly with a Python float, so an int beyond
        # float64 fails here as NaN and inf do
        if not _is_number(sigma) or not abs(sigma) <= float(np.finfo(float).max):
            raise SchemaError(f"noise.{key}[{i}].sigma must be a finite number")
        pattern = _matrix_value(entry["pattern"], f"noise.{key}[{i}].pattern", shape)
        terms.append(NoiseTerm(float(sigma), pattern))
    return tuple(terms)


def load_problem(text: str) -> ProblemInstance:
    """Parse a problem document.

    Raises ParseError for malformed JSON and SchemaError for structural
    problems (missing fields, wrong types, dimension mismatches).
    """
    doc = _parse_document(text)
    n, m, p = (_int_field(doc, key) for key in "nmp")
    A, B, C, Q, W = (_matrix_field(doc, key, None) for key in ("A", "B", "C", "Q", "W"))
    _check_dimensions(n, m, p, A, B, C, Q, W)
    for M, key, shape in (
        (A, "A", (n, n)), (B, "B", (n, m)), (C, "C", (p, n)),
        (Q, "Q", (n + m, n + m)), (W, "W", (n + p, n + p)),
    ):
        _check_shape(M, key, shape)
    noise_doc = doc.get("noise", {})
    if not isinstance(noise_doc, dict):
        raise SchemaError("noise must be an object")
    noise_a = _noise_terms(noise_doc, "A", (n, n))
    noise_b = _noise_terms(noise_doc, "B", (n, m))
    noise_c = _noise_terms(noise_doc, "C", (p, n))
    if "X0" in doc:
        X0 = _matrix_field(doc, "X0", (n, n))
    else:
        X0 = np.zeros((n, n))
    system = SystemModel(A, B, C, noise_a, noise_b, noise_c)
    return ProblemInstance(system, CostModel(Q), NoiseModel(W, X0))


def save_problem(problem: ProblemInstance) -> str:
    """Serialize a problem instance to the canonical document format."""
    sys = problem.system
    doc: dict = {
        "n": sys.n,
        "m": sys.m,
        "p": sys.p,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
    }
    noise = {}
    for key, terms in (("A", sys.noise_a), ("B", sys.noise_b), ("C", sys.noise_c)):
        if terms:
            noise[key] = [
                {"sigma": term.sigma, "pattern": term.pattern.tolist()} for term in terms
            ]
    if noise:
        doc["noise"] = noise
    doc["Q"] = problem.cost.Q.tolist()
    doc["W"] = problem.noise.W.tolist()
    doc["X0"] = problem.noise.X0.tolist()
    return json.dumps(doc, indent=2) + "\n"


def load_controller(text: str) -> Controller:
    """Parse a controller document ({"F": ..., "K": ..., "L": ...})."""
    doc = _parse_document(text)
    for key in ("F", "K", "L"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    F, K, L = (_matrix_value(doc[key], key, None) for key in ("F", "K", "L"))
    try:
        return Controller(F, K, L)
    except ValueError as exc:  # the controller's own shape rules
        raise SchemaError(str(exc)) from exc


def save_controller(ctrl: Controller) -> str:
    """Serialize a controller to the canonical document format."""
    doc = {"F": ctrl.F.tolist(), "K": ctrl.K.tolist(), "L": ctrl.L.tolist()}
    return json.dumps(doc, indent=2) + "\n"
