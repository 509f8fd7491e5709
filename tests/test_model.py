import numpy as np
import pytest

from mnlqg import (
    CostModel,
    NoiseModel,
    NoiseTerm,
    ProblemInstance,
    SystemModel,
    load_controller,
    load_problem,
    pendulum_problem,
    save_controller,
    save_problem,
    validate,
)
from mnlqg.exceptions import ParseError, SchemaError
from mnlqg.model import Violation


def identity_problem():
    system = SystemModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    return ProblemInstance(
        system, CostModel(np.eye(2)), NoiseModel(W=np.eye(2), X0=[[1.0]])
    )


NOISY_FIELDS = ["A", "B", "C", "Q", "W", "X0"] + [
    f"noise.{key}[0].{part}" for key in "ABC" for part in ("pattern", "sigma")
]


def noisy_problem_with(field, value):
    """A one-state problem with noise on A, B and C, and ``value`` as the
    first entry of ``field`` (one of ``NOISY_FIELDS``)."""
    parts = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "Q": np.eye(2), "W": np.eye(2), "X0": [[1.0]]}
    for key in "ABC":
        parts[f"noise.{key}[0].pattern"] = [[1.0]]
        parts[f"noise.{key}[0].sigma"] = 0.1
    parts = {name: np.array(part, dtype=float) for name, part in parts.items()}
    parts[field].flat[0] = value
    noise = {
        key: (NoiseTerm(parts[f"noise.{key}[0].sigma"], parts[f"noise.{key}[0].pattern"]),) for key in "ABC"
    }
    system = SystemModel(
        parts["A"], parts["B"], parts["C"], noise_a=noise["A"], noise_b=noise["B"], noise_c=noise["C"]
    )
    return ProblemInstance(system, CostModel(parts["Q"]), NoiseModel(W=parts["W"], X0=parts["X0"]))


class TestValidate:
    def test_identity_case_is_clean(self):
        report = validate(identity_problem())
        assert report.ok
        assert report.violations == ()

    def test_pendulum_w_is_only_psd_and_warns(self):
        report = validate(pendulum_problem(1.0))
        assert not report.ok
        assert not report.errors
        (violation,) = report.warnings
        assert violation.field == "W"
        assert "not positive definite" in violation.message

    def test_negative_quu_is_an_error(self):
        problem = ProblemInstance(
            SystemModel(A=[[0.5]], B=[[1.0]], C=[[1.0]]),
            CostModel([[1.0, 0.0], [0.0, -1.0]]),
            NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
        )
        report = validate(problem)
        assert any(
            v.field == "Q" and "not positive definite" in v.message and v.severity == "error"
            for v in report.violations
        )

    def test_indefinite_w_is_an_error(self):
        problem = ProblemInstance(
            SystemModel(A=[[0.5]], B=[[1.0]], C=[[1.0]]),
            CostModel(np.eye(2)),
            NoiseModel(W=[[1.0, 0.0], [0.0, -0.5]], X0=np.zeros((1, 1))),
        )
        report = validate(problem)
        assert any(
            v.field == "W" and v.severity == "error" for v in report.violations
        )

    def test_negative_sigma_is_an_error(self):
        problem = ProblemInstance(
            SystemModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], noise_a=(NoiseTerm(-0.1, [[1.0]]),)),
            CostModel(np.eye(2)),
            NoiseModel(W=np.eye(2), X0=np.zeros((1, 1))),
        )
        report = validate(problem)
        assert any(v.field == "noise.A[0].sigma" for v in report.errors)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", NOISY_FIELDS)
    def test_non_finite_entry_is_one_error_naming_the_field(self, field, value):
        """The loader's wording, with no exception and no warning (the
        suite turns warnings into errors); a non-finite matrix is not
        checked for symmetry or definiteness."""
        message = "must be a finite number" if field.endswith("sigma") else "has a non-finite entry"
        report = validate(noisy_problem_with(field, value))
        assert report.errors == (Violation(field, message, "error"),)


class TestConstruction:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="B"):
            SystemModel(A=np.eye(2), B=[[1.0, 0.0]], C=[[1.0, 0.0]])

    def test_pattern_shape_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            SystemModel(
                A=np.eye(2), B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                noise_b=(NoiseTerm(1.0, np.eye(2)),),
            )

    def test_cross_field_consistency(self):
        with pytest.raises(ValueError, match="Q"):
            ProblemInstance(
                SystemModel(A=np.eye(2), B=[[0.0], [1.0]], C=[[1.0, 0.0]]),
                CostModel(np.eye(2)),  # must be 3x3 for n=2, m=1
                NoiseModel(W=np.eye(3), X0=np.zeros((2, 2))),
            )

    def test_matrices_are_read_only(self):
        problem = identity_problem()
        with pytest.raises(ValueError):
            problem.system.A[0, 0] = 2.0

    def test_block_extraction_reassembles(self):
        rng = np.random.default_rng(0)
        n, m, p = 3, 2, 1
        Q = rng.standard_normal((n + m, n + m))
        Q = Q + Q.T + 10 * np.eye(n + m)
        W = rng.standard_normal((n + p, n + p))
        W = W + W.T + 10 * np.eye(n + p)
        problem = ProblemInstance(
            SystemModel(A=np.eye(n), B=rng.standard_normal((n, m)), C=rng.standard_normal((p, n))),
            CostModel(Q),
            NoiseModel(W=W, X0=np.zeros((n, n))),
        )
        Qxx, Qxu, Qux, Quu = problem.q_blocks()
        assert np.array_equal(np.block([[Qxx, Qxu], [Qux, Quu]]), problem.cost.Q)
        Wxx, Wxy, Wyx, Wyy = problem.w_blocks()
        assert np.array_equal(np.block([[Wxx, Wxy], [Wyx, Wyy]]), problem.noise.W)


PENDULUM_DOC = """
{
  "n": 2, "m": 1, "p": 1,
  "A": [[1.0, 0.1], [1.0, 0.95]],
  "B": [[0.0], [0.1]],
  "C": [[1.0, 0.0]],
  "noise": {"B": [{"sigma": 1.0, "pattern": [[0.0], [1.0]]}]},
  "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
  "W": [[0, 0, 0], [0, 0.01, 0], [0, 0, 0.001]],
  "X0": [[0, 0], [0, 0]]
}
"""


class TestSerialization:
    def test_load_pendulum_document(self):
        problem = load_problem(PENDULUM_DOC)
        assert np.array_equal(problem.system.A, [[1.0, 0.1], [1.0, 0.95]])
        assert problem.system.noise_b[0].sigma == 1.0
        assert problem.n == 2 and problem.m == 1 and problem.p == 1

    def test_wrong_dimension_is_schema_error(self):
        doc = PENDULUM_DOC.replace('"B": [[0.0], [0.1]]', '"B": [[0.0, 0.1]]')
        with pytest.raises(SchemaError, match="B"):
            load_problem(doc)

    def test_missing_field_is_schema_error(self):
        doc = PENDULUM_DOC.replace('"Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],', "")
        with pytest.raises(SchemaError, match="Q"):
            load_problem(doc)

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ('"A": [[1.0, 0.1]', '"A": [[NaN, 0.1]', r"^A has a non-finite entry"),
            ('"W": [[0', '"W": [[-Infinity', r"^W has a non-finite entry"),
            ('"sigma": 1.0', '"sigma": Infinity', r"^noise\.B\[0\]\.sigma must be a finite"),
            ('"sigma": 1.0', '"sigma": NaN', r"^noise\.B\[0\]\.sigma must be a finite"),
        ],
        ids=["nan-in-A", "infinity-in-W", "infinite-sigma", "nan-sigma"],
    )
    def test_non_finite_number_is_schema_error(self, old, new, field):
        assert old in PENDULUM_DOC
        with pytest.raises(SchemaError, match=field):
            load_problem(PENDULUM_DOC.replace(old, new, 1))

    def test_non_finite_controller_gain_is_schema_error(self):
        with pytest.raises(SchemaError, match="^L has a non-finite entry"):
            load_controller('{"F": [[1.0]], "K": [[1.0]], "L": [[NaN]]}')

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"A": [[1.0, 0.1]', '"A": [["1.0", 0.1]', r"^A has a non-numeric entry '1\.0'"),
            ('"A": [[1.0, 0.1]', '"A": [[true, 0.1]', r"^A has a non-numeric entry True"),
            ('"A": [[1.0, 0.1]', '"A": [[null, 0.1]', r"^A has a non-numeric entry None"),
            ('"A": [[1.0, 0.1]', '"A": [[1' + "0" * 400 + ', 0.1]', r"^A is not a numeric matrix"),
            ('[[0.0], [1.0]]', '[[false], [1.0]]', r"^noise\.B\[0\]\.pattern has a non-numeric"),
            ('[[0.0], [1.0]]', '[["0"], [1.0]]', r"^noise\.B\[0\]\.pattern has a non-numeric"),
            ('"sigma": 1.0', '"sigma": "1.0"', r"^noise\.B\[0\]\.sigma must be a finite"),
            ('"sigma": 1.0', '"sigma": true', r"^noise\.B\[0\]\.sigma must be a finite"),
            ('"sigma": 1.0', '"sigma": 1' + "0" * 400, r"^noise\.B\[0\]\.sigma must be a finite"),
        ],
        ids=[
            "string-in-A", "bool-in-A", "null-in-A", "oversized-int-in-A",
            "bool-in-pattern", "string-in-pattern",
            "string-sigma", "bool-sigma", "oversized-int-sigma",
        ],
    )
    def test_non_number_entry_is_schema_error(self, old, new, message):
        assert old in PENDULUM_DOC
        with pytest.raises(SchemaError, match=message):
            load_problem(PENDULUM_DOC.replace(old, new, 1))

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"1.0"', r"^K has a non-numeric entry '1\.0'"),
            ("true", r"^K has a non-numeric entry True"),
            ("1" + "0" * 400, r"^K is not a numeric matrix"),
        ],
        ids=["string", "bool", "oversized-int"],
    )
    def test_non_number_controller_entry_is_schema_error(self, entry, message):
        with pytest.raises(SchemaError, match=message):
            load_controller(f'{{"F": [[1.0]], "K": [[{entry}]], "L": [[0.5]]}}')

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('[[0.0], [1.0]]', '[[0.0], [1.0, 2.0]]',
             r"^noise\.B\[0\]\.pattern row 1 has 2 entries, expected 1$"),
            ('"A": [[1.0, 0.1]', '"A": [[1.0]', r"^A row 1 has 2 entries, expected 1$"),
            ('[[0.0], [1.0]]', '[[0.0], 1.0]', r"^noise\.B\[0\]\.pattern mixes rows and bare numbers$"),
        ],
        ids=["long-pattern-row", "short-first-row", "bare-number-row"],
    )
    def test_ragged_matrix_names_the_row(self, old, new, message):
        assert old in PENDULUM_DOC
        with pytest.raises(SchemaError, match=message):
            load_problem(PENDULUM_DOC.replace(old, new, 1))

    def test_integer_entries_are_numbers(self):
        problem = load_problem(PENDULUM_DOC.replace('"sigma": 1.0', '"sigma": 1', 1))
        assert problem.system.noise_b[0].sigma == 1.0
        assert np.array_equal(problem.cost.Q, np.eye(3))

    def test_malformed_document_is_parse_error(self):
        with pytest.raises(ParseError):
            load_problem("{not json")

    def test_omitted_noise_defaults_to_empty(self):
        doc = PENDULUM_DOC.replace(
            '"noise": {"B": [{"sigma": 1.0, "pattern": [[0.0], [1.0]]}]},', ""
        )
        problem = load_problem(doc)
        assert problem.system.noise_a == ()
        assert problem.system.noise_b == ()
        assert problem.system.noise_c == ()

    def test_omitted_x0_defaults_to_zero(self):
        doc = PENDULUM_DOC.replace('"X0": [[0, 0], [0, 0]]', '"m": 1')
        problem = load_problem(doc)
        assert np.array_equal(problem.noise.X0, np.zeros((2, 2)))

    @pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
    def test_round_trip_is_exact(self, eta):
        problem = pendulum_problem(eta)
        text = save_problem(problem)
        again = load_problem(text)
        assert save_problem(again) == text
        assert np.array_equal(again.system.A, problem.system.A)
        assert again.system.noise_b[0].sigma == problem.system.noise_b[0].sigma
        assert np.array_equal(
            again.system.noise_b[0].pattern, problem.system.noise_b[0].pattern
        )

    def test_round_trip_preserves_validation(self):
        problem = pendulum_problem(0.5)
        before = validate(problem)
        after = validate(load_problem(save_problem(problem)))
        assert [str(v) for v in before.violations] == [str(v) for v in after.violations]

    def test_controller_round_trip(self):
        from mnlqg import Controller

        ctrl = Controller(
            F=[[0.9, 0.1], [0.0, 0.8]], K=[[0.25, -0.5]], L=[[0.125], [-0.0625]]
        )
        text = save_controller(ctrl)
        again = load_controller(text)
        assert np.array_equal(again.F, ctrl.F)
        assert np.array_equal(again.K, ctrl.K)
        assert np.array_equal(again.L, ctrl.L)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"noise": {"B"', '"noise": {"b"', r"^unknown field 'noise\.b'$"),
            ('"Q":', '"Qx": [[1]], "Q":', r"^unknown field 'Qx'$"),
            ('"sigma": 1.0,', '"sigma": 1.0, "sgima": 2.0,', r"^unknown field 'noise\.B\[0\]\.sgima'$"),
            ('"Q":', '"' + "Q" * 300 + '": 1, "Q":', r"^unknown field 'Q{29}\.\.\. \(302 characters\)$"),
        ],
        ids=["lower-case-noise-key", "top-level", "noise-entry", "long-key"],
    )
    def test_unknown_field_is_schema_error(self, old, new, message):
        """A misspelled field is named, not dropped: ``{"b": ...}`` under
        noise would otherwise load as a noise-free problem."""
        assert old in PENDULUM_DOC
        with pytest.raises(SchemaError, match=message):
            load_problem(PENDULUM_DOC.replace(old, new, 1))

    def test_unknown_controller_field_is_schema_error(self):
        """A misspelled "k" next to a zero "K" would otherwise be dropped;
        without a "K" the unknown field is named before the missing one."""
        with pytest.raises(SchemaError, match=r"^unknown field 'k'$"):
            load_controller('{"F": [[1.0]], "K": [[0.0]], "k": [[1.0]], "L": [[0.5]]}')
        with pytest.raises(SchemaError, match=r"^unknown field 'k'$"):
            load_controller('{"F": [[1.0]], "k": [[1.0]], "L": [[0.5]]}')

    def test_controller_dimension_mismatch(self):
        with pytest.raises(SchemaError, match="K"):
            load_controller('{"F": [[1.0]], "K": [[1.0, 2.0]], "L": [[1.0]]}')
