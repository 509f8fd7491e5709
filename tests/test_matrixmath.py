import numpy as np
import numpy.linalg as la
import pytest

from mnlqg.matrixmath import condition_number, frobenius_norm, frobenius_norms, symmetrize


def random_blocks():
    rng = np.random.default_rng(11)
    blocks = [rng.standard_normal((k, k)) for k in (1, 2, 3, 5) for _ in range(5)]
    blocks += [rng.standard_normal((3, 2)), rng.standard_normal((2, 4))]
    blocks += [10.0 ** rng.uniform(-150, 150) * rng.standard_normal((2, 2)) for _ in range(5)]
    return blocks


SPECIAL_BLOCKS = {
    "singular": np.array([[1.0, 2.0], [2.0, 4.0]]),
    "exactly_singular": np.array([[1.0, 0.0], [0.0, 0.0]]),
    "rank_one_3x3": np.outer([1.0, -2.0, 0.5], [3.0, 1.0, -1.0]),
    "nearly_singular": np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
    "zero": np.zeros((2, 2)),
    "zero_1x1": np.zeros((1, 1)),
    "inf": np.array([[np.inf, 1.0], [1.0, 1.0]]),
    "inf_1x1": np.array([[np.inf]]),
    "negative_inf": np.array([[1.0, 0.0], [0.0, -np.inf]]),
}


class TestConditionNumber:
    @pytest.mark.parametrize("M", random_blocks())
    def test_equals_numpy_cond_on_random_blocks(self, M):
        expected = np.linalg.cond(M)
        assert condition_number(M) == expected
        assert type(condition_number(M)) is float

    @pytest.mark.parametrize("name", sorted(SPECIAL_BLOCKS))
    def test_equals_numpy_cond_on_singular_zero_and_inf_blocks(self, name):
        M = SPECIAL_BLOCKS[name]
        with np.errstate(all="ignore"):
            expected = float(np.linalg.cond(M))
        assert condition_number(M) == expected

    def test_singular_zero_and_inf_blocks_read_inf(self):
        assert condition_number(SPECIAL_BLOCKS["singular"]) > 1e16
        assert condition_number(SPECIAL_BLOCKS["exactly_singular"]) == np.inf
        assert condition_number(SPECIAL_BLOCKS["zero"]) == np.inf
        assert condition_number(SPECIAL_BLOCKS["inf"]) == np.inf

    @pytest.mark.parametrize(
        "x",
        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]
        + list(np.random.default_rng(5).standard_normal(8) * 10.0 ** np.arange(-150, 150, 40)),
    )
    def test_1x1_equals_numpy_cond(self, x):
        M = np.array([[x]])
        with np.errstate(all="ignore"):
            expected = float(np.linalg.cond(M))
        assert condition_number(M) == expected
        assert type(condition_number(M)) is float

    def test_nan_entries_raise_like_numpy(self):
        for M in (np.array([[np.nan, 1.0], [1.0, 1.0]]), np.array([[np.nan]])):
            with pytest.raises(la.LinAlgError):
                np.linalg.cond(M)
            with pytest.raises(la.LinAlgError):
                condition_number(M)


class TestFrobeniusNorm:
    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_la_norm(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 9, size=2))
        M = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, size=shape)
        for view in (M, M.T, M[::-1], M[:, ::2], np.asfortranarray(M), np.asfortranarray(M).T):
            expected = la.norm(view)
            assert frobenius_norm(view) == expected
            assert type(frobenius_norm(view)) is float

    def test_non_finite_entries(self):
        assert frobenius_norm(np.array([[np.inf, 1.0]])) == np.inf
        assert np.isnan(frobenius_norm(np.array([[np.nan, 1.0]])))
        with np.errstate(over="ignore"):
            assert frobenius_norm(np.full((2, 2), 1e200)) == la.norm(np.full((2, 2), 1e200)) == np.inf
        assert frobenius_norm(np.zeros((3, 3))) == 0.0


class TestFrobeniusNorms:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_bitwise_frobenius_norm_of_each_symmetric_block(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            shape = (int(rng.integers(1, 6)), 4, n, n)
            stack = symmetrize(rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, size=shape))
            norms = frobenius_norms(stack)
            assert norms.shape == shape[:2]
            for block, norm in zip(stack.reshape(-1, n, n), norms.ravel().tolist()):
                assert norm == frobenius_norm(block)
                # the transposed layout of the same block
                assert norm == frobenius_norm(np.asfortranarray(block))
