"""Tests for covariate adjustment of conditional probability tables."""

import numpy as np
import pytest

import scmbench as sb


def worked_example():
    """2 outcomes x 1 treatment x 2 covariate bins with a (0.5, 0.5) marginal."""
    cond = np.zeros((2, 1, 2))
    cond[:, 0, 0] = [0.8, 0.2]
    cond[:, 0, 1] = [0.4, 0.6]
    return cond, np.array([0.5, 0.5])


class TestTransportAdjust:
    def test_worked_example(self):
        cond, marg = worked_example()
        out = sb.transport_adjust(cond, marg)
        assert out.shape == (2, 1)
        # 0.8*0.5 + 0.4*0.5 = 0.6 and 0.2*0.5 + 0.6*0.5 = 0.4; the first
        # component lands one rounding step from the decimal literal because
        # the exact sum of the float products ties between adjacent doubles
        assert np.max(np.abs(out[:, 0] - [0.6, 0.4])) <= 2 ** -52
        assert abs(out[:, 0].sum() - 1.0) <= 1e-9

    def test_age_independent_conditional_returns_the_slice(self):
        slice_ = np.array([[0.3], [0.7]])
        cond = np.repeat(slice_[:, :, None], 3, axis=2)
        out = sb.transport_adjust(cond, np.array([0.2, 0.5, 0.3]))
        assert np.allclose(out, slice_, rtol=0, atol=1e-15)

    def test_point_mass_marginal_selects_one_slice(self):
        cond, _ = worked_example()
        out = sb.transport_adjust(cond, np.array([0.0, 1.0]))
        assert np.array_equal(out[:, 0], cond[:, 0, 1])

    def test_output_slices_sum_to_one(self):
        rng = np.random.default_rng(0)
        cond = rng.dirichlet(np.ones(4), size=(3, 5)).transpose(2, 0, 1)
        marg = rng.dirichlet(np.ones(5))
        out = sb.transport_adjust(cond, marg)
        assert out.shape == (4, 3)
        assert np.all(np.abs(out.sum(axis=0) - 1.0) <= 1e-9)

    def test_column_sums_stay_within_twice_the_input_tolerance(self):
        # slices and marginal each sum to 1 + 0.9e-9, inside the 1e-9 input
        # tolerance; their product overshoots 1 by about 1.8e-9
        cond = [[[0.5 + 0.9e-9, 0.5 + 0.9e-9]], [[0.5, 0.5]]]
        out = sb.transport_adjust(cond, [0.5 + 0.9e-9, 0.5])
        assert out.shape == (2, 1)
        assert 1e-9 < out.sum() - 1.0 <= 2e-9 + 1e-15

    def test_accepts_nested_lists(self):
        out = sb.transport_adjust([[[1.0, 1.0]], [[0.0, 0.0]]], [0.5, 0.5])
        assert np.array_equal(out, [[1.0], [0.0]])

    @pytest.mark.parametrize("cond, marg, message", [
        (np.ones((2, 2)), np.array([1.0]), "3-D"),
        (np.full((2, 1, 2), 0.5), np.ones((2, 1)), "1-D"),
        (np.full((2, 1, 2), 0.5), np.array([0.5, 0.25, 0.25]), "axes differ"),
        (np.array([[[1.5, 0.5]], [[-0.5, 0.5]]]), np.array([0.5, 0.5]),
         "nonnegative"),
        (np.full((2, 1, 2), 0.4), np.array([0.5, 0.5]), "sum to 1"),
        (np.full((2, 1, 2), 0.5), np.array([0.6, 0.6]), "sum to 1"),
        (np.array([[[np.nan, 0.5]], [[0.5, 0.5]]]), np.array([0.5, 0.5]),
         "^conditional must be finite$"),
        (np.full((2, 1, 2), 0.5), np.array([np.nan, 0.5]), "^marginal must be finite$"),
        (np.full((2, 1, 2), 0.5), np.array([np.inf, 0.0]), "^marginal must be finite$"),
    ])
    def test_rejects_malformed_tables(self, cond, marg, message):
        with pytest.raises(ValueError, match=message):
            sb.transport_adjust(cond, marg)
