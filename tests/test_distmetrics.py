"""Tests for 1-D distribution distances and the k-sample permutation test."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scmbench as sb

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
widths = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)


def energy_distance(a: sb.EmpiricalSample, b: sb.EmpiricalSample) -> float:
    """O(n^2) energy-distance oracle for ksample_equality_test's statistic.

    2 E|A - B| - E|A - A'| - E|B - B'| with every expectation taken over all
    ordered pairs (within-terms include the zero diagonal), so identical
    samples give exactly 0.
    """
    x = a.values
    y = b.values
    cross = np.abs(x[:, None] - y[None, :]).mean()
    within_a = np.abs(x[:, None] - x[None, :]).mean()
    within_b = np.abs(y[:, None] - y[None, :]).mean()
    return float(2.0 * cross - within_a - within_b)


class TestGaussianFit:
    def test_fit_matches_hand_computation(self):
        fit = sb.fit_gaussian(sb.EmpiricalSample(np.array([0.0, 2.0])))
        assert fit.mean == 1.0
        assert fit.std == 1.0  # population (not sample) standard deviation

    def test_fit_degenerate_sample_has_zero_std(self):
        fit = sb.fit_gaussian(sb.EmpiricalSample(np.array([3.0, 3.0, 3.0])))
        assert fit.mean == 3.0
        assert fit.std == 0.0

    def test_fit_rejects_single_observation(self):
        with pytest.raises(ValueError, match="two observations"):
            sb.fit_gaussian(sb.EmpiricalSample(np.array([1.0])))

    def test_gaussian_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sb.Gaussian1D(mean=0.0, std=-1.0)
        with pytest.raises(ValueError, match="finite"):
            sb.Gaussian1D(mean=np.nan, std=1.0)

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            sb.EmpiricalSample(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="1-D"):
            sb.EmpiricalSample(np.array([]))
        with pytest.raises(ValueError, match="finite"):
            sb.EmpiricalSample(np.array([1.0, np.inf]))


class TestFrechet:
    @pytest.mark.parametrize("a, b, expected", [
        ((0.0, 1.0), (0.0, 1.0), 0.0),
        ((0.0, 1.0), (1.0, 1.0), 1.0),
        ((0.0, 1.0), (0.0, 3.0), 4.0),
        ((1.0, 2.0), (4.0, 6.0), 25.0),
    ])
    def test_hand_computed_values(self, a, b, expected):
        ga = sb.Gaussian1D(*a)
        gb = sb.Gaussian1D(*b)
        assert sb.frechet_gaussian1d(ga, gb) == expected

    @given(m1=finite, s1=widths, m2=finite, s2=widths)
    def test_symmetry_and_self_distance(self, m1, s1, m2, s2):
        a = sb.Gaussian1D(m1, s1)
        b = sb.Gaussian1D(m2, s2)
        assert sb.frechet_gaussian1d(a, b) == sb.frechet_gaussian1d(b, a)
        assert sb.frechet_gaussian1d(a, a) == 0.0
        assert sb.frechet_gaussian1d(a, b) >= 0.0

    def test_matches_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m1, m2 = rng.normal(0, 10, size=2)
            s1, s2 = rng.uniform(0, 5, size=2)
            got = sb.frechet_gaussian1d(sb.Gaussian1D(m1, s1),
                                        sb.Gaussian1D(m2, s2))
            assert got == pytest.approx((m1 - m2) ** 2 + (s1 - s2) ** 2,
                                        abs=1e-12)


class TestEnergyDistance:
    def test_hand_computed_value(self):
        a = sb.EmpiricalSample(np.array([0.0, 0.0]))
        b = sb.EmpiricalSample(np.array([1.0, 1.0]))
        # 2 * E|A - B| = 2, both within-terms are 0
        assert energy_distance(a, b) == 2.0

    def test_identical_samples_give_exact_zero(self):
        v = np.array([0.3, -1.2, 4.0])
        assert energy_distance(sb.EmpiricalSample(v),
                                  sb.EmpiricalSample(v.copy())) == 0.0

    def test_singletons(self):
        a = sb.EmpiricalSample(np.array([0.0]))
        b = sb.EmpiricalSample(np.array([3.0]))
        assert energy_distance(a, b) == 6.0

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = sb.EmpiricalSample(rng.normal(size=rng.integers(1, 40)))
            b = sb.EmpiricalSample(rng.normal(2.0, size=rng.integers(1, 40)))
            d_ab = energy_distance(a, b)
            # the two within-sample terms are summed in swapped order, so
            # agreement is up to rounding, not bitwise
            assert d_ab == pytest.approx(energy_distance(b, a), rel=1e-12)
            assert d_ab >= -1e-12


class TestKSampleTest:
    def test_statistic_matches_brute_force_two_groups(self):
        rng = np.random.default_rng(7)
        a = sb.EmpiricalSample(rng.normal(size=37))
        b = sb.EmpiricalSample(rng.normal(1.0, size=53))
        stat, _ = sb.ksample_equality_test([a, b], 99, np.random.default_rng(0))
        assert stat == pytest.approx(energy_distance(a, b), rel=1e-9)

    def test_statistic_is_sum_of_pairwise_energy_distances(self):
        rng = np.random.default_rng(8)
        groups = [sb.EmpiricalSample(rng.normal(loc, size=30), label=i)
                  for i, loc in enumerate((0.0, 0.5, 2.0))]
        stat, _ = sb.ksample_equality_test(groups, 99, np.random.default_rng(0))
        brute = sum(energy_distance(groups[i], groups[j])
                    for i in range(3) for j in range(i + 1, 3))
        assert stat == pytest.approx(brute, rel=1e-9)

    def test_constant_pooled_data_gives_p_one(self):
        groups = [sb.EmpiricalSample(np.full(10, 2.0), label=i) for i in range(3)]
        stat, p = sb.ksample_equality_test(groups, 99, np.random.default_rng(0))
        assert stat == 0.0
        assert p == 1.0

    def test_strong_shift_gives_smallest_possible_p(self):
        rng = np.random.default_rng(1)
        a = sb.EmpiricalSample(rng.normal(size=100))
        b = sb.EmpiricalSample(rng.normal(8.0, size=100))
        _, p = sb.ksample_equality_test([a, b], 199, np.random.default_rng(2))
        assert p == 1.0 / 200.0

    def test_determinism(self):
        rng = np.random.default_rng(3)
        groups = [sb.EmpiricalSample(rng.normal(size=50), label=i)
                  for i in range(2)]
        first = sb.ksample_equality_test(groups, 99, np.random.default_rng(5))
        second = sb.ksample_equality_test(groups, 99, np.random.default_rng(5))
        assert first == second

    def test_input_validation(self):
        sample = sb.EmpiricalSample(np.arange(5.0))
        with pytest.raises(ValueError, match="two groups"):
            sb.ksample_equality_test([sample], 99, np.random.default_rng(0))
        with pytest.raises(ValueError, match="99"):
            sb.ksample_equality_test([sample, sample], 50,
                                     np.random.default_rng(0))
        for count in (150.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="^num_permutations must"):
                sb.ksample_equality_test([sample, sample], count,
                                         np.random.default_rng(0))
