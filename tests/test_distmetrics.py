"""Tests for 1-D distribution distances and the k-sample permutation test."""

import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scmbench as sb
from scmbench import distmetrics

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



def _pairsum_within(sorted_v: np.ndarray) -> float:
    # sum_{i<j} (v_j - v_i) for ascending v
    n = sorted_v.size
    if n < 2:
        return 0.0
    idx = np.arange(n, dtype=float)
    csum = np.cumsum(sorted_v)
    return float(np.sum(sorted_v * idx - (csum - sorted_v)))


def _pairsum_cross(sorted_a: np.ndarray, sorted_b: np.ndarray) -> float:
    # sum_i sum_j |a_i - b_j| for ascending a and b
    m = sorted_b.size
    prefix = np.concatenate(([0.0], np.cumsum(sorted_b)))
    total_b = prefix[-1]
    pos = np.searchsorted(sorted_b, sorted_a, side="right")
    below = sorted_a * pos - prefix[pos]
    above = (total_b - prefix[pos]) - sorted_a * (m - pos)
    return float(np.sum(below + above))


def _ksample_stat(sorted_pooled: np.ndarray, labels: np.ndarray, k: int) -> float:
    """One permutation's statistic, the oracle for the block scoring.

    labels align with sorted_pooled positions; groups stay sorted when sliced.
    """
    groups = [sorted_pooled[labels == g] for g in range(k)]
    sizes = [g.size for g in groups]
    stat = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            cross = _pairsum_cross(groups[i], groups[j])
            wi = _pairsum_within(groups[i])
            wj = _pairsum_within(groups[j])
            stat += (2.0 * cross / (sizes[i] * sizes[j])
                     - 2.0 * wi / sizes[i] ** 2
                     - 2.0 * wj / sizes[j] ** 2)
    return stat


def ksample_oracle(groups, num_permutations, rng):
    """ksample_equality_test one permutation at a time, with the same draws."""
    k = len(groups)
    pooled = np.concatenate([g.values for g in groups])
    labels = np.concatenate(
        [np.full(g.values.size, i, dtype=np.int64) for i, g in enumerate(groups)])
    order = np.argsort(pooled, kind="stable")
    sorted_pooled = pooled[order]
    observed = _ksample_stat(sorted_pooled, labels[order], k)
    if np.ptp(pooled) == 0.0:
        return 0.0, 1.0
    # near-ties count, within scipy.stats.permutation_test's 100 eps |observed|
    floor = observed - abs(100 * np.finfo(float).eps * observed)
    exceed = sum(
        _ksample_stat(sorted_pooled, labels[rng.permutation(labels.size)], k) >= floor
        for _ in range(num_permutations))
    return observed, (1 + exceed) / (1 + num_permutations)


def exact_statistic(values, row, k):
    """The statistic of the integer ``values`` split by the labels ``row``, as
    an exact Fraction."""
    values = values.astype(np.int64)

    def total(x, y):
        return int(np.abs(x[:, None] - y[None, :]).sum())

    parts = [values[row == g] for g in range(k)]
    return sum(Fraction(2 * total(a, b), a.size * b.size)
               - Fraction(total(a, a), a.size ** 2) - Fraction(total(b, b), b.size ** 2)
               for a, b in itertools.combinations(parts, 2))


def exact_exceed_and_ties(groups, num_permutations, rng):
    """#{perm >= observed} and #{perm == observed} in exact rational arithmetic
    for integer-valued groups, with ksample_equality_test's draws and labels."""
    pooled = np.concatenate([g.values for g in groups])
    order = np.argsort(pooled, kind="stable")
    labels = np.repeat(np.arange(len(groups)), [g.values.size for g in groups])
    observed = exact_statistic(pooled[order], labels[order], len(groups))
    draws = [exact_statistic(pooled[order], labels[rng.permutation(labels.size)], len(groups))
             for _ in range(num_permutations)]
    return sum(d >= observed for d in draws), sum(d == observed for d in draws)


class TestGaussianFit:
    def test_fit_matches_hand_computation(self):
        fit = distmetrics.fit_gaussian(np.array([0.0, 2.0]))
        assert fit.mean == 1.0
        assert fit.std == 1.0  # population (not sample) standard deviation

    def test_fit_degenerate_sample_has_zero_std(self):
        fit = distmetrics.fit_gaussian(np.array([3.0, 3.0, 3.0]))
        assert fit.mean == 3.0
        assert fit.std == 0.0

    def test_fit_rejects_single_observation(self):
        with pytest.raises(ValueError, match="two observations"):
            distmetrics.fit_gaussian(np.array([1.0]))

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

    def test_exact_ties_count_whatever_the_rounding(self):
        # integer data: one permutation's statistic equals the observed one
        # exactly, and a plain >= in floating point may miss it by an ulp
        groups = _integer_groups([3, 9], (9, 39), levels=8)
        exceed, ties = exact_exceed_and_ties(groups, 138, np.random.default_rng([4, 9]))
        assert (exceed, ties) == (44, 1)
        for test in (sb.ksample_equality_test, ksample_oracle):
            _, p = test(groups, 138, np.random.default_rng([4, 9]))
            assert p == (1 + exceed) / (1 + 138)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        groups = [sb.EmpiricalSample(rng.normal(size=50), label=i)
                  for i in range(2)]
        first = sb.ksample_equality_test(groups, 99, np.random.default_rng(5))
        second = sb.ksample_equality_test(groups, 99, np.random.default_rng(5))
        assert first == second

    def test_input_validation(self):
        sample = sb.EmpiricalSample(np.arange(5.0))
        for groups in ([], [sample]):
            with pytest.raises(ValueError, match="two groups"):
                sb.ksample_equality_test(groups, 99, np.random.default_rng(0))
        with pytest.raises(ValueError, match="99"):
            sb.ksample_equality_test([sample, sample], 50,
                                     np.random.default_rng(0))
        for count in (150.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="^num_permutations must"):
                sb.ksample_equality_test([sample, sample], count,
                                         np.random.default_rng(0))

    @pytest.mark.parametrize("count, message", [
        (98, "lie in [99, inf), got 98"),
        (0, "lie in [99, inf), got 0"),
        (-199, "lie in [99, inf), got -199"),
        (199.0, "be an integer, got 199.0"),
        (np.nan, "be an integer, got nan"),
        (np.inf, "be an integer, got inf"),
        (True, "be an integer, got True"),
    ], ids=["98", "0", "-199", "199.0", "nan", "inf", "True"])
    def test_permutation_count_outside_its_bound_names_it(self, count, message):
        # the bound the energy test's fixed count of 199 must meet
        sample = sb.EmpiricalSample(np.arange(5.0))
        with pytest.raises(ValueError,
                           match=f"^num_permutations must {re.escape(message)}$"):
            sb.ksample_equality_test([sample, sample], count, np.random.default_rng(0))


def _normal_groups(seed, sizes, shift=0.0):
    rng = np.random.default_rng(seed)
    return [sb.EmpiricalSample(rng.normal(shift * i, size=m), label=i)
            for i, m in enumerate(sizes)]


def _integer_groups(seed, sizes, levels):
    rng = np.random.default_rng(seed)
    return [sb.EmpiricalSample(rng.integers(0, levels, size=m).astype(float), label=i)
            for i, m in enumerate(sizes)]


def _scores(sorted_values, rows, sizes):
    """The statistic of ``sorted_values`` under each label row of ``rows``,
    scored as _ksample_tests scores it."""
    c, scale = distmetrics._coefficients(rows, list(sizes))
    return (sorted_values * c).sum(axis=1) / scale


class TestBlockScoringMatchesOracle:
    """The block scoring returns the per-permutation loop's p exactly."""

    @pytest.mark.parametrize("groups, permutations", [
        (_normal_groups(0, (40, 40)), 99),
        (_normal_groups(1, (30, 70), shift=0.3), 199),
        (_normal_groups(2, (25, 60, 15), shift=0.2), 199),
        (_normal_groups(3, (12, 30, 7, 50), shift=0.1), 150),
        (_integer_groups(4, (20, 35), levels=3), 199),
        (_integer_groups(5, (9, 17, 30), levels=4), 199),
        (_integer_groups(6, (5, 8, 11, 6), levels=2), 99),
        (_normal_groups(7, (1, 1, 6)), 99),
        (_integer_groups(8, (1, 4, 1), levels=2), 99),
        (_normal_groups(9, (400, 1000), shift=0.05), 199),
    ], ids=["k2-equal", "k2-unequal", "k3", "k4", "k2-ties", "k3-ties",
            "k4-ties", "size-1", "size-1-ties", "three-blocks"])
    def test_same_p_and_statistic(self, groups, permutations):
        got = sb.ksample_equality_test(groups, permutations, np.random.default_rng(11))
        want = ksample_oracle(groups, permutations, np.random.default_rng(11))
        assert got[1] == want[1]
        assert got[0] == pytest.approx(want[0], rel=1e-9)

    def test_three_blocks_case_needs_three_blocks(self):
        rows = distmetrics._BLOCK_LABELS // 1400
        assert (rows, -(-199 // rows)) == (93, 3)

    @pytest.mark.parametrize("sizes, relabel", [
        ((6, 6), (1, 0)), ((1, 1, 6), (1, 0, 2)), ((5, 9, 5, 9), (2, 3, 0, 1))])
    def test_swapping_equal_sized_groups_ties_exactly(self, sizes, relabel):
        # swapping the labels of equal-sized groups keeps the statistic, so
        # the two rows must tie exactly whatever the rounding: their
        # coefficient rows are the same
        pooled = np.sort(np.concatenate([g.values for g in _normal_groups(13, sizes)]))
        labels = np.random.default_rng(14).permutation(np.repeat(np.arange(len(sizes)), sizes))
        rows = np.stack([labels, np.array(relabel)[labels]])
        c, _ = distmetrics._coefficients(rows, list(sizes))
        assert np.array_equal(c[0], c[1])
        stats = _scores(pooled, rows, sizes)
        assert stats[0] == stats[1]

    def test_a_row_scores_the_same_alone_and_in_a_block(self):
        # the observed labels are scored as a one-row block; a permutation
        # that leaves every group's values in place must tie with it exactly
        sizes = [400, 1000]
        pooled = np.sort(np.concatenate([g.values for g in _normal_groups(15, sizes)]))
        labels = np.random.default_rng(16).permutation(np.repeat([0, 1], sizes))
        alone = _scores(pooled, labels[None, :], sizes)
        block = _scores(pooled, np.tile(labels, (93, 1)), sizes)
        assert np.all(block == alone)

    @pytest.mark.parametrize("sizes", [(6, 6), (4, 4, 4, 4), (3, 5), (9, 17, 30), (1, 4, 1)])
    def test_coefficient_rows_sum_to_zero(self, sizes):
        # so a constant shift of the values leaves the statistic as it is,
        # exactly on integer data
        rng = np.random.default_rng(19)
        rows = np.stack([rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
                         for _ in range(20)])
        c, _ = distmetrics._coefficients(rows, list(sizes))
        assert np.all(c == np.round(c))
        assert np.all(c.sum(axis=1) == 0.0)
        values = np.sort(rng.integers(-50, 50, size=sum(sizes))).astype(float)
        assert np.array_equal(_scores(values + 1000.0, rows, sizes), _scores(values, rows, sizes))

    @pytest.mark.parametrize("sizes, levels", [
        ((20, 20), 5), ((20, 35), 3), ((9, 17, 30), 4), ((500, 500, 500, 500), 7),
        ((5, 8, 11, 6), 2)])
    def test_integer_data_give_the_exact_statistic(self, sizes, levels):
        # integer values times integer coefficients sum exactly, so the one
        # rounding left is the division, and the statistic is the exact
        # rational's nearest float, observed and permuted alike
        groups = _integer_groups(47, sizes, levels)
        stat, _ = sb.ksample_equality_test(groups, 99, np.random.default_rng(0))
        pooled = np.concatenate([g.values for g in groups])
        order = np.argsort(pooled, kind="stable")
        labels = np.repeat(np.arange(len(sizes)), sizes)
        assert stat == float(exact_statistic(pooled[order], labels[order], len(sizes)))
        rng = np.random.default_rng(48)
        rows = np.stack([rng.permutation(labels) for _ in range(5)])
        want = [float(exact_statistic(pooled[order], row, len(sizes))) for row in rows]
        assert _scores(pooled[order], rows, sizes).tolist() == want

    def test_coprime_sizes_give_the_oracle_p(self):
        # lcm = 997 * 1009 * 1013, so the coefficients are far from small
        groups = _normal_groups(49, (997, 1009, 1013), shift=0.05)
        got = sb.ksample_equality_test(groups, 99, np.random.default_rng(50))
        want = ksample_oracle(groups, 99, np.random.default_rng(50))
        assert got[1] == want[1]
        assert got[0] == pytest.approx(want[0], rel=1e-9)

    def test_an_lcm_past_int64_gives_the_oracle_p(self):
        # np.lcm.reduce wraps round to 1.57e18 here without a word; math.lcm
        # gives 6.47e20
        sizes = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)
        assert math.lcm(*sizes) > np.iinfo(np.int64).max
        groups = _normal_groups(51, sizes, shift=0.02)
        got = sb.ksample_equality_test(groups, 99, np.random.default_rng(52))
        want = ksample_oracle(groups, 99, np.random.default_rng(52))
        assert got[1] == want[1]
        assert got[0] == pytest.approx(want[0], rel=1e-9)

    def test_an_lcm_past_the_float_range_still_scores(self):
        # the primes below 400: their lcm is about 1e161, so L**2 has no
        # float, and the coefficients are scaled by a power of two
        sizes = [m for m in range(2, 400) if all(m % d for d in range(2, int(m ** 0.5) + 1))]
        assert math.lcm(*sizes) > 1e155
        pooled = np.sort(np.random.default_rng(53).normal(size=sum(sizes)))
        labels = np.random.default_rng(54).permutation(np.repeat(np.arange(len(sizes)), sizes))
        got = _scores(pooled, labels[None, :], sizes)[0]
        assert got == pytest.approx(_ksample_stat(pooled, labels, len(sizes)), rel=1e-9)

    def test_oracle_statistic_is_sum_of_pairwise_energy_distances(self):
        groups = _normal_groups(12, (9, 14, 5), shift=0.5)
        pooled = np.concatenate([g.values for g in groups])
        labels = np.repeat(np.arange(3), [9, 14, 5])
        order = np.argsort(pooled, kind="stable")
        brute = sum(energy_distance(groups[i], groups[j])
                    for i in range(3) for j in range(i + 1, 3))
        assert _ksample_stat(pooled[order], labels[order], 3) == pytest.approx(brute, rel=1e-9)

    def test_criterion_8_p_values_are_pinned(self):
        # sha256 of the 200 p-values of test_criterion_08_test_calibration,
        # recorded from the per-permutation loop
        pvals = []
        for run in range(200):
            data_rng = np.random.default_rng(np.random.SeedSequence((8, run)))
            groups = [sb.EmpiricalSample(data_rng.normal(size=250), label=e)
                      for e in range(3)]
            _, p = sb.ksample_equality_test(
                groups, 199, np.random.default_rng(np.random.SeedSequence((8, run, 1))))
            pvals.append(p)
        assert hashlib.sha256(np.array(pvals).tobytes()).hexdigest() == (
            "00e9c93e311fdb96c2c34764d1b0fceb0f85da59e18c21382d174ac3adb27606")

    @staticmethod
    def _two_group_results():
        # two-group calls, ties and size-1 groups included
        cases = [(_normal_groups(40, (40, 40)), 99),
                 (_normal_groups(41, (30, 70), shift=0.3), 199),
                 (_integer_groups(42, (20, 35), levels=3), 199),
                 (_integer_groups(43, (9, 39), levels=8), 138),
                 (_normal_groups(44, (1, 6)), 99),
                 (_normal_groups(45, (400, 1000), shift=0.05), 199)]
        return np.array([sb.ksample_equality_test(groups, permutations, np.random.default_rng(46))
                         for groups, permutations in cases])

    def test_two_group_p_values_are_pinned(self):
        # sha256 of the six p-values: [.74, .53, .895, 49/139, .32, .98]
        pvals = self._two_group_results()[:, 1].copy()
        assert hashlib.sha256(pvals.tobytes()).hexdigest() == (
            "92865602a3dfde40a8a1c5a838e1123f84c622dd894780bc270237b108a655a9")

    def test_two_group_statistics_are_pinned(self):
        # sha256 of the six statistics, bit for bit, not to a tolerance
        stats = self._two_group_results()[:, 0].copy()
        assert hashlib.sha256(stats.tobytes()).hexdigest() == (
            "52a23a8e63c82020c8f23ab3491831a674c183396fc60219a66e2fc41bbc677f")


def _rows(pools):
    """The (rows, n) matrix of pools that share group sizes, one pool a row."""
    return np.stack([np.concatenate([g.values for g in groups]) for groups in pools])


class TestBatchMatchesSeparateCalls:
    """Rows that share group sizes are tested against one set of permuted
    labels, each with the bits of a lone, same-seeded call."""

    @pytest.mark.parametrize("sizes, permutations", [
        ((30, 70), 199), ((40, 40), 99), ((25, 60, 15), 199), ((12, 30, 7, 50), 150),
        ((400, 1000), 199)],
        ids=["k2", "k2-equal", "k3", "k4", "three-blocks"])
    def test_bit_equal_to_separate_calls(self, sizes, permutations):
        pools = [_normal_groups(20 + i, sizes, shift=0.1 * i) for i in range(3)]
        pools.append([sb.EmpiricalSample(np.full(m, 2.0), label=i)
                      for i, m in enumerate(sizes)])
        pools.append(_integer_groups(30, sizes, levels=3))
        stats, p = distmetrics._ksample_tests(_rows(pools), list(sizes), permutations,
                                              np.random.default_rng(17))
        want = [sb.ksample_equality_test(groups, permutations, np.random.default_rng(17))
                for groups in pools]
        assert list(zip(stats.tolist(), p.tolist())) == want
        assert want[3] == (0.0, 1.0)

    @pytest.mark.parametrize("block_labels", [1, 100, 350])
    def test_block_size_moves_nothing(self, monkeypatch, block_labels):
        # 40 labels a row: at 100 labels a block the 199 draws come 2 at a
        # time and the 6 live rows are sorted and scored 2 at a time; at 1,
        # one at a time; at 350, 8 at a time with a short last block
        sizes = [12, 20, 8]
        pools = [_normal_groups(60 + i, sizes, shift=0.1 * i) for i in range(5)]
        pools.append([sb.EmpiricalSample(np.full(m, 2.0), label=i) for i, m in enumerate(sizes)])
        pools.append(_integer_groups(66, sizes, levels=3))
        want = distmetrics._ksample_tests(_rows(pools), sizes, 199, np.random.default_rng(67))
        monkeypatch.setattr(distmetrics, "_BLOCK_LABELS", block_labels)
        got = distmetrics._ksample_tests(_rows(pools), sizes, 199, np.random.default_rng(67))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_the_draws_are_permutations_of_the_callers_generator(self):
        # a call with a live row leaves the generator where num_permutations
        # calls of permutation(n) leave a twin
        pooled = _rows([_normal_groups(68, (5, 7)), _normal_groups(69, (5, 7))])
        rng, twin = np.random.default_rng(70), np.random.default_rng(70)
        distmetrics._ksample_tests(pooled, [5, 7], 150, rng)
        for _ in range(150):
            twin.permutation(12)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_all_constant_rows_draw_nothing(self):
        pooled = np.repeat(np.arange(3.0)[:, None], 10, axis=1)
        rng = np.random.default_rng(18)
        state = rng.bit_generator.state
        stats, p = distmetrics._ksample_tests(pooled, [4, 6], 99, rng)
        assert stats.tolist() == [0.0] * 3 and p.tolist() == [1.0] * 3
        assert rng.bit_generator.state == state

    def test_columns_must_match_the_group_sizes(self):
        pooled = _rows([_normal_groups(21, (5, 7)), _normal_groups(22, (5, 7))])
        with pytest.raises(ValueError, match=r"group sizes \[6, 7\] need 13 columns, got 12"):
            distmetrics._ksample_tests(pooled, [6, 7], 99, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_row_is_rejected(self, bad):
        pooled = _rows([_normal_groups(23, (5, 7)), _normal_groups(24, (5, 7))])
        pooled[1, 8] = bad
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^values must be finite$"):
            distmetrics._ksample_tests(pooled, [5, 7], 99, rng)
        assert rng.bit_generator.state == state
