"""Tests for the invariant-causal-prediction baseline."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

import scmbench as sb
from scmbench import icp
from scmbench.icp import _mean_variance_pvalue, _subsets, invariance_pvalue


def ols_fit(features: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares oracle: (A^T A + 1e-10 I) beta = A^T y with A = [X, 1].

    Returns the coefficient vector with the intercept last; icp_identify's
    batched Gram route must agree with it subset by subset.
    """
    if features.ndim != 2 or target.ndim != 1 or features.shape[0] != target.size:
        raise ValueError("features must be (n, s) and target (n,)")
    a = np.hstack([features, np.ones((features.shape[0], 1))])
    gram = a.T @ a + 1e-10 * np.eye(a.shape[1])
    return np.linalg.solve(gram, a.T @ target)


def explicit_residuals(batches, subset):
    """Per-environment residuals of x0 on ``subset`` under the pooled fit."""
    pooled = np.vstack([b.data for b in batches])
    cols = sorted(subset)
    beta = ols_fit(pooled[:, cols], pooled[:, 0])
    return [sb.EmpiricalSample(b.data[:, 0] - b.data[:, cols] @ beta[:-1] - beta[-1],
                               label=b.env)
            for b in batches]


def wide_batches(seed: int = 11, n: int = 400, nodes: int = 9):
    """One clamp environment per candidate of a random model with one
    confounder: at the default 9 nodes, 8 candidates, so 256 subsets."""
    gen = sb.GenConfig(nodes_min=nodes, nodes_max=nodes)
    rng = np.random.default_rng(seed)
    scm = sb.add_confounders(sb.random_scm(gen, rng), 1, rng)
    envs = sb.environments_for(scm, gen, rng)
    return [sb.sample(scm, env, n, rng) for env in envs]


def unequal_batches(seed: int = 2):
    """The 4-node demo model's three environments cut to 120, 200 and 161
    rows, so each environment's residuals start at their own column."""
    rng = np.random.default_rng(seed)
    scm = sb.four_node_demo_scm()
    envs = sb.environments_for(scm, sb.GenConfig(), rng)
    return [sb.sample(scm, env, n, rng) for env, n in zip(envs, (120, 200, 161))]


def two_mechanism_batches(n: int = 800):
    """x0 = x1 + noise in env 1 but x0 = 2*x1 + noise in env 2.

    The x1 scales differ across the environments, so no candidate subset has
    invariant residuals under the pooled compromise fit, the empty one
    included.
    """
    rng = np.random.default_rng(0)
    batches = []
    for env, coef, scale in ((1, 1.0, 1.0), (2, 2.0, 2.0)):
        x1 = rng.normal(scale=scale, size=n)
        x2 = rng.normal(size=n)
        y = coef * x1 + rng.normal(size=n)
        batches.append(sb.SampleBatch(env=env, data=np.column_stack([y, x1, x2])))
    return batches


class TestOlsFit:
    def test_recovers_exact_linear_law(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 1))
        y = 3.0 * x[:, 0] + 2.0
        beta = ols_fit(x, y)
        assert beta == pytest.approx([3.0, 2.0], abs=1e-6)

    def test_empty_subset_fits_the_mean(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        beta = ols_fit(np.empty((4, 0)), y)
        assert beta.shape == (1,)
        assert beta[0] == pytest.approx(3.0, abs=1e-9)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(n, s\)"):
            ols_fit(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match=r"\(n, s\)"):
            ols_fit(np.zeros((4, 2)), np.zeros(5))


class TestInvariancePvalue:
    def test_identical_constant_groups_accept(self):
        groups = [sb.EmpiricalSample(np.full(20, 1.5), label=i) for i in range(3)]
        assert invariance_pvalue(groups, sb.IcpConfig()) == 1.0

    def test_constant_versus_varying_rejects_outright(self):
        rng = np.random.default_rng(1)
        groups = [sb.EmpiricalSample(np.full(20, 0.0), label=0),
                  sb.EmpiricalSample(rng.normal(size=20), label=1)]
        assert invariance_pvalue(groups, sb.IcpConfig()) == 0.0

    def test_strong_mean_shift_rejects(self):
        rng = np.random.default_rng(2)
        groups = [sb.EmpiricalSample(rng.normal(size=200), label=0),
                  sb.EmpiricalSample(rng.normal(6.0, size=200), label=1)]
        assert invariance_pvalue(groups, sb.IcpConfig()) < 1e-6

    def test_variance_shift_rejects(self):
        rng = np.random.default_rng(3)
        groups = [sb.EmpiricalSample(rng.normal(0, 1, size=300), label=0),
                  sb.EmpiricalSample(rng.normal(0, 4, size=300), label=1)]
        assert invariance_pvalue(groups, sb.IcpConfig()) < 1e-6

    def test_null_acceptance_rate_is_plausible(self):
        rejections = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            groups = [sb.EmpiricalSample(rng.normal(size=150), label=i)
                      for i in range(3)]
            rejections += invariance_pvalue(groups, sb.IcpConfig()) < 0.05
        assert rejections <= 5  # expected 1.5 under exact calibration

    def test_energy_permutation_variant(self, monkeypatch):
        monkeypatch.setattr(icp, "_PERMUTATIONS", 99)
        cfg = sb.IcpConfig(test="energy-permutation")
        rng = np.random.default_rng(4)
        shifted = [sb.EmpiricalSample(rng.normal(size=150), label=0),
                   sb.EmpiricalSample(rng.normal(8.0, size=150), label=1)]
        p = invariance_pvalue(shifted, cfg, np.random.default_rng(0))
        assert p == pytest.approx(1.0 / 100.0, abs=1e-12)
        same = [sb.EmpiricalSample(rng.normal(size=60), label=0),
                sb.EmpiricalSample(rng.normal(size=60), label=1)]
        p_null = invariance_pvalue(same, cfg, np.random.default_rng(1))
        assert p_null > 0.05

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_energy_permutation_is_one_k_sample_test(self, k):
        cfg = sb.IcpConfig(test="energy-permutation")
        data = np.random.default_rng(20 + k)
        groups = [sb.EmpiricalSample(data.normal(0.1 * i, size=40 + 10 * i), label=i)
                  for i in range(k)]
        p = invariance_pvalue(groups, cfg, np.random.default_rng(k))
        assert p == sb.ksample_equality_test(groups, 199, np.random.default_rng(k))[1]
        with pytest.raises(ValueError, match="needs an rng"):
            invariance_pvalue(groups, cfg)

    def test_energy_null_acceptance_rate_is_plausible(self, monkeypatch):
        monkeypatch.setattr(icp, "_PERMUTATIONS", 99)
        cfg = sb.IcpConfig(test="energy-permutation")
        rejections = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            groups = [sb.EmpiricalSample(rng.normal(size=100), label=i)
                      for i in range(4)]
            rejections += invariance_pvalue(groups, cfg, rng) < 0.05
        assert rejections <= 5  # expected 1.5 under exact calibration

    def test_energy_permutation_requires_an_rng(self):
        groups = [sb.EmpiricalSample(np.arange(5.0), label=0),
                  sb.EmpiricalSample(np.arange(5.0) + 1.0, label=1)]
        cfg = sb.IcpConfig(test="energy-permutation")
        with pytest.raises(ValueError, match="rng"):
            invariance_pvalue(groups, cfg)

    def test_rejects_bad_inputs(self):
        one = [sb.EmpiricalSample(np.arange(5.0))]
        with pytest.raises(ValueError, match="two environments"):
            invariance_pvalue(one, sb.IcpConfig())
        short = [sb.EmpiricalSample(np.arange(2.0), label=0),
                 sb.EmpiricalSample(np.arange(5.0), label=1)]
        with pytest.raises(ValueError, match="3 residuals"):
            invariance_pvalue(short, sb.IcpConfig())


def _sums(sizes, means, variances):
    """(sizes, sums, sumsq) of groups with the given means and variances."""
    n = sizes.astype(float)
    return sizes, means * n, variances * (n - 1.0) + n * means ** 2


def _reference_mean_variance_pvalue(sizes, sums, sumsq):
    """Oracle for _mean_variance_pvalue: the same test with its t and F tails
    taken from scipy.stats, whose argument checks and support masks wrap the
    scipy.special functions icp calls directly."""
    k = sizes.size
    n = sizes.astype(float)
    means = sums / n
    variances = np.maximum(sumsq - n * means ** 2, 0.0) / (n - 1.0)
    comp_n = n.sum() - n
    comp_mean = (sums.sum(axis=-1, keepdims=True) - sums) / comp_n
    comp_ss = (sumsq.sum(axis=-1, keepdims=True) - sumsq) - comp_n * comp_mean ** 2
    comp_var = np.maximum(comp_ss, 0.0) / (comp_n - 1.0)
    zero_own = variances <= 1e-12 * (1.0 + means ** 2)
    zero_comp = comp_var <= 1e-12 * (1.0 + comp_mean ** 2)
    se2 = variances / n + comp_var / comp_n
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (means - comp_mean) / np.sqrt(se2)
        share = variances / n / se2
        df = 1.0 / (share ** 2 / (n - 1.0) + (1.0 - share) ** 2 / (comp_n - 1.0))
        p_mean = 2.0 * stats.t.sf(np.abs(t), df)
        f_cdf = stats.f.cdf(variances / comp_var, n - 1.0, comp_n - 1.0)
    p_var = 2.0 * np.minimum(f_cdf, 1.0 - f_cdf)
    both_const = zero_own & zero_comp
    means_match = np.abs(means - comp_mean) <= 1e-9 * (1.0 + np.abs(means) + np.abs(comp_mean))
    p_mean = np.where(both_const, np.where(means_match, 1.0, 0.0), p_mean)
    p_var = np.where(both_const, 1.0, p_var)
    p_var = np.where(zero_own ^ zero_comp, 0.0, p_var)
    return np.minimum(1.0, k * (2.0 * np.minimum(p_mean, p_var)).min(axis=-1))


def _twelve_node_batches():
    """A 12-node cell with one confounder: 11 environments of 2,000 rows, so
    2,048 subsets."""
    gen = sb.GenConfig(nodes_min=12, nodes_max=12)
    rng = np.random.default_rng(12)
    scm = sb.add_confounders(sb.random_scm(gen, rng), 1, rng)
    return [sb.sample(scm, env, 2000, rng) for env in sb.environments_for(scm, gen, rng)]


def _twelve_node_statistics():
    """(sizes, sums, sumsq) of the one mean-variance call of the
    _twelve_node_batches cell."""
    batches = _twelve_node_batches()
    calls = []

    def record(*args):
        calls.append(args)
        return _mean_variance_pvalue(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(icp, "_mean_variance_pvalue", record)
        sb.icp_identify(batches, sb.IcpConfig(), seed=0)
    (args,) = calls
    return args


def _null_statistics():
    """2,048 rows of 11 environments of 2,000 rows that share one law, so the
    p-values spread over (0, 1] instead of sitting at 0."""
    rng = np.random.default_rng(13)
    sizes = np.full(11, 2000)
    means = rng.normal(scale=2000 ** -0.5, size=(2048, 11))
    variances = rng.chisquare(1999, size=(2048, 11)) / 1999
    return _sums(sizes, means, variances)


def _degenerate_statistics():
    """Rows of three environments with zero own variance, zero complement
    variance, or both, at equal and at unequal means, next to two regular
    rows: NaN df and infinite and zero variance ratios, which the np.where
    overrides replace."""
    sizes = np.array([40, 55, 70])
    means = np.array([[0.1, -0.2, 0.3],   # regular
                      [0.0, 0.5, 0.0],    # regular, the mean test decides
                      [2.5, 2.5, 2.5],    # all constant, equal means
                      [0.0, 1.0, 2.0],    # all constant, each complement varies
                      [0.1, -0.2, 0.3],   # env 0 constant
                      [0.0, 0.0, 0.0],    # env 1 varies, the rest constant
                      [1.0, 0.0, 1.0],    # same, unequal means
                      [1.0, 3.0, 3.0],    # all constant, env 0's complement too
                      [1.0, 1.0, 1.0]])   # env 0 varies, equal means
    variances = np.array([[1.0, 0.8, 1.3],
                          [1.0, 1.0, 1.0],
                          [0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0],
                          [0.0, 0.8, 1.3],
                          [0.0, 1.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0],
                          [2.0, 0.0, 0.0]])
    return _sums(sizes, means, variances)


class TestMeanVariancePvalue:
    @pytest.mark.parametrize("statistics", [
        _twelve_node_statistics, _null_statistics, _degenerate_statistics])
    def test_matches_the_scipy_stats_oracle(self, statistics):
        sizes, sums, sumsq = statistics()
        p_values = _mean_variance_pvalue(sizes, sums, sumsq)
        assert p_values.shape == sums.shape[:1]
        assert np.array_equal(p_values, _reference_mean_variance_pvalue(sizes, sums, sumsq))

    def test_batched_call_equals_row_by_row_calls(self):
        rng = np.random.default_rng(6)
        sizes = np.array([40, 55, 70, 40, 90, 60, 45, 80, 50])
        k = sizes.size
        means = rng.normal(scale=0.3, size=(12, k))
        variances = rng.uniform(0.5, 2.0, size=(12, k))
        means[1], variances[1] = 2.5, 0.0          # all constant, equal means
        means[2], variances[2] = np.arange(k), 0.0  # all constant, unequal means
        variances[3, 4] = 0.0                      # one side constant
        variances[4, :] = 0.0                      # all constant but one
        variances[4, 7] = 1.0
        means[5] *= 20.0                           # strong mean shift
        variances[6, 2] = 9.0                      # variance shift
        sizes, sums, sumsq = _sums(sizes, means, variances)
        batched = _mean_variance_pvalue(sizes, sums, sumsq)
        assert batched.shape == (12,)
        rows = [_mean_variance_pvalue(sizes, sums[i:i + 1], sumsq[i:i + 1]) for i in range(12)]
        assert batched.tolist() == [float(r[0]) for r in rows]
        assert batched[1] == 1.0 and batched[2] == 0.0
        assert batched[3] == 0.0 and batched[4] == 0.0

    def test_mixed_batch_matches_the_oracle_and_row_by_row_calls(self):
        # rows the probe decides, null rows and degenerate rows, shuffled,
        # in one call at k = 11
        sizes, decided_sums, decided_sumsq = _twelve_node_statistics()
        null_sizes, null_sums, null_sumsq = _null_statistics()
        assert np.array_equal(sizes, null_sizes)
        k = sizes.size
        means = np.zeros((7, k))
        variances = np.ones((7, k))
        means[0], variances[0] = 2.5, 0.0  # all constant, equal means: t is NaN
        means[1, 1:], variances[1] = 2.5, 0.0  # env 0 alone at another mean: its
        means[1, 0] = 3.0                      # t is inf and the largest
        variances[2, 4] = 0.0                  # one side constant
        variances[3, :] = 0.0                  # all constant but env 7
        variances[3, 7] = 1.0
        variances[4, 3] = 4.0                  # a variance shift decides, though
        means[4, 5] = 0.2                      # env 5 has the largest |t|
        means[5, 2] = 0.2                      # a mean shift
        means[6] = np.arange(k) * 1e-3         # regular
        _, odd_sums, odd_sumsq = _sums(sizes, means, variances)
        sums = np.vstack([decided_sums[:300], null_sums[:300], odd_sums])
        sumsq = np.vstack([decided_sumsq[:300], null_sumsq[:300], odd_sumsq])
        order = np.random.default_rng(7).permutation(len(sums))
        sums, sumsq = sums[order], sumsq[order]

        p_values = _mean_variance_pvalue(sizes, sums, sumsq)
        assert np.array_equal(p_values, _reference_mean_variance_pvalue(sizes, sums, sumsq))
        rows = [float(_mean_variance_pvalue(sizes, sums[i:i + 1], sumsq[i:i + 1])[0])
                for i in range(len(sums))]
        assert p_values.tolist() == rows
        odd = p_values[np.argsort(order)][600:]
        assert odd[0] == 1.0 and odd[1] == odd[2] == odd[3] == odd[4] == 0.0
        assert 0.0 < np.count_nonzero(p_values) < len(p_values)

    def test_tails_are_evaluated_only_for_undecided_rows(self, monkeypatch):
        sizes, sums, sumsq = _twelve_node_statistics()
        seen = {"stdtr": 0, "fdtr": 0}

        def counting(name):
            def tail(*args):
                seen[name] += np.broadcast(*args).size
                return getattr(special, name)(*args)
            return tail

        monkeypatch.setattr(icp, "special", SimpleNamespace(
            stdtr=counting("stdtr"), fdtr=counting("fdtr")))
        p_values = _mean_variance_pvalue(sizes, sums, sumsq)
        rows, k = sums.shape
        bound = rows + k * np.count_nonzero(p_values)
        assert seen["stdtr"] <= bound and seen["fdtr"] <= bound
        assert bound < rows * k  # 2,048 against 22,528 elements per tail

    def test_invariance_pvalue_returns_a_python_float(self):
        groups = [sb.EmpiricalSample(np.arange(10.0) * (i + 1), label=i) for i in range(3)]
        assert type(invariance_pvalue(groups, sb.IcpConfig())) is float

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_p_is_scale_free_until_the_sums_of_squares_overflow(self):
        # Welch's df never squares se2, so only the sums of squares overflow
        rng = np.random.default_rng(0)
        same = [rng.normal(size=50) for _ in range(3)]
        shifted = [rng.normal(size=50) + 0.3 * i for i in range(3)]

        def p_at(values, scale):
            return invariance_pvalue([sb.EmpiricalSample(v * scale, label=i)
                                      for i, v in enumerate(values)], sb.IcpConfig())

        assert p_at(same, 1.0) == p_at(same, 1e78) == p_at(same, 1e80) == 1.0
        assert 0.01 < p_at(shifted, 1.0) < 0.5
        for scale in (1e78, 1e80):
            assert p_at(shifted, scale) == pytest.approx(p_at(shifted, 1.0), rel=1e-12)
        with pytest.raises(ValueError, match="sums of squares overflow"):
            p_at(same, 1e160)

    def test_welch_df_matches_the_textbook_formula(self, monkeypatch):
        # icp takes df from the own term's share of se2, not from se2 ** 2
        sizes, sums, sumsq = _null_statistics()
        seen = []

        def stdtr(df, t):
            seen.append(df)
            return special.stdtr(df, t)

        monkeypatch.setattr(icp, "special", SimpleNamespace(stdtr=stdtr, fdtr=special.fdtr))
        assert (_mean_variance_pvalue(sizes, sums, sumsq) > 0.0).all()
        n = sizes.astype(float)
        means = sums / n
        var = (sumsq - n * means ** 2) / (n - 1.0)
        comp_n = n.sum() - n
        comp_mean = (sums.sum(axis=-1, keepdims=True) - sums) / comp_n
        comp_var = ((sumsq.sum(axis=-1, keepdims=True) - sumsq)
                    - comp_n * comp_mean ** 2) / (comp_n - 1.0)
        own, comp = var / n, comp_var / comp_n
        textbook = (own + comp) ** 2 / (own ** 2 / (n - 1.0) + comp ** 2 / (comp_n - 1.0))
        assert seen[-1].shape == textbook.shape  # every row's tails in full
        np.testing.assert_allclose(seen[-1], textbook, rtol=1e-12, atol=0.0)


class TestIcpIdentify:
    def test_recovers_demo_parents(self, demo_batches):
        result = sb.icp_identify(demo_batches(0, n=5000), sb.IcpConfig(), seed=0)
        assert result.estimated_set == {1, 2}
        assert len(result.p_values) == 8  # all subsets of {1, 2, 3}

    def test_accept_reject_bookkeeping(self, demo_batches):
        result = sb.icp_identify(demo_batches(1, n=3000), sb.IcpConfig(), seed=1)
        alpha = 0.05
        for subset, p in result.p_values.items():
            assert (p > alpha) == (subset in result.accepted_subsets)
        assert result.estimated_set == frozenset.intersection(
            *result.accepted_subsets)

    def test_no_accepted_subset_gives_empty_estimate(self):
        result = sb.icp_identify(two_mechanism_batches(), sb.IcpConfig(), seed=0)
        assert result.accepted_subsets == ()
        assert result.estimated_set == frozenset()

    def test_sufficient_statistics_match_explicit_residuals(self, demo_batches):
        cfg = sb.IcpConfig()
        for batches, count in ((demo_batches(2, n=800), 8), (wide_batches(), 256),
                               (unequal_batches(), 8)):
            result = sb.icp_identify(batches, cfg, seed=0)
            assert len(result.p_values) == count
            for subset, p_fast in result.p_values.items():
                p_explicit = invariance_pvalue(explicit_residuals(batches, subset), cfg)
                assert p_fast == pytest.approx(p_explicit, abs=1e-8)

    @pytest.mark.parametrize("test", ["mean-variance", "energy-permutation"])
    def test_subsets_follow_the_enumeration_order(self, test):
        # every subset, by size, then in combinations order
        result = sb.icp_identify(wide_batches(5, n=100),
                                 sb.IcpConfig(test=test), seed=0)
        keys = [frozenset(s) for s in _subsets(8)]
        assert len(keys) == 256 and keys[:3] == [frozenset(), {1}, {2}]
        assert keys[9] == {1, 2} and keys[-1] == frozenset(range(1, 9))
        assert list(result.p_values) == keys

    def test_energy_permutation_matches_per_subset_oracle(self, demo_batches):
        cfg = sb.IcpConfig(test="energy-permutation")
        seed = 3
        for batches in (demo_batches(8, n=120), unequal_batches()):
            result = sb.icp_identify(batches, cfg, seed=seed)
            oracle = {}
            for subset in _subsets(3):
                rng = np.random.default_rng(np.random.SeedSequence([seed]))
                oracle[frozenset(subset)] = invariance_pvalue(
                    explicit_residuals(batches, subset), cfg, rng)
            assert list(result.p_values.items()) == list(oracle.items())

    @pytest.mark.parametrize("sizes", [(3, 3), (120, 200, 161), (7, 299, 3, 50)],
                             ids=["equal", "three-unequal", "four-unequal"])
    def test_energy_residuals_sit_at_their_environments_columns(self, monkeypatch, sizes):
        # the residual matrix is written one environment at a time; row i must
        # hold subset i's residuals, environment by environment, at each
        # environment's own column offset
        captured = []

        def spy(resid, *args):
            captured.append(resid.copy())
            return ksample_tests(resid, *args)

        ksample_tests = icp._ksample_tests
        monkeypatch.setattr(icp, "_ksample_tests", spy)
        rng = np.random.default_rng(len(sizes))
        batches = [sb.SampleBatch(env=e, data=rng.normal(size=(n, 4)))
                   for e, n in enumerate(sizes, 1)]
        sb.icp_identify(batches, sb.IcpConfig(test="energy-permutation"), seed=0)
        (resid,) = captured
        assert resid.shape == (8, sum(sizes))
        for row, subset in zip(resid, _subsets(3)):
            expected = np.concatenate([r.values for r in explicit_residuals(batches, subset)])
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-10)

    def test_energy_permutation_p_values_are_pinned(self, demo_batches):
        # sha256 of the p-values in subset order, one k-sample test per
        # subset on one shared draw: [.005, .005, .005, .005, .855, .005, .005, .005]
        result = sb.icp_identify(demo_batches(0, n=500),
                                 sb.IcpConfig(test="energy-permutation"), seed=0)
        pvals = list(result.p_values.values())
        assert hashlib.sha256(np.array(pvals).tobytes()).hexdigest() == (
            "a2d1fcaf6b5e5b63313622fee11f26d570d789c46b67485c5cbd50841529030e")

    def test_energy_p_values_at_the_benchmark_shape_are_pinned(self):
        # sha256 of the 192 p-values of 12 cells shaped like perfbench's
        # icp-energy workload: 5 nodes (4 environments of 500 rows, so every
        # group has u = 1), 199 permutations, confounder levels 0-2. The
        # seeds give 13 p-values above the floor .005, from .015 to .995
        gen = sb.GenConfig(nodes_min=5, nodes_max=5)
        pvals = []
        for seed in (3, 5, 7, 15):
            for level in (0, 1, 2):
                rng = np.random.default_rng(seed)
                scm = sb.add_confounders(sb.random_scm(gen, rng), level, rng)
                batches = [sb.sample(scm, env, 500, rng)
                           for env in sb.environments_for(scm, gen, rng)]
                result = sb.icp_identify(batches, sb.IcpConfig(test="energy-permutation"),
                                         seed=seed)
                pvals.extend(result.p_values.values())
        assert hashlib.sha256(np.array(pvals).tobytes()).hexdigest() == (
            "01b552fcddd336a6f5e2592a81096c3a0bdaf211d0578bf426866e8f85cb3d8c")

    @pytest.mark.parametrize("name, digest", [
        # all 2,048 p-values are 0
        ("twelve-node", "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"),
        # [0, 0, 0, 0, 1, 0, 0, 5.4e-08]
        ("demo", "a0234288898f27f828b6b0c0fb615c6099156b50d23c118f990be379ab8f7737"),
    ])
    def test_mean_variance_p_values_are_pinned(self, demo_batches, name, digest):
        # sha256 of the p-values in subset order
        batches = _twelve_node_batches() if name == "twelve-node" else demo_batches(0, n=500)
        result = sb.icp_identify(batches, sb.IcpConfig(), seed=0)
        pvals = list(result.p_values.values())
        assert hashlib.sha256(np.array(pvals).tobytes()).hexdigest() == digest

    def test_determinism(self, demo_batches):
        batches = demo_batches(3, n=1000)
        a = sb.icp_identify(batches, sb.IcpConfig(), seed=5)
        b = sb.icp_identify(batches, sb.IcpConfig(), seed=5)
        assert a.estimated_set == b.estimated_set
        assert a.p_values == b.p_values

    def test_energy_permutation_variant_agrees_on_the_demo(self, demo_batches):
        cfg = sb.IcpConfig(test="energy-permutation")
        batches = demo_batches(4, n=600)
        result = sb.icp_identify(batches, cfg, seed=7)
        assert result.estimated_set == {1, 2}

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_p_values_are_scale_free_until_the_sums_of_squares_overflow(self, demo_batches):
        batches = demo_batches(0, n=5000)

        def identify(scale):
            scaled = [sb.SampleBatch(env=b.env, data=b.data * scale) for b in batches]
            return sb.icp_identify(scaled, sb.IcpConfig(), seed=0)

        base = identify(1.0)
        assert base.estimated_set == {1, 2}
        for scale in (1e78, 1e80):
            result = identify(scale)
            assert result.estimated_set == {1, 2}
            # the least-squares residuals round differently at each scale
            assert result.p_values == pytest.approx(base.p_values, rel=1e-9)
        with pytest.raises(ValueError, match="sums of squares overflow"):
            identify(1e160)

    def test_enumeration_budget(self, demo_batches, monkeypatch):
        monkeypatch.setattr(icp, "_SUBSET_BUDGET", 3)
        with pytest.raises(sb.EnumerationBudgetError,
                           match="^8 subsets exceed the budget of 3$"):
            sb.icp_identify(demo_batches(6, n=200), sb.IcpConfig(), seed=0)

    def test_rejected_enumeration_caches_nothing(self, demo_batches, monkeypatch):
        icp._layout.cache_clear()
        monkeypatch.setattr(icp, "_SUBSET_BUDGET", 3)
        with pytest.raises(sb.EnumerationBudgetError):
            sb.icp_identify(demo_batches(6, n=200), sb.IcpConfig(), seed=0)
        assert icp._layout.cache_info().currsize == 0
        monkeypatch.setattr(icp, "_SUBSET_BUDGET", 255)
        sb.icp_identify(demo_batches(6, n=200), sb.IcpConfig(), seed=0)
        sb.icp_identify(wide_batches(n=100, nodes=6), sb.IcpConfig(), seed=0)
        assert icp._layout.cache_info().currsize == 2
        with pytest.raises(sb.EnumerationBudgetError):
            sb.icp_identify(wide_batches(), sb.IcpConfig(), seed=0)
        assert icp._layout.cache_info().currsize == 2

    @pytest.mark.parametrize("name, value", [("_PERMUTATIONS", 199), ("_SUBSET_BUDGET", 4096)])
    def test_constants_keep_the_former_defaults(self, name, value):
        got = getattr(icp, name)
        assert got == value and type(got) is type(value)

    def test_default_budget_admits_twelve_candidates(self):
        result = sb.icp_identify(wide_batches(n=60, nodes=13), sb.IcpConfig(), seed=0)
        assert len(result.p_values) == 4096

    def test_default_budget_refuses_thirteen_candidates(self):
        with pytest.raises(sb.EnumerationBudgetError,
                           match="^8192 subsets exceed the budget of 4096$"):
            sb.icp_identify(wide_batches(n=60, nodes=14), sb.IcpConfig(), seed=0)

    def test_layout_cache_keeps_every_default_candidate_count(self):
        # unbounded: the budget admits at most 12 candidate counts
        assert icp._layout.cache_info().maxsize is None

    def test_results_do_not_depend_on_call_order(self, demo_batches):
        # 8, 5, 3 and 6 candidates: four layouts in the cache at once
        cases = [(wide_batches(), sb.IcpConfig()),
                 (wide_batches(n=200, nodes=6), sb.IcpConfig()),
                 (demo_batches(2, n=300), sb.IcpConfig()),
                 (wide_batches(5, n=100, nodes=7),
                  sb.IcpConfig(test="energy-permutation"))]

        def run(batches, cfg):
            result = sb.icp_identify(batches, cfg, seed=1)
            return (list(result.p_values.items()), result.accepted_subsets,
                    result.estimated_set)

        references = []
        for case in cases:
            icp._layout.cache_clear()
            references.append(run(*case))
        icp._layout.cache_clear()
        for i in (3, 0, 2, 1, 3, 1, 0, 2, 0, 3):
            assert run(*cases[i]) == references[i]
        assert icp._layout.cache_info().currsize == 4

        keys, blocks = icp._layout(8)
        assert keys == tuple(frozenset(s) for s in _subsets(8))
        for index in (a for block in blocks for a in block):
            with pytest.raises(ValueError, match="read-only"):
                index.flat[0] = 0

    @pytest.mark.parametrize("test", ["mean-variance", "energy-permutation"])
    @pytest.mark.parametrize("seed, message", [
        (-1, r"^seed must lie in \[0, inf\), got -1$"),
        (True, r"^seed must be an integer, got True$"),
        (1.0, r"^seed must be an integer, got 1.0$"),
    ])
    def test_rejects_a_bad_seed(self, demo_batches, test, seed, message):
        with pytest.raises(ValueError, match=message):
            sb.icp_identify(demo_batches(9, n=50), sb.IcpConfig(test=test), seed=seed)

    def test_rejects_malformed_batches(self, demo_batches):
        batches = demo_batches(7, n=100)
        cfg = sb.IcpConfig()
        with pytest.raises(ValueError, match="at least 2 batches"):
            sb.icp_identify(batches[:1], cfg)
        mixed = batches[:2] + [sb.SampleBatch(env=3, data=batches[2].data[:, :3])]
        with pytest.raises(ValueError, match="same width"):
            sb.icp_identify(mixed, cfg)
        narrow = [sb.SampleBatch(env=e, data=np.random.default_rng(e).normal(size=(50, 1)))
                  for e in (1, 2)]
        with pytest.raises(ValueError, match="one candidate"):
            sb.icp_identify(narrow, cfg)
        tiny = [sb.SampleBatch(env=b.env, data=b.data[:2]) for b in batches]
        with pytest.raises(ValueError, match="3 rows"):
            sb.icp_identify(tiny, cfg)


class TestIcpConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(test="anderson"),
    ])
    def test_rejects_bad_values(self, overrides):
        (field,) = overrides
        with pytest.raises(ValueError, match=f"^{field} must"):
            sb.IcpConfig(**overrides)
