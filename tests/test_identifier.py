"""Tests for the invariance-penalty parent identifier."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

import scmbench as sb
from scmbench import harness, identifier
from scmbench.distmetrics import fit_gaussian

OBS = sb.Environment(id=0)


def chain_batches(seed: int, n_train: int = 6000, n_eval: int = 4000):
    """x1 -> x0 with weight 2 and unit noises; returns (train, eval) batches."""
    weights = np.zeros((2, 2))
    weights[0, 1] = 2.0
    scm = sb.LinearGaussianScm(
        num_observed=2, num_latent=0, weights=weights,
        noise_means=np.zeros(2), noise_stds=np.ones(2), topo_order=(1, 0))
    rng = np.random.default_rng(seed)
    return (sb.sample(scm, OBS, n_train, rng), sb.sample(scm, OBS, n_eval, rng))


def all_parents_scm():
    """Five candidates, all of them direct parents of the outcome."""
    coef = [0.0, 1.2, -0.8, 1.7, 0.6, -1.4]
    weights = np.zeros((6, 6))
    for j in range(1, 6):
        weights[0, j] = coef[j]
    return sb.LinearGaussianScm(
        num_observed=6, num_latent=0, weights=weights,
        noise_means=np.zeros(6), noise_stds=np.ones(6),
        topo_order=(1, 2, 3, 4, 5, 0))


def _reference_train_regressor(batches, mask, rng):
    """Per-parameter trainer oracle: one array and one Adam update per
    parameter and one index draw per step, with the steps in float32 and the
    standardization, least-squares start and fold in float64, run for the
    identifier's recipe constants as they stand when called.
    train_regressor must return the same bits and leave rng in the same
    state."""
    if not batches:
        raise ValueError("need at least one batch")
    data = np.vstack([b.data for b in batches])
    mask = np.asarray(mask, dtype=float)
    if data.shape[1] != mask.size + 1:
        raise ValueError("batch width does not match the number of candidates")
    x_raw = data[:, 1:] * mask
    y_raw = data[:, 0]
    n, l = x_raw.shape
    h = 16

    x_mu = x_raw.mean(axis=0)
    x_sd = x_raw.std(axis=0)
    x_sd[x_sd < 1e-12] = 1.0
    y_mu = float(y_raw.mean())
    y_sd = float(y_raw.std())
    if y_sd < 1e-12:
        y_sd = 1.0
    x = (x_raw - x_mu) / x_sd
    y = (y_raw - y_mu) / y_sd

    w1 = rng.normal(0.0, 1.0 / np.sqrt(max(l, 1)), size=(l, h)).astype(np.float32)
    b1 = np.zeros(h, dtype=np.float32)
    w2 = rng.normal(0.0, 0.1 / np.sqrt(h), size=h).astype(np.float32)
    b2 = np.zeros((), dtype=np.float32)
    ws = np.zeros(l, dtype=np.float32)
    act = np.nonzero(mask)[0]
    if act.size:
        xa = x[:, act]
        gram = xa.T @ xa + 1e-8 * n * np.eye(act.size)
        ws[act] = np.linalg.solve(gram, xa.T @ y)
    x, y = x.astype(np.float32), y.astype(np.float32)
    params = [w1, b1, w2, b2, ws]
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    total = identifier._UPDATES
    flat = int(0.7 * total)
    for step in range(1, total + 1):
        if step <= flat:
            lr = identifier._STEP_SIZE
        else:
            frac = (step - flat) / (total - flat)
            lr = identifier._STEP_SIZE * (1.0 - 0.98 * frac)
        idx = rng.integers(0, n, size=identifier._BATCH_ROWS)
        xb = x[idx]
        yb = y[idx]
        hidden = np.tanh(xb @ params[0] + params[1])
        pred = xb @ params[4] + hidden @ params[2] + params[3]
        err = pred - yb
        loss = float(np.mean(err ** 2))
        if not np.isfinite(loss):
            raise sb.TrainingDivergedError(f"non-finite loss at step {step}")
        d_pred = 2.0 * err / err.size
        g_ws = xb.T @ d_pred
        g_w2 = hidden.T @ d_pred
        g_b2 = d_pred.sum()
        d_hidden = np.outer(d_pred, params[2]) * (1.0 - hidden ** 2)
        g_w1 = xb.T @ d_hidden
        g_b1 = d_hidden.sum(axis=0)
        grads = (g_w1, g_b1, g_w2, g_b2, g_ws)
        for p, m, v, g in zip(params, m_state, v_state, grads):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g ** 2
            m_hat = m / (1 - beta1 ** step)
            v_hat = v / (1 - beta2 ** step)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)

    params = [p.astype(float) for p in params]
    w1_fold = params[0] / x_sd[:, None]
    b1_fold = params[1] - (x_mu / x_sd) @ params[0]
    w2_fold = params[2] * y_sd
    ws_fold = params[4] / x_sd * y_sd
    b2_fold = (float(params[3]) - (x_mu / x_sd) @ params[4]) * y_sd + y_mu
    return identifier.Regressor(w1=w1_fold, b1=b1_fold, w2=w2_fold, b2=b2_fold,
                                ws=ws_fold)


def five_candidate_batches(seed: int, n: int):
    """One clamp batch per candidate of all_parents_scm, n rows each."""
    scm = all_parents_scm()
    rng = np.random.default_rng(seed)
    envs = sb.environments_for(scm, sb.GenConfig(), rng)
    return [sb.sample(scm, env, n, rng) for env in envs]


# identify_parents on the demo model (batch seed 21, rng seed 22), by case:
# (the constant that replaces the null-calibrated threshold, or None; sorted
# estimated set, rounds_run, sha256 of fid_trace.tobytes(), sha256 of
# tau_trace.tobytes())
PINNED_RESULTS = {
    "default": (
        None, [1, 2], 2,
        "9bffb7424f6a55bdb091f6f097117cff90a39e1d5cd850b72759becd9f3c3f67",
        "8299adb3c9868fa28d0c68c367c2eeb9a3a82e5a49009607967af56b435c8cf0"),
    "tau=0.01": (
        0.01, [1, 2], 2,
        "9bffb7424f6a55bdb091f6f097117cff90a39e1d5cd850b72759becd9f3c3f67",
        "c5e1f4c71c3d389d29391287c19eaf39177d2480d44005da232ffacac7b6b001"),
    # tau = 0 evicts until one environment is left
    "tau=0": (
        0.0, [2], 2,
        "9bffb7424f6a55bdb091f6f097117cff90a39e1d5cd850b72759becd9f3c3f67",
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    # tau = inf evicts no one: one round, whose fid row is the default's first
    "tau=inf": (
        np.inf, [1, 2, 3], 1,
        "888eec67d580b9f05405a54442cab3cc604a019cbb01a7dc10bcfc5ae093d883",
        "9402bb655bc3b7331a00f1219ef647565bbe517c74aa0e41026885785867d1cd"),
}

# identify_parents in one cell of the default sweep at master seed 0, called
# as the harness calls it (dag 5 at one confounder: 10 nodes, 4 rounds, three
# evictions, one of them a true parent): (sorted estimated set, rounds_run,
# sha256 of fid_trace.tobytes(), sha256 of tau_trace.tobytes())
PINNED_SWEEP_CELL = [
    [2, 3, 4, 5, 6, 7], 4,
    "e696cbb1d80cfadfd370d61327788fbca6e729f194c3083fa0dfff8eb85ac081",
    "4a101597a33d1278ac23372a4dd3c934ff888c07d33dd12f1deb2a21caf1b602"]


def fix_tau(monkeypatch, tau: float) -> None:
    """Make every round's threshold ``tau`` instead of the null calibration."""
    monkeypatch.setattr(identifier, "_null_tau", lambda *args: tau)


def pinned_result(demo_batches, monkeypatch, case: str):
    """identify_parents as PINNED_RESULTS[case] ran it, and the pinned rest."""
    tau, *expected = PINNED_RESULTS[case]
    if tau is not None:
        fix_tau(monkeypatch, tau)
    result = sb.identify_parents(demo_batches(21), sb.TrainConfig(),
                                 np.random.default_rng(22))
    return result, expected


def assert_traces_explain(result, l: int):
    """Replaying the eviction rule on the traces round by round (the first
    largest score goes if it exceeds tau) gives the evictions: only the last
    round may evict no one, each row is NaN exactly at the candidates evicted
    before it, and the rest survive."""
    evicted = set()
    for r, (row, tau) in enumerate(zip(result.fid_trace, result.tau_trace)):
        assert set(np.flatnonzero(np.isnan(row)) + 1) == evicted
        victim = int(np.nanargmax(row))
        if row[victim] > tau:
            evicted.add(victim + 1)
        else:
            assert r == result.rounds_run - 1
    assert result.estimated_set == set(range(1, l + 1)) - evicted


class TestTrainRegressor:
    def test_all_masked_input_learns_the_mean(self):
        scm = sb.four_node_demo_scm()
        rng = np.random.default_rng(0)
        train = sb.sample(scm, OBS, 6000, rng)
        hold = sb.sample(scm, OBS, 4000, rng)
        mask = np.zeros(3)
        reg = identifier.train_regressor([train], mask, np.random.default_rng(1))
        x = hold.data[:, 1:] * mask
        mse = float(np.mean((reg.predict(x) - hold.data[:, 0]) ** 2))
        # Var(x0) = 2^2 + 1.5^2 + 1 = 7.25; a constant predictor can do no better
        assert mse == pytest.approx(7.25, rel=0.05)

    def test_constant_target_predicts_the_constant(self):
        # y has zero spread, so it is standardised by 1 instead of its sd
        train, hold = chain_batches(seed=7, n_train=300, n_eval=100)
        data = train.data.copy()
        data[:, 0] = 3.5
        reg = identifier.train_regressor([sb.SampleBatch(env=0, data=data)], np.ones(1),
                                         np.random.default_rng(1))
        assert np.max(np.abs(reg.predict(hold.data[:, 1:]) - 3.5)) < 0.01

    def test_chain_reaches_the_noise_floor(self):
        train, hold = chain_batches(seed=2)
        reg = identifier.train_regressor([train], np.ones(1), np.random.default_rng(3))
        mse = float(np.mean((reg.predict(hold.data[:, 1:])
                             - hold.data[:, 0]) ** 2))
        assert mse == pytest.approx(1.0, rel=0.10)

    def test_determinism(self):
        train, _ = chain_batches(seed=4, n_train=1500, n_eval=10)
        mask = np.ones(1)
        a = identifier.train_regressor([train], mask, np.random.default_rng(9))
        b = identifier.train_regressor([train], mask, np.random.default_rng(9))
        for field in ("w1", "b1", "w2", "b2", "ws"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("step_size", [1e200, 1e39],
                             ids=["1e200", "past-float32-max"])
    def test_divergence_is_reported(self, monkeypatch, step_size):
        # both step sizes are finite floats but inf in the float32 step, so
        # the first update makes the parameters non-finite; a float64 step
        # takes 1e39 and returns coefficients near 1e39 instead
        monkeypatch.setattr(identifier, "_STEP_SIZE", step_size)
        train, _ = chain_batches(seed=5, n_train=500, n_eval=10)
        mask = np.ones(1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(sb.TrainingDivergedError) as expected:
                _reference_train_regressor([train], mask, np.random.default_rng(0))
            with pytest.raises(sb.TrainingDivergedError) as got:
                identifier.train_regressor([train], mask, np.random.default_rng(0))
        assert str(got.value) == str(expected.value) == "non-finite loss at step 2"

    @pytest.mark.parametrize("masked, n, updates", [
        pytest.param((), 700, None, id="all-active"),
        pytest.param((2, 4), 700, None, id="some-masked"),
        pytest.param((1, 2, 3, 4, 5), 700, None, id="all-masked"),
        # a single update lies past the flat 70 percent: it takes the decayed step
        pytest.param((), 700, 1, id="one-step"),
        # 45 pooled rows, fewer than a batch's 256
        pytest.param((5,), 9, None, id="batch-larger-than-rows"),
    ])
    def test_matches_the_per_parameter_oracle(self, monkeypatch, masked, n, updates):
        if updates is not None:
            monkeypatch.setattr(identifier, "_UPDATES", updates)
        batches = five_candidate_batches(seed=11, n=n)
        active = ~np.isin(np.arange(1, 6), masked)
        rng_ref = np.random.default_rng(12)
        ref = _reference_train_regressor(batches, active.astype(float), rng_ref)
        # identify_parents passes a boolean mask; a 0/1 integer one is the same
        for mask in (active, active.astype(np.int8)):
            rng_new = np.random.default_rng(12)
            got = identifier.train_regressor(batches, mask, rng_new)
            for field in ("w1", "b1", "w2", "b2", "ws"):
                assert np.array_equal(getattr(got, field), getattr(ref, field)), field
                assert np.asarray(getattr(got, field)).dtype == np.float64, field
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("batches", [
        pytest.param(lambda: chain_batches(seed=8, n_train=50, n_eval=1)[:1], id="1-candidate"),
        pytest.param(lambda: five_candidate_batches(seed=8, n=50), id="5-candidates"),
    ])
    def test_hidden_layer_has_sixteen_units(self, batches):
        batches = batches()
        l = batches[0].data.shape[1] - 1
        reg = identifier.train_regressor(batches, np.ones(l), np.random.default_rng(0))
        assert reg.w1.shape == (l, 16) and reg.b1.shape == reg.w2.shape == (16,)
        assert reg.ws.shape == (l,)

    def test_rejects_mismatched_width(self):
        train, _ = chain_batches(seed=6, n_train=100, n_eval=10)
        with pytest.raises(ValueError, match="width"):
            identifier.train_regressor([train], np.ones(3), np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least 1 batch"):
            identifier.train_regressor([], np.ones(1), np.random.default_rng(0))

    def test_rejects_batches_of_mixed_width(self):
        train = sb.sample(sb.four_node_demo_scm(), OBS, 50, np.random.default_rng(0))
        narrow = sb.SampleBatch(env=1, data=train.data[:, :3])
        message = r"^all batches must have the same width, got \[3, 4\]$"
        with pytest.raises(ValueError, match=message):
            identifier.train_regressor([train, narrow], np.ones(3), np.random.default_rng(0))

    @pytest.mark.parametrize("mask, message", [
        pytest.param([1, 2, 0], "mask must be a 1-D binary vector", id="non-binary"),
        pytest.param([1.0, 0.5, 1.0], "mask must be a 1-D binary vector",
                     id="fractional"),
        pytest.param([[1, 1, 1]], "mask must be a 1-D binary vector", id="2-d"),
        pytest.param([1, 1], "batch width does not match the number of candidates",
                     id="wrong-length"),
    ])
    def test_rejects_a_bad_mask(self, mask, message):
        train = sb.sample(sb.four_node_demo_scm(), OBS, 50, np.random.default_rng(0))
        with pytest.raises(ValueError) as info:
            identifier.train_regressor([train], np.array(mask), np.random.default_rng(0))
        assert str(info.value) == message


class TestResidualScores:
    """identify_parents scores |predict(x * mask) - x_0| on holdout rows."""

    def test_magnitudes_match_folded_gaussian_mean(self):
        train, hold = chain_batches(seed=7)
        mask = np.ones(1)
        reg = identifier.train_regressor([train], mask, np.random.default_rng(8))
        scores = np.abs(reg.predict(hold.data[:, 1:] * mask) - hold.data[:, 0])
        assert np.all(scores >= 0.0)
        expected = np.sqrt(2.0 / np.pi)  # E|N(0, 1)|
        assert float(scores.mean()) == pytest.approx(expected, rel=0.20)

    def test_perfect_predictor_gives_zero_scores(self):
        reg = identifier.Regressor(w1=np.zeros((1, 2)), b1=np.zeros(2),
                                   w2=np.zeros(2), b2=0.0, ws=np.array([2.0]))
        data = np.column_stack([np.arange(5.0) * 2.0, np.arange(5.0)])
        assert np.all(reg.predict(data[:, 1:]) == data[:, 0])

    def test_rejects_mismatched_width(self):
        reg = identifier.Regressor(w1=np.zeros((1, 2)), b1=np.zeros(2),
                                   w2=np.zeros(2), b2=0.0, ws=np.zeros(1))
        for x in (np.zeros((4, 3)), np.zeros(4)):
            with pytest.raises(ValueError, match="width"):
                reg.predict(x)


def _reference_scores(parts):
    """Each part's score from two-pass Gaussian fits of it and of the copy of
    every other part's values."""
    pooled = np.concatenate(parts)
    owner = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    return np.array([sb.frechet_gaussian1d(fit_gaussian(p), fit_gaussian(pooled[owner != j]))
                     for j, p in enumerate(parts)])


def _reference_null_tau(pooled, own_size, cfg, rng):
    """_null_tau with a two-pass fit of both halves of every permutation."""
    fids = []
    for _ in range(identifier._NULL_DRAWS):
        p = rng.permutation(pooled.size)
        fids.append(_reference_scores([pooled[p[:own_size]], pooled[p[own_size:]]])[0])
    fids = np.array(fids)
    return float(max(cfg.tau_multiplier * np.quantile(fids, 0.95), fids.max()))


def _moment_scores(parts):
    return identifier._scores(*np.array([(p.size, p.sum(), p @ p) for p in parts]).T)


class TestScores:
    """The identifier's scores and null from counts, sums and sums of squares
    match Gaussian fits of explicit copies of the parts."""

    def test_matches_the_gaussian_fit_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sizes = rng.integers(2, 901, size=rng.integers(2, 12))
            parts = [np.abs(rng.normal(rng.uniform(-1, 1), rng.uniform(0.2, 3), size=m))
                     for m in sizes]
            got, want = _moment_scores(parts), _reference_scores(parts)
            assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.parametrize("value", [0.7, 0.1])
    def test_constant_part_matches_the_oracle(self, value):
        # q - n*mean**2 of a constant part cancels to rounding, not to zero:
        # above it for 0.7 at 600 rows, below it for 0.1 at 37 and 600
        rng = np.random.default_rng(1)
        for m in (2, 37, 600):
            parts = [np.full(m, value), np.abs(rng.normal(size=500)), np.abs(rng.normal(size=233))]
            got, want = _moment_scores(parts), _reference_scores(parts)
            assert np.all(np.abs(got - want) <= 1e-6 * want)

    @pytest.mark.parametrize("sizes", [(600,) * 10, (2, 5, 900), (3, 3)])
    def test_null_tau_matches_the_two_pass_oracle(self, sizes):
        pooled = np.abs(np.random.default_rng(2).normal(size=sum(sizes)))
        cfg = sb.TrainConfig()
        rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        got = identifier._null_tau(pooled, min(sizes), cfg, rng)
        want = _reference_null_tau(pooled, min(sizes), cfg, rng_ref)
        assert abs(got - want) <= 1e-12 * want
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("draws", [1, 7])
    def test_null_tau_takes_one_permutation_per_draw(self, monkeypatch, draws):
        monkeypatch.setattr(identifier, "_NULL_DRAWS", draws)
        pooled = np.abs(np.random.default_rng(2).normal(size=50))
        cfg = sb.TrainConfig()
        rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        got = identifier._null_tau(pooled, 10, cfg, rng)
        assert got == pytest.approx(_reference_null_tau(pooled, 10, cfg, rng_ref), rel=1e-12)
        # the draws are the only use of rng: one permutation each
        after = np.random.default_rng(3)
        for _ in range(draws):
            after.permutation(pooled.size)
        assert rng.bit_generator.state == after.bit_generator.state

    def test_null_tau_is_nan_when_a_draw_is_not_finite(self, monkeypatch):
        pooled = np.full(20, 1e156)  # squares overflow
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(identifier._null_tau(pooled, 5, sb.TrainConfig(),
                                                 np.random.default_rng(0)))
        # one infinite draw leaves the 95th percentile finite
        monkeypatch.setattr(identifier, "_scores",
                            lambda n, s, q: np.r_[np.inf, np.ones(len(s) - 1)][:, None])
        assert np.isnan(identifier._null_tau(np.ones(20), 5, sb.TrainConfig(),
                                             np.random.default_rng(0)))


class TestIdentifyParents:
    def test_recovers_demo_parents(self, demo_batches):
        result = sb.identify_parents(demo_batches(3), sb.TrainConfig(),
                                     np.random.default_rng(3))
        assert result.estimated_set == {1, 2}

    def test_determinism(self, demo_batches):
        batches = demo_batches(5)
        a = sb.identify_parents(batches, sb.TrainConfig(),
                                np.random.default_rng(6))
        b = sb.identify_parents(batches, sb.TrainConfig(),
                                np.random.default_rng(6))
        assert a.estimated_set == b.estimated_set
        assert np.array_equal(a.fid_trace, b.fid_trace, equal_nan=True)
        assert np.array_equal(a.tau_trace, b.tau_trace)
        assert a.rounds_run == b.rounds_run

    def test_infinite_threshold_disables_elimination(self, demo_batches, monkeypatch):
        fix_tau(monkeypatch, np.inf)
        result = sb.identify_parents(demo_batches(7), sb.TrainConfig(),
                                     np.random.default_rng(7))
        assert result.estimated_set == {1, 2, 3}
        assert result.rounds_run == 1

    def test_trace_shapes_and_mask_monotonicity(self, demo_batches):
        result = sb.identify_parents(demo_batches(8), sb.TrainConfig(),
                                     np.random.default_rng(8))
        trace = result.fid_trace
        assert trace.shape == (result.rounds_run, 3)
        assert result.tau_trace.shape == (result.rounds_run,)
        active_sets = [set(np.nonzero(~np.isnan(row))[0]) for row in trace]
        for before, after in zip(active_sets, active_sets[1:]):
            assert after < before, "active set must shrink every round"
        assert result.final_weights.dtype == bool
        assert result.estimated_set == set(np.flatnonzero(result.final_weights) + 1)
        assert 0 not in result.estimated_set
        assert result.estimated_set <= {1, 2, 3}

    @pytest.mark.parametrize("case", PINNED_RESULTS)
    def test_matches_the_pinned_results(self, demo_batches, monkeypatch, case):
        result, expected = pinned_result(demo_batches, monkeypatch, case)
        assert [sorted(result.estimated_set), result.rounds_run,
                hashlib.sha256(result.fid_trace.tobytes()).hexdigest(),
                hashlib.sha256(result.tau_trace.tobytes()).hexdigest()] == expected
        assert result.final_weights.tolist() == [j in result.estimated_set
                                                 for j in (1, 2, 3)]

    def test_matches_the_pinned_sweep_cell(self, monkeypatch):
        results = []

        def keep(batches, cfg, rng):
            results.append(sb.identify_parents(batches, cfg, rng))
            return results[-1]

        monkeypatch.setattr(harness, "identify_parents", keep)
        cfg = sb.ExperimentConfig(confounder_levels=(1,), methods=("iid",))
        records, errors = harness._dag_task((cfg, 5))
        (result,) = results
        assert errors == [] and records[0].pa0 == {2, 3, 4, 5, 6, 7, 9}
        assert result.fid_trace.shape == (4, 9)
        assert [sorted(result.estimated_set), result.rounds_run,
                hashlib.sha256(result.fid_trace.tobytes()).hexdigest(),
                hashlib.sha256(result.tau_trace.tobytes()).hexdigest()] == PINNED_SWEEP_CELL

    @pytest.mark.parametrize("case", PINNED_RESULTS)
    def test_traces_explain_the_pinned_results(self, demo_batches, monkeypatch, case):
        result, _ = pinned_result(demo_batches, monkeypatch, case)
        assert_traces_explain(result, 3)

    def test_two_environments_tie_toward_the_smaller_id(self, demo_batches, monkeypatch):
        # each one's rest is the other, so the two scores are one number
        result, _ = pinned_result(demo_batches, monkeypatch, "tau=0")
        first, second, evicted = result.fid_trace[-1]
        assert np.isnan(evicted) and first == second
        assert result.estimated_set == {2}

    @pytest.mark.parametrize("rows, survivors", [
        pytest.param([[0.0] * 5], {1, 2, 3, 4, 5}, id="all-below-threshold"),
        pytest.param([[0.1] * 5], {1, 2, 3, 4, 5}, id="threshold-is-strict"),
        pytest.param([[0.2, 0.5, 0.1, 0.1, 0.1], [0.05, np.nan, 0.05, 0.05, 0.05]],
                     {1, 3, 4, 5}, id="largest-score"),
        pytest.param([[0.1, 0.3, 0.3, 0.1, 0.3], [0.1, np.nan, 0.3, 0.1, 0.3],
                      [0.1, np.nan, np.nan, 0.1, 0.05]], {1, 4, 5}, id="tie-toward-smallest-id"),
        pytest.param([[0.9, 0.2, 0.2, 0.2, 0.2], [np.nan, 0.2, 0.5, 0.2, 0.2],
                      [np.nan, 0.05, np.nan, 0.05, 0.05]], {2, 4, 5},
                     id="nan-marks-an-evicted-candidate"),
    ])
    def test_evicts_the_first_largest_score_above_tau(self, monkeypatch, rows, survivors):
        # round r scores the active candidates as rows[r] does, against tau = 0.1
        queue = [np.array(row) for row in rows]

        def scores(n, s, q):
            row = queue.pop(0)
            assert n.size == np.count_nonzero(~np.isnan(row))
            return row[~np.isnan(row)]

        def zero(batches, mask, rng):
            return identifier.Regressor(w1=np.zeros((5, 1)), b1=np.zeros(1), w2=np.zeros(1),
                                        b2=0.0, ws=np.zeros(5))

        monkeypatch.setattr(identifier, "train_regressor", zero)
        monkeypatch.setattr(identifier, "_scores", scores)
        fix_tau(monkeypatch, 0.1)
        result = sb.identify_parents(five_candidate_batches(seed=3, n=20), sb.TrainConfig(),
                                     np.random.default_rng(0))
        assert queue == [] and result.estimated_set == survivors
        assert np.array_equal(result.fid_trace, np.array(rows), equal_nan=True)
        assert_traces_explain(result, 5)

    @pytest.mark.parametrize("n, n_hold", [(3, 2), (5, 2), (10, 3), (700, 210)])
    def test_each_environment_holds_out_its_last_three_tenths(self, monkeypatch, n, n_hold):
        # round(0.3 n) tail rows, at least 2 and leaving at least 1 to train on
        batches = five_candidate_batches(seed=3, n=n)
        trained, scored = [], []

        def zero(train, mask, rng):
            trained.append(train)
            return identifier.Regressor(w1=np.zeros((5, 1)), b1=np.zeros(1), w2=np.zeros(1),
                                        b2=0.0, ws=np.zeros(5))

        def scores(n, s, q):
            scored.append((n, s))
            return np.zeros(n.size)

        monkeypatch.setattr(identifier, "train_regressor", zero)
        monkeypatch.setattr(identifier, "_scores", scores)
        fix_tau(monkeypatch, 0.1)
        result = sb.identify_parents(batches, sb.TrainConfig(), np.random.default_rng(0))
        assert result.rounds_run == 1
        [train] = trained
        assert [t.env for t in train] == [b.env for b in batches]
        for t, b in zip(train, batches):
            assert np.array_equal(t.data, b.data[:n - n_hold])
        # the zero regressor leaves |x0| as each holdout row's residual
        [(sizes, sums)] = scored
        assert list(sizes) == [n_hold] * 5
        assert np.array_equal(sums, [np.abs(b.data[n - n_hold:, 0]).sum() for b in batches])

    def test_a_score_equal_to_tau_is_kept(self, demo_batches, monkeypatch):
        # round one's scores do not depend on tau; eviction needs a larger score
        first, _ = pinned_result(demo_batches, monkeypatch, "tau=inf")
        fix_tau(monkeypatch, float(np.nanmax(first.fid_trace[0])))
        result = sb.identify_parents(demo_batches(21), sb.TrainConfig(),
                                     np.random.default_rng(22))
        assert result.rounds_run == 1 and result.estimated_set == {1, 2, 3}

    @pytest.mark.parametrize("weight, tau", [(1e300, None), (1e156, None), (1.0, np.nan)],
                             ids=["residuals-near-1e300", "residuals-near-1e156", "nan-tau"])
    def test_non_finite_scores_name_the_round(self, demo_batches, monkeypatch, weight, tau):
        # squares of residuals near 1e156 and beyond overflow
        def stub(batches, mask, rng):
            return identifier.Regressor(w1=np.zeros((3, 1)), b1=np.zeros(1), w2=np.zeros(1),
                                        b2=0.0, ws=np.array([weight, 0.0, 0.0]))

        monkeypatch.setattr(identifier, "train_regressor", stub)
        if tau is not None:
            fix_tau(monkeypatch, tau)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError,
                               match="^non-finite candidate or null score in round 1$"):
                sb.identify_parents(demo_batches(4, n=100), sb.TrainConfig(),
                                    np.random.default_rng(0))

    def test_traces_explain_the_pinned_sweep_cell(self, monkeypatch):
        results = []

        def keep(batches, cfg, rng):
            results.append(sb.identify_parents(batches, cfg, rng))
            return results[-1]

        monkeypatch.setattr(harness, "identify_parents", keep)
        cfg = sb.ExperimentConfig(confounder_levels=(1,), methods=("iid",))
        harness._dag_task((cfg, 5))
        (result,) = results
        assert sorted(result.estimated_set) == PINNED_SWEEP_CELL[0]
        assert_traces_explain(result, 9)

    def test_keeps_full_parent_sets(self):
        scm = all_parents_scm()
        gen = sb.GenConfig()
        kept = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            envs = sb.environments_for(scm, gen, rng)
            batches = [sb.sample(scm, env, 2000, rng) for env in envs]
            result = sb.identify_parents(batches, sb.TrainConfig(),
                                         np.random.default_rng(seed + 77))
            kept += result.estimated_set == {1, 2, 3, 4, 5}
        assert kept >= 18, f"kept the full parent set in only {kept}/20 runs"

    @pytest.mark.parametrize("pick, ids", [
        (lambda obs, b: [obs] + b, [0, 1, 2, 3]),
        (lambda obs, b: [obs] + b[:2], [0, 1, 2]),
        (lambda obs, b: b + [b[0]], [1, 1, 2, 3]),
        (lambda obs, b: b[:2], [1, 2]),
        (lambda obs, b: [sb.SampleBatch(env=x.env + 4, data=x.data) for x in b],
         [5, 6, 7]),
    ], ids=["observational-added", "observational-for-a-candidate", "duplicate",
            "missing", "relabeled"])
    def test_rejects_environment_ids_other_than_one_per_candidate(
            self, demo_batches, pick, ids):
        rng = np.random.default_rng(0)
        observational = sb.sample(sb.four_node_demo_scm(), OBS, 100, rng)
        bad = pick(observational, demo_batches(10, n=100))
        with pytest.raises(ValueError, match=re.escape(
                f"environment ids must be 1..3, each exactly once, got {ids}")):
            sb.identify_parents(bad, sb.TrainConfig(), rng)

    def test_rejects_malformed_environments(self, demo_batches):
        batches = demo_batches(10, n=100)
        rng = np.random.default_rng(0)
        cfg = sb.TrainConfig()
        narrow = [sb.SampleBatch(env=1, data=np.zeros((5, 2)) + rng.normal(size=(5, 2)))]
        with pytest.raises(ValueError, match="two candidates"):
            sb.identify_parents(narrow, cfg, rng)
        mixed = batches[:2] + [sb.SampleBatch(env=3, data=batches[2].data[:, :3])]
        with pytest.raises(ValueError, match="same width"):
            sb.identify_parents(mixed, cfg, rng)
        tiny = [sb.SampleBatch(env=b.env, data=b.data[:2]) for b in batches]
        with pytest.raises(ValueError, match="3 rows"):
            sb.identify_parents(tiny, cfg, rng)
        with pytest.raises(ValueError, match="at least 1 batch"):
            sb.identify_parents([], cfg, rng)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(tau_multiplier=0.0),
        dict(tau_multiplier=-1.0),
    ])
    def test_rejects_bad_values(self, overrides):
        (field,) = overrides
        with pytest.raises(ValueError, match=f"^{field} must"):
            sb.TrainConfig(**overrides)

    @pytest.mark.parametrize("name", ["learning_rate", "epochs_per_round", "batch_size",
                                      "calibration_permutations"])
    def test_recipe_values_are_not_settings(self, name):
        assert [f.name for f in dataclasses.fields(sb.TrainConfig)] == ["tau_multiplier"]
        with pytest.raises(TypeError, match=name):
            sb.TrainConfig(**{name: 1})

    @pytest.mark.parametrize("name, value", [
        ("_STEP_SIZE", 0.01), ("_UPDATES", 600), ("_BATCH_ROWS", 256), ("_NULL_DRAWS", 64)])
    def test_recipe_constants_keep_the_former_defaults(self, name, value):
        # a numpy float64 step would promote the float32 steps to float64
        got = getattr(identifier, name)
        assert got == value and type(got) is type(value)
