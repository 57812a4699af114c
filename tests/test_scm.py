"""Tests for the linear Gaussian SCM simulator and random model generation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scmbench as sb
from scmbench import scm as scm_module

OBS = sb.Environment(id=0)


def chain_scm(weight: float = 2.0, s0: float = 1.0, s1: float = 1.0):
    """Two nodes, x1 -> x0 with the given weight."""
    weights = np.zeros((2, 2))
    weights[0, 1] = weight
    return sb.LinearGaussianScm(
        num_observed=2, num_latent=0, weights=weights,
        noise_means=np.zeros(2), noise_stds=np.array([s0, s1]),
        topo_order=(1, 0))


def _reference_sample(scm, env, n: int, rng) -> np.ndarray:
    """Sampling oracle: one ``normal(means, stds)`` draw of the whole noise
    block, then a mat-vec for every node in topological order."""
    applied = sb.intervene(scm, env)
    p = applied.p
    noise = rng.normal(applied.noise_means, applied.noise_stds, size=(n, p))
    values = np.zeros((n, p))
    for j in applied.topo_order:
        values[:, j] = values @ applied.weights[j] + noise[:, j]
    return values[:, :scm.num_observed]


def replay_weight(twin) -> float:
    """The fixed edge-weight law drawn from ``twin``: a magnitude U[0.5, 2],
    then a sign flip with probability 1/2."""
    w = twin.uniform(0.5, 2.0)
    return float(-w if twin.random() < 0.5 else w)


def reachable_from(scm, start: int) -> set[int]:
    """Nodes with a directed path from ``start`` (start excluded)."""
    out: set[int] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for child in np.nonzero(scm.weights[:, node])[0]:
            if int(child) not in out:
                out.add(int(child))
                frontier.append(int(child))
    return out


class TestAnalyticMoments:
    def test_chain_moments_hand_computed(self):
        mean, cov = sb.analytic_moments(chain_scm(), OBS)
        # Var(x0) = 2^2 * 1 + 1 = 5, Cov(x0, x1) = 2 * Var(x1) = 2
        assert np.array_equal(mean, [0.0, 0.0])
        assert np.array_equal(cov, [[5.0, 2.0], [2.0, 1.0]])

    def test_chain_moments_under_clamp(self):
        env = sb.Environment(id=1, value=3.0)
        mean, cov = sb.analytic_moments(chain_scm(), env)
        assert np.array_equal(mean, [6.0, 3.0])
        assert np.array_equal(cov, [[1.0, 0.0], [0.0, 0.0]])

    @given(w=st.floats(-3.0, 3.0), s0=st.floats(0.1, 2.0), s1=st.floats(0.1, 2.0))
    def test_chain_covariance_formula(self, w, s0, s1):
        mean, cov = sb.analytic_moments(chain_scm(w, s0, s1), OBS)
        assert mean.tolist() == [0.0, 0.0]
        assert cov[1, 1] == pytest.approx(s1 ** 2, abs=1e-12)
        assert cov[0, 1] == pytest.approx(w * s1 ** 2, abs=1e-12)
        assert cov[0, 0] == pytest.approx(w ** 2 * s1 ** 2 + s0 ** 2, abs=1e-12)

    def test_sampled_moments_match_analytic(self):
        scm = sb.random_scm(sb.GenConfig(), np.random.default_rng(5))
        clamp = sb.Environment(id=1, value=4.0)
        n = 50_000
        for env in (OBS, clamp):
            mean, cov = sb.analytic_moments(scm, env)
            batch = sb.sample(scm, env, n, np.random.default_rng(17))
            sd = np.sqrt(np.diag(cov))
            se_mean = sd / np.sqrt(n)
            se_var = np.diag(cov) * np.sqrt(2.0 / (n - 1))
            for j in range(scm.num_observed):
                if sd[j] == 0.0:
                    assert np.all(batch.data[:, j] == mean[j])
                    continue
                assert abs(batch.data[:, j].mean() - mean[j]) <= 5 * se_mean[j]
                assert abs(batch.data[:, j].var() - cov[j, j]) <= 5 * se_var[j]

    def test_covariance_is_symmetric_psd(self):
        scm = sb.random_scm(sb.GenConfig(), np.random.default_rng(9))
        _, cov = sb.analytic_moments(scm, OBS)
        assert np.array_equal(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > -1e-10)


class TestInterventionLocality:
    def test_non_descendants_keep_exact_moments(self):
        scm = sb.random_scm(sb.GenConfig(), np.random.default_rng(3))
        target = min(sb.parents(scm, 0))
        env = sb.Environment(id=target, value=5.0)
        affected = {target} | reachable_from(scm, target)
        others = sorted(set(range(scm.num_observed)) - affected)
        assert others, "expected at least one unaffected node"
        mean_base, cov_base = sb.analytic_moments(scm, OBS)
        mean_env, cov_env = sb.analytic_moments(scm, env)
        assert np.array_equal(mean_base[others], mean_env[others])
        assert np.array_equal(cov_base[np.ix_(others, others)],
                              cov_env[np.ix_(others, others)])

    def test_descendants_do_change(self):
        scm = sb.random_scm(sb.GenConfig(), np.random.default_rng(3))
        target = min(sb.parents(scm, 0))
        env = sb.Environment(id=target, value=5.0)
        mean_base, _ = sb.analytic_moments(scm, OBS)
        mean_env, _ = sb.analytic_moments(scm, env)
        assert mean_env[0] != mean_base[0]
        assert mean_env[target] == 5.0


class TestIntervene:
    def test_no_clamps_returns_same_object(self):
        scm = chain_scm()
        assert sb.intervene(scm, OBS) is scm

    def test_clamp_rewrites_mechanism(self):
        scm = chain_scm()
        env = sb.Environment(id=1, value=2.5)
        applied = sb.intervene(scm, env)
        assert np.all(applied.weights[1] == 0.0)
        assert applied.noise_means[1] == 2.5
        assert applied.noise_stds[1] == 0.0
        # the outcome's own assignment is untouched
        assert np.array_equal(applied.weights[0], scm.weights[0])
        assert applied.noise_stds[0] == scm.noise_stds[0]

    @pytest.mark.parametrize("env, message", [
        (sb.Environment(id=0, value=1.0), "outcome"),
        (sb.Environment(id=5, value=1.0), "not a node"),
        (sb.Environment(id=-1, value=1.0), "not a node"),
        (sb.Environment(id=1, value=float("nan")), "finite"),
        (sb.Environment(id=1, value=float("inf")), "finite"),
        (sb.Environment(id=1, value=float("-inf")), "finite"),
        # numpy would read weights[True, :] as a mask and clamp every node
        (sb.Environment(id=True, value=5.0), "^intervention target must be an integer, got True$"),
        (sb.Environment(id=1.0, value=5.0), "^intervention target must be an integer, got 1.0$"),
        (sb.Environment(id=1, value=True), "^intervention value must be a number, got True$"),
        (sb.Environment(id=np.True_, value=5.0),
         "^intervention target must be an integer, got np.True_$"),
        (sb.Environment(id="1", value=5.0), "^intervention target must be an integer, got '1'$"),
        (sb.Environment(id=1, value=np.True_), "^intervention value must be a number, got np.True_$"),
        (sb.Environment(id=1, value="5.0"), "^intervention value must be a number, got '5.0'$"),
    ])
    def test_rejects_bad_clamps(self, env, message):
        with pytest.raises(ValueError, match=message):
            sb.intervene(chain_scm(), env)

    @pytest.mark.parametrize("target, value", [
        (np.int64(1), np.float64(2.5)), (np.int32(1), np.float32(2.5)), (1, 2)],
        ids=["int64-float64", "int32-float32", "int-int"])
    def test_numpy_numbers_are_accepted(self, target, value):
        applied = sb.intervene(chain_scm(), sb.Environment(id=target, value=value))
        assert applied.noise_means[1] == value and applied.noise_stds[1] == 0.0
        assert np.all(applied.weights[1] == 0.0)

    def test_rejects_latent_target(self):
        scm = sb.add_confounders(chain_scm(), 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="latent"):
            sb.intervene(scm, sb.Environment(id=2, value=1.0))


class TestRandomScm:
    def test_topology_properties(self):
        for seed in range(40):
            scm = sb.random_scm(sb.GenConfig(), np.random.default_rng(seed))
            m = scm.num_observed
            assert 8 <= m <= 12
            assert scm.num_latent == 0
            pa = sb.parents(scm, 0)
            assert len(pa) >= 2
            chain = sorted(set(range(1, m)) - pa,
                           key=lambda d: len(reachable_from(scm, d)),
                           reverse=True)
            # every candidate is either a parent or a chain descendant
            assert pa | set(chain) == set(range(1, m))
            assert len(chain) <= 2
            for p in pa:
                assert np.all(scm.weights[p] == 0.0), "parents must be roots"
            src = 0
            for d in chain:
                assert sb.parents(scm, d) == {src}
                src = d
            nonzero = np.abs(scm.weights[scm.weights != 0.0])
            assert np.all((nonzero >= 0.5) & (nonzero <= 2.0))
            assert np.all((scm.noise_stds >= 0.7) & (scm.noise_stds <= 1.5))
            assert np.all(scm.noise_means == 0.0)

    def test_determinism_via_rng(self):
        cfg = sb.GenConfig()
        a = sb.random_scm(cfg, np.random.default_rng(123))
        b = sb.random_scm(cfg, np.random.default_rng(123))
        assert a == b
        c = sb.random_scm(cfg, np.random.default_rng(124))
        assert a != c

    def test_a_model_never_equals_another_type(self):
        scm = chain_scm()
        assert (scm == 1) is False
        assert scm != (scm.weights, scm.noise_means, scm.noise_stds)

    def test_min_parents_floor_is_enforced(self, monkeypatch):
        monkeypatch.setattr(scm_module, "_EDGE_PROB", 0.05)
        cfg = sb.GenConfig()
        for seed in range(20):
            scm = sb.random_scm(cfg, np.random.default_rng(seed))
            assert len(sb.parents(scm, 0)) >= 2

    @pytest.mark.parametrize("nodes", [3, 4, 5])
    def test_outcome_parent_floor_is_two(self, monkeypatch, nodes):
        # with 3 candidates, a floor of 1 would let a 2-link chain leave 1 parent
        monkeypatch.setattr(scm_module, "_EDGE_PROB", 0.5)
        cfg = sb.GenConfig(nodes_min=nodes, nodes_max=nodes)
        counts = [len(sb.parents(sb.random_scm(cfg, np.random.default_rng(seed)), 0))
                  for seed in range(50)]
        assert min(counts) == 2

    def test_draw_weight_is_a_magnitude_then_a_sign_flip(self):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(200):
            assert scm_module._draw_weight(rng) == replay_weight(twin)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_half_the_weights_are_negative(self):
        weights = np.concatenate([
            sb.random_scm(sb.GenConfig(), np.random.default_rng(seed)).weights.ravel()
            for seed in range(200)])
        nonzero = weights[weights != 0.0]
        assert nonzero.size > 1000
        assert np.mean(nonzero < 0) == pytest.approx(0.5, abs=0.05)

    def test_generation_error_when_floor_unreachable(self, monkeypatch):
        monkeypatch.setattr(scm_module, "_EDGE_PROB", 0.0)
        with pytest.raises(sb.GenerationError):
            sb.random_scm(sb.GenConfig(), np.random.default_rng(0))

    def test_edge_prob_keeps_the_former_default(self):
        got = scm_module._EDGE_PROB
        assert got == 0.3 and type(got) is float

    def test_first_pass_draw_reads_the_constant(self, monkeypatch):
        # every candidate drawn as a parent leaves none for the chain
        monkeypatch.setattr(scm_module, "_EDGE_PROB", 1.0)
        scm = sb.random_scm(sb.GenConfig(), np.random.default_rng(0))
        assert sb.parents(scm, 0) == set(range(1, scm.num_observed))
        assert scm.topo_order[-1] == 0


class TestSample:
    def test_shape_env_id_and_determinism(self):
        scm = chain_scm()
        batch = sb.sample(scm, OBS, 100, np.random.default_rng(1))
        again = sb.sample(scm, OBS, 100, np.random.default_rng(1))
        assert batch.data.shape == (100, 2)
        assert batch.env == 0
        assert batch.n == 100
        assert np.array_equal(batch.data, again.data)

    def test_clamped_column_is_exactly_constant(self):
        scm = sb.random_scm(sb.GenConfig(), np.random.default_rng(2))
        env = sb.Environment(id=1, value=4.25)
        batch = sb.sample(scm, env, 500, np.random.default_rng(0))
        assert np.all(batch.data[:, 1] == 4.25)

    def test_latent_columns_are_hidden(self):
        scm = sb.add_confounders(sb.four_node_demo_scm(), 2,
                                 np.random.default_rng(0))
        batch = sb.sample(scm, OBS, 50, np.random.default_rng(0))
        assert batch.data.shape == (50, 4)

    def test_rejects_nonpositive_n(self):
        for n, message in ((0, r"lie in \[1, inf\), got 0"),
                           (2.5, "be an integer, got 2.5"),
                           (True, "be an integer, got True")):
            with pytest.raises(ValueError, match=f"^n must {message}$"):
                sb.sample(chain_scm(), OBS, n, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 3, 2000])
    @pytest.mark.parametrize("confounders", [0, 1, 2])
    def test_matches_the_reference_sampler(self, n, confounders):
        gen = sb.GenConfig()
        draw = np.random.default_rng(20 + confounders)
        for _ in range(3):
            scm = sb.add_confounders(sb.random_scm(gen, draw), confounders, draw)
            envs = [OBS] + sb.environments_for(scm, gen, draw)
            assert len(envs) == scm.num_observed
            for env in envs:
                self._assert_same_draw(scm, env, n, seed=env.id)

    def test_matches_the_reference_sampler_on_the_demo(self):
        scm = sb.four_node_demo_scm()
        envs = [OBS] + sb.environments_for(scm, sb.GenConfig(), np.random.default_rng(0))
        for env in envs:
            for n in (1, 3, 2000):
                self._assert_same_draw(scm, env, n, seed=n)

    @staticmethod
    def _assert_same_draw(scm, env, n, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = sb.sample(scm, env, n, rng)
        assert np.array_equal(batch.data, _reference_sample(scm, env, n, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestAddConfounders:
    def test_zero_count_is_identity(self):
        scm = chain_scm()
        assert sb.add_confounders(scm, 0, np.random.default_rng(0)) is scm

    def test_structure_of_added_latents(self):
        base = sb.random_scm(sb.GenConfig(), np.random.default_rng(4))
        scm = sb.add_confounders(base, 2, np.random.default_rng(11))
        k = base.num_observed
        assert scm.num_observed == k
        assert scm.num_latent == 2
        assert np.array_equal(scm.weights[:k, :k], base.weights)
        for lat in (k, k + 1):
            assert np.all(scm.weights[lat] == 0.0), "latents are roots"
            targets = np.nonzero(scm.weights[:, lat])[0]
            assert len(targets) == 2
            assert 0 in targets
            other = int(max(targets))
            assert 1 <= other < k, "second target is another observed node"
            assert scm.noise_stds[lat] == 1.0
            assert scm.noise_means[lat] == 0.0

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_latent_edges_follow_the_fixed_law(self, count):
        # per latent: its second target, then the weight into node 0, then
        # the weight into that target
        base = sb.random_scm(sb.GenConfig(), np.random.default_rng(40))
        rng, twin = np.random.default_rng(41), np.random.default_rng(41)
        scm = sb.add_confounders(base, count, rng)
        for lat in range(base.p, base.p + count):
            other = int(twin.integers(1, base.num_observed))
            expected = np.zeros(scm.p)
            expected[0] = replay_weight(twin)
            expected[other] = replay_weight(twin)
            assert np.array_equal(scm.weights[:, lat], expected)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_observed_parent_set_is_unchanged(self):
        base = sb.four_node_demo_scm()
        scm = sb.add_confounders(base, 2, np.random.default_rng(3))
        assert sb.parents(scm, 0) == {1, 2}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="count"):
            sb.add_confounders(chain_scm(), -1, np.random.default_rng(0))
        one_node = sb.LinearGaussianScm(
            num_observed=1, num_latent=0, weights=np.zeros((1, 1)),
            noise_means=np.zeros(1), noise_stds=np.ones(1), topo_order=(0,))
        with pytest.raises(ValueError, match="two observed"):
            sb.add_confounders(one_node, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("count", [True, 1.5, float("nan")])
    def test_rejects_a_non_integer_count(self, count):
        with pytest.raises(ValueError, match=r"^count must be an integer, got "):
            sb.add_confounders(chain_scm(), count, np.random.default_rng(0))


class TestParents:
    def test_chain(self):
        assert sb.parents(chain_scm(), 0) == {1}
        assert sb.parents(chain_scm(), 1) == frozenset()

    def test_all_zero_weights(self):
        scm = sb.LinearGaussianScm(
            num_observed=2, num_latent=0, weights=np.zeros((2, 2)),
            noise_means=np.zeros(2), noise_stds=np.ones(2), topo_order=(0, 1))
        assert sb.parents(scm, 0) == frozenset()

    def test_demo_model(self):
        scm = sb.four_node_demo_scm()
        assert sb.parents(scm, 0) == {1, 2}
        assert sb.parents(scm, 3) == {0}

    def test_latent_parents_are_excluded(self):
        scm = sb.add_confounders(sb.four_node_demo_scm(), 1,
                                 np.random.default_rng(0))
        assert sb.parents(scm, 0) == {1, 2}

    def test_rejects_unknown_node(self):
        for node in (7, -1):
            with pytest.raises(ValueError, match=rf"^node must lie in \[0, 2\), got {node}$"):
                sb.parents(chain_scm(), node)

    @pytest.mark.parametrize("node", [True, 1.0])
    def test_rejects_a_non_integer_node(self, node):
        with pytest.raises(ValueError, match=rf"^node must be an integer, got {node}$"):
            sb.parents(chain_scm(), node)


class TestValidation:
    def kwargs(self, **overrides):
        base = dict(num_observed=2, num_latent=0, weights=np.zeros((2, 2)),
                    noise_means=np.zeros(2), noise_stds=np.ones(2),
                    topo_order=(0, 1))
        base.update(overrides)
        return base

    def test_rejects_self_loop(self):
        weights = np.zeros((2, 2))
        weights[0, 0] = 1.0
        with pytest.raises(ValueError, match="[Ss]elf-loops"):
            sb.LinearGaussianScm(**self.kwargs(weights=weights))

    def test_rejects_edge_against_topo_order(self):
        weights = np.zeros((2, 2))
        weights[1, 0] = 1.0  # 0 -> 1 but topo_order says 1 before 0
        with pytest.raises(ValueError, match="topo_order"):
            sb.LinearGaussianScm(**self.kwargs(weights=weights,
                                               topo_order=(1, 0)))

    def test_rejects_latent_with_parents(self):
        weights = np.zeros((2, 2))
        weights[1, 0] = 1.0
        with pytest.raises(ValueError, match="latent"):
            sb.LinearGaussianScm(**self.kwargs(num_observed=1, num_latent=1,
                                               weights=weights))

    def test_rejects_negative_noise_std(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sb.LinearGaussianScm(**self.kwargs(noise_stds=np.array([1.0, -1.0])))

    def test_rejects_bad_topo_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            sb.LinearGaussianScm(**self.kwargs(topo_order=(0, 0)))

    @pytest.mark.parametrize("field, value, message", [
        ("num_observed", 0, r"lie in \[1, inf\), got 0"),
        ("num_observed", True, "be an integer, got True"),
        ("num_observed", 2.0, "be an integer, got 2.0"),
        ("num_latent", -1, r"lie in \[0, inf\), got -1"),
        ("num_latent", False, "be an integer, got False"),
    ])
    def test_rejects_bad_node_counts(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} must {message}$"):
            sb.LinearGaussianScm(**self.kwargs(**{field: value}))

    @pytest.mark.parametrize("field, value, message", [
        ("weights", np.zeros((2, 3)), r"weights must be \(p, p\)"),
        ("weights", np.zeros(4), r"weights must be \(p, p\)"),
        ("noise_means", np.zeros(3), "noise vectors must have length p"),
        ("noise_stds", np.ones((2, 1)), "noise vectors must have length p"),
    ])
    def test_rejects_misshapen_parameters(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sb.LinearGaussianScm(**self.kwargs(**{field: value}))

    def test_rejects_nonfinite_parameters(self):
        with pytest.raises(ValueError, match="finite"):
            sb.LinearGaussianScm(**self.kwargs(
                noise_means=np.array([np.inf, 0.0])))

    @pytest.mark.parametrize("overrides", [
        dict(nodes_min=2),
        dict(nodes_min=5, nodes_max=4),
        dict(intervention_value_min=5.0, intervention_value_max=4.0),
    ])
    def test_genconfig_rejects_bad_values(self, overrides):
        *_, field = overrides  # the last key names the field to blame
        with pytest.raises(ValueError, match=f"^{field} must"):
            sb.GenConfig(**overrides)

    def test_sample_batch_rejects_bad_data(self):
        with pytest.raises(ValueError, match="2-D"):
            sb.SampleBatch(env=0, data=np.zeros(3))
        with pytest.raises(ValueError, match="2-D"):
            sb.SampleBatch(env=0, data=np.zeros((0, 2)))
        with pytest.raises(ValueError, match="finite"):
            sb.SampleBatch(env=0, data=np.array([[np.nan, 1.0]]))

    def test_sample_batch_data_is_a_read_only_view(self):
        source = np.zeros((3, 2))
        batch = sb.SampleBatch(env=0, data=source)
        assert np.shares_memory(batch.data, source)
        with pytest.raises(ValueError, match="read-only"):
            batch.data[0, 0] = 1.0
        source[0, 0] = 1.0  # the caller's array keeps its own flags
        assert batch.data[0, 0] == 1.0


class TestDemoModel:
    def test_documented_structure(self):
        scm = sb.four_node_demo_scm()
        assert scm.weights[0, 1] == 2.0
        assert scm.weights[0, 2] == -1.5
        assert scm.weights[3, 0] == 1.0
        assert np.count_nonzero(scm.weights) == 3
        assert np.all(scm.noise_stds == 1.0)
