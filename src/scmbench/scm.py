"""Linear Gaussian structural causal models with hard do-interventions.

A model over p = num_observed + num_latent nodes encodes the assignments

    x_j = sum_i weights[j, i] * x_i + noise_j,   noise_j ~ N(noise_means[j], noise_stds[j]^2)

where ``weights`` is strictly lower triangular under ``topo_order``. Node 0 is
the outcome. Latent nodes (indices >= num_observed) are root causes and are
marginalized out of every sampled batch and every analytic moment.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np

_MAX_RETRIES = 64
# the chance that random_scm's first pass draws a candidate as an outcome parent
_EDGE_PROB = 0.3


def _bounded(default, interval: str):
    """A field (with no default if ``default`` is MISSING) whose value must lie
    in ``interval``, like "[1, inf)" or "(0, 1)"; only "inf]" admits inf."""
    return field(default=default, metadata={"interval": interval})


def _check_bound(name: str, value, interval: str, integer: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value``, a number (an integer
    if ``integer``) and not a bool, lies in ``interval``; NaN never does."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if (not (lo <= value <= hi) or (interval[0] == "(" and value == lo)
            or (interval[-1] == ")" and value == hi)):
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")


def _check_bounds(obj) -> None:
    """Check every field of a dataclass declared with _bounded; each entry of
    a tuple or frozenset is checked."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "interval" in f.metadata:
            integer = f.type.startswith(("int", "tuple[int", "frozenset[int"))
            for v in value if isinstance(value, (tuple, frozenset)) else (value,):
                _check_bound(f.name, v, f.metadata["interval"], integer)


def _check_batches(batches, min_batches: int, min_rows: int) -> int:
    """The width all of ``batches`` share; ValueError unless there are at
    least ``min_batches`` of them, of one width, each with ``min_rows`` rows."""
    if len(batches) < min_batches:
        raise ValueError(f"need at least {min_batches} batch{'es' * (min_batches > 1)}, "
                         f"got {len(batches)}")
    widths = {b.data.shape[1] for b in batches}
    if len(widths) != 1:
        raise ValueError(f"all batches must have the same width, got {sorted(widths)}")
    if any(b.n < min_rows for b in batches):
        raise ValueError(f"each batch needs at least {min_rows} rows")
    return widths.pop()


class GenerationError(RuntimeError):
    """Random graph constraints could not be met within the retry budget."""


@dataclass(frozen=True)
class GenConfig:
    """Knobs for random model generation: the node count, at least 3 so that
    two candidates can be outcome parents, and the range clamp values are
    drawn from. The model law itself is fixed; see random_scm."""

    nodes_min: int = _bounded(8, "[3, inf)")
    nodes_max: int = _bounded(12, "[3, inf)")
    intervention_value_min: float = _bounded(3.0, "(-inf, inf)")
    intervention_value_max: float = _bounded(7.0, "(-inf, inf)")

    def __post_init__(self) -> None:
        _check_bounds(self)
        for stem in ("nodes", "intervention_value"):
            if not getattr(self, f"{stem}_min") <= getattr(self, f"{stem}_max"):
                raise ValueError(f"{stem}_max must be >= {stem}_min")


@dataclass(frozen=True)
class Environment:
    """A labelled experimental regime: observational when ``value`` is None,
    else the hard clamp do(x_id = value)."""

    id: int
    value: float | None = None


@dataclass(frozen=True, eq=False)
class LinearGaussianScm:
    num_observed: int = _bounded(MISSING, "[1, inf)")
    num_latent: int = _bounded(MISSING, "[0, inf)")
    weights: np.ndarray
    noise_means: np.ndarray
    noise_stds: np.ndarray
    topo_order: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_bounds(self)
        p = self.p
        if self.weights.shape != (p, p):
            raise ValueError("weights must be (p, p)")
        if self.noise_means.shape != (p,) or self.noise_stds.shape != (p,):
            raise ValueError("noise vectors must have length p")
        if not (np.all(np.isfinite(self.weights))
                and np.all(np.isfinite(self.noise_means))
                and np.all(np.isfinite(self.noise_stds))):
            raise ValueError("parameters must be finite")
        # zero std encodes a clamped node; generation always draws > 0
        if np.any(self.noise_stds < 0):
            raise ValueError("noise stds must be nonnegative")
        if np.any(np.diag(self.weights) != 0.0):
            raise ValueError("self-loops are not allowed")
        if sorted(self.topo_order) != list(range(p)):
            raise ValueError("topo_order must be a permutation of all nodes")
        pos = np.empty(p, dtype=np.int64)
        pos[list(self.topo_order)] = np.arange(p)
        rows, cols = np.nonzero(self.weights)
        if np.any(pos[cols] >= pos[rows]):
            raise ValueError("weights contain an edge violating topo_order")
        # latents are root causes: no incoming edges at all
        if self.num_latent and np.any(self.weights[self.num_observed:, :] != 0.0):
            raise ValueError("latent nodes cannot have parents")

    @property
    def p(self) -> int:
        return self.num_observed + self.num_latent

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearGaussianScm):
            return NotImplemented
        return (self.num_observed == other.num_observed
                and self.num_latent == other.num_latent
                and np.array_equal(self.weights, other.weights)
                and np.array_equal(self.noise_means, other.noise_means)
                and np.array_equal(self.noise_stds, other.noise_stds)
                and self.topo_order == other.topo_order)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Rows drawn from one environment; column i holds x_i, latents excluded.

    ``data`` is a read-only view, so the methods that share a batch cannot
    change it for each other: a write raises where it happens.
    """

    env: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise ValueError("data must be 2-D with at least one row")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data must be finite")
        view = self.data.view()
        view.flags.writeable = False
        object.__setattr__(self, "data", view)

    @property
    def n(self) -> int:
        return self.data.shape[0]


def _draw_weight(rng: np.random.Generator) -> float:
    w = rng.uniform(0.5, 2.0)
    if rng.random() < 0.5:
        w = -w
    return float(w)


def random_scm(cfg: GenConfig, rng: np.random.Generator) -> LinearGaussianScm:
    """Draw a random DAG model in which every candidate matters for node 0.

    Candidates (nodes 1..m-1) are drawn as direct parents of the outcome with
    probability _EDGE_PROB each (at least 2 of them, enforced by bounded
    resampling). Of the leftover candidates, one or two form a descendant
    chain below the outcome (node 0 -> d1 -> d2, each link the sole incoming
    edge of its head) and any remaining candidates become additional direct
    parents, so every candidate is causally tied to node 0 and each clamp
    environment carries signal about its target. Each edge weight is U[0.5, 2]
    in magnitude, its sign flipped with probability 1/2, and each noise std is
    U[0.7, 1.5].

    Parents are mutually unconnected root nodes and descendants never fan out
    or take edges from parents. Both choices keep identification well posed:
    a chain concentrates each descendant's information about node 0 in the
    current chain head (parallel copies would be mutually redundant, and the
    clamp on any single copy nearly undetectable), and root parents keep every
    node's marginal identical across the environments that do not clamp it,
    so dropping one candidate from consideration never disturbs how the
    remaining ones are judged.

    Raises GenerationError when the parent-count floor is not met within the
    retry budget, as 48 of 20,000 draws at 3 nodes do.
    """
    m = int(rng.integers(cfg.nodes_min, cfg.nodes_max + 1))
    for _ in range(_MAX_RETRIES):
        drawn_parent = rng.random(m - 1) < _EDGE_PROB
        if int(drawn_parent.sum()) >= 2:
            break
    else:
        raise GenerationError(
            f"could not draw >= 2 outcome parents in {_MAX_RETRIES} tries")

    candidates = np.arange(1, m)
    leftover = [int(v) for v in rng.permutation(candidates[~drawn_parent])]
    chain_len = min(len(leftover), 1 + int(rng.random() < 0.5))
    desc_ids = leftover[:chain_len]
    parents_ids = [int(v) for v in candidates[drawn_parent]] + leftover[chain_len:]
    parents_ids = [int(v) for v in rng.permutation(parents_ids)]

    weights = np.zeros((m, m))
    for pa in parents_ids:
        weights[0, pa] = _draw_weight(rng)
    for k, d in enumerate(desc_ids):
        src = 0 if k == 0 else desc_ids[k - 1]
        weights[d, src] = _draw_weight(rng)

    stds = rng.uniform(0.7, 1.5, size=m)
    topo = tuple(parents_ids) + (0,) + tuple(desc_ids)
    return LinearGaussianScm(
        num_observed=m,
        num_latent=0,
        weights=weights,
        noise_means=np.zeros(m),
        noise_stds=stds,
        topo_order=topo,
    )


def intervene(scm: LinearGaussianScm, env: Environment) -> LinearGaussianScm:
    """Return a copy with the environment's clamp applied: the incoming
    weights of x_id zeroed, its noise mean set to the value and its noise std
    to zero. Rejects clamps on node 0, on latent nodes and on unknown nodes,
    and a bool target or value, a non-integer target or a non-number value.
    """
    if env.value is None:
        return scm
    j = env.id
    _check_bound("intervention target", j, "(-inf, inf)", integer=True)
    if not 0 <= j < scm.p:
        raise ValueError(f"intervention target {j} is not a node")
    if j == 0:
        raise ValueError("cannot intervene on the outcome node")
    if j >= scm.num_observed:
        raise ValueError("cannot intervene on a latent node")
    if isinstance(env.value, bool) or not isinstance(env.value, Real):
        raise ValueError(f"intervention value must be a number, got {env.value!r}")
    if not np.isfinite(env.value):
        raise ValueError("intervention value must be finite")
    weights = scm.weights.copy()
    means = scm.noise_means.copy()
    stds = scm.noise_stds.copy()
    weights[j, :] = 0.0
    means[j] = float(env.value)
    stds[j] = 0.0
    return replace(scm, weights=weights, noise_means=means, noise_stds=stds)


def sample(scm: LinearGaussianScm, env: Environment, n: int,
           rng: np.random.Generator) -> SampleBatch:
    """Draw n rows by ancestral sampling in topological order.

    The noise is one standard-normal block, scaled and shifted per node: the
    same values, from the same stream, as ``rng.normal(noise_means,
    noise_stds, size=(n, p))``. A node without parents (a root, a latent or
    a clamped node) keeps its noise column; a node with parents adds the
    mat-vec of its weight row, which is zero on every column not yet final.
    Clamped columns are exactly constant (their noise scale is zero). Latent
    columns are dropped from the returned batch.
    """
    _check_bound("n", n, "[1, inf)", integer=True)
    applied = intervene(scm, env)
    values = applied.noise_means + applied.noise_stds * rng.standard_normal((n, applied.p))
    for j in applied.topo_order:
        row = applied.weights[j]
        if row.any():
            values[:, j] += values @ row
    return SampleBatch(env=env.id, data=values[:, :scm.num_observed].copy())


def analytic_moments(scm: LinearGaussianScm,
                     env: Environment) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean vector and covariance matrix of the observed nodes.

    Solves (I - B) m = noise_means and (I - B) S (I - B)^T = diag(noise_stds^2)
    by forward substitution along ``topo_order``; a node untouched by the
    clamp (a non-descendant) therefore reproduces bit-identical moments.
    Singularity of (I - B) cannot occur for a validated DAG.
    """
    applied = intervene(scm, env)
    p = applied.p
    mean = np.zeros(p)
    cov = np.zeros((p, p))
    var = applied.noise_stds ** 2
    for j in applied.topo_order:
        row = applied.weights[j]
        mean[j] = applied.noise_means[j] + row @ mean
        c = cov @ row
        cov[j, :] = c
        cov[:, j] = c
        cov[j, j] = row @ c + var[j]
    k = scm.num_observed
    return mean[:k].copy(), cov[:k, :k].copy()


def add_confounders(scm: LinearGaussianScm, count: int,
                    rng: np.random.Generator) -> LinearGaussianScm:
    """Append ``count`` latent root causes, each pointing at node 0 and at one
    uniformly chosen other observed node.

    Edge weights are drawn as random_scm draws them; latent noise is standard
    normal. count = 0 returns the model unchanged.
    """
    _check_bound("count", count, "[0, inf)", integer=True)
    if count == 0:
        return scm
    if scm.num_observed < 2:
        raise ValueError("need at least two observed nodes to confound")
    p_old = scm.p
    p_new = p_old + count
    weights = np.zeros((p_new, p_new))
    weights[:p_old, :p_old] = scm.weights
    means = np.concatenate([scm.noise_means, np.zeros(count)])
    stds = np.concatenate([scm.noise_stds, np.ones(count)])
    for t in range(count):
        lat = p_old + t
        other = int(rng.integers(1, scm.num_observed))
        weights[0, lat] = _draw_weight(rng)
        weights[other, lat] = _draw_weight(rng)
    topo = tuple(range(p_old, p_new)) + scm.topo_order
    return LinearGaussianScm(
        num_observed=scm.num_observed,
        num_latent=scm.num_latent + count,
        weights=weights,
        noise_means=means,
        noise_stds=stds,
        topo_order=topo,
    )


def parents(scm: LinearGaussianScm, node: int) -> frozenset[int]:
    """Observed nodes with a nonzero weight into ``node``; latents excluded."""
    _check_bound("node", node, f"[0, {scm.p})", integer=True)
    row = scm.weights[node, :scm.num_observed]
    return frozenset(int(i) for i in np.nonzero(row)[0])


def four_node_demo_scm() -> LinearGaussianScm:
    """Fixed model x0 = 2*x1 - 1.5*x2 + d0, x3 = x0 + d3, unit noise.

    PA(0) = {1, 2}; x3 is a child of the outcome, so candidate 3 must be
    rejected by any sound identifier.
    """
    weights = np.zeros((4, 4))
    weights[0, 1] = 2.0
    weights[0, 2] = -1.5
    weights[3, 0] = 1.0
    return LinearGaussianScm(
        num_observed=4,
        num_latent=0,
        weights=weights,
        noise_means=np.zeros(4),
        noise_stds=np.ones(4),
        topo_order=(1, 2, 0, 3),
    )
