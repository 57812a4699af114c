"""Parent identification by invariance of interventional residuals.

Candidates x_1..x_l each own one environment that clamps them. A small
regressor predicts x_0 from the masked candidates; per round, each active
candidate j is scored by the Frechet distance between Gaussian fits of its
own-environment holdout residual magnitudes and everyone else's. Clamping a
true parent leaves the residual law unchanged, while a candidate the regressor
leans on for other reasons (a descendant of the outcome, or a confounded
proxy) distorts residuals exactly in its own environment. The worst offender
is masked out and the regressor is retrained, which lets proxy chains fall
round by round; survivors are the estimated parents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distmetrics import _moments
from .scm import SampleBatch, _bounded, _check_batches, _check_bounds


# training recipe and null draws; a Python float step keeps the steps float32
_STEP_SIZE, _UPDATES, _BATCH_ROWS, _NULL_DRAWS = 0.01, 600, 256, 64


@dataclass(frozen=True)
class TrainConfig:
    """The penalty loop's one setting. Each round's threshold is tau =
    max(tau_multiplier * 95th percentile, max) over ``_NULL_DRAWS``
    label-permuted null scores; training runs the fixed recipe of
    ``_UPDATES`` updates of ``_BATCH_ROWS`` rows at ``_STEP_SIZE``."""

    tau_multiplier: float = _bounded(3.0, "(0, inf)")

    def __post_init__(self) -> None:
        _check_bounds(self)


@dataclass(frozen=True, eq=False)
class Regressor:
    """One-hidden-layer network (16 tanh units in ``train_regressor``) with a
    parallel linear path, in raw units.

    Predicts x ws + tanh(x W1 + b1) W2 + b2. The linear path can represent an
    affine mechanism exactly, so for such targets the fit error is not limited
    by tanh saturation on far-displaced (clamped) inputs; the hidden path
    picks up whatever the linear part cannot.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    ws: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.w1.shape[0]:
            raise ValueError("input width does not match the regressor")
        return x @ self.ws + np.tanh(x @ self.w1 + self.b1) @ self.w2 + self.b2


def _param_views(buf: np.ndarray, l: int, h: int) -> tuple[np.ndarray, ...]:
    """w1 (l, h), b1 (h,), w2 (h,), b2 () and ws (l,) as views into ``buf``."""
    w1, b1, w2, b2, ws = np.split(buf, np.cumsum([l * h, h, h, 1]))
    return w1.reshape(l, h), b1, w2, b2.reshape(()), ws


def train_regressor(rows: np.ndarray, mask: np.ndarray,
                    rng: np.random.Generator) -> Regressor:
    """Fit the regressor to ``rows``, the (n, 1 + l) training matrix with x_0
    first, by mini-batch gradient descent, using the candidates that ``mask``
    (0/1 or boolean, one per x_1..x_l) keeps.

    Inputs and target are standardized on the pooled rows and the affine maps
    are folded back into the returned parameters, so ``predict`` works in raw
    units. _UPDATES updates of _BATCH_ROWS rows use Adam-style per-parameter
    step scaling at _STEP_SIZE, held flat for the first 70 percent of updates
    and then decayed linearly to 2 percent so the parameters settle at the
    optimum instead of hovering around it (leftover hover noise on a
    coefficient shows up as a spurious residual shift in whichever environment
    clamps that input far from its pooled mean). The five parameters, their
    gradients and the Adam moments are views into one flat buffer each, and
    every step's mini-batch rows are drawn at once after the weight init.
    The step loop runs in float32 (data, parameters, gradients, Adam moments
    and step size); the standardization, the least-squares start and the
    folded parameters stay in float64.
    """
    x_raw = rows[:, 1:] * mask
    y_raw = rows[:, 0]
    n, l = x_raw.shape
    h = 16  # hidden units

    x_mu = x_raw.mean(axis=0)
    x_sd = x_raw.std(axis=0)
    x_sd[x_sd < 1e-12] = 1.0
    y_mu = float(y_raw.mean())
    y_sd = float(y_raw.std())
    if y_sd < 1e-12:
        y_sd = 1.0
    x = (x_raw - x_mu) / x_sd
    y = (y_raw - y_mu) / y_sd

    theta = np.zeros(l * h + 2 * h + 1 + l, dtype=np.float32)
    grad = np.zeros_like(theta)
    w1, b1, w2, b2, ws = _param_views(theta, l, h)
    g_w1, g_b1, g_w2, g_b2, g_ws = _param_views(grad, l, h)
    w1[...] = rng.normal(0.0, 1.0 / np.sqrt(max(l, 1)), size=(l, h))
    w2[...] = rng.normal(0.0, 0.1 / np.sqrt(h), size=h)
    # start the linear path at the pooled least-squares solution over active
    # columns; gradient descent then fine-tunes instead of dragging the
    # coefficients from zero, which would leave a transient deficit that
    # masquerades as a residual shift in the strongly clamped environments
    act = np.nonzero(mask)[0]
    if act.size:
        xa = x[:, act]
        gram = xa.T @ xa + 1e-8 * n * np.eye(act.size)
        ws[act] = np.linalg.solve(gram, xa.T @ y)
    # Python scalars take the arrays' dtype, so every step below stays float32
    x, y = x.astype(np.float32), y.astype(np.float32)
    m_state = np.zeros_like(theta)
    v_state = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    flat = int(0.7 * _UPDATES)
    # one draw of shape (steps, batch) gives the same stream as a draw per step
    batch_idx = rng.integers(0, n, size=(_UPDATES, _BATCH_ROWS))
    for step in range(1, _UPDATES + 1):
        if step <= flat:
            lr = _STEP_SIZE
        else:
            frac = (step - flat) / (_UPDATES - flat)
            lr = _STEP_SIZE * (1.0 - 0.98 * frac)
        idx = batch_idx[step - 1]
        xb = np.take(x, idx, axis=0)
        yb = np.take(y, idx)
        hidden = np.tanh(xb @ w1 + b1)
        pred = xb @ ws + hidden @ w2 + b2
        err = pred - yb
        d_pred = 2.0 * err / err.size
        np.matmul(xb.T, d_pred, out=g_ws)
        np.matmul(hidden.T, d_pred, out=g_w2)
        d_pred.sum(out=g_b2)
        d_hidden = d_pred[:, None] * w2
        d_hidden *= 1.0 - hidden ** 2
        np.matmul(xb.T, d_hidden, out=g_w1)
        d_hidden.sum(axis=0, out=g_b1)
        m_state *= beta1
        m_state += (1 - beta1) * grad
        v_state *= beta2
        v_state += (1 - beta2) * grad ** 2
        m_hat = m_state / (1 - beta1 ** step)
        v_hat = v_state / (1 - beta2 ** step)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)

    # fold standardization into the parameters: raw units in, raw units out
    w1, b1, w2, b2, ws = _param_views(theta.astype(float), l, h)
    w1_fold = w1 / x_sd[:, None]
    b1_fold = b1 - (x_mu / x_sd) @ w1
    w2_fold = w2 * y_sd
    ws_fold = ws / x_sd * y_sd
    b2_fold = (float(b2) - (x_mu / x_sd) @ ws) * y_sd + y_mu
    return Regressor(w1=w1_fold, b1=b1_fold, w2=w2_fold, b2=b2_fold, ws=ws_fold)


@dataclass(frozen=True, eq=False)
class IdentificationResult:
    estimated_set: frozenset[int]
    fid_trace: np.ndarray  # (rounds, l): round r's score of x_j at [r, j - 1], NaN once evicted
    tau_trace: np.ndarray

    @property
    def rounds_run(self) -> int:
        return self.tau_trace.size

    @property
    def final_weights(self) -> np.ndarray:
        """Boolean mask over x_1..x_l when the loop stopped."""
        return np.isin(np.arange(1, self.fid_trace.shape[1] + 1), list(self.estimated_set))


def _scores(n: np.ndarray, s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Frechet distance between the Gaussian fits (mean, population std) of each
    part and of the rest of its row, from n, s and q as in distmetrics._moments."""
    mean, css, rest_n, rest_mean, rest_css = _moments(n, s, q)
    return (mean - rest_mean) ** 2 + (np.sqrt(css / n) - np.sqrt(rest_css / rest_n)) ** 2


def _null_tau(pooled: np.ndarray, own_size: int, cfg: TrainConfig,
              rng: np.random.Generator) -> float:
    """Threshold from label-permuted splits of the pooled holdout residuals.

    Under a perfect fit every candidate's observed score is itself one draw
    from this null, so thresholding at the plain null maximum would evict a
    true parent about once per _NULL_DRAWS rounds. Inflating a robust upper
    quantile by tau_multiplier pushes that probability to the permille range
    while staying far below genuine distortion scores. Each of the _NULL_DRAWS
    draws' own part is rng.permutation(N)[:own_size]; NaN if any is not finite.
    """
    own = np.stack([pooled[rng.permutation(pooled.size)[:own_size]]
                    for _ in range(_NULL_DRAWS)])
    s, q = own.sum(axis=1), np.einsum("ij,ij->i", own, own)
    fids = _scores(np.array([own_size, pooled.size - own_size]),
                   np.column_stack([s, pooled.sum() - s]),
                   np.column_stack([q, pooled @ pooled - q]))[:, 0]
    return (float(max(cfg.tau_multiplier * np.quantile(fids, 0.95), fids.max()))
            if np.isfinite(fids).all() else np.nan)


def identify_parents(batches: list[SampleBatch], cfg: TrainConfig,
                     rng: np.random.Generator) -> IdentificationResult:
    """Run the penalty loop and return the surviving candidate set.

    ``batches`` must cover each candidate's clamp environment exactly once
    (env id j belongs to the environment clamping x_j) and nothing else. Rows
    are split head/tail, 70/30, into train/holdout, with at least one
    training and two holdout rows (so each batch needs 3); scores always come
    from holdout rows.

    When a candidate is eliminated its environment leaves the pool for later
    rounds: with the candidate masked the regressor can no longer condition on
    it, so that environment's residual law is distorted by construction, and
    keeping its rows would poison every complement and the null calibration.
    Each round therefore runs the same procedure on the reduced problem over
    the still-active candidates and their environments.
    """
    l = _check_batches(batches, min_batches=1) - 1
    if l < 2:
        raise ValueError("need at least two candidates: a single environment has no complement")
    ids = sorted(b.env for b in batches)
    if ids != list(range(1, l + 1)):
        raise ValueError(f"environment ids must be 1..{l}, each exactly once, got {ids}")

    # env id -> (training rows, holdout rows); its candidate keys are the
    # active set, and eliminating a candidate deletes its entry
    split: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for b in batches:
        n_hold = min(max(int(round(b.n * 0.3)), 2), b.n - 1)
        split[b.env] = (b.data[:b.n - n_hold], b.data[b.n - n_hold:])

    candidates = np.arange(1, l + 1)
    fid_rows: list[np.ndarray] = []
    taus: list[float] = []
    # a lone environment has no complement to compare against
    while len(split) >= 2:
        mask = np.isin(candidates, list(split))
        rng_train, rng_cal = rng.spawn(2)
        reg = train_regressor(np.vstack([t for t, _ in split.values()]), mask, rng_train)
        residuals = [np.abs(reg.predict(h[:, 1:] * mask) - h[:, 0]) for _, h in split.values()]
        scores = _scores(*np.array([(r.size, r.sum(), r @ r) for r in residuals]).T)
        if scores.size == 2:  # each is the other's rest: equal but for rounding, so tie them
            scores[1] = scores[0]
        tau = _null_tau(np.concatenate(residuals), min(r.size for r in residuals), cfg, rng_cal)
        if not np.isfinite(scores).all() or np.isnan(tau):
            raise ValueError(f"non-finite candidate or null score in round {len(taus) + 1}")
        row = np.full(l, np.nan)
        row[np.array(list(split)) - 1] = scores
        fid_rows.append(row)
        taus.append(tau)
        # the largest score, ties toward the smallest id, is evicted if it exceeds tau
        worst = int(np.nanargmax(row))
        if row[worst] <= tau:
            break
        del split[worst + 1]

    return IdentificationResult(estimated_set=frozenset(split),
                                fid_trace=np.vstack(fid_rows),
                                tau_trace=np.asarray(taus))
