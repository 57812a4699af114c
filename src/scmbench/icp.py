"""Invariant causal prediction baseline over exhaustive candidate subsets.

For every subset S of candidates, x_0 is regressed on S over the pooled rows
(stabilized normal equations) and the residuals are tested for distributional
invariance across environments. The estimate is the intersection of all
accepted subsets, which is empty when nothing is accepted. Subsets do not
depend on one another, so they are solved and tested in batches, one batch per
subset size (see icp_identify).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np
from scipy import special

from .distmetrics import EmpiricalSample, _ksample_tests, _moments, ksample_equality_test
from .scm import SampleBatch, _bounded, _check_batches, _check_bound, _check_bounds

_RIDGE = 1e-10
_TESTS = ("mean-variance", "energy-permutation")
_PERMUTATIONS = 199  # label permutations per energy-permutation test
# the most subsets icp_identify tests: 2^12, so at most 12 candidates and 12 _layout entries
_SUBSET_BUDGET = 4096


class EnumerationBudgetError(RuntimeError):
    """The subset count exceeds the budget of _SUBSET_BUDGET subsets."""


@dataclass(frozen=True)
class IcpConfig:
    """The level a subset's p-value must exceed to be accepted, and the
    invariance test; the energy-permutation test draws _PERMUTATIONS label
    permutations."""

    alpha: float = _bounded(0.05, "(0, 1)")
    test: str = "mean-variance"

    def __post_init__(self) -> None:
        _check_bounds(self)
        if self.test not in _TESTS:
            raise ValueError(f"test must be one of {_TESTS}")


@dataclass(frozen=True, eq=False)
class IcpResult:
    estimated_set: frozenset[int]
    accepted_subsets: tuple[frozenset[int], ...]
    p_values: dict[frozenset[int], float]


def _mean_variance_pvalue(sizes: np.ndarray, sums: np.ndarray,
                          sumsq: np.ndarray) -> np.ndarray:
    """Bonferroni-combined Welch-t and variance-ratio tests, each environment
    against the pooled complement: per-env p = 2*min(p_mean, p_var), overall
    p = k * min over environments, clipped to 1.

    sizes (k,) holds each environment's residual count, row i of sums and sumsq
    (rows, k) its residual sum and sum of squares for subset i, and the result
    (rows,) subset i's p. An environment and its complement take their moments
    from distmetrics._moments: mean = s/n and var = max(q - n*mean**2, 0) / (n-1).

    The tails are evaluated in full only for rows whose most extreme
    environment does not already give p = 0, which is exact as every per-env p
    is >= 0, and for rows with a non-finite t, df or ratio, which could give NaN.
    A NaN p raises ValueError instead of being returned.
    """
    k = sizes.size
    n = np.broadcast_to(sizes.astype(float), sums.shape)
    means, css, comp_n, comp_mean, comp_css = _moments(n, sums, sumsq)
    variances, comp_var = css / (n - 1.0), comp_css / (comp_n - 1.0)

    # variances this small are treated as degenerate point masses
    zero_own = variances <= 1e-12 * (1.0 + means ** 2)
    zero_comp = comp_var <= 1e-12 * (1.0 + comp_mean ** 2)
    both_const = zero_own & zero_comp
    means_match = np.abs(means - comp_mean) <= 1e-9 * (1.0 + np.abs(means) + np.abs(comp_mean))

    se2 = variances / n + comp_var / comp_n
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (means - comp_mean) / np.sqrt(se2)
        # Welch's df from the own term's share of se2, finite where se2 ** 2 overflows
        share = variances / n / se2
        df = 1.0 / (share ** 2 / (n - 1.0) + (1.0 - share) ** 2 / (comp_n - 1.0))
        ratio = variances / comp_var
        # the variance test's |t|: log(ratio) is near normal under the null
        z_var = np.abs(np.log(ratio)) / np.sqrt(2.0 / (n - 1.0) + 2.0 / (comp_n - 1.0))

    def per_env(at):  # the per-env p of the (row, env) elements ``at`` indexes
        with np.errstate(divide="ignore", invalid="ignore"):
            p_mean = 2.0 * special.stdtr(df[at], -np.abs(t[at]))
            f_cdf = special.fdtr(n[at] - 1.0, comp_n[at] - 1.0, ratio[at])
        p_var = 2.0 * np.minimum(f_cdf, 1.0 - f_cdf)
        p_mean = np.where(both_const[at], np.where(means_match[at], 1.0, 0.0), p_mean)
        p_var = np.where(both_const[at], 1.0, np.where((zero_own ^ zero_comp)[at], 0.0, p_var))
        return 2.0 * np.minimum(p_mean, p_var)

    probe = np.arange(len(t)), np.argmax(np.fmax(np.abs(t), z_var), axis=-1)
    full = (per_env(probe) != 0.0) | ~np.isfinite(t + df + ratio).all(axis=-1)
    p = np.zeros(len(t))
    p[full] = np.minimum(1.0, k * per_env(full).min(axis=-1))
    if np.isnan(p).any():  # sums of squares overflow from residuals of about 1e153
        raise ValueError("mean-variance p-value is NaN: the residuals' sums "
                         "of squares overflow")
    return p


def invariance_pvalue(residuals_by_env: list[EmpiricalSample], cfg: IcpConfig,
                      rng: np.random.Generator | None = None) -> float:
    """P-value for 'these residual groups share one distribution'. The
    energy-permutation test is one k-sample energy-distance permutation test
    across all environments, with no per-environment Bonferroni split; only
    it draws random numbers, so only it needs ``rng``."""
    if len(residuals_by_env) < 2:
        raise ValueError("need at least two environments")
    if any(g.values.size < 3 for g in residuals_by_env):
        raise ValueError("each environment needs at least 3 residuals")
    if cfg.test == "mean-variance":
        values = [g.values for g in residuals_by_env]
        return float(_mean_variance_pvalue(np.array([v.size for v in values]),
                                           np.array([[v.sum() for v in values]]),
                                           np.array([[v @ v for v in values]]))[0])
    if rng is None:
        raise ValueError("the energy-permutation test needs an rng")
    return ksample_equality_test(residuals_by_env, _PERMUTATIONS, rng)[1]


def _subsets(n_candidates: int) -> list[tuple[int, ...]]:
    return [subset for size in range(n_candidates + 1)
            for subset in combinations(range(1, n_candidates + 1), size)]


@cache
def _layout(n_cand: int) -> tuple[tuple[frozenset[int], ...],
                                  tuple[tuple[np.ndarray, ...], ...]]:
    """Where each subset's numbers sit, a pure function of n_cand that every
    call shares read-only: the subset keys in _subsets order, and per subset
    size s the flat indices, for all subsets of that size, of their (s+1, s+1)
    Gram blocks and (s+1, 1) right-hand sides in the pooled moment matrix and
    of their s+1 coefficients in the coefficient matrix."""
    subsets = _subsets(n_cand)
    side = n_cand + 2  # both matrices have n_cand + 2 columns, x_0 last
    blocks = []
    start = 0
    for size in range(n_cand + 1):
        stop = start + math.comb(n_cand, size)
        cols = np.array(subsets[start:stop], dtype=np.intp).reshape(stop - start, size) - 1
        cols = np.hstack([cols, np.full((stop - start, 1), n_cand)])  # plus the intercept
        block = (cols[:, :, None] * side + cols[:, None, :],
                 cols[:, :, None] * side + side - 1,
                 np.arange(start, stop)[:, None] * side + cols)
        for index in block:
            index.flags.writeable = False
        blocks.append(block)
        start = stop
    return tuple(map(frozenset, subsets)), tuple(blocks)


def icp_identify(batches: list[SampleBatch], cfg: IcpConfig,
                 seed: int = 0) -> IcpResult:
    """Exhaustive subset search; see module docstring.

    Each environment's rows [x_1.., 1, x_0] form one design matrix a, and
    a.T @ a its moment matrix. For each subset size s, the pooled (s+1, s+1)
    Gram blocks of all subsets of that size go to one stacked solve of the
    stabilized normal equations. Padded with zeros to the full width, with -1
    at x_0, the coefficients define subset i's residual in an environment as
    -(a @ coef[i]), and both tests read it off that one definition: the
    mean-variance test through the moments, which give every environment's
    residual sum and sum of squares for all subsets from one matrix product
    and one einsum, and the energy-permutation test from the residuals, one
    row per subset with the environments in order, one k-sample test per row.
    Those tests share one set of permuted labels, from SeedSequence([seed]),
    so each subset's p is the one a lone ksample_equality_test with that rng
    gives. Subsets are indexed and reported in _subsets order.

    Which subsets exist, where their Gram blocks and coefficients sit, and
    their frozenset keys are a pure function of the candidate count: _layout
    builds them once per process, after the budget check, and every call reads
    the same read-only arrays and keys, so no result depends on which calls
    ran before.
    """
    _check_bound("seed", seed, "[0, inf)", integer=True)
    n_cand = _check_batches(batches, min_batches=2) - 1
    if n_cand < 1:
        raise ValueError("need at least one candidate column")
    total = 2 ** n_cand
    if total > _SUBSET_BUDGET:
        raise EnumerationBudgetError(
            f"{total} subsets exceed the budget of {_SUBSET_BUDGET}")
    keys, blocks = _layout(n_cand)

    width = n_cand + 1  # candidate columns plus intercept; x_0 sits at index width
    designs = [np.hstack([b.data[:, 1:], np.ones((b.n, 1)), b.data[:, :1]]) for b in batches]
    moments = np.stack([a.T @ a for a in designs])
    pooled = moments.sum(axis=0)

    # coef row i holds subset i's coefficients, zero off the subset, and -1 at
    # x_0, so designs[e] @ coef[i] is minus subset i's residual in environment e
    coef = np.zeros((total, width + 1))
    coef[:, width] = -1.0
    flat = pooled.ravel()
    for size, (gram_at, rhs_at, coef_at) in enumerate(blocks):
        gram = flat.take(gram_at) + _RIDGE * np.eye(size + 1)
        coef.ravel()[coef_at] = np.linalg.solve(gram, flat.take(rhs_at))[:, :, 0]

    sizes = np.array([b.n for b in batches], dtype=np.int64)
    if cfg.test == "mean-variance":
        moment_coef = moments @ coef.T  # (k, width + 1, subsets)
        resid_sum = -moment_coef[:, n_cand, :].T  # the intercept row holds column sums
        resid_sumsq = np.einsum("kin,ni->nk", moment_coef, coef)
        p_all = _mean_variance_pvalue(sizes, resid_sum, resid_sumsq).tolist()
    else:
        resid = np.empty((total, sizes.sum(), 1))  # row i: subset i's residuals, env by env
        for a, part in zip(designs, np.split(resid, np.cumsum(sizes)[:-1], axis=1)):
            np.matmul(a, -coef[:, :, None], out=part)  # one a @ -coef[i] per subset
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        p_all = _ksample_tests(resid[:, :, 0], sizes, _PERMUTATIONS, rng)[1].tolist()

    p_values = dict(zip(keys, p_all))
    accepted = [key for key, p in p_values.items() if p > cfg.alpha]
    estimate = frozenset.intersection(*accepted) if accepted else frozenset()
    return IcpResult(estimated_set=estimate,
                     accepted_subsets=tuple(accepted),
                     p_values=p_values)
