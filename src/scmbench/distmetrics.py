"""One-dimensional distribution distances and a k-sample permutation test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scm import _check_bound


@dataclass(frozen=True)
class Gaussian1D:
    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise ValueError("parameters must be finite")
        if self.std < 0:
            raise ValueError("std must be nonnegative")


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """A labelled vector of scalar observations."""

    values: np.ndarray
    label: int | str = 0

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")


def fit_gaussian(values: np.ndarray) -> Gaussian1D:
    """Maximum-likelihood Gaussian fit of at least two values: arithmetic
    mean, population std."""
    if values.size < 2:
        raise ValueError("need at least two observations to fit")
    return Gaussian1D(mean=float(np.mean(values)), std=float(np.std(values)))


def frechet_gaussian1d(a: Gaussian1D, b: Gaussian1D) -> float:
    """Squared 2-Wasserstein distance between 1-D Gaussians:
    (mean_a - mean_b)^2 + (std_a - std_b)^2."""
    return (a.mean - b.mean) ** 2 + (a.std - b.std) ** 2


def _moments(n: np.ndarray, s: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """(mean, css, rest_n, rest_mean, rest_css) of each part, from its count n,
    sum s and sum of squares q along the last axis, and of the rest of its row
    (the row's totals minus the part): mean = s/n, css = max(q - n*mean**2, 0)."""
    rest_n, rest_s, rest_q = (a.sum(axis=-1, keepdims=True) - a for a in (n, s, q))
    mean, rest_mean = s / n, rest_s / rest_n
    return (mean, np.maximum(q - n * mean ** 2, 0.0), rest_n, rest_mean,
            np.maximum(rest_q - rest_n * rest_mean ** 2, 0.0))


# Permuted label rows are scored in blocks of at most this many labels.
_BLOCK_LABELS = 2 ** 17


def _coefficients(labels: np.ndarray, sizes: list[int]) -> tuple[np.ndarray, float]:
    """(c, scale), one row of c per row of ``labels`` (the group of each
    position of ascending values v), with the statistic (v * c).sum() / scale.
    With L = lcm(sizes), u = L / m for a position's group of m, U the sum of u
    before it and t its rank in its group, c_j = 2 u_j (2 U_j - u_j (2 k t_j +
    k - 1)) and scale = L**2. Each row of c sums to 0, and relabelling
    equal-sized groups leaves it as it is. c holds exact integers while
    4 k L**2 / min(sizes) < 2**53 (below 4n for equal sizes) and is rounded
    past that; past L = 2**53, u and L are scaled by a power of two."""
    k = len(sizes)
    lcm = math.lcm(*sizes)
    unit = 2 ** max(0, lcm.bit_length() - 53)
    u = np.array([lcm // m / unit for m in sizes])
    weight = u.take(labels.astype(np.intp))  # take is several times slower on small ints
    c = np.cumsum(weight, axis=1)
    c -= weight
    c *= 2
    # u (2 k t + k - 1) of each group's positions in turn, ascending, put
    # where a stable sort of the labels says they sit
    own = np.repeat(u, sizes) * (2 * k * np.concatenate([np.arange(m) for m in sizes]) + k - 1)
    part = np.empty(labels.shape)
    np.put_along_axis(part, np.argsort(labels, axis=1, kind="stable"), own[None, :], axis=1)
    c -= part
    c *= 2 * weight
    return c, (lcm / unit) ** 2


def _ksample_tests(pooled: np.ndarray, sizes: list[int] | np.ndarray, num_permutations: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """ksample_equality_test on each row of ``pooled``, whose columns hold the
    (two or more) groups of ``sizes`` in order, against one set of permuted
    labels: row i gets the statistic and p a call on it alone with the same
    rng would give. The permuted labels are labels[rng.permutation(n)],
    drawn num_permutations times in order from ``rng`` and none when every
    row is constant, so neither the block size nor the other rows move a
    row's result. Observed rows are sorted and scored in chunks of at most
    _BLOCK_LABELS values; blocks of permuted label rows are the outer loop
    and rows the inner one, so each block's coefficients (see _coefficients)
    are built once and only one block's are held. Each label row's product
    with a row is summed on its own, not by BLAS, whose rounding depends on
    the block. A row whose values are all identical gets (0, 1)."""
    _check_bound("num_permutations", num_permutations, "[99, inf)", integer=True)
    if pooled.shape[1] != sum(sizes):
        raise ValueError(f"group sizes {sizes} need {sum(sizes)} columns, got {pooled.shape[1]}")
    if not np.all(np.isfinite(pooled)):
        raise ValueError("values must be finite")
    sizes = [int(m) for m in sizes]  # Python ints, so lcm // m never meets int64
    k = len(sizes)
    labels = np.repeat(np.arange(k, dtype=np.min_scalar_type(k)), sizes)
    block_rows = max(1, _BLOCK_LABELS // labels.size)
    stats, p = np.zeros(len(pooled)), np.ones(len(pooled))
    live = np.flatnonzero(np.ptp(pooled, axis=1) != 0.0)
    sorted_rows = pooled[live]  # a copy, sorted chunk by chunk in place
    for start in range(0, live.size, block_rows):
        chunk = sorted_rows[start:start + block_rows]
        order = np.argsort(chunk, axis=1, kind="stable")
        chunk[:] = np.take_along_axis(chunk, order, axis=1)
        c, scale = _coefficients(labels[order], sizes)
        stats[live[start:start + block_rows]] = (chunk * c).sum(axis=1) / scale
    floor = stats[live] - np.abs(100 * np.finfo(float).eps * stats[live])
    draws = num_permutations if live.size else 0  # none live: draw nothing
    exceed = np.zeros(live.size, dtype=np.int64)
    for start in range(0, draws, block_rows):
        c, scale = _coefficients(np.stack([labels[rng.permutation(labels.size)]
                                           for _ in range(min(block_rows, draws - start))]),
                                 sizes)
        for j, row in enumerate(sorted_rows):
            exceed[j] += np.count_nonzero((row * c).sum(axis=1) / scale >= floor[j])
    p[live] = (1 + exceed) / (1 + num_permutations)
    return stats, p


def ksample_equality_test(groups: list[EmpiricalSample], num_permutations: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Permutation test of distribution equality across k groups.

    The statistic is the sum of pairwise energy distances. Labels are shuffled
    ``num_permutations`` times; p = (1 + #{perm >= observed - 100 eps |observed|})
    / (1 + B), so near-ties count as in scipy.stats.permutation_test and p is
    1.0 when all groups hold literally identical values. The permutations are
    ``rng.permutation(n)`` calls, made in order from the caller's generator
    (none when all values are identical), so p depends only on the groups
    and the generator's state, not on how the permutations are scored."""
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    stats, p = _ksample_tests(np.concatenate([g.values for g in groups])[None, :],
                              [g.values.size for g in groups], num_permutations, rng)
    return float(stats[0]), float(p[0])
