"""One-dimensional distribution distances and a k-sample permutation test."""

from __future__ import annotations

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


# Permuted label rows are scored in blocks of at most this many labels.
_BLOCK_LABELS = 2 ** 17


def _ksample_stats(sorted_pooled: np.ndarray, labels: np.ndarray,
                   sizes: list[int]) -> np.ndarray:
    """The statistic for each row of ``labels``, the group of each position of
    ``sorted_pooled``. For ascending v, sum_{i<j} (v_j - v_i) = v . (2 arange(m)
    - (m - 1)); a row-major flatnonzero keeps each group ascending. Each row is
    summed alone, not by BLAS (whose rounding depends on the block), and the
    symmetric pair terms are added in sorted order, so rows with the same groups,
    even relabelled among equal sizes, tie exactly."""
    rows, n = labels.shape
    offsets = n * np.arange(rows)[:, None]

    def within(v):
        return (v * (2.0 * np.arange(v.shape[1]) - (v.shape[1] - 1))).sum(axis=1)

    def within_of(mask):
        return within(sorted_pooled[np.flatnonzero(mask).reshape(rows, -1) - offsets])

    k = len(sizes)
    w = [within_of(labels == g) for g in range(k)]
    terms = []
    for a in range(k):
        for b in range(a + 1, k):
            union = (within(sorted_pooled[None, :]) if k == 2
                     else within_of((labels == a) | (labels == b)))
            cross = union - (w[a] + w[b])
            terms.append(2.0 * cross / (sizes[a] * sizes[b])
                         - (2.0 * w[a] / sizes[a] ** 2 + 2.0 * w[b] / sizes[b] ** 2))
    return np.sort(np.stack(terms, axis=1), axis=1).sum(axis=1)


def ksample_equality_test(groups: list[EmpiricalSample], num_permutations: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Permutation test of distribution equality across k groups.

    The statistic is the sum of pairwise energy distances. Labels are shuffled
    ``num_permutations`` times; p = (1 + #{perm >= observed - 100 eps |observed|})
    / (1 + B), so near-ties count as in scipy.stats.permutation_test and p is
    1.0 when all groups hold literally identical values. Each permutation
    draws from its own spawned generator, which makes the result independent
    of evaluation order; the permuted labels are scored a block at a time.
    """
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    _check_bound("num_permutations", num_permutations, "[99, inf)", integer=True)
    sizes = [g.values.size for g in groups]
    pooled = np.concatenate([g.values for g in groups])
    labels = np.repeat(np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes))), sizes)
    if np.ptp(pooled) == 0.0:
        return 0.0, 1.0
    order = np.argsort(pooled, kind="stable")
    sorted_pooled = pooled[order]
    observed = _ksample_stats(sorted_pooled, labels[None, order], sizes)[0]
    floor = observed - abs(100 * np.finfo(float).eps * observed)
    children = rng.spawn(num_permutations)
    rows = max(1, _BLOCK_LABELS // labels.size)
    exceed = 0
    for start in range(0, num_permutations, rows):
        block = np.stack([labels[child.permutation(labels.size)]
                          for child in children[start:start + rows]])
        exceed += int(np.count_nonzero(_ksample_stats(sorted_pooled, block, sizes) >= floor))
    return float(observed), (1 + exceed) / (1 + num_permutations)
