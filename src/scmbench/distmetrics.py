"""One-dimensional distribution distances and a k-sample permutation test."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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


def _gathers(labels: np.ndarray, k: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Where each group, then each pair a < b of groups together, sits in each
    row of ``labels`` (the group of each position of a sorted row of values),
    as (rows, size) indices into that row. A row-major flatnonzero keeps each
    group ascending."""
    rows, n = labels.shape
    offsets = n * np.arange(rows)[:, None]

    def of(mask):
        return np.flatnonzero(mask).reshape(rows, -1) - offsets

    return ([of(labels == g) for g in range(k)],
            [of((labels == a) | (labels == b)) for a, b in combinations(range(k), 2)])


def _ksample_stats(sorted_row: np.ndarray,
                   gathers: tuple[list[np.ndarray], list[np.ndarray]]) -> np.ndarray:
    """The statistic of the ascending values ``sorted_row`` for each row of the
    labels behind ``gathers`` (see _gathers). For ascending v, sum_{i<j} (v_j -
    v_i) = v . (2 arange(m) - (m - 1)). Each label row is summed alone, not by
    BLAS (whose rounding depends on the block), and the symmetric pair terms
    are added in sorted order, so label rows with the same groups, even
    relabelled among equal sizes, tie exactly."""
    groups, unions = gathers
    sizes = [index.shape[1] for index in groups]

    def within(v):
        return (v * (2.0 * np.arange(v.shape[1]) - (v.shape[1] - 1))).sum(axis=1)

    w = [within(sorted_row[index]) for index in groups]
    terms = []
    for (a, b), union in zip(combinations(range(len(sizes)), 2), unions):
        cross = within(sorted_row[union]) - (w[a] + w[b])
        terms.append(2.0 * cross / (sizes[a] * sizes[b])
                     - (2.0 * w[a] / sizes[a] ** 2 + 2.0 * w[b] / sizes[b] ** 2))
    return np.sort(np.stack(terms, axis=1), axis=1).sum(axis=1)


def _ksample_tests(pooled: np.ndarray, sizes: list[int] | np.ndarray, num_permutations: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """ksample_equality_test on each row of ``pooled``, whose columns hold the
    (two or more) groups of ``sizes`` in order, against one set of permuted
    labels: row i gets the statistic and p a call on it alone with the same
    rng would give. Blocks of permuted label rows are the outer loop and rows
    the inner one, so each block's gather indices are found once and only one
    block's are held. A row whose values are all identical gets (0, 1)."""
    _check_bound("num_permutations", num_permutations, "[99, inf)", integer=True)
    if pooled.shape[1] != sum(sizes):
        raise ValueError(f"group sizes {sizes} need {sum(sizes)} columns, got {pooled.shape[1]}")
    if not np.all(np.isfinite(pooled)):
        raise ValueError("values must be finite")
    k = len(sizes)
    labels = np.repeat(np.arange(k, dtype=np.min_scalar_type(k)), sizes)
    stats, p = np.zeros(len(pooled)), np.ones(len(pooled))
    live = np.flatnonzero(np.ptp(pooled, axis=1) != 0.0)
    sorted_rows = pooled[live]  # a copy, sorted row by row in place
    for i, row in zip(live, sorted_rows):
        order = np.argsort(row, kind="stable")
        row[:] = row[order]
        stats[i] = _ksample_stats(row, _gathers(labels[None, order], k))[0]
    floor = stats[live] - np.abs(100 * np.finfo(float).eps * stats[live])
    children = rng.spawn(num_permutations if live.size else 0)  # none live: draw nothing
    block_rows = max(1, _BLOCK_LABELS // labels.size)
    exceed = np.zeros(live.size, dtype=np.int64)
    for start in range(0, len(children), block_rows):
        gathers = _gathers(np.stack([labels[child.permutation(labels.size)]
                                     for child in children[start:start + block_rows]]), k)
        for j, row in enumerate(sorted_rows):
            exceed[j] += np.count_nonzero(_ksample_stats(row, gathers) >= floor[j])
        del gathers  # free this block's indices before the next block's are built
    p[live] = (1 + exceed) / (1 + num_permutations)
    return stats, p


def ksample_equality_test(groups: list[EmpiricalSample], num_permutations: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Permutation test of distribution equality across k groups.

    The statistic is the sum of pairwise energy distances. Labels are shuffled
    ``num_permutations`` times; p = (1 + #{perm >= observed - 100 eps |observed|})
    / (1 + B), so near-ties count as in scipy.stats.permutation_test and p is
    1.0 when all groups hold literally identical values. Each permutation
    draws from its own spawned generator, which makes the result independent
    of evaluation order."""
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    stats, p = _ksample_tests(np.concatenate([g.values for g in groups])[None, :],
                              [g.values.size for g in groups], num_permutations, rng)
    return float(stats[0]), float(p[0])
