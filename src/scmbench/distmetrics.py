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


def _gathers(labels: np.ndarray, k: int) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """Where each group, then each pair a < b of groups together, sits in each
    row of ``labels`` (the group of each position of a sorted pool), as
    (rows, size) indices into that pool. A row-major flatnonzero keeps each
    group ascending. With two groups the one union is the whole pool, None."""
    rows, n = labels.shape
    offsets = n * np.arange(rows)[:, None]

    def of(mask):
        return np.flatnonzero(mask).reshape(rows, -1) - offsets

    groups = [of(labels == g) for g in range(k)]
    unions = ([None] if k == 2 else
              [of((labels == a) | (labels == b)) for a, b in combinations(range(k), 2)])
    return groups, unions


def _ksample_stats(sorted_pooled: np.ndarray,
                   gathers: tuple[list[np.ndarray], list[np.ndarray | None]]) -> np.ndarray:
    """The statistic of ``sorted_pooled`` for each row of the labels behind
    ``gathers`` (see _gathers). For ascending v, sum_{i<j} (v_j - v_i) = v .
    (2 arange(m) - (m - 1)). Each row is summed alone, not by BLAS (whose
    rounding depends on the block), and the symmetric pair terms are added in
    sorted order, so rows with the same groups, even relabelled among equal
    sizes, tie exactly."""
    groups, unions = gathers
    sizes = [index.shape[1] for index in groups]

    def within(v):
        return (v * (2.0 * np.arange(v.shape[1]) - (v.shape[1] - 1))).sum(axis=1)

    w = [within(sorted_pooled[index]) for index in groups]
    terms = []
    for (a, b), union in zip(combinations(range(len(sizes)), 2), unions):
        whole = within(sorted_pooled[None, :] if union is None else sorted_pooled[union])
        cross = whole - (w[a] + w[b])
        terms.append(2.0 * cross / (sizes[a] * sizes[b])
                     - (2.0 * w[a] / sizes[a] ** 2 + 2.0 * w[b] / sizes[b] ** 2))
    return np.sort(np.stack(terms, axis=1), axis=1).sum(axis=1)


def _ksample_tests(pools: list[list[EmpiricalSample]], num_permutations: int,
                   rng: np.random.Generator) -> list[tuple[float, float]]:
    """ksample_equality_test on each pool of groups, with one set of permuted
    labels for all of them: pool i gets the (statistic, p) that a call on it
    alone with the same rng would give. Every pool needs the same group sizes.

    Blocks of permuted label rows are the outer loop and pools the inner one,
    so each block's gather indices are found once and only one block's are
    held. Each pool keeps its own observed row, near-tie floor and early
    return when all its values are identical.
    """
    sizes = [g.values.size for g in pools[0]]
    if len(sizes) < 2:
        raise ValueError("need at least two groups")
    _check_bound("num_permutations", num_permutations, "[99, inf)", integer=True)
    for groups in pools:
        if [g.values.size for g in groups] != sizes:
            raise ValueError(f"every pool needs group sizes {sizes}, "
                             f"got {[g.values.size for g in groups]}")
    k = len(sizes)
    labels = np.repeat(np.arange(k, dtype=np.min_scalar_type(k)), sizes)
    results = [(0.0, 1.0)] * len(pools)
    live = []  # (pool index, sorted pool, observed statistic, near-tie floor)
    for i, groups in enumerate(pools):
        pooled = np.concatenate([g.values for g in groups])
        if np.ptp(pooled) == 0.0:
            continue
        order = np.argsort(pooled, kind="stable")
        sorted_pooled = pooled[order]
        observed = _ksample_stats(sorted_pooled, _gathers(labels[None, order], k))[0]
        live.append((i, sorted_pooled, observed,
                     observed - abs(100 * np.finfo(float).eps * observed)))
    if not live:
        return results
    children = rng.spawn(num_permutations)
    rows = max(1, _BLOCK_LABELS // labels.size)
    exceed = [0] * len(live)
    for start in range(0, num_permutations, rows):
        block = np.stack([labels[child.permutation(labels.size)]
                          for child in children[start:start + rows]])
        gathers = _gathers(block, k)
        for j, (_, sorted_pooled, _, floor) in enumerate(live):
            exceed[j] += int(np.count_nonzero(_ksample_stats(sorted_pooled, gathers) >= floor))
        del gathers  # free this block's indices before the next block's are built
    for (i, _, observed, _), count in zip(live, exceed):
        results[i] = (float(observed), (1 + count) / (1 + num_permutations))
    return results


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
    return _ksample_tests([groups], num_permutations, rng)[0]
