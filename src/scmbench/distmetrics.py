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


def fit_gaussian(sample: EmpiricalSample) -> Gaussian1D:
    """Maximum-likelihood Gaussian fit: arithmetic mean, population std."""
    if sample.values.size < 2:
        raise ValueError("need at least two observations to fit")
    return Gaussian1D(mean=float(np.mean(sample.values)),
                      std=float(np.std(sample.values)))


def frechet_gaussian1d(a: Gaussian1D, b: Gaussian1D) -> float:
    """Squared 2-Wasserstein distance between 1-D Gaussians:
    (mean_a - mean_b)^2 + (std_a - std_b)^2."""
    return (a.mean - b.mean) ** 2 + (a.std - b.std) ** 2


def _pairsum_within(sorted_v: np.ndarray) -> float:
    # sum_{i<j} (v_j - v_i) for ascending v
    n = sorted_v.size
    if n < 2:
        return 0.0
    idx = np.arange(n, dtype=float)
    csum = np.cumsum(sorted_v)
    return float(np.sum(sorted_v * idx - (csum - sorted_v)))

def _pairsum_cross(sorted_a: np.ndarray, sorted_b: np.ndarray) -> float:
    # sum_i sum_j |a_i - b_j| for ascending a and b
    m = sorted_b.size
    prefix = np.concatenate(([0.0], np.cumsum(sorted_b)))
    total_b = prefix[-1]
    pos = np.searchsorted(sorted_b, sorted_a, side="right")
    below = sorted_a * pos - prefix[pos]
    above = (total_b - prefix[pos]) - sorted_a * (m - pos)
    return float(np.sum(below + above))


def _ksample_stat(sorted_pooled: np.ndarray, labels: np.ndarray, k: int) -> float:
    # labels align with sorted_pooled positions; groups stay sorted when sliced
    groups = [sorted_pooled[labels == g] for g in range(k)]
    sizes = [g.size for g in groups]
    stat = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            cross = _pairsum_cross(groups[i], groups[j])
            wi = _pairsum_within(groups[i])
            wj = _pairsum_within(groups[j])
            stat += (2.0 * cross / (sizes[i] * sizes[j])
                     - 2.0 * wi / sizes[i] ** 2
                     - 2.0 * wj / sizes[j] ** 2)
    return stat


def ksample_equality_test(groups: list[EmpiricalSample], num_permutations: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Permutation test of distribution equality across k groups.

    The statistic is the sum of pairwise energy distances. Labels are shuffled
    ``num_permutations`` times; p = (1 + #{perm >= observed}) / (1 + B), so p
    is 1.0 when all groups hold literally identical values. Each permutation
    draws from its own spawned generator, which makes the result independent
    of evaluation order.
    """
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    _check_bound("num_permutations", num_permutations, "[99, inf)", integer=True)
    k = len(groups)
    pooled = np.concatenate([g.values for g in groups])
    labels = np.concatenate(
        [np.full(g.values.size, i, dtype=np.int64) for i, g in enumerate(groups)])
    order = np.argsort(pooled, kind="stable")
    sorted_pooled = pooled[order]
    observed = _ksample_stat(sorted_pooled, labels[order], k)
    if np.ptp(pooled) == 0.0:
        return 0.0, 1.0
    child_rngs = rng.spawn(num_permutations)
    exceed = 0
    for child in child_rngs:
        perm_labels = labels[child.permutation(labels.size)]
        if _ksample_stat(sorted_pooled, perm_labels, k) >= observed:
            exceed += 1
    return observed, (1 + exceed) / (1 + num_permutations)
