"""Covariate adjustment for transporting a conditional to a shifted population."""

from __future__ import annotations

import numpy as np

_ATOL = 1e-9


def transport_adjust(conditional: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    """Average a conditional table over a new covariate marginal.

    ``conditional[o, t, a]`` is P(outcome bin o | treatment t, covariate a) in
    the target population and ``marginal[a]`` is the target's covariate law.
    Returns the 2-D table P(outcome bin o | treatment t) = sum_a cond * marg.

    Every (t, a) slice of ``conditional`` must sum to 1 over the outcome axis
    and ``marginal`` must sum to 1, each within 1e-9; entries must be finite
    and nonnegative and the covariate axes must agree. Each output column then
    sums to 1 within twice that tolerance, up to rounding.
    """
    cond = np.asarray(conditional, dtype=float)
    marg = np.asarray(marginal, dtype=float)
    if cond.ndim != 3:
        raise ValueError("conditional must be 3-D (outcome, treatment, covariate)")
    if marg.ndim != 1:
        raise ValueError("marginal must be 1-D")
    if cond.shape[2] != marg.shape[0]:
        raise ValueError(
            f"covariate axes differ: conditional has {cond.shape[2]}, marginal has {marg.shape[0]}")
    for name, table in (("conditional", cond), ("marginal", marg)):
        if not np.all(np.isfinite(table)):
            raise ValueError(f"{name} must be finite")
    if np.any(cond < 0) or np.any(marg < 0):
        raise ValueError("probabilities must be nonnegative")
    slice_sums = cond.sum(axis=0)
    if np.any(np.abs(slice_sums - 1.0) > _ATOL):
        raise ValueError("conditional slices must sum to 1 over the outcome axis")
    if abs(marg.sum() - 1.0) > _ATOL:
        raise ValueError("marginal must sum to 1")
    return cond @ marg
