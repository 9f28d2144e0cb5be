"""Mean estimators and the sample-count formulas the learners rely on.

Two concentration regimes drive the query budgets: a Hoeffding/Chernoff count
for rewards bounded in [0, 1], and a median-of-means count for rewards that
are merely variance-bounded.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
import numpy as np
from .core import ceil_count, check_entries

__all__ = [
    "chernoff_sample_count",
    "median_of_means_sample_count",
    "mom_groups",
    "median_of_means",
    "row_medians_of_means",
]

#: The constant c_m of the median-of-means per-arm sample count.
DEFAULT_CM = 4.0


def chernoff_sample_count(alpha: float, delta: float, m: int) -> int:
    """Per-arm queries so that m simultaneous [0,1]-mean estimates each land
    within alpha/4 with probability 1 - delta/2: ceil((8/alpha^2) ln(4m/delta)).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if m < 1:
        raise ValueError("m must be >= 1")
    square = alpha * alpha  # 0 for an alpha below about 1.6e-162: the count is infinite
    count = np.ceil(8.0 / square * math.log(4.0 * m / delta)) if square else np.inf
    check_entries(f"sample of {m} arms x {count:g} queries each", m, count)
    return int(count)


def median_of_means_sample_count(alpha: float, delta: float, m: int, sigma: float) -> int:
    """Per-arm queries for variance-bounded rewards:
    ceil(16 c_m sigma^2 ln(2m/delta) / alpha^2) with c_m = ``DEFAULT_CM``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    spread = 16.0 * DEFAULT_CM * sigma * sigma * math.log(2.0 * m / delta)
    square = alpha * alpha  # 0 for an alpha below about 1.6e-162: the count is infinite
    count = np.ceil(spread / square) if square else np.inf
    check_entries(f"sample of {m} arms x {count:g} queries each", m, count)
    return int(count)


def mom_groups(delta: float) -> int:
    """Group count ceil(ln(2/delta)) used by the median-of-means learner."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return max(1, ceil_count("median-of-means group count", math.log(2.0 / delta)))


def median_of_means(samples, groups: int) -> float:
    """Median of K = ``groups`` consecutive group means.

    The input is split into K consecutive groups of floor(n / K) samples;
    the remainder at the tail is dropped.  For even K the lower median is
    returned.  The estimate always lies within
    [min(samples), max(samples)].
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValueError("samples must be a 1-D sequence")
    return float(row_medians_of_means(arr[np.newaxis], groups)[0])


def row_medians_of_means(blocks, groups: int) -> np.ndarray:
    """:func:`median_of_means` of every row of a 2-D array, in one pass.

    Entry i equals ``median_of_means(blocks[i], groups)`` bit for bit.
    """
    arr = np.asarray(blocks, dtype=float)
    if arr.ndim != 2:
        raise ValueError("blocks must be a 2-D array")
    if groups < 1:
        raise ValueError("group count must be >= 1")
    if arr.shape[1] < groups:
        raise ValueError(f"need at least {groups} samples for {groups} groups")
    size = arr.shape[1] // groups
    split = arr[:, : size * groups].reshape(arr.shape[0], groups, size)
    return np.sort(split.mean(axis=2), axis=1)[:, (groups - 1) // 2]
