"""Constructors for benchmark function classes and hard instances.

Families
--------
* k-armed surrogate: one indicator function per arm; coverage value 1/K.
* truncated singletons: finite truncation of the infinite needle-in-a-haystack
  family whose coverage value vanishes (1/n for the n-point truncation).
* binary-tree class: a depth-d tree whose internal arms encode the branch
  directions of the unique rewarding leaf bucket; the canonical instance
  separating adaptive from non-adaptive query complexity.
* linear net: deterministic spherical net, mean rewards (w . x + 1) / 2.
* Gaussian histogram: piecewise-uniform discretization of a Gaussian with
  certified total-variation error, the reduction device from continuous
  Gaussian environments to finite bounded ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import (
    MAX_ENTRIES,
    CapacityError,
    FunctionClass,
    PrecisionError,
    _frozen_array,
    check_entries,
    from_json,
)

__all__ = [
    "TreeMeta",
    "PiecewiseUniform",
    "GaussianDensity",
    "make_k_armed",
    "make_singletons",
    "make_tree_class",
    "make_linear_net_class",
    "make_gaussian_histogram",
    "gaussian_lipschitz_bound",
    "tv_distance",
]

MAX_HISTOGRAM_BUCKETS = 500_000
MIN_DISCRETIZER_EPS = 1e-4

#: Branch markers on the path to the rewarding leaf: an internal arm reads
#: LEFT_VALUE when the path turns left below it and RIGHT_VALUE when it turns
#: right.  A threshold test against 1/2 separates them with constant margin.
LEFT_VALUE = 1.0 / 3.0
RIGHT_VALUE = 2.0 / 3.0


def make_k_armed(k: int) -> FunctionClass:
    """K arms, K indicator functions; function i rewards only arm i."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_entries(f"k-armed class with {k} functions", k, k)
    return FunctionClass(np.eye(k), labels={"family": "k-armed", "k": k})


def make_singletons(n: int) -> FunctionClass:
    """Finite truncation of the singleton (needle) family.

    Same indicator matrix as the k-armed surrogate but labeled as a
    truncation: the infinite family admits no mixture with positive
    worst-case coverage, and these truncations witness that by having
    coverage value exactly 1/n, vanishing as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_entries(f"singleton class with {n} functions", n, n)
    return FunctionClass(np.eye(n), labels={"family": "singletons-truncated", "n": n})


@dataclass(frozen=True)
class TreeMeta:
    """Index geometry of a binary-tree class, in heap order.

    Arms are the internal nodes in heap order (node i's children are arms
    2i+1 and 2i+2), then the leaf buckets left to right; functions are
    (leaf, slot) pairs in the same order, so function f's bucket arm is
    n_internal + f, and leaf x's level-l ancestor is 2^l - 1 + (x >> (d - l)).
    """

    depth: int
    bucket_size: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.bucket_size < 1:
            raise ValueError("bucket size must be >= 1")

    @property
    def leaf_count(self) -> int:
        return 1 << self.depth

    @property
    def n_internal(self) -> int:
        return (1 << self.depth) - 1

    @property
    def n_arms(self) -> int:
        return self.n_internal + self.leaf_count * self.bucket_size

    @property
    def n_functions(self) -> int:
        return self.leaf_count * self.bucket_size


def make_tree_class(depth: int, bucket_size: int) -> tuple[FunctionClass, TreeMeta]:
    """Binary-tree class: one function per candidate rewarding bucket arm.

    Under the function for (leaf, slot), the internal arms on the root-to-leaf
    path read LEFT_VALUE / RIGHT_VALUE according to the branch direction, the
    designated bucket arm reads 1, and every other arm reads 0.  Exactly one
    arm per function is optimal, so the coverage value at any alpha < 1/3 is
    1 / (leaf_count * bucket_size).
    """
    meta = TreeMeta(depth=depth, bucket_size=bucket_size)
    if depth > math.log2(MAX_ENTRIES):  # 2^depth functions alone exceed the cap
        raise CapacityError(f"tree of depth {depth} exceeds the cap of {MAX_ENTRIES} entries")
    check_entries(f"tree with {meta.n_functions} functions", meta.n_functions, meta.n_arms)
    means = np.zeros((meta.n_functions, meta.n_arms))
    functions = np.arange(meta.n_functions)
    leaves = functions // bucket_size
    for level in range(depth):  # heap order: see TreeMeta
        ancestors = (1 << level) - 1 + (leaves >> (depth - level))
        right = (leaves >> (depth - 1 - level)) & 1
        means[functions, ancestors] = np.where(right, RIGHT_VALUE, LEFT_VALUE)
    means[functions, meta.n_internal + functions] = 1.0
    labels = {"family": "tree", "depth": depth, "bucket_size": bucket_size}
    return FunctionClass(means, labels=labels), meta


def _circle_net(n: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _fibonacci_sphere(n: int) -> np.ndarray:
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    theta = 2.0 * math.pi * i / golden
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def make_linear_net_class(dimension: int, alpha: float) -> FunctionClass:
    """Deterministic (alpha/2)-net of the unit sphere as both arms and weights.

    Mean rewards are (w . x + 1) / 2, so sphere-level reward gaps shrink by a
    factor of 1/2 in the [0, 1] parametrization (recorded as ``gap_scale``).
    dimension 1 yields the two endpoints, 2 a uniform angular grid, 3 a
    Fibonacci-sphere grid sized so the covering radius is below alpha / 2.
    """
    if dimension not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if dimension == 1:
        net = np.array([[-1.0], [1.0]])
    else:
        try:
            if dimension == 2:
                # n equally spaced angles cover the circle with chordal radius
                # 2 sin(pi / (2n)); pick the smallest n making that <= alpha / 2.
                points = math.pi / (2.0 * math.asin(min(alpha / 4.0, 1.0)))
            else:
                # Fibonacci grids empirically cover with chordal radius < 3.5/sqrt(n);
                # sizing n = (7/alpha)^2 keeps that under alpha/2 with margin.
                points = (7.0 / alpha) ** 2
        except (ZeroDivisionError, OverflowError):  # alpha too small for any float size
            points = math.inf
        # the cap, a square, admits ceil(points) exactly when it admits points
        check_entries(f"net of {points:g} points", points, points)
        n = max(3, math.ceil(points))
        net = _circle_net(n) if dimension == 2 else _fibonacci_sphere(n)
    means = np.clip((net @ net.T + 1.0) / 2.0, 0.0, 1.0)
    labels = {
        "family": "linear-net",
        "dimension": dimension,
        "net_alpha": alpha,
        "points": int(net.shape[0]),
        "gap_scale": 0.5,
    }
    return FunctionClass(means, labels=labels)


@dataclass(frozen=True, eq=False)
class PiecewiseUniform:
    """A distribution with piecewise-constant density on consecutive buckets.

    ``breakpoints`` has one more entry than ``masses``; bucket i spans
    [breakpoints[i], breakpoints[i+1]) and carries total mass masses[i].
    The two outermost buckets always carry mass 0, so the full mass sits in
    the interior of the breakpoint range.
    """

    breakpoints: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        ms = np.asarray(self.masses, dtype=float)
        if bp.ndim != 1 or ms.ndim != 1 or bp.size != ms.size + 1 or ms.size < 1:
            raise ValueError("need n+1 breakpoints for n bucket masses")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if ms.min() < 0.0:
            raise ValueError("bucket masses must be >= 0")
        if abs(ms.sum() - 1.0) > 1e-9:
            raise ValueError("bucket masses must sum to 1 within 1e-9")
        if ms[0] != 0.0 or ms[-1] != 0.0:
            raise ValueError("the outermost buckets must carry mass 0")
        object.__setattr__(self, "breakpoints", _frozen_array(bp, float))
        object.__setattr__(self, "masses", _frozen_array(ms, float))

    @property
    def bucket_count(self) -> int:
        return self.masses.size

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        widths = np.diff(self.breakpoints)
        heights = self.masses / widths
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        inside = (idx >= 0) & (idx < self.bucket_count)
        out = np.zeros_like(x, dtype=float)
        out[inside] = heights[idx[inside]]
        return out

    def coverage_interval(self, tail: float) -> tuple[float, float]:
        # Compact support: the breakpoint range covers all mass regardless of tail.
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    from_json = classmethod(from_json)


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian density wrapper exposing the quadrature interface."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def coverage_interval(self, tail: float) -> tuple[float, float]:
        half = NormalDist().inv_cdf(1.0 - tail / 2.0) * self.sigma
        return self.mu - half, self.mu + half


def gaussian_lipschitz_bound(sigma: float) -> float:
    """Maximum absolute slope of a Gaussian density with scale sigma."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return 1.0 / (sigma * sigma * math.sqrt(2.0 * math.pi * math.e))


def make_gaussian_histogram(mu: float, sigma: float, eps: float) -> PiecewiseUniform:
    """Histogram surrogate for Normal(mu, sigma^2) with TV error at most eps.

    The construction trims the lower eps/4 quantile of the mean-0 Gaussian and
    the upper eps/4 quantile of the mean-1 Gaussian (one shared trim range for
    every mu in [0, 1]), splits the middle range into
    w = ceil(L (c2 - c1)^2 / eps) equal-width buckets where L is the Gaussian
    density's Lipschitz bound, subtracts eps/(2w) from each bucket's Gaussian
    mass (clipped at 0), and renormalizes exactly to 1.  The two sentinel end
    buckets carry mass 0.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if eps < MIN_DISCRETIZER_EPS:
        raise PrecisionError(f"eps below {MIN_DISCRETIZER_EPS} exceeds quadrature resolution")

    c1 = NormalDist(0.0, sigma).inv_cdf(eps / 4.0)
    c2 = NormalDist(1.0, sigma).inv_cdf(1.0 - eps / 4.0)
    try:
        w = math.ceil(gaussian_lipschitz_bound(sigma) * (c2 - c1) ** 2 / eps)
    except (ZeroDivisionError, OverflowError):  # sigma^2 leaves the float range
        w = math.inf
    if w < 1 or w > MAX_HISTOGRAM_BUCKETS:
        raise PrecisionError(f"bucket count {w} outside supported range")

    target = NormalDist(mu, sigma)
    edges = np.linspace(c1, c2, w + 1)
    cdf = np.array([target.cdf(float(e)) for e in edges])
    middle = np.clip(np.diff(cdf) - eps / (2.0 * w), 0.0, None)
    total = middle.sum()
    if total <= 0.0:
        raise PrecisionError("discretization removed all probability mass")
    middle = middle / total

    breakpoints = np.concatenate([[c1 - 6.0 * sigma], edges, [c2 + 6.0 * sigma]])
    masses = np.concatenate([[0.0], middle, [0.0]])
    return PiecewiseUniform(breakpoints, masses)


def tv_distance(dist_a, dist_b, step: float = 1e-3) -> float:
    """Total variation between two densities by midpoint quadrature.

    Integrates |p_a - p_b| / 2 on a uniform grid spanning an interval that
    covers all but 1e-6 of both masses.  Both arguments must expose
    ``density(x)`` and ``coverage_interval(tail)``.
    """
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    lo_a, hi_a = dist_a.coverage_interval(1e-6)
    lo_b, hi_b = dist_b.coverage_interval(1e-6)
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    points = (hi - lo) / step
    check_entries(f"quadrature grid of {points:g} points", points, 1)
    xs = lo + (np.arange(max(1, math.ceil(points))) + 0.5) * step
    return float(0.5 * step * np.abs(dist_a.density(xs) - dist_b.density(xs)).sum())
