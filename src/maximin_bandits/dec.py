"""Probability-of-error decision-estimation coefficient over finite classes.

For an anchor prediction f_bar (a mixture of class rows), a sampling mixture
q, and a radius eps, the version set holds every function within squared
prediction distance eps^2 of the anchor under q.  The coefficient at (eps,
alpha) is

    min_q  max_p ... written as  inf_{p,q}  sup_{f in versions(q)}
        P_{pi ~ p}( f's alpha-gap at pi is exceeded )

Here the inner problem is solved exactly by the coverage-game LP, while q
ranges over a finite candidate family (simplex grid, point masses, uniform),
so :func:`dec_at` reports an upper bound of the true min.  :func:`dec_sup`
maximizes over a finite anchor family and is hence a lower bound of the sup
over the convex hull.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import ArmDistribution, FunctionClass, check_entries, gap_matrix
from .games import solve_maximin

__all__ = [
    "VersionSet",
    "DecResult",
    "simplex_grid",
    "version_set",
    "dec_at",
    "dec_sup",
    "default_anchor_candidates",
    "UPPER_BOUND_OF_MIN",
    "LOWER_BOUND_OF_SUP",
]

UPPER_BOUND_OF_MIN = "upper-bound-of-min"
LOWER_BOUND_OF_SUP = "lower-bound-of-sup"


@dataclass(frozen=True, eq=False)
class VersionSet:
    """Functions consistent with an anchor prediction under a sampling mixture."""

    members: np.ndarray
    anchor: np.ndarray
    q: ArmDistribution
    eps: float

    @property
    def is_empty(self) -> bool:
        return self.members.size == 0


@dataclass(frozen=True, eq=False)
class DecResult:
    """Value and witnesses of one coefficient computation.

    ``bound_direction`` records which side of the exact quantity the finite
    search certifies: candidate q-search upper-bounds the min; a finite anchor
    family lower-bounds the sup.
    """

    value: float
    p_witness: ArmDistribution
    q_witness: ArmDistribution
    anchor: np.ndarray
    eps: float
    alpha: float
    search_resolution: float
    bound_direction: str


def simplex_grid(dim: int, resolution: float) -> np.ndarray:
    """All probability vectors over ``dim`` coordinates with entries that are
    multiples of ~resolution (exactly: multiples of 1/round(1/resolution)).

    Enumerated in a fixed deterministic order via stars and bars.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 < resolution < 1.0:
        raise ValueError("resolution must lie in (0, 1)")
    if dim == 1:
        return np.ones((1, 1))
    # the grid has more than 1/resolution points: a denormal resolution
    # fails here, before round(inf)
    check_entries(f"simplex grid at resolution {resolution:g}", 1.0 / resolution, dim)
    k = max(1, round(1.0 / resolution))
    count = math.comb(k + dim - 1, dim - 1)
    check_entries(f"simplex grid of {count} points", count, dim)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(k + dim - 1), dim - 1)),
        dtype=np.int64,
        count=count * (dim - 1),
    ).reshape(count, dim - 1)
    ext = np.hstack(
        [
            np.full((count, 1), -1, dtype=np.int64),
            combos,
            np.full((count, 1), k + dim - 1, dtype=np.int64),
        ]
    )
    parts = np.diff(ext, axis=1) - 1
    return parts.astype(float) / k


def _anchor_prediction(fclass: FunctionClass, anchor) -> tuple[np.ndarray, np.ndarray]:
    weights = np.asarray(getattr(anchor, "probs", anchor), dtype=float)
    if weights.shape != (fclass.n_functions,):
        raise ValueError("anchor must be a weight vector over the functions")
    if weights.min() < 0.0 or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("anchor weights must form a probability vector")
    return weights, weights @ fclass.means


def version_set(fclass: FunctionClass, anchor, q: ArmDistribution, eps: float) -> VersionSet:
    """Functions f with sum_a q(a) (f(a) - f_bar(a))^2 <= eps^2 (non-strict)."""
    if not eps >= 0:  # NaN fails too
        raise ValueError("eps must be >= 0")
    weights, f_bar = _anchor_prediction(fclass, anchor)
    if q.n_arms != fclass.n_arms:
        raise ValueError("q must be a distribution over the class's arms")
    sq_dev = (fclass.means - f_bar) ** 2
    members = np.flatnonzero(sq_dev @ q.probs <= eps * eps)
    return VersionSet(members=members, anchor=weights, q=q, eps=float(eps))


def _q_candidates(n_arms: int, resolution: float) -> np.ndarray:
    grid = simplex_grid(n_arms, resolution)
    extras = np.vstack([np.eye(n_arms), np.full((1, n_arms), 1.0 / n_arms)])
    return np.vstack([grid, extras])


def dec_at(
    fclass: FunctionClass,
    anchor,
    eps: float,
    alpha: float,
    resolution: float = 0.1,
) -> DecResult:
    """Coefficient at one anchor: min over candidate q of the exact inner game.

    For each candidate q the inner sup/inf is solved exactly: the value is
    1 minus the maximin coverage of the alpha-indicator matrix restricted to
    the version set's rows, and an empty version set contributes 0.  Ties
    between candidates break toward the earliest in enumeration order, so
    only the first candidate of each distinct version set is visited (a
    later one has the same value and cannot beat the best by 1e-15), and
    each distinct version set's game is solved once.  When eps >= 1 every
    version set equals the full class (squared deviations of [0, 1] means
    never exceed 1), so the search collapses to a single game solve and the
    q witness defaults to uniform.
    """
    return _dec_search(fclass, eps, alpha, resolution)(anchor)


def _dec_search(fclass: FunctionClass, eps: float, alpha: float, resolution: float):
    """:func:`dec_at` as a function of the anchor alone.

    The gap matrix, the candidate q's and the inner-game cache are built
    once, so every anchor of :func:`dec_sup` shares them.  The cache maps a
    version set's row mask to the inner game's (value, p); the anchor only
    picks the masks.
    """
    if not eps >= 0:  # NaN fails too
        raise ValueError("eps must be >= 0")
    if not 0.0 < resolution < 1.0:
        raise ValueError("resolution must lie in (0, 1)")
    B = gap_matrix(fclass, alpha).astype(float)
    n_arms = fclass.n_arms
    report = partial(
        DecResult,
        eps=float(eps),
        alpha=float(alpha),
        search_resolution=float(resolution),
        bound_direction=UPPER_BOUND_OF_MIN,
    )

    if eps >= 1.0:
        sol = solve_maximin(B)
        value = float(min(1.0, max(0.0, 1.0 - sol.value)))
        uniform = ArmDistribution.uniform(n_arms)

        def at_full_class(anchor) -> DecResult:
            weights, _ = _anchor_prediction(fclass, anchor)
            return report(value=value, p_witness=sol.p, q_witness=uniform, anchor=weights)

        return at_full_class

    candidates = _q_candidates(n_arms, resolution)
    check_entries(f"DEC masks of {len(candidates)} candidates", len(candidates), fclass.n_functions)
    cache: dict[bytes, tuple[float, np.ndarray]] = {}

    def at(anchor) -> DecResult:
        weights, f_bar = _anchor_prediction(fclass, anchor)
        sq_dev = (fclass.means - f_bar) ** 2  # (functions, arms)
        # one row mask per candidate, as bytes, and the first candidate of
        # each mask: a dict filled from the back keeps each key's least index
        masks = np.ascontiguousarray((sq_dev @ candidates.T <= eps * eps).T)
        keys = masks.view(np.dtype((np.void, masks.shape[1]))).ravel().tolist()
        firsts = sorted(dict(zip(reversed(keys), range(len(keys) - 1, -1, -1))).values())

        best_value = math.inf
        best_idx = -1
        best_p: np.ndarray | None = None
        for j in firsts:
            key = keys[j]
            hit = cache.get(key)
            if hit is None:
                mask = masks[j]
                if not mask.any():
                    hit = (0.0, np.full(n_arms, 1.0 / n_arms))
                else:
                    sol = solve_maximin(B[mask])
                    hit = (float(min(1.0, max(0.0, 1.0 - sol.value))), sol.p.probs)
                cache[key] = hit
            if hit[0] < best_value - 1e-15:
                best_value, best_idx, best_p = hit[0], j, hit[1]
                if best_value <= 0.0:
                    break

        return report(
            value=best_value,
            p_witness=ArmDistribution(best_p),
            q_witness=ArmDistribution(candidates[best_idx]),
            anchor=weights,
        )

    return at


def default_anchor_candidates(fclass: FunctionClass, include_midpoints: bool = True) -> list[np.ndarray]:
    """Vertices of the class's mixture simplex, then (``include_midpoints``)
    pairwise midpoints and the centroid.  The family's size is checked
    against the cap before any anchor is built."""
    n = fclass.n_functions
    family = "vertices+midpoints" if include_midpoints else "vertices"
    count = n + n * (n - 1) // 2 + 1 if include_midpoints else n
    check_entries(f"{family} anchor family of {count} anchors", count, n)
    anchors = [np.eye(1, n, i)[0] for i in range(n)]
    if include_midpoints:
        for i in range(n):
            for j in range(i + 1, n):
                mid = np.zeros(n)
                mid[i] = mid[j] = 0.5
                anchors.append(mid)
        anchors.append(np.full(n, 1.0 / n))
    return anchors


def dec_sup(
    fclass: FunctionClass,
    eps: float,
    alpha: float,
    anchors=None,
    resolution: float = 0.1,
) -> DecResult:
    """Maximum of :func:`dec_at` over a finite anchor family.

    The report keeps the witnesses of the maximizing anchor and flags the
    value as a lower bound of the sup over the full mixture hull.  Ties break
    toward the earliest anchor.  Each distinct version set's inner game is
    solved once across all anchors.
    """
    if anchors is None:
        anchors = default_anchor_candidates(fclass)
    anchors = list(anchors)
    if not anchors:
        raise ValueError("need at least one anchor candidate")
    best: DecResult | None = None
    at = _dec_search(fclass, eps, alpha, resolution)
    for anchor in anchors:
        res = at(anchor)
        if best is None or res.value > best.value + 1e-15:
            best = res
    return replace(best, bound_direction=LOWER_BOUND_OF_SUP)
