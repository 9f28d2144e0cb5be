import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maximin_bandits.core import (
    MAX_ENTRIES,
    ArmDistribution,
    CapacityError,
    FunctionClass,
    gap_matrix,
    to_json,
)
from maximin_bandits.dec import (
    DecResult,
    dec_at,
    dec_sup,
    default_anchor_candidates,
    simplex_grid,
    version_set,
)
from maximin_bandits.environments import make_k_armed, make_tree_class
from maximin_bandits.games import gamma, solve_maximin


# ---------------------------------------------------------------------------
# simplex grid


def test_simplex_grid_rows_are_distributions():
    g = simplex_grid(3, 0.25)
    assert g.shape[1] == 3
    np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
    assert g.min() >= 0.0


def test_simplex_grid_count():
    # resolution 1/k gives C(k + d - 1, d - 1) points
    g = simplex_grid(3, 0.5)
    assert g.shape[0] == math.comb(2 + 2, 2)
    g = simplex_grid(2, 0.1)
    assert g.shape[0] == 11


def test_simplex_grid_includes_vertices():
    g = simplex_grid(3, 0.25)
    for i in range(3):
        assert any(np.allclose(row, np.eye(3)[i]) for row in g)


def test_simplex_grid_validation():
    with pytest.raises(ValueError):
        simplex_grid(0, 0.5)
    with pytest.raises(ValueError):
        simplex_grid(2, 0.0)


#: 4096 equal rows: every anchor's version set is the whole class or empty,
#: so an admitted search solves one game.
EQUAL_ROWS = FunctionClass(np.tile([1.0, 0.0], (4096, 1)))
EQUAL_ROWS_ANCHOR = np.r_[1.0, np.zeros(4095)]

#: Per DEC array, a call at the largest size the cap admits and one at the
#: next size up: the simplex grid (points x coordinates, 1670 steps a side
#: against 1671) and the search's version-set masks (candidates x
#: functions, 1004 candidates against 2004).
DEC_LARGEST_AND_NEXT = {
    "simplex-grid": (lambda: simplex_grid(3, 1 / 1670), lambda: simplex_grid(3, 1 / 1671)),
    "dec-masks": (lambda: dec_at(EQUAL_ROWS, EQUAL_ROWS_ANCHOR, 0.1, 0.3, resolution=0.001),
                  lambda: dec_at(EQUAL_ROWS, EQUAL_ROWS_ANCHOR, 0.1, 0.3, resolution=0.0005)),
}


@pytest.mark.parametrize("name", DEC_LARGEST_AND_NEXT)
def test_dec_arrays_at_and_over_the_cap(name):
    largest, next_size = DEC_LARGEST_AND_NEXT[name]
    built = largest()
    if name == "simplex-grid":
        assert built.shape == (math.comb(1672, 2), 3) and built.size <= MAX_ENTRIES
    else:
        assert built.value == 0.0
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds the cap"):
            next_size()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_simplex_grid_refuses_a_denormal_resolution():
    # 1 / resolution is inf: refused on the count, before round(inf)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds the cap"):
            simplex_grid(2, 1e-320)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert simplex_grid(1, 1e-320).tolist() == [[1.0]]


# ---------------------------------------------------------------------------
# version sets


def test_version_set_membership_weighted_by_q():
    fc = make_k_armed(2)
    anchor = fc.row(0)
    from maximin_bandits.core import ArmDistribution

    # q concentrated on arm 0: function 1 deviates by 1 there
    q = ArmDistribution.point_mass(0, 2)
    vs = version_set(fc, anchor, q, 0.5)
    assert list(vs.members) == [0]
    # q on arm 1 sees the same deviation pattern for f=1
    vs_wide = version_set(fc, anchor, q, 1.0)
    assert list(vs_wide.members) == [0, 1]


def test_version_set_boundary_inclusive():
    fc = FunctionClass(np.array([[0.0, 0.0], [0.5, 0.0]]))
    from maximin_bandits.core import ArmDistribution

    q = ArmDistribution.point_mass(0, 2)
    anchor = np.array([1.0, 0.0])  # point mass on function 0
    vs = version_set(fc, anchor, q, 0.5)  # deviation exactly eps^2
    assert list(vs.members) == [0, 1]


def test_version_set_empty_when_anchor_far():
    fc = make_k_armed(2)
    from maximin_bandits.core import ArmDistribution

    anchor = np.array([0.5, 0.5])
    vs = version_set(fc, anchor, ArmDistribution.uniform(2), 0.1)
    assert vs.is_empty


# ---------------------------------------------------------------------------
# dec_at closed cases


def test_dec_vacuous_two_arm_is_half():
    fc = make_k_armed(2)
    r = dec_at(fc, np.array([0.5, 0.5]), 10.0, 0.5, resolution=0.05)
    assert r.value == pytest.approx(0.5, abs=0.01)


def test_dec_in_class_anchor_small_eps_is_zero():
    for fc in (make_k_armed(3), make_tree_class(2, 1)[0]):
        point_mass = np.eye(fc.n_functions)[0]
        r = dec_at(fc, point_mass, 1e-4, 0.3, resolution=0.1)
        assert r.value == pytest.approx(0.0, abs=1e-12)


def test_dec_empty_version_set_contributes_zero():
    fc = make_k_armed(2)
    r = dec_at(fc, np.array([0.5, 0.5]), 0.05, 0.5, resolution=0.25)
    assert r.value == 0.0


def test_dec_vacuous_matches_one_minus_gamma():
    # eps >= 1 short-circuits to the plain coverage game
    for fc in (make_k_armed(3), make_tree_class(2, 1)[0]):
        for alpha in (0.2, 0.5):
            point_mass = np.eye(fc.n_functions)[0]
            r = dec_at(fc, point_mass, math.sqrt(2.0), alpha, resolution=0.1)
            g = gamma(fc, alpha).value
            assert 1.0 - r.value >= g - 1e-9


def test_dec_value_clipped_to_unit_interval():
    fc = make_k_armed(4)
    r = dec_at(fc, np.full(4, 0.25), 0.6, 0.3, resolution=0.25)
    assert 0.0 <= r.value <= 1.0


def test_dec_anchor_accepts_mixture_weights():
    fc = make_k_armed(2)
    # anchor given as weights over functions rather than an arm-means row
    weights = np.array([0.5, 0.5])
    r = dec_at(fc, weights, 0.2, 0.5, resolution=0.25)
    assert isinstance(r, DecResult)
    np.testing.assert_allclose(r.anchor, weights)


def test_dec_rejects_bad_inputs():
    fc = make_k_armed(2)
    with pytest.raises(ValueError):
        dec_at(fc, fc.row(0), -0.1, 0.5, resolution=0.25)
    with pytest.raises(ValueError):
        dec_at(fc, fc.row(0), 0.5, 0.5, resolution=1.5)


# ---------------------------------------------------------------------------
# monotonicity and brute-force equivalence


def brute_force_dec(fclass, anchor_weights, eps, alpha, resolution):
    """Pure-python re-derivation of dec_at for cross-checking."""
    anchor_weights = np.asarray(anchor_weights, dtype=float)
    f_bar = anchor_weights @ fclass.means
    B = gap_matrix(fclass, alpha).astype(float)
    n = fclass.n_arms

    candidates = [np.asarray(q) for q in simplex_grid(n, resolution)]
    candidates += [np.eye(n)[i] for i in range(n)]
    candidates += [np.full(n, 1.0 / n)]

    best = math.inf
    for q in candidates:
        members = [
            f
            for f in range(fclass.n_functions)
            if float(q @ (fclass.row(f) - f_bar) ** 2) <= eps * eps
        ]
        if not members:
            value = 0.0
        else:
            value = 1.0 - solve_maximin(B[members]).value
            value = min(1.0, max(0.0, value))
        best = min(best, value)
    return best


def test_dec_matches_brute_force_small_instances():
    rng = np.random.default_rng(77)
    for _ in range(12):
        F = int(rng.integers(2, 5))
        A = int(rng.integers(2, 4))
        fc = FunctionClass(rng.random((F, A)))
        anchor = rng.dirichlet(np.ones(F))
        eps = float(rng.uniform(0.05, 0.9))
        alpha = float(rng.uniform(0.1, 0.9))
        got = dec_at(fc, anchor, eps, alpha, resolution=0.2).value
        want = brute_force_dec(fc, anchor, eps, alpha, 0.2)
        assert got == pytest.approx(want, abs=1e-12)


def test_dec_monotone_in_eps():
    rng = np.random.default_rng(3)
    for _ in range(10):
        fc = FunctionClass(rng.random((3, 3)))
        anchor = rng.dirichlet(np.ones(3))
        alpha = 0.3
        values = [
            dec_at(fc, anchor, eps, alpha, resolution=0.25).value
            for eps in (0.1, 0.3, 0.6, 1.2)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_dec_antitone_in_alpha():
    rng = np.random.default_rng(4)
    for _ in range(10):
        fc = FunctionClass(rng.random((3, 3)))
        anchor = rng.dirichlet(np.ones(3))
        values = [
            dec_at(fc, anchor, 0.4, alpha, resolution=0.25).value
            for alpha in (0.1, 0.3, 0.6, 0.9)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# dec_sup


def test_default_anchor_candidates_structure():
    fc = make_k_armed(3)
    anchors = default_anchor_candidates(fc)
    # 3 vertices + 3 pairwise midpoints + centroid
    assert len(anchors) == 7
    for a in anchors:
        assert a.shape == (3,)
        assert a.sum() == pytest.approx(1.0)


def test_default_anchor_family_at_and_over_the_cap():
    # n + n(n-1)/2 + 1 anchors of n weights: 202 functions fit, 203 do not
    largest, next_size = make_k_armed(202), make_k_armed(203)
    assert len(default_anchor_candidates(largest)) == 202 + 202 * 201 // 2 + 1
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="vertices\\+midpoints anchor family of 20707 anchors"):
            default_anchor_candidates(next_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(default_anchor_candidates(next_size, include_midpoints=False)) == 203


def test_default_vertex_family_at_and_over_the_cap():
    # one arm keeps the class small: the n vertices of n weights cap n at 2048
    largest = FunctionClass(np.zeros((2048, 1)))
    vertices = default_anchor_candidates(largest, include_midpoints=False)
    assert len(vertices) == 2048 and vertices[5].tolist() == np.eye(2048)[5].tolist()
    with pytest.raises(CapacityError, match="vertices anchor family of 2049 anchors"):
        default_anchor_candidates(FunctionClass(np.zeros((2049, 1))), include_midpoints=False)


@pytest.mark.parametrize("search", [
    lambda fc, eps: dec_at(fc, np.eye(3)[0], eps, 0.3),
    lambda fc, eps: dec_sup(fc, eps, 0.3),
    lambda fc, eps: version_set(fc, np.eye(3)[0], ArmDistribution.uniform(3), eps),
], ids=["dec_at", "dec_sup", "version_set"])
def test_dec_refuses_a_nan_eps(search):
    with pytest.raises(ValueError, match="eps must be >= 0"):
        search(make_k_armed(3), math.nan)


def test_dec_at_an_infinite_eps_takes_the_full_class():
    fc = make_k_armed(3)
    assert to_json(dec_at(fc, np.eye(3)[0], math.inf, 0.3)) == {
        **to_json(dec_at(fc, np.eye(3)[0], 1.0, 0.3)), "eps": math.inf}
    members = version_set(fc, np.eye(3)[0], ArmDistribution.uniform(3), math.inf).members
    assert members.tolist() == [0, 1, 2]


def test_dec_sup_dominates_each_anchor():
    fc = make_k_armed(3)
    anchors = default_anchor_candidates(fc)
    sup = dec_sup(fc, 0.4, 0.3, anchors=anchors, resolution=0.2)
    for a in anchors:
        assert sup.value >= dec_at(fc, a, 0.4, 0.3, resolution=0.2).value - 1e-12
    assert sup.bound_direction == "lower-bound-of-sup"


def per_candidate_dec_at(fclass, anchor, eps, alpha, resolution, cache):
    """A frozen copy of the search that visited every candidate q."""
    import maximin_bandits.dec as dec_module

    weights, f_bar = dec_module._anchor_prediction(fclass, anchor)
    B = gap_matrix(fclass, alpha).astype(float)
    n_arms = fclass.n_arms
    candidates = dec_module._q_candidates(n_arms, resolution)
    sq_dev = (fclass.means - f_bar) ** 2
    member_masks = sq_dev @ candidates.T <= eps * eps
    best_value, best_idx, best_p = math.inf, -1, None
    for j in range(candidates.shape[0]):
        mask = member_masks[:, j]
        key = mask.tobytes()
        hit = cache.get(key)
        if hit is None:
            if not mask.any():
                hit = (0.0, np.full(n_arms, 1.0 / n_arms))
            else:
                sol = dec_module.solve_maximin(B[mask])
                hit = (float(min(1.0, max(0.0, 1.0 - sol.value))), sol.p.probs)
            cache[key] = hit
        if hit[0] < best_value - 1e-15:
            best_value, best_idx, best_p = hit[0], j, hit[1]
            if best_value <= 0.0:
                break
    return best_value, best_p, candidates[best_idx], weights


def test_dec_sup_solves_each_version_set_once(monkeypatch):
    import maximin_bandits.dec as dec_module

    calls = []

    def counted(payoff):
        calls.append(payoff.shape)
        return solve_maximin(payoff)

    monkeypatch.setattr(dec_module, "solve_maximin", counted)
    fc, _ = make_tree_class(2, 1)
    sup = dec_sup(fc, 0.5, 0.3, resolution=0.1)
    # 47 solves when each anchor kept its own cache
    assert len(calls) == 15
    best = None
    for a in default_anchor_candidates(fc):
        res = dec_at(fc, a, 0.5, 0.3, resolution=0.1)
        if best is None or res.value > best.value + 1e-15:
            best = res
    assert sup.value.hex() == best.value.hex()
    for field in ("p_witness", "q_witness"):
        assert getattr(sup, field).probs.tobytes() == getattr(best, field).probs.tobytes()
    assert sup.anchor.tobytes() == best.anchor.tobytes()

    # Against the scan of every candidate with one cache across anchors:
    # the same value, witnesses and solves, in (depth, eps, alpha, resolution).
    for depth, eps, alpha, resolution in (
        (2, 0.5, 0.3, 0.1), (2, 0.3, 0.5, 0.2), (2, 0.8, 0.2, 0.25),
        (3, 0.5, 0.3, 0.34), (3, 0.3, 0.5, 0.25),
    ):
        fc, _ = make_tree_class(depth, 1)
        calls.clear()
        sup = dec_sup(fc, eps, alpha, resolution=resolution)
        solves = len(calls)
        calls.clear()
        cache, want = {}, None
        for a in default_anchor_candidates(fc):
            res = per_candidate_dec_at(fc, a, eps, alpha, resolution, cache)
            if want is None or res[0] > want[0] + 1e-15:
                want = res
        assert solves == len(calls)
        assert sup.value.hex() == want[0].hex()
        assert sup.p_witness.probs.tobytes() == want[1].tobytes()
        assert sup.q_witness.probs.tobytes() == want[2].tobytes()
        assert sup.anchor.tobytes() == want[3].tobytes()


def test_dec_sup_requires_anchor():
    fc = make_k_armed(2)
    with pytest.raises(ValueError):
        dec_sup(fc, 0.3, 0.5, anchors=[], resolution=0.25)


@given(st.integers(2, 4), st.floats(0.1, 1.4), st.floats(0.1, 0.9))
@settings(deadline=None, max_examples=25)
def test_dec_value_in_unit_interval_property(k, eps, alpha):
    fc = make_k_armed(k)
    r = dec_at(fc, np.eye(k)[0], eps, alpha, resolution=0.34)
    assert 0.0 <= r.value <= 1.0
    assert r.q_witness.probs.shape == (k,)
    assert r.p_witness.probs.shape == (k,)
