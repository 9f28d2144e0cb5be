import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maximin_bandits.core import MAX_ENTRIES, CapacityError, PrecisionError, to_json
from maximin_bandits.environments import (
    GaussianDensity,
    PiecewiseUniform,
    LEFT_VALUE,
    RIGHT_VALUE,
    gaussian_lipschitz_bound,
    make_gaussian_histogram,
    make_k_armed,
    make_linear_net_class,
    make_singletons,
    make_tree_class,
    tv_distance,
)
from maximin_bandits.games import gamma


# ---------------------------------------------------------------------------
# identity-style classes


def test_k_armed_is_identity():
    fc = make_k_armed(3)
    np.testing.assert_array_equal(fc.means, np.eye(3))
    assert fc.family == "k-armed"


def test_singletons_matches_k_armed_matrix():
    np.testing.assert_array_equal(make_singletons(4).means, np.eye(4))


def test_k_armed_rejects_bad_count():
    with pytest.raises(ValueError):
        make_k_armed(0)


#: Per constructor, the largest size the cap admits (functions x arms at most
#: MAX_ENTRIES) and the next size up.  A net's point count grows as alpha
#: shrinks: 2048 points at the first alpha, 2049 at the second.
LARGEST_AND_NEXT = {
    "k-armed": (lambda: make_k_armed(2048), lambda: make_k_armed(2049)),
    "singletons": (lambda: make_singletons(2048), lambda: make_singletons(2049)),
    "tree-d1": (lambda: make_tree_class(1, 1023)[0], lambda: make_tree_class(1, 1024)[0]),
    "tree-b1": (lambda: make_tree_class(10, 1)[0], lambda: make_tree_class(11, 1)[0]),
    "circle-net": (lambda: make_linear_net_class(2, 0.003068),
                   lambda: make_linear_net_class(2, 0.003067)),
    "sphere-net": (lambda: make_linear_net_class(3, 0.15468),
                   lambda: make_linear_net_class(3, 0.15465)),
}


@pytest.mark.parametrize("name", LARGEST_AND_NEXT)
def test_caps_admit_the_largest_size(name):
    fc = LARGEST_AND_NEXT[name][0]()
    assert fc.n_functions * fc.n_arms <= MAX_ENTRIES
    if "net" in name:
        assert fc.n_functions == 2048


@pytest.mark.parametrize("build", [
    lambda: make_k_armed(10**6),
    lambda: make_singletons(10**6),
    lambda: make_linear_net_class(2, 1e-12),
    lambda: make_tree_class(20000, 1),
    lambda: make_linear_net_class(2, 5e-324),
    lambda: make_linear_net_class(3, 1e-320),
    *(next_size for _, next_size in LARGEST_AND_NEXT.values()),
], ids=["k-armed", "singletons", "circle-net", "tree-depth-20000", "circle-net-denormal",
        "sphere-net-denormal", *(f"{name}-next" for name in LARGEST_AND_NEXT)])
def test_caps_refuse_before_allocating(build):
    # the first six would need terabytes or more (2^20000 leaves, or no
    # finite net at a denormal alpha); the cap is checked on the count
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds the cap"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# tree class


def test_tree_meta_geometry():
    _, meta = make_tree_class(2, 3)
    assert meta.n_internal == 3
    assert meta.leaf_count == 4
    assert meta.n_arms == 3 + 4 * 3
    assert meta.n_functions == 12
    assert meta.internal_arm_of([]) == 0
    assert meta.internal_arm_of([0]) == 1
    assert meta.internal_arm_of([1]) == 2
    assert tuple(meta.path_to_leaf(2)) == (1, 0)
    assert list(meta.bucket_arms_of(1)) == [6, 7, 8]
    assert meta.function_index(2, 1) == 7
    assert meta.leaf_of_function(7) == 2


def test_tree_rows_have_expected_values():
    fclass, meta = make_tree_class(2, 1)
    # function for leaf 2 (path right, left): root at 2/3, node arm 2 at 1/3,
    # off-branch internal arm 0, bucket arm 5 at 1
    row = fclass.row(2)
    assert row[0] == pytest.approx(RIGHT_VALUE)
    assert row[2] == pytest.approx(LEFT_VALUE)
    assert row[1] == 0.0
    assert row[meta.optimal_arm_of(2)] == 1.0
    assert row[meta.optimal_arm_of(2)] == row.max()
    assert np.count_nonzero(row) == 3


def test_tree_all_functions_have_unique_peak():
    fclass, meta = make_tree_class(3, 2)
    for f in range(fclass.n_functions):
        row = fclass.row(f)
        assert row.max() == 1.0
        assert np.count_nonzero(row == 1.0) == 1
        assert int(np.argmax(row)) == meta.optimal_arm_of(f)


def path_built_tree_means(meta):
    """The tree matrix built function by function from root-to-leaf paths."""
    means = np.zeros((meta.n_functions, meta.n_arms))
    for leaf in range(meta.leaf_count):
        bits = meta.path_to_leaf(leaf)
        for slot in range(meta.bucket_size):
            f = meta.function_index(leaf, slot)
            for level, bit in enumerate(bits):
                means[f, meta.internal_arm_of(bits[:level])] = RIGHT_VALUE if bit else LEFT_VALUE
            means[f, meta.bucket_arms_of(leaf)[slot]] = 1.0
    return means


@pytest.mark.parametrize("bucket_size", [1, 2, 3])
@pytest.mark.parametrize("depth", range(1, 9))
def test_tree_heap_order_matches_the_path_built_matrix(depth, bucket_size):
    fclass, meta = make_tree_class(depth, bucket_size)
    expected = path_built_tree_means(meta)
    assert fclass.means.shape == expected.shape
    assert fclass.means.tobytes() == expected.tobytes()
    for f in range(meta.n_functions):
        assert meta.optimal_arm_of(f) == meta.bucket_arms_of(meta.leaf_of_function(f))[f % bucket_size]


def test_tree_gamma_closed_form_small():
    for d, n in ((1, 1), (1, 2), (2, 1), (3, 2)):
        fclass, _ = make_tree_class(d, n)
        assert gamma(fclass, 0.1).value == pytest.approx(
            1.0 / (2**d * n), abs=1e-9
        )


def test_tree_capacity_guard():
    with pytest.raises(CapacityError):
        make_tree_class(14, 2)


def test_tree_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_tree_class(0, 1)
    with pytest.raises(ValueError):
        make_tree_class(2, 0)


# ---------------------------------------------------------------------------
# linear nets


def test_linear_net_d1():
    fc = make_linear_net_class(1, 0.3)
    assert fc.n_functions == 2
    np.testing.assert_allclose(np.sort(fc.means, axis=None), [0.0, 0.0, 1.0, 1.0])
    assert gamma(fc, 0.5).value == pytest.approx(0.5, abs=1e-9)
    assert gamma(fc, 1.0).value == pytest.approx(1.0, abs=1e-9)


def test_linear_net_d2_geometry():
    alpha = 0.4
    fc = make_linear_net_class(2, alpha)
    expected = max(3, int(np.ceil(np.pi / (2 * np.arcsin(alpha / 4)))))
    assert fc.n_functions == expected
    assert fc.n_arms == expected
    assert fc.means.min() >= 0.0 and fc.means.max() <= 1.0
    np.testing.assert_allclose(np.diag(fc.means), 1.0, atol=1e-12)


def test_linear_net_d3_size_and_diagonal():
    fc = make_linear_net_class(3, 0.5)
    assert fc.n_functions == int(np.ceil((7 / 0.5) ** 2))
    np.testing.assert_allclose(np.diag(fc.means), 1.0, atol=1e-9)
    assert fc.labels["gap_scale"] == pytest.approx(0.5)


def test_linear_net_rejects_bad_dimension():
    with pytest.raises(ValueError):
        make_linear_net_class(4, 0.3)
    with pytest.raises(ValueError):
        make_linear_net_class(2, 0.0)


def test_linear_net_symmetric_means():
    fc = make_linear_net_class(2, 0.5)
    np.testing.assert_allclose(fc.means, fc.means.T, atol=1e-12)


# ---------------------------------------------------------------------------
# piecewise uniform + histogram discretizer


def test_piecewise_uniform_density_and_mass():
    pw = PiecewiseUniform(
        breakpoints=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        masses=np.array([0.0, 0.5, 0.5, 0.0]),
    )
    assert pw.density(1.5) == pytest.approx(0.5)
    assert pw.density(0.5) == 0.0
    assert pw.density(10.0) == 0.0
    lo, hi = pw.coverage_interval(1e-6)
    assert lo == 0.0 and hi == 4.0


def test_piecewise_uniform_validation():
    with pytest.raises(ValueError):
        PiecewiseUniform(np.array([0.0, 1.0, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        PiecewiseUniform(np.array([0.0, 1.0, 2.0]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        # outermost buckets must carry zero mass (sentinels)
        PiecewiseUniform(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))


def test_piecewise_uniform_json_round_trip():
    pw = PiecewiseUniform(
        breakpoints=np.array([0.0, 1.0, 2.0, 3.0]),
        masses=np.array([0.0, 1.0, 0.0]),
    )
    back = PiecewiseUniform.from_json(to_json(pw))
    np.testing.assert_allclose(back.breakpoints, pw.breakpoints)
    np.testing.assert_allclose(back.masses, pw.masses)
    assert to_json(back) == to_json(pw)


def test_gaussian_lipschitz_bound_value():
    # max |d/dx phi| = 1 / (sigma^2 sqrt(2 pi e))
    assert gaussian_lipschitz_bound(1.0) == pytest.approx(
        1.0 / np.sqrt(2.0 * np.pi * np.e), abs=1e-12
    )
    assert gaussian_lipschitz_bound(0.5) == pytest.approx(
        4.0 / np.sqrt(2.0 * np.pi * np.e), abs=1e-12
    )


def test_histogram_quantile_anchor():
    hist = make_gaussian_histogram(0.0, 1.0, 0.1)
    # interior support starts at the eps/4 quantile of N(0,1)
    c1 = hist.breakpoints[1]
    assert c1 == pytest.approx(-1.9599639845400545, abs=1e-9)


def test_histogram_masses_form_distribution():
    hist = make_gaussian_histogram(0.5, 0.5, 0.05)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert hist.masses.min() >= 0.0
    assert hist.masses[0] == 0.0 and hist.masses[-1] == 0.0


def test_histogram_tv_within_eps():
    for mu, sigma, eps in ((0.0, 1.0, 0.1), (1.0, 0.5, 0.02)):
        hist = make_gaussian_histogram(mu, sigma, eps)
        assert tv_distance(hist, GaussianDensity(mu, sigma)) <= eps


def test_histogram_rejects_tiny_eps():
    with pytest.raises(PrecisionError):
        make_gaussian_histogram(0.0, 1.0, 5e-5)


def test_histogram_rejects_bad_mu_sigma():
    with pytest.raises(ValueError):
        make_gaussian_histogram(1.5, 1.0, 0.1)
    with pytest.raises(ValueError):
        make_gaussian_histogram(0.5, -1.0, 0.1)


def test_tv_distance_identical_zero():
    g = GaussianDensity(0.3, 0.7)
    assert tv_distance(g, g) <= 1e-6


def test_tv_distance_known_value():
    # TV(N(0,1), N(1,1)) = 2 Phi(1/2) - 1
    tv = tv_distance(GaussianDensity(0.0, 1.0), GaussianDensity(1.0, 1.0))
    assert tv == pytest.approx(0.38292492254802624, abs=1e-4)


def test_tv_distance_symmetry():
    a = GaussianDensity(0.0, 1.0)
    b = GaussianDensity(0.5, 0.8)
    assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-9)


@given(
    st.floats(0.0, 1.0),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(0.01, 0.3),
)
@settings(deadline=None, max_examples=15)
def test_histogram_tv_property(mu, sigma, eps):
    hist = make_gaussian_histogram(mu, sigma, eps)
    assert tv_distance(hist, GaussianDensity(mu, sigma)) <= eps
