from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maximin_bandits.core import FunctionClass, gap_matrix, to_json
from maximin_bandits.games import (
    GammaCertificate,
    gamma,
    solve_maximin,
    verify_certificate,
)
from maximin_bandits.environments import (
    make_k_armed,
    make_linear_net_class,
    make_singletons,
    make_tree_class,
)


def grid_maximin(payoff: np.ndarray, resolution: float) -> float:
    """Independent brute-force oracle: max over a simplex grid of min_f B p."""
    from maximin_bandits.dec import simplex_grid

    grid = simplex_grid(payoff.shape[1], resolution)
    values = payoff @ grid.T
    return float(values.min(axis=0).max())


# ---------------------------------------------------------------------------
# solve_maximin on hand-checkable matrices


def test_identity_matrix_value():
    sol = solve_maximin(np.eye(3))
    assert sol.value == pytest.approx(1.0 / 3.0, abs=1e-9)
    np.testing.assert_allclose(sol.p.probs, 1.0 / 3.0, atol=1e-9)
    np.testing.assert_allclose(np.asarray(sol.dual), 1.0 / 3.0, atol=1e-9)


def test_all_ones_matrix_value():
    sol = solve_maximin(np.ones((4, 2)))
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_all_zeros_matrix_value():
    sol = solve_maximin(np.zeros((2, 3)))
    assert sol.value == pytest.approx(0.0, abs=1e-9)


def test_dominant_column():
    # arm 1 covers both functions; optimum puts all mass there
    B = np.array([[0.0, 1.0], [1.0, 1.0]])
    sol = solve_maximin(B)
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.p.probs[1] == pytest.approx(1.0, abs=1e-9)


def test_fractional_payoff_matrix():
    # value of [[2/3, 0], [0, 1/3]]: maximin at p = (1/3, 2/3), value 2/9
    B = np.array([[2.0 / 3.0, 0.0], [0.0, 1.0 / 3.0]])
    sol = solve_maximin(B)
    assert sol.value == pytest.approx(2.0 / 9.0, abs=1e-9)
    np.testing.assert_allclose(sol.p.probs, [1.0 / 3.0, 2.0 / 3.0], atol=1e-8)


def test_negative_entries_are_shifted_correctly():
    B = np.array([[-1.0, 1.0], [1.0, -1.0]])
    sol = solve_maximin(B)
    assert sol.value == pytest.approx(0.0, abs=1e-9)


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_maximin(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        solve_maximin(np.array([[np.nan, 1.0]]))


def test_lost_feasibility_is_a_solver_error():
    # the 545-point net drives a basic variable to -0.035 after 204 pivots;
    # the ratio test's tie set is then empty, which used to escape as an
    # unrelated ValueError from min()
    fc = make_linear_net_class(3, 0.3)
    with pytest.raises(RuntimeError, match=r"lost primal feasibility after 204 pivots \(min rhs -0\.0348\)"):
        gamma(fc, 0.3)


def test_duality_gap_reported_by_witnesses():
    rng = np.random.default_rng(0)
    for _ in range(20):
        B = rng.random((rng.integers(2, 6), rng.integers(2, 6)))
        sol = solve_maximin(B)
        primal = float((B @ sol.p.probs).min())
        dual = float((np.asarray(sol.dual) @ B).max())
        assert primal >= sol.value - 2e-9
        assert dual <= sol.value + 2e-9
        assert dual - primal <= 2e-9 + 1e-12 or abs(dual - primal) <= 2e-9


# ---------------------------------------------------------------------------
# gamma on constructed classes


def test_gamma_k_armed_closed_form():
    for k in (1, 2, 5):
        cert = gamma(make_k_armed(k), 0.3)
        assert cert.value == pytest.approx(1.0 / k, abs=1e-9)


def test_gamma_alpha_one_is_total():
    cert = gamma(make_k_armed(4), 1.0)
    assert cert.value == pytest.approx(1.0, abs=1e-9)


def test_gamma_singletons_closed_form():
    cert = gamma(make_singletons(6), 0.5)
    assert cert.value == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_gamma_tree_closed_form():
    fclass, _ = make_tree_class(2, 2)
    cert = gamma(fclass, 0.1)
    assert cert.value == pytest.approx(1.0 / 8.0, abs=1e-9)


def test_gamma_tree_above_branch_threshold():
    # at alpha >= 1/3 the on-branch internal arms become alpha-optimal too,
    # so coverage beats the bucket-uniform value
    fclass, _ = make_tree_class(2, 1)
    low = gamma(fclass, 0.2).value
    high = gamma(fclass, 0.4).value
    assert low == pytest.approx(0.25, abs=1e-9)
    assert high > low + 1e-9


def test_gamma_certificate_json_round_trip():
    cert = gamma(make_k_armed(3), 0.4)
    back = GammaCertificate.from_json(to_json(cert))
    assert back.value == pytest.approx(cert.value, abs=1e-12)
    np.testing.assert_allclose(back.p_star.probs, cert.p_star.probs)
    assert back.alpha == cert.alpha
    assert to_json(back) == to_json(cert)


def test_gamma_rejects_alpha_out_of_range():
    with pytest.raises(ValueError):
        gamma(make_k_armed(2), 0.0)
    with pytest.raises(ValueError):
        gamma(make_k_armed(2), 1.0001)


# ---------------------------------------------------------------------------
# grid cross-check


def test_lp_matches_grid_oracle_small():
    rng = np.random.default_rng(42)
    for _ in range(25):
        F = int(rng.integers(2, 5))
        A = int(rng.integers(2, 4))
        fc = FunctionClass(rng.random((F, A)))
        alpha = float(rng.uniform(0.05, 1.0))
        B = gap_matrix(fc, alpha).astype(float)
        lp = solve_maximin(B).value
        grid = grid_maximin(B, 0.05)
        assert grid <= lp + 1e-9
        assert lp - grid <= 0.05 + 1e-9


# ---------------------------------------------------------------------------
# certificate verification


def test_verify_certificate_accepts_genuine():
    fc = make_k_armed(3)
    cert = gamma(fc, 0.5)
    assert verify_certificate(fc, 0.5, cert)


def test_verify_certificate_rejects_inflated_value():
    fc = make_k_armed(3)
    cert = gamma(fc, 0.5)
    forged = SimpleNamespace(
        value=cert.value + 0.1,
        p_star=cert.p_star,
        dual_weights=cert.dual_weights,
        tolerance=cert.tolerance,
    )
    assert not verify_certificate(fc, 0.5, forged)


def test_verify_certificate_rejects_off_simplex_witness():
    fc = make_k_armed(3)
    cert = gamma(fc, 0.5)
    forged = SimpleNamespace(
        value=cert.value,
        p_star=np.array([0.5, 0.5, 0.5]),
        dual_weights=cert.dual_weights,
        tolerance=cert.tolerance,
    )
    assert not verify_certificate(fc, 0.5, forged)


def test_verify_certificate_rejects_wrong_shape():
    fc = make_k_armed(3)
    cert = gamma(fc, 0.5)
    forged = SimpleNamespace(
        value=cert.value,
        p_star=np.array([0.5, 0.5]),
        dual_weights=cert.dual_weights,
        tolerance=cert.tolerance,
    )
    assert not verify_certificate(fc, 0.5, forged)


# ---------------------------------------------------------------------------
# hypothesis properties


@st.composite
def random_class(draw):
    F = draw(st.integers(1, 5))
    A = draw(st.integers(1, 4))
    cells = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=F * A,
            max_size=F * A,
        )
    )
    return FunctionClass(np.array(cells).reshape(F, A))


@given(random_class(), st.floats(0.05, 0.95), st.floats(0.0, 0.5))
@settings(deadline=None, max_examples=40)
def test_gamma_monotone_in_alpha(fc, alpha, bump):
    lo = gamma(fc, alpha).value
    hi = gamma(fc, min(1.0, alpha + bump)).value
    assert lo <= hi + 1e-9


@given(random_class(), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_gamma_row_monotone(fc, alpha, seed):
    # adding a function can only make the adversary stronger
    base = gamma(fc, alpha).value
    extra = np.random.default_rng(seed).uniform(0.0, 1.0, fc.n_arms)
    bigger = FunctionClass(np.vstack([fc.means, extra[None, :]]))
    assert gamma(bigger, alpha).value <= base + 1e-9


@pytest.mark.parametrize("dim,alpha", [(1, 0.2), (2, 0.3), (2, 0.15), (3, 0.5)])
def test_linear_net_gamma_at_least_uniform(dim, alpha):
    fc = make_linear_net_class(dim, alpha)
    # each net function has its own near-optimal arm, so uniform play over
    # the net covers every function with probability at least 1/|net|
    assert gamma(fc, alpha).value >= 1.0 / fc.n_functions - 1e-9


@given(random_class(), st.floats(0.05, 1.0))
@settings(deadline=None, max_examples=40)
def test_gamma_bounds_and_witness(fc, alpha):
    cert = gamma(fc, alpha)
    # every function has at least one alpha-optimal arm, so uniform play
    # guarantees coverage 1/A
    assert cert.value >= 1.0 / fc.n_arms - 1e-9
    assert cert.value <= 1.0 + 1e-9
    B = gap_matrix(fc, alpha).astype(float)
    assert float((B @ cert.p_star.probs).min()) >= cert.value - 2e-9
