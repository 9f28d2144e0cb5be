from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maximin_bandits import games
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
# the condensed tableau against the full one


def full_tableau_maximin(payoff):
    """The solver as it was before its tableau dropped the basic columns,
    frozen as the reference: (value, p, dual, iterations)."""
    B = np.asarray(payoff, dtype=float)
    if B.ndim != 2 or B.shape[0] < 1 or B.shape[1] < 1:
        raise ValueError("payoff must be a nonempty matrix")
    if not np.all(np.isfinite(B)):
        raise ValueError("payoff entries must be finite")
    n_rows, n_cols = B.shape
    shift = 1.0 - min(0.0, float(B.min()))
    G = B + shift
    n_vars = n_rows + n_cols
    tab = np.zeros((n_cols + 1, n_vars + 1))
    tab[:n_cols, :n_rows] = G.T
    tab[:n_cols, n_rows:n_vars] = np.eye(n_cols)
    tab[:n_cols, -1] = 1.0
    tab[n_cols, :n_rows] = -1.0
    basis = list(range(n_rows, n_vars))
    iterations = 0
    max_iterations = 50 * n_vars + 10_000
    while True:
        negative = np.flatnonzero(tab[n_cols, :n_vars] < -1e-11)
        if negative.size == 0:
            break
        enter = int(negative[0])
        col = tab[:n_cols, enter]
        feasible = col > 1e-11
        if not feasible.any():
            raise RuntimeError("maximin program unbounded; payoff matrix malformed")
        ratios = np.full(n_cols, np.inf)
        ratios[feasible] = tab[:n_cols, -1][feasible] / col[feasible]
        best = ratios.min()
        tied = np.flatnonzero(ratios <= best * (1.0 + 1e-12) + 1e-15)
        if tied.size == 0:
            raise RuntimeError(
                f"simplex lost primal feasibility after {iterations} pivots "
                f"(min rhs {tab[:n_cols, -1].min():.3g})"
            )
        leave = int(min(tied, key=lambda i: basis[i]))
        pivot = tab[leave, enter]
        tab[leave] /= pivot
        factor = tab[:, enter].copy()
        factor[leave] = 0.0
        tab -= np.outer(factor, tab[leave])
        basis[leave] = enter
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("simplex failed to terminate")
    total = float(tab[n_cols, -1])
    if total <= 0:
        raise RuntimeError("degenerate optimum; payoff matrix malformed")
    value = 1.0 / total - shift
    y = np.zeros(n_vars)
    for i, b in enumerate(basis):
        y[b] = tab[i, -1]
    dual = np.clip(y[:n_rows], 0.0, None)
    dual /= dual.sum()
    p_raw = np.clip(tab[n_cols, n_rows:n_vars], 0.0, None)
    return value, p_raw / p_raw.sum(), dual, iterations


def _outcome(solve, payoff):
    """Everything a solve shows, as bytes: the value's hex digits, p, the
    dual and the pivot count, or the exception's type and text."""
    try:
        value, p, dual, iterations = solve(payoff)
    except (ValueError, RuntimeError) as err:
        return type(err).__name__, str(err)
    return value.hex(), np.asarray(p).tobytes(), np.asarray(dual).tobytes(), iterations


def _condensed(payoff):
    sol = solve_maximin(payoff)
    return sol.value, sol.p.probs, sol.dual, sol.iterations


def _seeded_matrices():
    """About 200 seeded payoff matrices of the kinds the solver meets."""
    rng = np.random.default_rng(2024)
    out = []
    for density in (0.1, 0.3, 0.5, 0.8):
        for _ in range(30):
            shape = rng.integers(1, 25, size=2)
            out.append((rng.random(shape) < density).astype(float))
    for _ in range(34):
        out.append(rng.standard_normal(rng.integers(1, 20, size=2)))
    for _ in range(34):
        out.append(rng.integers(-3, 4, size=rng.integers(1, 20, size=2)).astype(float))
    zero_row = (rng.random((8, 6)) < 0.4).astype(float)
    zero_row[3] = 0.0
    out += [np.ones((5, 7)), zero_row, rng.random((1, 9)), rng.random((9, 1)),
            (rng.random((1, 12)) < 0.5).astype(float), np.ones((6, 1))]
    return out


def test_condensed_tableau_matches_the_full_one_bit_for_bit():
    payoffs = _seeded_matrices()
    payoffs += [gap_matrix(make_tree_class(d, 1)[0], 0.1).astype(float) for d in range(2, 7)]
    payoffs += [gap_matrix(make_linear_net_class(2, 0.1), a).astype(float) for a in (0.1, 0.3)]
    # loses primal feasibility after 1133 pivots
    payoffs.append(gap_matrix(make_linear_net_class(3, 0.7), 0.5).astype(float))
    # gamma-lp's random 0/1 classes, where several rows tie in most ratio tests
    rng = np.random.default_rng(15)
    payoffs += [(rng.random(rng.integers(40, 81, size=2)) < 0.3).astype(float) for _ in range(4)]
    # the 545-point net: loses primal feasibility after 204 pivots
    payoffs.append(gap_matrix(make_linear_net_class(3, 0.3), 0.3).astype(float))
    payoffs += [np.array([[np.nan, 1.0]]), np.array([1.0, 2.0])]
    assert len(payoffs) >= 200
    mismatched = [
        i for i, B in enumerate(payoffs)
        if _outcome(_condensed, B) != _outcome(full_tableau_maximin, B)
    ]
    assert mismatched == []


def test_solver_memory_stays_near_one_condensed_tableau():
    # the full tableau alone would be (arms + 1)(functions + arms + 1) floats,
    # about 3x the condensed one on this class
    import tracemalloc

    B = gap_matrix(make_tree_class(7, 1)[0], 0.1).astype(float)
    n_rows, n_cols = B.shape
    tracemalloc.start()
    try:
        solve_maximin(B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * (n_cols + 1) * (n_rows + 1) * 8


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


@pytest.mark.parametrize("field", ["p_star", "dual_weights"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verify_certificate_rejects_a_non_finite_mixture(field, bad):
    fc = make_k_armed(3)
    cert = gamma(fc, 0.5)
    forged = replace(cert, **{field: np.array([bad, 0.5, 0.5])})
    assert not verify_certificate(fc, 0.5, forged)


def test_verify_certificate_rejects_a_dual_above_the_value():
    # p_star still covers every function with 1/3, but the dual's point mass
    # on function 0 lets arm 0 cover it with probability 1 > 1/3 + tolerance
    fc = make_k_armed(3)
    cert = gamma(fc, 0.5)
    assert float((gap_matrix(fc, 0.5) @ cert.p_star.probs).min()) >= cert.value - cert.tolerance
    forged = replace(cert, dual_weights=np.array([1.0, 0.0, 0.0]))
    assert not verify_certificate(fc, 0.5, forged)


def test_gamma_raises_on_an_unverifiable_certificate(monkeypatch):
    monkeypatch.setattr(games, "verify_certificate", lambda fclass, alpha, cert: False)
    with pytest.raises(RuntimeError, match="unverifiable certificate"):
        gamma(make_k_armed(3), 0.5)


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
