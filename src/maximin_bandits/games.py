"""Exact maximin coverage games with primal and dual certificates.

The central quantity is the value of the zero-sum game

    max_{p in simplex(arms)}  min_{f}  (B p)_f

for a payoff matrix B (rows indexed by functions).  With B the alpha-optimal
indicator matrix of a function class this value is the best worst-case
probability that a single draw from p lands on an alpha-optimal arm, written
``gamma`` throughout.

The program is solved by a self-contained simplex on Tucker's condensed
tableau with Bland's anti-cycling rule; no external LP solver is involved.
The solve returns both players' optimal mixtures, so every value ships with
a machine-checkable primal/dual certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .core import ArmDistribution, FunctionClass, from_json, gap_matrix

__all__ = [
    "MaximinSolution",
    "GammaCertificate",
    "solve_maximin",
    "gamma",
    "verify_certificate",
]

_PIVOT_TOL = 1e-11

#: Slack within which ``verify_certificate`` accepts a gamma certificate.
CERTIFICATE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class MaximinSolution:
    """Optimal strategies of max_p min_f (B p)_f.

    ``p`` is the maximizing mixture over columns (arms) and ``dual`` the
    minimizing mixture over rows (functions); both are probability vectors.
    """

    value: float
    p: ArmDistribution
    dual: np.ndarray
    iterations: int


def solve_maximin(payoff) -> MaximinSolution:
    """Solve the matrix game max_p min_rows (B p) exactly.

    The payoff matrix is shifted to be strictly positive, the row player's
    normalized program (max 1'y subject to B' y <= 1, y >= 0) is solved by a
    primal simplex starting from the all-slack basis, and the column player's
    mixture is read off the final objective row.  The tableau holds only the
    nonbasic columns (a basic column is a unit vector); pivots and output are
    those of the full tableau, bit for bit.  Each pivot updates the tableau in
    place, through buffers allocated once per solve, with the same pivots and
    the same rounding as a fresh ``np.outer`` per pivot.  Bland's rule (lowest
    eligible variable index enters; ratio ties leave by lowest basis index)
    guarantees termination.
    """
    B = np.asarray(payoff, dtype=float)
    if B.ndim != 2 or B.shape[0] < 1 or B.shape[1] < 1:
        raise ValueError("payoff must be a nonempty matrix")
    if not np.all(np.isfinite(B)):
        raise ValueError("payoff entries must be finite")
    n_rows, n_cols = B.shape

    shift = 1.0 - min(0.0, float(B.min()))
    G = B + shift  # entries >= 1, so the shifted game value is positive

    # Tableau over y (one per function) and the arm slacks, nonbasic columns only
    # (column j is variable nonbasic[j]); the last row holds negated reduced costs.
    n_vars = n_rows + n_cols
    tab = np.zeros((n_cols + 1, n_rows + 1))
    tab[:n_cols, :n_rows] = G.T
    tab[:n_cols, -1] = 1.0
    tab[n_cols, :n_rows] = -1.0
    nonbasic = np.arange(n_rows)
    basis = np.arange(n_rows, n_vars)

    # Views and buffers the pivots reuse: the tableau is updated in place.
    cost = tab[n_cols, :n_rows]
    rhs = tab[:n_cols, -1]
    factor = np.empty(n_cols + 1)  # the entering column, then the row multipliers
    col = factor[:n_cols]
    feasible = np.empty(n_cols, dtype=bool)
    ratios = np.empty(n_cols)
    product = np.empty_like(tab)

    iterations = 0
    max_iterations = 50 * n_vars + 10_000
    while True:
        # Bland: the eligible variable of lowest index enters (indices are < n_vars)
        slot = int(np.where(cost < -_PIVOT_TOL, nonbasic, n_vars).argmin())
        if cost[slot] >= -_PIVOT_TOL:
            break
        np.copyto(factor, tab[:, slot])
        np.greater(col, _PIVOT_TOL, out=feasible)
        if not feasible.any():
            raise RuntimeError("maximin program unbounded; payoff matrix malformed")
        ratios.fill(inf)
        np.divide(rhs, col, out=ratios, where=feasible)
        best = float(ratios.min())
        tied = ratios <= best * (1.0 + 1e-12) + 1e-15
        # Bland again: of the rows tied in the ratio test, the lowest basis index leaves
        leave = int(np.where(tied, basis, n_vars).argmin())
        if not tied[leave]:
            # only a negative ratio (best < -1e-3) can fall below its own
            # threshold, so the basis has gone infeasible
            raise RuntimeError(
                f"simplex lost primal feasibility after {iterations} pivots "
                f"(min rhs {rhs.min():.3g})"
            )

        # The leaving unit column takes the entering one's place, then the
        # rank-1 update rounds as np.outer and -= do: a plain multiply, then a
        # subtract.  einsum would add the product into a zeroed output (a
        # -0.0 product turns +0.0), and matmul may fuse multiply and add.
        tab[:, slot] = 0.0
        tab[leave, slot] = 1.0
        row = tab[leave]
        row /= factor[leave]
        factor[leave] = 0.0
        np.copyto(product, factor[:, None])
        product *= row
        tab -= product
        nonbasic[slot], basis[leave] = basis[leave], nonbasic[slot]

        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("simplex failed to terminate")

    total = float(tab[n_cols, -1])  # sum of optimal y = 1 / shifted value
    if total <= 0:
        raise RuntimeError("degenerate optimum; payoff matrix malformed")
    value = 1.0 / total - shift

    y = np.zeros(n_vars)
    y[basis] = rhs
    dual = np.clip(y[:n_rows], 0.0, None)
    dual /= dual.sum()

    p_raw = np.zeros(n_vars)  # a basic variable's reduced cost is +0.0
    p_raw[nonbasic] = np.clip(cost, 0.0, None)
    p = p_raw[n_rows:] / p_raw[n_rows:].sum()

    return MaximinSolution(
        value=value, p=ArmDistribution(p), dual=dual, iterations=iterations
    )


@dataclass(frozen=True, eq=False)
class GammaCertificate:
    """Value of the alpha-optimal coverage game plus verifiable witnesses.

    ``p_star`` guarantees coverage >= value - tolerance against every
    function; ``dual_weights`` is a mixture over functions under which no
    single arm achieves coverage > value + tolerance, pinning the value from
    above.
    """

    value: float
    p_star: ArmDistribution
    worst_function: int
    dual_weights: np.ndarray
    alpha: float
    tolerance: float

    from_json = classmethod(from_json)


def gamma(fclass: FunctionClass, alpha: float) -> GammaCertificate:
    """Maximin probability of hitting an alpha-optimal arm, with certificate.

    Always positive for a finite class: the uniform mixture covers every
    function with probability at least 1/arms.
    """
    B = gap_matrix(fclass, alpha)
    sol = solve_maximin(B)
    coverage = B @ sol.p.probs
    cert = GammaCertificate(
        value=float(sol.value),
        p_star=sol.p,
        worst_function=int(np.argmin(coverage)),
        dual_weights=sol.dual,
        alpha=float(alpha),
        tolerance=CERTIFICATE_TOLERANCE,
    )
    if not verify_certificate(fclass, alpha, cert):
        raise RuntimeError("maximin solver produced an unverifiable certificate")
    return cert


def _as_probs(vec) -> np.ndarray:
    return np.asarray(getattr(vec, "probs", vec), dtype=float)


def verify_certificate(fclass: FunctionClass, alpha: float, cert) -> bool:
    """Independently re-check a coverage certificate.

    Recomputes the indicator matrix and tests (a) both mixtures live on the
    simplex, (b) min_f coverage of p_star >= value - tolerance, and (c) under
    the dual weights no arm attains coverage > value + tolerance.  Together
    (b) and (c) bracket the game value within 2 * tolerance.
    """
    B = gap_matrix(fclass, alpha)
    p = _as_probs(cert.p_star)
    lam = _as_probs(cert.dual_weights)
    if p.shape != (fclass.n_arms,) or lam.shape != (fclass.n_functions,):
        return False
    for vec in (p, lam):
        if not np.all(np.isfinite(vec)):
            return False
        if vec.min() < -1e-12 or abs(vec.sum() - 1.0) > 1e-9:
            return False
    if float((B @ p).min()) < cert.value - cert.tolerance:
        return False
    if float((lam @ B).max()) > cert.value + cert.tolerance:
        return False
    return True
