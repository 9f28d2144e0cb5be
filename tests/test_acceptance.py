"""End-to-end acceptance battery.

Each numbered test checks one shipped guarantee at its stated tolerance and
runtime budget, and records a single PASS/FAIL line that conftest prints in
the terminal summary.  Statistical checks use fixed master seeds and a slack
of three binomial standard deviations at the configured trial count.
"""

import functools
import math
import time

import numpy as np

import _acceptance_report
from maximin_bandits.core import (
    FunctionClass,
    Model,
    NoiseSpec,
    gap_matrix,
    sample_rewards,
    trial_seed,
)
from maximin_bandits.dec import dec_at, simplex_grid
from maximin_bandits.environments import (
    GaussianDensity,
    make_gaussian_histogram,
    make_k_armed,
    make_tree_class,
    tv_distance,
)
from maximin_bandits.estimators import median_of_means, mom_groups
from maximin_bandits.games import gamma, solve_maximin
from maximin_bandits.harness import (
    ExperimentConfig,
    adaptivity_experiment,
    certify_lower_bound,
    monte_carlo,
    records_to_csv,
    tree_descent_prober,
)
from maximin_bandits.learners import LearnerParams, run_e2d, run_tree_descent


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def criterion(number: int, title: str, budget_s: float | None):
    """Wrap a () -> (ok, detail) check with timing, reporting, and asserts."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                ok, detail = fn()
            except BaseException as exc:
                elapsed = time.perf_counter() - t0
                _acceptance_report.record(
                    number, title, False, f"error: {exc!r}", elapsed, budget_s
                )
                raise
            elapsed = time.perf_counter() - t0
            in_budget = budget_s is None or elapsed <= budget_s
            _acceptance_report.record(
                number, title, ok and in_budget, detail, elapsed, budget_s
            )
            assert ok, f"criterion {number} [{title}]: {detail}"
            assert in_budget, (
                f"criterion {number} [{title}] exceeded its runtime budget: "
                f"{elapsed:.1f}s > {budget_s}s"
            )

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# shared experiment runners (criterion 11 re-executes these for byte identity)

C3_SEED = 31001
C6_SEED = 61001
C10_SEED = 101001

_first_runs: dict[str, str] = {}


def run_c3_experiment():
    cfg = ExperimentConfig(
        class_spec={"constructor": "tree", "depth": 2, "bucket_size": 1},
        noise=NoiseSpec.bernoulli(),
        learner="empirical-mean",
        params=LearnerParams(alpha=0.2, delta=0.1),
        trials=500,
        seed=C3_SEED,
        experiment_id="acceptance-c3",
    )
    result = monte_carlo(cfg)
    return result, records_to_csv(result.records)


def run_c6_experiment():
    report = adaptivity_experiment(5, trials=2000, seed=C6_SEED)
    csv = records_to_csv(report.adaptive_records + report.non_adaptive_records)
    return report, csv


def run_c10_experiment():
    cfg = ExperimentConfig(
        class_spec={"constructor": "tree", "depth": 2, "bucket_size": 1},
        noise=NoiseSpec.bernoulli(),
        learner="e2d",
        params=LearnerParams(alpha=0.2, delta=0.2, horizon=400),
        trials=200,
        seed=C10_SEED,
        experiment_id="acceptance-c10",
    )
    result = monte_carlo(cfg)
    return result, records_to_csv(result.records)


# ---------------------------------------------------------------------------
# 1. closed-form game values


@criterion(1, "gamma closed forms", 10.0)
def test_criterion_01_gamma_closed_forms():
    worst = 0.0
    for k in range(1, 11):
        worst = max(worst, abs(gamma(make_k_armed(k), 0.1).value - 1.0 / k))
    for depth in range(1, 7):
        for bucket in range(1, 5):
            fclass, _ = make_tree_class(depth, bucket)
            expected = 1.0 / (2**depth * bucket)
            worst = max(worst, abs(gamma(fclass, 0.1).value - expected))
    ok = worst <= 1e-9
    return ok, f"k in 1..10 and trees d<=6 N<=4; max |value - closed form| = {worst:.2e} (tol 1e-9)"


# ---------------------------------------------------------------------------
# 2. LP vs brute-force grid


@criterion(2, "LP oracle equivalence", 60.0)
def test_criterion_02_lp_grid_equivalence():
    rng = np.random.default_rng(2024)
    grids = {a: simplex_grid(a, 0.02) for a in range(2, 6)}
    worst_gap = 0.0
    worst_duality = 0.0
    for _ in range(200):
        A = int(rng.integers(2, 6))
        F = int(rng.integers(2, 7))
        fclass = FunctionClass(rng.random((F, A)))
        alpha = float(rng.uniform(0.05, 1.0))
        B = gap_matrix(fclass, alpha).astype(float)
        sol = solve_maximin(B)
        grid_value = float((B @ grids[A].T).min(axis=0).max())
        worst_gap = max(worst_gap, abs(sol.value - grid_value))
        primal = float((B @ sol.p.probs).min())
        dual = float((np.asarray(sol.dual) @ B).max())
        worst_duality = max(worst_duality, dual - primal)
    ok = worst_gap <= 0.02 and worst_duality <= 2e-9
    return ok, (
        f"200 instances A<=5 F<=6: max |LP - grid(0.02)| = {worst_gap:.4f} (tol 0.02), "
        f"max duality gap = {worst_duality:.2e} (tol 2e-9)"
    )


# ---------------------------------------------------------------------------
# 3. empirical-mean learner guarantee


@criterion(3, "empirical-mean learner on the tree", 120.0)
def test_criterion_03_empirical_mean_guarantee():
    result, csv = run_c3_experiment()
    _first_runs["c3"] = csv
    threshold = 0.9 - three_sigma(0.9, 500)
    # closed-form schedule: m = ceil(ln(2/delta) / gamma(alpha/2)),
    # per-arm = ceil((8/alpha^2) ln(4m/delta))
    g_half = gamma(make_tree_class(2, 1)[0], 0.1).value
    m = math.ceil(math.log(2 / 0.1) / g_half)
    per_arm = math.ceil((8 / 0.2**2) * math.log(4 * m / 0.1))
    schedule = m * per_arm
    schedule_exact = all(r.queries == schedule for r in result.records)
    ok = result.success_rate >= threshold and schedule_exact
    return ok, (
        f"500 trials Bernoulli alpha=0.2 delta=0.1: success {result.success_rate:.3f} "
        f">= {threshold:.3f}; every trial used exactly {schedule} queries: {schedule_exact}"
    )


# ---------------------------------------------------------------------------
# 4. median-of-means learner guarantee


@criterion(4, "median-of-means learner on 3 arms", 180.0)
def test_criterion_04_mom_guarantee():
    threshold = 0.9 - three_sigma(0.9, 500)
    rates = {}
    for kind, noise, sigma in (
        ("gaussian", NoiseSpec.gaussian(1.0), 1.0),
        ("heavy-tail", NoiseSpec.heavy_tail(2.0), 2.0),
    ):
        cfg = ExperimentConfig(
            class_spec={"constructor": "k-armed", "k": 3},
            noise=noise,
            learner="median-of-means",
            params=LearnerParams(alpha=0.3, delta=0.1, sigma=sigma),
            trials=500,
            seed=41001,
            experiment_id=f"acceptance-c4-{kind}",
        )
        rates[kind] = monte_carlo(cfg).success_rate
    ok = all(rate >= threshold for rate in rates.values())
    return ok, (
        f"500 trials each alpha=0.3 delta=0.1: gaussian(1) {rates['gaussian']:.3f}, "
        f"heavy-tail(2) {rates['heavy-tail']:.3f}, both >= {threshold:.3f}"
    )


# ---------------------------------------------------------------------------
# 5. median-of-means tail bound


@criterion(5, "median-of-means tail bound", 60.0)
def test_criterion_05_mom_tail_bound():
    mu, n, trials = 0.25, 120, 1000  # dyadic mean: zero-noise deviation is exactly 0
    fclass = FunctionClass(np.array([[mu]]))
    specs = (
        NoiseSpec.deterministic(),
        NoiseSpec.bernoulli(),
        NoiseSpec.gaussian(1.0),
        NoiseSpec.two_point(0.25),
        NoiseSpec.heavy_tail(1.5),
    )
    worst_excess = -1.0
    details = []
    ok = True
    for delta in (0.1, 0.05):
        groups = mom_groups(delta)
        bound = delta + three_sigma(delta, trials)
        for noise in specs:
            sigma = math.sqrt(noise.variance_bound(mu))
            threshold = 4.0 * sigma * math.sqrt(math.log(1.0 / delta) / n)
            model = Model(fclass, 0, noise)
            exceed = 0
            for i in range(trials):
                rng = np.random.default_rng(trial_seed(51001, i))
                samples = sample_rewards(model, 0, n, rng)
                est = median_of_means(samples, groups)
                exceed += abs(est - mu) > threshold
            rate = exceed / trials
            ok = ok and rate <= bound
            worst_excess = max(worst_excess, rate - bound)
            details.append(f"{noise.kind}@{delta}:{rate:.3f}")
    return ok, (
        f"cM=4, n={n}, 1000 trials per kind, deltas 0.1/0.05; exceed rates all within "
        f"delta + 3 sigma (worst margin {worst_excess:+.3f}): " + " ".join(details)
    )


# ---------------------------------------------------------------------------
# 6. adaptive vs non-adaptive separation


@criterion(6, "adaptivity separation", 180.0)
def test_criterion_06_adaptivity():
    report, csv = run_c6_experiment()
    _first_runs["c6"] = csv

    depths = np.arange(3, 9)
    queries = []
    for depth in depths:
        fclass, meta = make_tree_class(int(depth), 1)
        params = LearnerParams(alpha=0.2, delta=0.1)
        model = Model(fclass, 0, NoiseSpec.deterministic())
        transcript = run_tree_descent(meta, params, model, seed=int(depth))
        queries.append(transcript.total_queries)
    c2, c1, _ = np.polyfit(depths, np.array(queries, dtype=float), 2)
    linear_growth = c1 > 0 and abs(c2) * depths[-1] ** 2 <= 0.05 * queries[-1]

    ok = (
        report.non_adaptive_failure_rate >= 0.45
        and report.adaptive_success_rate >= 0.9
        and linear_growth
    )
    return ok, (
        f"d=5, 2000 trials, budget {report.non_adaptive_budget}: non-adaptive failure "
        f"{report.non_adaptive_failure_rate:.3f} >= 0.45, adaptive success "
        f"{report.adaptive_success_rate:.3f} >= 0.9; queries over d=3..8 {queries} fit "
        f"slope {c1:.1f} > 0 with |quad|*d^2 = {abs(c2) * 64:.0f} <= {0.05 * queries[-1]:.0f}"
    )


# ---------------------------------------------------------------------------
# 7. coin-flip lower-bound certificate


@criterion(7, "lower-bound certificate", 60.0)
def test_criterion_07_lower_bound_certificate():
    fclass, meta = make_tree_class(1, 1)
    report = certify_lower_bound(
        fclass, tree_descent_prober(meta), alpha=0.2, delta=0.1,
        trials=100_000, seed=71001,
    )
    floor = report.bound - report.slack
    ok = report.budget == 2 and report.min_coverage >= floor and report.certified
    return ok, (
        f"tree d=1 at T={report.budget}, 1e5 Bernoulli(1/2) trials: min coverage "
        f"{report.min_coverage:.4f} >= (1-0.1)*2^-2 - 3sigma = {floor:.4f}"
    )


# ---------------------------------------------------------------------------
# 8. Gaussian histogram discretizer


@criterion(8, "Gaussian discretizer", 30.0)
def test_criterion_08_discretizer():
    worst_ratio = 0.0
    for mu in (0.0, 0.5, 1.0):
        for sigma in (0.5, 1.0):
            for eps in (0.1, 0.02):
                hist = make_gaussian_histogram(mu, sigma, eps)
                tv = tv_distance(hist, GaussianDensity(mu, sigma))
                worst_ratio = max(worst_ratio, tv / eps)
    c1 = make_gaussian_histogram(0.0, 1.0, 0.1).breakpoints[1]
    c1_ok = abs(c1 - (-1.96)) <= 0.01
    ok = worst_ratio <= 1.0 and c1_ok
    return ok, (
        f"12-point grid: max tv/eps = {worst_ratio:.3f} <= 1; "
        f"c1(mu=0,sigma=1,eps=0.1) = {c1:.4f} within 0.01 of -1.96"
    )


# ---------------------------------------------------------------------------
# 9. decision-estimation values


def _brute_force_dec(fclass, weights, eps, alpha, resolution):
    f_bar = weights @ fclass.means
    B = gap_matrix(fclass, alpha).astype(float)
    n = fclass.n_arms
    candidates = list(simplex_grid(n, resolution))
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
            value = min(1.0, max(0.0, 1.0 - solve_maximin(B[members]).value))
        best = min(best, value)
    return best


@criterion(9, "decision-estimation values", 120.0)
def test_criterion_09_dec_values():
    # vacuous two-arm value
    k2 = make_k_armed(2)
    vacuous = dec_at(k2, np.array([0.5, 0.5]), math.sqrt(2.0), 0.5, resolution=0.05).value
    vacuous_ok = abs(vacuous - 0.5) <= 0.01

    # in-class anchors with tiny eps collapse to 0
    zeros_ok = True
    for fclass in (make_k_armed(3), make_tree_class(2, 1)[0]):
        point_mass = np.eye(fclass.n_functions)[0]
        zeros_ok = zeros_ok and dec_at(
            fclass, point_mass, 1e-3, 0.3, resolution=0.2
        ).value == 0.0

    # monotone in eps, antitone in alpha on 50 random instances
    rng = np.random.default_rng(91001)
    monotone_ok = True
    for _ in range(50):
        F = int(rng.integers(2, 5))
        A = int(rng.integers(2, 4))
        fclass = FunctionClass(rng.random((F, A)))
        anchor = rng.dirichlet(np.ones(F))
        by_eps = [
            dec_at(fclass, anchor, eps, 0.3, resolution=0.2).value
            for eps in (0.1, 0.3, 0.6, 1.2)
        ]
        by_alpha = [
            dec_at(fclass, anchor, 0.4, alpha, resolution=0.2).value
            for alpha in (0.1, 0.3, 0.6, 0.9)
        ]
        monotone_ok = monotone_ok and all(
            a <= b + 1e-12 for a, b in zip(by_eps, by_eps[1:])
        )
        monotone_ok = monotone_ok and all(
            a >= b - 1e-12 for a, b in zip(by_alpha, by_alpha[1:])
        )

    # brute-force equivalence at resolution 0.05 for A <= 3, F <= 4
    rng = np.random.default_rng(91002)
    brute_worst = 0.0
    for _ in range(20):
        F = int(rng.integers(2, 5))
        A = int(rng.integers(2, 4))
        fclass = FunctionClass(rng.random((F, A)))
        weights = rng.dirichlet(np.ones(F))
        eps = float(rng.uniform(0.05, 0.9))
        alpha = float(rng.uniform(0.1, 0.9))
        got = dec_at(fclass, weights, eps, alpha, resolution=0.05).value
        want = _brute_force_dec(fclass, weights, eps, alpha, 0.05)
        brute_worst = max(brute_worst, abs(got - want))

    ok = vacuous_ok and zeros_ok and monotone_ok and brute_worst <= 1e-12
    return ok, (
        f"two-arm vacuous {vacuous:.3f} = 0.5 +- 0.01; in-class anchors -> 0: {zeros_ok}; "
        f"eps/alpha monotone on 50 instances: {monotone_ok}; max brute-force gap "
        f"{brute_worst:.1e}"
    )


# ---------------------------------------------------------------------------
# 10. E2D learner


@criterion(10, "e2d learner with regression oracle", 300.0)
def test_criterion_10_e2d():
    result, csv = run_c10_experiment()
    _first_runs["c10"] = csv
    threshold = 0.8 - three_sigma(0.8, 200)

    # EST contract, re-derived on the same seed chain the harness uses
    fclass, _ = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.2, horizon=400)
    est_ok = 0
    for i in range(200):
        ts = trial_seed(C10_SEED, i)
        model_rng = np.random.default_rng(trial_seed(ts, 0))
        true_f = int(model_rng.integers(fclass.n_functions))
        model = Model(fclass, true_f, NoiseSpec.bernoulli())
        transcript = run_e2d(params, model, trial_seed(ts, 1))
        est_ok += transcript.meta["est_error"] <= transcript.meta["est_bound"]
    est_rate = est_ok / 200

    ok = result.success_rate >= threshold and est_rate >= 1.0 - 0.2
    return ok, (
        f"tree d=2 N=1, alpha=0.2 delta=0.2 T=400, 200 trials: success "
        f"{result.success_rate:.3f} >= {threshold:.3f}; EST contract held in "
        f"{est_rate:.3f} of trials (>= 0.8)"
    )


# ---------------------------------------------------------------------------
# 11. reproducibility


@criterion(11, "byte-identical reruns", None)
def test_criterion_11_reproducibility():
    outcomes = {}
    for key, runner in (
        ("c3", run_c3_experiment),
        ("c6", run_c6_experiment),
        ("c10", run_c10_experiment),
    ):
        baseline = _first_runs.get(key)
        if baseline is None:
            baseline = runner()[1]
        rerun = runner()[1]
        outcomes[key] = baseline == rerun
    ok = all(outcomes.values())
    return ok, (
        "same master seed, independent executions: CSV bytes identical for "
        f"criterion 3 {outcomes['c3']}, criterion 6 {outcomes['c6']}, "
        f"criterion 10 {outcomes['c10']}"
    )
