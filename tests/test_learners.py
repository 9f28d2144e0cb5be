import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from maximin_bandits import core
from maximin_bandits.core import (
    ArmDistribution,
    FunctionClass,
    Model,
    NoiseSpec,
    Transcript,
    block_rows,
    sample_rewards,
    to_json,
)
from maximin_bandits.environments import make_k_armed, make_singletons, make_tree_class
from maximin_bandits.estimators import (
    chernoff_sample_count,
    median_of_means,
    mom_groups,
    row_medians_of_means,
)
from maximin_bandits import learners
from maximin_bandits.games import gamma
from maximin_bandits.learners import (
    LearnerParams,
    OnlineRegressionOracle,
    _row_products,
    _running_sum,
    UnlearnableInstanceError,
    descend_tree,
    est_bound,
    oracle_weights,
    run_e2d,
    run_empirical_mean_learner,
    run_median_of_means_learner,
    run_non_adaptive_uniform,
    run_non_adaptive_uniform_trials,
    run_tree_descent,
    run_tree_descent_trials,
)

from _tree_oracle import (
    bucket_arms_of,
    function_index,
    internal_arm_of,
    leaf_of_function,
    optimal_arm_of,
    path_to_leaf,
)


# ---------------------------------------------------------------------------
# LearnerParams


def test_learner_params_validation():
    with pytest.raises(ValueError):
        LearnerParams(alpha=0.0, delta=0.1)
    with pytest.raises(ValueError):
        LearnerParams(alpha=0.2, delta=1.0)
    with pytest.raises(ValueError):
        LearnerParams(alpha=0.2, delta=0.1, sigma=-1.0)
    for sigma in (math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            LearnerParams(alpha=0.2, delta=0.1, sigma=sigma)


def test_learner_params_json_rejects_non_numbers():
    base = {"alpha": 0.2, "delta": 0.1}
    for key, bad in [("sigma", "wide"), ("budget", "ten"), ("budget", 2.5),
                     ("horizon", "T"), ("reps_per_arm", 1.5), ("alpha", None),
                     ("horizon", True)]:
        with pytest.raises(ValueError, match=f"params.{key} must be"):
            LearnerParams.from_json({**base, key: bad})
    p = LearnerParams.from_json({**base, "sigma": 1, "budget": 3.0})
    assert (p.sigma, p.budget) == (1.0, 3)
    assert type(p.sigma) is float and type(p.budget) is int


def test_learner_params_json_aliases():
    # every field round-trips under its one canonical name
    p = LearnerParams(alpha=0.2, delta=0.1, sigma=1.5, horizon=400, budget=7, reps_per_arm=3)
    doc = to_json(p)
    assert list(doc) == ["alpha", "delta", "sigma", "horizon", "budget", "reps_per_arm"]
    assert LearnerParams.from_json(doc) == p
    assert to_json(LearnerParams.from_json({"alpha": 0.2, "delta": 0.1})) == {
        "alpha": 0.2, "delta": 0.1}


@pytest.mark.parametrize("key", ["cM", "T", "horizn", "c_m"])
def test_learner_params_json_rejects_unknown_keys(key):
    with pytest.raises(ValueError, match=f"unknown params key params.{key} "):
        LearnerParams.from_json({"alpha": 0.2, "delta": 0.1, key: 4})


# ---------------------------------------------------------------------------
# empirical-mean learner


def test_empirical_mean_frozen_schedule():
    fclass = make_singletons(4)
    params = LearnerParams(alpha=0.5, delta=0.25)
    model = Model(fclass, 1, NoiseSpec.bernoulli())
    t = run_empirical_mean_learner(params, model, seed=0)
    # gamma(alpha/2) = 1/4 -> m = ceil(4 ln 8) = 9; per-arm = ceil(32 ln 144) = 160
    assert t.meta["m"] == 9
    assert t.meta["per_arm"] == 160
    assert t.total_queries == 9 * 160 == 1440


def test_empirical_mean_schedule_is_reward_independent():
    fclass = make_singletons(4)
    params = LearnerParams(alpha=0.5, delta=0.25)
    t_a = run_empirical_mean_learner(
        params, Model(fclass, 0, NoiseSpec.bernoulli()), seed=33
    )
    t_b = run_empirical_mean_learner(
        params, Model(fclass, 3, NoiseSpec.bernoulli()), seed=33
    )
    np.testing.assert_array_equal(t_a.arms, t_b.arms)


def test_empirical_mean_succeeds_under_deterministic_noise():
    fclass = make_k_armed(5)
    params = LearnerParams(alpha=0.3, delta=0.2)
    for f in range(5):
        model = Model(fclass, f, NoiseSpec.deterministic())
        t = run_empirical_mean_learner(params, model, seed=f)
        assert t.output_arm == f


def test_empirical_mean_rejects_unbounded_noise():
    fclass = make_k_armed(3)
    params = LearnerParams(alpha=0.3, delta=0.1)
    model = Model(fclass, 0, NoiseSpec.gaussian(1.0))
    with pytest.raises(ValueError):
        run_empirical_mean_learner(params, model, seed=0)


def test_empirical_mean_unlearnable_certificate_aborts_before_queries():
    fclass = make_k_armed(3)
    params = LearnerParams(alpha=0.3, delta=0.1)
    model = Model(fclass, 0, NoiseSpec.bernoulli())
    forged = SimpleNamespace(
        value=0.0,
        p_star=ArmDistribution.uniform(3),
        dual_weights=np.full(3, 1.0 / 3.0),
        alpha=0.15,
        tolerance=1e-9,
    )
    with pytest.raises(UnlearnableInstanceError):
        run_empirical_mean_learner(params, model, seed=0, cert=forged)


def test_empirical_mean_ties_break_to_least_draw_index():
    # deterministic rewards, two optimal arms: the first drawn wins
    fclass = make_k_armed(2)
    params = LearnerParams(alpha=0.9, delta=0.3)
    model = Model(fclass, 0, NoiseSpec.deterministic())
    t = run_empirical_mean_learner(params, model, seed=5)
    per_arm = t.meta["per_arm"]
    block_means = t.rewards.reshape(-1, per_arm).mean(axis=1)
    best = int(np.argmax(block_means))
    assert t.output_arm == t.arms[best * per_arm]


def test_empirical_mean_trial_allocates_no_arm_log():
    # The arm log stays as (arm, run length) pairs, so a trial's peak
    # allocation is about its reward log: 192 draws x 1,790 queries here.
    fclass, _ = make_tree_class(6, 1)
    params = LearnerParams(alpha=0.2, delta=0.1)
    cert = gamma(fclass, params.alpha / 2.0)
    model = Model(fclass, 0, NoiseSpec.bernoulli())
    # a first trial imports numpy.random if nothing has yet; measure the second
    run_empirical_mean_learner(params, model, seed=0, cert=cert)
    tracemalloc.start()
    try:
        t = run_empirical_mean_learner(params, model, seed=0, cert=cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (t.meta["m"], t.meta["per_arm"]) == (192, 1790)
    assert peak < 1.1 * t.rewards.nbytes


# ---------------------------------------------------------------------------
# median-of-means learner


def test_mom_learner_requires_sigma():
    fclass = make_k_armed(3)
    params = LearnerParams(alpha=0.3, delta=0.1)
    model = Model(fclass, 0, NoiseSpec.gaussian(1.0))
    with pytest.raises(ValueError):
        run_median_of_means_learner(params, model, seed=0)


def test_mom_learner_schedule_and_meta():
    fclass = make_k_armed(3)
    params = LearnerParams(alpha=0.3, delta=0.1, sigma=1.0)
    model = Model(fclass, 2, NoiseSpec.gaussian(1.0))
    t = run_median_of_means_learner(params, model, seed=1)
    assert t.meta["m"] == 9
    assert t.meta["per_arm"] == 3693
    assert t.meta["groups"] == mom_groups(0.1) == 3
    assert t.total_queries == 9 * 3693


def test_mom_learner_variance_contract():
    fclass = make_k_armed(3)
    params = LearnerParams(alpha=0.3, delta=0.1, sigma=0.1)
    model = Model(fclass, 0, NoiseSpec.gaussian(1.0))  # variance 1 > 0.01
    with pytest.raises(ValueError):
        run_median_of_means_learner(params, model, seed=0)


def test_mom_learner_rejects_schedule_smaller_than_groups():
    fclass = make_k_armed(3)
    params = LearnerParams(alpha=0.9, delta=0.1, sigma=1e-3)
    model = Model(fclass, 0, NoiseSpec.deterministic())
    with pytest.raises(ValueError):
        run_median_of_means_learner(params, model, seed=0)


ALL_NOISES = [
    NoiseSpec.deterministic(),
    NoiseSpec.bernoulli(),
    NoiseSpec.gaussian(0.5),
    NoiseSpec.two_point(0.2),
    NoiseSpec.heavy_tail(2.0),
]


@pytest.mark.parametrize("noise", ALL_NOISES, ids=lambda n: n.kind)
@pytest.mark.parametrize("groups", [3, 4])
@pytest.mark.parametrize("n_per", [12, 14])
def test_row_medians_equal_per_block_median_of_means(noise, groups, n_per):
    # odd and even K; n_per = 14 leaves a remainder that both must drop
    model = Model(FunctionClass(np.array([[0.1, 0.45, 0.9]])), 0, noise)
    arms = np.array([0, 2, 1, 1, 2, 0, 0], dtype=np.int64)
    blocks = sample_rewards(model, arms, n_per, np.random.default_rng(8)).reshape(-1, n_per)
    batched = row_medians_of_means(blocks, groups)
    looped = np.array([median_of_means(block, groups) for block in blocks])
    # the per-block formula median_of_means used before it was batched
    size = n_per // groups
    reference = np.array([
        np.sort(block[: size * groups].reshape(groups, size).mean(axis=1))[(groups - 1) // 2]
        for block in blocks
    ])
    assert batched.tobytes() == looped.tobytes() == reference.tobytes()


def test_row_medians_of_means_rejects_short_rows():
    with pytest.raises(ValueError):
        row_medians_of_means(np.zeros((2, 2)), 3)
    with pytest.raises(ValueError):
        row_medians_of_means(np.zeros(6), 3)


def test_mom_learner_heavy_tail_success():
    fclass = make_k_armed(3)
    params = LearnerParams(alpha=0.3, delta=0.1, sigma=2.0)
    model = Model(fclass, 1, NoiseSpec.heavy_tail(2.0))
    t = run_median_of_means_learner(params, model, seed=9)
    assert t.output_arm == 1


# ---------------------------------------------------------------------------
# tree descent


def test_tree_descent_deterministic_trace():
    fclass, meta = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.1)
    model = Model(fclass, 2, NoiseSpec.deterministic())
    t = run_tree_descent(meta, params, model, seed=0)
    # stages S = 3; per-node = ceil(18 ln 120) = 87; per-leaf = ceil(200 ln 120) = 958
    assert t.meta["per_node"] == 87
    assert t.meta["per_leaf_arm"] == 958
    assert t.meta["leaf"] == 2
    assert t.output_arm == 5
    assert t.total_queries == 2 * 87 + 958 == 1132


def test_tree_descent_queries_only_on_path_and_bucket():
    fclass, meta = make_tree_class(3, 2)
    params = LearnerParams(alpha=0.2, delta=0.1)
    model = Model(fclass, function_index(meta, 5, 1), NoiseSpec.deterministic())
    t = run_tree_descent(meta, params, model, seed=0)
    path_arms = set()
    path = path_to_leaf(meta, 5)
    for level in range(meta.depth):
        path_arms.add(internal_arm_of(meta, path[:level]))
    path_arms.update(bucket_arms_of(meta, 5))
    assert set(np.unique(t.arms)) == path_arms
    assert t.output_arm == optimal_arm_of(meta, function_index(meta, 5, 1))


def path_descend_tree(meta, stage_mean, n_node, n_leaf):
    """Tree descent that keeps its bit path and rebuilds each node's arm from it."""
    path = []
    for _ in range(meta.depth):
        mean = stage_mean(internal_arm_of(meta, path), n_node)
        path.append(1 if mean >= 0.5 else 0)
    leaf = 0
    for bit in path:
        leaf = 2 * leaf + bit
    best_arm, best = -1, -math.inf
    for arm in bucket_arms_of(meta, leaf):
        estimate = stage_mean(arm, n_leaf)
        if estimate > best:
            best_arm, best = arm, estimate
    return leaf, best_arm


@pytest.mark.parametrize("depth, bucket_size", [(1, 1), (2, 3), (3, 2), (5, 1), (6, 2)])
def test_descend_tree_walks_the_heap_like_a_path_walk(depth, bucket_size):
    fclass, meta = make_tree_class(depth, bucket_size)
    for f in range(meta.n_functions):
        walks = []
        for descend in (descend_tree, path_descend_tree):
            calls = []

            def stage_mean(arm, count):  # steers to f's leaf and bucket arm
                calls.append((arm, count))
                return fclass.means[f, arm]

            walks.append((descend(meta, stage_mean, 7, 3), calls))
        assert walks[0] == walks[1]
        assert walks[0][0] == (leaf_of_function(meta, f), optimal_arm_of(meta, f))
        assert len(walks[0][1]) == depth + bucket_size


@pytest.mark.parametrize("trials", [None, 3])
def test_descend_tree_keeps_the_least_bucket_slot_on_ties(trials):
    # every estimate is 1/2: the walk goes right at each node, and the
    # bucket's first slot wins every tie, for one trial or an array of them
    _, meta = make_tree_class(2, 3)
    estimate = 0.5 if trials is None else np.full(trials, 0.5)
    leaf, arm = descend_tree(meta, lambda arm, count: estimate, 1, 1)
    assert np.all(leaf == 3)
    assert np.all(arm == bucket_arms_of(meta, 3)[0])


def test_tree_descent_bernoulli_succeeds_whp():
    fclass, meta = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.1)
    wins = 0
    for i in range(50):
        f = i % 4
        model = Model(fclass, f, NoiseSpec.bernoulli())
        t = run_tree_descent(meta, params, model, seed=1000 + i)
        wins += t.output_arm == optimal_arm_of(meta, f)
    assert wins >= 45


def test_tree_descent_rejects_unsupported_noise():
    fclass, meta = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.1)
    model = Model(fclass, 0, NoiseSpec.gaussian(1.0))
    with pytest.raises(ValueError):
        run_tree_descent(meta, params, model, seed=0)


def test_tree_descent_rejects_mismatched_class():
    _, meta = make_tree_class(2, 1)
    other = make_k_armed(7)
    params = LearnerParams(alpha=0.2, delta=0.1)
    model = Model(other, 0, NoiseSpec.deterministic())
    with pytest.raises(ValueError, match="tree geometry"):
        run_tree_descent(meta, params, model, seed=0)


# ---------------------------------------------------------------------------
# non-adaptive uniform


def test_non_adaptive_schedule_is_reward_independent():
    fclass, _ = make_tree_class(2, 1)
    t_a = run_non_adaptive_uniform(
        10, 1, Model(fclass, 0, NoiseSpec.bernoulli()), seed=4
    )
    t_b = run_non_adaptive_uniform(
        10, 1, Model(fclass, 3, NoiseSpec.bernoulli()), seed=4
    )
    np.testing.assert_array_equal(t_a.arms, t_b.arms)


def test_non_adaptive_zero_budget_outputs_arm_zero():
    fclass = make_k_armed(3)
    t = run_non_adaptive_uniform(
        0, 1, Model(fclass, 2, NoiseSpec.deterministic()), seed=0
    )
    assert t.output_arm == 0
    assert t.total_queries == 0


def test_non_adaptive_reps_multiply_queries():
    fclass = make_k_armed(4)
    t = run_non_adaptive_uniform(
        5, 3, Model(fclass, 1, NoiseSpec.bernoulli()), seed=2
    )
    assert t.total_queries == 15


def test_non_adaptive_outputs_best_queried_arm():
    fclass = make_k_armed(4)
    model = Model(fclass, 2, NoiseSpec.deterministic())
    t = run_non_adaptive_uniform(12, 1, model, seed=8)
    queried = set(np.unique(t.arms))
    if 2 in queried:
        assert t.output_arm == 2
    else:
        assert t.output_arm in queried


def test_non_adaptive_rejects_negative_budget():
    fclass = make_k_armed(2)
    with pytest.raises(ValueError):
        run_non_adaptive_uniform(
            -1, 1, Model(fclass, 0, NoiseSpec.bernoulli()), seed=0
        )


# ---------------------------------------------------------------------------
# trials as arrays: the kernels against the single-trial reference code

# The two functions below are the single-trial tree descent and baseline as
# they were before each became one trial of its chunk kernel: tree descent
# draws one ``sample_rewards`` block per stage, the baseline draws its
# positions, then one ``sample_rewards`` block for all of them.


def reference_tree_descent(meta, params, model, seed):
    n_node, n_leaf = learners._descent_counts(meta, params, model.function_class, model.noise)
    rng = np.random.default_rng(seed)
    stage_log = []
    rewards_chunks = []

    def stage_mean(arm, count):
        block = sample_rewards(model, arm, count, rng)
        stage_log.append((arm, count))
        rewards_chunks.append(block)
        return block.sum() / count  # the division np.mean does

    leaf, winner = descend_tree(meta, stage_mean, n_node, n_leaf)
    arms, counts = zip(*stage_log)
    return Transcript(
        learner_name="tree-descent",
        seed=seed,
        runs=np.array(arms, dtype=np.int64),
        run_lengths=np.array(counts, dtype=np.int64),
        rewards=np.concatenate(rewards_chunks),
        output_arm=int(winner),
        meta={"leaf": int(leaf), "per_node": n_node, "per_leaf_arm": n_leaf},
    )


def reference_non_adaptive_uniform(budget, reps_per_arm, model, seed):
    learners._check_schedule(budget, reps_per_arm)
    rng = np.random.default_rng(seed)
    n_arms = model.function_class.n_arms
    positions = rng.integers(0, n_arms, size=budget)
    rewards = sample_rewards(model, positions, reps_per_arm, rng)
    return Transcript(
        learner_name="non-adaptive-uniform",
        seed=seed,
        runs=positions,
        run_lengths=reps_per_arm,
        rewards=rewards,
        output_arm=int(learners._pooled_winners(positions[None], rewards, n_arms,
                                                reps_per_arm)[0]),
        meta={"budget": budget, "reps_per_arm": reps_per_arm},
    )


def assert_same_transcript(got, want):
    assert (got.learner_name, got.seed) == (want.learner_name, want.seed)
    assert got.runs.dtype == want.runs.dtype and got.runs.tobytes() == want.runs.tobytes()
    assert type(got.run_lengths) is type(want.run_lengths)
    assert np.asarray(got.run_lengths).tobytes() == np.asarray(want.run_lengths).tobytes()
    assert got.rewards.tobytes() == want.rewards.tobytes()
    assert got.output_arm == want.output_arm
    assert got.meta == want.meta

#: Interior means, so every noise kind but ``deterministic`` draws random rewards.
INTERIOR = FunctionClass([
    [0.70, 0.40, 0.35, 0.30, 0.45],
    [0.40, 0.70, 0.35, 0.45, 0.30],
    [0.35, 0.40, 0.70, 0.30, 0.45],
    [0.45, 0.30, 0.40, 0.70, 0.35],
])
BATCH_NOISES = {
    "deterministic": NoiseSpec.deterministic(),
    "bernoulli": NoiseSpec.bernoulli(),
    "two-point": NoiseSpec.two_point(0.25),
    "gaussian": NoiseSpec.gaussian(0.3),
    "heavy-tail": NoiseSpec.heavy_tail(0.3),
}
#: 37 trials: a chunk count that does not divide them, at the default chunk
#: limit for the Bernoulli descent and the largest schedule, and at 7 entries
#: for the deterministic descent
BATCH_TRIALS = 37


def assert_batch_matches_single(batch, single, n_functions, fixed):
    rng = np.random.default_rng(n_functions)
    if fixed:
        true_functions = np.full(BATCH_TRIALS, n_functions - 1)
    else:
        true_functions = rng.integers(n_functions, size=BATCH_TRIALS)
    seeds = rng.integers(2**63, size=BATCH_TRIALS).tolist()
    queries, output_arms = batch(true_functions, iter(seeds))
    expected = []
    for true_f, seed in zip(true_functions.tolist(), seeds):
        transcript = single(true_f, seed)
        expected.append((transcript.total_queries, transcript.output_arm))
    assert list(zip(queries.tolist(), output_arms.tolist())) == expected


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("bucket_size", [1, 2, 3])
@pytest.mark.parametrize("kind", ["deterministic", "bernoulli"])
def test_tree_descent_trials_match_single_trials(monkeypatch, kind, bucket_size, fixed, block):
    if block is not None:
        monkeypatch.setattr(core, "BLOCK_ENTRIES", block)
    fclass, meta = make_tree_class(3, bucket_size)
    params = LearnerParams(alpha=0.2, delta=0.1)
    noise = BATCH_NOISES[kind]
    assert_batch_matches_single(
        lambda fs, seeds: run_tree_descent_trials(meta, params, fclass, noise, fs, seeds),
        lambda f, seed: reference_tree_descent(meta, params, Model(fclass, f, noise), seed),
        fclass.n_functions, fixed)


@pytest.mark.parametrize("bucket_size", [1, 2, 3])
@pytest.mark.parametrize("kind", ["deterministic", "bernoulli"])
def test_tree_descent_transcript_equals_the_reference(kind, bucket_size):
    fclass, meta = make_tree_class(3, bucket_size)
    params = LearnerParams(alpha=0.2, delta=0.1)
    for f in range(fclass.n_functions):
        model = Model(fclass, f, BATCH_NOISES[kind])
        assert_same_transcript(run_tree_descent(meta, params, model, 40 + f),
                               reference_tree_descent(meta, params, model, 40 + f))


@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("budget, reps", [(0, 1), (12, 3), (1000, 3)])
@pytest.mark.parametrize("kind", sorted(BATCH_NOISES))
def test_non_adaptive_trials_match_single_trials(kind, budget, reps, fixed):
    noise = BATCH_NOISES[kind]
    assert_batch_matches_single(
        lambda fs, seeds: run_non_adaptive_uniform_trials(budget, reps, INTERIOR, noise, fs, seeds),
        lambda f, seed: reference_non_adaptive_uniform(budget, reps, Model(INTERIOR, f, noise), seed),
        INTERIOR.n_functions, fixed)


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("budget", [0, 12, 1000])
@pytest.mark.parametrize("kind", sorted(BATCH_NOISES))
def test_non_adaptive_transcript_equals_the_reference(kind, budget, reps):
    for f in range(INTERIOR.n_functions):
        model = Model(INTERIOR, f, BATCH_NOISES[kind])
        assert_same_transcript(run_non_adaptive_uniform(budget, reps, model, 50 + f),
                               reference_non_adaptive_uniform(budget, reps, model, 50 + f))


def test_batch_entries_raise_the_single_trial_errors():
    fclass, meta = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.1)
    trial = (np.zeros(1, dtype=np.int64), [0])
    for noise, other in ((NoiseSpec.gaussian(1.0), fclass), (NoiseSpec.bernoulli(), make_k_armed(7))):
        with pytest.raises(ValueError) as single:
            run_tree_descent(meta, params, Model(other, 0, noise), seed=0)
        with pytest.raises(ValueError) as batch:
            run_tree_descent_trials(meta, params, other, noise, *trial)
        assert str(batch.value) == str(single.value)
    with pytest.raises(ValueError) as single:
        run_non_adaptive_uniform(-1, 1, Model(fclass, 0, NoiseSpec.bernoulli()), seed=0)
    with pytest.raises(ValueError) as batch:
        run_non_adaptive_uniform_trials(-1, 1, fclass, NoiseSpec.bernoulli(), *trial)
    assert str(batch.value) == str(single.value)


# ---------------------------------------------------------------------------
# online regression oracle


def test_oracle_prediction_lies_in_convex_hull():
    fclass = make_k_armed(3)
    oracle = OnlineRegressionOracle(fclass)
    w = oracle.weights
    assert w.sum() == pytest.approx(1.0)
    pred = oracle.predict()
    assert pred.min() >= fclass.means.min() - 1e-12
    assert pred.max() <= fclass.means.max() + 1e-12


def test_oracle_concentrates_on_truth():
    fclass = make_k_armed(3)
    oracle = OnlineRegressionOracle(fclass)
    rng = np.random.default_rng(0)
    model = Model(fclass, 1, NoiseSpec.deterministic())
    for _ in range(60):
        arm = int(rng.integers(3))
        oracle.update(arm, model.true_means[arm])
    assert oracle.weights[1] > 0.97


@pytest.mark.parametrize("name", ["tree-d2", "tree-d4", "tree-d6", "random-0/1"])
def test_batched_oracle_pass_matches_the_step_by_step_oracle(name):
    # e2d's bytes rest on this: the batched weights, their stacked-matmul
    # mixtures, the running sum of those and the per-row q-weighted errors
    # equal the step-by-step oracle's bit for bit, across block boundaries.
    # A numpy or BLAS change that sums a product in another order fails here.
    rng = np.random.default_rng(5)
    if name == "random-0/1":
        fclass = FunctionClass(rng.integers(0, 2, size=(12, 9)))
    else:
        fclass, _ = make_tree_class(int(name[-1]), 1)
    rows = block_rows(sum(fclass.means.shape))
    J = 2 * rows + 37
    arms = rng.integers(0, fclass.n_arms, size=J)
    rewards = rng.random(J)
    q = rng.dirichlet(np.ones(fclass.n_arms), size=J)
    truth = fclass.means[0]

    oracle = OnlineRegressionOracle(fclass)
    weights, predictions, errors = [], [], []
    tilde_sum = np.zeros(fclass.n_arms)
    for t, (arm, reward) in enumerate(zip(arms.tolist(), rewards.tolist())):
        weights.append(oracle.weights)
        predictions.append(oracle.predict())
        tilde_sum += predictions[-1]
        errors.append(q[t] @ (truth - predictions[-1]) ** 2)
        oracle.update(arm, reward)

    blocks = list(oracle_weights(fclass.means, arms, rewards))
    assert [len(w) for w in blocks] == [rows, rows, 37]
    batched = np.zeros(fclass.n_arms)
    start = 0
    for w in blocks:
        stop = start + len(w)
        assert w.tobytes() == np.array(weights[start:stop]).tobytes()
        fhat = _row_products(w, fclass.means)
        assert fhat.tobytes() == np.array(predictions[start:stop]).tobytes()
        sq_error = (truth - fhat) ** 2
        error = _row_products(sq_error, q[start:stop, :, None])[:, 0]
        assert error.tobytes() == np.array(errors[start:stop]).tobytes()
        batched = _running_sum(batched, fhat)
        start = stop
    assert batched.tobytes() == tilde_sum.tobytes()


def test_est_bound_formula():
    assert est_bound(8, 0.1) == pytest.approx(4 * math.log(8) + 16 * math.log(20))
    assert est_bound(1, 0.5) == pytest.approx(16 * math.log(4))
    with pytest.raises(ValueError):
        est_bound(0, 0.1)


# ---------------------------------------------------------------------------
# E2D


def test_e2d_requires_horizon():
    fclass, _ = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.2)
    model = Model(fclass, 0, NoiseSpec.bernoulli())
    with pytest.raises(ValueError):
        run_e2d(params, model, seed=0)


def test_e2d_requires_enough_rounds():
    fclass, _ = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.2, horizon=3)  # L+1 = 6 > 3
    model = Model(fclass, 0, NoiseSpec.bernoulli())
    with pytest.raises(ValueError):
        run_e2d(params, model, seed=0)


def test_e2d_phase_accounting_and_meta():
    fclass, meta = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.2, horizon=400)
    model = Model(fclass, 2, NoiseSpec.bernoulli())
    t = run_e2d(params, model, seed=11)
    L, J = t.meta["L"], t.meta["J"]
    assert L == math.ceil(math.log2(4 / 0.2))
    assert J == 400 // (L + 1)
    assert t.total_queries == J * (L + 1) + t.meta["m"] * t.meta["per_arm"]
    assert t.meta["est_bound"] > 0
    assert t.meta["est_error"] >= 0
    assert 0 < t.meta["effective_gamma"] <= 1
    assert len(t.meta["selection_scores"]) == L


def test_e2d_succeeds_under_deterministic_noise():
    fclass, meta = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.2, horizon=400)
    for f in (0, 3):
        model = Model(fclass, f, NoiseSpec.deterministic())
        t = run_e2d(params, model, seed=f)
        assert t.output_arm == optimal_arm_of(meta, f)


def test_e2d_dec_too_large_skips_the_final_phase(monkeypatch):
    # an all-zero gap matrix gives every in-set function zero coverage under
    # the chosen p, so the run ends after exploitation with the error tag
    from maximin_bandits import learners

    monkeypatch.setattr(
        learners, "gap_matrix",
        lambda fclass, alpha: np.zeros((fclass.n_functions, fclass.n_arms), dtype=bool))
    fclass, _ = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.2, horizon=400)
    t = run_e2d(params, Model(fclass, 1, NoiseSpec.bernoulli()), seed=3)
    assert t.meta["error"] == "dec-too-large"
    assert t.meta["effective_gamma"] == 0.0
    assert t.total_queries == t.meta["J"] * (t.meta["L"] + 1) == 396
    assert "m" not in t.meta and "per_arm" not in t.meta
    digest = hashlib.sha256()
    for part in (t.arms.tobytes(), t.rewards.tobytes(), repr(t.meta).encode()):
        digest.update(part)
    assert digest.hexdigest() == "35b65856061fa0ee4354cace2f8ff3d793016b4b935a07d6c7f5903c5831c43a"


def test_e2d_searches_every_round_when_eps_bar_below_one(monkeypatch):
    # eps_bar < 1 only at long horizons; delta 0.9 gives L = 3 and brings it
    # down to about 0.94 at T = 12000, so every exploration round re-runs
    # the decision-estimation search around the oracle's current mixture
    from maximin_bandits import dec, learners

    fclass = make_k_armed(2)
    params = LearnerParams(alpha=0.2, delta=0.9, horizon=12000)
    model = Model(fclass, 0, NoiseSpec.bernoulli())
    searches = []
    solved = []
    dec_search = learners._dec_search
    solve = dec.solve_maximin

    def counting_dec_search(*args, **kwargs):
        search = dec_search(*args, **kwargs)

        def counting_search(anchor):
            searches.append(1)
            return search(anchor)

        return counting_search

    def counting_solve(payoff):
        solved.append((payoff.shape, payoff.tobytes()))
        return solve(payoff)

    monkeypatch.setattr(learners, "_dec_search", counting_dec_search)
    monkeypatch.setattr(dec, "solve_maximin", counting_solve)
    t = run_e2d(params, model, seed=7)
    assert t.meta["eps_bar"] < 1.0
    assert len(searches) == t.meta["J"]
    # the rounds share one inner-game cache: each distinct version set is
    # solved once, and the 2-function class has only 3 nonempty ones
    assert len(solved) == len(set(solved)) <= 3
    monkeypatch.undo()
    again = run_e2d(params, model, seed=7)
    assert again.arms.tobytes() == t.arms.tobytes()
    assert again.rewards.tobytes() == t.rewards.tobytes()
    assert again.output_arm == t.output_arm


def test_e2d_est_error_within_bound_typically():
    fclass, _ = make_tree_class(2, 1)
    params = LearnerParams(alpha=0.2, delta=0.2, horizon=400)
    inside = 0
    for i in range(20):
        model = Model(fclass, i % 4, NoiseSpec.bernoulli())
        t = run_e2d(params, model, seed=500 + i)
        inside += t.meta["est_error"] <= t.meta["est_bound"]
    assert inside >= 16  # 1 - delta of trials, with slack


# A frozen copy of the per-round exploration loop, the reference for the
# block path: one arm, then one reward, per round on one generator, and one
# search per round.

NOISES = {
    "deterministic": NoiseSpec.deterministic(),
    "bernoulli": NoiseSpec.bernoulli(),
    "two-point": NoiseSpec.two_point(0.25),
    "heavy-tail": NoiseSpec.heavy_tail(0.3),
    "gaussian": NoiseSpec.gaussian(0.3),
}

INTERIOR_MEANS = [
    [0.70, 0.40, 0.35, 0.30, 0.45],
    [0.40, 0.70, 0.35, 0.45, 0.30],
    [0.35, 0.40, 0.70, 0.30, 0.45],
    [0.45, 0.30, 0.40, 0.70, 0.35],
]


def per_round_explore(model, fixed, eps_bar, half_alpha, J, rng):
    from maximin_bandits.learners import E2D_SEARCH_RESOLUTION, dec_at

    fclass = model.function_class
    oracle = OnlineRegressionOracle(fclass)
    searches = []
    explore_arms = np.empty(J, dtype=np.int64)
    explore_rewards = np.empty(J)
    for t in range(J):
        if fixed is None:
            res = dec_at(fclass, oracle.weights, eps_bar, half_alpha, E2D_SEARCH_RESOLUTION)
        else:
            res = fixed
        searches.append(res)
        arm = res.q_witness.sample(rng)
        reward = float(sample_rewards(model, arm, 1, rng)[0])
        explore_arms[t] = arm
        explore_rewards[t] = reward
        if fixed is None:
            oracle.update(arm, reward)
    return explore_arms, explore_rewards, searches


def e2d_case(name, kind):
    if name == "eps-bar-below-one":
        fclass = make_k_armed(2)
        return fclass, LearnerParams(alpha=0.2, delta=0.9, horizon=12000), Model(fclass, 0, NOISES[kind])
    if name == "tree-d2-t4000":
        fclass, _ = make_tree_class(2, 1)
        return fclass, LearnerParams(alpha=0.2, delta=0.2, horizon=4000), Model(fclass, 1, NOISES[kind])
    if name == "tree-d3-t400":
        fclass, _ = make_tree_class(3, 1)
        return fclass, LearnerParams(alpha=0.2, delta=0.2, horizon=400), Model(fclass, 5, NOISES[kind])
    fclass = FunctionClass(INTERIOR_MEANS)
    return fclass, LearnerParams(alpha=0.2, delta=0.05, horizon=400), Model(fclass, 2, NOISES[kind])


def assert_same_run(got, want):
    assert got.arms.tobytes() == want.arms.tobytes()
    assert got.rewards.tobytes() == want.rewards.tobytes()
    assert got.output_arm == want.output_arm
    assert repr(got.meta) == repr(want.meta)


@pytest.mark.parametrize(
    "name,kind",
    [(name, kind) for name in ("interior-t400", "tree-d2-t4000", "tree-d3-t400") for kind in NOISES]
    + [("eps-bar-below-one", "heavy-tail")],
)
def test_e2d_block_exploration_matches_the_per_round_loop(monkeypatch, name, kind):
    from maximin_bandits import learners

    fclass, params, model = e2d_case(name, kind)
    seeds = (7,) if name == "eps-bar-below-one" else (0, 1, 2)
    for seed in seeds:
        got = run_e2d(params, model, seed)
        with monkeypatch.context() as patched:
            patched.setattr(learners, "_explore", per_round_explore)
            want = run_e2d(params, model, seed)
        assert (got.meta["eps_bar"] >= 1.0) == (name != "eps-bar-below-one")
        assert_same_run(got, want)


@pytest.mark.parametrize("kind", sorted(NOISES))
def test_e2d_searching_exploration_matches_the_per_round_loop(kind):
    # the eps_bar < 1 rounds, a search each, on a short run of rounds
    from maximin_bandits.learners import _explore

    fclass = make_k_armed(2)
    model = Model(fclass, 1, NOISES[kind])
    for seed in (3, 4):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _explore(model, None, 0.94, 0.1, 60, rngs[0])
        want = per_round_explore(model, None, 0.94, 0.1, 60, rngs[1])
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        for a, b in zip(got[2], want[2], strict=True):
            assert a.value.hex() == b.value.hex()
            assert a.q_witness.probs.tobytes() == b.q_witness.probs.tobytes()
            assert a.p_witness.probs.tobytes() == b.p_witness.probs.tobytes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_e2d_fixed_search_draws_do_not_grow_with_the_horizon(monkeypatch):
    from maximin_bandits import learners

    calls = []
    sample, rewards = ArmDistribution.sample, learners.sample_rewards

    def counted_sample(self, rng, size=None):
        calls.append("arm")
        return sample(self, rng, size)

    def counted_rewards(*args):
        calls.append("reward")
        return rewards(*args)

    monkeypatch.setattr(ArmDistribution, "sample", counted_sample)
    monkeypatch.setattr(learners, "sample_rewards", counted_rewards)
    fclass, _ = make_tree_class(2, 1)
    model = Model(fclass, 1, NoiseSpec.bernoulli())
    counts = []
    for horizon in (400, 4000):
        calls.clear()
        t = run_e2d(LearnerParams(alpha=0.2, delta=0.2, horizon=horizon), model, seed=5)
        assert t.meta["eps_bar"] >= 1.0 and "m" in t.meta
        counts.append(len(calls))
    # per branch one arm block and one reward block, then the final phase's
    assert counts == [2 * t.meta["L"] + 2] * 2
