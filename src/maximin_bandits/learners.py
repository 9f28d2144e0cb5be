"""Pure-exploration learners over finite function classes.

Four strategies, all emitting full interaction transcripts:

* :func:`run_empirical_mean_learner`: samples arms i.i.d. from the maximin
  coverage witness and keeps the best empirical mean; for rewards bounded in
  [0, 1].
* :func:`run_median_of_means_learner`: same sampling phase with
  median-of-means estimates; for variance-bounded (possibly unbounded)
  rewards.
* :func:`run_tree_descent`: adaptive root-to-leaf descent specialized to the
  binary-tree class; exponentially fewer queries than any fixed schedule.
* :func:`run_e2d`: estimation-to-decisions: an online regression oracle
  (exponential weights, squared loss) drives a per-round search for a
  low-coefficient sampling pair, followed by a boosted exploitation phase and
  a final coverage-sampling phase.

Plus :func:`run_non_adaptive_uniform`, the fixed-schedule baseline the tree
class defeats.

Tree descent and the baseline each have one implementation, a kernel that
runs a chunk of trials as arrays (``run_*_trials`` runs an experiment's
trials through it); their single-trial functions are one trial of the
kernel, with a transcript built from what it drew.  Every reward comes
from ``core``'s one reward law (:func:`sample_rewards`, or
:func:`rewards_from_variates` of the variates a caller drew itself).

Every learner is a pure function of its arguments and an integer seed, and
reads its function class from its model; the query schedule of the
coverage-sampling learners depends on the class and parameters only, never
on observed rewards.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import games
from .core import (
    ArmDistribution,
    FunctionClass,
    Model,
    NoiseSpec,
    Transcript,
    block_rows,
    ceil_count,
    check_entries,
    draw_variates,
    from_json,
    gap_matrix,
    rewards_from_variates,
    sample_rewards,
)
from .dec import _dec_search, dec_at, version_set
from .environments import TreeMeta
from .estimators import (
    chernoff_sample_count,
    median_of_means,  # noqa: F401  (perfbench counts calls made through this name)
    median_of_means_sample_count,
    mom_groups,
    row_medians_of_means,
)

__all__ = [
    "LearnerParams",
    "UnlearnableInstanceError",
    "run_empirical_mean_learner",
    "run_median_of_means_learner",
    "run_tree_descent",
    "run_tree_descent_trials",
    "descend_tree",
    "run_non_adaptive_uniform",
    "run_non_adaptive_uniform_trials",
    "run_e2d",
    "OnlineRegressionOracle",
    "oracle_weights",
    "est_bound",
]

#: Descent threshold for the tree class: branch markers sit at 1/3 and 2/3,
#: so testing the node's empirical mean against 1/2 leaves a 1/6 margin.
TREE_THRESHOLD = 0.5
TREE_NODE_FACTOR = 18.0

#: Learning rate of the exponential-weights regression oracle.
ORACLE_LEARNING_RATE = 0.5
#: Grid step of e2d's per-round (p, q) candidate search (``dec_at`` resolution).
E2D_SEARCH_RESOLUTION = 0.25


class UnlearnableInstanceError(RuntimeError):
    """The coverage value is zero, so no sampling mixture can succeed."""


@dataclass(frozen=True)
class LearnerParams:
    """Accuracy/confidence targets plus learner-specific knobs.

    ``sigma`` upper-bounds the reward standard deviation (median-of-means
    learner), ``horizon`` is the exploration-plus-exploitation budget of the
    e2d learner, ``budget`` the position count of the non-adaptive baseline.
    """

    alpha: float
    delta: float
    sigma: float | None = None
    horizon: int | None = None
    budget: int | None = None
    reps_per_arm: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.sigma is not None and (not self.sigma > 0 or not math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite when given")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1 when given")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0 when given")
        if self.reps_per_arm < 1:
            raise ValueError("reps_per_arm must be >= 1")

    from_json = classmethod(partial(from_json, prefix="params."))


def _draw_count(gamma: float, delta: float) -> int:
    """Witness draws m = ceil(ln(2/delta) / gamma) of a coverage-sampling phase."""
    if gamma <= 0.0:
        raise UnlearnableInstanceError(
            "coverage value is zero at alpha/2; no query budget can help"
        )
    return ceil_count("witness draw count", math.log(2.0 / delta) / gamma)


def _coverage_sampling(model: Model, p: ArmDistribution, m: int, n_per: int,
                       rng: np.random.Generator, estimate):
    """Draw m arms from ``p``, query each ``n_per`` times, keep the best.

    The queries come from one reward draw, each drawn arm's ``n_per`` in a
    row.  ``estimate`` maps the (m, n_per) reward blocks to one estimate per
    block.  Returns the drawn arms (the log's runs, each ``n_per`` long), the
    flat reward log, and the drawn arm with the best estimate (least draw
    index on ties).
    """
    drawn = p.sample(rng, m)
    rewards = sample_rewards(model, drawn, n_per, rng)
    estimates = estimate(rewards.reshape(m, n_per))
    return drawn, rewards, int(drawn[int(np.argmax(estimates))])


def run_empirical_mean_learner(
    params: LearnerParams,
    model: Model,
    seed: int,
    cert: games.GammaCertificate | None = None,
) -> Transcript:
    """Coverage sampling with empirical-mean selection (bounded rewards).

    Draws m = ceil(ln(2/delta) / gamma_{alpha/2}) arms i.i.d. from the
    maximin witness at alpha/2, queries each ceil((8/alpha^2) ln(4m/delta))
    times, and returns the arm (among those drawn) with the largest empirical
    mean.  The total query count m * per_arm is fixed before the first reward
    is seen.  A precomputed certificate may be passed to skip the LP solve;
    it must be the alpha/2 certificate for the model's class.
    """
    if not model.noise.bounded:
        raise ValueError("empirical-mean learner requires rewards bounded in [0, 1]")
    if cert is None:
        cert = games.gamma(model.function_class, params.alpha / 2.0)
    m = _draw_count(cert.value, params.delta)
    n_per = chernoff_sample_count(params.alpha, params.delta, m)
    drawn, rewards, winner = _coverage_sampling(
        model, cert.p_star, m, n_per, np.random.default_rng(seed), partial(np.mean, axis=1))
    return Transcript(
        learner_name="empirical-mean",
        seed=seed,
        runs=drawn,
        run_lengths=n_per,
        rewards=rewards,
        output_arm=winner,
        meta={"gamma": cert.value, "m": m, "per_arm": n_per},
    )


def run_median_of_means_learner(
    params: LearnerParams,
    model: Model,
    seed: int,
    cert: games.GammaCertificate | None = None,
) -> Transcript:
    """Coverage sampling with median-of-means selection (variance-bounded rewards).

    Same arm-sampling phase as the empirical-mean learner; each drawn arm is
    queried ceil(16 c_m sigma^2 ln(2m/delta) / alpha^2) times and estimated by
    the median of ceil(ln(2/delta)) consecutive group means.
    """
    if params.sigma is None:
        raise ValueError("median-of-means learner requires params.sigma")
    worst_var = max(
        model.noise.variance_bound(float(mu)) for mu in model.true_means
    )
    if worst_var > params.sigma * params.sigma + 1e-12:
        raise ValueError("model reward variance exceeds the declared sigma^2")

    if cert is None:
        cert = games.gamma(model.function_class, params.alpha / 2.0)
    m = _draw_count(cert.value, params.delta)
    n_per = median_of_means_sample_count(params.alpha, params.delta, m, params.sigma)
    groups = mom_groups(params.delta)
    if n_per < groups:
        raise ValueError(
            "per-arm budget smaller than the group count; sigma is too small "
            "for this alpha/delta"
        )
    drawn, rewards, winner = _coverage_sampling(
        model, cert.p_star, m, n_per, np.random.default_rng(seed),
        partial(row_medians_of_means, groups=groups))
    return Transcript(
        learner_name="median-of-means",
        seed=seed,
        runs=drawn,
        run_lengths=n_per,
        rewards=rewards,
        output_arm=winner,
        meta={"gamma": cert.value, "m": m, "per_arm": n_per, "groups": groups},
    )


def descend_tree(meta: TreeMeta, stage_mean, n_node: int, n_leaf: int):
    """Root-to-leaf walk on the binary-tree class, for one trial or many.

    ``stage_mean(arm, count)`` estimates an arm's mean from ``count`` fresh
    queries.  Each internal stage estimates the current node from ``n_node``
    queries and goes right iff the estimate clears 1/2; at the leaf each
    bucket arm is estimated from ``n_leaf`` queries.  Returns the leaf and
    the bucket arm with the best estimate (least index on ties).  The arms
    and estimates are ints and floats for one trial, or int and float
    arrays with one entry per trial; the arithmetic is the same.
    """
    node = 0  # heap order: node i's children are 2i+1 (left) and 2i+2 (right)
    for _ in range(meta.depth):
        node = 2 * node + 1 + (stage_mean(node, n_node) >= TREE_THRESHOLD)
    leaf = node - meta.n_internal
    first = meta.n_internal + leaf * meta.bucket_size
    best_slot, best = 0, stage_mean(first, n_leaf)
    for slot in range(1, meta.bucket_size):
        estimate = stage_mean(first + slot, n_leaf)
        best_slot = np.where(estimate > best, slot, best_slot)
        best = np.maximum(best, estimate)
    return leaf, first + best_slot


def _descent_counts(meta: TreeMeta, params: LearnerParams, fclass: FunctionClass,
                    noise: NoiseSpec) -> tuple[int, int]:
    """Tree descent's queries per node and per leaf arm, once ``fclass`` is
    checked against the tree geometry and ``noise`` is a 0/1 law."""
    if fclass.means.shape != (meta.n_functions, meta.n_arms):
        raise ValueError("function class does not match the tree geometry")
    if noise.kind not in ("deterministic", "bernoulli"):
        raise ValueError("tree descent expects deterministic or Bernoulli rewards")
    stages = meta.depth + meta.bucket_size
    n_node = ceil_count("per-node query count",
                        TREE_NODE_FACTOR * math.log(4.0 * stages / params.delta))
    return n_node, chernoff_sample_count(params.alpha, params.delta, stages)


def _descent_chunk(meta: TreeMeta, fclass: FunctionClass, noise: NoiseSpec, n_node: int,
                   n_leaf: int, true_functions: np.ndarray, seeds) -> tuple:
    """Tree descent on a chunk of trials, trial i on the model ``(fclass,
    true_functions[i], noise)`` and ``default_rng(seeds[i])``: one
    :func:`descend_tree` walk over arrays of nodes.  Returns each stage's
    arm (an int, or one per trial), each trial's leaf and output arm, and
    the (trials, queries) draws.

    A Bernoulli trial draws its whole budget in one call, the doubles its
    stages would draw one after another, and a stage mean counts the
    stage's draws under the mean (a sum of 0/1 rewards is exact).
    Deterministic trials draw nothing (no columns); a stage mean is then
    ``np.full(count, mu).sum() / count`` of each distinct mean.
    """
    queries = meta.depth * n_node + meta.bucket_size * n_leaf
    bernoulli = noise.kind == "bernoulli"
    draws = np.empty((len(true_functions), queries if bernoulli else 0))
    if bernoulli:
        for row, seed in zip(draws, seeds):
            np.random.default_rng(seed).random(out=row)
    stage_arms = []
    used = 0

    def stage_mean(arms, count: int) -> np.ndarray:
        nonlocal used
        stage_arms.append(arms)
        mu = fclass.means[true_functions, arms]
        if not bernoulli:
            values, which = np.unique(mu, return_inverse=True)
            return np.array([np.full(count, v).sum() for v in values])[which] / count
        block = draws[:, used:used + count]
        used += count
        return np.count_nonzero(block < mu[:, None], axis=1) / count

    leaf, output_arms = descend_tree(meta, stage_mean, n_node, n_leaf)
    return stage_arms, leaf, output_arms, draws


def run_tree_descent(
    meta: TreeMeta,
    params: LearnerParams,
    model: Model,
    seed: int,
) -> Transcript:
    """Adaptive descent on the binary-tree class: one trial of the kernel
    that :func:`run_tree_descent_trials` runs, its rewards rebuilt from the
    kernel's draws.

    At each of the d internal stages the current node is queried
    ceil(18 ln(4 S / delta)) times (S = d + bucket_size stages in total) and
    the walk goes right iff the empirical mean clears 1/2; at the leaf each
    bucket arm is queried ceil((8/alpha^2) ln(4 S / delta)) times and the best
    empirical mean wins.  Total queries are d * node_count +
    bucket_size * leaf_count, logarithmic in the class size.
    """
    n_node, n_leaf = _descent_counts(meta, params, model.function_class, model.noise)
    stage_arms, leaf, winner, draws = _descent_chunk(
        meta, model.function_class, model.noise, n_node, n_leaf,
        np.array([model.true_function]), [seed])
    runs = np.hstack(stage_arms)
    counts = np.repeat([n_node, n_leaf], [meta.depth, meta.bucket_size])
    # a deterministic trial draws nothing: its rewards fill a fresh array
    variates = draws[0] if draws.size else np.empty(counts.sum())
    return Transcript(
        learner_name="tree-descent",
        seed=seed,
        runs=runs,
        run_lengths=counts,
        rewards=rewards_from_variates(model.noise, np.repeat(model.true_means[runs], counts),
                                      variates),
        output_arm=int(winner[0]),
        meta={"leaf": int(leaf[0]), "per_node": n_node, "per_leaf_arm": n_leaf},
    )


def _chunked_output_arms(kernel, true_functions: np.ndarray, seeds,
                         entries_per_trial: int) -> np.ndarray:
    """Each trial's output arm, ``kernel(chunk, chunk_seeds)[2]``, over
    chunks of ``block_rows(entries_per_trial)`` trials."""
    rows, seeds = block_rows(entries_per_trial), iter(seeds)
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        kernel(true_functions[start:start + rows], itertools.islice(seeds, rows))[2]
        for start in range(0, len(true_functions), rows)])


def run_tree_descent_trials(
    meta: TreeMeta,
    params: LearnerParams,
    fclass: FunctionClass,
    noise: NoiseSpec,
    true_functions: np.ndarray,
    seeds,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`run_tree_descent` over many trials: trial i runs on the model
    ``(fclass, true_functions[i], noise)`` and the generator
    ``default_rng(seeds[i])``.  Returns each trial's total queries and output
    arm, equal to that trial's transcript's, from chunks of trials run
    through the one kernel, :func:`_descent_chunk`.
    """
    n_node, n_leaf = _descent_counts(meta, params, fclass, noise)
    queries = meta.depth * n_node + meta.bucket_size * n_leaf
    kernel = partial(_descent_chunk, meta, fclass, noise, n_node, n_leaf)
    # a Bernoulli row holds its draws; a deterministic one, per-trial values
    per_trial = queries if noise.kind == "bernoulli" else 1
    return (np.full(len(true_functions), queries),
            _chunked_output_arms(kernel, true_functions, seeds, per_trial))


def _check_schedule(budget: int, reps_per_arm: int) -> None:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if reps_per_arm < 1:
        raise ValueError("reps_per_arm must be >= 1")
    check_entries(f"schedule of {budget} positions x {reps_per_arm} queries", budget, reps_per_arm)


def _pooled_winners(positions: np.ndarray, rewards: np.ndarray, n_arms: int,
                    reps_per_arm: int) -> np.ndarray:
    """Per trial, the queried arm with the best pooled mean (least index on
    ties; arm 0 if nothing was queried).  ``positions`` holds one row of
    positions per trial, ``rewards`` their ``reps_per_arm`` rewards each,
    in query order."""
    trials = len(positions)
    # one bin per (trial, arm); bincount adds each bin's rewards in query
    # order, as a sequential loop would
    bins = (positions + n_arms * np.arange(trials)[:, None]).ravel()
    size = trials * n_arms
    sums = np.bincount(np.repeat(bins, reps_per_arm), weights=rewards.ravel(), minlength=size)
    counts = np.bincount(bins, minlength=size) * float(reps_per_arm)
    pooled = np.divide(sums, counts, out=np.full(size, -np.inf), where=counts > 0)
    return pooled.reshape(trials, n_arms).argmax(axis=1)


def _uniform_chunk(budget: int, reps_per_arm: int, fclass: FunctionClass, noise: NoiseSpec,
                   true_functions: np.ndarray, seeds) -> tuple:
    """The baseline on a chunk of trials, trial i on the model ``(fclass,
    true_functions[i], noise)`` and ``default_rng(seeds[i])``, which draws
    its positions, then its reward variates, as :func:`sample_rewards`
    would.  Returns the (trials, budget) positions, the (trials, budget,
    reps_per_arm) rewards and each trial's output arm.
    """
    n_arms = fclass.n_arms
    positions = np.empty((len(true_functions), budget), dtype=np.int64)
    draws = np.empty((len(true_functions), budget, reps_per_arm))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        # the whole schedule is committed here, before the first reward
        positions[row] = rng.integers(0, n_arms, size=budget)
        draw_variates(noise, rng, draws[row])
    mu = fclass.means[true_functions[:, None], positions][:, :, None]
    rewards = rewards_from_variates(noise, mu, draws)
    return positions, rewards, _pooled_winners(positions, rewards, n_arms, reps_per_arm)


def run_non_adaptive_uniform(
    budget: int,
    reps_per_arm: int,
    model: Model,
    seed: int,
) -> Transcript:
    """Fixed-schedule baseline: query positions chosen before any
    observation; one trial of the kernel that
    :func:`run_non_adaptive_uniform_trials` runs.

    Draws ``budget`` positions i.i.d. uniform over the arms, queries each
    position ``reps_per_arm`` times, pools the rewards per arm, and outputs
    the queried arm with the best pooled mean (least index on ties; arm 0 if
    the budget is zero).
    """
    _check_schedule(budget, reps_per_arm)
    positions, rewards, winners = _uniform_chunk(
        budget, reps_per_arm, model.function_class, model.noise,
        np.array([model.true_function]), [seed])
    return Transcript(
        learner_name="non-adaptive-uniform",
        seed=seed,
        runs=positions[0],
        run_lengths=reps_per_arm,
        rewards=rewards[0].ravel(),
        output_arm=int(winners[0]),
        meta={"budget": budget, "reps_per_arm": reps_per_arm},
    )


def run_non_adaptive_uniform_trials(
    budget: int,
    reps_per_arm: int,
    fclass: FunctionClass,
    noise: NoiseSpec,
    true_functions: np.ndarray,
    seeds,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`run_non_adaptive_uniform` over many trials: trial i runs on the
    model ``(fclass, true_functions[i], noise)`` and the generator
    ``default_rng(seeds[i])``.  Returns each trial's total queries and output
    arm, equal to that trial's transcript's, from chunks of trials run
    through the one kernel, :func:`_uniform_chunk`, which maps a chunk's
    variates to rewards in one pass and pools them in one
    :func:`_pooled_winners` call.
    """
    _check_schedule(budget, reps_per_arm)
    queries = budget * reps_per_arm
    kernel = partial(_uniform_chunk, budget, reps_per_arm, fclass, noise)
    # a row holds its positions, its draws and its pooling table
    per_trial = budget + queries + fclass.n_arms
    return (np.full(len(true_functions), queries),
            _chunked_output_arms(kernel, true_functions, seeds, per_trial))


def _exp_weights(cum_loss: np.ndarray) -> np.ndarray:
    """Exponential weights of cumulative losses along the last axis: the one
    formula behind both the oracle's ``weights`` and :func:`oracle_weights`."""
    shifted = cum_loss - cum_loss.min(axis=-1, keepdims=True)
    w = np.exp(-ORACLE_LEARNING_RATE * shifted)
    return w / w.sum(axis=-1, keepdims=True)


def _row_products(rows: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``rows[i] @ right`` for each row i, bit for bit as one product per row.

    The stacked matmul runs one vector product per row; a plain 2-D matmul
    (gemm) may sum in another order and move the last bit of some entries.
    ``right`` is a matrix, or one vector per row as a (rows, n, 1) stack.
    """
    return (rows[:, None, :] @ right)[:, 0]


def _running_sum(carry: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``carry`` plus each row of ``rows`` in turn: the sequential ``+=``."""
    return np.cumsum(np.concatenate([carry[None], rows]), axis=0)[-1]


class OnlineRegressionOracle:
    """Exponential-weights online regression over a finite class.

    Squared loss, learning rate 1/2.  The prediction after any history is the
    weight mixture of the class rows, i.e. an element of the convex hull.  A
    function consistent with every observation never loses relative weight.

    This is the step-by-step form, for a learner that needs the weights
    before the next arm is drawn.  :func:`oracle_weights` gives the same
    weights bit for bit for a whole history at once.
    """

    def __init__(self, fclass: FunctionClass):
        self._means = fclass.means
        self._cum_loss = np.zeros(fclass.n_functions)

    def update(self, arm: int, reward: float) -> None:
        if not 0 <= arm < self._means.shape[1]:
            raise IndexError(f"arm {arm} out of range")
        diff = self._means[:, arm] - reward
        self._cum_loss += diff * diff

    @property
    def weights(self) -> np.ndarray:
        return _exp_weights(self._cum_loss)

    def predict(self) -> np.ndarray:
        """Mean-reward prediction per arm: the weight mixture of class rows."""
        return self.weights @ self._means


def oracle_weights(means: np.ndarray, arms: np.ndarray, rewards: np.ndarray):
    """Yield the oracle's weights before each query of a history, in blocks.

    Block by block of ``block_rows(functions + arms)`` queries (a row's
    weights, then the mixture of the class rows a caller makes of them),
    yields the (block, functions) matrix whose row i is
    :class:`OnlineRegressionOracle`'s ``weights`` just before query i of
    the block, bit for bit: the losses are summed by one ``np.cumsum`` over
    rows that start with the loss carried from the previous block, which
    adds in the order of the oracle's ``+=``.
    """
    carry = np.zeros((1, means.shape[0]))
    rows = block_rows(sum(means.shape))
    for start in range(0, len(arms), rows):
        stop = start + rows
        diff = means[:, arms[start:stop]].T - rewards[start:stop, None]
        cum_loss = np.cumsum(np.concatenate([carry, diff * diff]), axis=0)
        yield _exp_weights(cum_loss[:-1])
        carry = cum_loss[-1:]


def est_bound(n_functions: int, delta: float) -> float:
    """Declared cumulative squared-estimation-error bound of the oracle:
    4 ln|class| + 16 ln(2/delta), valid with probability 1 - delta on
    realizable data."""
    if n_functions < 1:
        raise ValueError("class size must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return 4.0 * math.log(n_functions) + 16.0 * math.log(2.0 / delta)


def _explore(model, fixed, eps_bar, half_alpha, J, rng):
    """e2d's J exploration rounds: their arms and rewards, and the list of
    each round's search (``fixed``, the one search of eps_bar >= 1, repeated
    when it serves every round).

    A round draws its arm, then its reward, on ``rng``.  Where the search is
    fixed and the noise reads one ``rng.random`` double per reward
    (bernoulli, two-point, heavy-tail) or none (deterministic), one call
    draws all J rounds, row by row: the loop's doubles in the loop's order,
    since numpy fills a long draw exactly as consecutive short ones.  The
    loop stays where the search reads the oracle every round (eps_bar < 1)
    and for Gaussian noise, whose ziggurat reads a variable number of words.
    Searching rounds share one :func:`dec._dec_search`: its gap matrix, its
    candidate grid and its inner-game cache are built once, so a version set
    met in an earlier round is not solved again.
    """
    kind = model.noise.kind
    if fixed is not None and kind != "gaussian":
        # a round's arm, then its reward variate; deterministic rewards read
        # none, and their means are written over the spent arm column
        u = rng.random((J, 1 if kind == "deterministic" else 2))
        arms = fixed.q_witness._inverse_cdf(u[:, 0])
        rewards = rewards_from_variates(model.noise, model.true_means[arms], u[:, -1])
        return arms, rewards, [fixed] * J

    oracle = OnlineRegressionOracle(model.function_class)
    if fixed is None:  # one search, and one inner-game cache, for every round
        search = _dec_search(model.function_class, eps_bar, half_alpha, E2D_SEARCH_RESOLUTION)
    searches = []
    arms = np.empty(J, dtype=np.int64)
    rewards = np.empty(J)
    for t in range(J):
        res = search(oracle.weights) if fixed is None else fixed
        searches.append(res)
        arm = res.q_witness.sample(rng)
        reward = float(sample_rewards(model, arm, 1, rng)[0])
        arms[t] = arm
        rewards[t] = reward
        if fixed is None:
            oracle.update(arm, reward)
    return arms, rewards, searches


def run_e2d(
    params: LearnerParams,
    model: Model,
    seed: int,
) -> Transcript:
    """Estimation-to-decisions learner for general finite classes.

    Phases, with L = ceil(log2(4/delta)) and J = floor(horizon / (L + 1)):

    1. Exploration (J rounds): the oracle's current mixture anchors a
       radius-eps_bar version set; the candidate search picks (p_t, q_t)
       minimizing the worst in-set probability of exceeding the alpha/2 gap;
       one arm is drawn from q_t and fed back to the oracle.  The oracle is
       stepped only where the search needs its weights (eps_bar < 1); with
       eps_bar >= 1 one search serves every round, and the list of round
       searches holds it J times.
    2. Exploitation (L branches of J fresh draws each): L exploration rounds
       are sampled uniformly; each branch replays its q with a fresh oracle
       and averages the predictions; the branch whose average best matches
       its exploration anchor (in q-weighted squared error) is selected.
    3. Coverage sampling: the selected round's p becomes the witness; its
       in-set worst-case coverage gives the effective gamma; then the
       empirical-mean learner's coverage-sampling step runs on p with
       m = ceil(ln(2/delta) / gamma).

    A non-positive effective gamma skips the final phase and records the
    ``dec-too-large`` error tag in the transcript instead of failing silently;
    the output is then the best arm of the chosen round's mixture.  No
    positive-coverage precondition is required up front.

    Exploration draws arm and reward alternately on one generator.  With
    eps_bar >= 1 and noise that reads one uniform per reward or none (all
    kinds but Gaussian), one generator call draws every round at once, with
    the same doubles; otherwise it draws one round at a time, because the
    search reads the oracle each round (eps_bar < 1) or the Gaussian
    ziggurat reads a variable number of words.  The oracle's weights depend
    only on arms and rewards already drawn, so every mixture the learner
    reads (each exploration round's, for the estimation error and the picked
    anchors, and each branch's J predictions) comes from one batched
    :func:`oracle_weights` pass per phase.  Its products are stacked
    matmuls, one vector product per row, which keep the bits of the
    step-by-step oracle; a plain 2-D matmul would not.
    """
    fclass = model.function_class
    if params.horizon is None:
        raise ValueError("e2d learner requires params.horizon")
    L = ceil_count("e2d branch count L", math.log2(4.0 / params.delta))
    if params.horizon < L + 1:
        raise ValueError(f"horizon must be at least L + 1 = {L + 1}")
    check_entries(f"e2d horizon {params.horizon}", params.horizon, 1)
    J = params.horizon // (L + 1)
    half_alpha = params.alpha / 2.0
    bound = est_bound(fclass.n_functions, params.delta / (4.0 * L))
    eps_bar = 8.0 * math.sqrt(L / params.horizon * bound)
    B_half = gap_matrix(fclass, half_alpha)
    true_means = model.true_means

    rng = np.random.default_rng(seed)
    arms_chunks: list[np.ndarray] = []
    rewards_chunks: list[np.ndarray] = []

    # With eps_bar >= 1 the version set is the whole class for every anchor
    # and every q, so the search result is round-independent: solve once.
    fixed = dec_at(fclass, np.full(fclass.n_functions, 1.0 / fclass.n_functions),
                   eps_bar, half_alpha, E2D_SEARCH_RESOLUTION) if eps_bar >= 1.0 else None

    explore_arms, explore_rewards, searches = _explore(
        model, fixed, eps_bar, half_alpha, J, rng)
    arms_chunks.append(explore_arms)
    rewards_chunks.append(explore_rewards)
    picked_rounds = rng.integers(0, J, size=L)

    # The oracle's mixture and weights at the picked rounds, and the
    # q-weighted squared error of its mixture summed over every round.
    fhat_at: dict[int, np.ndarray] = {}
    weights_at: dict[int, np.ndarray] = {}
    est_error = np.zeros(())
    start = 0
    for w in oracle_weights(fclass.means, explore_arms, explore_rewards):
        stop = start + len(w)
        fhat = _row_products(w, fclass.means)
        q = np.array([search.q_witness.probs for search in searches[start:stop]])
        sq_error = (true_means - fhat) ** 2
        est_error = _running_sum(est_error, _row_products(sq_error, q[:, :, None])[:, 0])
        for t in picked_rounds.tolist():
            if start <= t < stop:
                fhat_at[t], weights_at[t] = fhat[t - start].copy(), w[t - start].copy()
        start = stop

    scores = np.empty(L)
    for branch in range(L):
        t = int(picked_rounds[branch])
        q = searches[t].q_witness
        # the branch's arms are committed before its first reward
        branch_arms = q.sample(rng, J)
        branch_rewards = sample_rewards(model, branch_arms, 1, rng)
        tilde_sum = np.zeros(fclass.n_arms)
        for w in oracle_weights(fclass.means, branch_arms, branch_rewards):
            tilde_sum = _running_sum(tilde_sum, _row_products(w, fclass.means))
        tilde = tilde_sum / J
        scores[branch] = float(q.probs @ (fhat_at[t] - tilde) ** 2)
        arms_chunks.append(branch_arms)
        rewards_chunks.append(branch_rewards)

    best_branch = int(np.argmin(scores))
    chosen = int(picked_rounds[best_branch])
    p_hat = searches[chosen].p_witness.probs
    q_hat = searches[chosen].q_witness
    versions = version_set(fclass, weights_at[chosen], q_hat, eps_bar)
    if versions.is_empty:
        eff_gamma = 1.0
    else:
        eff_gamma = float((B_half[versions.members] @ p_hat).min())

    meta = {
        "L": L,
        "J": J,
        "eps_bar": eps_bar,
        "est_error": float(est_error),
        "est_bound": bound,
        "selection_scores": scores.tolist(),
        "chosen_round": chosen,
        "effective_gamma": eff_gamma,
    }

    if eff_gamma <= 0.0:
        meta["error"] = "dec-too-large"
        winner = int(np.argmax(fhat_at[chosen]))
    else:
        m = _draw_count(eff_gamma, params.delta)
        n_per = chernoff_sample_count(params.alpha, params.delta, m)
        drawn, final_rewards, winner = _coverage_sampling(
            model, ArmDistribution(p_hat), m, n_per, rng, partial(np.mean, axis=1))
        arms_chunks.append(np.repeat(drawn, n_per))
        rewards_chunks.append(final_rewards)
        meta.update({"m": m, "per_arm": n_per})

    return Transcript(
        learner_name="e2d",
        seed=seed,
        runs=np.concatenate(arms_chunks),
        rewards=np.concatenate(rewards_chunks),
        output_arm=winner,
        meta=meta,
    )
