import ast
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maximin_bandits.core import (
    MAX_ENTRIES,
    _seed_words,
    ArmDistribution,
    CapacityError,
    FunctionClass,
    Model,
    NoiseSpec,
    Transcript,
    TrialStreams,
    from_json,
    gap_matrix,
    sample_rewards,
    stream_seeds,
    trial_seed,
    trial_seeds,
    to_json,
    two_point_support,
    HEAVY_TAIL_OUTLIER_PROB,
)
from maximin_bandits.harness import CERTIFY_BUDGET_CAP


def small_class():
    return FunctionClass(np.array([[1.0, 0.2, 0.0], [0.0, 0.7, 1.0]]), labels={"family": "toy"})


# ---------------------------------------------------------------------------
# trial_seed


def test_trial_seed_deterministic():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    assert trial_seed(42, 1) != trial_seed(42, 0)


def test_trial_seed_distinct_across_masters():
    seen = {trial_seed(m, i) for m in range(20) for i in range(50)}
    assert len(seen) == 1000


def test_trial_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        trial_seed(1, -1)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=50)
def test_trial_seed_stays_in_u64(master, index):
    s = trial_seed(master, index)
    assert 0 <= s < 2**64


# ---------------------------------------------------------------------------
# trial_seeds and stream_seeds: the batch forms, checked against the
# scalar trial_seed and numpy's own SeedSequence


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("master", [-7, 0, 42, 2**64 + 5, 2**70 + 3])
def test_trial_seeds_equal_trial_seed(master):
    seeds = trial_seeds(master, np.arange(1000))
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [trial_seed(master, i) for i in range(1000)]
    streams = trial_seeds(seeds, 3)
    assert streams.tolist() == [trial_seed(trial_seed(master, i), 3) for i in range(1000)]
    assert trial_seeds(master, 7).tolist() == [trial_seed(master, 7)]


def test_trial_seeds_rejects_negative_index():
    with pytest.raises(ValueError):
        trial_seeds(1, np.array([0, -1]))


#: 20,000 seeds spread over the 64-bit range, then the word boundaries.
BATCH_SEEDS = np.concatenate([
    np.random.default_rng(2024).integers(0, 2**64, size=20_000, dtype=np.uint64),
    np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64),
])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batch_seed_words_equal_seed_sequence():
    words = _seed_words(BATCH_SEEDS)
    assert words.shape == (BATCH_SEEDS.size, 4) and words.dtype == np.uint64
    for seed, row in zip(BATCH_SEEDS.tolist(), words):
        np.testing.assert_array_equal(
            row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("master", [-7, 3, 2**64 + 5])
def test_generator_seeds_equal_trial_seed(master):
    # 2500 trials span three blocks of the batch pass
    seeds = trial_seeds(master, np.arange(2500))
    assert list(stream_seeds(seeds, 2)) == [
        trial_seed(trial_seed(master, i), 2) for i in range(2500)]
    assert list(stream_seeds(seeds[:0], 2)) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_default_rng_of_a_generator_seed_is_the_integer_stream():
    for seed in stream_seeds(trial_seeds(2**63 + 11, np.arange(50)), 1):
        batch, direct = np.random.default_rng(seed), np.random.default_rng(int(seed))
        assert batch.bit_generator.state == direct.bit_generator.state
        np.testing.assert_array_equal(batch.random(5), direct.random(5))
        np.testing.assert_array_equal(batch.integers(10, size=5), direct.integers(10, size=5))
        # each call seeds a fresh generator: the first is not advanced
        again = np.random.default_rng(seed)
        np.testing.assert_array_equal(again.random(5), np.random.default_rng(int(seed)).random(5))


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                            (5, np.uint64), (4, "uint32")])
def test_generator_seed_falls_back_to_seed_sequence(n_words, dtype):
    (seed,) = stream_seeds(trial_seeds(99, np.arange(1)), 0)
    np.testing.assert_array_equal(
        seed.generate_state(n_words, dtype),
        np.random.SeedSequence(trial_seed(trial_seed(99, 0), 0)).generate_state(n_words, dtype))
    with pytest.raises(ValueError):
        seed.generate_state(4, np.float64)


def test_generator_seeds_hold_one_block_at_a_time():
    # the words of all 10^6 seeds at once would take 32 MB
    seeds = stream_seeds(np.arange(10**6, dtype=np.uint64), 5)
    tracemalloc.start()
    try:
        first = next(seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == trial_seed(0, 5)
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# TrialStreams: numpy's PCG64 generator, one stream per trial, as arrays

#: 10,000 trial seeds of one master, then that many of their stream 3.
KERNEL_SEEDS = trial_seeds(2024, np.arange(10_000))
STREAM_SEEDS = trial_seeds(KERNEL_SEEDS, 3)


@pytest.mark.parametrize("seeds", [KERNEL_SEEDS, STREAM_SEEDS], ids=["trial", "stream"])
def test_trial_streams_random_equals_default_rng(seeds):
    draws = CERTIFY_BUDGET_CAP + 1
    streams = TrialStreams(seeds)
    assert streams.size == seeds.size
    got = np.stack([streams.random() for _ in range(draws)], axis=1)
    want = np.stack([np.random.default_rng(seed).random(draws) for seed in seeds.tolist()])
    np.testing.assert_array_equal(got, want)


def lemire_integer(seed: int, n: int) -> tuple[int, int]:
    """``default_rng(seed).integers(n)`` from its raw outputs, in Python ints:
    numpy's 32-bit Lemire method on the low, then the high, half of each
    output.  Returns the draw and the count of rejected words."""
    if n == 1:
        return 0, 0
    raw = np.random.default_rng(seed).bit_generator
    threshold, rejected = (1 << 32) % n, 0
    while True:
        output = int(raw.random_raw())
        for word in (output & 0xFFFFFFFF, output >> 32):
            if (word * n) & 0xFFFFFFFF >= threshold:
                return (word * n) >> 32, rejected
            rejected += 1


@pytest.mark.parametrize("n", [1, 2, 3, 7, 256, 2**22, 2**31 + 11])
def test_trial_streams_integers_equal_default_rng(n):
    streams = TrialStreams(KERNEL_SEEDS)
    got, after = streams.integers(n), streams.random()
    assert got.dtype == np.int64
    want, want_after, rejected = [], [], 0
    for seed in KERNEL_SEEDS.tolist():
        rng = np.random.default_rng(seed)
        want.append(rng.integers(n))
        want_after.append(rng.random())  # each stream stepped as numpy steps it
        value, retries = lemire_integer(seed, n)
        assert value == want[-1]
        rejected += retries
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(after, want_after)
    if n == 2**31 + 11:  # about half of all words are rejected
        assert 0.4 * KERNEL_SEEDS.size < rejected < 1.6 * KERNEL_SEEDS.size


def test_trial_streams_integers_keep_the_buffered_half():
    # a second draw starts from each trial's buffered high half, or not
    streams, seeds = TrialStreams(KERNEL_SEEDS[:2000]), KERNEL_SEEDS[:2000].tolist()
    got = [streams.integers(2**31 + 11), streams.integers(5), streams.random(),
           streams.integers(2**32)]
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        want = [rng.integers(2**31 + 11), rng.integers(5), rng.random(), rng.integers(2**32)]
        assert [draw[i] for draw in got] == want


@pytest.mark.parametrize("n", [0, 2**32 + 1])
def test_trial_streams_integers_reject_a_range_off_32_bits(n):
    with pytest.raises(ValueError, match="TrialStreams.integers"):
        TrialStreams(KERNEL_SEEDS[:3]).integers(n)


def test_importing_the_cli_leaves_numpy_random_unimported():
    # numpy 2 imports numpy.random on first use; seeding must not import it
    # at load time, which every command's start-up would pay for
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import maximin_bandits.cli; print(before, 'numpy.random' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    before, after = out.stdout.split()
    assert after == before


# ---------------------------------------------------------------------------
# FunctionClass


def test_function_class_shape_accessors():
    fc = small_class()
    assert fc.n_functions == 2
    assert fc.n_arms == 3
    assert fc.family == "toy"
    np.testing.assert_array_equal(fc.row(1), [0.0, 0.7, 1.0])


def test_function_class_rejects_out_of_range_means():
    with pytest.raises(ValueError):
        FunctionClass(np.array([[1.2, 0.0]]))
    with pytest.raises(ValueError):
        FunctionClass(np.array([[-0.1, 0.0]]))


def test_function_class_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FunctionClass(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        FunctionClass(np.zeros(4))


def test_function_class_means_frozen():
    fc = small_class()
    with pytest.raises(ValueError):
        fc.means[0, 0] = 0.5


def test_function_class_json_round_trip():
    fc = small_class()
    doc = to_json(fc)
    assert list(doc) == ["means", "labels"]
    back = FunctionClass.from_json(json.loads(json.dumps(doc)))
    np.testing.assert_allclose(back.means, fc.means)
    assert back.family == "toy"


def test_function_class_from_json_count_mismatch():
    doc = to_json(small_class())
    doc["arms"] = 5
    with pytest.raises(ValueError):
        FunctionClass.from_json(doc)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"labels": 5}, "class.labels must be an object, got 5"),
        ({"means": [[1, "high"], [0, 1]]}, "class.means must be a matrix of numbers"),
        ({"means": [[1, 0], [0]]}, "class.means must be a matrix of numbers"),
        ({"means": [[1, {}], [0, 1]]}, "class.means must be a matrix of numbers"),
        ({"means": 5}, r"class\.means: means must be a matrix .*, got 5"),
        ({"means": [[2, 0]]}, r"class\.means: mean rewards must lie in \[0, 1\], got \[\[2, 0\]\]"),
    ],
)
def test_function_class_from_json_names_a_bad_field(change, message):
    with pytest.raises(ValueError, match=message):
        FunctionClass.from_json({"means": [[1, 0], [0, 1]], **change})


def test_function_class_over_the_cap_is_a_capacity_error():
    # not the wrapped ValueError of a bad matrix, which quotes every entry
    with pytest.raises(CapacityError) as err:
        FunctionClass.from_json({"means": [[0.0] * (MAX_ENTRIES + 1)]})
    assert str(err.value) == (
        f"class of 1 functions x {MAX_ENTRIES + 1} arms exceeds the cap of {MAX_ENTRIES} entries")


# ---------------------------------------------------------------------------
# NoiseSpec and two-point support


def test_noise_spec_constructors_and_flags():
    assert NoiseSpec.deterministic().bounded
    assert NoiseSpec.bernoulli().bounded
    assert NoiseSpec.two_point(0.3).bounded
    assert not NoiseSpec.gaussian(1.0).bounded
    assert not NoiseSpec.heavy_tail(2.0).bounded


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="nope")
    with pytest.raises(ValueError):
        NoiseSpec.gaussian(-1.0)
    with pytest.raises(ValueError):
        NoiseSpec.two_point(0.6)


def test_noise_spec_json_round_trip():
    for spec in (
        NoiseSpec.deterministic(),
        NoiseSpec.bernoulli(),
        NoiseSpec.gaussian(1.5),
        NoiseSpec.two_point(0.25),
        NoiseSpec.heavy_tail(2.0),
    ):
        assert NoiseSpec.from_json(to_json(spec)) == spec


def test_noise_spec_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown noise key noise.sigmaa "):
        NoiseSpec.from_json({"kind": "gaussian", "sigmaa": 0.3})


def test_noise_spec_json_rejects_non_numbers():
    with pytest.raises(ValueError, match="noise.sigma must be a number"):
        NoiseSpec.from_json({"kind": "gaussian", "sigma": "wide"})
    with pytest.raises(ValueError, match="noise.c must be a number"):
        NoiseSpec.from_json({"kind": "two-point", "c": [0.2]})
    assert NoiseSpec.from_json({"kind": "heavy-tail", "sigma": 2}).sigma == 2.0


def test_variance_bounds():
    assert NoiseSpec.deterministic().variance_bound(0.4) == 0.0
    assert NoiseSpec.bernoulli().variance_bound(0.5) == pytest.approx(0.25)
    assert NoiseSpec.gaussian(2.0).variance_bound(0.1) == pytest.approx(4.0)
    assert NoiseSpec.heavy_tail(1.5).variance_bound(0.9) == pytest.approx(2.25)
    for noise in (NoiseSpec.heavy_tail(1e300), NoiseSpec.gaussian(1e300)):
        with pytest.raises(ValueError, match="noise.sigma 1e[+]300 is too large"):
            noise.variance_bound(0.5)


@given(st.floats(0.0, 1.0), st.floats(0.0, 0.5))
@settings(deadline=None)
def test_two_point_support_preserves_mean(mean, c):
    lo, hi, p_hi = two_point_support(mean, c)
    assert 0.0 <= lo <= hi <= 1.0
    assert 0.0 <= p_hi <= 1.0
    assert lo * (1 - p_hi) + hi * p_hi == pytest.approx(mean, abs=1e-9)


def test_two_point_support_interior_case():
    lo, hi, p_hi = two_point_support(0.5, 0.2)
    assert (lo, hi) == (0.3, 0.7)
    assert p_hi == pytest.approx(0.5)


def test_two_point_support_boundary_clip():
    # mean near 0: lower point clips at 0, upper stays, p solves the mean
    lo, hi, p_hi = two_point_support(0.05, 0.2)
    assert lo == 0.0
    assert hi == pytest.approx(0.25)
    assert p_hi == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Model and reward sampling


def test_model_accessors():
    fc = small_class()
    m = Model(fc, 0, NoiseSpec.deterministic())
    np.testing.assert_array_equal(m.true_means, [1.0, 0.2, 0.0])


def test_model_rejects_bad_function_index():
    with pytest.raises(IndexError):
        Model(small_class(), 2, NoiseSpec.deterministic())


def test_deterministic_sampling_returns_means():
    m = Model(small_class(), 1, NoiseSpec.deterministic())
    rng = np.random.default_rng(0)
    out = sample_rewards(m, 1, 5, rng)
    np.testing.assert_allclose(out, np.full(5, 0.7))


def test_bernoulli_sampling_statistics():
    m = Model(small_class(), 1, NoiseSpec.bernoulli())
    rng = np.random.default_rng(7)
    out = sample_rewards(m, 1, 200_000, rng)
    assert set(np.unique(out)) <= {0.0, 1.0}
    assert out.mean() == pytest.approx(0.7, abs=0.01)


def test_gaussian_sampling_statistics():
    m = Model(small_class(), 0, NoiseSpec.gaussian(0.5))
    rng = np.random.default_rng(11)
    out = sample_rewards(m, 1, 200_000, rng)
    assert out.mean() == pytest.approx(0.2, abs=0.01)
    assert out.std() == pytest.approx(0.5, abs=0.01)


def test_two_point_sampling_statistics():
    m = Model(small_class(), 0, NoiseSpec.two_point(0.2))
    rng = np.random.default_rng(3)
    out = sample_rewards(m, 1, 100_000, rng)
    assert set(np.round(np.unique(out), 12)) == {0.0, 0.4}
    assert out.mean() == pytest.approx(0.2, abs=0.01)


def test_heavy_tail_sampling_statistics():
    sigma = 2.0
    m = Model(small_class(), 1, NoiseSpec.heavy_tail(sigma))
    rng = np.random.default_rng(5)
    out = sample_rewards(m, 1, 400_000, rng)
    outliers = np.abs(out - 0.7) > 1e-9
    assert outliers.mean() == pytest.approx(HEAVY_TAIL_OUTLIER_PROB, abs=0.002)
    assert out.mean() == pytest.approx(0.7, abs=0.05)
    assert out.var() == pytest.approx(sigma**2, rel=0.05)


def test_sample_rewards_rejects_bad_count():
    m = Model(small_class(), 0, NoiseSpec.bernoulli())
    with pytest.raises(ValueError):
        sample_rewards(m, 0, 0, np.random.default_rng(0))


ALL_NOISES = [
    NoiseSpec.deterministic(),
    NoiseSpec.bernoulli(),
    NoiseSpec.gaussian(0.5),
    NoiseSpec.two_point(0.2),
    NoiseSpec.two_point(0.0),  # zero-width support: every reward is the mean
    NoiseSpec.two_point(0.5),
    NoiseSpec.heavy_tail(2.0),
]


def interior_class():
    # means at 0 and 1 exercise the two-point boundary substitution
    return FunctionClass(np.array([[0.0, 0.35, 0.8, 1.0, 0.1]]))


@pytest.mark.parametrize("noise", ALL_NOISES, ids=repr)
@pytest.mark.parametrize("count", [1, 7])
def test_array_arms_equal_concatenated_per_arm_draws(noise, count):
    model = Model(interior_class(), 0, noise)
    arms = np.array([2, 0, 4, 4, 1, 3, 2, 1, 0, 3], dtype=np.int64)
    batch_rng = np.random.default_rng(1234)
    loop_rng = np.random.default_rng(1234)
    batched = sample_rewards(model, arms, count, batch_rng)
    looped = np.concatenate([sample_rewards(model, int(a), count, loop_rng) for a in arms])
    assert batched.dtype == looped.dtype == np.float64
    assert batched.tobytes() == looped.tobytes()
    # the generator ends in the same state
    assert batch_rng.random() == loop_rng.random()


@pytest.mark.parametrize("noise", ALL_NOISES, ids=repr)
def test_empty_arm_array_draws_nothing(noise):
    model = Model(interior_class(), 0, noise)
    rng = np.random.default_rng(5)
    out = sample_rewards(model, np.empty(0, dtype=np.int64), 3, rng)
    assert out.shape == (0,)
    assert rng.random() == np.random.default_rng(5).random()


def test_sample_rewards_rejects_bad_arm_arrays():
    model = Model(small_class(), 0, NoiseSpec.bernoulli())
    rng = np.random.default_rng(0)
    with pytest.raises(IndexError):
        sample_rewards(model, np.array([0, 3]), 1, rng)
    with pytest.raises(IndexError):
        sample_rewards(model, np.array([-1, 0]), 1, rng)
    with pytest.raises(ValueError):
        sample_rewards(model, np.array([0.0, 1.0]), 1, rng)
    with pytest.raises(ValueError):
        sample_rewards(model, np.array([[0, 1]]), 1, rng)
    with pytest.raises(ValueError):
        sample_rewards(model, np.array([0, 1]), 0, rng)


# ---------------------------------------------------------------------------
# ArmDistribution


def test_arm_distribution_validation():
    with pytest.raises(ValueError):
        ArmDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ArmDistribution(np.array([-0.1, 1.1]))


def test_arm_distribution_uniform_and_point_mass():
    u = ArmDistribution.uniform(4)
    np.testing.assert_allclose(u.probs, 0.25)
    p = ArmDistribution.point_mass(2, 4)
    assert p.probs[2] == 1.0 and p.probs.sum() == 1.0


def test_arm_distribution_sampling_matches_weights():
    d = ArmDistribution(np.array([0.1, 0.6, 0.3]))
    rng = np.random.default_rng(9)
    draws = d.sample(rng, size=100_000)
    freq = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freq, d.probs, atol=0.01)
    single = d.sample(np.random.default_rng(1))
    assert isinstance(single, int)


# ---------------------------------------------------------------------------
# Transcript


def test_transcript_accounting():
    t = Transcript(
        learner_name="x",
        seed=1,
        runs=np.array([0, 1], dtype=np.int64),
        run_lengths=np.array([1, 2], dtype=np.int64),
        rewards=np.array([0.0, 1.0, 0.5]),
        output_arm=1,
    )
    assert t.total_queries == 3
    assert "arms" not in vars(t)  # counting reads the rewards, not the arm log
    np.testing.assert_array_equal(t.arms, [0, 1, 1])


def test_transcript_freezes_arrays_in_place():
    runs = np.array([0, 1, 1], dtype=np.int64)
    rewards = np.array([0.0, 1.0, 0.5])
    t = Transcript(learner_name="x", seed=0, runs=runs, rewards=rewards, output_arm=1)
    assert t.runs is runs and t.rewards is rewards and t.arms is runs
    assert not runs.flags.writeable and not rewards.flags.writeable
    lengths = np.array([2, 1, 1], dtype=np.int64)
    t = Transcript(learner_name="x", seed=0, runs=runs, run_lengths=lengths,
                   rewards=np.zeros(4), output_arm=1)
    assert t.run_lengths is lengths and not lengths.flags.writeable
    # lists and other dtypes are converted
    t = Transcript(learner_name="x", seed=0, runs=[0, 2], rewards=[1, 0], output_arm=0)
    assert t.runs.dtype == np.int64 and t.rewards.dtype == np.float64
    assert not t.runs.flags.writeable
    t = Transcript(learner_name="x", seed=0, runs=[0, 2], run_lengths=[1, 1],
                   rewards=[1, 0], output_arm=0)
    assert t.run_lengths.dtype == np.int64


@pytest.mark.parametrize("run_lengths", [3, np.array([2, 1, 4], dtype=np.int64)],
                         ids=["scalar", "array"])
def test_transcript_expands_runs_on_first_read(run_lengths):
    runs = np.array([2, 0, 5], dtype=np.int64)
    want = np.repeat(runs, run_lengths)
    t = Transcript(learner_name="x", seed=0, runs=runs, run_lengths=run_lengths,
                   rewards=np.zeros(want.size), output_arm=0)
    assert t.total_queries == want.size and "arms" not in vars(t)
    assert t.arms.dtype == np.int64 and t.arms.tobytes() == want.tobytes()
    assert not t.arms.flags.writeable
    assert t.arms is t.arms  # expanded once, then cached
    with pytest.raises(FrozenInstanceError):
        t.runs = runs


def test_function_class_and_arm_distribution_copy_their_input():
    means = np.array([[0.2, 0.8]])
    fc = FunctionClass(means)
    means[0, 0] = 0.9
    assert fc.means[0, 0] == 0.2 and means.flags.writeable
    probs = np.array([0.5, 0.5])
    dist = ArmDistribution(probs)
    probs[0] = 0.0
    assert dist.probs[0] == 0.5 and probs.flags.writeable


def test_transcript_rejects_mismatched_lengths():
    for run_lengths, rewards in [(1, [0.0]), ([1, 2], [0.0, 1.0])]:
        with pytest.raises(ValueError, match="sum to the reward count"):
            Transcript(
                learner_name="x",
                seed=0,
                runs=np.array([0, 1], dtype=np.int64),
                run_lengths=run_lengths,
                rewards=np.array(rewards),
                output_arm=0,
            )


@pytest.mark.parametrize(
    "runs, run_lengths, output_arm, message",
    [
        ([0, 1], 0, 0, "lengths must be >= 1"),
        ([0, 1], [2, 0], 0, "lengths must be >= 1"),
        ([0, 1], [1, 1, 0], 0, "one length per run"),
        ([0, 1], [[1, 1]], 0, "one length per run"),
        ([[0, 1]], 1, 0, "must be 1-D"),
        ([0, -1], 1, 0, "valid indices"),
        ([0, 1], 1, -1, "valid index"),
    ],
)
def test_transcript_rejects_invalid_runs(runs, run_lengths, output_arm, message):
    with pytest.raises(ValueError, match=message):
        Transcript(learner_name="x", seed=0, runs=np.array(runs, dtype=np.int64),
                   run_lengths=run_lengths, rewards=np.zeros(2), output_arm=output_arm)


# ---------------------------------------------------------------------------
# gap matrix


def test_gap_matrix_small_example():
    fc = small_class()
    np.testing.assert_array_equal(
        gap_matrix(fc, 0.25), [[1, 0, 0], [0, 0, 1]]
    )
    np.testing.assert_array_equal(
        gap_matrix(fc, 0.85), [[1, 1, 0], [0, 1, 1]]
    )
    np.testing.assert_array_equal(gap_matrix(fc, 1.0), np.ones((2, 3)))


def test_gap_matrix_boundary_is_inclusive():
    # dyadic values so the gap equals alpha exactly in floating point
    fc = FunctionClass(np.array([[0.75, 0.5]]))
    np.testing.assert_array_equal(gap_matrix(fc, 0.25), [[1, 1]])


def test_gap_matrix_rejects_alpha_out_of_range():
    fc = small_class()
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            gap_matrix(fc, bad)


# ---------------------------------------------------------------------------
# The one JSON encoder


@dataclass(frozen=True)
class Encoded:
    name: str
    mixture: ArmDistribution
    weights: np.ndarray
    value_: float = field(metadata={"key": "value"})
    hidden: list = field(metadata={"key": None})
    note: str = ""
    count: int = 1
    extra: dict | None = None


def test_to_json_writes_fields_in_order_renamed_and_without_defaults():
    obj = Encoded("a", ArmDistribution([0.25, 0.75]), np.array([1.0, 2.0]), 0.5, [1, 2])
    doc = to_json(obj)
    assert list(doc) == ["name", "mixture", "weights", "value"]
    assert doc == {"name": "a", "mixture": [0.25, 0.75], "weights": [1.0, 2.0], "value": 0.5}
    assert all(type(v) is float for v in doc["mixture"] + doc["weights"])
    full = Encoded("a", ArmDistribution([1.0]), np.zeros(0), 0.5, [], note="x", count=2,
                   extra={"k": 1})
    assert list(to_json(full)) == ["name", "mixture", "weights", "value", "note", "count",
                                   "extra"]


# ---------------------------------------------------------------------------
# The one JSON decoder


@dataclass(frozen=True)
class Inner:
    rate: float
    label: str | None = None


@dataclass(frozen=True, eq=False)
class Outer:
    name: str
    inner: Inner = field(metadata={"key": "in"})
    weights: np.ndarray
    mixture: ArmDistribution
    count: int = 1
    flag: bool = False
    extra: dict | None = None


OUTER_DOC = {"name": "a", "in": {"rate": 0.5}, "weights": [1.0, 2.0], "mixture": [0.25, 0.75]}


def test_from_json_reads_what_to_json_writes():
    obj = from_json(Outer, OUTER_DOC)
    assert obj.inner == Inner(0.5) and obj.count == 1 and obj.flag is False
    assert to_json(obj) == OUTER_DOC
    full = Outer("b", Inner(1.0, "x"), np.zeros(0), ArmDistribution([1.0]), count=3, flag=True,
                 extra={"k": [1]})
    doc = json.loads(json.dumps(to_json(full)))
    assert doc["in"] == {"rate": 1.0, "label": "x"}
    assert to_json(from_json(Outer, doc)) == doc
    assert from_json(Outer, {**OUTER_DOC, "extra": None, "count": 2.0}).count == 2


@pytest.mark.parametrize(
    "change, message",
    [
        ({"typo": 1}, "unknown key typo (known: name, in, weights, mixture, count, flag, extra)"),
        ({"in": {"rate": 0.5, "rat": 1}}, "unknown in key in.rat (known: rate, label)"),
        ({"in": None}, "in must be an object, got None"),
        ({"in": {}}, "in.rate is required"),
        ({"in": {"rate": "x"}}, "in.rate must be a number, got 'x'"),
        ({"in": {"rate": 0.5, "label": 3}}, "in.label must be a string, got 3"),
        ({"name": None}, "name must be a string, got None"),
        ({"count": 1.5}, "count must be an integer, got 1.5"),
        ({"count": None}, "count must be a number, got None"),
        ({"flag": 1}, "flag must be true or false, got 1"),
        ({"extra": [1]}, "extra must be an object, got [1]"),
        ({"weights": "12"}, "weights must be a list of numbers, got '12'"),
        ({"weights": [[1.0], [2.0, 3.0]]}, "weights must be a list of numbers"),
        ({"mixture": ["a"]}, "mixture must be a list of numbers"),
    ],
)
def test_from_json_names_the_path_of_a_bad_field(change, message):
    with pytest.raises(ValueError) as info:
        from_json(Outer, {**OUTER_DOC, **change})
    assert message in str(info.value)


def test_from_json_requires_an_object_and_every_field_without_default():
    with pytest.raises(ValueError, match="Outer document must be an object, got 5"):
        from_json(Outer, 5)
    with pytest.raises(ValueError, match="^mixture is required$"):
        from_json(Outer, {k: v for k, v in OUTER_DOC.items() if k != "mixture"})
    with pytest.raises(ValueError, match="^noise.kind is required$"):
        NoiseSpec.from_json({})


SRC = Path(__file__).resolve().parents[1] / "src" / "maximin_bandits"


def test_no_module_defines_its_own_encoder():
    """Every JSON and CSV output goes through ``core.to_json`` and the one CSV
    writer, and every document is read through ``core.from_json``: no class or
    module may define ``to_json``, ``csv_row``, ``to_csv`` or ``from_json``
    beside the module-level ``core.to_json`` and ``core.from_json``.  The one
    other decoder is ``FunctionClass.from_json``, which also checks the
    declared ``arms`` and ``functions`` counts, which are not fields."""
    names = {"to_json", "csv_row", "to_csv", "from_json"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = []
        if path.name == "core.py":
            allowed = [*tree.body, *(node for cls in tree.body if isinstance(cls, ast.ClassDef)
                                     and cls.name == "FunctionClass" for node in cls.body
                                     if getattr(node, "name", None) == "from_json")]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
                if not any(node is ok for ok in allowed):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
    core = ast.parse((SRC / "core.py").read_text())
    assert [n.name for n in core.body if isinstance(n, ast.FunctionDef) and n.name in names] == [
        "to_json", "from_json"]

