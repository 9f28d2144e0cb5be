"""Shared domain types for finite-class bandit experiments.

A problem instance is a finite matrix of mean rewards (one row per candidate
mean function, one column per arm) together with a conditional reward
distribution whose mean at every arm equals the chosen row.  Everything
downstream (games, learners, experiment harness) builds on the types here.

All randomness flows through explicit ``numpy.random.Generator`` streams or
integer seeds derived via :func:`trial_seed`, so a run is a pure function of
(config, seed).  A run derives its trial seeds in batches with
:func:`trial_seeds` and :func:`generator_seeds`: one vectorised pass hashes
a block of them and computes the words numpy's ``SeedSequence`` would, so
each trial's ``np.random.default_rng(seed)`` is a fresh generator with the
stream of ``default_rng(int(seed))``, built without hashing the seed again.
"""

from __future__ import annotations

import math
import types
import typing
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache, cached_property, partial

import numpy as np

__all__ = [
    "CapacityError",
    "MAX_ENTRIES",
    "check_entries",
    "PrecisionError",
    "config_number",
    "config_value",
    "check_keys",
    "to_json",
    "from_json",
    "FunctionClass",
    "NoiseSpec",
    "Model",
    "ArmDistribution",
    "Transcript",
    "gap_matrix",
    "sample_rewards",
    "two_point_support",
    "trial_seed",
    "trial_seeds",
    "generator_seeds",
    "HEAVY_TAIL_OUTLIER_PROB",
    "NOISE_KINDS",
]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

#: Total probability that a heavy-tail three-point reward lands on an outlier
#: (split evenly between the two outliers).  The outlier offset is then fixed
#: by the requested variance.
HEAVY_TAIL_OUTLIER_PROB = 0.02

NOISE_KINDS = ("deterministic", "bernoulli", "gaussian", "two-point", "heavy-tail")

_BOUNDED_KINDS = ("deterministic", "bernoulli", "two-point")


class CapacityError(ValueError):
    """A requested array would hold more than ``MAX_ENTRIES`` entries."""


#: The one size cap on any array sized by user input: 32 MiB of float64.
MAX_ENTRIES = 1 << 22


def check_entries(what: str, rows, cols) -> None:
    """Call before allocating: CapacityError unless rows x cols <= the cap (NaN fails)."""
    if not rows * cols <= MAX_ENTRIES:
        raise CapacityError(f"{what} exceeds the cap of {MAX_ENTRIES} entries")


class PrecisionError(ValueError):
    """A requested tolerance is finer than the numeric scheme can resolve."""


def _split_mix64(state):
    # SplitMix64 finalizer: bijective 64-bit mix, stable across platforms.
    # The same bits on an int and on a 1-D uint64 array (whose products wrap
    # without the overflow warning a numpy scalar would raise).
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(master_seed: int, index: int) -> int:
    """Derive the 64-bit seed of one trial from a master seed.

    Pure integer arithmetic, independent of numpy versions, so persisted
    experiment outputs are reproducible byte for byte.
    """
    if index < 0:
        raise ValueError("trial index must be nonnegative")
    return _split_mix64((_split_mix64(master_seed & _MASK64) + index) & _MASK64)


def trial_seeds(master, index) -> np.ndarray:
    """:func:`trial_seed` over arrays, as a 1-D uint64 array.

    ``master`` is an int (any int, reduced mod 2^64 as :func:`trial_seed`
    does) or a 1-D uint64 array of master seeds; ``index`` is an int or a
    1-D array of nonnegative ints.  The two broadcast against each other.
    """
    index = np.asarray(index)
    if index.size and index.min() < 0:
        raise ValueError("trial index must be nonnegative")
    if np.ndim(master) == 0:
        master = [int(master) & _MASK64]
    master = np.asarray(master, dtype=np.uint64)
    return _split_mix64((_split_mix64(master) + index.astype(np.uint64)) & _MASK64)


def _hash_chain(init: int, mult: int, count: int) -> tuple:
    """The (xor, multiplier) constants of ``count`` successive SeedSequence
    hashes: each xors in the running constant, then multiplies by it once
    stepped."""
    chain, const = [], init
    for _ in range(count):
        stepped = const * mult & _MASK32
        chain.append((const, stepped))
        const = stepped
    return tuple(chain)


# numpy.random.SeedSequence's hash constants.  Its pool hashes its four
# entropy words, then twelve more as it cross-mixes them; generating four
# uint64 words hashes the pool eight times on a second chain.
_POOL_HASHES = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_HASHES = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash32(words: np.ndarray, consts: tuple) -> np.ndarray:
    words = (words ^ consts[0]) * consts[1]
    return words ^ (words >> 16)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``.

    A seed below 2^64 enters the pool as its low and high 32-bit words,
    padded with zeros to the pool size of four.  Every step is a uint32
    multiply, xor or shift with constants that do not depend on the seed,
    so the whole batch is mixed at once.
    """
    hashes = iter(_POOL_HASHES)
    zeros = np.zeros(seeds.size, dtype=np.uint32)
    entropy = ((seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zeros, zeros)
    pool = [_hash32(word, next(hashes)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hash32(pool[src], next(hashes))
                pool[dst] = mixed ^ (mixed >> 16)
    state = np.empty((seeds.size, 8), dtype="<u4")
    for i, consts in enumerate(_OUTPUT_HASHES):
        state[:, i] = _hash32(pool[i % 4], consts)
    # SeedSequence pairs its uint32 words little-endian into uint64s
    return state.view("<u8").astype(np.uint64)


@cache
def _seed_type() -> type:
    """The seed type :func:`generator_seeds` yields, made on first use so
    that importing this module leaves ``numpy.random`` unimported."""
    from numpy.random.bit_generator import ISeedSequence, SeedSequence

    class TrialSeed(int, ISeedSequence):
        """An int seed holding its SeedSequence words, ``words``."""

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and np.dtype(dtype) == np.uint64:  # what PCG64 asks
                return self.words.copy()
            return SeedSequence(int(self)).generate_state(n_words, dtype)

    return TrialSeed


#: Trials whose seeds one numpy pass of :func:`generator_seeds` derives:
#: enough to amortise a pass, few enough that memory does not grow with
#: the trial count.
_SEED_BLOCK = 1024


def generator_seeds(master: int, trials: int, stream: int | None = None) -> Iterator[int]:
    """Yield ``trial_seed(master, i)`` for i = 0 .. trials-1, lazily; with a
    ``stream``, yield that stream of each, ``trial_seed(trial_seed(master, i),
    stream)``.

    Each seed is an int equal to that value, and ``np.random.default_rng``
    seeds a fresh ``Generator(PCG64)`` from it with the stream of
    ``default_rng(int(seed))``.  It does so from words derived here for a
    block of trials in one numpy pass, instead of hashing each seed through
    a new ``SeedSequence``.
    """
    seed_type = _seed_type()
    for start in range(0, trials, _SEED_BLOCK):
        block = trial_seeds(master, np.arange(start, min(start + _SEED_BLOCK, trials)))
        if stream is not None:
            block = trial_seeds(block, stream)
        for value, words in zip(block.tolist(), _seed_words(block)):
            seed = seed_type(value)
            seed.words = words
            yield seed


def config_number(value, kind: type, name: str):
    """A config field as a float or an int; anything else, a boolean, a
    numeric string or a fractional int included, raises ValueError naming
    the field.  An integer stays exact (64-bit seeds do not survive a round
    trip through float)."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if kind is int and isinstance(value, (int, np.integer)):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if kind is float:
        return number
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(number)


def check_keys(doc: dict, known, what: str, prefix: str = "") -> None:
    """Raise ValueError naming the first key of ``doc`` that is not in ``known``."""
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown {what} {prefix}{key} (known: {', '.join(known)})")


#: The JSON kind a non-numeric field must have, as an error names it.
_KIND_NAMES = {bool: "true or false", str: "a string", dict: "an object", list: "a list"}


def config_value(value, kind: type, name: str):
    """``config_number`` for a number; any other ``value`` must be of the JSON
    kind ``kind`` (bool, str, dict or list), or ValueError names the field."""
    if kind is int or kind is float:
        return config_number(value, kind, name)
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def to_json(obj) -> dict:
    """The JSON document of a dataclass: one key per field, in field order.

    The key is the field name unless the field's ``metadata["key"]`` renames
    it, or leaves the field out when it is None.  A field that holds its
    default is left out; an array or an ``ArmDistribution`` is written as a
    list, and any other nested dataclass as its own document.
    """
    doc = {}
    for f in fields(obj):
        key = f.metadata.get("key", f.name)
        value = getattr(obj, f.name)
        if isinstance(value, ArmDistribution):
            value = value.probs
        elif is_dataclass(value):
            value = to_json(value)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if key is not None and (f.default is MISSING or value != f.default):
            doc[key] = value
    return doc


@cache
def _json_fields(cls) -> tuple:
    """Cached per class, as it costs more than a decode: the keys ``to_json``
    writes, and per key (name, key, type, nullable, required)."""
    hints = typing.get_type_hints(cls)
    specs = []
    for f in fields(cls):
        key, kind = f.metadata.get("key", f.name), hints[f.name]
        nullable = isinstance(kind, types.UnionType) and type(None) in typing.get_args(kind)
        if nullable:
            (kind,) = (arg for arg in typing.get_args(kind) if arg is not type(None))
        if key is not None:
            required = f.default is MISSING and f.default_factory is MISSING
            specs.append((f.name, key, kind, nullable, required))
    return tuple(spec[1] for spec in specs), tuple(specs)


def from_json(cls, doc, prefix: str = ""):
    """The dataclass ``cls`` read from the document ``to_json`` writes.  A key
    that names no field, a missing field without a default and a value of the
    wrong JSON kind raise ValueError naming the path ``prefix + key``."""
    section = prefix[:-1]
    config_value(doc, dict, section or f"{cls.__name__} document")
    keys, specs = _json_fields(cls)
    check_keys(doc, keys, f"{section} key".lstrip(), prefix)
    values = {}
    for name, key, kind, nullable, required in specs:
        path, value = prefix + key, doc.get(key, MISSING)
        if value is MISSING:
            if required:
                raise ValueError(f"{path} is required")
        elif value is None and nullable:
            values[name] = None
        elif kind in _KIND_NAMES or kind is int or kind is float:
            values[name] = config_value(value, kind, path)
        elif kind is np.ndarray or kind is ArmDistribution:
            try:
                array = np.asarray(config_value(value, list, path), dtype=float)
            except (TypeError, ValueError):
                raise ValueError(f"{path} must be a list of numbers, got {value!r}") from None
            values[name] = array if kind is np.ndarray else ArmDistribution(array)
        else:  # a nested dataclass
            values[name] = from_json(kind, value, path + ".")
    return cls(**values)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FunctionClass:
    """A finite class of candidate mean-reward functions over finitely many arms.

    Parameters
    ----------
    means:
        Matrix of shape (functions, arms) with entries in [0, 1]; row ``f``
        lists the mean reward of every arm when ``f`` is the truth.
    labels:
        Optional JSON-compatible metadata (family name, per-arm or
        per-function names, construction parameters).
    """

    means: np.ndarray
    labels: dict | None = None

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        if means.ndim != 2 or means.shape[0] < 1 or means.shape[1] < 1:
            raise ValueError("means must be a matrix with >= 1 function and >= 1 arm")
        check_entries("class of {} functions x {} arms".format(*means.shape), *means.shape)
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if means.min() < 0.0 or means.max() > 1.0:
            raise ValueError("mean rewards must lie in [0, 1]")
        object.__setattr__(self, "means", _frozen_array(means, float))

    @property
    def n_functions(self) -> int:
        return self.means.shape[0]

    @property
    def n_arms(self) -> int:
        return self.means.shape[1]

    @property
    def family(self) -> str:
        if self.labels and "family" in self.labels:
            return str(self.labels["family"])
        return "inline"

    def row(self, function: int) -> np.ndarray:
        if not 0 <= function < self.n_functions:
            raise IndexError(f"function index {function} out of range")
        return self.means[function]

    @classmethod
    def from_json(cls, doc: dict) -> "FunctionClass":
        labels = doc.get("labels")
        if labels is not None:
            config_value(labels, dict, "class.labels")
        try:
            means = np.asarray(doc["means"], dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"class.means must be a matrix of numbers, got {doc['means']!r}") from None
        try:
            fc = cls(means, labels=labels)
        except CapacityError:
            raise
        except ValueError as err:
            raise ValueError(f"class.means: {err}, got {doc['means']!r}") from None
        for key, count in (("arms", fc.n_arms), ("functions", fc.n_functions)):
            if key in doc and config_number(doc[key], int, f"class.{key}") != count:
                raise ValueError(f"declared class.{key} disagrees with the means matrix")
        return fc


@dataclass(frozen=True)
class NoiseSpec:
    """Conditional reward distribution; the mean at arm a is always f(a).

    Kinds
    -----
    deterministic:
        Reward equals the mean exactly.
    bernoulli:
        Reward in {0, 1} with success probability equal to the mean.
    gaussian:
        Mean plus centered Gaussian noise with standard deviation ``sigma``;
        unbounded support.
    two-point:
        Support {mean - c, mean + c} clipped into [0, 1]: when one side would
        leave [0, 1] the nearer boundary becomes a support point and the
        probability pair is re-solved to preserve the mean.  Requires
        c in [0, 1/2].
    heavy-tail:
        Three-point distribution {mean - s, mean, mean + s} with outlier
        probability ``HEAVY_TAIL_OUTLIER_PROB`` split across the two extremes
        and s chosen so the variance is exactly sigma**2.  Rare but very large
        excursions; support typically leaves [0, 1].
    """

    kind: str
    sigma: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind in ("gaussian", "heavy-tail"):
            if self.sigma is None or not (self.sigma > 0) or not math.isfinite(self.sigma):
                raise ValueError(f"{self.kind} noise requires sigma > 0")
        elif self.sigma is not None:
            raise ValueError(f"{self.kind} noise takes no sigma")
        if self.kind == "two-point":
            if self.c is None or not (0.0 <= self.c <= 0.5):
                raise ValueError("two-point noise requires c in [0, 1/2]")
        elif self.c is not None:
            raise ValueError(f"{self.kind} noise takes no c")

    @classmethod
    def deterministic(cls) -> "NoiseSpec":
        return cls("deterministic")

    @classmethod
    def bernoulli(cls) -> "NoiseSpec":
        return cls("bernoulli")

    @classmethod
    def gaussian(cls, sigma: float) -> "NoiseSpec":
        return cls("gaussian", sigma=float(sigma))

    @classmethod
    def two_point(cls, c: float) -> "NoiseSpec":
        return cls("two-point", c=float(c))

    @classmethod
    def heavy_tail(cls, sigma: float) -> "NoiseSpec":
        return cls("heavy-tail", sigma=float(sigma))

    @property
    def bounded(self) -> bool:
        """True when rewards always land in [0, 1]."""
        return self.kind in _BOUNDED_KINDS

    def variance_bound(self, mean: float) -> float:
        """Exact reward variance at a given conditional mean."""
        if self.kind == "deterministic":
            return 0.0
        if self.kind == "bernoulli":
            return mean * (1.0 - mean)
        if self.kind == "two-point":
            lo, hi, p_hi = two_point_support(mean, self.c)
            return p_hi * (hi - mean) ** 2 + (1.0 - p_hi) * (lo - mean) ** 2
        return float(self.sigma) ** 2

    from_json = classmethod(partial(from_json, prefix="noise."))


def two_point_support(mean: float, c: float) -> tuple[float, float, float]:
    """Support points and upper-point probability of the two-point reward law.

    Returns (lo, hi, p_hi) with p_hi * hi + (1 - p_hi) * lo == mean and both
    support points inside [0, 1].  With c <= 1/2 at most one side of
    mean +- c can leave [0, 1], so a single boundary substitution suffices.
    """
    if not 0.0 <= mean <= 1.0:
        raise ValueError("mean must lie in [0, 1]")
    if not 0.0 <= c <= 0.5:
        raise ValueError("c must lie in [0, 1/2]")
    lo, hi = mean - c, mean + c
    if lo < 0.0:
        lo = 0.0
    elif hi > 1.0:
        hi = 1.0
    if hi <= lo:
        return mean, mean, 1.0
    return lo, hi, (mean - lo) / (hi - lo)


@dataclass(frozen=True, eq=False)
class Model:
    """A function class with a designated true row and a reward law."""

    function_class: FunctionClass
    true_function: int
    noise: NoiseSpec

    def __post_init__(self):
        if not 0 <= self.true_function < self.function_class.n_functions:
            raise IndexError(f"true function {self.true_function} out of range")

    @property
    def true_means(self) -> np.ndarray:
        return self.function_class.means[self.true_function]


def sample_rewards(model: Model, arm, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. rewards for one arm, or for each listed arm.

    ``arm`` is an int or a 1-D integer array.  For an array the result holds
    ``count`` rewards per listed arm, in the order listed, drawn in one
    generator call; its bytes and the generator's state afterwards equal
    those of one call per listed arm (numpy fills a long draw exactly as
    consecutive short ones).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n_arms = model.function_class.n_arms
    if isinstance(arm, (int, np.integer)):
        if not 0 <= arm < n_arms:
            raise IndexError(f"arm {arm} out of range")
        mu = float(model.true_means[arm])
        shape = count
    else:
        arms = np.asarray(arm)
        if arms.ndim != 1 or (arms.size and arms.dtype.kind not in "iu"):
            raise ValueError("arms must be an int or a 1-D integer array")
        if arms.size and not (0 <= arms.min() and arms.max() < n_arms):
            raise IndexError(f"arms out of range [0, {n_arms})")
        # one row of draws per listed arm; the column of means broadcasts
        mu = model.true_means[arms][:, np.newaxis]
        shape = (arms.size, count)
    kind = model.noise.kind
    if kind == "deterministic":
        rewards = np.full(shape, mu)
    elif kind == "gaussian":
        rewards = rng.standard_normal(shape)
        rewards *= model.noise.sigma
        rewards += mu
    else:
        rewards = _rewards_from_uniforms(model.noise, mu, rng.random(shape))
    return rewards.ravel()


def _rewards_from_uniforms(noise: NoiseSpec, mu, u: np.ndarray) -> np.ndarray:
    """Rewards of the bernoulli, two-point and heavy-tail laws, one per
    uniform in ``u``, at the means ``mu`` (which broadcast against ``u``).

    Each of these laws reads exactly one ``rng.random`` double per reward,
    so a caller that draws the uniforms itself gets the rewards, and leaves
    the generator, as :func:`sample_rewards` would.  The rewards are
    written over ``u``, which is returned, so a draw holds one float per
    reward at its peak.
    """
    if noise.kind == "bernoulli":
        return np.less(u, mu, out=u)
    if noise.kind == "two-point":
        # (lo, hi, p_hi) per mean, each shaped and broadcast like mu
        law = np.array([two_point_support(v, noise.c) for v in np.ravel(mu).tolist()])
        lo, hi, p_hi = law.T.reshape((3,) + np.shape(mu))
        upper = u < p_hi
        np.copyto(u, lo)
        np.copyto(u, hi, where=upper)
        return u
    # heavy-tail three-point: variance sigma**2 packed into rare outliers
    s = noise.sigma / math.sqrt(HEAVY_TAIL_OUTLIER_PROB)
    half = HEAVY_TAIL_OUTLIER_PROB / 2.0
    low, high = u < half, u >= 1.0 - half
    np.copyto(u, mu)
    np.copyto(u, mu - s, where=low)
    np.copyto(u, mu + s, where=high)
    return u


@dataclass(frozen=True, eq=False)
class ArmDistribution:
    """A probability vector over arms (entries >= 0, sum within 1e-9 of 1)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a nonempty vector")
        if not np.all(np.isfinite(probs)) or probs.min() < 0.0:
            raise ValueError("probabilities must be finite and >= 0")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1 within 1e-9")
        object.__setattr__(self, "probs", _frozen_array(probs, float))

    @property
    def n_arms(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, n_arms: int) -> "ArmDistribution":
        return cls(np.full(n_arms, 1.0 / n_arms))

    @classmethod
    def point_mass(cls, arm: int, n_arms: int) -> "ArmDistribution":
        probs = np.zeros(n_arms)
        probs[arm] = 1.0
        return cls(probs)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative sums of ``probs``, computed once (not a field, so no
        document carries it)."""
        return _frozen_array(np.cumsum(self.probs), float)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Inverse-CDF sampling; deterministic given the generator state."""
        idx = self._inverse_cdf(rng.random(size if size is not None else 1))
        return int(idx[0]) if size is None else idx

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """The arm of each uniform in ``u``: what :meth:`sample` returns for
        the doubles it draws."""
        idx = np.minimum(np.searchsorted(self.cdf, u, side="right"), self.n_arms - 1)
        return idx.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Transcript:
    """The full interaction record of one learner run.

    The arm log is kept as runs: run j queries arm ``runs[j]`` for
    ``run_lengths[j]`` consecutive rounds (``run_lengths`` is one int for
    every run, or one int per run; the default 1 makes ``runs`` the per-query
    log itself).  ``arms[i]`` is the arm queried in round i+1 (rounds count
    from 1), expanded from the runs on first read and cached; ``rewards[i]``
    is the observed reward.  ``meta`` carries learner-specific diagnostics
    (and an ``error`` tag when a run ends abnormally).  Arrays passed in are
    frozen in place, not copied, so the caller gives up writing to them.
    """

    learner_name: str
    seed: int
    runs: np.ndarray
    rewards: np.ndarray
    output_arm: int
    run_lengths: int | np.ndarray = 1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        runs = np.asarray(self.runs, dtype=np.int64)
        rewards = np.asarray(self.rewards, dtype=float)
        runs.setflags(write=False)
        rewards.setflags(write=False)
        if runs.ndim != 1 or rewards.ndim != 1:
            raise ValueError("runs and rewards must be 1-D")
        lengths = self.run_lengths
        if np.ndim(lengths) == 0:
            lengths = int(lengths)
            shortest, total = lengths, runs.size * lengths
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            lengths.setflags(write=False)
            if lengths.ndim != 1 or lengths.size != runs.size:
                raise ValueError("run_lengths must hold one length per run")
            shortest = lengths.min() if lengths.size else 1
            total = int(lengths.sum())
        if shortest < 1:
            raise ValueError("run lengths must be >= 1")
        if total != rewards.size:
            raise ValueError("run lengths must sum to the reward count")
        if self.output_arm < 0:
            raise ValueError("output arm must be a valid index")
        if runs.size and runs.min() < 0:
            raise ValueError("queried arms must be valid indices")
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "run_lengths", lengths)

    @cached_property
    def arms(self) -> np.ndarray:
        """The per-query arm log, ``np.repeat(runs, run_lengths)``, read-only."""
        if self.runs.size == self.rewards.size:  # every run has length 1
            return self.runs
        arms = np.repeat(self.runs, self.run_lengths)
        arms.setflags(write=False)
        return arms

    @property
    def total_queries(self) -> int:
        return int(self.rewards.size)


def gap_matrix(fclass: FunctionClass, alpha: float) -> np.ndarray:
    """Binary matrix marking which arms are alpha-optimal under each function.

    Entry [f, a] is 1 iff max_a' means[f, a'] - means[f, a] <= alpha
    (non-strict).  Every row contains at least one 1 because the row maximum
    itself has gap zero.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    means = fclass.means
    gaps = means.max(axis=1, keepdims=True) - means
    return (gaps <= alpha).astype(np.int8)

