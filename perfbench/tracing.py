"""Spans around the package's public functions, installed from outside.

Nothing in the package is edited: :func:`traced` rebinds each listed function
at the module attribute its callers look up (``learners.sample_rewards``,
``dec.solve_maximin``, ...) and restores the originals on exit.  Every call
through a wrapper records a span (name, start, end, parent) in memory and
bumps the layer's counters.  A call made while a span of the same name is
already open (``sample_reward`` calling ``sample_rewards``, the class loader
calling a tree constructor) opens no second span and is not counted again,
so a layer's time and calls are never counted twice; only the oracle's
per-method counters count nested calls too.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

import numpy as np

from maximin_bandits import cli, core, dec, games, harness, learners

#: Per-layer metrics in print order: name, unit, and the end-to-end metric and
#: workload it should move.
PER_LAYER = [
    ("core.sample_rewards.calls", "count", "run_s on coverage-mc and adaptive-mc"),
    ("core.sample_rewards.draws", "count", "queries_per_s on coverage-mc and adaptive-mc"),
    ("core.sample_rewards.s", "s", "run_s on coverage-mc and adaptive-mc"),
    ("core.transcript.calls", "count", "run_s on coverage-mc"),
    ("core.transcript.bytes", "B", "run_s and peak_rss_mb on coverage-mc"),
    ("core.transcript.s", "s", "run_s on coverage-mc"),
    ("core.arm_sample.calls", "count", "run_s on adaptive-mc"),
    ("core.arm_sample.s", "s", "run_s on adaptive-mc"),
    ("games.solve.calls", "count", "gamma_s and dec_s on gamma-lp"),
    ("games.solve.s", "s", "gamma_s and dec_s on gamma-lp"),
    ("games.solve.iterations", "count", "gamma_s and dec_s on gamma-lp"),
    ("games.solve.failed", "count", "failed_ratio on gamma-lp"),
    ("games.solve.tableau_bytes", "B", "gamma_s on gamma-lp (computed, not measured)"),
    ("games.verify.calls", "count", "gamma_s on gamma-lp"),
    ("games.verify.s", "s", "gamma_s on gamma-lp"),
    ("environments.build.calls", "count", "gamma_s on gamma-lp"),
    ("environments.build.s", "s", "gamma_s on gamma-lp"),
    ("estimators.median_of_means.calls", "count", "run_s and sweep_s on coverage-mc"),
    ("estimators.median_of_means.s", "s", "run_s and sweep_s on coverage-mc"),
    ("learners.empirical-mean.calls", "count", "trials_per_s on coverage-mc"),
    ("learners.empirical-mean.self_s", "s", "trials_per_s on coverage-mc"),
    ("learners.median-of-means.calls", "count", "trials_per_s on coverage-mc"),
    ("learners.median-of-means.self_s", "s", "trials_per_s on coverage-mc"),
    ("learners.tree-descent.calls", "count", "trials_per_s on adaptive-mc"),
    ("learners.tree-descent.self_s", "s", "trials_per_s on adaptive-mc"),
    ("learners.non-adaptive-uniform.calls", "count", "adaptivity_s on adaptive-mc"),
    ("learners.non-adaptive-uniform.self_s", "s", "adaptivity_s on adaptive-mc"),
    ("learners.e2d.calls", "count", "trials_per_s on adaptive-mc"),
    ("learners.e2d.self_s", "s", "trials_per_s on adaptive-mc"),
    ("learners.oracle.update_calls", "count", "run_s on adaptive-mc"),
    ("learners.oracle.predict_calls", "count", "run_s on adaptive-mc"),
    ("learners.oracle.weights_calls", "count", "run_s on adaptive-mc"),
    ("learners.oracle.s", "s", "run_s on adaptive-mc"),
    ("dec.dec_at.calls", "count", "dec_s on gamma-lp, run_s on adaptive-mc"),
    ("dec.dec_at.s", "s", "dec_s on gamma-lp, run_s on adaptive-mc"),
    ("dec.inner_solves", "count", "dec_s on gamma-lp, run_s on adaptive-mc"),
    ("dec.version_set.calls", "count", "run_s on adaptive-mc"),
    ("harness.monte_carlo.calls", "count", "trials_per_s on coverage-mc and adaptive-mc"),
    ("harness.monte_carlo.self_s", "s", "trials_per_s on coverage-mc and adaptive-mc"),
    ("harness.trials", "count", "trials_per_s on coverage-mc and adaptive-mc"),
    ("harness.trials_failed", "count", "trials_per_s on coverage-mc and adaptive-mc"),
    ("harness.persist.calls", "count", "run_s on coverage-mc"),
    ("harness.persist.bytes", "B", "run_s on coverage-mc"),
    ("harness.persist.s", "s", "run_s on coverage-mc"),
    ("harness.certify.s", "s", "certify_s on adaptive-mc"),
    ("harness.adaptivity.s", "s", "adaptivity_s on adaptive-mc"),
    ("cli.self_s", "s", "gamma_s on gamma-lp"),
    ("cli.emit_bytes", "B", "gamma_s on gamma-lp"),
    ("trace.overhead_s", "s", "none: traced wall_s minus untraced wall_s"),
]

class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.labels: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def begin(self, name: str, label: str | None = None) -> int:
        idx = len(self.names)
        if label is not None:
            self.labels[idx] = label
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[idx]] -= 1

    @contextlib.contextmanager
    def span(self, name: str, label: str | None = None):
        idx = self.begin(name, label)
        try:
            yield
        finally:
            self.end(idx)

    def summary(self) -> tuple[Counter, Counter, dict]:
        """Inclusive seconds per span name, self seconds per span name, and
        self seconds per span name grouped by the label of its root span."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        total: Counter = Counter()
        own: Counter = Counter()
        by_label: dict = {}
        root = [0] * len(self.names)
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            root[i] = i if parent < 0 else root[parent]
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            own[name] += dur - child[i]
            label = self.labels.get(root[i], "")
            by_label.setdefault(label, Counter())[name] += dur - child[i]
        return total, own, by_label

    def metrics(self, summary: tuple) -> dict:
        """One value per per-layer metric (``trace.overhead_s`` excluded),
        from the counters and a :meth:`summary` of the spans.

        ``.self_s`` is span time minus the time of its child spans; ``.s`` is
        the whole span time.
        """
        total, own, _ = summary
        values = {}
        for name, _unit, _moves in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            if name in self.counts:
                values[name] = self.counts[name]
            elif name.endswith(".self_s"):
                values[name] = own[name[: -len(".self_s")]]
            elif name.endswith(".s"):
                values[name] = total[name[: -len(".s")]]
            else:
                values[name] = 0
        return values

    def write(self, path: str) -> None:
        """Write the spans as CSV: name, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")


def _wrap(tracer: Tracer, name: str, fn, calls_key: str | None = "", always_key=None,
          after=None, on_error=None):
    """Wrap ``fn`` in a span called ``name``.

    ``calls_key`` (default ``name.calls``) counts outermost calls only;
    ``always_key`` counts nested calls too.  ``after(counts, args, kwargs,
    result)`` adds work counts from a returned result, ``on_error(counts)``
    runs when the call raises.
    """
    if calls_key == "":
        calls_key = name + ".calls"

    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        counts = tracer.counts
        if always_key:
            counts[always_key] += 1
        if tracer.is_open(name):
            return fn(*args, **kwargs)
        if calls_key:
            counts[calls_key] += 1
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if on_error:
                on_error(counts)
            raise
        finally:
            tracer.end(idx)
        if after:
            after(counts, args, kwargs, result)
        return result

    return wrapper


def _count_draws(counts, args, kwargs, result):
    counts["core.sample_rewards.draws"] += int(result.size)


def _count_transcript(counts, args, kwargs, result):
    counts["core.transcript.bytes"] += int(result.arms.nbytes + result.rewards.nbytes)


def _count_solve(counts, args, kwargs, result):
    n_rows, n_cols = np.shape(args[0] if args else kwargs["payoff"])
    counts["games.solve.iterations"] += result.iterations
    counts["games.solve.tableau_bytes"] += result.iterations * (n_cols + 1) * (n_rows + n_cols + 1) * 8


def _count_solve_failed(counts):
    counts["games.solve.failed"] += 1


def _count_trials(counts, args, kwargs, result):
    counts["harness.trials"] += len(result.records)
    counts["harness.trials_failed"] += sum(1 for rec in result.records if rec.error)


def _count_persist(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["harness.persist.bytes"] += os.path.getsize(path)


def _patches(tracer: Tracer) -> list:
    """(owner, attribute, replacement) for every traced call site."""

    def wrap(name, fn, **kw):
        return _wrap(tracer, name, fn, **kw)

    solve = dict(after=_count_solve, on_error=_count_solve_failed)
    build = harness.build_function_class
    dec_at = dec.dec_at
    monte_carlo = harness.monte_carlo
    learner_fns = {
        "run_empirical_mean_learner": "learners.empirical-mean",
        "run_median_of_means_learner": "learners.median-of-means",
        "run_tree_descent": "learners.tree-descent",
        "run_non_adaptive_uniform": "learners.non-adaptive-uniform",
        "run_e2d": "learners.e2d",
    }
    oracle = learners.OnlineRegressionOracle
    weights = oracle.__dict__["weights"]
    patches = [
        (core, "sample_rewards", wrap("core.sample_rewards", core.sample_rewards, after=_count_draws)),
        (learners, "sample_rewards", wrap("core.sample_rewards", learners.sample_rewards, after=_count_draws)),
        (learners, "Transcript", wrap("core.transcript", learners.Transcript, after=_count_transcript)),
        (core.ArmDistribution, "sample", wrap("core.arm_sample", core.ArmDistribution.sample)),
        (games, "solve_maximin", wrap("games.solve", games.solve_maximin, **solve)),
        (dec, "solve_maximin", wrap("games.solve", dec.solve_maximin, always_key="dec.inner_solves", **solve)),
        (games, "verify_certificate", wrap("games.verify", games.verify_certificate)),
        (cli, "build_function_class", wrap("environments.build", build)),
        (harness, "build_function_class", wrap("environments.build", build)),
        (harness, "make_tree_class", wrap("environments.build", harness.make_tree_class)),
        (learners, "median_of_means", wrap("estimators.median_of_means", learners.median_of_means)),
        (oracle, "update", wrap("learners.oracle", oracle.update, calls_key=None,
                                always_key="learners.oracle.update_calls")),
        (oracle, "predict", wrap("learners.oracle", oracle.predict, calls_key=None,
                                 always_key="learners.oracle.predict_calls")),
        (oracle, "weights", property(wrap("learners.oracle", weights.fget, calls_key=None,
                                          always_key="learners.oracle.weights_calls"))),
        (cli, "dec_at", wrap("dec.dec_at", dec_at)),
        (dec, "dec_at", wrap("dec.dec_at", dec_at)),
        (learners, "dec_at", wrap("dec.dec_at", dec_at)),
        (learners, "version_set", wrap("dec.version_set", learners.version_set)),
        (cli, "monte_carlo", wrap("harness.monte_carlo", monte_carlo, after=_count_trials)),
        (harness, "monte_carlo", wrap("harness.monte_carlo", monte_carlo, after=_count_trials)),
        (harness, "save_trial_records", wrap("harness.persist", harness.save_trial_records,
                                             after=_count_persist)),
        (cli, "certify_lower_bound", wrap("harness.certify", cli.certify_lower_bound)),
        (cli, "adaptivity_experiment", wrap("harness.adaptivity", cli.adaptivity_experiment)),
    ]
    for attr, name in learner_fns.items():
        patches.append((harness, attr, wrap(name, getattr(harness, attr))))
    return patches


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the package's traced call sites through ``tracer`` while open."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
