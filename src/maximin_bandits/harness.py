"""Seeded Monte Carlo experiments, certification runs, and persistence.

Every experiment is a pure function of (config, master seed): trial i runs on
the derived seed ``trial_seed(master, i)``, records are persisted in trial
order, and repeated executions produce byte-identical output files.  A run
derives its trial seeds in vectorised batches (``core.trial_seeds`` and
``core.stream_seeds``), and draws short per-trial streams (certify's coin
flips, each trial's true function) as arrays (``core.TrialStreams``).
Wall times are measured only when ``record_runtime`` is set, because
persisted timings would break reproducibility; by default the runtime
column is 0.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import games
from .core import (
    ArmDistribution,
    FunctionClass,
    Model,
    NoiseSpec,
    Transcript,
    TrialStreams,
    _STREAM_ENTRIES,
    _json_fields,
    block_rows,
    check_entries,
    check_keys,
    config_number,
    config_value,
    from_json,
    gap_matrix,
    stream_seeds,
    to_json,
    trial_seed,
    trial_seeds,
)
from .environments import TreeMeta, make_k_armed, make_linear_net_class, make_singletons, make_tree_class
from .learners import (
    LearnerParams,
    descend_tree,
    run_e2d,
    run_empirical_mean_learner,
    run_median_of_means_learner,
    run_non_adaptive_uniform,  # noqa: F401  (perfbench traces calls made through this name)
    run_non_adaptive_uniform_trials,
    run_tree_descent,  # noqa: F401  (perfbench traces calls made through this name)
    run_tree_descent_trials,
)

__all__ = [
    "CSV_COLUMNS",
    "EXPERIMENT_KEYS",
    "TrialRecord",
    "ExperimentConfig",
    "MonteCarloResult",
    "CertifyReport",
    "AdaptivityReport",
    "SweepResult",
    "build_function_class",
    "monte_carlo",
    "certify_lower_bound",
    "adaptivity_experiment",
    "sweep",
    "save_trial_records",
    "records_to_csv",
    "csv_text",
    "tree_descent_prober",
    "fixed_arm_prober",
    "witness_prober",
]

#: Hard cap on per-trial budgets accepted by the lower-bound certifier: the
#: output-distribution argument enumerates binary answer strings, so the
#: certified floor (1 - delta) / 2^T is vacuous beyond small T.
CERTIFY_BUDGET_CAP = 20

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class TrialRecord:
    """One learner run reduced to the persisted summary row."""

    experiment_id: str
    seed: int
    trial: int
    learner: str
    class_name: str = field(metadata={"key": "class"})
    alpha: float
    delta: float
    queries: int
    success: bool
    output_arm: int
    gamma_value: float = field(metadata={"key": "gamma"})
    runtime_ms: float
    error: str = ""


#: The records CSV header: every encoded record key but ``error``.
CSV_COLUMNS = [f.metadata.get("key", f.name) for f in fields(TrialRecord) if f.name != "error"]


def csv_text(columns, rows, cell=str) -> str:
    """A header line, then one line per row mapping column -> value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cell(row[col]) for col in columns] for row in rows)
    return buf.getvalue()


def _record_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def records_to_csv(records) -> str:
    return csv_text(CSV_COLUMNS, map(to_json, records), _record_cell)


def save_trial_records(records, path: str, fmt: str = "csv") -> None:
    """Persist trial records in trial order; deterministic bytes."""
    if fmt == "csv":
        payload = records_to_csv(records)
    elif fmt == "json":
        payload = json.dumps([to_json(rec) for rec in records], indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", newline="") as fh:
        fh.write(payload)


#: The fields of each named class constructor, in argument order: name -> type.
_CONSTRUCTOR_FIELDS = {
    "k-armed": {"k": int},
    "singletons": {"n": int},
    "tree": {"depth": int, "bucket_size": int},
    "linear-net": {"dimension": int, "alpha": float},
}


def build_function_class(spec: dict) -> tuple[FunctionClass, TreeMeta | None]:
    """Materialize a function class from a JSON spec.

    Either an inline matrix ({"means": [[...]], ...}) or a named constructor:
    {"constructor": "k-armed" | "singletons" | "tree" | "linear-net", ...}.
    A spec that is not an object, or has a key its form does not read, is a
    ValueError.
    """
    config_value(spec, dict, "class")
    if "means" in spec:
        check_keys(spec, ("means", "arms", "functions", "labels"), "class key", "class.")
        return FunctionClass.from_json(spec), None
    ctor = spec.get("constructor")
    if ctor is not None:
        config_value(ctor, str, "class.constructor")
    if ctor not in _CONSTRUCTOR_FIELDS:
        raise ValueError(f"unknown class spec {spec!r}")
    check_keys(spec, ("constructor", *_CONSTRUCTOR_FIELDS[ctor]), "class key", "class.")
    args = []
    for name, kind in _CONSTRUCTOR_FIELDS[ctor].items():
        if name not in spec:
            raise ValueError(f"class spec {ctor!r} requires class.{name}")
        args.append(config_number(spec[name], kind, f"class.{name}"))
    if ctor == "tree":
        return make_tree_class(*args)
    make = {"k-armed": make_k_armed, "singletons": make_singletons,
            "linear-net": make_linear_net_class}[ctor]
    return make(*args), None


@dataclass(frozen=True)
class ExperimentConfig:
    """A Monte Carlo experiment: class, noise, learner, trial count, seed.

    ``true_function`` fixes the model row for every trial; None draws it
    uniformly per trial (from the trial's model stream).  ``record_runtime``
    opts into wall-clock timings at the cost of byte-reproducible outputs.
    """

    class_spec: dict = field(metadata={"key": "class"})
    noise: NoiseSpec
    learner: str
    params: LearnerParams
    trials: int = 100
    seed: int = 0
    true_function: int | None = None
    experiment_id: str | None = None
    out_path: str | None = field(default=None, metadata={"key": "out"})
    format: str = "csv"
    record_runtime: bool = False
    grid: dict | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # a run keeps one record of len(CSV_COLUMNS) fields per trial
        check_entries(f"run of {self.trials} trial records", self.trials, len(CSV_COLUMNS))
        if self.learner not in _DISPATCH:
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    def resolved_id(self, fclass: FunctionClass) -> str:
        if self.experiment_id:
            return self.experiment_id
        return f"{self.learner}-{fclass.family}"

    from_json = classmethod(from_json)


#: The keys of an experiment document, as ``to_json`` writes them.
EXPERIMENT_KEYS = tuple(f.metadata.get("key", f.name) for f in fields(ExperimentConfig))


def _dispatch_empirical_mean(ctx, model, seed):
    return run_empirical_mean_learner(ctx.config.params, model, seed, cert=ctx.cert)


def _dispatch_mom(ctx, model, seed):
    return run_median_of_means_learner(ctx.config.params, model, seed, cert=ctx.cert)


def _dispatch_e2d(ctx, model, seed):
    return run_e2d(ctx.config.params, model, seed)


def _per_trial(dispatch):
    """The trials entry of a learner that runs one trial at a time:
    ``dispatch(ctx, model, seed) -> Transcript`` on each trial's model, a
    contract error tagging its own trial, and a transcript's ``error`` meta
    read as the trial's error."""

    def outcome(ctx, true_f, seed):
        # a transcript lives only in this call, so trials never hold two
        model = Model(ctx.fclass, true_f, ctx.config.noise)
        try:
            transcript = dispatch(ctx, model, seed)
        except (ValueError, RuntimeError) as exc:
            return 0, -1, str(exc)
        return (transcript.total_queries, int(transcript.output_arm),
                str(transcript.meta.get("error", "")))

    def run(ctx, true_functions, seeds):
        return [outcome(ctx, true_f, seed) for true_f, seed in zip(true_functions.tolist(), seeds)]

    return run


def _trials_tree(ctx, true_functions, seeds):
    if ctx.meta is None:
        raise ValueError("tree-descent requires a tree-constructed class")
    queries, output_arms = run_tree_descent_trials(
        ctx.meta, ctx.config.params, ctx.fclass, ctx.config.noise, true_functions, seeds)
    return list(zip(queries.tolist(), output_arms.tolist(), itertools.repeat("")))


def _trials_non_adaptive(ctx, true_functions, seeds):
    params = ctx.config.params
    if params.budget is None:
        raise ValueError("non-adaptive-uniform requires params.budget")
    queries, output_arms = run_non_adaptive_uniform_trials(
        params.budget, params.reps_per_arm, ctx.fclass, ctx.config.noise, true_functions, seeds)
    return list(zip(queries.tolist(), output_arms.tolist(), itertools.repeat("")))


#: learner -> ``run(ctx, true_functions, seeds)``, the (queries, output arm,
#: error) of each trial in order.  Tree descent and the non-adaptive
#: baseline run their trials as arrays; a contract error they raise reads
#: only the config and the class, so it fails every trial alike.
_DISPATCH = {
    "empirical-mean": _per_trial(_dispatch_empirical_mean),
    "median-of-means": _per_trial(_dispatch_mom),
    "tree-descent": _trials_tree,
    "non-adaptive-uniform": _trials_non_adaptive,
    "e2d": _per_trial(_dispatch_e2d),
}

#: Learners whose sampling mixture is computed at alpha/2; the others are
#: reported against the coverage value at alpha itself.
_HALF_ALPHA_LEARNERS = ("empirical-mean", "median-of-means", "e2d")


@dataclass(eq=False)
class _RunContext:
    config: ExperimentConfig
    fclass: FunctionClass
    meta: TreeMeta | None
    cert: games.GammaCertificate | None
    gamma_value: float
    experiment_id: str


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    records: list = field(metadata={"key": None})
    success_rate: float
    mean_queries: float
    half_width99: float
    gamma_value: float = field(metadata={"key": "gamma"})
    experiment_id: str


def _prepare_context(config: ExperimentConfig) -> _RunContext:
    fclass, meta = build_function_class(config.class_spec)
    true_f = config.true_function
    if true_f is not None and not 0 <= true_f < fclass.n_functions:
        raise ValueError(
            f"true_function {true_f} out of range for a class of {fclass.n_functions} functions"
        )
    if config.learner in _HALF_ALPHA_LEARNERS:
        cert = games.gamma(fclass, config.params.alpha / 2.0)
    else:
        cert = games.gamma(fclass, config.params.alpha)
    shared = cert if config.learner in ("empirical-mean", "median-of-means") else None
    return _RunContext(
        config=config,
        fclass=fclass,
        meta=meta,
        cert=shared,
        gamma_value=cert.value,
        experiment_id=config.resolved_id(fclass),
    )


def _draw_trials(config: ExperimentConfig, fclass: FunctionClass) -> tuple:
    """Each trial's seed ``trial_seed(config.seed, i)``, a uint64 array, and
    its model row: ``config.true_function``, or one ``integers`` draw from
    stream 0 of the trial's seed, drawn for a block of trials at once."""
    seeds = trial_seeds(config.seed, np.arange(config.trials))
    if config.true_function is not None:
        return seeds, np.full(config.trials, int(config.true_function))
    rows = block_rows(_STREAM_ENTRIES)
    true_functions = np.concatenate([
        TrialStreams(trial_seeds(seeds[start:start + rows], 0)).integers(fclass.n_functions)
        for start in range(0, seeds.size, rows)])
    return seeds, true_functions


def _run_trials(ctx: _RunContext, learner_stream: int, draws: tuple) -> list:
    """Every trial of ``ctx.config``, in order.  Trial i's model row comes
    from ``draws``, the seeds and true functions of :func:`_draw_trials`,
    and its learner from stream ``learner_stream`` of its seed.  The learner
    runs every trial in one call, or, when ``record_runtime`` is set, one
    trial per timed call."""
    config, fclass = ctx.config, ctx.fclass
    seeds, true_functions = draws
    learner_seeds = stream_seeds(seeds, learner_stream)
    if config.record_runtime:
        calls = ((slice(i, i + 1), [seed]) for i, seed in enumerate(learner_seeds))
    else:
        calls = [(slice(0, config.trials), learner_seeds)]
    run = _DISPATCH[config.learner]
    outcomes = []  # (queries, output arm, error, runtime in ms) per trial
    for part, part_seeds in calls:
        started = time.perf_counter()
        try:
            results = run(ctx, true_functions[part], part_seeds)
        except (ValueError, RuntimeError) as exc:
            # contract violations surface as failed trials tagged with the reason
            results = [(0, -1, str(exc))] * len(true_functions[part])
        elapsed = (time.perf_counter() - started) * 1e3 if config.record_runtime else 0.0
        outcomes.extend((*result, elapsed) for result in results)

    arms = np.array([outcome[1] for outcome in outcomes])
    gaps = fclass.means.max(axis=1)[true_functions] - fclass.means[true_functions, arms]
    successes = ((arms >= 0) & (gaps <= config.params.alpha)).tolist()
    return [
        TrialRecord(
            experiment_id=ctx.experiment_id,
            seed=ts,
            trial=index,
            learner=config.learner,
            class_name=fclass.family,
            alpha=config.params.alpha,
            delta=config.params.delta,
            queries=queries,
            success=success,
            output_arm=output_arm,
            gamma_value=ctx.gamma_value,
            runtime_ms=elapsed,
            error=error,
        )
        for index, (ts, success, (queries, output_arm, error, elapsed)) in enumerate(
            zip(seeds.tolist(), successes, outcomes))
    ]


def monte_carlo(config: ExperimentConfig) -> MonteCarloResult:
    """Run ``config.trials`` independent seeded trials and aggregate.

    Records are produced (and persisted, when ``out_path`` is set) in trial
    order, so output bytes depend only on (config, seed).  The reported
    half-width is the 99% normal-approximation interval of the success
    frequency.
    """
    ctx = _prepare_context(config)
    records = _run_trials(ctx, 1, _draw_trials(config, ctx.fclass))

    successes = sum(1 for r in records if r.success)
    rate = successes / len(records)
    half = Z_99 * math.sqrt(rate * (1.0 - rate) / len(records))
    result = MonteCarloResult(
        records=records,
        success_rate=rate,
        mean_queries=float(np.mean([r.queries for r in records])),
        half_width99=half,
        gamma_value=ctx.gamma_value,
        experiment_id=ctx.experiment_id,
    )
    if config.out_path:
        save_trial_records(records, config.out_path, config.format)
    return result


# ---------------------------------------------------------------------------
# Lower-bound certification


@dataclass(frozen=True, eq=False)
class CertifyReport:
    """Outcome of a coin-flip certification run.

    ``certified`` states whether the worst-case coverage of the empirical
    output distribution clears (1 - delta) / 2^budget minus three binomial
    standard deviations.
    """

    output_distribution: ArmDistribution
    min_coverage: float
    worst_function: int
    bound: float
    slack: float
    budget: int
    trials: int
    certified: bool


def certify_lower_bound(
    fclass: FunctionClass,
    prober,
    alpha: float,
    delta: float,
    trials: int,
    seed: int,
) -> CertifyReport:
    """Feed a tiny-budget learner pure coin flips and certify its coverage.

    The trials run in lock-step chunks, so memory does not grow with
    ``trials``.  ``prober(query, streams) -> arms`` runs one chunk: it sees
    every trial of the chunk at once and returns one arm per trial (or one
    arm for all).  It draws observations only through ``query(arm or
    arms)``, which returns one independent Bernoulli(1/2) answer per trial,
    carrying no information about any function; ``streams`` (a
    :class:`TrialStreams`, one ``default_rng(trial_seed(seed, i))`` stream
    per trial) serves any other draw, and the answers come from the same
    streams.  Over ``trials`` runs the empirical output distribution p_hat
    is accumulated, and the report checks

        min_f  P_{arm ~ p_hat}(arm is alpha-optimal for f)
            >= (1 - delta) / 2^T - slack

    with T the per-trial budget (must never exceed ``CERTIFY_BUDGET_CAP``;
    the cap is checked before each answer is drawn) and slack three
    binomial standard deviations.  Any learner that succeeds with
    probability 1 - delta on every in-class Bernoulli model must clear
    this floor, because its output can depend on at most 2^T equally
    likely answer strings.

    Each trial draws at most ``CERTIFY_BUDGET_CAP`` values, so the chunk's
    streams are one array kernel, not a generator per trial; both give the
    bytes of ``default_rng(trial_seed(seed, i))``.  The kernel derives its
    seed words at the first draw, so a prober that draws nothing
    (:func:`fixed_arm_prober`) costs only the trial seeds.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    n_arms = fclass.n_arms
    counts = np.zeros(n_arms)
    budget = 0
    rows = block_rows(_STREAM_ENTRIES)
    for start in range(0, trials, rows):
        chunk = np.arange(start, min(start + rows, trials))
        streams = TrialStreams(trial_seeds(seed, chunk))
        used = 0

        def query(arm) -> np.ndarray:
            nonlocal used
            arms = np.asarray(arm)
            if arms.size and not (0 <= arms.min() and arms.max() < n_arms):
                raise IndexError(f"arm {arm} out of range")
            if used == CERTIFY_BUDGET_CAP:
                raise ValueError(
                    f"prober exceeded the certification budget cap {CERTIFY_BUDGET_CAP}"
                )
            used += 1
            return (streams.random() < 0.5).astype(float)

        outputs = np.broadcast_to(prober(query, streams), streams.size)
        if outputs.dtype.kind not in "iu" or not (0 <= outputs.min() and outputs.max() < n_arms):
            raise IndexError("prober returned an invalid arm")
        counts += np.bincount(outputs.astype(np.int64), minlength=n_arms)
        budget = max(budget, used)

    p_hat = ArmDistribution(counts / trials)
    coverage = gap_matrix(fclass, alpha) @ p_hat.probs
    worst = int(np.argmin(coverage))
    bound = (1.0 - delta) * 2.0 ** (-budget)
    slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
    return CertifyReport(
        output_distribution=p_hat,
        min_coverage=float(coverage[worst]),
        worst_function=worst,
        bound=bound,
        slack=slack,
        budget=budget,
        trials=trials,
        certified=bool(coverage[worst] >= bound - slack),
    )


def tree_descent_prober(meta: TreeMeta, reps_per_stage: int = 1):
    """Tree descent driven entirely through the certification query channel.

    A prober call sees a whole chunk of trials and returns one arm per
    trial: one :func:`descend_tree` walk, whose every stage sums
    ``reps_per_stage`` vector answers (one per trial) and sends each trial
    down its own branch.  The answers come from the chunk's array streams,
    as each trial queries at most ``CERTIFY_BUDGET_CAP`` times; the learner
    (``run_tree_descent_trials``) draws thousands of values per trial and
    keeps a generator per trial.  Both give the bytes of ``default_rng``.
    """
    if reps_per_stage < 1:
        raise ValueError("reps_per_stage must be >= 1")

    def prober(query, streams) -> np.ndarray:
        def stage_mean(arms, count: int) -> np.ndarray:
            return sum(query(arms) for _ in range(count)) / count

        return descend_tree(meta, stage_mean, reps_per_stage, reps_per_stage)[1]

    return prober


def fixed_arm_prober(arm: int):
    """Zero-query learner that always outputs the same arm."""

    def prober(query, streams) -> int:
        return arm

    return prober


def witness_prober(p: ArmDistribution):
    """Zero-query learner that outputs one draw from a fixed mixture: the
    arm of one double per trial, as :meth:`ArmDistribution.sample` maps it."""

    def prober(query, streams) -> np.ndarray:
        return p._inverse_cdf(streams.random())

    return prober


# ---------------------------------------------------------------------------
# Adaptivity separation


@dataclass(frozen=True, eq=False)
class AdaptivityReport:
    """Head-to-head comparison on the depth-d tree with deterministic rewards.

    The non-adaptive baseline gets floor(1 / (10 gamma)) uniform positions;
    ``separation_holds`` checks its failure frequency clears 1/2 minus three
    binomial standard deviations while the adaptive walker keeps succeeding.
    """

    depth: int
    gamma_value: float = field(metadata={"key": "gamma"})
    trials: int
    non_adaptive_budget: int
    adaptive_success_rate: float
    adaptive_mean_queries: float
    non_adaptive_failure_rate: float
    slack: float
    separation_holds: bool
    adaptive_records: list = field(metadata={"key": None})
    non_adaptive_records: list = field(metadata={"key": None})


def adaptivity_experiment(
    depth: int,
    trials: int,
    seed: int,
    alpha: float = 0.2,
    delta: float = 0.1,
) -> AdaptivityReport:
    """Adaptive tree descent vs. the uniform fixed schedule on the same models.

    Single-slot buckets, deterministic rewards, the true leaf drawn uniformly
    per trial.  The baseline budget floor(1 / (10 gamma)) realizes the regime
    where any non-adaptive learner must fail at least half the time, while
    descent needs only logarithmically many queries in the class size.
    """
    descent = ExperimentConfig(
        class_spec={"constructor": "tree", "depth": depth, "bucket_size": 1},
        noise=NoiseSpec.deterministic(),
        learner="tree-descent",
        params=LearnerParams(alpha=alpha, delta=delta),
        trials=trials,
        seed=seed,
        experiment_id=f"adaptivity-d{depth}-tree-descent",
    )
    ctx = _prepare_context(descent)
    budget = int(math.floor(1.0 / (10.0 * ctx.gamma_value)))
    fixed = replace(
        descent,
        learner="non-adaptive-uniform",
        params=replace(descent.params, budget=budget),
        experiment_id=f"adaptivity-d{depth}-non-adaptive",
    )
    # both learners face the same model in each trial, drawn once
    draws = _draw_trials(descent, ctx.fclass)
    adaptive_records = _run_trials(ctx, 1, draws)
    baseline = replace(ctx, config=fixed, experiment_id=fixed.experiment_id)
    non_adaptive_records = _run_trials(baseline, 2, draws)

    failure_rate = sum(not r.success for r in non_adaptive_records) / trials
    slack = 3.0 * math.sqrt(0.25 / trials)
    return AdaptivityReport(
        depth=depth,
        gamma_value=ctx.gamma_value,
        trials=trials,
        non_adaptive_budget=budget,
        adaptive_success_rate=sum(r.success for r in adaptive_records) / trials,
        adaptive_mean_queries=sum(r.queries for r in adaptive_records) / trials,
        non_adaptive_failure_rate=failure_rate,
        slack=slack,
        separation_holds=bool(failure_rate >= 0.5 - slack),
        adaptive_records=adaptive_records,
        non_adaptive_records=non_adaptive_records,
    )


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True, eq=False)
class SweepResult:
    cells: list
    columns: list


def _apply_override(node: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"grid.{dotted} goes through {part}, which is not an object")
    node[last] = value


def _check_grid_path(dotted: str) -> type:
    """The type of the field ``dotted`` names.  Raise ValueError unless each
    step of ``dotted`` names a field of the experiment dataclasses, set or
    left at its default, and each step before the last is an object.  Keys
    inside a free-form object (``class``, whose keys depend on its form) are
    left to the cells, and their type is ``dict``."""
    kind, parent, prefix = ExperimentConfig, None, "grid."
    for part in dotted.split("."):
        if kind is dict:
            return dict
        if not is_dataclass(kind):
            raise ValueError(f"grid.{dotted} goes through {parent}, which is not an object")
        keys, specs = _json_fields(kind)
        check_keys({part: None}, keys, "grid key", prefix)
        kind = specs[keys.index(part)][2]
        parent, prefix = part, f"{prefix}{part}."
    return kind


def _grid_cell(kind: type, value, name: str, class_spec):
    """A grid value as its column writes it: converted by ``config_number``
    for an int or float field, a class key by the type the cell's class
    constructor (in ``class_spec``) gives that field; as given otherwise, for
    an inline class, or if it does not convert."""
    if kind is dict and name.startswith("class.") and isinstance(class_spec, dict) \
            and "means" not in class_spec:
        ctor = class_spec.get("constructor")
        fields_of = _CONSTRUCTOR_FIELDS.get(ctor, {}) if isinstance(ctor, str) else {}
        kind = fields_of.get(name.removeprefix("class."), dict)
    if kind in (int, float):
        try:
            return config_number(value, kind, name)
        except ValueError:
            pass
    return value


def sweep(config: ExperimentConfig) -> SweepResult:
    """Cartesian parameter sweep of Monte Carlo cells.

    ``config.grid`` maps dotted config paths (e.g. "params.alpha",
    "class.depth", "noise.sigma") to value lists.  Each cell runs its own
    Monte Carlo on a seed derived from (master seed, cell index) under its
    own experiment ID, so the grid may not set ``seed`` or
    ``experiment_id``; a failing cell records its error and the sweep
    continues.  A grid value that is not a list, a path step that names no
    field, or a path through a value that is not an object, raises
    ValueError before any cell runs.  The cell table has one column per
    grid key (``trials`` included), each value written as
    :func:`_grid_cell` converts it; it is written as CSV to
    ``config.out_path`` when that is set.
    """
    if not config.grid:
        raise ValueError("sweep requires a parameter grid")
    if config.format != "csv":
        raise ValueError(f"sweep writes csv only, got format {config.format!r}")
    for key in ("seed", "experiment_id"):
        if key in config.grid:
            raise ValueError(f"sweep grid cannot set {key}: each cell sets its own")
    keys = sorted(config.grid)
    # each cell is the base experiment without its grid and its out path
    base = json.dumps(to_json(replace(config, grid=None, out_path=None)))
    kinds = {}
    for key in keys:  # a bad grid fails here, before any cell runs
        config_value(config.grid[key], list, f"grid.{key}")
        kinds[key] = _check_grid_path(key)
        _apply_override(json.loads(base), key, None)
    columns = list(dict.fromkeys(["experiment_id", *keys, "trials", "success_rate",
                                  "mean_queries", "half_width99", "gamma", "error"]))
    cells = []
    for idx, values in enumerate(itertools.product(*(config.grid[k] for k in keys))):
        doc = json.loads(base)
        doc["seed"] = trial_seed(config.seed, idx)
        doc["experiment_id"] = f"{config.experiment_id or 'sweep'}-cell{idx}"
        cell = {col: "" for col in columns}
        cell.update({"experiment_id": doc["experiment_id"], "trials": config.trials})
        try:
            for key, value in zip(keys, values):
                _apply_override(doc, key, value)
            cell.update(to_json(monte_carlo(ExperimentConfig.from_json(doc))))
        except (ValueError, RuntimeError) as exc:
            cell["error"] = str(exc)
        cell.update({key: _grid_cell(kinds[key], value, key, doc.get("class"))
                     for key, value in zip(keys, values)})
        cells.append(cell)
    result = SweepResult(cells=cells, columns=columns)
    if config.out_path:
        with open(config.out_path, "w", newline="") as fh:
            fh.write(csv_text(columns, cells))
    return result
