import json
import os
from dataclasses import replace

import numpy as np
import pytest

from maximin_bandits.core import ArmDistribution, CapacityError, NoiseSpec, to_json
from maximin_bandits.environments import make_tree_class
from maximin_bandits.harness import (
    CSV_COLUMNS,
    CERTIFY_BUDGET_CAP,
    EXPERIMENT_KEYS,
    ExperimentConfig,
    TrialRecord,
    adaptivity_experiment,
    build_function_class,
    certify_lower_bound,
    fixed_arm_prober,
    monte_carlo,
    records_to_csv,
    save_trial_records,
    sweep,
    tree_descent_prober,
    witness_prober,
)
from maximin_bandits.learners import LearnerParams


def tree_config(**overrides) -> ExperimentConfig:
    base = dict(
        class_spec={"constructor": "tree", "depth": 2, "bucket_size": 1},
        noise=NoiseSpec.bernoulli(),
        learner="tree-descent",
        params=LearnerParams(alpha=0.2, delta=0.1),
        trials=25,
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_trial_count_cap_admits_one_record_per_trial():
    # one record of len(CSV_COLUMNS) fields per trial: 2^22 // 12 trials fit
    assert len(CSV_COLUMNS) == 12
    assert tree_config(trials=349_525).trials == 349_525
    with pytest.raises(CapacityError, match="run of 349526 trial records exceeds the cap"):
        tree_config(trials=349_526)


# ---------------------------------------------------------------------------
# class construction from specs


def test_build_function_class_constructors():
    fc, meta = build_function_class({"constructor": "tree", "depth": 2, "bucket_size": 3})
    assert meta is not None and fc.n_functions == 12
    fc, meta = build_function_class({"constructor": "k-armed", "k": 4})
    assert meta is None and fc.n_arms == 4
    fc, _ = build_function_class({"constructor": "singletons", "n": 5})
    assert fc.n_functions == 5
    fc, _ = build_function_class({"constructor": "linear-net", "dimension": 1, "alpha": 0.3})
    assert fc.n_functions == 2


def test_build_function_class_inline_means():
    fc, meta = build_function_class(
        {"arms": 2, "functions": 2, "means": [[1.0, 0.0], [0.0, 1.0]]}
    )
    assert meta is None
    np.testing.assert_allclose(fc.means, np.eye(2))


def test_build_function_class_unknown_spec():
    with pytest.raises(ValueError):
        build_function_class({"constructor": "mystery"})


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"constructor": "tree", "depth": 2, "bucket_size": 1, "k": 3}, "class.k"),
        ({"constructor": "k-armed", "k": 3, "depth": 2}, "class.depth"),
        ({"constructor": "singletons", "n": 3, "bucket_size": 1}, "class.bucket_size"),
        ({"constructor": "linear-net", "dimension": 2, "alpha": 0.3, "n": 4}, "class.n"),
        ({"means": [[1.0, 0.0]], "constructor": "tree"}, "class.constructor"),
    ],
)
def test_build_function_class_rejects_keys_its_form_does_not_read(spec, key):
    with pytest.raises(ValueError, match=f"unknown class key {key} "):
        build_function_class(spec)


# ---------------------------------------------------------------------------
# monte carlo


def test_monte_carlo_deterministic_records():
    cfg = tree_config()
    a = monte_carlo(cfg)
    b = monte_carlo(cfg)
    assert records_to_csv(a.records) == records_to_csv(b.records)
    assert [r.trial for r in a.records] == list(range(25))


def test_monte_carlo_success_definition_round_trip():
    cfg = tree_config()
    result = monte_carlo(cfg)
    fc, _ = build_function_class(cfg.class_spec)
    for rec in result.records:
        assert rec.success in (True, False)
        assert 0 <= rec.output_arm < fc.n_arms
        assert rec.gamma_value == pytest.approx(result.gamma_value)


def test_monte_carlo_fixed_true_function():
    _, meta = make_tree_class(2, 1)
    cfg = tree_config(true_function=3, noise=NoiseSpec.deterministic(), trials=5)
    result = monte_carlo(cfg)
    for rec in result.records:
        assert rec.output_arm == meta.optimal_arm_of(3)
        assert rec.success


def test_monte_carlo_deterministic_noise_always_succeeds():
    cfg = tree_config(noise=NoiseSpec.deterministic(), trials=10)
    assert monte_carlo(cfg).success_rate == 1.0


def test_monte_carlo_learner_errors_become_failed_trials():
    cfg = tree_config(
        learner="median-of-means",
        params=LearnerParams(alpha=0.2, delta=0.1),  # sigma missing
        trials=3,
    )
    result = monte_carlo(cfg)
    assert result.success_rate == 0.0
    assert all(r.error for r in result.records)
    assert all(r.queries == 0 for r in result.records)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        tree_config(trials=0)
    with pytest.raises(ValueError):
        tree_config(learner="nope")
    with pytest.raises(ValueError):
        tree_config(format="xml")


def test_experiment_config_json_round_trip():
    doc = {
        "class": {"constructor": "k-armed", "k": 3},
        "noise": {"kind": "gaussian", "sigma": 1.0},
        "learner": "median-of-means",
        "params": {"alpha": 0.3, "delta": 0.1, "sigma": 1.0},
        "trials": 7,
        "seed": 5,
        "experiment_id": "mom-k3",
    }
    cfg = ExperimentConfig.from_json(doc)
    assert cfg.learner == "median-of-means"
    assert cfg.trials == 7
    assert cfg.params.sigma == 1.0
    assert cfg.resolved_id(build_function_class(cfg.class_spec)[0]) == "mom-k3"
    assert to_json(cfg) == doc
    assert ExperimentConfig.from_json(to_json(cfg)) == cfg
    full = replace(cfg, true_function=1, out_path="out.json", format="json",
                   record_runtime=True, grid={"params.alpha": [0.2]})
    assert list(to_json(full)) == list(EXPERIMENT_KEYS) == [
        "class", "noise", "learner", "params", "trials", "seed", "true_function",
        "experiment_id", "out", "format", "record_runtime", "grid"]
    assert ExperimentConfig.from_json(to_json(full)) == full


# ---------------------------------------------------------------------------
# persistence


def test_csv_columns_and_layout(tmp_path):
    cfg = tree_config(trials=4)
    result = monte_carlo(cfg)
    path = tmp_path / "out.csv"
    save_trial_records(result.records, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "tree-descent-tree"
    assert first[11] == "0.0"  # runtime not recorded by default


def test_json_persistence_round_trip(tmp_path):
    cfg = tree_config(trials=3)
    result = monte_carlo(cfg)
    path = tmp_path / "out.json"
    save_trial_records(result.records, str(path), fmt="json")
    docs = json.loads(path.read_text())
    assert len(docs) == 3
    assert set(docs[0]) >= {"experiment_id", "seed", "trial", "queries", "success"}


def test_runtime_recording_opt_in():
    cfg = tree_config(trials=2, record_runtime=True)
    result = monte_carlo(cfg)
    assert any(r.runtime_ms > 0 for r in result.records)


def test_trial_record_encodes_in_field_order_under_its_json_keys():
    rec = TrialRecord(
        experiment_id="x", seed=1, trial=0, learner="e2d", class_name="toy",
        alpha=0.2, delta=0.1, queries=5, success=True, output_arm=1,
        gamma_value=0.5, runtime_ms=0.0,
    )
    doc = to_json(rec)
    assert list(doc) == CSV_COLUMNS  # no error key while the error is empty
    assert (doc["class"], doc["gamma"]) == ("toy", 0.5)
    assert records_to_csv([rec]).splitlines()[1] == "x,1,0,e2d,toy,0.2,0.1,5,true,1,0.5,0.0"


def test_trial_record_error_field_json_only():
    rec = TrialRecord(
        experiment_id="x", seed=1, trial=0, learner="e2d", class_name="toy",
        alpha=0.2, delta=0.1, queries=5, success=False, output_arm=1,
        gamma_value=0.5, runtime_ms=0.0, error="boom",
    )
    assert "boom" not in records_to_csv([rec])
    assert to_json(rec)["error"] == "boom"


# ---------------------------------------------------------------------------
# certification


def test_certify_lower_bound_tree_d1():
    fclass, meta = make_tree_class(1, 1)
    prober = tree_descent_prober(meta)
    report = certify_lower_bound(fclass, prober, 0.2, 0.1, trials=4000, seed=7)
    assert report.budget == 2
    assert report.bound == pytest.approx(0.9 * 0.25)
    assert report.certified
    assert report.min_coverage >= report.bound - report.slack


def test_certify_budget_cap_enforced():
    fclass, _ = make_tree_class(1, 1)

    def greedy(query, rng):
        for _ in range(CERTIFY_BUDGET_CAP + 1):
            query(0)
        return 0

    with pytest.raises(ValueError):
        certify_lower_bound(fclass, greedy, 0.2, 0.1, trials=2, seed=0)


def test_certify_witness_prober_matches_gamma_coverage():
    from maximin_bandits.games import gamma

    fclass, _ = make_tree_class(1, 1)
    cert = gamma(fclass, 0.2)
    report = certify_lower_bound(
        fclass, witness_prober(cert.p_star), 0.2, 0.1, trials=20000, seed=3
    )
    assert report.budget == 0
    # zero-query witness sampling achieves coverage ~ gamma > (1 - delta) 2^0? no:
    # bound at T=0 is 0.9, gamma is 0.5, so certification must fail
    assert report.min_coverage == pytest.approx(cert.value, abs=0.02)
    assert not report.certified


def test_certify_fixed_arm_prober():
    fclass, _ = make_tree_class(1, 1)
    report = certify_lower_bound(fclass, fixed_arm_prober(1), 0.2, 0.1, trials=50, seed=1)
    assert report.output_distribution.probs[1] == 1.0
    assert report.min_coverage == 0.0


def test_certify_validation():
    fclass, _ = make_tree_class(1, 1)
    with pytest.raises(ValueError):
        certify_lower_bound(fclass, fixed_arm_prober(0), 0.2, 0.1, trials=0, seed=0)
    with pytest.raises(ValueError):
        certify_lower_bound(fclass, fixed_arm_prober(0), 0.2, 1.5, trials=5, seed=0)


# ---------------------------------------------------------------------------
# adaptivity


def test_adaptivity_experiment_small():
    report = adaptivity_experiment(3, trials=200, seed=11)
    assert report.adaptive_success_rate == 1.0  # deterministic rewards
    assert report.non_adaptive_budget == 0  # floor(1 / (10 * 1/8))
    assert report.non_adaptive_failure_rate == 1.0
    assert report.separation_holds
    assert len(report.adaptive_records) == 200
    assert len(report.non_adaptive_records) == 200


def test_adaptivity_budget_grows_with_depth():
    r4 = adaptivity_experiment(4, trials=20, seed=1)
    r6 = adaptivity_experiment(6, trials=20, seed=1)
    assert r4.non_adaptive_budget == 1  # floor(16/10)
    assert r6.non_adaptive_budget == 6  # floor(64/10)
    assert r6.adaptive_mean_queries > r4.adaptive_mean_queries


def test_adaptivity_json_shape():
    doc = to_json(adaptivity_experiment(3, trials=10, seed=0))
    assert "adaptive_records" not in doc and "non_adaptive_records" not in doc
    assert set(doc) >= {
        "depth",
        "gamma",
        "non_adaptive_budget",
        "adaptive_success_rate",
        "non_adaptive_failure_rate",
        "separation_holds",
    }


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid_and_errors(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = tree_config(
        trials=5,
        grid={"params.alpha": [0.2, 0.4], "noise.kind": ["bernoulli", "gaussian"]},
        out_path=str(out),
    )
    result = sweep(cfg)
    assert len(result.cells) == 4
    # "gaussian" without a sigma is an invalid noise spec: those cells record
    # the error and the sweep continues
    by_kind = {}
    for c in result.cells:
        by_kind.setdefault(c["noise.kind"], []).append(c)
    assert all(c["error"] for c in by_kind["gaussian"])
    assert all(not c["error"] for c in by_kind["bernoulli"])
    assert all(c["success_rate"] == 1.0 for c in by_kind["bernoulli"])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment_id,")
    assert len(lines) == 5


def test_sweep_records_non_numeric_params_and_bad_true_function():
    cfg = tree_config(
        learner="median-of-means",
        params=LearnerParams(alpha=0.2, delta=0.1, sigma=0.5),
        trials=2,
        grid={"params.sigma": [0.5, "wide"]},
    )
    errors = [cell["error"] for cell in sweep(cfg).cells]
    assert errors[0] == ""
    assert "params.sigma must be a number, got 'wide'" in errors[1]
    cfg = tree_config(trials=2, grid={"true_function": [0, 4]})
    errors = [cell["error"] for cell in sweep(cfg).cells]
    assert errors[0] == ""
    assert "true_function 4 out of range" in errors[1]


def test_sweep_records_a_class_over_the_cap():
    cfg = tree_config(class_spec={"constructor": "k-armed", "k": 2}, learner="empirical-mean",
                      trials=2, grid={"class.k": [2, 10**6]})
    cells = sweep(cfg).cells
    assert cells[0]["error"] == "" and cells[0]["success_rate"] == 1.0
    assert "k-armed class with 1000000 functions exceeds the cap" in cells[1]["error"]


def test_sweep_records_a_denormal_net_alpha():
    cfg = tree_config(class_spec={"constructor": "linear-net", "dimension": 2, "alpha": 0.5},
                      learner="empirical-mean", trials=2, grid={"class.alpha": [0.5, 5e-324]})
    cells = sweep(cfg).cells
    assert len(cells) == 2 and cells[0]["error"] == ""
    assert "net of inf points exceeds the cap" in cells[1]["error"]


def test_monte_carlo_rejects_out_of_range_true_function():
    for bad in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            monte_carlo(tree_config(true_function=bad, trials=2))
    with pytest.raises(ValueError, match="true_function must be an integer"):
        ExperimentConfig.from_json({
            "class": {"constructor": "tree", "depth": 2, "bucket_size": 1},
            "noise": {"kind": "bernoulli"}, "learner": "empirical-mean",
            "params": {"alpha": 0.2, "delta": 0.1}, "true_function": 1.5,
        })


def test_sweep_records_bad_class_spec_fields():
    cfg = tree_config(trials=2, grid={"class.depth": [2, None]})
    errors = [cell["error"] for cell in sweep(cfg).cells]
    assert errors[0] == ""
    assert "class.depth must be a number, got None" in errors[1]
    cfg = tree_config(class_spec={"constructor": "tree", "depth": 2}, trials=2,
                      grid={"params.alpha": [0.2]})
    errors = [cell["error"] for cell in sweep(cfg).cells]
    assert "class spec 'tree' requires class.bucket_size" in errors[0]
    cfg = tree_config(trials=2, grid={"class.colour": ["red"]})
    assert "unknown class key class.colour" in sweep(cfg).cells[0]["error"]


def test_monte_carlo_rejects_bad_class_spec_fields():
    cases = [
        ({"constructor": "tree", "depth": None, "bucket_size": 1}, "class.depth must be a number"),
        ({"constructor": "tree", "depth": 2}, "requires class.bucket_size"),
        ({"constructor": "k-armed", "k": 2.5}, "class.k must be an integer"),
        ({"constructor": "singletons"}, "requires class.n"),
        ({"constructor": "linear-net", "dimension": 2, "alpha": "wide"}, "class.alpha must be a number"),
    ]
    for spec, message in cases:
        with pytest.raises(ValueError, match=message):
            monte_carlo(tree_config(class_spec=spec, trials=2))


@pytest.mark.parametrize(
    "field, message",
    [
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": None}, "trials must be a number, got None"),
        ({"seed": "zero"}, "seed must be a number, got 'zero'"),
        ({"record_runtime": "false"}, "record_runtime must be true or false, got 'false'"),
        ({"record_runtime": 0}, "record_runtime must be true or false, got 0"),
        ({"typo_key": 1}, "unknown key typo_key"),
    ],
)
def test_experiment_config_from_json_rejects_bad_fields(field, message):
    doc = {
        "class": {"constructor": "tree", "depth": 2, "bucket_size": 1},
        "noise": {"kind": "bernoulli"}, "learner": "tree-descent",
        "params": {"alpha": 0.2, "delta": 0.1}, **field,
    }
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_json(doc)
    assert message in str(info.value)


def test_experiment_config_from_json_keeps_64_bit_seeds_exact():
    from maximin_bandits.core import trial_seed

    # sweep cells run on 64-bit derived seeds, which a float cannot hold
    seed = trial_seed(99, 0)
    assert seed > 2**53
    doc = {
        "class": {"constructor": "tree", "depth": 2, "bucket_size": 1},
        "noise": {"kind": "bernoulli"}, "learner": "tree-descent",
        "params": {"alpha": 0.2, "delta": 0.1}, "seed": seed,
    }
    assert ExperimentConfig.from_json(doc).seed == seed
    assert ExperimentConfig.from_json({**doc, "seed": np.uint64(seed)}).seed == seed


def test_sweep_records_null_trials_and_declared_counts():
    errors = [cell["error"] for cell in sweep(tree_config(trials=2, grid={"trials": [2, None]})).cells]
    assert errors[0] == ""
    assert "trials must be a number, got None" in errors[1]
    inline = {"means": [[1.0, 0.0], [0.0, 1.0]], "arms": 2}
    cfg = tree_config(class_spec=inline, learner="empirical-mean", trials=2,
                      grid={"class.arms": [2, None, 3]})
    errors = [cell["error"] for cell in sweep(cfg).cells]
    assert errors[0] == ""
    assert "class.arms must be a number, got None" in errors[1]
    assert "declared class.arms disagrees" in errors[2]


@pytest.mark.parametrize("key", ["seed", "experiment_id"])
def test_sweep_rejects_per_cell_keys_in_grid(tmp_path, key):
    out = tmp_path / "sweep.csv"
    cfg = tree_config(trials=2, grid={"params.alpha": [0.2], key: [1, None]}, out_path=str(out))
    with pytest.raises(ValueError, match=f"sweep grid cannot set {key}"):
        sweep(cfg)
    assert not out.exists()


@pytest.mark.parametrize(
    "path, message",
    [
        # true_function and trials hold their defaults, so the base
        # document leaves them out
        ("true_function.x", "grid.true_function.x goes through true_function, which is not"),
        ("trials.x", "grid.trials.x goes through trials, which is not an object"),
        ("params.alhpa", "unknown grid key grid.params.alhpa"),
        ("nosie.kind", "unknown grid key grid.nosie"),
    ],
)
def test_sweep_checks_grid_paths_against_the_fields(monkeypatch, path, message):
    from maximin_bandits import harness

    def no_cell(config):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "monte_carlo", no_cell)
    cfg = replace(tree_config(grid={"params.alpha": [0.2], path: [1]}), trials=100)
    with pytest.raises(ValueError, match=message):
        sweep(cfg)


def test_tree_descent_prober_queries_each_stage_reps_times():
    fclass, meta = make_tree_class(2, 3)
    prober = tree_descent_prober(meta, reps_per_stage=3)
    report = certify_lower_bound(fclass, prober, alpha=0.2, delta=0.1, trials=20, seed=4)
    # (depth + bucket_size) stages of 3 coin flips each, on every trial
    assert report.budget == 3 * (2 + 3)


def test_sweep_requires_grid():
    with pytest.raises(ValueError):
        sweep(tree_config())


def test_sweep_single_cell_matches_monte_carlo():
    cfg = tree_config(trials=8, grid={"params.alpha": [0.2]})
    cell = sweep(cfg).cells[0]
    # cell seed is derived from (master, cell index), so rerun with that seed
    from maximin_bandits.core import trial_seed

    direct = monte_carlo(tree_config(trials=8, seed=trial_seed(99, 0)))
    assert cell["success_rate"] == direct.success_rate
    assert cell["mean_queries"] == direct.mean_queries
