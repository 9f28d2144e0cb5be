"""Pinned output digests of small runs.

Criterion 11 compares two executions of the same code, so it cannot notice
a change to the random-number stream.  These digests were recorded from the
per-arm sampling code; any change to how rewards are drawn, estimated or
persisted that alters a single output byte fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from maximin_bandits import core
from maximin_bandits.cli import main
from maximin_bandits.core import FunctionClass, Model, NoiseSpec
from maximin_bandits.environments import make_k_armed, make_tree_class
from maximin_bandits.harness import adaptivity_experiment, records_to_csv
from maximin_bandits.learners import (
    LearnerParams,
    run_e2d,
    run_empirical_mean_learner,
    run_median_of_means_learner,
    run_non_adaptive_uniform,
    run_tree_descent,
)

#: Interior means, so every noise kind but ``deterministic`` draws random
#: rewards (the tree classes put 0/1 means on every leaf arm).
MEANS = [
    [0.70, 0.40, 0.35, 0.30, 0.45],
    [0.40, 0.70, 0.35, 0.45, 0.30],
    [0.35, 0.40, 0.70, 0.30, 0.45],
    [0.45, 0.30, 0.40, 0.70, 0.35],
]
INLINE = {"means": MEANS}

#: name -> (experiment config, output format, sha256 of the output file)
GOLDEN = {
    "empirical-mean-bernoulli": (
        {
            "class": INLINE, "noise": {"kind": "bernoulli"}, "learner": "empirical-mean",
            "params": {"alpha": 0.2, "delta": 0.1}, "trials": 20, "seed": 11,
        },
        "csv",
        "38b38190467ed4f22c4015bfb475246065172b405e6a259655148cbd78fc8973",
    ),
    "empirical-mean-two-point": (
        {
            "class": INLINE, "noise": {"kind": "two-point", "c": 0.25},
            "learner": "empirical-mean", "params": {"alpha": 0.2, "delta": 0.1},
            "trials": 20, "seed": 12,
        },
        "csv",
        "68b3d708a58256c5bcce87d36146331ee1a2618d4c15b83153f08e2c726be8c8",
    ),
    # delta 0.1 gives 3 groups (odd K)
    "median-of-means-gaussian": (
        {
            "class": INLINE, "noise": {"kind": "gaussian", "sigma": 0.3},
            "learner": "median-of-means",
            "params": {"alpha": 0.2, "delta": 0.1, "sigma": 0.3}, "trials": 20, "seed": 13,
        },
        "csv",
        "ce8c4c0e66496e3c852c7befacb56a05ba919a3a8684c7febf4c8d77c9994694",
    ),
    # delta 0.05 gives 4 groups (even K, lower median)
    "median-of-means-heavy-tail": (
        {
            "class": INLINE, "noise": {"kind": "heavy-tail", "sigma": 0.3},
            "learner": "median-of-means",
            "params": {"alpha": 0.2, "delta": 0.05, "sigma": 0.3}, "trials": 20, "seed": 14,
        },
        "csv",
        "15eab0ef6438135dc48b57d44e18e803c168a6ca8ae4f70ccf75782d5c70a4b0",
    ),
    "non-adaptive-uniform-deterministic": (
        {
            "class": {"constructor": "tree", "depth": 3, "bucket_size": 1},
            "noise": {"kind": "deterministic"}, "learner": "non-adaptive-uniform",
            "params": {"alpha": 0.2, "delta": 0.1, "budget": 6, "reps_per_arm": 2},
            "trials": 50, "seed": 15,
        },
        "csv",
        "8c5e8c4c56d3c2fc03b3f33271c997b8a4bb87bb1d6f26efcd1a6c64288d6252",
    ),
    "e2d-t400": (
        {
            "class": INLINE, "noise": {"kind": "bernoulli"}, "learner": "e2d",
            "params": {"alpha": 0.2, "delta": 0.2, "horizon": 400}, "trials": 5, "seed": 16,
        },
        "json",
        "260fb253929450f87ceff1e353494cd5d150ebf205ce771ac172cc3f1c4342e9",
    ),
}


def run_digest(tmp_path, capsys, name) -> str:
    doc, fmt, _ = GOLDEN[name]
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"experiment_id": name, **doc}))
    out = tmp_path / f"{name}.{fmt}"
    assert main(["run", "--config", str(config), "--out", str(out), "--format", fmt]) == 0
    capsys.readouterr()
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_output_matches_pinned_digest(tmp_path, capsys, name):
    assert run_digest(tmp_path, capsys, name) == GOLDEN[name][2]


# The records above show only which arm each trial output.  The transcripts
# below pin every queried arm and every reward of one run per learner.

NOISES = {
    "bernoulli": NoiseSpec.bernoulli(),
    "deterministic": NoiseSpec.deterministic(),
    "two-point": NoiseSpec.two_point(0.25),
    "gaussian": NoiseSpec.gaussian(0.3),
    "heavy-tail": NoiseSpec.heavy_tail(0.3),
}


def run_transcript(name: str):
    learner, kind = name.split(":")
    if learner == "tree-descent":
        fclass, meta = make_tree_class(3, 2)
        model = Model(fclass, 5, NOISES[kind])
        return run_tree_descent(meta, LearnerParams(alpha=0.2, delta=0.1), model, seed=24)
    fclass = FunctionClass(MEANS)
    model = Model(fclass, 2, NOISES[kind])
    params = LearnerParams(alpha=0.2, delta=0.05, sigma=0.3, horizon=400)
    if learner == "empirical-mean":
        return run_empirical_mean_learner(params, model, seed=21)
    if learner == "median-of-means":
        return run_median_of_means_learner(params, model, seed=22)
    if learner == "non-adaptive-uniform":
        return run_non_adaptive_uniform(30, 3, model, seed=23)
    return run_e2d(params, model, seed=25)


#: learner:noise -> sha256 of the transcript's arms, rewards and output arm
GOLDEN_TRANSCRIPTS = {
    "empirical-mean:bernoulli":
        "c8777d780e4a328fa73bdb1a5597b138897a71227b6fd232cefde90602ad5ac2",
    "empirical-mean:deterministic":
        "d0bf717fe814486aefc91fa999a161c6b1566d94ea45e6805553471f49fc99b5",
    "empirical-mean:two-point":
        "f2b439c8e78a485eff675985cf6ae0b0ea4c7491cb10700bcf5e1a464ed357a5",
    "median-of-means:gaussian":
        "39dcd5878c281f137062afcde1388f57ff0cf8712f6411e9ecdd0eccebace533",
    "median-of-means:heavy-tail":
        "052c9841dd9e9d684e656e91ab409179e50bb986ecaa14986a1e3313a530a157",
    "median-of-means:two-point":
        "a3b9ca582037c46a2c84fc3d5363d5df68052ca56f2c8bee8ce511d36a421eb0",
    "non-adaptive-uniform:gaussian":
        "6915ab683aa6728c17a9ec45a7f2d0a8a0f6947a2b1fd8178c0955b0726b0a1d",
    "non-adaptive-uniform:heavy-tail":
        "aedec10feb0f8580cd3a5e50ef38fbdb69bec8349b1e0e13e275dfae4ccd2229",
    "tree-descent:bernoulli":
        "94499b9ee4602afea16ecea27293ff9a2a2ecf35caca8f7a7f3d96dcf30e871d",
    "tree-descent:deterministic":
        "199f30f820c7b5bad5b3f1f0635e1c435b59b33f11eefbfcf0c09490c62717c6",
    "e2d:bernoulli":
        "ba0decd5202a719551c5f0e33b863f9b85c88570902c6998e6300e49425129ba",
    "e2d:two-point":
        "351e259ef3fefe78757bf1c71f25ba70c8f1976d69a0d4f2cf8346fc29368913",
    # The three below were recorded from the per-round exploration loop,
    # before the rounds of a fixed search were drawn in one block.
    "e2d:deterministic":
        "a5ca02825a315c7ebd729ab6378ee307787405ca9d6cd89a1eb3eeaf66c818c7",
    "e2d:heavy-tail":
        "1048336e2bb7fd89fa982a2a51520d937dbf74fb40f2ded7a11feb177523da78",
    "e2d:gaussian":
        "dc417ed794f3cafa3b4d826e3beefa81c22a10b87e6ea2637a12d3818167edaf",
}


def transcript_digest(name: str) -> str:
    t = run_transcript(name)
    payload = t.arms.tobytes() + t.rewards.tobytes() + str(t.output_arm).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_TRANSCRIPTS))
def test_transcript_matches_pinned_digest(name):
    assert transcript_digest(name) == GOLDEN_TRANSCRIPTS[name]


# Neither the records nor the transcripts above cover e2d's meta, whose
# floats come from the regression oracle: a matvec that moves one ulp there
# leaves every arm and reward unchanged.  Recorded from the per-query oracle.

E2D_META_KEYS = ("selection_scores", "est_error", "effective_gamma", "chosen_round")


def e2d_meta_run(name: str):
    if name == "eps-bar-below-one":
        # delta 0.9 and T = 12000 put eps_bar near 0.94: a search every round
        fclass = make_k_armed(2)
        params = LearnerParams(alpha=0.2, delta=0.9, horizon=12000)
        return run_e2d(params, Model(fclass, 0, NoiseSpec.bernoulli()), seed=7)
    if name == "tree-d3-bernoulli":
        fclass, _ = make_tree_class(3, 1)
        params = LearnerParams(alpha=0.2, delta=0.2, horizon=400)
        return run_e2d(params, Model(fclass, 5, NoiseSpec.bernoulli()), seed=26)
    return run_transcript(name)


#: run -> sha256 of ``json.dumps`` of the meta values named above
GOLDEN_E2D_META = {
    "e2d:bernoulli":
        "745c63b467620c4cca6d3141bffda5bae2c3141dc231b42df80dba3469e024e1",
    "e2d:two-point":
        "a03dbbb76fd8c293f9be8591861224f01b9c52fad071885a0a47818e1769ab30",
    "tree-d3-bernoulli":
        "b71245a578e06937f5b837b4a6748819c94581a154dbf23f55ce3394524b83a1",
    "eps-bar-below-one":
        "dffb91e58eb80f473548969a687b93f291f5c4f1672514df4470abde8f66baf3",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_E2D_META))
def test_e2d_meta_matches_pinned_digest(name):
    meta = e2d_meta_run(name).meta
    payload = json.dumps({key: meta[key] for key in E2D_META_KEYS}).encode()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_E2D_META[name]


# The adaptivity experiment: sha256 of the ``adaptivity`` command's stdout
# and of its records as CSV (tree-descent records, then the non-adaptive
# ones).  Depth 4 gives the baseline a budget of 1 query, depth 6 of 6.

#: (depth, trials, seed) -> (stdout sha256, records CSV sha256)
GOLDEN_ADAPTIVITY = {
    (4, 200, 3): (
        "ad75d37296af03d98b0168c61d1c47d8b4780cbb2d1cc798e61ae04bb635263f",
        "7a34e7582b5d585f6f0804fb6f6e0d0c084d68a73e67b0790873f84928e885a0",
    ),
    (6, 100, 9): (
        "47529de8cacbd32c500ce9d31fd201e4adf07a8b3896a3031eed24bdd0b58db9",
        "1eb8ffaeebbf11af72d9c929e1eb3cc9246cfa68856e1d3e203d72ad58147502",
    ),
    # the benchmark's op; recorded with one learner call per trial
    (5, 1000, 0): (
        "7a3c1aeadd913f3d3a9bacca8ccc2ccd1af87d7aee763049dd1cc37cfc6f8d74",
        "e35a5b46d8e2942570498a793c9eeb86e2f7f756e4aa3a54cc1afb82bbec3165",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_ADAPTIVITY))
def test_adaptivity_matches_pinned_digest(capsys, key):
    depth, trials, seed = key
    stdout_digest, csv_digest = GOLDEN_ADAPTIVITY[key]
    argv = ["adaptivity", "--depth", str(depth), "--trials", str(trials), "--seed", str(seed)]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest
    report = adaptivity_experiment(depth, trials, seed)
    csv_text = records_to_csv(report.adaptive_records + report.non_adaptive_records)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == csv_digest


# Every JSON and CSV the commands write, through the encoders: sha256 of
# stdout, or of the ``--out`` file when the arguments name one.  Recorded
# before the hand-written ``to_json``/``csv_row``/``to_csv`` methods gave way
# to one encoder.

TREE_D2 = {"constructor": "tree", "depth": 2, "bucket_size": 1}

#: A seeded random 0/1 class, 100 x 100 at density 0.3: its game takes 930
#: simplex pivots, many with several rows tied in the ratio test.
RANDOM_01 = {"means": (np.random.default_rng(0).random((100, 100)) < 0.3).astype(float).tolist()}

#: name -> (arguments before ``--config``, config document or None, sha256)
GOLDEN_COMMANDS = {
    "gamma-tree-d3-bucket2": (
        ["gamma", "--alpha", "0.1"], {"constructor": "tree", "depth": 3, "bucket_size": 2},
        "1fc4642a765b9724ec10e0d872edc9b3a5419e377cf9220fc37f9af71f896de8",
    ),
    # 1006 simplex pivots; recorded on the full-tableau solver, before the
    # tableau dropped its basic columns
    "gamma-linear-net-d3": (
        ["gamma", "--alpha", "0.2"], {"constructor": "linear-net", "dimension": 3, "alpha": 0.7},
        "63e8582086f8ec77cad469b0b5b82fcc78e978eb1b015eb9744265b021f190c3",
    ),
    # recorded before the pivot updated the tableau in place
    "gamma-random-100": (
        ["gamma", "--alpha", "0.5"], RANDOM_01,
        "95ae7e74305cb8457bbff49b2c5f1a2ca2665a5c6747b5ff574821d15e754d46",
    ),
    "gamma-inline": (
        ["gamma", "--alpha", "0.3"], INLINE,
        "027e5c699e60f16344918b8f96fe99ca1eef2c8bcdb0f7167a42dfaef39ca61b",
    ),
    "dec-first-anchor": (
        ["dec", "--eps", "0.5", "--alpha", "0.3"], TREE_D2,
        "c4d7348f07035a57f9a254c3ac66fb5a5e18968c8a6191b52b3124267bfda3af",
    ),
    "dec-sup": (
        ["dec", "--eps", "0.5", "--alpha", "0.3", "--sup"], TREE_D2,
        "fd9a373a3fafe8ce2bf3f16e3b4a8943287ac89f68335ab85776c00810290a36",
    ),
    "certify-depth-2": (
        ["certify", "--depth", "2"], None,
        "4b8e75c97266f02c43a3a004cb52fb0d605b902c792e0478c578215df9192e2f",
    ),
    "certify-witness": (
        ["certify", "--trials", "2000", "--seed", "5"],
        {"class": INLINE, "prober": {"kind": "witness", "alpha": 0.3}},
        "797dfd6fad28fe26e9cc2f75045246f4932b449763e61d83259b691f3dde83f1",
    ),
    # The three below were recorded with one generator per certify trial,
    # before certify ran its trials as chunks of array streams.  Three coin
    # flips per stage on four stages: budget 12.
    "certify-tree-d2-bucket2-reps3": (
        ["certify", "--trials", "3000", "--seed", "13"],
        {"class": {"constructor": "tree", "depth": 2, "bucket_size": 2},
         "prober": {"kind": "tree-descent", "reps": 3}},
        "6ede6d4a01c6bc3a9b79988eefb51b8cb640831daf20933d4b7df3127e601a64",
    ),
    "certify-fixed-arm": (
        ["certify", "--trials", "500", "--seed", "9"],
        {"class": INLINE, "prober": {"kind": "fixed-arm", "arm": 2}},
        "516e1cedfca7d4ada7713eaa430f37cc0fa8f99248b192a71bbb58a44c78c556",
    ),
    # the benchmark's certify op at one of its seeds
    "certify-depth-1-benchmark": (
        ["certify", "--depth", "1", "--trials", "10000", "--seed", "1097657232"], None,
        "7d4aedd37c317d4647b3950861d6d3e5e6dc4c2905736a916f7a777b6497481b",
    ),
    "discretize": (
        ["discretize", "--mu", "0.5", "--sigma", "2.0", "--eps", "0.2"], None,
        "7d2e70f94a6d093e51d640cf3ff69498bf0464920bb828743abd54ac34c114f1",
    ),
    # the bernoulli cells reject the base noise's sigma and record the error
    "sweep": (
        ["sweep"],
        {
            "class": INLINE, "noise": {"kind": "gaussian", "sigma": 0.3},
            "learner": "median-of-means", "params": {"alpha": 0.2, "delta": 0.1, "sigma": 0.3},
            "trials": 3, "seed": 17,
            "grid": {"params.alpha": [0.2, 0.3], "noise.kind": ["gaussian", "bernoulli"]},
        },
        "6320132201834e9333f55ef40d32826573bd4b0ae2815d802001966ec5fe6241",
    ),
    # tree descent on an inline class fails every trial with an error tag
    "run-json-errors": (
        ["run", "--format", "json", "--out", "records.json"],
        {
            "class": INLINE, "noise": {"kind": "bernoulli"}, "learner": "tree-descent",
            "params": {"alpha": 0.2, "delta": 0.1}, "trials": 3, "seed": 4,
        },
        "b2ad13ef03d2ea974f1a4dfee9ac6990dd554d206d3af84ce26da97d1f342154",
    ),
    # The two below were recorded before the run summary and the sweep's cell
    # documents came from ``to_json`` and were read back by ``from_json``.
    "run-summary": (
        ["run"],
        {
            "class": INLINE, "noise": {"kind": "bernoulli"}, "learner": "empirical-mean",
            "params": {"alpha": 0.2, "delta": 0.1}, "trials": 5, "seed": 8,
        },
        "65dd5d6fc20733b342d54dbe66d8979521adbdc19836a083fa3919b4e7fe0fc5",
    ),
    # a fixed true function, and the default 100 trials per cell
    "sweep-true-function-default-trials": (
        ["sweep", "--seed", "21"],
        {
            "class": TREE_D2, "noise": {"kind": "bernoulli"}, "learner": "tree-descent",
            "params": {"alpha": 0.2, "delta": 0.1}, "true_function": 2,
            "grid": {"params.delta": [0.1, 0.3], "params.reps_per_arm": [1, 2]},
        },
        "22ee7ac6873d117377476c9bf92bd57584ee404d9133b5b0d42aca9963fe3ee8",
    ),
    # the JSON file at the default seed; recorded before tree descent logged
    # its arms per stage and summed its answers in a plain loop
    "adaptivity-depth-4": (
        ["adaptivity", "--depth", "4", "--trials", "200", "--out", "adaptivity.json"], None,
        "126dc435119706b8c0bd832baaea915990674c5ac6dd3f8bdea51fd0804d10fc",
    ),
    # The four below were recorded with one learner call per trial, before
    # tree descent and the non-adaptive baseline ran their trials as arrays.
    "run-non-adaptive-two-point-reps2": (
        ["run", "--format", "json", "--out", "records.json"],
        {
            "class": INLINE, "noise": {"kind": "two-point", "c": 0.25},
            "learner": "non-adaptive-uniform",
            "params": {"alpha": 0.2, "delta": 0.1, "budget": 12, "reps_per_arm": 2},
            "trials": 40, "seed": 31,
        },
        "5e8d1115a4be9dd1a1d41f2d4f4d61d9589eda8bf17e8fccfc9a9b16f6f67b60",
    ),
    # 1,000 trials x 40 positions: more than one chunk of trials
    "run-non-adaptive-gaussian": (
        ["run", "--out", "records.csv"],
        {
            "class": INLINE, "noise": {"kind": "gaussian", "sigma": 1.0},
            "learner": "non-adaptive-uniform",
            "params": {"alpha": 0.2, "delta": 0.1, "budget": 40}, "trials": 1000, "seed": 32,
        },
        "98ef270ce6b4b01a641c68ee6ae2e7de31c2a76fc6fb630ff99da6ff38efd8d1",
    ),
    # 2,932 queries per trial: about 28 chunks of trials
    "run-descent-bernoulli-d6-bucket2": (
        ["run", "--out", "records.csv"],
        {
            "class": {"constructor": "tree", "depth": 6, "bucket_size": 2},
            "noise": {"kind": "bernoulli"}, "learner": "tree-descent",
            "params": {"alpha": 0.2, "delta": 0.1}, "trials": 300, "seed": 33,
        },
        "23694fe0fb95fcd47cbd0efdd5800ce58d59cfd66784b69949b0db2c51bffd3a",
    ),
    "adaptivity-depth-5": (
        ["adaptivity", "--depth", "5", "--trials", "1000", "--out", "adaptivity.json"], None,
        "7a3c1aeadd913f3d3a9bacca8ccc2ccd1af87d7aee763049dd1cc37cfc6f8d74",
    ),
}


def command_outputs(tmp_path, monkeypatch, capsys, name) -> tuple[bytes, bytes | None]:
    """What the command printed, and the file it wrote to ``--out`` (if any)."""
    argv, doc, _ = GOLDEN_COMMANDS[name]
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "config.json").write_text(json.dumps(doc))
        argv = [*argv, "--config", "config.json"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    if "--out" in argv:
        return printed, (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
    return printed, None


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_command_output_matches_pinned_digest(tmp_path, monkeypatch, capsys, name):
    printed, written = command_outputs(tmp_path, monkeypatch, capsys, name)
    payload = printed if written is None else written
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_COMMANDS[name][2]


def refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("name", sorted(n for n, case in GOLDEN_COMMANDS.items()
                                        if case[0][0] != "sweep"))
def test_command_json_output_is_strict_json(tmp_path, monkeypatch, capsys, name):
    # RFC 8259 has no NaN or Infinity; a strict parser refuses them
    printed, written = command_outputs(tmp_path, monkeypatch, capsys, name)
    if GOLDEN_COMMANDS[name][0][-1].endswith(".csv"):
        written = None  # CSV records; the summary printed beside them is JSON
    for payload in (printed, written):
        if payload:
            json.loads(payload, parse_constant=refuse_constant)


# Every loop that works in blocks sizes them from one budget,
# ``core.BLOCK_ENTRIES``, and its results must not depend on where the
# blocks split.  At 64 entries every loop splits on the runs above: 8
# trials per block of seeds, of certify and of drawn true functions; one
# Bernoulli tree-descent trial (64 deterministic ones) and one baseline
# trial per chunk; 7 oracle rows of e2d on the 4 x 5 class.

SPLIT_COMMANDS = sorted(name for name, case in GOLDEN_COMMANDS.items()
                        if case[0][0] in ("run", "sweep", "certify", "adaptivity"))


def test_digests_hold_when_every_chunked_loop_splits(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 64)
    assert core.block_rows(core._STREAM_ENTRIES) == 8
    for name in sorted(GOLDEN):
        assert run_digest(tmp_path, capsys, name) == GOLDEN[name][2], name
    for name in SPLIT_COMMANDS:
        printed, written = command_outputs(tmp_path, monkeypatch, capsys, name)
        payload = printed if written is None else written
        assert hashlib.sha256(payload).hexdigest() == GOLDEN_COMMANDS[name][2], name
    for name in sorted(GOLDEN_E2D_META):
        meta = e2d_meta_run(name).meta
        payload = json.dumps({key: meta[key] for key in E2D_META_KEYS}).encode()
        assert hashlib.sha256(payload).hexdigest() == GOLDEN_E2D_META[name], name
