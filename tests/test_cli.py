import csv
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from maximin_bandits.cli import main
from maximin_bandits.core import CapacityError, PrecisionError


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def k3_class(tmp_path):
    return write_json(tmp_path / "k3.json", {"constructor": "k-armed", "k": 3})


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gamma_command(capsys, k3_class):
    code, out = run_cli(capsys, ["gamma", "--config", k3_class, "--alpha", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["value"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert doc["meta"] == {"log_base": "natural"}


def test_gamma_command_writes_file(tmp_path, k3_class):
    out_path = tmp_path / "gamma.json"
    code = main(
        ["gamma", "--config", k3_class, "--alpha", "0.5", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["certificate"]["alpha"] == 0.5


def test_dec_command_sup(capsys, k3_class):
    code, out = run_cli(
        capsys,
        ["dec", "--config", k3_class, "--eps", "2.0", "--alpha", "0.5", "--sup"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dec"]["value"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert doc["dec"]["bound_direction"] == "lower-bound-of-sup"


def test_dec_command_vertex_anchors(capsys, tmp_path):
    from maximin_bandits.core import to_json
    from maximin_bandits.dec import dec_sup
    from maximin_bandits.environments import make_tree_class

    spec = {"constructor": "tree", "depth": 2, "bucket_size": 1}
    config = write_json(tmp_path / "tree.json", spec)
    code, out = run_cli(
        capsys,
        ["dec", "--config", config, "--eps", "0.5", "--alpha", "0.3",
         "--anchors", "vertices", "--sup"],
    )
    assert code == 0
    fclass, _ = make_tree_class(2, 1)
    vertices = list(np.eye(fclass.n_functions))
    expected = to_json(dec_sup(fclass, 0.5, 0.3, anchors=vertices, resolution=0.1))
    assert json.loads(out)["dec"] == expected


def test_dec_command_single_anchor(capsys, k3_class, tmp_path):
    anchors = write_json(tmp_path / "anchors.json", {"anchors": [[1.0, 0.0, 0.0]]})
    code, out = run_cli(
        capsys,
        [
            "dec", "--config", k3_class, "--eps", "0.01", "--alpha", "0.5",
            "--anchors", anchors,
        ],
    )
    assert code == 0
    assert json.loads(out)["dec"]["value"] == 0.0


def test_run_command(capsys, tmp_path):
    cfg = write_json(
        tmp_path / "run.json",
        {
            "class": {"constructor": "tree", "depth": 2, "bucket_size": 1},
            "noise": {"kind": "deterministic"},
            "learner": "tree-descent",
            "params": {"alpha": 0.2, "delta": 0.1},
            "trials": 5,
            "seed": 3,
            "out": str(tmp_path / "records.csv"),
        },
    )
    code, out = run_cli(capsys, ["run", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["success_rate"] == 1.0
    lines = (tmp_path / "records.csv").read_text().splitlines()
    assert len(lines) == 6


def test_run_command_seed_override_changes_rows(capsys, tmp_path):
    cfg = write_json(
        tmp_path / "run.json",
        {
            "class": {"constructor": "tree", "depth": 2, "bucket_size": 1},
            "noise": {"kind": "bernoulli"},
            "learner": "tree-descent",
            "params": {"alpha": 0.2, "delta": 0.1},
            "trials": 4,
            "seed": 3,
        },
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["run", "--config", cfg, "--out", str(out_a)])
    main(["run", "--config", cfg, "--out", str(out_b), "--seed", "4"])
    capsys.readouterr()
    assert out_a.read_text() != out_b.read_text()


def test_sweep_command(capsys, tmp_path):
    cfg = write_json(
        tmp_path / "sweep.json",
        {
            "class": {"constructor": "tree", "depth": 2, "bucket_size": 1},
            "noise": {"kind": "deterministic"},
            "learner": "tree-descent",
            "params": {"alpha": 0.2, "delta": 0.1},
            "trials": 3,
            "seed": 1,
            "grid": {"params.alpha": [0.2, 0.4]},
        },
    )
    code, out = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("experiment_id,")
    assert len(lines) == 3


def test_certify_command(capsys):
    code, out = run_cli(
        capsys, ["certify", "--depth", "1", "--trials", "400", "--seed", "2"]
    )
    assert code == 0
    doc = json.loads(out)["certify"]
    assert doc["budget"] == 2
    assert doc["certified"] is True


def test_certify_command_with_config(capsys, tmp_path):
    cfg = write_json(
        tmp_path / "cert.json",
        {
            "class": {"constructor": "tree", "depth": 1, "bucket_size": 1},
            "prober": {"kind": "fixed-arm", "arm": 0},
            "alpha": 0.2,
            "delta": 0.1,
            "trials": 50,
            "seed": 0,
        },
    )
    code, out = run_cli(capsys, ["certify", "--config", cfg])
    assert code == 0
    doc = json.loads(out)["certify"]
    assert doc["budget"] == 0
    assert doc["min_coverage"] == 0.0


def test_adaptivity_command(capsys):
    code, out = run_cli(
        capsys, ["adaptivity", "--depth", "3", "--trials", "40", "--seed", "5"]
    )
    assert code == 0
    doc = json.loads(out)["adaptivity"]
    assert doc["separation_holds"] is True
    assert doc["adaptive_success_rate"] == 1.0


def test_discretize_command(capsys):
    code, out = run_cli(
        capsys,
        ["discretize", "--mu", "0.0", "--sigma", "1.0", "--eps", "0.1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tv_within_eps"] is True
    assert doc["buckets"] == len(doc["histogram"]["masses"])
    assert doc["meta"] == {"log_base": "natural"}


def test_cli_output_is_deterministic(capsys, k3_class):
    _, out_a = run_cli(capsys, ["gamma", "--config", k3_class, "--alpha", "0.3"])
    _, out_b = run_cli(capsys, ["gamma", "--config", k3_class, "--alpha", "0.3"])
    assert out_a == out_b


RUN_DOC = {
    "class": {"constructor": "tree", "depth": 2, "bucket_size": 1},
    "noise": {"kind": "deterministic"},
    "learner": "tree-descent",
    "params": {"alpha": 0.2, "delta": 0.1},
}
# The non-adaptive baseline on a depth-3 tree fails often enough that the
# seed moves the success rates.
SWEEP_DOC = {
    "class": {"constructor": "tree", "depth": 3, "bucket_size": 1},
    "noise": {"kind": "deterministic"},
    "learner": "non-adaptive-uniform",
    "params": {"alpha": 0.2, "delta": 0.1, "budget": 1},
    "trials": 4,
    "grid": {"params.budget": [1, 2]},
}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("adaptivity", {"depth": None}, "depth must be a number, got None"),
        ("adaptivity", {"trials": 2.5}, "trials must be an integer, got 2.5"),
        ("certify", {"trials": "many"}, "trials must be a number, got 'many'"),
        ("certify", {"prober": {"kind": "tree-descent", "reps": 1.5}},
         "prober.reps must be an integer, got 1.5"),
        ("certify", {"class": {"constructor": "k-armed", "k": 3},
                     "prober": {"kind": "fixed-arm", "arm": "first"}},
         "prober.arm must be a number, got 'first'"),
        ("certify", {"class": {"constructor": "k-armed", "k": 3}, "prober": {"kind": "witness"}},
         "prober.alpha must be a number, got None"),
        ("discretize", {"sigma": "wide"}, "sigma must be a number, got 'wide'"),
        ("run", {**RUN_DOC, "trials": 2.5}, "trials must be an integer, got 2.5"),
        ("run", {**RUN_DOC, "seed": None}, "seed must be a number, got None"),
        ("run", {**RUN_DOC, "record_runtime": "false"},
         "record_runtime must be true or false, got 'false'"),
        ("adaptivity", {"depth": True, "trials": "3"}, "depth must be a number, got True"),
        ("adaptivity", {"depth": 2, "trials": "3"}, "trials must be a number, got '3'"),
        ("certify", {"depth": 2, "class": {"constructor": "tree", "depth": 2, "bucket_size": 2}},
         "certify takes depth (a bucket-1 tree) or class, not both"),
        ("sweep", {**SWEEP_DOC, "format": "json"}, "sweep writes csv only, got format 'json'"),
        ("sweep", {**SWEEP_DOC, "params": {**SWEEP_DOC["params"], "cM": 2.0}},
         "unknown params key params.cM"),
        ("sweep", {**SWEEP_DOC, "params": {**SWEEP_DOC["params"], "T": 400}},
         "unknown params key params.T"),
        ("sweep", {**SWEEP_DOC, "params": {**SWEEP_DOC["params"], "alpah": 0.3}},
         "unknown params key params.alpah"),
        # document keys that no reader takes
        ("certify", {"bucket_size": 4, "trials": 20}, "unknown certify document key bucket_size"),
        ("adaptivity", {"depth": 2, "trial": 5}, "unknown adaptivity document key trial"),
        ("discretize", {"sgima": 2.0}, "unknown discretize document key sgima"),
        ("run", {**RUN_DOC, "grid": {"params.alpha": [0.2]}}, "unknown run document key grid"),
        ("run", {**RUN_DOC, "format": "json"}, "run writes format 'json' only with an out path"),
        ("run", {**RUN_DOC, "typo_key": 1}, "unknown run document key typo_key"),
        ("sweep", {**SWEEP_DOC, "typo_key": 1}, "unknown sweep document key typo_key"),
        ("run", {**RUN_DOC, "class": {**RUN_DOC["class"], "colour": "red"}},
         "unknown class key class.colour"),
        ("run", {**RUN_DOC, "noise": {"kind": "gaussian", "sigmaa": 0.3}},
         "unknown noise key noise.sigmaa"),
        ("certify", {"prober": {"kind": "tree-descent", "repz": 3}},
         "unknown prober key prober.repz"),
        # documents and specs of the wrong JSON kind
        ("run", {**RUN_DOC, "class": 5}, "class must be an object, got 5"),
        ("certify", {"class": 5}, "class must be an object, got 5"),
        ("certify", {"prober": "witness"}, "prober must be an object, got 'witness'"),
        ("run", [RUN_DOC], "run document must be an object, got [{"),
        ("adaptivity", 5, "adaptivity document must be an object, got 5"),
        ("run", {**RUN_DOC, "noise": "bernoulli"}, "noise must be an object, got 'bernoulli'"),
        ("run", {**RUN_DOC, "params": [0.2]}, "params must be an object, got [0.2]"),
        ("run", {**RUN_DOC, "learner": ["e2d"]}, "learner must be a string, got ['e2d']"),
        # the known keys are listed once each
        ("run", {**RUN_DOC, "typo_key": 1},
         "typo_key (known: seed, trials, out, format, class, noise, learner, params, "
         "true_function, experiment_id, record_runtime)"),
        ("sweep", {**SWEEP_DOC, "typo_key": 1},
         "typo_key (known: seed, out, class, noise, learner, params, trials, true_function, "
         "experiment_id, format, record_runtime, grid)"),
        # missing fields
        ("run", {k: v for k, v in RUN_DOC.items() if k != "learner"}, "learner is required"),
        ("run", {k: v for k, v in RUN_DOC.items() if k != "class"}, "class is required"),
        ("run", {k: v for k, v in RUN_DOC.items() if k != "noise"}, "noise is required"),
        ("run", {**RUN_DOC, "noise": {"sigma": 0.3}}, "noise.kind is required"),
        ("sweep", {**SWEEP_DOC, "params": {"delta": 0.1}}, "params.alpha is required"),
        # sweep grids, checked before any cell runs
        ("sweep", {**SWEEP_DOC, "grid": {"params.alpha": 0.2}},
         "grid.params.alpha must be a list, got 0.2"),
        ("sweep", {**SWEEP_DOC, "grid": {"params.budget": [1], "learner.x": [1]}},
         "grid.learner.x goes through learner, which is not an object"),
        ("sweep", {**SWEEP_DOC, "grid": {"params.alpha.x": [1]}},
         "grid.params.alpha.x goes through alpha, which is not an object"),
    ],
)
def test_config_documents_name_bad_fields(tmp_path, command, doc, message):
    cfg = write_json(tmp_path / "doc.json", doc)
    with pytest.raises(ValueError) as info:
        main([command, "--config", cfg])
    assert message in str(info.value)


def test_flags_override_config_fields(capsys, tmp_path):
    cfg = write_json(tmp_path / "adapt.json", {"depth": 9, "trials": "many", "seed": 5})
    code, out = run_cli(
        capsys, ["adaptivity", "--config", cfg, "--depth", "3", "--trials", "40"]
    )
    assert code == 0
    _, direct = run_cli(capsys, ["adaptivity", "--depth", "3", "--trials", "40", "--seed", "5"])
    assert out == direct


# One case per field table entry: (command, base document, field, value).
# Output files go to out/ under the test's working directory.
FIELD_CASES = [
    ("run", {**RUN_DOC, "trials": 2, "out": "out/records"}, "seed", 4),
    ("run", {**RUN_DOC, "trials": 2, "out": "out/records"}, "trials", 3),
    ("run", {**RUN_DOC, "trials": 2, "out": "out/records"}, "out", "out/other"),
    ("run", {**RUN_DOC, "trials": 2, "out": "out/records"}, "format", "json"),
    ("sweep", SWEEP_DOC, "seed", 3),
    ("sweep", SWEEP_DOC, "out", "out/cells.csv"),
    ("certify", {"trials": 40}, "depth", 2),
    ("certify", {"trials": 40}, "alpha", 1.0),
    ("certify", {"trials": 40}, "delta", 0.3),
    ("certify", {"trials": 40}, "trials", 41),
    ("certify", {"trials": 40}, "seed", 3),
    ("certify", {"trials": 40}, "out", "out/cert.json"),
    ("adaptivity", {"depth": 5, "trials": 20}, "depth", 4),
    ("adaptivity", {"depth": 5, "trials": 20}, "trials", 21),
    ("adaptivity", {"depth": 5, "trials": 20}, "seed", 4),
    ("adaptivity", {"depth": 5, "trials": 20}, "alpha", 0.3),
    ("adaptivity", {"depth": 5, "trials": 20}, "delta", 0.3),
    ("adaptivity", {"depth": 5, "trials": 20}, "out", "out/adapt.json"),
    ("discretize", {}, "mu", 0.5),
    ("discretize", {}, "sigma", 2.0),
    ("discretize", {}, "eps", 0.2),
    ("discretize", {}, "step", 0.01),
    ("discretize", {}, "out", "out/hist.json"),
]


@pytest.mark.parametrize("command, base, field, value", FIELD_CASES)
def test_each_document_field_equals_its_flag(capsys, tmp_path, monkeypatch,
                                             command, base, field, value):
    # every field takes effect, and its document form and flag form agree
    monkeypatch.chdir(tmp_path)
    outdir = Path("out")
    outdir.mkdir()

    def outputs(doc, flags=()):
        cfg = write_json(tmp_path / "doc.json", doc)
        code, out = run_cli(capsys, [command, "--config", cfg, *flags])
        assert code == 0
        files = {path.name: path.read_text() for path in sorted(outdir.iterdir())}
        for path in outdir.iterdir():
            path.unlink()
        return out, files

    from_doc = outputs({**base, field: value})
    assert from_doc == outputs(base, [f"--{field}", str(value)])
    assert from_doc != outputs(base)
    if field == "out":
        assert set(from_doc[1]) == {Path(value).name}


def test_certify_rejects_bucket_size_flag(capsys):
    for size in ("4", "0"):
        with pytest.raises(SystemExit) as info:
            main(["certify", "--bucket-size", size, "--trials", "10"])
        assert info.value.code == 2
    assert "--bucket-size" in capsys.readouterr().err


def test_certify_bucketed_tree_through_class(capsys, tmp_path):
    cfg = write_json(tmp_path / "cert.json", {
        "class": {"constructor": "tree", "depth": 2, "bucket_size": 2}, "trials": 50})
    code, out = run_cli(capsys, ["certify", "--config", cfg])
    assert code == 0
    # 3 internal nodes plus 4 leaf buckets of 2 arms
    assert len(json.loads(out)["certify"]["output_distribution"]) == 11


@pytest.mark.parametrize("sup", [[], ["--sup"]])
def test_dec_rejects_an_empty_anchor_list(tmp_path, k3_class, sup):
    for doc in ([], {"anchors": []}):
        anchors = write_json(tmp_path / "anchors.json", doc)
        with pytest.raises(ValueError, match="need at least one anchor candidate"):
            main(["dec", "--config", k3_class, "--eps", "0.5", "--alpha", "0.5",
                  "--anchors", anchors, *sup])


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"anchor": [[1, 0, 0]]}, "unknown anchors key anchor (known: anchors)"),
        ({}, "anchors is required"),
        ({"anchors": {"0": [1, 0, 0]}}, "anchors must be a list, got {"),
        ("vertices", "anchors must be a list, got 'vertices'"),
    ],
)
def test_dec_anchors_file_names_bad_fields(tmp_path, k3_class, doc, message):
    anchors = write_json(tmp_path / "anchors.json", doc)
    with pytest.raises(ValueError) as info:
        main(["dec", "--config", k3_class, "--eps", "0.5", "--alpha", "0.5", "--anchors", anchors])
    assert message in str(info.value)


def test_document_commands_take_flags_only_from_their_field_tables():
    from maximin_bandits.cli import (
        ADAPTIVITY_FIELDS, CERTIFY_FIELDS, DISCRETIZE_FIELDS, RUN_FIELDS, SWEEP_FIELDS,
        build_parser,
    )

    tables = {"run": RUN_FIELDS, "sweep": SWEEP_FIELDS, "certify": CERTIFY_FIELDS,
              "adaptivity": ADAPTIVITY_FIELDS, "discretize": DISCRETIZE_FIELDS}
    parser = build_parser()
    commands = next(a for a in parser._actions if a.choices and "run" in a.choices).choices
    for name, fields in tables.items():
        options = {s for action in commands[name]._actions for s in action.option_strings}
        assert options == {"-h", "--help", "--config", *(f"--{field}" for field in fields)}, name
    # and every field has its case in FIELD_CASES
    assert {(c, f) for c, _, f, _ in FIELD_CASES} == {
        (name, field) for name, fields in tables.items() for field in fields}


#: Learner sizes past the cap, each a change to RUN_DOC: the per-arm counts
#: of alpha 1e-7, the e2d horizon, the non-adaptive schedule, and the
#: median-of-means count of a huge sigma (1e200 squared overflows a float).
OVERSIZED_RUNS = {
    "empirical-mean": {"learner": "empirical-mean", "noise": {"kind": "bernoulli"},
                       "params": {"alpha": 1e-7, "delta": 0.1}},
    "tree-descent": {"params": {"alpha": 1e-7, "delta": 0.1}},
    "e2d": {"learner": "e2d", "params": {"alpha": 0.2, "delta": 0.2, "horizon": 10**11}},
    "non-adaptive-uniform": {"learner": "non-adaptive-uniform",
                             "params": {"alpha": 0.2, "delta": 0.1, "budget": 10**11}},
    "median-of-means-1e6": {"learner": "median-of-means", "noise": {"kind": "bernoulli"},
                            "params": {"alpha": 0.2, "delta": 0.1, "sigma": 1e6}},
    "median-of-means-1e200": {"learner": "median-of-means", "noise": {"kind": "bernoulli"},
                              "params": {"alpha": 0.2, "delta": 0.1, "sigma": 1e200}},
}


@pytest.mark.parametrize("name", OVERSIZED_RUNS)
def test_run_tags_each_trial_over_the_cap(capsys, tmp_path, name):
    out = tmp_path / "records.json"
    cfg = write_json(tmp_path / "run.json", {**RUN_DOC, **OVERSIZED_RUNS[name], "trials": 3})
    code, _ = run_cli(capsys, ["run", "--config", cfg, "--format", "json", "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 3
    assert all("exceeds the cap" in record["error"] for record in records)


def test_sweep_writes_a_cell_over_the_cap(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = write_json(tmp_path / "sweep.json",
                     {**RUN_DOC, "trials": 2, "grid": {"params.alpha": [0.2, 1e-7]}})
    code, _ = run_cli(capsys, ["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    cells = list(csv.DictReader(out.read_text().splitlines()))
    assert [cell["params.alpha"] for cell in cells] == ["0.2", "1e-07"]
    assert cells[0]["success_rate"] == "1.0"
    # every trial of the second cell failed on the cap before its first query
    assert (cells[1]["success_rate"], cells[1]["mean_queries"]) == ("0.0", "0.0")


@pytest.mark.parametrize("sigma, error, message", [
    ("1e-170", PrecisionError, "bucket count inf outside supported range"),
    ("1e300", PrecisionError, "bucket count inf outside supported range"),
    ("1e6", CapacityError, "quadrature grid of 1.59199e+10 points exceeds the cap"),
])
def test_discretize_refuses_an_extreme_sigma(sigma, error, message):
    with pytest.raises(error, match=re.escape(message)):
        main(["discretize", "--sigma", sigma])


def test_dec_command_refuses_a_nan_eps(k3_class):
    with pytest.raises(ValueError, match="eps must be >= 0"):
        main(["dec", "--config", k3_class, "--eps", "nan", "--alpha", "0.3"])


def test_dec_command_builds_only_the_first_vertex(capsys, tmp_path):
    from maximin_bandits.core import to_json
    from maximin_bandits.dec import dec_at
    from maximin_bandits.environments import make_k_armed

    # the midpoint family of k-armed 400 (80,201 anchors) is over the cap
    config = write_json(tmp_path / "k400.json", {"constructor": "k-armed", "k": 400})
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, ["dec", "--config", config, "--eps", "1", "--alpha", "0.3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 << 20
    fclass = make_k_armed(400)
    assert json.loads(out)["dec"] == to_json(dec_at(fclass, np.eye(400)[0], 1.0, 0.3))
    with pytest.raises(CapacityError, match="anchor family of 80201 anchors"):
        main(["dec", "--config", config, "--eps", "1", "--alpha", "0.3", "--sup"])


@pytest.mark.parametrize("argv", [
    ["run", "--trials", "1000000000000"],
    ["adaptivity", "--depth", "2", "--trials", "1000000000000"],
], ids=["run", "adaptivity"])
def test_a_trial_count_over_the_cap_is_refused(tmp_path, argv):
    if argv[0] == "run":
        argv = [*argv, "--config", write_json(tmp_path / "run.json", RUN_DOC)]
    with pytest.raises(CapacityError, match="run of 1000000000000 trial records exceeds the cap"):
        main(argv)


def test_sweep_writes_a_cell_with_too_many_trials(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = write_json(tmp_path / "sweep.json", {**RUN_DOC, "grid": {"trials": [2, 1e12]}})
    code, _ = run_cli(capsys, ["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    cells = list(csv.DictReader(out.read_text().splitlines()))
    assert [cell["trials"] for cell in cells] == ["2", "1000000000000.0"]
    assert (cells[0]["success_rate"], cells[0]["error"]) == ("1.0", "")
    assert cells[1]["success_rate"] == ""
    assert "run of 1000000000000 trial records exceeds the cap" in cells[1]["error"]
