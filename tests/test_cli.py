import json

import numpy as np
import pytest

from maximin_bandits.cli import main


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
    expected = dec_sup(fclass, 0.5, 0.3, anchors=vertices, resolution=0.1).to_json()
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
