"""Each experiment script runs end to end on small arguments."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gamma_gallery(tmp_path, capsys):
    out = tmp_path / "gallery.csv"
    assert load("gamma_gallery").main(["--out", str(out)]) == 0
    # 19 k-armed, singleton and tree classes at 4 alphas, plus the nets of at
    # most 300 functions: dimensions 1 and 2 at every alpha, dimension 3 at 0.5
    assert len(rows(out)) == 19 * 4 + 2 * 4 + 1
    assert "wrote 85 rows" in capsys.readouterr().out


def test_adaptivity_curves(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert load("adaptivity_curves").main(
        ["--depths", "2", "3", "--trials", "20", "--seed", "1", "--out", str(out)]
    ) == 0
    assert [row["depth"] for row in rows(out)] == ["2", "3"]


def test_bucket_tradeoff(tmp_path, capsys):
    tradeoff = load("bucket_tradeoff")
    out = tmp_path / "tradeoff.csv"
    assert tradeoff.main(["--trials", "5", "--seed", "1", "--out", str(out)]) == 0
    table = rows(out)
    assert len(table) == len(tradeoff.CELLS)
    # every cell holds 2^depth * bucket_size at 16 leaf arms, so gamma is 1/16
    assert all(float(row["gamma"]) == pytest.approx(1 / 16) for row in table)
