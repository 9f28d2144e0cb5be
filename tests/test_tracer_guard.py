"""The benchmark's tracer must still find every name it rebinds.

``perfbench/tracing.py`` wraps package functions from outside the package by
rebinding them at the module attribute their callers look up, and it reads
each original with ``owner.__dict__[attr]``.  Deleting or renaming one of
those names breaks ``perfbench/run.py --trace 1``; this test notices first.
The tracer is only imported and used here, never changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("perfbench.tracing")


def test_every_traced_name_exists(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing._patches(tracing.Tracer())
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_adaptivity_run_enters_and_exits_cleanly(tracing, capsys):
    from maximin_bandits.cli import main

    originals = [
        (owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing._patches(tracing.Tracer())
    ]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert main(["adaptivity", "--depth", "2", "--trials", "3", "--seed", "0"]) == 0
    capsys.readouterr()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    # one coverage LP per adaptivity run, one learner call per trial and arm
    assert tracer.counts["games.solve.calls"] == 1
    assert tracer.counts["learners.tree-descent.calls"] == 3
    assert tracer.counts["learners.non-adaptive-uniform.calls"] == 3
