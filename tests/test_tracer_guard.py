"""The benchmark's tracer must still find every name it rebinds.

``perfbench/tracing.py`` wraps package functions from outside the package by
rebinding them at the module attribute their callers look up, and it reads
each original with ``owner.__dict__[attr]``.  Deleting or renaming one of
those names breaks ``perfbench/run.py --trace 1``; this test notices first.
The tracer is only imported and used here, never changed.

Its hooks also read what the wrapped calls return: the transcript hook reads
``arms`` and ``rewards`` of every :class:`Transcript` a learner builds, through
the name ``learners.Transcript``, which it replaces with a plain function.  A
traced ``run`` of each learner that builds one transcript per trial checks
that this still works; tree descent and the non-adaptive baseline run their
trials as arrays and build none.
"""

import csv
import importlib
import json
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

    argv = ["adaptivity", "--depth", "2", "--trials", "3", "--seed", "0"]
    originals = [
        (owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing._patches(tracing.Tracer())
    ]
    assert main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert main(argv) == 0
    assert capsys.readouterr().out == untraced
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    # one coverage LP per adaptivity run
    assert tracer.counts["games.solve.calls"] == 1


#: learner -> (noise, params) of a small traced run on the depth-2 tree class
TRACED_RUNS = {
    "empirical-mean": ({"kind": "bernoulli"}, {"alpha": 0.2, "delta": 0.1}),
    "median-of-means": ({"kind": "heavy-tail", "sigma": 0.3},
                        {"alpha": 0.2, "delta": 0.1, "sigma": 0.3}),
    "e2d": ({"kind": "bernoulli"}, {"alpha": 0.2, "delta": 0.2, "horizon": 400}),
}


@pytest.mark.parametrize("learner", TRACED_RUNS)
def test_traced_run_counts_every_transcript(tracing, capsys, tmp_path, learner):
    from maximin_bandits.cli import main

    noise, params = TRACED_RUNS[learner]
    trials = 3
    out = tmp_path / "records.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "class": {"constructor": "tree", "depth": 2, "bucket_size": 1},
        "noise": noise, "learner": learner, "params": params,
        "trials": trials, "seed": 0, "out": str(out),
    }))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    with out.open() as fh:
        queries = [int(row["queries"]) for row in csv.DictReader(fh)]
    assert len(queries) == trials
    assert tracer.counts["core.transcript.calls"] == trials
    # one int64 arm and one float64 reward per query
    assert tracer.counts["core.transcript.bytes"] == 16 * sum(queries)
