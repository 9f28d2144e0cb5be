"""The benchmark's workloads: generated inputs, op lists and output checks.

An op is one ``maximin-bandits`` subcommand call.  Each workload writes its
configs from the workload seed and returns its ops in a fixed order; each op
carries a check that reads what the call printed or wrote and reports every
way the output falls short.  Checks hold on any seed: certificates are
re-verified, success rates must clear their guarantee minus three binomial
standard deviations.  Digests of the output bytes are compared separately,
on the default seed only (see ``run.py``).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from maximin_bandits.games import GammaCertificate, verify_certificate
from maximin_bandits.harness import build_function_class

DEFAULT_SEED = 0
SCALES = ("full", "tiny")

#: Density of the random 0/1 classes of gamma-lp.
RANDOM_DENSITY = 0.3


@dataclass
class Outcome:
    """What an op's check found: problems plus work counts read from output."""

    problems: list = field(default_factory=list)
    trials: int = 0
    queries: int = 0
    #: trials carrying an ``error`` tag, when the output is JSON records
    tagged: int = 0
    tagged_base: int = 0


@dataclass
class Op:
    name: str
    argv: list
    check: Callable[[str], Outcome]
    #: file whose bytes are digested; None digests the captured stdout
    out: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def floor3(guarantee: float, n: int) -> float:
    """Guarantee minus three binomial standard deviations at n trials."""
    return guarantee - 3.0 * math.sqrt(guarantee * (1.0 - guarantee) / n)


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, 0]).integers(0, 2**31, size=n)]


def _rate_problem(what: str, rate: float, guarantee: float, n: int) -> list:
    floor = floor3(guarantee, n)
    if rate >= floor:
        return []
    return [f"{what}: success rate {rate:.4f} below {guarantee} - 3 sigma = {floor:.4f} at n={n}"]


def _check_run(out: str, fmt: str, guarantee: float) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        result = Outcome()
        if fmt == "csv":
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            success = [row["success"] == "true" for row in rows]
            result.queries = sum(int(row["queries"]) for row in rows)
        else:
            with open(out) as fh:
                rows = json.load(fh)
            success = [bool(row["success"]) for row in rows]
            result.queries = sum(int(row["queries"]) for row in rows)
            result.tagged = sum(1 for row in rows if row.get("error"))
            result.tagged_base = len(rows)
        result.trials = len(rows)
        if not rows:
            result.problems.append("no trial records written")
            return result
        summary = json.loads(stdout)
        if summary["trials"] != len(rows):
            result.problems.append("printed trial count disagrees with the records")
        result.problems += _rate_problem("run", sum(success) / len(rows), guarantee, len(rows))
        return result

    return check


def _check_sweep(out: str, guarantee: float, cells: int) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        result = Outcome()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != cells:
            result.problems.append(f"sweep wrote {len(rows)} cells, expected {cells}")
        for row in rows:
            if row["error"]:
                result.problems.append(f"{row['experiment_id']}: {row['error']}")
                continue
            n = int(row["trials"])
            result.trials += n
            result.queries += round(float(row["mean_queries"]) * n)
            result.problems += _rate_problem(row["experiment_id"], float(row["success_rate"]),
                                             guarantee, n)
        return result

    return check


def _check_gamma(spec: dict, alpha: float) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        result = Outcome()
        cert = GammaCertificate.from_json(json.loads(stdout)["certificate"])
        fclass, _ = build_function_class(spec)
        if not verify_certificate(fclass, alpha, cert):
            result.problems.append("certificate fails verify_certificate")
        if not 0.0 < cert.value <= 1.0:
            result.problems.append(f"game value {cert.value} outside (0, 1]")
        return result

    return check


def _check_dec(stdout: str) -> Outcome:
    result = Outcome()
    doc = json.loads(stdout)["dec"]
    if not 0.0 <= doc["value"] <= 1.0:
        result.problems.append(f"dec value {doc['value']} outside [0, 1]")
    if doc["bound_direction"] != "lower-bound-of-sup":
        result.problems.append(f"unexpected bound direction {doc['bound_direction']}")
    return result


def _check_certify(stdout: str) -> Outcome:
    result = Outcome()
    doc = json.loads(stdout)["certify"]
    if not doc["certified"]:
        result.problems.append(
            f"not certified: min coverage {doc['min_coverage']} < {doc['bound']} - {doc['slack']}"
        )
    return result


def _check_adaptivity(guarantee: float) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        result = Outcome()
        doc = json.loads(stdout)["adaptivity"]
        if not doc["separation_holds"]:
            result.problems.append(
                f"separation fails: non-adaptive failure rate {doc['non_adaptive_failure_rate']}"
            )
        result.problems += _rate_problem("adaptive", doc["adaptive_success_rate"], guarantee,
                                         doc["trials"])
        return result

    return check


def _tree(depth: int, bucket: int = 1) -> dict:
    return {"constructor": "tree", "depth": depth, "bucket_size": bucket}


def _run_op(workdir: str, name: str, doc: dict, fmt: str) -> Op:
    out = os.path.join(workdir, f"{name}.{fmt}")
    path = _write(workdir, f"{name}-config.json", doc)
    guarantee = 1.0 - doc["params"]["delta"]
    return Op(name, ["run", "--config", path, "--out", out, "--format", fmt],
              _check_run(out, fmt, guarantee), out=out)


def coverage_mc(seed: int, tiny: bool, workdir: str) -> list:
    """Empirical-mean on tree d6 (Bernoulli), median-of-means on tree d4
    (heavy-tail, sigma 0.3), and a median-of-means sweep over alpha x noise
    kind; trial records written as CSV."""
    s = _seeds(seed, 3)
    em = {
        "experiment_id": "em-tree", "class": _tree(2 if tiny else 6),
        "noise": {"kind": "bernoulli"}, "learner": "empirical-mean",
        "params": {"alpha": 0.2, "delta": 0.1}, "trials": 5 if tiny else 50, "seed": s[0],
    }
    mom = {
        "experiment_id": "mom-tree", "class": _tree(2 if tiny else 4),
        "noise": {"kind": "heavy-tail", "sigma": 0.3}, "learner": "median-of-means",
        "params": {"alpha": 0.2, "delta": 0.1, "sigma": 0.3}, "trials": 5 if tiny else 100,
        "seed": s[1],
    }
    grid = {"params.alpha": [0.2, 0.3], "noise.kind": ["gaussian", "heavy-tail"]}
    sweep = {
        "experiment_id": "mom-sweep", "class": _tree(2 if tiny else 4),
        "noise": {"kind": "gaussian", "sigma": 0.3}, "learner": "median-of-means",
        "params": {"alpha": 0.2, "delta": 0.1, "sigma": 0.3}, "trials": 2 if tiny else 40,
        "seed": s[2], "grid": grid,
    }
    sweep_out = os.path.join(workdir, "sweep-mom.csv")
    sweep_path = _write(workdir, "sweep-mom-config.json", sweep)
    return [
        _run_op(workdir, "run-em-tree", em, "csv"),
        _run_op(workdir, "run-mom-tree", mom, "csv"),
        Op("sweep-mom", ["sweep", "--config", sweep_path, "--out", sweep_out],
           _check_sweep(sweep_out, 0.9, 4), out=sweep_out),
    ]


def gamma_lp(seed: int, tiny: bool, workdir: str) -> list:
    """Coverage-game solves on tree, linear-net and random 0/1 classes, plus
    one ``dec --sup``.  The random classes are drawn once from the seed, so
    every pass solves the same instances."""
    sizes = (10, 20) if tiny else (100, 200)
    classes = [
        ("gamma-tree", _tree(4 if tiny else 8), 0.1),
        ("gamma-tree-bucket2", _tree(2 if tiny else 6, 2), 0.1),
        ("gamma-linear-net", {"constructor": "linear-net", "dimension": 2 if tiny else 3,
                              "alpha": 0.5}, 0.25),
    ]
    for label, n in zip(("small", "large"), sizes):
        rng = np.random.default_rng([seed, n])
        means = (rng.random((n, n)) < RANDOM_DENSITY).astype(float)
        classes.append((f"gamma-random-{label}", {"means": means.tolist()}, 0.5))
    # Known solver defect: raises ValueError in the ratio test's tie set.
    # Kept so that a fix shows as one failed op fewer.
    classes.append(("gamma-net-545", {"constructor": "linear-net", "dimension": 3,
                                      "alpha": 0.3}, 0.3))
    ops = []
    for name, spec, alpha in classes:
        path = _write(workdir, f"{name}.json", spec)
        ops.append(Op(name, ["gamma", "--config", path, "--alpha", repr(alpha)],
                      _check_gamma(spec, alpha)))
    path = _write(workdir, "dec-tree-d2.json", _tree(2))
    ops.append(Op("dec-sup-tree",
                  ["dec", "--config", path, "--eps", "0.5", "--alpha", "0.3", "--sup"],
                  _check_dec))
    return ops


def adaptive_mc(seed: int, tiny: bool, workdir: str) -> list:
    """e2d on tree d2 and tree descent on tree d8 (JSON records), coin-flip
    certification on tree d1 and the adaptivity experiment on tree d5."""
    s = _seeds(seed, 4)
    e2d = {
        "experiment_id": "e2d-tree", "class": _tree(2), "noise": {"kind": "bernoulli"},
        "learner": "e2d", "params": {"alpha": 0.2, "delta": 0.2, "horizon": 400 if tiny else 4000},
        "trials": 2 if tiny else 16, "seed": s[0],
    }
    descent = {
        "experiment_id": "descent-tree", "class": _tree(3 if tiny else 8),
        "noise": {"kind": "bernoulli"}, "learner": "tree-descent",
        "params": {"alpha": 0.2, "delta": 0.1}, "trials": 10 if tiny else 200, "seed": s[1],
    }
    depth, trials = (3, 50) if tiny else (5, 1000)
    return [
        _run_op(workdir, "run-e2d-tree", e2d, "json"),
        _run_op(workdir, "run-descent-tree", descent, "json"),
        Op("certify-tree", ["certify", "--depth", "1", "--trials", "200" if tiny else "10000",
                            "--seed", str(s[2])], _check_certify),
        Op("adaptivity-tree", ["adaptivity", "--depth", str(depth), "--trials", str(trials),
                               "--seed", str(s[3])], _check_adaptivity(0.9)),
    ]


WORKLOADS = {
    "coverage-mc": coverage_mc,
    "gamma-lp": gamma_lp,
    "adaptive-mc": adaptive_mc,
}
