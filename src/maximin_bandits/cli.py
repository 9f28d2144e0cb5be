"""Command-line interface.

Subcommands mirror the library surface: ``gamma`` and ``dec`` solve the two
game values for a function class given as JSON, ``run``/``sweep`` execute
seeded Monte Carlo experiments, ``certify`` and ``adaptivity`` reproduce the
lower-bound constructions, and ``discretize`` builds the histogram
approximation of a Gaussian reward density.

All emitted JSON carries ``"meta": {"log_base": "natural"}``: every sample
count and confidence bound in this package uses natural logarithms.  It is
strict JSON: a document holding NaN or an infinity is refused, not printed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .core import check_keys, config_number, config_value, to_json
from .dec import default_anchor_candidates, dec_at, dec_sup
from .environments import make_gaussian_histogram, tv_distance, GaussianDensity
from .games import gamma
from .harness import (
    EXPERIMENT_KEYS,
    ExperimentConfig,
    adaptivity_experiment,
    build_function_class,
    certify_lower_bound,
    csv_text,
    fixed_arm_prober,
    monte_carlo,
    sweep,
    tree_descent_prober,
    witness_prober,
)

META = {"log_base": "natural"}

# The fields each document-reading subcommand takes from ``--config`` or a
# flag of the same name: name -> (type, default).  A tuple type lists a
# string field's choices; a None default leaves the field to the document.
# These tables are the only source of those subcommands' flags.  A document
# key outside its table and the subcommand's other document keys (below) is
# an error.
RUN_FIELDS = {"seed": (int, None), "trials": (int, None), "out": (str, None),
              "format": (("csv", "json"), None)}
SWEEP_FIELDS = {"seed": (int, None), "out": (str, None)}
CERTIFY_FIELDS = {"depth": (int, None), "alpha": (float, 0.2), "delta": (float, 0.1),
                  "trials": (int, 10000), "seed": (int, 0), "out": (str, None)}
ADAPTIVITY_FIELDS = {"depth": (int, 5), "trials": (int, 2000), "seed": (int, 0),
                     "alpha": (float, 0.2), "delta": (float, 0.1), "out": (str, None)}
DISCRETIZE_FIELDS = {"mu": (float, 0.0), "sigma": (float, 1.0), "eps": (float, 0.1),
                     "step": (float, 1e-3), "out": (str, None)}


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(doc: dict, out_path: str | None) -> None:
    doc = dict(doc)
    doc["meta"] = META
    payload = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_gamma(args) -> int:
    fclass, _ = build_function_class(_load_json(args.config))
    cert = gamma(fclass, args.alpha)
    _emit({"certificate": to_json(cert)}, args.out)
    return 0


def _cmd_dec(args) -> int:
    if math.isinf(args.eps):
        raise ValueError(
            f"eps must be finite, got {args.eps}; any eps >= 1 selects the full class")
    fclass, _ = build_function_class(_load_json(args.config))
    if args.anchors in ("vertices", "vertices+midpoints"):
        if args.sup:
            anchors = default_anchor_candidates(fclass, include_midpoints=args.anchors != "vertices")
        else:  # dec_at reads only the first anchor: build vertex 0 alone
            anchors = [np.eye(1, fclass.n_functions)[0]]
    else:
        doc = _load_json(args.anchors)
        if isinstance(doc, dict):
            check_keys(doc, ("anchors",), "anchors key")
            if "anchors" not in doc:
                raise ValueError("anchors is required")
            doc = doc["anchors"]
        anchors = config_value(doc, list, "anchors")
    if not anchors:
        raise ValueError("need at least one anchor candidate")
    if args.sup:
        result = dec_sup(fclass, args.eps, args.alpha, anchors=anchors,
                         resolution=args.resolution)
    else:
        result = dec_at(fclass, anchors[0], args.eps, args.alpha,
                        resolution=args.resolution)
    _emit({"dec": to_json(result)}, args.out)
    return 0


def _cmd_run(args) -> int:
    # a run writes no grid, and writes its records in ``format`` only to ``out``
    doc = _merged(args, RUN_FIELDS, [key for key in EXPERIMENT_KEYS if key != "grid"])
    if "format" in doc and not doc.get("out"):
        raise ValueError(f"run writes format {doc['format']!r} only with an out path")
    result = monte_carlo(ExperimentConfig.from_json(doc))
    _emit({**to_json(result), "trials": len(result.records), "out": doc.get("out")}, None)
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json(_merged(args, SWEEP_FIELDS, EXPERIMENT_KEYS))
    result = sweep(config)
    if not config.out_path:
        sys.stdout.write(csv_text(result.columns, result.cells))
    return 0


def _merged(args, fields: dict, other_keys=()) -> dict:
    """Defaults, then the ``--config`` document, then explicitly passed flags;
    every numeric field is converted with ``config_number``.  A document key
    that is neither a field nor one of ``other_keys`` raises ValueError."""
    doc = {name: default for name, (_, default) in fields.items() if default is not None}
    if args.config:
        loaded = config_value(_load_json(args.config), dict, f"{args.command} document")
        check_keys(loaded, dict.fromkeys([*fields, *other_keys]), f"{args.command} document key")
        doc.update(loaded)
    for name, (kind, _) in fields.items():
        value = getattr(args, name)
        if value is not None:
            doc[name] = value
        if kind in (int, float) and name in doc:
            doc[name] = config_number(doc[name], kind, name)
    return doc


#: The key each certify prober kind reads besides ``kind``.
_PROBER_KEYS = {"tree-descent": "reps", "fixed-arm": "arm", "witness": "alpha"}


def _build_prober(fclass, meta, spec: dict):
    kind = config_value(spec, dict, "prober").get("kind", "tree-descent")
    if kind not in _PROBER_KEYS:
        raise ValueError(f"unknown prober kind {kind!r}")
    check_keys(spec, ("kind", _PROBER_KEYS[kind]), "prober key", "prober.")
    if kind == "tree-descent":
        if meta is None:
            raise ValueError("tree-descent prober requires a tree class")
        return tree_descent_prober(meta, config_number(spec.get("reps", 1), int, "prober.reps"))
    if kind == "fixed-arm":
        return fixed_arm_prober(config_number(spec.get("arm", 0), int, "prober.arm"))
    cert = gamma(fclass, config_number(spec.get("alpha"), float, "prober.alpha"))
    return witness_prober(cert.p_star)


def _cmd_certify(args) -> int:
    doc = _merged(args, CERTIFY_FIELDS, ("class", "prober"))
    if "depth" in doc and "class" in doc:
        raise ValueError("certify takes depth (a bucket-1 tree) or class, not both")
    spec = doc.get("class", {"constructor": "tree", "depth": doc.get("depth", 1), "bucket_size": 1})
    fclass, meta = build_function_class(spec)
    prober = _build_prober(fclass, meta, doc.get("prober", {}))
    report = certify_lower_bound(
        fclass, prober, doc["alpha"], doc["delta"], trials=doc["trials"], seed=doc["seed"],
    )
    _emit({"certify": to_json(report)}, doc.get("out"))
    return 0


def _cmd_adaptivity(args) -> int:
    doc = _merged(args, ADAPTIVITY_FIELDS)
    report = adaptivity_experiment(
        doc["depth"], trials=doc["trials"], seed=doc["seed"],
        alpha=doc["alpha"], delta=doc["delta"],
    )
    _emit({"adaptivity": to_json(report)}, doc.get("out"))
    return 0


def _cmd_discretize(args) -> int:
    doc = _merged(args, DISCRETIZE_FIELDS)
    mu, sigma, eps = doc["mu"], doc["sigma"], doc["eps"]
    hist = make_gaussian_histogram(mu, sigma, eps)
    # a wider step would skip buckets, so the quadrature would miss their error
    width = float(np.diff(hist.breakpoints[1:-1]).min())
    if not doc["step"] <= width:
        raise ValueError(
            f"step {doc['step']:g} is wider than the narrowest histogram bucket ({width:.4g})")
    tv = tv_distance(hist, GaussianDensity(mu, sigma), step=doc["step"])
    _emit(
        {
            "histogram": to_json(hist),
            "buckets": len(hist.masses),
            "tv_distance": tv,
            "tv_within_eps": bool(tv <= eps),
            "eps": eps,
        },
        doc.get("out"),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maximin-bandits",
        description="Coverage games, bandit learners, and lower-bound experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="solve the maximin coverage game for a class")
    p.add_argument("--config", required=True, help="function class JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("dec", help="decision-estimation value at an anchor or its sup")
    p.add_argument("--config", required=True, help="function class JSON")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--resolution", type=float, default=0.1)
    p.add_argument(
        "--anchors",
        default="vertices+midpoints",
        help="'vertices', 'vertices+midpoints', or a JSON file of anchor rows",
    )
    p.add_argument("--sup", action="store_true",
                   help="maximize over anchors instead of using the first one")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dec)

    for name, help_text, func, fields, config in (
        ("run", "run a Monte Carlo experiment config", _cmd_run, RUN_FIELDS, {"required": True}),
        ("sweep", "cartesian parameter sweep", _cmd_sweep, SWEEP_FIELDS, {"required": True}),
        ("certify", "coin-flip lower-bound certification", _cmd_certify, CERTIFY_FIELDS,
         {"help": "JSON with class or depth, prober, alpha, delta, trials, seed, out"}),
        ("adaptivity", "adaptive vs non-adaptive separation", _cmd_adaptivity,
         ADAPTIVITY_FIELDS, {}),
        ("discretize", "histogram approximation of a Gaussian", _cmd_discretize,
         DISCRETIZE_FIELDS, {}),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", **config)
        for field, (kind, _) in fields.items():
            if isinstance(kind, tuple):
                p.add_argument(f"--{field}", choices=kind)
            else:
                p.add_argument(f"--{field}", type=kind)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
