"""Tabulate the maximin coverage value across the built-in class constructors.

Walks k-armed, singleton, tree, and linear-net classes over a range of
alpha values, solves each game exactly, and writes one CSV row per
(class, alpha) cell with the game value and the support of the optimal
arm distribution.

Usage:
    python3 scripts/gamma_gallery.py --out gallery.csv
"""

import argparse
import sys
import time

from maximin_bandits.core import CapacityError
from maximin_bandits.environments import (
    make_k_armed,
    make_linear_net_class,
    make_singletons,
    make_tree_class,
)
from maximin_bandits.games import gamma
from maximin_bandits.harness import csv_text

ALPHAS = (0.1, 0.2, 0.3, 0.5)

# skip net cells whose LP would dominate the whole gallery
MAX_NET_FUNCTIONS = 300

COLUMNS = (
    "class",
    "n_functions",
    "n_arms",
    "alpha",
    "gamma",
    "uniform_rate",
    "support_size",
    "solve_ms",
)


def gallery_classes():
    for k in (2, 3, 5, 10):
        yield f"k-armed-{k}", make_k_armed(k)
    for n in (2, 4, 8):
        yield f"singletons-{n}", make_singletons(n)
    for depth in (1, 2, 3, 4):
        for buckets in (1, 2, 4):
            fc, _ = make_tree_class(depth, buckets)
            yield f"tree-d{depth}-N{buckets}", fc
    # net size depends on alpha, so nets are built per cell below
    yield "linear-net", None


def rows():
    for name, fc in gallery_classes():
        for alpha in ALPHAS:
            if name == "linear-net":
                for dim in (1, 2, 3):
                    try:
                        net = make_linear_net_class(dim, alpha)
                    except CapacityError:
                        continue
                    if net.n_functions > MAX_NET_FUNCTIONS:
                        continue
                    yield from solve_row(f"linear-net-d{dim}", net, alpha)
            else:
                yield from solve_row(name, fc, alpha)


def solve_row(name, fc, alpha):
    start = time.perf_counter()
    cert = gamma(fc, alpha)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    support = int((cert.p_star.probs > 1e-12).sum())
    yield {
        "class": name,
        "n_functions": fc.n_functions,
        "n_arms": fc.n_arms,
        "alpha": alpha,
        "gamma": repr(cert.value),
        "uniform_rate": repr(1.0 / fc.n_functions),
        "support_size": support,
        "solve_ms": f"{elapsed_ms:.2f}",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="gamma_gallery.csv", help="output CSV path")
    args = parser.parse_args(argv)

    table = list(rows())
    with open(args.out, "w", newline="") as fh:
        fh.write(csv_text(COLUMNS, table))
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
