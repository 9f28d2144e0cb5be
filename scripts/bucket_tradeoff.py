"""Trace the query-count tradeoff between tree depth and bucket width.

Holds the product (number of leaf buckets) x (bucket size) at 16 so the
coverage value stays 1/16 in every cell, then shrinks depth while growing
buckets: descent pays roughly log(1/gamma) queries for the walk plus a
linear-in-bucket-size scan at the bottom, so total queries climb with the
bucket count even though gamma never moves. One CSV row per (depth,
bucket_size) cell.

Usage:
    python3 scripts/bucket_tradeoff.py --trials 200 --seed 11 --out tradeoff.csv
"""

import argparse
import sys

from maximin_bandits.core import NoiseSpec, trial_seed
from maximin_bandits.harness import ExperimentConfig, csv_text, monte_carlo
from maximin_bandits.learners import LearnerParams

# 2^depth * bucket_size == 16 in every cell
CELLS = ((4, 1), (3, 2), (2, 4), (1, 8))

COLUMNS = (
    "depth",
    "bucket_size",
    "leaf_arms",
    "gamma",
    "trials",
    "success_rate",
    "mean_queries",
    "half_width_99",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--alpha", type=float, default=0.2)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--out", default="bucket_tradeoff.csv")
    args = parser.parse_args(argv)

    table = []
    for idx, (depth, buckets) in enumerate(CELLS):
        class_spec = {
            "constructor": "tree",
            "depth": depth,
            "bucket_size": buckets,
        }
        config = ExperimentConfig(
            class_spec=class_spec,
            noise=NoiseSpec("bernoulli"),
            learner="tree-descent",
            params=LearnerParams(alpha=args.alpha, delta=args.delta),
            trials=args.trials,
            seed=trial_seed(args.seed, idx),
            experiment_id=f"bucket-tradeoff-d{depth}-N{buckets}",
        )
        result = monte_carlo(config)
        table.append(
            {
                "depth": depth,
                "bucket_size": buckets,
                "leaf_arms": (2**depth) * buckets,
                "gamma": repr(result.gamma_value),
                "trials": args.trials,
                "success_rate": repr(result.success_rate),
                "mean_queries": repr(result.mean_queries),
                "half_width_99": repr(result.half_width99),
            }
        )
        print(
            f"d={depth} N={buckets}: success {result.success_rate:.3f}, "
            f"mean queries {result.mean_queries:.0f}"
        )
    with open(args.out, "w", newline="") as fh:
        fh.write(csv_text(COLUMNS, table))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
