"""Compare adaptive tree descent against a non-adaptive uniform baseline.

For each tree depth the non-adaptive arm budget is capped at one tenth of
the inverse coverage value, which is too small for uniform sampling to
find the planted leaf; descent succeeds with a query count that grows
linearly in depth. One CSV row per depth.

Usage:
    python3 scripts/adaptivity_curves.py --trials 500 --seed 7 --out curves.csv
"""

import argparse
import sys

from maximin_bandits.harness import adaptivity_experiment, csv_text

COLUMNS = (
    "depth",
    "gamma",
    "non_adaptive_budget",
    "trials",
    "adaptive_success",
    "adaptive_mean_queries",
    "non_adaptive_failure",
    "slack",
    "separation_holds",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depths", type=int, nargs="+", default=[3, 4, 5, 6, 7, 8])
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="adaptivity_curves.csv")
    args = parser.parse_args(argv)

    table = []
    for depth in args.depths:
        report = adaptivity_experiment(depth, args.trials, args.seed)
        table.append(
            {
                "depth": depth,
                "gamma": repr(report.gamma_value),
                "non_adaptive_budget": report.non_adaptive_budget,
                "trials": args.trials,
                "adaptive_success": repr(report.adaptive_success_rate),
                "adaptive_mean_queries": repr(report.adaptive_mean_queries),
                "non_adaptive_failure": repr(report.non_adaptive_failure_rate),
                "slack": repr(report.slack),
                "separation_holds": str(report.separation_holds).lower(),
            }
        )
        print(
            f"d={depth}: adaptive {report.adaptive_success_rate:.3f} success "
            f"({report.adaptive_mean_queries:.0f} queries), "
            f"non-adaptive failure {report.non_adaptive_failure_rate:.3f} "
            f"at budget {report.non_adaptive_budget}"
        )
    with open(args.out, "w", newline="") as fh:
        fh.write(csv_text(COLUMNS, table))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
