"""One benchmark set-up in a fresh interpreter: import fairprice, build the
workload's markets and solve the fair optimum of each episode market once,
as ``fairprice run`` does before its cells.  Prints the optima as JSON.

run.py times this script's whole process several times and reports the
median as ``setup_s``; it is not meant to be run by hand.
"""

import argparse
import json

import program

fairprice = program.load()

import workloads  # noqa: E402  (needs the package path set up first)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    args = parser.parse_args()
    work = workloads.build(args.workload, args.seed, args.size)
    optima = [fairprice.solve_fair_optimal(m).revenue for m in work.setup_markets]
    print(json.dumps(optima))


if __name__ == "__main__":
    main()
