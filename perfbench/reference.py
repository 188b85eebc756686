#!/usr/bin/env python3
"""Reference figures for the `solve` model (not a workload).

    python3 perfbench/reference.py [--seed N] [--reps R]

Builds the `solve` workload's model and times `solve_map` at workers=1 and
workers=2, and `solve_map_lazy`, alternating the three R times. Prints the
median wall time, iterations and the energy of each.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import time

from run import SOLVE_USERS, Solve, sl


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()

    workload = Solve(args.seed)
    workload.setup()
    variants = {
        "workers=1": lambda: sl.solve_map(workload.mrf, workload.opts),
        "workers=2": lambda: sl.solve_map(workload.mrf, dataclasses.replace(workload.opts, workers=2)),
        "lazy": lambda: sl.solve_map_lazy(workload.mrf, workload.opts),
    }
    results = {name: [] for name in variants}
    for _ in range(args.reps):
        for name, solve in variants.items():
            start = time.perf_counter()
            _, diag = solve()
            results[name].append((time.perf_counter() - start, diag))
    print("solve model: %d users, seed %d, %d potentials" % (SOLVE_USERS, args.seed, len(workload.mrf.potentials)))
    for name, runs in results.items():
        diag = runs[-1][1]
        extra = ""
        if diag.activated_potentials is not None:
            extra = ", %d potentials activated" % diag.activated_potentials
        print(
            "%-10s median %.3f s over %d (%s), %d iterations, energy %.9g%s"
            % (name, statistics.median(t for t, _ in runs), len(runs),
               " ".join("%.3f" % t for t, _ in runs), diag.iterations, diag.energy, extra)
        )


if __name__ == "__main__":
    main()
