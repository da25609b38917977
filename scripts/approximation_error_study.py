#!/usr/bin/env python3
"""Error of the Gaussian weighted-threshold solver against brute force.

For seeded complete weighted graphs of a few sizes, and a range of
per-node cutoffs expressed as fractions of each node's incident-weight
sum, reports the mean and worst max-relative error of the analytic
approximation over many seeds. Small sizes keep the brute-force
reference tractable (2^(n-1) coalitions per node).
"""
from __future__ import annotations

import argparse

from shapcent import (
    brute_force_shapley,
    gen_complete_weighted,
    max_relative_error,
    shapley_g5,
)
from shapcent.games import GameSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="6,12", help="comma list of clique sizes")
    ap.add_argument("--fractions", default="0.25,0.5,0.75")
    ap.add_argument("--seeds", type=int, default=30, help="graphs per cell")
    ap.add_argument("--base-seed", type=int, default=5000)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",") if s]
    fractions = [float(f) for f in args.fractions.split(",") if f]

    print("size,cutoff_fraction,mean_max_rel_error,worst_max_rel_error")
    for n in sizes:
        for frac in fractions:
            errs = []
            for r in range(args.seeds):
                g = gen_complete_weighted(n, seed=args.base_seed + 100 * n + r)
                alpha = {v: sum(w for _, w in g.in_neighbors(v)) for v in range(n)}
                cutoff = {v: frac * alpha[v] for v in range(n)}
                approx = shapley_g5(g, cutoff, brute_force_degree_limit=2)
                ref = brute_force_shapley(g, GameSpec.weighted_threshold(cutoff))
                errs.append(max_relative_error(ref, approx))
            print(f"{n},{frac:g},{sum(errs) / len(errs):.4f},{max(errs):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
