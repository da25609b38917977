#!/usr/bin/env python3
"""Exact-solver vs Monte-Carlo time-to-error study on random sparse graphs.

Generates a seeded G(n, p) graph with a chosen average degree, then times
the closed-form solver against repeated sampling runs for the fringe and
threshold games. Emits the human-readable table and, optionally, the
plot-ready CSV report plus per-run traces.
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from shapcent import gen_gnp, run_comparison
from shapcent.games import GameSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, default=1000, help="node count")
    ap.add_argument("--avg-degree", type=float, default=5.0)
    ap.add_argument("--runs", type=int, default=30)
    ap.add_argument("--iters", type=int, default=40_000, help="sampling cap per run")
    ap.add_argument("--thresholds", default="0.25,0.10,0.05")
    ap.add_argument("--seed", type=int, default=424242)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", help="write report.csv and traces here")
    args = ap.parse_args()

    g = gen_gnp(args.n, args.avg_degree / (args.n - 1), seed=args.seed)
    deg = np.diff(g.in_arcs.ptr).tolist()  # in-degrees
    thresholds = [float(t) for t in args.thresholds.split(",") if t]
    scenarios = [
        ("fringe", GameSpec.fringe()),
        ("threshold", GameSpec.threshold({v: max(1, deg[v] // 2) for v in range(args.n)})),
    ]
    for label, spec in scenarios:
        report, traces = run_comparison(
            g,
            spec,
            thresholds=thresholds,
            runs=args.runs,
            max_iter=args.iters,
            base_seed=args.seed + 1,
            scenario=f"speedup-{label}-n{args.n}",
            workers=args.threads,
        )
        print(report.format_table())
        if args.out_dir:
            out = Path(args.out_dir) / label
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.csv").write_text(report.to_csv())
            for r, trace in enumerate(traces):
                (out / f"trace_{r:03d}.csv").write_text(trace.to_csv())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
