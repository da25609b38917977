"""Command-line entry point.

Subcommands: exact, oracle, mc, gen, bench. All randomness flows through
an explicit --seed so every emitted number is reproducible. Exit codes:
0 success, 1 usage error, 2 data/validation error.
"""
from __future__ import annotations

import argparse
import os
import stat
import sys
from pathlib import Path

from .bench import gen_complete_weighted, gen_gnp, run_comparison
from .exact import read_scores, solve
from .games import Decay, DecayFn, GameSpec, load_node_params
from .graph import dump_edge_list, load_edge_list
from .montecarlo import mc_shapley
from .oracle import DEFAULT_NODE_LIMIT, brute_force_shapley


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: str | Path | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    # No O_TRUNC: on ext4 (auto_da_alloc) truncating a just-written file to zero
    # waits for a flush of its old data; overwrite in place, then cut the tail.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _parse_decay(token: str) -> Decay:
    if token == "inv-linear":
        return DecayFn.inv_linear()
    if token == "inv-quadratic":
        return DecayFn.inv_quadratic()
    if token == "exp":
        return DecayFn.exponential()
    if token.startswith("step:"):
        return DecayFn.step(float(token.split(":", 1)[1]))
    raise ValueError(
        f"unknown decay {token!r}; expected inv-linear, inv-quadratic, exp or step:<c>"
    )


def _node_map(scalar, path, integral: bool):
    if path is not None:
        return load_node_params(_read_text(path), integral=integral)
    return scalar


# the one game that reads each game-parameter option
_OPTION_GAME = dict(k="g2", k_file="g2", d_cutoff="g3", d_cutoff_file="g3", decay="g4",
                    w_cutoff="g5", w_cutoff_file="g5")


def _game_spec(args) -> GameSpec:
    game = args.game
    stray = [
        "--" + name.replace("_", "-")
        for name, owner in _OPTION_GAME.items()
        if owner != game and getattr(args, name) is not None
    ]
    if stray:
        raise ValueError(f"game {game} does not take {', '.join(stray)}")
    if game == "g1":
        return GameSpec.fringe()
    if game == "g2":
        k = _node_map(args.k, args.k_file, integral=True)
        if k is None:
            raise ValueError("game g2 requires --k or --k-file")
        return GameSpec.threshold(k)
    if game == "g3":
        c = _node_map(args.d_cutoff, args.d_cutoff_file, integral=False)
        if c is None:
            raise ValueError("game g3 requires --d-cutoff or --d-cutoff-file")
        return GameSpec.cutoff(c)
    if game == "g4":
        if args.decay is None:
            raise ValueError("game g4 requires --decay")
        return GameSpec.proximity(_parse_decay(args.decay))
    c = _node_map(args.w_cutoff, args.w_cutoff_file, integral=False)
    if c is None:
        raise ValueError("game g5 requires --w-cutoff or --w-cutoff-file")
    return GameSpec.weighted_threshold(c)


def _load_graph(args):
    return load_edge_list(
        _read_text(args.input), directed=args.directed, weighted=args.weighted
    )


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="edge-list path, or - for stdin")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--weighted", action="store_true")


def _add_game_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", required=True, choices=["g1", "g2", "g3", "g4", "g5"])
    p.add_argument("--k", type=int, help="uniform neighbor threshold (g2)")
    p.add_argument("--k-file", help="per-node 'node,value' CSV for k (g2)")
    p.add_argument("--d-cutoff", type=float, help="uniform distance cutoff (g3)")
    p.add_argument("--d-cutoff-file", help="per-node cutoff CSV (g3)")
    p.add_argument(
        "--decay", help="decay for g4: inv-linear, inv-quadratic, exp or step:<c>"
    )
    p.add_argument("--w-cutoff", type=float, help="uniform weight cutoff (g5)")
    p.add_argument("--w-cutoff-file", help="per-node weight cutoff CSV (g5)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--format", choices=["csv", "tsv"], default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapcent",
        description="Shapley-value network centrality: exact solvers, "
        "Gaussian approximation, Monte Carlo baseline and benchmarks.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("exact", help="closed-form solvers (g5 via Gaussian approx)")
    _add_graph_args(p)
    _add_game_args(p)
    _add_output_args(p)
    p.add_argument(
        "--bf-degree-limit",
        type=int,
        default=12,
        help="g5: neighbors at/below this degree are enumerated exactly",
    )

    p = sub.add_parser("oracle", help="brute-force enumeration (small graphs only)")
    _add_graph_args(p)
    _add_game_args(p)
    _add_output_args(p)
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)

    p = sub.add_parser("mc", help="Monte Carlo permutation sampling")
    _add_graph_args(p)
    _add_game_args(p)
    _add_output_args(p)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reference", help="scores CSV used for the convergence trace")
    p.add_argument("--trace-out", help="write the trace CSV here")
    p.add_argument("--error-stride", type=int, default=5)

    p = sub.add_parser("gen", help="seeded random graph generators")
    p.add_argument("kind", choices=["complete", "gnp"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=float, help="edge probability (gnp only)")
    p.add_argument("--weighted", action="store_true", help="complete is always weighted")
    p.add_argument("--directed", action="store_true", help="gnp only")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", help="output path (default stdout)")

    p = sub.add_parser("bench", help="exact-vs-Monte-Carlo comparison report")
    _add_graph_args(p)
    _add_game_args(p)
    p.add_argument("--thresholds", required=True, help="comma list, e.g. 0.10,0.05")
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", help="write report.csv/report.txt and per-run traces")
    p.add_argument("--scenario", default="comparison")
    p.add_argument("--threads", type=int, default=1, help="parallel MC workers")

    return parser


def _cmd_exact(args) -> int:
    g = _load_graph(args)
    spec = _game_spec(args)
    vec = solve(g, spec, brute_force_degree_limit=args.bf_degree_limit)
    _write_text(args.output, vec.to_csv(sep="\t" if args.format == "tsv" else ","))
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args)
    spec = _game_spec(args)
    vec = brute_force_shapley(g, spec, node_limit=args.node_limit)
    _write_text(args.output, vec.to_csv(sep="\t" if args.format == "tsv" else ","))
    return 0


def _cmd_mc(args) -> int:
    g = _load_graph(args)
    spec = _game_spec(args)
    reference = None
    if args.reference is not None:
        reference = read_scores(_read_text(args.reference), game=spec.game)
    vec, trace = mc_shapley(
        g,
        spec,
        max_iter=args.iters,
        seed=args.seed,
        reference=reference,
        error_stride=args.error_stride,
    )
    _write_text(args.output, vec.to_csv(sep="\t" if args.format == "tsv" else ","))
    if args.trace_out is not None:
        _write_text(args.trace_out, trace.to_csv())
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "complete":
        if args.p is not None or args.directed:
            raise ValueError("complete takes neither -p nor --directed: K_n joins every pair once")
        g = gen_complete_weighted(args.n, seed=args.seed)
    else:
        if args.p is None:
            raise ValueError("gnp requires -p")
        g = gen_gnp(
            args.n, args.p, seed=args.seed, weighted=args.weighted, directed=args.directed
        )
    _write_text(args.output, dump_edge_list(g))
    return 0


def _cmd_bench(args) -> int:
    g = _load_graph(args)
    spec = _game_spec(args)
    thresholds = [float(t) for t in args.thresholds.split(",") if t]
    report, traces = run_comparison(
        g,
        spec,
        thresholds=thresholds,
        runs=args.runs,
        max_iter=args.iters,
        base_seed=args.seed,
        scenario=args.scenario,
        workers=args.threads,
    )
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "report.csv", report.to_csv())
        _write_text(out / "report.txt", report.format_table())
        for r, trace in enumerate(traces):
            _write_text(out / f"trace_{r:03d}.csv", trace.to_csv())
    sys.stdout.write(report.format_table())
    return 0


_COMMANDS = {
    "exact": _cmd_exact,
    "oracle": _cmd_oracle,
    "mc": _cmd_mc,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.cmd](args)
    except (ValueError, OSError) as exc:
        print(f"shapcent: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
