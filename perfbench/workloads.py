"""The four workloads: their inputs, their jobs and each job's check.

A job is one or more `shapcent` command lines. After every execution
the job reads its outputs back into a digest; when the run ends,
`judge` turns the digests into one verdict per execution (None when
correct, otherwise the problem).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from inputs import GraphInput, random_graph

# Relative efficiency gap |sum(phi) - nu(V)| / nu(V) allowed for the exact
# games (g1-g4) and for the Monte Carlo estimates, whose permutation
# totals telescope to nu(V) up to rounding.
EFFICIENCY_TOL = 1e-9
# g5's Gaussian approximation is not efficient. Its relative gap measured
# 3.1e-4 to 4.1e-4 over eight sparse-local seeds; this bound is about five
# times the largest.
G5_EFFICIENCY_TOL = 2e-3
# Agreement of scores with an independent reference, per node, relative to
# max(1, |reference|); the CSV keeps 12 significant digits.
REFERENCE_TOL = 1e-9
# Change allowed between two executions of one seeded job, per node.
REPEAT_TOL = 1e-12
# Oracle against exact on the 12-node graph (seed code: 4.5e-14).
ORACLE_TOL = 1e-9

BENCH_THRESHOLDS = "0.5,0.35"
BENCH_RUNS = "10"


@dataclass
class Job:
    slot: str  # end-to-end metric stem: job1 .. job4
    label: str
    calls: Callable[[int], list[list[str]]]  # command lines for round r
    read: Callable[[list[str]], object]  # captured stdout of each call -> digest
    judge: Callable[[list[object]], list[str | None]]
    repeat: int = 1  # executions per round: more samples of a short job


@dataclass
class Workload:
    name: str
    graph: GraphInput
    jobs: list[Job]


def load_scores(path: Path) -> np.ndarray:
    """Scores of a 'node,score' file; node ids must be 0..n-1 in order."""
    table = np.loadtxt(path, delimiter=",", ndmin=2)
    if table.shape[1] != 2 or not np.array_equal(table[:, 0], np.arange(len(table))):
        raise ValueError(f"{path.name}: not a dense 'node,score' table")
    return table[:, 1]


def checksum(scores: np.ndarray) -> float:
    """Position-weighted sum: sum over v of (v + 1) * phi_v."""
    return float(np.dot(np.arange(1, len(scores) + 1), scores))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def score_job(slot, label, argv, out: Path, total: float, *, efficiency_tol=EFFICIENCY_TOL,
              reference: Callable[[], np.ndarray] | None = None, repeat: int = 1) -> Job:
    """A job writing one score vector, checked for efficiency, against its
    first execution, and against an independent reference when given.

    Only the first output is kept whole, so memory does not grow with the
    number of rounds.
    """
    first: list[np.ndarray] = []

    def read(_stdout):
        phi = load_scores(out)
        if not first:
            first.append(phi)
        gap = (float(np.max(np.abs(phi - first[0]) / np.maximum(1.0, np.abs(first[0]))))
               if len(phi) == len(first[0]) else math.inf)
        return len(phi), float(phi.sum()), checksum(phi), gap

    def judge(digests):
        if not digests:  # every execution failed before its output was read
            return []
        ref = reference() if reference is not None else first[0]
        off = 0.0
        if len(ref) == len(first[0]):
            off = float(np.max(np.abs(first[0] - ref) / np.maximum(1.0, np.abs(ref))))
        verdicts = []
        for count, total_phi, check, repeat_gap in digests:
            if count != len(ref):
                verdicts.append(f"{count} scores, expected {len(ref)}")
            elif abs(total_phi - total) > efficiency_tol * total:
                verdicts.append(f"efficiency gap {abs(total_phi - total) / total:.3g}")
            elif not _close(check, checksum(ref), REFERENCE_TOL):
                verdicts.append(f"checksum {check!r} != {checksum(ref)!r}")
            elif repeat_gap > REPEAT_TOL:
                verdicts.append(f"scores differ from the first execution by {repeat_gap:.3g}")
            elif off > REFERENCE_TOL:
                verdicts.append(f"scores differ from the reference by {off:.3g}")
            else:
                verdicts.append(None)
        return verdicts

    calls = [argv + ["--output", str(out)]]
    return Job(slot, label, lambda _r: calls, read, judge, repeat)


def _parse_bench_table(text: str) -> list[dict[str, float]]:
    rows = []
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == ["thresh"])
    for line in lines[start + 1:]:
        f = line.split()
        rows.append({"threshold": float(f[0]), "censored": int(f[-2]),
                     "speedup": float(f[-1].rstrip("x"))})
    return rows


def bench_job(slot, label, argv, seed: int, thresholds: int) -> Job:
    """The time-to-error experiment; no run may end censored.

    Each round draws other permutations (seed + 7919 r), so the median
    over rounds averages the randomness of the time to reach an error.
    """

    def read(stdout):
        return _parse_bench_table(stdout[0])

    def judge(digests):
        verdicts = []
        for rows in digests:
            if len(rows) != thresholds:
                verdicts.append(f"{len(rows)} report rows, expected {thresholds}")
            elif any(r["censored"] for r in rows):
                verdicts.append("censored runs in the report")
            else:
                verdicts.append(None)
        return verdicts

    return Job(slot, label, lambda r: [argv + ["--seed", str(seed + 7919 * r)]], read, judge)


def gen_job(slot, label, n: int, p: float, seed: int, out: Path, repeat: int = 1) -> Job:
    """`gen gnp`, checked for structure only: the stream may change."""
    argv = ["gen", "gnp", "-n", str(n), "-p", repr(p), "--weighted",
            "--seed", str(seed), "--output", str(out)]
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))

    def read(_stdout):
        lines = out.read_text().splitlines()
        if lines[:1] != [f"nodes {n}"]:
            return "missing 'nodes N' header"
        seen = set()
        for line in lines[1:]:
            u, v, w = line.split()
            u, v, w = int(u), int(v), float(w)
            key = (min(u, v), max(u, v))
            if u == v or not (0 <= key[0] and key[1] < n) or key in seen:
                return f"bad edge line {line!r}"
            if not 0 < w <= 1:
                return f"weight outside (0, 1] in {line!r}"
            seen.add(key)
        if abs(len(seen) - mean) > 6 * sigma:
            return f"{len(seen)} edges, expected {mean:.0f} +- {6 * sigma:.0f}"
        return None

    return Job(slot, label, lambda _r: [argv], read, lambda digests: list(digests), repeat)


def verify_job(slot, label, graph_args, games, tmp: Path) -> Job:
    """`oracle` and `exact` on one small graph per game; they must agree."""
    calls, pairs = [], []
    for game_args in games:
        tag = game_args[1]
        o, e = tmp / f"oracle_{tag}.csv", tmp / f"exact_{tag}.csv"
        calls.append(["oracle", *graph_args, *game_args, "--output", str(o)])
        calls.append(["exact", *graph_args, *game_args, "--output", str(e)])
        pairs.append((tag, o, e))

    def read(_stdout):
        for tag, o, e in pairs:
            brute, fast = load_scores(o), load_scores(e)
            if len(brute) != len(fast):
                return f"{tag}: {len(fast)} exact scores, {len(brute)} from the oracle"
            gap = float(np.max(np.abs(brute - fast) / np.maximum(1.0, np.abs(brute))))
            if gap > ORACLE_TOL:
                return f"{tag}: exact differs from the oracle by {gap:.3g}"
        return None

    return Job(slot, label, lambda _r: calls, read, lambda digests: list(digests))


def _distances(g: GraphInput) -> np.ndarray:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    adj = coo_matrix((g.weight, (g.src, g.dst)), shape=(g.n, g.n)).tocsr()
    return dijkstra(adj, directed=g.directed)


def ref_g1(g: GraphInput) -> np.ndarray:
    inv = 1.0 / (1.0 + g.in_degree())
    return inv + np.bincount(g.src, inv[g.dst], g.n) + np.bincount(g.dst, inv[g.src], g.n)


def ref_g2(g: GraphInput) -> np.ndarray:
    deg = g.in_degree()
    k = np.maximum(1, deg // 2)
    safe = np.maximum(deg, 1)
    term = np.where(deg > 0, np.maximum(0.0, (deg - k + 1.0) / (safe * (1.0 + deg))), 0.0)
    return (np.minimum(1.0, k / (1.0 + deg))
            + np.bincount(g.src, term[g.dst], g.n) + np.bincount(g.dst, term[g.src], g.n))


def ref_g3(g: GraphInput, cutoff: float) -> np.ndarray:
    covers = _distances(g) <= cutoff
    np.fill_diagonal(covers, False)
    inv = 1.0 / (1.0 + covers.sum(axis=0))
    return inv + covers @ inv


def ref_g4_exp(g: GraphInput) -> np.ndarray:
    """Proximity game with f(d) = exp(-d) on an undirected graph."""
    dist = _distances(g)
    n = g.n
    index = np.arange(1, n, dtype=float)
    scores = np.zeros(n)
    for t in range(n):
        row = np.delete(dist[t], t)
        order = np.argsort(row, kind="stable")
        d = row[order]
        f = np.exp(-d)
        term = f / (index * (1.0 + index))
        later = np.cumsum(term[::-1])[::-1] - term  # sum over higher positions
        curr = f / (1.0 + index) - later
        curr = curr[np.searchsorted(d, d, side="right") - 1]  # ties share a value
        others = np.delete(np.arange(n), t)[order]
        scores[others] += curr
        scores[t] += 1.0 - term.sum()
    return scores


def build(name: str, seed: int, tmp: Path) -> Workload:
    """Write the workload's input files under tmp and define its jobs."""
    seed %= 2**31
    s = str(seed)
    edges, kfile = tmp / "graph.txt", tmp / "k.csv"

    if name == "sparse-local":
        g = random_graph(2500, 6, seed, weighted=True, directed=False)
        inp = ["--input", str(edges), "--weighted"]
        jobs = [
            score_job("job1", "exact g1", ["exact", *inp, "--game", "g1"], tmp / "g1.csv",
                      g.n, reference=lambda: ref_g1(g), repeat=4),
            score_job("job2", "exact g2 --k-file", ["exact", *inp, "--game", "g2", "--k-file",
                      str(kfile)], tmp / "g2.csv", g.n, reference=lambda: ref_g2(g), repeat=4),
            score_job("job3", "exact g5 --w-cutoff 1.0", ["exact", *inp, "--game", "g5",
                      "--w-cutoff", "1.0"], tmp / "g5.csv", g.n,
                      efficiency_tol=G5_EFFICIENCY_TOL),
            gen_job("job4", "gen gnp -n 1000 -p 6/999 --weighted", 1000, 6 / 999, seed,
                    tmp / "gen.txt", repeat=2),
        ]
    elif name == "distance":
        g = random_graph(500, 5, seed, weighted=True, directed=False)
        inp = ["--input", str(edges), "--weighted"]
        jobs = [
            score_job("job1", "exact g3 --d-cutoff 1.0", ["exact", *inp, "--game", "g3",
                      "--d-cutoff", "1.0"], tmp / "g3.csv", g.n,
                      reference=lambda: ref_g3(g, 1.0)),
            score_job("job2", "exact g4 --decay exp", ["exact", *inp, "--game", "g4", "--decay",
                      "exp"], tmp / "g4.csv", g.n, reference=lambda: ref_g4_exp(g)),
            score_job("job3", "mc g4 --decay exp --iters 4", ["mc", *inp, "--game", "g4",
                      "--decay", "exp", "--iters", "4", "--seed", s], tmp / "mc_g4.csv", g.n),
            score_job("job4", "exact g1", ["exact", *inp, "--game", "g1"], tmp / "g1.csv",
                      g.n, reference=lambda: ref_g1(g), repeat=8),
        ]
    elif name == "sampling":
        g = random_graph(500, 5, seed, weighted=False, directed=False)
        inp = ["--input", str(edges)]
        bench = ["--thresholds", BENCH_THRESHOLDS, "--runs", BENCH_RUNS, "--iters", "40000",
                 "--threads", "1"]
        thresholds = len(BENCH_THRESHOLDS.split(","))
        jobs = [
            bench_job("job1", f"bench g1 --runs {BENCH_RUNS}",
                      ["bench", *inp, "--game", "g1", *bench], seed, thresholds),
            bench_job("job2", f"bench g2 --k-file --runs {BENCH_RUNS}",
                      ["bench", *inp, "--game", "g2", "--k-file", str(kfile), *bench],
                      seed, thresholds),
            score_job("job3", "mc g1 --iters 1000", ["mc", *inp, "--game", "g1", "--iters",
                      "1000", "--seed", s], tmp / "mc_g1.csv", g.n, repeat=2),
            score_job("job4", "mc g2 --k-file --iters 1000", ["mc", *inp, "--game", "g2",
                      "--k-file", str(kfile), "--iters", "1000", "--seed", s],
                      tmp / "mc_g2.csv", g.n),
        ]
    elif name == "oracle":
        g = random_graph(12, 4, seed, weighted=True, directed=True)
        inp = ["--input", str(edges), "--weighted", "--directed"]
        jobs = [
            verify_job("job1", "verify g1, g2 --k 1", inp,
                       [["--game", "g1"], ["--game", "g2", "--k", "1"]], tmp),
            verify_job("job2", "verify g3 --d-cutoff 0.8", inp,
                       [["--game", "g3", "--d-cutoff", "0.8"]], tmp),
            verify_job("job3", "verify g4 --decay exp", inp,
                       [["--game", "g4", "--decay", "exp"]], tmp),
            verify_job("job4", "verify g5 --w-cutoff 0.7", inp,
                       [["--game", "g5", "--w-cutoff", "0.7"]], tmp),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")

    edges.write_text(g.edge_list_text())
    kfile.write_text(g.half_degree_k_text())
    return Workload(name, g, jobs)


WORKLOADS = ("sparse-local", "distance", "sampling", "oracle")
