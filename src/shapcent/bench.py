"""Random-graph generators and exact-vs-Monte-Carlo comparison runs."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exact import ShapleyVector, solve
from .games import GameSpec
from .graph import Graph
from .montecarlo import ConvergenceTrace, mc_shapley

# 95% normal-approximation interval, matching the shaded-band convention
_Z95 = 1.959963984540054
# every comparison run traces its error once per this many permutations
ERROR_STRIDE = 5
# Doubles in one draw of gen_gnp's stream (512 KB). A smaller draw takes the
# pairs left untested plus one, the weight draw of a hit at the last pair.
_DRAW_BLOCK = 1 << 16


def gen_complete_weighted(n: int, seed: int) -> Graph:
    """Complete graph on n nodes with i.i.d. U(0,1) edge weights."""
    if n < 2:
        raise ValueError(f"complete weighted graph needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            w = float(rng.random())
            while w <= 0.0:  # zero has measure zero but weights must be positive
                w = float(rng.random())
            edges.append((u, v, w))
    return Graph.build(n, edges, directed=False, weighted=True)


def gen_gnp(
    n: int, p: float, seed: int, weighted: bool = False, directed: bool = False
) -> Graph:
    """Erdos-Renyi G(n, p), optionally with U(0,1) weights; seeded.

    One stream, default_rng(seed), is read in this order: one test draw
    per node pair, in row-major order (directed: every u != v; undirected:
    u < v), and the pair is an edge when its draw is < p. On a weighted
    graph each edge's weight is the draw right after its test, drawn again
    while it is 0.0. The draws are taken _DRAW_BLOCK at a time; a block
    holds the same doubles as that many single draws, so the blocking
    never changes a graph.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    # a negative n has no pairs, and Graph.build rejects it
    pairs = n * max(n - 1, 0) // (1 if directed else 2)
    hits = []  # pair index of each edge, ascending
    weights = []
    tested = 0  # pairs whose test draw has been read
    owed = False  # the last hit still waits for its weight draw
    while tested < pairs or owed:
        buf = rng.random(min(_DRAW_BLOCK, pairs - tested + 1))
        if not weighted:  # every draw is a test: take the hits at once
            hits += (tested + np.flatnonzero(buf[: pairs - tested] < p)).tolist()
            tested += buf.size
            continue
        pos = 0  # first slot of buf not yet read
        # slot -1 stands for a hit of the last block whose weight is owed
        for c in ([-1] if owed else []) + np.flatnonzero(buf < p).tolist():
            if c >= 0:
                if c < pos:  # a weight draw, not a test
                    continue
                tested += c - pos
                if tested >= pairs:
                    break
                hits.append(tested)
                tested += 1
                pos = c + 1
            while pos < buf.size and buf[pos] == 0.0:
                pos += 1
            owed = pos == buf.size
            if owed:
                break
            weights.append(float(buf[pos]))
            pos += 1
        else:
            tested += buf.size - pos
    hits = np.array(hits, dtype=np.int64)
    if directed:
        u, r = np.divmod(hits, n - 1)
        v = r + (r >= u)
    else:
        rows = np.arange(n)
        starts = rows * (n - 1) - rows * (rows - 1) // 2
        u = np.searchsorted(starts, hits, side="right") - 1
        v = u + 1 + hits - starts[u]
    w = np.array(weights) if weighted else np.ones(hits.size)
    return Graph.build(n, (u, v, w), directed=directed, weighted=weighted)


@dataclass(frozen=True)
class ThresholdResult:
    """Time-to-error statistics for one error threshold."""

    threshold: float
    mean_time_s: float
    half_width_s: float | None  # None when runs < 2
    mean_iterations: float
    censored_runs: int
    speedup: float


@dataclass(frozen=True)
class BenchReport:
    scenario: str
    node_count: int
    edge_count: int
    directed: bool
    weighted: bool
    game: str
    runs: int
    max_iter: int
    exact_method: str
    exact_runtime_s: float
    results: tuple[ThresholdResult, ...]  # thresholds sorted descending

    def to_csv(self) -> str:
        lines = [
            "threshold,mean_time_ms,half_width_ms,mean_iterations,censored_runs,speedup"
        ]
        for r in self.results:
            hw = f"{r.half_width_s * 1e3:.6g}" if r.half_width_s is not None else ""
            lines.append(
                f"{r.threshold:g},{r.mean_time_s * 1e3:.6g},{hw},"
                f"{r.mean_iterations:g},{r.censored_runs},{r.speedup:.6g}"
            )
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        head = (
            f"scenario: {self.scenario}\n"
            f"graph: n={self.node_count} m={self.edge_count}"
            f" directed={self.directed} weighted={self.weighted}\n"
            f"game: {self.game}  runs: {self.runs}  max_iter: {self.max_iter}\n"
            f"{self.exact_method} solver: {self.exact_runtime_s * 1e3:.3f} ms\n"
        )
        cols = f"{'thresh':>8} {'mc mean':>12} {'95% hw':>10} {'iters':>9} {'cens':>5} {'speedup':>9}\n"
        body = ""
        for r in self.results:
            hw = f"{r.half_width_s * 1e3:.2f}ms" if r.half_width_s is not None else "-"
            body += (
                f"{r.threshold:>8g} {r.mean_time_s * 1e3:>10.2f}ms {hw:>10} "
                f"{r.mean_iterations:>9.1f} {r.censored_runs:>5} {r.speedup:>8.1f}x\n"
            )
        return head + cols + body


def _one_mc_run(args):
    g, spec, max_iter, seed, reference, stop_error = args
    _, trace = mc_shapley(
        g, spec, max_iter=max_iter, seed=seed, reference=reference,
        error_stride=ERROR_STRIDE, stop_error=stop_error,
    )
    return trace


def run_comparison(
    g: Graph,
    spec: GameSpec,
    thresholds,
    runs: int,
    max_iter: int,
    base_seed: int,
    scenario: str = "comparison",
    workers: int = 1,
) -> tuple[BenchReport, list[ConvergenceTrace]]:
    """Time the closed-form solver against seeded Monte Carlo runs.

    Each run r uses seed base_seed + r and stops once the smallest
    threshold is reached (or at max_iter, reported as censored). The
    reference for g5 is the Gaussian approximation, otherwise exact.
    """
    thresholds = sorted(set(float(t) for t in thresholds), reverse=True)
    if not thresholds:
        raise ValueError("empty threshold list")
    for t in thresholds:
        if not 0.0 < t < math.inf:
            raise ValueError(f"thresholds must be positive and finite, got {t}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_iter < ERROR_STRIDE:
        raise ValueError(
            f"max_iter {max_iter} is below the error stride {ERROR_STRIDE},"
            " so no run would trace its error"
        )

    t0 = time.perf_counter()
    reference = solve(g, spec)
    exact_runtime = time.perf_counter() - t0

    stop = min(thresholds)
    run_args = [
        (g, spec, max_iter, base_seed + r, reference, stop) for r in range(runs)
    ]
    # the pool forks all its workers at its first submit
    workers = min(workers, runs)
    if workers > 1:
        # imported here, so a process that runs no pool loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_one_mc_run, run_args))
    else:
        traces = [_one_mc_run(a) for a in run_args]

    results = []
    for thr in thresholds:
        times, iters, censored = [], [], 0
        for trace in traces:
            hit = trace.first_at_or_below(thr)
            if hit is None:
                censored += 1
                last_it, last_t = trace.rows[-1][0], trace.rows[-1][1]
                times.append(last_t)
                iters.append(float(last_it))
            else:
                times.append(hit[1])
                iters.append(float(hit[0]))
        mean_t = sum(times) / len(times)
        half_width = None
        if runs >= 2:
            var = sum((t - mean_t) ** 2 for t in times) / (runs - 1)
            half_width = _Z95 * math.sqrt(var / runs)
        results.append(
            ThresholdResult(
                threshold=thr,
                mean_time_s=mean_t,
                half_width_s=half_width,
                mean_iterations=sum(iters) / len(iters),
                censored_runs=censored,
                speedup=mean_t / exact_runtime if exact_runtime > 0 else math.inf,
            )
        )

    report = BenchReport(
        scenario=scenario,
        node_count=g.node_count,
        edge_count=g.edge_count,
        directed=g.directed,
        weighted=g.weighted,
        game=spec.game,
        runs=runs,
        max_iter=max_iter,
        exact_method=reference.method,
        exact_runtime_s=exact_runtime,
        results=tuple(results),
    )
    return report, traces
