"""Permutation-sampling baseline with per-game incremental blocks.

Each iteration shuffles all nodes and walks the permutation once,
adding every node's marginal contribution with an O(1)-amortized
incremental update instead of re-evaluating the characteristic
function. Distance-dependent state for g3/g4 is precomputed once; the
precomputation time is reported separately from the sampling clock.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exact import ShapleyVector
from .games import GameSpec, cutoff_covers, grand_value, one_hop_covers
from .graph import Graph, distance_matrix

INF = math.inf


@dataclass(frozen=True)
class ConvergenceTrace:
    """Timestamped (iteration, elapsed, error) rows against a reference."""

    rows: tuple[tuple[int, float, float], ...]
    error_stride: int
    reference: str  # exact | gaussian_approx | brute_force | none
    precompute_seconds: float

    def to_csv(self) -> str:
        lines = ["iteration,elapsed_ms,max_rel_error"]
        for it, elapsed, err in self.rows:
            lines.append(f"{it},{elapsed * 1e3:.6g},{err:.12g}")
        return "\n".join(lines) + "\n"

    def first_at_or_below(self, threshold: float) -> tuple[int, float] | None:
        """(iteration, elapsed_seconds) of the first row at/below threshold."""
        for it, elapsed, err in self.rows:
            if err <= threshold:
                return it, elapsed
        return None


def max_relative_error(reference, estimate) -> float:
    """Max over nodes of |estimate - reference| / reference."""
    ref = reference.scores if isinstance(reference, ShapleyVector) else reference
    est = estimate.scores if isinstance(estimate, ShapleyVector) else estimate
    if len(ref) != len(est):
        raise ValueError(f"length mismatch: {len(ref)} vs {len(est)}")
    worst = 0.0
    for r, e in zip(ref, est):
        if not r > 0:
            raise ValueError(f"nonpositive reference score {r}")
        err = abs(e - r) / r
        if err > worst:
            worst = err
    return worst


def _build_block(g: Graph, spec: GameSpec) -> Callable[[Sequence[int], list[float]], float]:
    """Per-game marginal-contribution block.

    The returned callable applies one permutation, adds each node's
    marginal contribution into the accumulator, and returns the
    iteration's total (which telescopes to nu(V)).
    """
    n = g.node_count
    game = spec.game

    if game in ("g1", "g3"):
        # g1 is the coverage game of g3 over the one-hop covers
        covers = one_hop_covers(g) if game == "g1" else cutoff_covers(g, spec.d_cutoff_values(g))
        stamp = [0] * n
        epoch = [0]

        def apply_coverage(perm, sv):
            epoch[0] += 1
            e = epoch[0]
            total = 0
            for vi in perm:
                c = 0
                if stamp[vi] != e:
                    stamp[vi] = e
                    c += 1
                for u in covers[vi]:
                    if stamp[u] != e:
                        stamp[u] = e
                        c += 1
                sv[vi] += c
                total += c
            return float(total)

        return apply_coverage

    if game == "g2":
        k = spec.k_values(g)
        nbrs = one_hop_covers(g)
        stamp = [0] * n
        edge_stamp = [0] * n
        edges = [0] * n
        epoch = [0]

        def apply_g2(perm, sv):
            epoch[0] += 1
            e = epoch[0]
            total = 0
            for vi in perm:
                c = 0
                if stamp[vi] != e:
                    stamp[vi] = e
                    c += 1
                for u in nbrs[vi]:
                    if edge_stamp[u] != e:
                        edge_stamp[u] = e
                        edges[u] = 0
                    edges[u] += 1
                    if stamp[u] != e and edges[u] >= k[u]:
                        stamp[u] = e
                        c += 1
                sv[vi] += c
                total += c
            return float(total)

        return apply_g2

    if game == "g4":
        f = spec.decay
        dmat = distance_matrix(g, "forward")
        fmat = [[f(d) for d in row] for row in dmat]

        def apply_g4(perm, sv):
            dist = [INF] * n
            fdist = [0.0] * n
            total = 0.0
            for vi in perm:
                drow = dmat[vi]
                frow = fmat[vi]
                c = 0.0
                for u in range(n):
                    duv = drow[u]
                    if duv < dist[u]:
                        c += frow[u] - fdist[u]
                        dist[u] = duv
                        fdist[u] = frow[u]
                sv[vi] += c
                total += c
            return total

        return apply_g4

    # g5
    wc = spec.w_cutoff_values(g)
    adj = [list(g.out_neighbors(v)) for v in range(n)]
    stamp = [0] * n
    w_stamp = [0] * n
    wsum = [0.0] * n
    epoch = [0]

    def apply_g5(perm, sv):
        epoch[0] += 1
        e = epoch[0]
        total = 0
        for vi in perm:
            c = 0
            if stamp[vi] != e:
                stamp[vi] = e
                c += 1
            for u, w in adj[vi]:
                if w_stamp[u] != e:
                    w_stamp[u] = e
                    wsum[u] = 0.0
                wsum[u] += w
                if stamp[u] != e and wsum[u] >= wc[u]:
                    stamp[u] = e
                    c += 1
            sv[vi] += c
            total += c
        return float(total)

    return apply_g5


def permutation_contributions(g: Graph, spec: GameSpec, perm: Sequence[int]) -> list[float]:
    """Marginal contributions of one permutation via the incremental block."""
    sv = [0.0] * g.node_count
    _build_block(g, spec)(list(perm), sv)
    return sv


def mc_shapley(
    g: Graph,
    spec: GameSpec,
    max_iter: int,
    seed: int,
    reference: ShapleyVector | None = None,
    error_stride: int = 5,
    stop_error: float | None = None,
    check_sums: bool = False,
) -> tuple[ShapleyVector, ConvergenceTrace]:
    """Estimate Shapley values over seeded uniform permutations.

    Emits a trace row every error_stride iterations when a reference is
    given; stop_error ends the run early once the traced error falls to
    or below it. Identical seeds give bit-identical results.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if error_stride < 1:
        raise ValueError(f"error_stride must be >= 1, got {error_stride}")
    n = g.node_count
    if reference is not None and len(reference) != n:
        raise ValueError("reference length does not match graph size")
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    block = _build_block(g, spec)
    precompute_s = time.perf_counter() - t0
    nu_grand = grand_value(g, spec) if check_sums else None

    acc = [0.0] * n
    rows: list[tuple[int, float, float]] = []
    done = 0
    start = time.perf_counter()
    for it in range(1, max_iter + 1):
        perm = rng.permutation(n).tolist()
        total = block(perm, acc)
        done = it
        if check_sums and abs(total - nu_grand) > 1e-9 * max(1.0, abs(nu_grand)):
            raise AssertionError(
                f"iteration sum {total} != grand value {nu_grand}"
            )
        if reference is not None and it % error_stride == 0:
            est = [s / it for s in acc]
            err = max_relative_error(reference, est)
            rows.append((it, time.perf_counter() - start, err))
            if stop_error is not None and err <= stop_error:
                break

    scores = tuple(s / done for s in acc)
    trace = ConvergenceTrace(
        rows=tuple(rows),
        error_stride=error_stride,
        reference=reference.method if reference is not None else "none",
        precompute_seconds=precompute_s,
    )
    return ShapleyVector(scores, game=spec.game, method="monte_carlo"), trace
