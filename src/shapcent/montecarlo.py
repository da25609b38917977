"""Permutation-sampling baseline over batches of permutations.

Each iteration draws one uniform permutation of the nodes, and a block
evaluates a batch of them at once in numpy. In g1, g2, g3 and g5 every
node u is worth one unit to a coalition that holds or completes it, so
per permutation u's unit goes to one winner: u itself if it arrives
first, otherwise the arrival that completes it. The block finds all
winners from the arrival positions (g2 and g5 read Graph.in_arcs) and
counts them with bincount. g4 keeps each node's running minimum
distance from the coalition, lowered by one shortest-path search per
arrival that queues only the nodes the arrival brings closer, and
evaluates the decay only there. Each block's per-game state (covers, arc
groups) is built once; that time is reported separately from the
sampling clock. g4 has none: all its distance work runs in the searches,
inside the sampling clock.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exact import ShapleyVector
from .games import GameSpec, cutoff_covers, grand_value
from .graph import Graph, settle_listing

INF = math.inf
_node = operator.itemgetter(1)  # the node of a (distance, node) pair

# Element budget of one batch: permutations times the entries that each
# needs in the block's widest array, as exact._ENUM_BLOCK bounds a g5 block.
_BATCH_BLOCK = 1 << 15

Block = Callable[[np.ndarray], np.ndarray]


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
    """Max over nodes of |estimate - reference| / reference.

    Takes ShapleyVectors, sequences or arrays. A reference score must be
    positive and finite and an estimate finite: a NaN would otherwise
    drop out of the maximum and read as no error at all.
    """
    ref = reference.scores if isinstance(reference, ShapleyVector) else reference
    est = estimate.scores if isinstance(estimate, ShapleyVector) else estimate
    ref, est = np.asarray(ref, dtype=float), np.asarray(est, dtype=float)
    if len(ref) != len(est):
        raise ValueError(f"length mismatch: {len(ref)} vs {len(est)}")
    bad = ~(ref > 0)
    if bad.any():
        raise ValueError(f"nonpositive reference score {ref[bad][0]}")
    for name, arr in (("reference score", ref), ("estimate", est)):
        bad = ~np.isfinite(arr)
        if bad.any():
            raise ValueError(f"non-finite {name} {arr[bad][0]}")
    return float(np.max(np.abs(est - ref) / ref, initial=0.0))


def _build_block(g: Graph, spec: GameSpec) -> tuple[Block, int]:
    """Per-game marginal-contribution block and its largest batch.

    The block maps a (B, n) array of permutations to their (B, n)
    marginal contributions by node; each row adds up to nu(V). In the
    counting games a winner position per node is found for the whole
    batch at once, so no Python loop runs over a permutation.
    """
    n = g.node_count
    game = spec.game

    if game == "g4":
        return _proximity_block(g, spec), 1

    if game in ("g1", "g3"):
        # u's unit goes to the earliest arrival among u and the nodes covering it
        if game == "g1":
            ptr, covered = g.out_arcs.ptr, g.out_arcs.ids
        else:
            ptr, covered = cutoff_covers(g, spec.d_cutoff_values(g))
        owner = np.repeat(np.arange(n), np.diff(ptr))
        order = np.argsort(np.concatenate([np.arange(n), covered]), kind="stable")
        ids = np.concatenate([np.arange(n), owner])[order]
        count = np.bincount(covered, minlength=n) + 1
        starts = np.cumsum(count) - count

        def winners(pos):
            return np.minimum.reduceat(np.take(pos, ids, axis=1), starts, axis=1)

        width = len(ids)

    elif game == "g2":
        # u's unit goes to its k(u)-th arriving in-neighbor unless u comes
        # first; a node with k(u) = 1 + deg(u) always keeps it
        k = np.array(spec.k_values(g))
        contested = np.flatnonzero(k <= np.diff(g.in_arcs.ptr))
        # kth: the flat index of each node's k-th entry in its sorted row
        groups = [
            (nodes, nbrs, np.arange(0, nbrs.size, nbrs.shape[1]) + k[nodes] - 1)
            for nodes, _, nbrs, _ in g.in_arcs.by_degree(contested)
        ]
        width = n + sum(nbrs.size for _, nbrs, _ in groups)

        def winners(pos):
            win = pos.copy()
            for nodes, nbrs, kth in groups:
                arrivals = np.sort(np.take(pos, nbrs, axis=1), axis=-1).reshape(len(pos), -1)
                win[:, nodes] = np.minimum(pos[:, nodes], np.take(arrivals, kth, axis=1))
            return win

    else:
        # g5: to the in-neighbor whose arrival lifts u's in-weight, summed in
        # arrival order from 0.0, to w_cutoff(u), unless u comes first
        wc = np.array(spec.w_cutoff_values(g))
        groups = [
            (nodes, nbrs, w, wc[nodes, None])
            for nodes, _, nbrs, w in g.in_arcs.by_degree(np.arange(n))
        ]
        width = n + sum(nbrs.size for _, nbrs, *_ in groups)

        def winners(pos):
            win = pos.copy()
            for nodes, nbrs, w, cut in groups:
                d = nbrs.shape[1]
                # keys position * d + column sort a node's in-arcs by arrival
                # and keep each arc's column, which finds its weight
                key = np.sort(np.take(pos, nbrs, axis=1) * d + np.arange(d), axis=-1)
                weights = np.take(w, key % d + np.arange(0, w.size, d)[:, None])
                # cumsum restarts at each node and adds left to right
                hit = np.cumsum(weights, axis=-1) >= cut
                first = hit.argmax(axis=-1) + np.arange(0, key.size, d).reshape(hit.shape[:-1])
                at = np.where(hit[..., -1], np.take(key, first) // d, n)
                win[:, nodes] = np.minimum(pos[:, nodes], at)
            return win

    def block(perms):
        b, n = perms.shape
        pos = np.empty_like(perms)  # pos[i, v]: where v arrives in permutation i
        pos[np.arange(b)[:, None], perms] = np.arange(n)
        rows = np.arange(b)[:, None] * n
        # the offsets make permutation i's winners count in row i
        won_by = np.take(perms, winners(pos) + rows) + rows
        return np.bincount(won_by.ravel(), minlength=b * n).reshape(b, n).astype(float)

    return block, max(1, _BATCH_BLOCK // max(1, width))


def _proximity_block(g: Graph, spec: GameSpec) -> Block:
    """g4, one permutation at a time: each arrival v earns f(new) - f(old)
    at the nodes it brings closer (v among them, as weights are positive),
    added in ascending node id. A search from v bounded by the running
    minimum `dist` finds just those nodes and lowers them to the full
    search's bits (see settle), so f is evaluated only where a distance
    falls, and no all-pairs table is built."""
    n, f, adj = g.node_count, spec.decay, g.arc_tuples("forward")

    def block(perms):
        (perm,) = perms
        dist, fdist, gains = [INF] * n, [0.0] * n, [0.0] * n
        for v in perm.tolist():
            closer = settle_listing(adj, v, dist)
            closer.sort(key=_node)
            gain = 0.0
            for d, u in closer:
                f_new = f(d)
                gain += f_new - fdist[u]
                fdist[u] = f_new
            gains[v] = gain
        return np.array([gains])

    return block


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
    or below it. Permutations go in batches that never cross a multiple
    of error_stride, so rows fall where a one-at-a-time run puts them.
    Identical seeds give bit-identical results.
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
    block, batch = _build_block(g, spec)
    precompute_s = time.perf_counter() - t0
    nu_grand = grand_value(g, spec) if check_sums else None
    ref = np.array(reference.scores) if reference is not None else None

    acc = np.zeros(n)
    rows: list[tuple[int, float, float]] = []
    done = 0
    start = time.perf_counter()
    while done < max_iter:
        size = min(batch, max_iter - done, error_stride - done % error_stride)
        perms = np.array([rng.permutation(n) for _ in range(size)])
        contrib = block(perms)
        if check_sums:
            for total in contrib.sum(axis=1).tolist():
                if abs(total - nu_grand) > 1e-9 * max(1.0, abs(nu_grand)):
                    raise AssertionError(f"iteration sum {total} != grand value {nu_grand}")
        acc += contrib.sum(axis=0)
        done += size
        if ref is not None and done % error_stride == 0:
            err = max_relative_error(ref, acc / done)
            rows.append((done, time.perf_counter() - start, err))
            if stop_error is not None and err <= stop_error:
                break

    scores = tuple((acc / done).tolist())
    trace = ConvergenceTrace(
        rows=tuple(rows),
        error_stride=error_stride,
        reference=reference.method if reference is not None else "none",
        precompute_seconds=precompute_s,
    )
    return ShapleyVector(scores, game=spec.game, method="monte_carlo"), trace
