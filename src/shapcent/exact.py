"""Closed-form Shapley solvers for games g1-g4 and the Gaussian
approximation for g5.

All solvers are pure functions of immutable inputs. "Degree" means
in-degree, the summation neighborhood is the set of out-neighbors
(influence flows along the edge direction), and distance to a node is
measured along the edges. An undirected graph is its symmetric directed
twin, so the same rules cover it without a case of their own. g1 and
g2 read their covers from the graph's arc arrays (Graph.out_arcs), as g5
reads both listings, g3 its covers from graph.distance_blocks bounded at
the largest cutoff, and g4 its all-pairs distances from the same blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .games import (
    Decay,
    DecayFn,
    GameSpec,
    GameSpecError,
    cutoff_covers,
    decay_values,
    one_hop_covers,
    step_threshold,
)
from .graph import Arcs, Graph, data_lines, distance_blocks

INF = math.inf


@dataclass(frozen=True)
class ShapleyVector:
    """Per-node centrality scores for one (graph, game) pair."""

    scores: tuple[float, ...]
    game: str
    method: str  # exact | gaussian_approx | monte_carlo | brute_force

    def __len__(self) -> int:
        return len(self.scores)

    def to_csv(self, sep: str = ",") -> str:
        lines = [f"{v}{sep}{s:.12g}" for v, s in enumerate(self.scores)]
        return "\n".join(lines) + "\n"


def read_scores(stream, game: str = "g1") -> ShapleyVector:
    """Load a "node,score" CSV (as written by to_csv) into a ShapleyVector.

    A malformed line raises ValueError naming its line number: a field
    count other than two, a non-integer node id, or a score that does not
    parse or is not finite.
    """
    pairs = []
    for lineno, line in data_lines(stream):
        fields = line.replace("\t", ",").split(",")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 2 fields, got {len(fields)}: {line!r}")
        try:
            node = int(fields[0])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id: {line!r}") from None
        try:
            score = float(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: unparseable score: {line!r}") from None
        if not math.isfinite(score):
            raise ValueError(f"line {lineno}: non-finite score: {line!r}")
        pairs.append((node, score))
    pairs.sort()
    if [v for v, _ in pairs] != list(range(len(pairs))):
        raise ValueError("score file does not cover dense node ids")
    return ShapleyVector(tuple(s for _, s in pairs), game=game, method="exact")


@dataclass(frozen=True)
class GaussianMoment:
    """Mean and variance of a subset-sum; sigma2 = 0 is deterministic."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError(f"negative variance {self.sigma2}")


def gaussian_interval_prob(m: GaussianMoment, lo: float, hi: float) -> float:
    """P{X in [lo, hi)} for X ~ N(mu, sigma2).

    The degenerate sigma2 = 0 case keeps the half-open interval semantics
    of the g5 contribution condition.
    """
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if m.sigma2 == 0.0:
        return 1.0 if lo <= m.mu < hi else 0.0
    s = math.sqrt(2.0 * m.sigma2)
    a = math.erf((lo - m.mu) / s) if lo != -INF else -1.0
    b = math.erf((hi - m.mu) / s) if hi != INF else 1.0
    return max(0.0, 0.5 * (b - a))


def _cover_counts(covers: Sequence[Sequence[int]]) -> list[int]:
    """How many nodes cover each node."""
    count = [0] * len(covers)
    for cov in covers:
        for u in cov:
            count[u] += 1
    return count


def _kernel(covers: Sequence[Sequence[int]], s, t) -> tuple[float, ...]:
    """phi(v) = s(v) + sum of t(u) over the nodes u that v covers.

    The one score loop of g1, g2 and g3. fsum is correctly rounded, so a
    score does not depend on the order of the covers; that is why g2 at
    k = 1 and g3 at unit cutoff give g1's scores bit for bit.
    """
    return tuple(math.fsum([s[v], *[t[u] for u in cov]]) for v, cov in enumerate(covers))


def _coverage(covers: Sequence[Sequence[int]]) -> tuple[float, ...]:
    """Shapley values of the game in which a coalition is worth the nodes
    it holds or covers: s = t = 1 / (1 + number of nodes covering u)."""
    inv = [1.0 / (1.0 + c) for c in _cover_counts(covers)]
    return _kernel(covers, inv, inv)


def shapley_g1(g: Graph) -> ShapleyVector:
    """Exact Shapley values for the one-hop fringe game, O(V + E): the
    coverage game of g3 over the one-hop covers."""
    return ShapleyVector(_coverage(one_hop_covers(g)), game="g1", method="exact")


def shapley_g2(g: Graph, k) -> ShapleyVector:
    """Exact Shapley values for the k-threshold game, O(V + E).

    k is a uniform int or a per-node map with 1 <= k(v) <= 1 + deg(v).
    """
    covers = one_hop_covers(g)
    deg = _cover_counts(covers)
    kv = GameSpec.threshold(k)._k_for_degrees(deg)
    s = [min(1.0, kv[v] / (1.0 + d)) for v, d in enumerate(deg)]
    # a covered node has degree >= 1, so t is never read where d = 0
    t = [
        max(0.0, (d - kv[u] + 1.0) / (d * (1.0 + d))) if d else 0.0 for u, d in enumerate(deg)
    ]
    return ShapleyVector(_kernel(covers, s, t), game="g2", method="exact")


def shapley_g3(g: Graph, d_cutoff) -> ShapleyVector:
    """Exact Shapley values for the distance-cutoff game.

    d_cutoff is a uniform positive real or a per-node map; the cutoff of
    the *covered* node decides membership. The covers come from the
    forward distance blocks bounded at the largest cutoff
    (games.cutoff_covers).
    """
    covers = cutoff_covers(g, GameSpec.cutoff(d_cutoff).d_cutoff_values(g))
    return ShapleyVector(_coverage(covers), game="g3", method="exact")


# Targets per numpy pass of shapley_g4: passes of a whole sweep block (65
# targets at n = 500) ran no faster and took twice the peak memory.
_G4_ROWS = 16


def shapley_g4(g: Graph, f: Decay) -> ShapleyVector:
    """Exact Shapley values for the decay-weighted proximity game.

    Each target's pass takes the other nodes in ascending distance *to* it
    (its row of the reverse distance_blocks, sorted) and accumulates
    expected marginal contributions with a backward cumulative sum;
    equal-distance nodes share one value, so the order of ties changes no
    score. f first passes DecayFn.custom's probe check, so f(inf) = 0 and
    the unreachable nodes, which add nothing, are skipped. f is evaluated
    once per distinct reachable distance of a row, at the last node of
    each run of equal distances, and that value spreads over the run, so
    a custom decay must be pure; the builtin decays take one array call
    per pass (games.decay_values). For step(c) the blocks are bounded at c:
    every node within c holds its distance and every other entry is above
    c, or +inf where the bounded search never reached it; past c, f is
    0.0, and such nodes add 0.0 in any order. Passes run _G4_ROWS targets at a time in numpy,
    in the arithmetic of a per-node loop (cumsum adds left to right), and
    their contributions are added to the scores one target at a time, in
    ascending target order, with 0.0 at the unreachable nodes: a score
    starts at 0.0, so it is never -0.0, and adding 0.0 leaves its bits
    alone.
    """
    DecayFn.custom(f)
    n = g.node_count
    f0 = f(0.0)
    pos = np.arange(1.0, n)  # sorted positions 1..n-1; 0 is the target
    pos1 = 1.0 + pos
    pos2 = pos * pos1
    scores = np.zeros(n)
    for block in distance_blocks(g, "reverse", step_threshold(f)):
        for first in range(0, len(block), _G4_ROWS):
            rows = block[first : first + _G4_ROWS]
            at = np.arange(len(rows))[:, None]
            order = np.argsort(rows, axis=1)  # the target, at 0.0, sorts first
            dist = rows[at, order[:, 1:]]
            reach = dist < INF
            # a run of equal distances takes the values of its last position
            last = np.ones(dist.shape, dtype=bool)
            last[:, :-1] = dist[:, :-1] != dist[:, 1:]
            cols = np.where(last, np.arange(n - 1), n)
            end = np.minimum.accumulate(cols[:, ::-1], axis=1)[:, ::-1]
            fd = np.zeros(dist.shape)
            last &= reach  # the unreachable run, last, keeps f = 0.0
            fd[last] = decay_values(f, dist[last])
            fd = fd[at, end]
            # acc[:, p]: the sum, from 0.0, of the terms of positions n-1
            # down to p+1 (the acc that position p reads); acc[:, 0] is all
            acc = np.zeros(rows.shape)
            acc[:, 1:] = (fd / pos2)[:, ::-1]
            acc = np.cumsum(acc, axis=1)[:, ::-1]
            value = fd / pos1 - acc[:, 1:]
            sorted_contrib = np.empty(rows.shape)
            sorted_contrib[:, 0] = f0 - acc[:, 0]
            sorted_contrib[:, 1:] = np.where(reach, value[at, end], 0.0)
            contrib = np.empty(rows.shape)
            contrib[at, order] = sorted_contrib
            for row in contrib:
                scores += row
    return ShapleyVector(tuple(scores.tolist()), game="g4", method="exact")


# Element budget of one (nodes, neighbors, subsets) block of the g5
# enumeration; 2^15 needs less peak memory than 2^16 at the same speed.
_ENUM_BLOCK = 1 << 15


def _subset_terms(w: np.ndarray, cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact g5 terms of the k nodes that share one in-degree d.

    w is (k, d): each node's in-weights in adjacency order; cut is their
    w_cutoff. Returns the self terms (k,) and the cross terms (k, d),
    column i being the term that the i-th in-neighbor receives: the
    subsets S without i for which S stays below the cutoff and S + {i}
    does not, both sums read from the one subset-sum table, so the terms
    add up to the node's whole value. Nodes go in blocks of at most
    _ENUM_BLOCK (node, neighbor, subset) elements; a node whose d * 2^d
    exceeds that goes one neighbor row at a time.
    """
    k, d = w.shape
    masks = np.arange(1 << d)
    bits = (1 << np.arange(d))[:, None]
    pop = ((masks & bits) != 0).sum(axis=0)
    # subsets by ascending size; within a size every added factor is equal,
    # so the sequential sums below match a size-by-size accumulation
    order = np.argsort(pop, kind="stable")
    q = np.array([1.0 / math.comb(d, m) for m in range(d + 1)])[pop[order]]
    # row i: the 2^(d-1) subsets that leave out neighbor i, by ascending
    # size; the other half would add only 0.0, which changes no bits
    without = np.array([order[order & bits[i] == 0] for i in range(d)])
    factor = np.array(
        [(d - m) / (d * (d + 1.0)) / math.comb(d - 1, m) for m in range(d)]
    )[pop[without]]
    self_terms = np.empty(k)
    cross = np.empty((k, d))
    block = max(1, _ENUM_BLOCK // (d << d))
    step = d if d << d <= _ENUM_BLOCK else 1
    for b in range(0, k, block):
        nodes = slice(b, b + block)
        wb = w[nodes]
        # doubling: entry `mask` is the sum of the masked weights, added
        # left to right in adjacency order from 0.0, as sum(subset) does
        # before Python 3.12
        sums = np.zeros((len(wb), 1))
        for j in range(d):
            sums = np.concatenate([sums, sums + wb[:, j : j + 1]], axis=1)
        below = sums < cut[nodes, None]
        # cumsum adds left to right, unlike the pairwise np.sum
        self_q = np.where(below[:, order], q, 0.0)
        self_terms[nodes] = np.cumsum(self_q, axis=1)[:, -1] / (1.0 + d)
        for i in range(0, d, step):
            rows = slice(i, i + step)
            ok = below[:, without[rows]] & ~below[:, without[rows] | bits[rows]]
            cross[nodes, rows] = np.cumsum(np.where(ok, factor[rows], 0.0), axis=-1)[..., -1]
    return self_terms, cross


def _edge_slots(in_arcs: Arcs, out_arcs: Arcs) -> np.ndarray:
    """Position in the in-arc listing of each arc of the out-arc listing;
    arc u->v has key u*n+v in both."""
    n = len(in_arcs.ptr) - 1
    in_key = in_arcs.ids * n + np.repeat(np.arange(n), np.diff(in_arcs.ptr))
    out_key = np.repeat(np.arange(n) * n, np.diff(out_arcs.ptr)) + out_arcs.ids
    slot = np.empty(len(in_key), dtype=np.int64)
    slot[np.argsort(out_key)] = np.argsort(in_key)
    return slot


def _gaussian_sum(a: float, b: float, lo: float, hi: float, factors: Sequence[float]) -> float:
    """Sum over m = 0..N of factors[m] * P{S_m in [lo, hi)}, N = len(factors) - 1.

    S_m is the sum of a uniform m-subset of a pool of N weights with sum
    a and sum of squares b, taken as Gaussian with the subset-sum moments;
    S_0 = 0 and S_N = a are exact.
    """
    n = len(factors) - 1
    spread = b - a * a / n
    total = 0.0
    for m, factor in enumerate(factors):
        if m == 0:
            mom = GaussianMoment(0.0, 0.0)
        elif m == n:
            mom = GaussianMoment(a, 0.0)
        else:
            var = m * (n - m) / (n * (n - 1.0)) * spread
            mom = GaussianMoment(m / n * a, max(0.0, var))
        total += factor * gaussian_interval_prob(mom, lo, hi)
    return total


def shapley_g5(g: Graph, w_cutoff, brute_force_degree_limit: int = 12) -> ShapleyVector:
    """Approximate Shapley values for the weighted-threshold game.

    High-degree neighbors use the Gaussian subset-sum approximation;
    neighbors with degree <= brute_force_degree_limit (and all degenerate
    degree-1/2 cases) are enumerated exactly. The enumeration builds one
    subset-sum table per node, vectorised over the nodes of each degree.
    Summation order is fixed: each subset sum adds its weights left to
    right in adjacency order, each term adds its qualifying subsets'
    factors one at a time by ascending subset size, and a node's score
    is its self term plus the cross terms in out-neighbor order; one
    bincount over the self terms, then the cross terms, keeps that order.
    """
    if brute_force_degree_limit < 2:
        raise GameSpecError(
            "brute_force_degree_limit must be >= 2 (degenerate moments need exactness)"
        )
    wc = np.array(GameSpec.weighted_threshold(w_cutoff).w_cutoff_values(g))
    n = g.node_count
    # influence arrives along in-arcs; the summation set is out-neighbors.
    # cross_in[p]: the term in-arc p's source gets; an isolated node scores 1
    selfs = np.ones(n)
    cross_in = np.empty(len(g.in_arcs.ids))
    for nodes, pos, _, w in g.in_arcs.by_degree(np.arange(n)):
        d = w.shape[1]
        if d <= brute_force_degree_limit:
            selfs[nodes], cross_in[pos] = _subset_terms(w, wc[nodes])
            continue
        factors = [(d - m) / (d * (d + 1.0)) for m in range(d)]
        for v, at, wv, c in zip(nodes.tolist(), pos.tolist(), w.tolist(), wc[nodes].tolist()):
            a = b = 0.0  # left to right: sum() compensates from Python 3.12
            for x in wv:
                a += x
                b += x * x
            selfs[v] = _gaussian_sum(a, b, -INF, c, [1.0] * (d + 1)) / (1.0 + d)
            for p, wij in zip(at, wv):
                # the pool is v's other d - 1 in-weights
                cross_in[p] = _gaussian_sum(a - wij, b - wij * wij, c - wij, c, factors)
    owner = np.concatenate([np.arange(n), np.repeat(np.arange(n), np.diff(g.out_arcs.ptr))])
    terms = np.concatenate([selfs, cross_in[_edge_slots(g.in_arcs, g.out_arcs)]])
    scores = np.bincount(owner, terms, minlength=n).tolist()
    return ShapleyVector(tuple(scores), game="g5", method="gaussian_approx")


def solve(g: Graph, spec: GameSpec, brute_force_degree_limit: int = 12) -> ShapleyVector:
    """Dispatch to the closed-form solver for the spec's game."""
    if spec.game == "g1":
        return shapley_g1(g)
    if spec.game == "g2":
        return shapley_g2(g, spec.k)
    if spec.game == "g3":
        return shapley_g3(g, spec.d_cutoff)
    if spec.game == "g4":
        return shapley_g4(g, spec.decay)
    return shapley_g5(g, spec.w_cutoff, brute_force_degree_limit)
