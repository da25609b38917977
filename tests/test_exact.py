from __future__ import annotations

import math
import random
import struct
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapcent import (
    GaussianMoment,
    Graph,
    settle,
    ShapleyVector,
    distance_matrix,
    gaussian_interval_prob,
    shapley_g1,
    shapley_g2,
    shapley_g3,
    shapley_g4,
    shapley_g5,
    solve,
)
from shapcent.bench import gen_complete_weighted, gen_gnp
from shapcent.exact import _coverage, read_scores
from shapcent.games import _DECAY_PROBE, DecayFn, GameSpec, GameSpecError, cutoff_covers
from shapcent.montecarlo import permutation_contributions
from shapcent.oracle import brute_force_shapley

from .conftest import (
    BLOCKINGS,
    BOUNDED_BLOCKINGS,
    blocking,
    random_small_graph,
    settle_covers,
    settle_rows,
    undirected_twins,
    unit_graphs,
    weighted_graphs,
)

INF = math.inf


class TestShapleyVector:
    def test_csv_round_trip(self):
        vec = ShapleyVector((0.5, 1.0 / 3.0, 2.25), game="g1", method="exact")
        back = read_scores(vec.to_csv(), game="g1")
        assert back.scores == pytest.approx(vec.scores, abs=1e-11)

    def test_csv_uses_12_significant_digits(self):
        vec = ShapleyVector((1.0 / 3.0,), game="g1", method="exact")
        assert vec.to_csv() == "0,0.333333333333\n"

    def test_tsv_separator(self):
        vec = ShapleyVector((1.0, 2.0), game="g1", method="exact")
        assert vec.to_csv(sep="\t") == "0\t1\n1\t2\n"

    def test_read_scores_requires_dense_ids(self):
        with pytest.raises(ValueError, match="dense"):
            read_scores("0,1.0\n2,2.0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,1.0,3\n", "line 1: expected 2 fields, got 3"),
            ("# header\n0,1.0\n1\n", "line 3: expected 2 fields, got 1"),
            ("0,1.0\n1.5,2.0\n", "line 2: non-integer node id"),
            ("0,1.0\n\n1,abc\n", "line 3: unparseable score"),
            ("0,1.0\n1,nan\n", "line 2: non-finite score"),
            ("0\tinf\n", "line 1: non-finite score"),
            ("0,-inf\n", "line 1: non-finite score"),
        ],
    )
    def test_read_scores_rejects_malformed_lines(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_scores(text)


class TestGaussianIntervalProb:
    def test_symmetric_interval(self):
        m = GaussianMoment(0.0, 1.0)
        assert gaussian_interval_prob(m, -1.0, 1.0) == pytest.approx(0.6826894921, abs=1e-9)

    def test_infinite_bounds(self):
        m = GaussianMoment(3.0, 4.0)
        assert gaussian_interval_prob(m, -INF, INF) == pytest.approx(1.0)
        assert gaussian_interval_prob(m, -INF, 3.0) == pytest.approx(0.5)

    def test_degenerate_half_open(self):
        m = GaussianMoment(1.0, 0.0)
        assert gaussian_interval_prob(m, 1.0, 2.0) == 1.0
        assert gaussian_interval_prob(m, 0.0, 1.0) == 0.0  # hi is exclusive

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            gaussian_interval_prob(GaussianMoment(0.0, 1.0), 2.0, 1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="negative variance"):
            GaussianMoment(0.0, -1e-9)

    def test_monotone_in_upper_bound(self):
        m = GaussianMoment(0.5, 0.25)
        probs = [gaussian_interval_prob(m, 0.0, hi) for hi in (0.2, 0.5, 1.0, 2.0)]
        assert probs == sorted(probs)


class TestFringeSolver:
    def test_path_values(self, path3):
        assert shapley_g1(path3).scores == pytest.approx((5 / 6, 4 / 3, 5 / 6))

    def test_star_values(self, star4):
        # center: 1/4 + 3*(1/2); leaf: 1/2 + 1/4
        assert shapley_g1(star4).scores == pytest.approx((7 / 4, 3 / 4, 3 / 4, 3 / 4))

    def test_isolated_node_scores_one(self):
        g = Graph.build(3, [(0, 1, 1.0)])
        assert shapley_g1(g).scores[2] == 1.0

    def test_directed_uses_in_degree(self):
        g = Graph.build(2, [(0, 1, 1.0)], directed=True)
        # node 0: own term 1/(1+0) plus fringe term 1/(1+deg_in(1)) = 1/2
        assert shapley_g1(g).scores == pytest.approx((1.5, 0.5))


class TestThresholdSolver:
    def test_star_with_k2(self, star4):
        got = shapley_g2(star4, 2).scores
        assert got == pytest.approx((1 / 2, 7 / 6, 7 / 6, 7 / 6))

    def test_per_node_k(self, star4):
        uniform = shapley_g2(star4, 1).scores
        per_node = shapley_g2(star4, {v: 1 for v in range(4)}).scores
        assert uniform == per_node

    def test_invalid_k_propagates(self, star4):
        with pytest.raises(GameSpecError):
            shapley_g2(star4, 5)


class TestCutoffSolver:
    def test_path_cutoff_two_covers_everything(self, path3):
        # every node reaches every other within distance 2: ext degree 2 everywhere
        assert shapley_g3(path3, 2.0).scores == pytest.approx((1.0, 1.0, 1.0))

    def test_per_node_cutoff(self, path3):
        got = shapley_g3(path3, {0: 2.0, 1: 1.0, 2: 1.0}).scores
        # node 0 reachable within its own cutoff from all: ext_degree[0] = 2
        assert sum(got) == pytest.approx(3.0)

    def test_directed_uses_reverse_reach_for_degree(self):
        g = Graph.build(2, [(0, 1, 1.0)], directed=True)
        # ext_degree(1) = 1 (node 0 reaches it); ext_degree(0) = 0
        assert shapley_g3(g, 1.0).scores == pytest.approx((1.5, 0.5))

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_per_node_cutoff_matches_distance_matrix(self, seed, data):
        g = random_small_graph(seed, n_max=12, weighted=data.draw(st.booleans()))
        n = g.node_count
        cut = {v: data.draw(st.floats(0.05, 3.0)) for v in range(n)}
        dist = distance_matrix(g)
        covers = [[u for u in range(n) if u != v and dist[v][u] <= cut[u]] for v in range(n)]
        ext = [sum(u in cov for cov in covers) for u in range(n)]
        want = [1.0 / (1 + ext[v]) + sum(1.0 / (1 + ext[u]) for u in covers[v])
                for v in range(n)]
        got = shapley_g3(g, cut).scores
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12

    @pytest.mark.parametrize("blocks", sorted(BOUNDED_BLOCKINGS))
    @given(
        g=st.one_of(
            unit_graphs(),
            weighted_graphs(n_max=12),
            undirected_twins().flatmap(st.sampled_from),
        ),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_covers_match_settle_covers(self, blocks, g, data):
        # per-node cutoffs on a distance or anywhere, or all past every distance
        n = g.node_count
        dist = settle_rows(g)
        on = sorted(set(dist[np.isfinite(dist) & (dist > 0)].tolist())) or [1.0]
        past = [sum(w for _, _, w in g.edges) + 1.0] * n
        cutoff = st.sampled_from(on) | st.floats(1e-3, 2 * on[-1] + 1.0)
        cut = data.draw(st.lists(cutoff, min_size=n, max_size=n) | st.just(past))
        with blocking(blocks):
            covers = cutoff_covers(g, cut)
            got = shapley_g3(g, dict(enumerate(cut))).scores
        want = settle_covers(g, cut)
        assert covers == [sorted(cov) for cov in want]
        assert _bits(got) == _bits(_coverage(want))


class TestCoverageReductions:
    @given(g=unit_graphs())
    @settings(max_examples=100, deadline=None)
    def test_g1_is_g2_at_k1_and_g3_at_unit_cutoff(self, g):
        g1 = shapley_g1(g).scores
        assert shapley_g2(g, 1).scores == g1
        assert shapley_g3(g, 1.0).scores == g1


class TestProximitySolver:
    def test_two_clique(self):
        g = Graph.build(2, [(0, 1, 1.0)])
        got = shapley_g4(g, DecayFn.inv_linear()).scores
        assert got == pytest.approx((1.0, 1.0))

    def test_path_values(self, path3):
        got = shapley_g4(path3, DecayFn.inv_linear()).scores
        assert got == pytest.approx((35 / 36, 19 / 18, 35 / 36))

    def test_accepts_plain_callable(self, path3):
        a = shapley_g4(path3, DecayFn.inv_quadratic()).scores
        b = shapley_g4(path3, lambda d: 1.0 / (1.0 + d * d)).scores
        assert a == pytest.approx(b)

    def test_equal_distances_share_value(self, star4):
        got = shapley_g4(star4, DecayFn.exponential()).scores
        assert got[1] == got[2] == got[3]

    def test_disconnected_components_are_independent(self):
        g = Graph.build(4, [(0, 1, 1.0), (2, 3, 1.0)])
        got = shapley_g4(g, DecayFn.inv_linear()).scores
        assert got[0] == got[1] == got[2] == got[3]
        assert sum(got) == pytest.approx(4.0)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        directed=st.booleans(),
        weighted=st.booleans(),
        c=st.sampled_from([0.3, 0.8, 1.0, 2.0]) | st.floats(0.05, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_decay_is_distance_cutoff(self, seed, n, directed, weighted, c):
        # nu(C) counts the nodes within c of C in both games; the two
        # solvers add their terms in different orders
        g = gen_gnp(n, min(1.0, 4 / max(n - 1, 1)), seed=seed, weighted=weighted,
                    directed=directed)
        step = shapley_g4(g, DecayFn.step(c)).scores
        cutoff = shapley_g3(g, c).scores
        assert all(abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(step, cutoff))


def g4_reference(g: Graph, f) -> tuple[float, ...]:
    """shapley_g4 as one settle row and one Python pass per target, adding
    each contribution to its node as it goes: the reference the block
    solver must match bit for bit."""
    n = g.node_count
    scores = [0.0] * n
    for target in range(n):
        row = settle(g, target, "reverse")  # row[0] is the target itself
        acc = 0.0
        prev_d: float | None = None
        prev_sv = 0.0
        for index in range(len(row) - 1, 0, -1):
            d, node = row[index]
            fd = f(d)
            if prev_d is not None and d == prev_d:
                curr = prev_sv
            else:
                curr = fd / (1.0 + index) - acc
            scores[node] += curr
            acc += fd / (index * (1.0 + index))
            prev_d, prev_sv = d, curr
        scores[target] += f(0.0) - acc
    return tuple(scores)


def _bits(xs) -> bytes:
    return struct.pack(f"<{len(xs)}d", *xs)


# the four builtin decays and a custom one that reaches 0 at a finite distance
_G4_DECAYS = [
    DecayFn.inv_linear(),
    DecayFn.inv_quadratic(),
    DecayFn.exponential(),
    DecayFn.step(1.0),
    DecayFn.custom(lambda d: max(0.0, 1.0 - d / 3.0)),
]


class TestProximityBlocks:
    @pytest.mark.parametrize("blocks", sorted(BLOCKINGS))
    @given(
        g=st.one_of(
            st.just(Graph.build(0, [])),
            unit_graphs(n_max=14),
            weighted_graphs(n_max=14),
            undirected_twins().flatmap(st.sampled_from),
        ),
        f=st.sampled_from(_G4_DECAYS),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_settle_reference_bit_for_bit(self, blocks, g, f):
        with blocking(blocks):
            got = shapley_g4(g, f).scores
        want = g4_reference(g, f)
        assert got == want
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("blocks", sorted(BLOCKINGS))
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_larger_graphs_bit_for_bit(self, blocks, directed, weighted):
        # G(150, 0.03) leaves some nodes isolated and some unreachable
        g = gen_gnp(150, 0.03, seed=11, weighted=weighted, directed=directed)
        for f in _G4_DECAYS:
            with blocking(blocks):
                got = shapley_g4(g, f).scores
            assert _bits(got) == _bits(g4_reference(g, f))

    @pytest.mark.parametrize("blocks", sorted(BOUNDED_BLOCKINGS))
    @given(
        g=st.one_of(
            unit_graphs(n_max=14),
            weighted_graphs(n_max=14),
            undirected_twins().flatmap(st.sampled_from),
        ),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_step_bound_matches_settle_reference_bit_for_bit(self, blocks, g, data):
        # the sweeps stop at c: c on a distance, below every weight, past
        # every shortest path, or anywhere
        dist = settle_rows(g, "reverse")
        weights = [w for _, _, w in g.edges] or [1.0]
        on = sorted(set(dist[np.isfinite(dist) & (dist > 0)].tolist())) or [1.0]
        c = data.draw(st.sampled_from([*on, min(weights) / 2 or 5e-324, sum(weights) + 1.0])
                      | st.floats(1e-3, 2 * on[-1] + 1.0))
        with blocking(blocks):
            got = shapley_g4(g, DecayFn.step(c)).scores
        assert _bits(got) == _bits(g4_reference(g, DecayFn.step(c)))

    @pytest.mark.parametrize("blocks", sorted(BOUNDED_BLOCKINGS))
    @pytest.mark.parametrize("weights", ["unit", "integer"])
    def test_step_on_a_distance_matches_settle_reference(self, blocks, weights):
        # every c lands on a distance, which a candidate exactly at c must
        # still reach
        g = gen_gnp(40, 0.08, seed=4, directed=True)
        if weights == "integer":
            g = Graph.build(40, [(u, v, float(1 + (u + v) % 3)) for u, v, _ in g.edges],
                            directed=True, weighted=True)
        dist = settle_rows(g, "reverse")
        for c in sorted(set(dist[np.isfinite(dist) & (dist > 0)].tolist())):
            with blocking(blocks):
                got = shapley_g4(g, DecayFn.step(c)).scores
            assert _bits(got) == _bits(g4_reference(g, DecayFn.step(c)))

    def test_step_on_a_deep_path_stays_a_frontier(self, monkeypatch):
        # each 50-ball of this path spans about 60 hops, so sweeps would run
        # about 60 times per block; the frontier relaxes only the balls' arcs
        g = Graph.build(1000, [(v, v + 1, 0.5 + v % 7 / 10) for v in range(999)],
                        weighted=True)
        f = DecayFn.step(50.0)
        monkeypatch.setattr("shapcent.graph.settle", None)  # no settle row
        monkeypatch.setattr("shapcent.graph._sweep", None)  # and no sweep
        got = shapley_g4(g, f).scores
        covers = cutoff_covers(g, [50.0] * 1000)
        monkeypatch.undo()
        assert _bits(got) == _bits(g4_reference(g, f))
        assert covers == [sorted(cov) for cov in settle_covers(g, [50.0] * 1000)]

    @pytest.mark.parametrize("blocks", ["default", "split"])
    def test_custom_decay_is_called_once_per_distinct_distance(self, blocks):
        # unit weights: a row of 40 nodes holds a handful of distances, and
        # some nodes reach no target
        g = gen_gnp(40, 0.06, seed=5)
        calls = []

        def decay(d):
            calls.append(d)
            return 1.0 / (1.0 + d)

        with blocking(blocks):
            got = shapley_g4(g, decay).scores
        probes = len(_DECAY_PROBE)
        assert calls[: probes + 1] == [*_DECAY_PROBE, 0.0]  # the check, then f(0.0)
        # per target, each distance at which a node other than it is reached
        rows = settle_rows(g, "reverse")
        assert not np.isfinite(rows).all()
        want = [d for row in rows for d in set(row[np.isfinite(row) & (row > 0)].tolist())]
        assert sorted(calls[probes + 1 :]) == sorted(want)
        assert len(want) < g.node_count**2 / 4
        assert _bits(got) == _bits(g4_reference(g, decay))


def _left_sum(values) -> float:
    """Sum from 0.0, left to right: builtin sum() on floats before Python
    3.12, which switched it to compensated summation."""
    total = 0.0
    for x in values:
        total += x
    return total


def g5_reference(g: Graph, w_cutoff, limit: int) -> tuple[float, ...]:
    """shapley_g5 with one Python loop per subset: combinations() of the
    in-weights, each summed left to right in adjacency order; neighbor i's
    cross term counts a subset S without i when S is below the cutoff and
    S + {i} is not; the Gaussian path as in shapley_g5. An independent
    reference for the vectorised enumeration."""
    wc = GameSpec.weighted_threshold(w_cutoff).w_cutoff_values(g)
    n = g.node_count
    in_adj = [g.in_neighbors(v) for v in range(n)]
    alpha = [sum(w for _, w in adj) for adj in in_adj]
    beta = [sum(w * w for _, w in adj) for adj in in_adj]
    deg = [len(adj) for adj in in_adj]

    def cross_term(vi, vj, wij):
        d = deg[vj]
        lo, hi = wc[vj] - wij, wc[vj]
        total = 0.0
        if d <= limit:
            weights = [w for _, w in in_adj[vj]]
            i = [u for u, _ in in_adj[vj]].index(vi)
            others = [j for j in range(d) if j != i]
            for m in range(d):
                factor = (d - m) / (d * (d + 1.0)) / math.comb(d - 1, m)
                for subset in combinations(others, m):
                    joined = sorted(subset + (i,))
                    below = _left_sum(weights[j] for j in subset) < hi
                    if below and not _left_sum(weights[j] for j in joined) < hi:
                        total += factor
            return total
        a = alpha[vj] - wij
        spread = beta[vj] - wij * wij - a * a / (d - 1.0)
        for m in range(d):
            if m == 0:
                mom = GaussianMoment(0.0, 0.0)
            elif m == d - 1:
                mom = GaussianMoment(a, 0.0)
            else:
                var = m * (d - 1.0 - m) / ((d - 1.0) * (d - 2.0)) * spread
                mom = GaussianMoment(m / (d - 1.0) * a, max(0.0, var))
            total += (d - m) / (d * (d + 1.0)) * gaussian_interval_prob(mom, lo, hi)
        return total

    def self_term(vi):
        d = deg[vi]
        if d == 0:
            return 1.0
        total = 0.0
        if d <= limit:
            weights = [w for _, w in in_adj[vi]]
            for m in range(d + 1):
                q = 1.0 / math.comb(d, m)
                for subset in combinations(weights, m):
                    if _left_sum(subset) < wc[vi]:
                        total += q
            return total / (1.0 + d)
        spread = beta[vi] - alpha[vi] * alpha[vi] / d
        for m in range(d + 1):
            if m == 0:
                mom = GaussianMoment(0.0, 0.0)
            elif m == d:
                mom = GaussianMoment(alpha[vi], 0.0)
            else:
                var = m * (d - m) / (d * (d - 1.0)) * spread
                mom = GaussianMoment(m / d * alpha[vi], max(0.0, var))
            total += gaussian_interval_prob(mom, -INF, wc[vi])
        return total / (1.0 + d)

    scores = []
    for vi in range(n):
        s = self_term(vi)
        for vj, wij in g.out_neighbors(vi):
            s += cross_term(vi, vj, wij)
        scores.append(s)
    return tuple(scores)


# Weights and cutoffs per kind: multiples of 0.1 put subset sums exactly on
# (or one rounding away from) the lo <= sum < hi boundaries.
_G5_KINDS = {
    "uniform": (st.floats(0.0, 1.0, exclude_min=True), st.floats(0.05, 3.0)),
    "integer": (st.integers(1, 4).map(float), st.integers(1, 8).map(float)),
    "tenth": (
        st.integers(1, 10).map(lambda k: k * 0.1),
        st.integers(1, 25).map(lambda k: k * 0.1),
    ),
}


@st.composite
def g5_cases(draw):
    n = draw(st.integers(1, 12))
    directed = draw(st.booleans())
    weight, cut = _G5_KINDS[draw(st.sampled_from(sorted(_G5_KINDS)))]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v, draw(weight)) for (u, v), k in zip(pairs, keep) if k]
    g = Graph.build(n, edges, directed=directed, weighted=True)
    if draw(st.booleans()):
        w_cutoff = {v: draw(cut) for v in range(n)}
    else:
        w_cutoff = draw(cut)
    return g, w_cutoff, draw(st.integers(2, 12))


def _hub_graph(hub_degree: int, directed: bool) -> Graph:
    """Hub 0 joined to every leaf (leaf -> hub when directed), leaves in a
    path, U(0.05, 1) weights."""
    rng = random.Random(hub_degree)
    edges = [(v, 0, rng.uniform(0.05, 1.0)) for v in range(1, hub_degree + 1)]
    edges += [(v, v + 1, rng.uniform(0.05, 1.0)) for v in range(1, hub_degree)]
    return Graph.build(hub_degree + 1, edges, directed=directed, weighted=True)


class TestWeightedThresholdSolver:
    @given(case=g5_cases())
    @settings(max_examples=80, deadline=None)
    def test_enumeration_matches_per_subset_loops_bit_for_bit(self, case):
        g, w_cutoff, limit = case
        assert shapley_g5(g, w_cutoff, limit).scores == g5_reference(g, w_cutoff, limit)

    @pytest.mark.parametrize("hub_degree, directed, w_cutoff", [(14, False, 2.5), (16, True, 3.0)])
    def test_high_degree_node_one_row_at_a_time(self, hub_degree, directed, w_cutoff):
        # hub_degree * 2**hub_degree exceeds the enumeration block, so the
        # hub's cross terms are built one in-neighbor row at a time
        g = _hub_graph(hub_degree, directed)
        got = shapley_g5(g, w_cutoff, brute_force_degree_limit=16).scores
        assert got == g5_reference(g, w_cutoff, 16)
        assert sum(got) == pytest.approx(float(g.node_count), abs=1e-9)

    def test_tenth_weights_on_the_cutoff_stay_efficient(self):
        # leaves 1..8 -> hub 0 and a leaf path, 0.1-multiple weights: subset
        # sums land on the cutoff 2.0, where testing S >= 2.0 - w_i instead
        # of the table's own S + {i} gave a sum of 8.996
        hub_w = [k * 0.1 for k in (3, 1, 4, 1, 5, 9, 2, 6)]
        edges = [(v, 0, w) for v, w in enumerate(hub_w, start=1)]
        edges += [(v, v + 1, 0.3) for v in range(1, 8)]
        g = Graph.build(9, edges, directed=True, weighted=True)
        got = shapley_g5(g, 2.0).scores
        assert abs(sum(got) - 9.0) <= 1e-12
        want = brute_force_shapley(g, GameSpec.weighted_threshold(2.0)).scores
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9

    def test_two_clique_splits_evenly(self):
        g = Graph.build(2, [(0, 1, 0.6)], weighted=True)
        got = shapley_g5(g, 0.5).scores
        assert got == pytest.approx((1.0, 1.0))

    def test_brute_force_path_matches_oracle(self):
        for seed in range(5):
            g = gen_complete_weighted(5, seed=seed)
            spec = GameSpec.weighted_threshold(1.0)
            want = brute_force_shapley(g, spec).scores
            got = shapley_g5(g, 1.0, brute_force_degree_limit=12).scores
            assert got == pytest.approx(want, abs=1e-9)

    def test_gaussian_path_stays_close_to_brute_force(self):
        g = gen_complete_weighted(8, seed=11)
        exact = shapley_g5(g, 1.5, brute_force_degree_limit=12).scores
        approx = shapley_g5(g, 1.5, brute_force_degree_limit=2).scores
        for a, b in zip(approx, exact):
            assert abs(a - b) / b < 0.25

    def test_isolated_node_is_always_counted(self):
        g = Graph.build(3, [(0, 1, 1.0)], weighted=True)
        assert shapley_g5(g, 0.5).scores[2] == 1.0

    @pytest.mark.parametrize("n, directed", [(0, False), (5, False), (5, True)])
    @pytest.mark.parametrize("limit", [2, 12])
    def test_empty_and_edgeless_graphs(self, n, directed, limit):
        g = Graph.build(n, [], directed=directed, weighted=True)
        assert shapley_g5(g, 0.5, brute_force_degree_limit=limit).scores == (1.0,) * n

    def test_degree_limit_below_two_rejected(self, path3):
        with pytest.raises(GameSpecError):
            shapley_g5(path3, 0.5, brute_force_degree_limit=1)

    def test_efficiency(self):
        g = gen_complete_weighted(9, seed=3)
        got = shapley_g5(g, 2.0, brute_force_degree_limit=12).scores
        assert sum(got) == pytest.approx(9.0, abs=1e-9)


class TestSolveDispatch:
    def test_method_tags(self, path3):
        assert solve(path3, GameSpec.fringe()).method == "exact"
        assert solve(path3, GameSpec.threshold(1)).method == "exact"
        assert solve(path3, GameSpec.cutoff(1.0)).method == "exact"
        assert solve(path3, GameSpec.proximity(DecayFn.exponential())).method == "exact"
        assert solve(path3, GameSpec.weighted_threshold(0.5)).method == "gaussian_approx"

    def test_game_tags(self, path3):
        for spec, tag in [
            (GameSpec.fringe(), "g1"),
            (GameSpec.threshold(1), "g2"),
            (GameSpec.cutoff(1.0), "g3"),
            (GameSpec.proximity(DecayFn.inv_linear()), "g4"),
            (GameSpec.weighted_threshold(0.5), "g5"),
        ]:
            assert solve(path3, spec).game == tag

    @pytest.mark.parametrize("seed", range(8))
    def test_efficiency_on_random_graphs(self, seed):
        g = random_small_graph(seed, n_max=10)
        n = g.node_count
        for spec in (
            GameSpec.fringe(),
            GameSpec.threshold(1),
            GameSpec.cutoff(1.2),
            GameSpec.proximity(DecayFn.inv_quadratic()),
        ):
            assert sum(solve(g, spec).scores) == pytest.approx(float(n), abs=1e-9)

    def test_linear_time_solvers_scale(self):
        import time

        times = []
        for n in (2000, 4000):
            g = gen_gnp(n, 5.0 / (n - 1), seed=7)
            t0 = time.perf_counter()
            shapley_g1(g)
            shapley_g2(g, 1)
            times.append(time.perf_counter() - t0)
        # doubling |V| at constant average degree should stay near-linear
        assert times[1] / times[0] < 8.0


def _twin_specs(g: Graph) -> list[GameSpec]:
    k = {v: 1 + len(g.in_neighbors(v)) // 2 for v in range(g.node_count)}
    return [
        GameSpec.fringe(),
        GameSpec.threshold(k),
        GameSpec.cutoff(1.5),
        GameSpec.proximity(DecayFn.exponential()),
        GameSpec.weighted_threshold(1.2),
    ]


class TestUndirectedIsSymmetricDirectedTwin:
    """An undirected graph scores like its symmetric directed twin, bit
    for bit, in every solver."""

    @given(pair=undirected_twins())
    @settings(max_examples=60, deadline=None)
    def test_exact_solvers(self, pair):
        g, twin = pair
        for spec in _twin_specs(g):
            for limit in (2, 12):
                assert solve(g, spec, limit).scores == solve(twin, spec, limit).scores

    @given(pair=undirected_twins(), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_permutation_contributions(self, pair, seed):
        g, twin = pair
        perm = random.Random(seed).sample(range(g.node_count), g.node_count)
        for spec in _twin_specs(g):
            assert permutation_contributions(g, spec, perm) == (
                permutation_contributions(twin, spec, perm)
            )

    @given(pair=undirected_twins(n_max=7))
    @settings(max_examples=15, deadline=None)
    def test_brute_force_oracle(self, pair):
        g, twin = pair
        for spec in _twin_specs(g):
            assert brute_force_shapley(g, spec).scores == brute_force_shapley(twin, spec).scores
