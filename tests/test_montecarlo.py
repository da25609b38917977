from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapcent import Graph, max_relative_error, mc_shapley, montecarlo, solve
from shapcent.bench import gen_complete_weighted, gen_gnp
from shapcent.games import (
    DecayFn,
    GameSpec,
    characteristic_value,
    grand_value,
)
from shapcent.graph import distance_matrix
from shapcent.montecarlo import ConvergenceTrace

from .conftest import (
    arc_lists,
    permutation_contributions,
    random_small_graph,
    settle_covers,
    tenth_hubs,
    unit_graphs,
)

INF = math.inf


def reference_block(g: Graph, spec: GameSpec):
    """The sampler's per-game blocks as they were before batching, kept as
    an independent reference. The returned callable walks one permutation
    in pure Python, adds each node's marginal contribution into the
    accumulator, and returns the iteration's total."""
    n = g.node_count
    game = spec.game
    out_ids = [[u for u, _ in adj] for adj in arc_lists(g.out_arcs)]

    if game in ("g1", "g3"):
        # g1 is the coverage game of g3 over the one-hop covers
        covers = out_ids if game == "g1" else settle_covers(g, spec.d_cutoff_values(g))
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
        nbrs = out_ids
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
    adj = arc_lists(g.out_arcs)
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

def reference_mc(g, spec, max_iter, seed, reference=None, error_stride=5, stop_error=None):
    """mc_shapley before batching: one permutation at a time through
    reference_block, the same rows and stopping rule. Returns the scores
    and the trace rows without their elapsed times."""
    n = g.node_count
    rng = np.random.default_rng(seed)
    block = reference_block(g, spec)
    acc = [0.0] * n
    rows = []
    done = 0
    for it in range(1, max_iter + 1):
        block(rng.permutation(n).tolist(), acc)
        done = it
        if reference is not None and it % error_stride == 0:
            err = 0.0
            for r, e in zip(reference.scores, [s / it for s in acc]):
                err = max(err, abs(e - r) / r)
            rows.append((it, err))
            if stop_error is not None and err <= stop_error:
                break
    return tuple(s / done for s in acc), rows


def _specs_for(g):
    return [
        GameSpec.fringe(),
        GameSpec.threshold(1),
        GameSpec.cutoff(1.0),
        GameSpec.proximity(DecayFn.inv_linear()),
        GameSpec.weighted_threshold(0.7),
    ]


def _parity_specs(g: Graph) -> list[GameSpec]:
    deg = np.diff(g.in_arcs.ptr).tolist()
    return [
        GameSpec.fringe(),
        # every k from 1 to 1 + deg, the last never reached by neighbors
        GameSpec.threshold({v: 1 + v % (d + 1) for v, d in enumerate(deg)}),
        GameSpec.cutoff(2.0 if not g.weighted else 0.8),
        GameSpec.proximity(DecayFn.step(1.0) if not g.weighted else DecayFn.inv_linear()),
        GameSpec.weighted_threshold(1.5 if not g.weighted else 0.7),
    ]


def assert_matches_reference(g, spec, seed, stride, stop, max_iter=120):
    """mc_shapley's scores and trace rows, elapsed apart, equal those of
    reference_mc: bit for bit for g1, g2, g3 and g5, within 1e-12 for g4."""
    reference = solve(g, spec)
    got, trace = mc_shapley(g, spec, max_iter=max_iter, seed=seed, reference=reference,
                            error_stride=stride, stop_error=stop, check_sums=True)
    want, rows = reference_mc(g, spec, max_iter, seed, reference, stride, stop)
    got_rows = [(it, err) for it, _, err in trace.rows]
    if spec.game == "g4":
        assert [it for it, _ in got_rows] == [it for it, _ in rows]
        assert [err for _, err in got_rows] == pytest.approx([err for _, err in rows], abs=1e-12)
        assert got.scores == pytest.approx(want, abs=1e-12)
    else:
        assert got_rows == rows
        assert got.scores == want


STRIDES = (1, 3, 5, 100)


class TestBatchedSamplerParity:
    """The batched sampler against the one-permutation-at-a-time blocks."""

    @given(g=unit_graphs(), seed=st.integers(0, 1000), game=st.integers(0, 4),
           stride=st.sampled_from(STRIDES), stop=st.sampled_from([None, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_unit_graphs(self, g, seed, game, stride, stop):
        assert_matches_reference(g, _parity_specs(g)[game], seed, stride, stop)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("stride", STRIDES)
    def test_weighted_graphs(self, directed, stride):
        g = gen_gnp(40, 0.12, seed=31 + stride, weighted=True, directed=directed)
        for spec in _parity_specs(g):
            for stop in (None, 0.3):
                assert_matches_reference(g, spec, 7 * stride, stride, stop)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("stride", STRIDES)
    def test_g5_sums_landing_on_the_cutoff(self, directed, stride):
        g, cut = tenth_hubs(directed)
        for stop in (None, 0.2):
            assert_matches_reference(g, GameSpec.weighted_threshold(cut), stride, stride, stop,
                                     max_iter=300)

    @pytest.mark.parametrize("budget", [1, 20, 200])
    def test_element_budget_splits_batches(self, budget):
        # a small budget splits batches below the stride; the g4 block
        # walks arrivals one at a time and reads no budget
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_BATCH_BLOCK", budget)
            for directed in (False, True):
                g = gen_gnp(12, 0.3, seed=budget, weighted=True, directed=directed)
                for spec in _parity_specs(g):
                    assert_matches_reference(g, spec, budget, 5, None, max_iter=40)
            g, cut = tenth_hubs(False)
            assert_matches_reference(g, GameSpec.weighted_threshold(cut), budget, 5, None)


class TestIncrementalBlocks:
    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_equal_direct_value_differences(self, seed):
        g = random_small_graph(seed, n_max=7)
        rng = np.random.default_rng(seed + 99)
        for spec in _specs_for(g):
            for _ in range(10):
                perm = rng.permutation(g.node_count).tolist()
                got = permutation_contributions(g, spec, perm)
                before = 0.0
                for pos, v in enumerate(perm):
                    after = characteristic_value(g, spec, perm[: pos + 1])
                    direct = after - before
                    if spec.game == "g4":
                        # float accumulation order differs from the direct form
                        assert got[v] == pytest.approx(direct, abs=1e-12)
                    else:
                        assert got[v] == direct
                    before = after

    @pytest.mark.parametrize("seed", range(4))
    def test_iteration_totals_telescope_to_grand_value(self, seed):
        g = random_small_graph(seed, n_max=8)
        for spec in _specs_for(g):
            # check_sums asserts every iteration total equals nu(V)
            mc_shapley(g, spec, max_iter=20, seed=seed, check_sums=True)


    @given(g=unit_graphs(), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_g1_block_is_g3_block_at_unit_cutoff(self, g, seed):
        perm = np.random.default_rng(seed).permutation(g.node_count).tolist()
        assert permutation_contributions(g, GameSpec.fringe(), perm) == (
            permutation_contributions(g, GameSpec.cutoff(1.0), perm)
        )


class TestProximityBlock:
    def test_decay_is_evaluated_only_where_an_arrival_brings_a_node_closer(self):
        n = 30
        g = Graph.build(n, [(v, v + 1, 1.0) for v in range(n - 1)])
        calls = [0]

        def counting_exp(d):
            calls[0] += 1
            return math.exp(-d)

        spec = GameSpec.proximity(DecayFn.custom(counting_exp))
        calls[0] = 0  # DecayFn.custom probes the decay at _DECAY_PROBE
        block, _ = montecarlo._build_block(g, spec)
        assert calls[0] == 0
        dmat = distance_matrix(g, "forward").tolist()
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(n)
            # one call per (arrival, node brought closer) pair
            dist, pairs = [INF] * n, 0
            for v in perm.tolist():
                for u in range(n):
                    if dmat[v][u] < dist[u]:
                        dist[u] = dmat[v][u]
                        pairs += 1
            calls[0] = 0
            block(perm.reshape(1, n))
            assert calls[0] == pairs < n * n

    @pytest.mark.parametrize("directed", [False, True])
    def test_contributions_equal_the_table_reference_bit_for_bit(self, directed):
        # U(0, 1] weights on ~5 arcs per node: the gains of one arrival add
        # to different bits in another order, so this pins ascending node id
        n = 150
        g = gen_gnp(n, 5 / (n - 1), seed=8, weighted=True, directed=directed)
        spec = GameSpec.proximity(DecayFn.exponential())
        table_block = reference_block(g, spec)
        rng = np.random.default_rng(4)
        for _ in range(5):
            perm = rng.permutation(n).tolist()
            want = [0.0] * n
            table_block(perm, want)
            assert permutation_contributions(g, spec, perm) == want

    def test_builds_no_all_pairs_table(self):
        n = 2000
        rng = np.random.default_rng(5)
        # a ring with chords of stride 37: sparse, connected, no repeated pair
        edges = [(v, (v + stride) % n, w) for stride in (1, 37)
                 for v, w in enumerate((1.0 - rng.random(n)).tolist())]
        g = Graph.build(n, edges, weighted=True)
        perms = [rng.permutation(n).reshape(1, n) for _ in range(3)]
        tracemalloc.start()
        try:
            block, _ = montecarlo._build_block(g, GameSpec.proximity(DecayFn.exponential()))
            for perm in perms:
                block(perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20  # an (n, n) float64 table alone takes 32 MB


class TestMcShapley:
    def test_same_seed_is_bit_identical(self):
        g = gen_gnp(20, 0.3, seed=5)
        a, _ = mc_shapley(g, GameSpec.fringe(), max_iter=50, seed=123)
        b, _ = mc_shapley(g, GameSpec.fringe(), max_iter=50, seed=123)
        assert a.scores == b.scores

    def test_different_seeds_differ(self):
        g = gen_gnp(20, 0.3, seed=5)
        a, _ = mc_shapley(g, GameSpec.fringe(), max_iter=50, seed=1)
        b, _ = mc_shapley(g, GameSpec.fringe(), max_iter=50, seed=2)
        assert a.scores != b.scores

    def test_converges_to_exact(self):
        g = gen_gnp(30, 0.2, seed=8)
        exact = solve(g, GameSpec.fringe())
        est, trace = mc_shapley(
            g, GameSpec.fringe(), max_iter=3000, seed=4, reference=exact
        )
        assert trace.rows[-1][2] < 0.10
        assert max_relative_error(exact, est) < 0.10

    def test_trace_rows_follow_stride(self):
        g = gen_gnp(10, 0.4, seed=2)
        exact = solve(g, GameSpec.fringe())
        _, trace = mc_shapley(
            g, GameSpec.fringe(), max_iter=23, seed=1, reference=exact, error_stride=5
        )
        assert [it for it, _, _ in trace.rows] == [5, 10, 15, 20]
        assert trace.error_stride == 5
        assert trace.reference == "exact"

    def test_no_reference_means_no_rows(self):
        g = gen_gnp(10, 0.4, seed=2)
        _, trace = mc_shapley(g, GameSpec.fringe(), max_iter=20, seed=1)
        assert trace.rows == ()
        assert trace.reference == "none"

    def test_stop_error_ends_early(self):
        g = gen_gnp(15, 0.4, seed=3)
        exact = solve(g, GameSpec.fringe())
        est, trace = mc_shapley(
            g,
            GameSpec.fringe(),
            max_iter=100_000,
            seed=11,
            reference=exact,
            stop_error=0.20,
        )
        last_it, _, last_err = trace.rows[-1]
        assert last_err <= 0.20
        assert last_it < 100_000
        # scores are normalized by the iterations actually run
        assert sum(est.scores) == pytest.approx(15.0, abs=1e-9)

    @pytest.mark.parametrize("n, directed", [(0, False), (5, False), (5, True)])
    @pytest.mark.parametrize("spec", [GameSpec.threshold(1), GameSpec.weighted_threshold(0.5)])
    def test_empty_and_edgeless_graphs(self, n, directed, spec):
        g = Graph.build(n, [], directed=directed, weighted=True)
        est, _ = mc_shapley(g, spec, max_iter=7, seed=1, error_stride=3)
        assert est.scores == (1.0,) * n

    def test_bad_arguments(self, path3):
        with pytest.raises(ValueError, match="max_iter"):
            mc_shapley(path3, GameSpec.fringe(), max_iter=0, seed=1)
        for stride in (0, -1):
            with pytest.raises(ValueError, match="error_stride must be >= 1"):
                mc_shapley(path3, GameSpec.fringe(), max_iter=10, seed=1, error_stride=stride)
        wrong_ref = solve(gen_gnp(5, 0.5, seed=1), GameSpec.fringe())
        with pytest.raises(ValueError, match="reference length"):
            mc_shapley(path3, GameSpec.fringe(), max_iter=10, seed=1, reference=wrong_ref)

    def test_method_and_game_tags(self, path3):
        est, _ = mc_shapley(path3, GameSpec.cutoff(1.0), max_iter=10, seed=0)
        assert est.method == "monte_carlo"
        assert est.game == "g3"

    def test_weighted_threshold_sampling_is_consistent(self):
        g = gen_complete_weighted(6, seed=21)
        spec = GameSpec.weighted_threshold(1.0)
        est, _ = mc_shapley(g, spec, max_iter=4000, seed=9)
        assert sum(est.scores) == pytest.approx(grand_value(g, spec), abs=1e-9)


class TestTrace:
    def test_csv_layout(self):
        trace = ConvergenceTrace(
            rows=((5, 0.001, 0.5), (10, 0.002, 0.25)),
            error_stride=5,
            reference="exact",
            precompute_seconds=0.0,
        )
        lines = trace.to_csv().splitlines()
        assert lines[0] == "iteration,elapsed_ms,max_rel_error"
        assert lines[1] == "5,1,0.5"

    def test_first_at_or_below(self):
        trace = ConvergenceTrace(
            rows=((5, 0.1, 0.5), (10, 0.2, 0.08), (15, 0.3, 0.02)),
            error_stride=5,
            reference="exact",
            precompute_seconds=0.0,
        )
        assert trace.first_at_or_below(0.10) == (10, 0.2)
        assert trace.first_at_or_below(0.001) is None


class TestMaxRelativeError:
    def test_basic(self):
        assert max_relative_error((1.0, 2.0), (1.1, 2.0)) == pytest.approx(0.1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            max_relative_error((1.0,), (1.0, 2.0))

    def test_nonpositive_reference(self):
        with pytest.raises(ValueError, match="nonpositive"):
            max_relative_error((0.0, 1.0), (0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_estimate(self, bad):
        # a NaN must not drop out of the maximum and read as no error
        for estimate in ((bad, 2.0), np.array([1.0, bad])):
            with pytest.raises(ValueError, match="non-finite estimate"):
                max_relative_error((1.0, 2.0), estimate)

    def test_non_finite_reference(self):
        with pytest.raises(ValueError, match="non-finite reference"):
            max_relative_error((1.0, math.inf), (1.0, 2.0))

    def test_arrays_and_sequences_agree(self):
        ref, est = [1.0, 2.0, 4.0], [1.1, 1.5, 4.0]
        got = max_relative_error(np.array(ref), np.array(est))
        assert got == max_relative_error(ref, est) == abs(1.5 - 2.0) / 2.0
        assert max_relative_error((), ()) == 0.0
