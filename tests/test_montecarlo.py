from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapcent import max_relative_error, mc_shapley, solve
from shapcent.bench import gen_complete_weighted, gen_gnp
from shapcent.games import DecayFn, GameSpec, characteristic_value, grand_value
from shapcent.montecarlo import ConvergenceTrace, permutation_contributions

from .conftest import random_small_graph, unit_graphs


def _specs_for(g):
    return [
        GameSpec.fringe(),
        GameSpec.threshold(1),
        GameSpec.cutoff(1.0),
        GameSpec.proximity(DecayFn.inv_linear()),
        GameSpec.weighted_threshold(0.7),
    ]


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
