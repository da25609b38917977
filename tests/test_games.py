from __future__ import annotations

import functools
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapcent import Graph, characteristic_value, grand_value, load_node_params
from shapcent.exact import shapley_g4
from shapcent.games import DecayFn, GameSpec, GameSpecError, _step, decay_values, step_threshold
from shapcent.graph import distance_matrix

from .conftest import random_small_graph

INF = math.inf


class TestDecayFn:
    def test_builtin_variants(self):
        assert DecayFn.inv_linear()(1.0) == 0.5
        assert DecayFn.inv_quadratic()(2.0) == 0.2
        assert DecayFn.exponential()(0.0) == 1.0
        assert DecayFn.exponential()(INF) == 0.0
        step = DecayFn.step(1.5)
        assert step(1.5) == 1.0 and step(1.6) == 0.0

    def test_step_threshold_must_be_positive(self):
        with pytest.raises(GameSpecError):
            DecayFn.step(0.0)

    def test_custom_accepts_valid_decay(self):
        f = DecayFn.custom(lambda d: 2.0 / (2.0 + d))
        assert f(2.0) == 0.5

    def test_custom_rejects_negative(self):
        with pytest.raises(GameSpecError, match="nonnegative"):
            DecayFn.custom(lambda d: -1.0 if d > 1 else 1.0 / (1.0 + d))

    def test_custom_rejects_increasing(self):
        with pytest.raises(GameSpecError, match="non-increasing"):
            DecayFn.custom(lambda d: min(d, 1.0) if d != INF else 0.0)

    def test_custom_rejects_nonvanishing(self):
        with pytest.raises(GameSpecError, match="vanish"):
            DecayFn.custom(lambda d: 1.0)

    def test_custom_rejects_infinite_at_zero(self):
        with pytest.raises(GameSpecError, match="finite"):
            DecayFn.custom(lambda d: 1.0 / d if d > 0 else INF)

    def test_custom_rejects_nan_past_zero(self):
        with pytest.raises(GameSpecError, match="finite"):
            DecayFn.custom(lambda d: 1.0 if d == 0 else (0.0 if d == INF else math.nan))

    @pytest.mark.parametrize("value", [None, "1", 1j])
    def test_custom_rejects_non_numeric_values(self, value):
        with pytest.raises(GameSpecError, match="real numbers"):
            GameSpec.proximity(lambda d: value)

    def test_step_that_never_vanishes_is_rejected(self):
        with pytest.raises(GameSpecError, match="vanish"):
            DecayFn.step(INF)

    def test_proximity_and_shapley_g4_check_a_raw_callable(self, path3):
        with pytest.raises(GameSpecError, match="vanish"):
            GameSpec.proximity(lambda d: 1.0)
        with pytest.raises(GameSpecError, match="vanish"):
            shapley_g4(path3, lambda d: 1.0)

    def test_factory_decays_pickle_inside_a_spec(self):
        for decay in (DecayFn.inv_linear(), DecayFn.inv_quadratic(),
                      DecayFn.exponential(), DecayFn.step(1.5)):
            spec = pickle.loads(pickle.dumps(GameSpec.proximity(decay)))
            assert [spec.decay(d) for d in (0.0, 1.5, 2.0, INF)] == [
                decay(d) for d in (0.0, 1.5, 2.0, INF)
            ]


# distances at the edges of the float range: zero, subnormals, the least
# normal, a square that overflows, and +inf
_EDGE_DISTANCES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1e154, 1e308, INF]


class TestDecayValues:
    @pytest.mark.parametrize("f", [
        DecayFn.inv_linear(), DecayFn.inv_quadratic(), DecayFn.exponential(),
        DecayFn.step(0.8), DecayFn.step(3), DecayFn.step(1e308),
        DecayFn.custom(lambda d: max(0.0, 1.0 - d / 3.0)),
    ])
    @given(d=st.lists(st.floats(0.0, 50.0) | st.floats(0.0, INF) | st.sampled_from(_EDGE_DISTANCES),
                      max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_array_forms_are_the_scalar_decays_bit_for_bit(self, f, d):
        got = decay_values(f, np.array(d, dtype=float))
        want = [f(x) for x in d]
        assert struct.pack(f"<{len(d)}d", *got) == struct.pack(f"<{len(d)}d", *want)

    def test_step_threshold_reads_c_of_a_step_only(self):
        assert step_threshold(DecayFn.step(0.8)) == 0.8
        assert step_threshold(DecayFn.step(3)) == 3.0
        # an int a float does not hold, or a c of another type, keeps f scalar
        assert step_threshold(DecayFn.step(10**400)) == INF
        assert step_threshold(functools.partial(_step, c=np.float32(0.5))) == INF
        assert step_threshold(DecayFn.exponential()) == INF
        assert step_threshold(lambda d: 1.0 if d <= 1.0 else 0.0) == INF


class TestGameSpec:
    def test_unknown_tag(self):
        with pytest.raises(GameSpecError, match="unknown game tag"):
            GameSpec("g9")

    def test_missing_required_parameter(self):
        for game in ("g2", "g3", "g4", "g5"):
            with pytest.raises(GameSpecError, match="requires its parameter"):
                GameSpec(game)

    def test_k_values_broadcast_and_check(self, star4):
        assert GameSpec.threshold(2).k_values(star4) == [2, 2, 2, 2]
        assert GameSpec.threshold({0: 4, 1: 1, 2: 2, 3: 2}).k_values(star4) == [4, 1, 2, 2]

    def test_k_out_of_range(self, star4):
        with pytest.raises(GameSpecError, match=r"k\(1\)"):
            GameSpec.threshold(3).k_values(star4)  # leaves have degree 1
        with pytest.raises(GameSpecError, match=r"k\(0\)"):
            GameSpec.threshold(0).k_values(star4)

    def test_k_uses_in_degree_when_directed(self):
        g = Graph.build(3, [(0, 2, 1.0), (1, 2, 1.0)], directed=True)
        assert GameSpec.threshold({0: 1, 1: 1, 2: 3}).k_values(g) == [1, 1, 3]
        with pytest.raises(GameSpecError):
            GameSpec.threshold(2).k_values(g)  # sources have in-degree 0

    def test_k_must_be_whole(self, star4):
        with pytest.raises(GameSpecError, match="not a whole number"):
            GameSpec.threshold(1.7).k_values(star4)
        with pytest.raises(GameSpecError, match=r"k\(2\) = 1.5 is not a whole number"):
            GameSpec.threshold({0: 1, 1: 1, 2: 1.5, 3: 1}).k_values(star4)
        assert GameSpec.threshold(2.0).k_values(star4) == [2, 2, 2, 2]

    def test_numpy_scalars_are_uniform_values(self, star4):
        assert GameSpec.threshold(np.int64(2)).k_values(star4) == [2, 2, 2, 2]
        assert GameSpec.cutoff(np.float32(0.5)).d_cutoff_values(star4) == [0.5] * 4
        assert GameSpec.weighted_threshold(np.float64(1.5)).w_cutoff_values(star4) == [1.5] * 4

    @pytest.mark.parametrize("bad", ["1.0", [1, 1, 1, 1], np.array([1.0, 1.0]), 1j])
    def test_non_scalar_non_map_rejected(self, bad):
        with pytest.raises(GameSpecError, match="must be a number or a per-node map"):
            GameSpec.threshold(bad)
        with pytest.raises(GameSpecError, match="must be a number or a per-node map"):
            GameSpec.cutoff(bad)

    def test_map_missing_node(self, path3):
        with pytest.raises(GameSpecError, match="missing node 2"):
            GameSpec.cutoff({0: 1.0, 1: 1.0}).d_cutoff_values(path3)

    @pytest.mark.parametrize("extra", [3, 99, -4])
    def test_map_unknown_node(self, path3, extra):
        full = {0: 1, 1: 1, 2: 1, extra: 1}
        with pytest.raises(GameSpecError, match=f"names node {extra} outside"):
            GameSpec.threshold(full).k_values(path3)
        with pytest.raises(GameSpecError, match=f"map d_cutoff names node {extra}"):
            GameSpec.cutoff(full).d_cutoff_values(path3)
        with pytest.raises(GameSpecError, match=f"map w_cutoff names node {extra}"):
            GameSpec.weighted_threshold(full).w_cutoff_values(path3)

    def test_cutoffs_must_be_positive(self, path3):
        with pytest.raises(GameSpecError):
            GameSpec.cutoff(0.0).d_cutoff_values(path3)
        with pytest.raises(GameSpecError):
            GameSpec.weighted_threshold({0: 1.0, 1: -0.5, 2: 1.0}).w_cutoff_values(path3)


class TestLoadNodeParams:
    def test_parses_ints_and_floats(self):
        assert load_node_params("0,2\n1,3\n", integral=True) == {0: 2, 1: 3}
        assert load_node_params("# c\n0,1.5\n") == {0: 1.5}

    def test_duplicate_node(self):
        with pytest.raises(GameSpecError, match="duplicate node"):
            load_node_params("0,1\n0,2\n")

    def test_bad_value(self):
        with pytest.raises(GameSpecError, match="line 1"):
            load_node_params("0,two\n", integral=True)
        with pytest.raises(GameSpecError, match="expected"):
            load_node_params("0,1,2\n")


class TestCharacteristicValues:
    def test_empty_coalition_is_zero(self, path3):
        for spec in (
            GameSpec.fringe(),
            GameSpec.threshold(1),
            GameSpec.cutoff(1.0),
            GameSpec.proximity(DecayFn.inv_linear()),
            GameSpec.weighted_threshold(1.0),
        ):
            assert characteristic_value(path3, spec, []) == 0.0

    def test_empty_coalition_still_checks_the_spec(self, path3):
        for spec in (GameSpec.threshold(99), GameSpec.cutoff(-1.0)):
            for coalition in ([], [0]):
                with pytest.raises(GameSpecError):
                    characteristic_value(path3, spec, coalition)

    def test_fringe_counts_one_hop(self, path3):
        spec = GameSpec.fringe()
        assert characteristic_value(path3, spec, [0]) == 2.0
        assert characteristic_value(path3, spec, [1]) == 3.0
        assert characteristic_value(path3, spec, [0, 2]) == 3.0

    def test_threshold_requires_k_hits(self, star4):
        spec = GameSpec.threshold(2)
        assert characteristic_value(star4, spec, [1]) == 1.0  # center needs 2 hits
        assert characteristic_value(star4, spec, [1, 2]) == 3.0
        assert characteristic_value(star4, spec, [0]) == 1.0  # leaves need 2 > deg hits

    def test_cutoff_counts_reach(self, path3):
        spec = GameSpec.cutoff(1.0)
        assert characteristic_value(path3, spec, [0]) == 2.0
        assert characteristic_value(path3, spec, [1]) == 3.0
        spec2 = GameSpec.cutoff(2.0)
        assert characteristic_value(path3, spec2, [0]) == 3.0

    def test_proximity_sums_decay(self, path3):
        spec = GameSpec.proximity(DecayFn.inv_linear())
        assert characteristic_value(path3, spec, [0]) == pytest.approx(1 + 0.5 + 1 / 3)
        assert characteristic_value(path3, spec, [1]) == pytest.approx(2.0)

    def test_weighted_threshold_sums_edge_weights(self):
        g = Graph.build(3, [(0, 2, 0.4), (1, 2, 0.4)], weighted=True)
        spec = GameSpec.weighted_threshold({0: 9.0, 1: 9.0, 2: 0.7})
        assert characteristic_value(g, spec, [0]) == 1.0
        assert characteristic_value(g, spec, [0, 1]) == 3.0  # 0.8 >= 0.7 tips node 2

    def test_directed_influence_follows_edges(self):
        g = Graph.build(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        spec = GameSpec.fringe()
        assert characteristic_value(g, spec, [0]) == 2.0  # covers itself and 1
        assert characteristic_value(g, spec, [2]) == 1.0  # no out-edges

    def test_invalid_coalition_member(self, path3):
        with pytest.raises(GameSpecError, match="invalid node id"):
            characteristic_value(path3, GameSpec.fringe(), [7])

    def test_distance_context_matches_fresh_computation(self):
        g = random_small_graph(3, n_max=7)
        ctx = distance_matrix(g, "forward")
        for spec in (GameSpec.cutoff(1.5), GameSpec.proximity(DecayFn.exponential())):
            for coalition in ([0], [0, 1], list(range(g.node_count))):
                assert characteristic_value(g, spec, coalition, ctx) == pytest.approx(
                    characteristic_value(g, spec, coalition), abs=1e-12
                )

    @given(seed=st.integers(0, 300), game=st.sampled_from(["g1", "g2", "g3", "g4", "g5"]))
    @settings(max_examples=40, deadline=None)
    def test_value_monotone_under_coalition_growth(self, seed, game):
        g = random_small_graph(seed, n_max=6)
        spec = {
            "g1": GameSpec.fringe(),
            "g2": GameSpec.threshold(1),
            "g3": GameSpec.cutoff(1.0),
            "g4": GameSpec.proximity(DecayFn.inv_linear()),
            "g5": GameSpec.weighted_threshold(0.5),
        }[game]
        import numpy as np

        rng = np.random.default_rng(seed)
        perm = rng.permutation(g.node_count).tolist()
        prev = 0.0
        for i in range(1, g.node_count + 1):
            val = characteristic_value(g, spec, perm[:i])
            assert val >= prev - 1e-12
            prev = val

    def test_grand_value(self, path3):
        assert grand_value(path3, GameSpec.fringe()) == 3.0
        assert grand_value(path3, GameSpec.weighted_threshold(1.0)) == 3.0
        half = DecayFn.custom(lambda d: 0.5 / (1.0 + d))
        assert grand_value(path3, GameSpec.proximity(half)) == 1.5
