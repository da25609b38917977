from __future__ import annotations

import pytest

from shapcent import brute_force_shapley, grand_value
from shapcent.bench import gen_complete_weighted, gen_gnp
from shapcent.games import DecayFn, GameSpec
from shapcent.oracle import OracleSizeError

from .conftest import permutation_shapley


def _all_specs():
    return [
        GameSpec.fringe(),
        GameSpec.threshold(1),
        GameSpec.threshold({0: 1, 1: 2, 2: 1, 3: 1, 4: 1}),
        GameSpec.cutoff(1.0),
        GameSpec.proximity(DecayFn.inv_linear()),
        GameSpec.proximity(DecayFn.step(1.5)),
        GameSpec.weighted_threshold(0.8),
    ]


class TestBruteForce:
    def test_refuses_large_graphs(self):
        g = gen_gnp(17, 0.2, seed=1)
        with pytest.raises(OracleSizeError, match="17 nodes"):
            brute_force_shapley(g, GameSpec.fringe())

    def test_node_limit_override(self):
        g = gen_gnp(5, 0.5, seed=1)
        with pytest.raises(OracleSizeError):
            brute_force_shapley(g, GameSpec.fringe(), node_limit=4)

    def test_method_tag(self, path3):
        assert brute_force_shapley(path3, GameSpec.fringe()).method == "brute_force"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_permutation_average(self, seed):
        """Coalition-sum and permutation-average forms agree on 5 nodes."""
        g = gen_gnp(5, 0.6, seed=seed, weighted=True)
        k2_ok = all(g.in_neighbors(v) for v in range(5))
        for spec in _all_specs():
            if spec.game == "g2" and isinstance(spec.k, dict) and not k2_ok:
                continue
            want = permutation_shapley(g, spec)
            got = brute_force_shapley(g, spec).scores
            assert got == pytest.approx(want, abs=1e-10)

    def test_matches_permutation_average_directed(self):
        g = gen_gnp(5, 0.6, seed=9, weighted=True, directed=True)
        for spec in (
            GameSpec.fringe(),
            GameSpec.threshold(1),
            GameSpec.cutoff(1.0),
            GameSpec.proximity(DecayFn.exponential()),
            GameSpec.weighted_threshold(0.6),
        ):
            want = permutation_shapley(g, spec)
            got = brute_force_shapley(g, spec).scores
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_efficiency(self, seed):
        g = gen_complete_weighted(6, seed=seed)
        for spec in _all_specs():
            if isinstance(spec.k, dict):
                continue  # map shaped for 5 nodes
            vec = brute_force_shapley(g, spec)
            assert sum(vec.scores) == pytest.approx(grand_value(g, spec), abs=1e-9)
