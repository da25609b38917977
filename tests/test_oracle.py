from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapcent import Graph, brute_force_shapley, grand_value
from shapcent.bench import gen_complete_weighted, gen_gnp
from shapcent.cli import main
from shapcent.games import DecayFn, GameSpec, GameSpecError, characteristic_value
from shapcent.graph import distance_matrix
from shapcent.oracle import OracleSizeError

from .conftest import (
    permutation_shapley,
    tenth_hubs,
    undirected_twins,
    unit_graphs,
    weighted_graphs,
)


def reference_brute_force(g: Graph, spec: GameSpec) -> tuple[float, ...]:
    """brute_force_shapley as it was before the value table, kept as an
    independent reference: per node i, every coalition S of the other
    nodes is evaluated twice through characteristic_value, as S + {i} and
    as S, and weight[|S|] * the gain is added over S in mask order."""
    n = g.node_count
    ctx = distance_matrix(g, "forward") if spec.game in ("g3", "g4") else None
    fact = [math.factorial(i) for i in range(n + 1)]
    weight = [fact[s] * fact[n - 1 - s] / fact[n] for s in range(n)]
    scores = []
    for i in range(n):
        others = [v for v in range(n) if v != i]
        total = 0.0
        for mask in range(1 << (n - 1)):
            coalition = [others[b] for b in range(n - 1) if mask >> b & 1]
            gain = characteristic_value(
                g, spec, coalition + [i], ctx
            ) - characteristic_value(g, spec, coalition, ctx)
            total += weight[len(coalition)] * gain
        scores.append(total)
    return tuple(scores)


@st.composite
def oracle_cases(draw):
    """A graph with at most 8 nodes and one spec of each game: per-node k,
    d_cutoff and w_cutoff maps or uniform values."""
    g = draw(st.one_of(unit_graphs(n_max=8), weighted_graphs(n_max=8),
                       undirected_twins(n_max=8).flatmap(st.sampled_from)))
    n = g.node_count
    deg = [len(g.in_neighbors(v)) for v in range(n)]
    cut = st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0])

    def per_node(values):
        return draw(st.one_of(values, st.fixed_dictionaries({v: values for v in range(n)})))

    k = draw(st.one_of(st.just(1), st.fixed_dictionaries(
        {v: st.integers(1, 1 + d) for v, d in enumerate(deg)})))
    decay = draw(st.sampled_from([DecayFn.inv_linear(), DecayFn.exponential(),
                                  DecayFn.step(1.0)]))
    return g, [GameSpec.fringe(), GameSpec.threshold(k), GameSpec.cutoff(per_node(cut)),
               GameSpec.proximity(decay), GameSpec.weighted_threshold(per_node(cut))]


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


class TestValueTable:
    @given(case=oracle_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_node_loop_bit_for_bit(self, case):
        g, specs = case
        for spec in specs:
            assert brute_force_shapley(g, spec).scores == reference_brute_force(g, spec)

    @pytest.mark.parametrize("directed", [False, True])
    def test_tenth_hub_sums_on_the_cutoff(self, directed):
        g, cut = tenth_hubs(directed)
        spec = GameSpec.weighted_threshold(cut)
        assert brute_force_shapley(g, spec).scores == reference_brute_force(g, spec)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_node_graphs(self, n):
        g = Graph.build(n, [])
        for spec in (GameSpec.fringe(), GameSpec.threshold({v: 1 for v in range(n)}),
                     GameSpec.cutoff(1.0), GameSpec.proximity(DecayFn.step(2.0)),
                     GameSpec.weighted_threshold({v: 0.5 for v in range(n)})):
            got = brute_force_shapley(g, spec).scores
            assert got == reference_brute_force(g, spec) == (1.0,) * n

    @given(g=weighted_graphs(n_max=8))
    @settings(max_examples=40, deadline=None)
    def test_efficiency_on_random_graphs(self, g):
        for spec in (GameSpec.fringe(), GameSpec.threshold(1), GameSpec.cutoff(0.7),
                     GameSpec.proximity(DecayFn.inv_linear())):
            total = sum(brute_force_shapley(g, spec).scores)
            assert total == pytest.approx(grand_value(g, spec), abs=1e-9)


class TestParametersCheckedOnce:
    def test_one_check_per_run(self, monkeypatch):
        g = gen_gnp(8, 0.4, seed=3, weighted=True, directed=True)
        calls = {}
        for name in ("k_values", "d_cutoff_values", "w_cutoff_values"):
            original = getattr(GameSpec, name)

            def counted(self, graph, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(self, graph)

            monkeypatch.setattr(GameSpec, name, counted)
        for spec in (GameSpec.threshold({v: 1 for v in range(8)}),
                     GameSpec.cutoff({v: 0.5 + v / 10 for v in range(8)}),
                     GameSpec.weighted_threshold({v: 0.9 for v in range(8)})):
            calls.clear()
            brute_force_shapley(g, spec)
            assert calls and all(count == 1 for count in calls.values()), (spec.game, calls)

    @pytest.mark.parametrize("spec, match", [
        (GameSpec.threshold(0), r"k\(0\) = 0 outside"),
        (GameSpec.threshold(99), r"k\(0\) = 99 outside"),
        (GameSpec.cutoff(0.0), "d_cutoff"),
        (GameSpec.weighted_threshold(-1.0), "w_cutoff"),
        (GameSpec.threshold({0: 1, 1: 1, 2: 1, 7: 1}), "names node 7"),
        (GameSpec.cutoff({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}), "names node 3"),
        (GameSpec.weighted_threshold({0: 1.0, 1: 1.0, 2: 1.0, -1: 1.0}), "names node -1"),
    ])
    def test_bad_parameters_still_raise(self, path3, spec, match):
        with pytest.raises(GameSpecError, match=match):
            characteristic_value(path3, spec, [0, 1])
        with pytest.raises(GameSpecError, match=match):
            brute_force_shapley(path3, spec)

    def test_cli_k_out_of_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        assert main(["oracle", "--game", "g2", "--k", "99", "--input", str(path)]) == 2
        assert "k(0) = 99 outside" in capsys.readouterr().err
