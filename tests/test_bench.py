from __future__ import annotations

import math

import numpy as np
import pytest

from shapcent import Graph, bench, gen_complete_weighted, gen_gnp, run_comparison, solve
from shapcent.bench import ERROR_STRIDE
from shapcent.games import DecayFn, GameSpec
from shapcent.graph import GraphError


def gnp_reference(n, p, seed, weighted=False, directed=False):
    """gen_gnp as one scalar draw per pair, the loop the block scan replaced."""
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        for v in range(n) if directed else range(u + 1, n):
            if directed and u == v:
                continue
            if rng.random() < p:
                w = 1.0
                if weighted:
                    w = float(rng.random())
                    while w <= 0.0:
                        w = float(rng.random())
                edges.append((u, v, w))
    return Graph.build(n, edges, directed=directed, weighted=weighted)


class ScriptedRng:
    """Stands in for a numpy Generator: random() and random(size) serve
    one list of doubles in order, as a real stream serves its draws."""

    def __init__(self, values):
        self.values = list(values)
        self.next = 0

    def random(self, size=None):
        start = self.next
        self.next += 1 if size is None else size
        assert self.next <= len(self.values), "script ran out"
        if size is None:
            return self.values[start]
        return np.array(self.values[start:self.next])


class TestGenerators:
    def test_complete_weighted_shape(self):
        g = gen_complete_weighted(6, seed=1)
        assert g.node_count == 6
        assert g.edge_count == 15
        assert g.weighted and not g.directed
        assert all(0.0 < w < 1.0 for _, _, w in g.edges)

    def test_complete_weighted_minimum_size(self):
        with pytest.raises(ValueError, match="n >= 2"):
            gen_complete_weighted(1, seed=1)

    def test_generators_are_deterministic(self):
        assert gen_complete_weighted(8, seed=9).edges == gen_complete_weighted(8, seed=9).edges
        a = gen_gnp(40, 0.2, seed=3, weighted=True)
        b = gen_gnp(40, 0.2, seed=3, weighted=True)
        assert a.edges == b.edges

    def test_gnp_directed_allows_both_orientations(self):
        g = gen_gnp(30, 0.9, seed=2, directed=True)
        pairs = {(u, v) for u, v, _ in g.edges}
        assert any((v, u) in pairs for u, v in pairs)
        assert all(u != v for u, v, _ in g.edges)

    def test_gnp_negative_node_count(self):
        with pytest.raises(GraphError, match="^negative node count: -3$"):
            gen_gnp(-3, 0.5, seed=1)


class TestGnpStream:
    """gen_gnp reads its stream in blocks but makes the graphs of one
    scalar draw per pair, bit for bit."""

    BLOCKS = (bench._DRAW_BLOCK, 1, 2, 7)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", [1e-3, 0.3, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 57, 300])
    def test_matches_scalar_draws(self, monkeypatch, n, p, weighted, directed):
        for seed in (1, 2, 3):
            want = gnp_reference(n, p, seed, weighted=weighted, directed=directed).edges
            # tiny blocks put hits and weight draws across block ends; at
            # n = 300, where one pass at block 1 takes up to 2 s, seed 1 has them
            for block in self.BLOCKS if n < 300 or seed == 1 else self.BLOCKS[:1]:
                monkeypatch.setattr(bench, "_DRAW_BLOCK", block)
                got = gen_gnp(n, p, seed, weighted=weighted, directed=directed)
                assert got.edges == want, (seed, block)

    def test_matches_scalar_draws_over_many_blocks(self):
        n, p = 600, 0.05
        assert n * (n - 1) > 5 * bench._DRAW_BLOCK
        want = gnp_reference(n, p, seed=4, weighted=True, directed=True).edges
        assert gen_gnp(n, p, seed=4, weighted=True, directed=True).edges == want

    @pytest.mark.parametrize("block", [bench._DRAW_BLOCK, 1, 2, 3])
    @pytest.mark.parametrize("directed", [False, True])
    def test_zero_weight_is_drawn_again(self, monkeypatch, block, directed):
        # a hit (0.1), two 0.0 weights then 0.25; a later hit (0.2) whose
        # weight draw is 0.0 once; the rest misses (0.9)
        values = [0.1, 0.0, 0.0, 0.25, 0.7, 0.2, 0.0, 0.5] + [0.9] * 64
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ScriptedRng(values))
        monkeypatch.setattr(bench, "_DRAW_BLOCK", block)
        want = gnp_reference(5, 0.5, seed=1, weighted=True, directed=directed).edges
        got = gen_gnp(5, 0.5, seed=1, weighted=True, directed=directed).edges
        assert got == want
        assert [e[2] for e in got] == [0.25, 0.5]


class TestRunComparison:
    @pytest.fixture
    def small_setup(self):
        g = gen_gnp(25, 0.25, seed=7)
        return g, GameSpec.fringe()

    def test_report_structure(self, small_setup):
        g, spec = small_setup
        report, traces = run_comparison(
            g, spec, thresholds=[0.05, 0.20], runs=3, max_iter=4000, base_seed=100
        )
        assert len(traces) == 3
        assert report.runs == 3
        assert [r.threshold for r in report.results] == [0.20, 0.05]
        assert report.exact_method == "exact"
        assert report.exact_runtime_s > 0
        for r in report.results:
            assert r.mean_time_s > 0
            assert r.half_width_s is not None
            assert r.speedup > 0

    def test_single_run_has_no_half_width(self, small_setup):
        g, spec = small_setup
        report, _ = run_comparison(
            g, spec, thresholds=[0.30], runs=1, max_iter=2000, base_seed=5
        )
        assert report.results[0].half_width_s is None

    def test_unreachable_threshold_is_censored(self, small_setup):
        g, spec = small_setup
        report, _ = run_comparison(
            g, spec, thresholds=[1e-9], runs=2, max_iter=50, base_seed=5
        )
        assert report.results[0].censored_runs == 2

    def test_empty_thresholds_rejected(self, small_setup):
        g, spec = small_setup
        with pytest.raises(ValueError, match="empty threshold"):
            run_comparison(g, spec, thresholds=[], runs=1, max_iter=10, base_seed=1)
        with pytest.raises(ValueError, match="runs"):
            run_comparison(g, spec, thresholds=[0.1], runs=0, max_iter=10, base_seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.1])
    def test_bad_thresholds_rejected(self, small_setup, bad):
        g, spec = small_setup
        with pytest.raises(ValueError, match="positive and finite"):
            run_comparison(g, spec, thresholds=[0.1, bad], runs=1, max_iter=10, base_seed=1)

    def test_iterations_below_error_stride_rejected(self, small_setup):
        g, spec = small_setup
        with pytest.raises(ValueError, match=f"below the error stride {ERROR_STRIDE}"):
            run_comparison(g, spec, thresholds=[0.1], runs=1, max_iter=ERROR_STRIDE - 1,
                           base_seed=1)
        report, _ = run_comparison(g, spec, thresholds=[1e-9], runs=1,
                                   max_iter=ERROR_STRIDE, base_seed=1)
        assert report.results[0].mean_iterations == ERROR_STRIDE

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_workers_rejected(self, small_setup, workers):
        g, spec = small_setup
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_comparison(g, spec, thresholds=[0.1], runs=1, max_iter=10, base_seed=1,
                           workers=workers)

    @pytest.mark.parametrize("runs, pools", [(1, []), (3, [3])])
    def test_pool_has_at_most_one_worker_per_run(self, small_setup, monkeypatch, runs, pools):
        # a recording stand-in, run serially: the real pool forks every
        # worker it is sized for at its first submit
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        g, spec = small_setup
        report, traces = run_comparison(g, spec, thresholds=[0.25], runs=runs, max_iter=50,
                                        base_seed=3, workers=100_000)
        assert sizes == pools
        assert len(traces) == report.runs == runs

    def test_csv_and_table_render(self, small_setup):
        g, spec = small_setup
        report, _ = run_comparison(
            g, spec, thresholds=[0.25], runs=2, max_iter=2000, base_seed=1
        )
        csv = report.to_csv()
        assert csv.splitlines()[0] == (
            "threshold,mean_time_ms,half_width_ms,mean_iterations,censored_runs,speedup"
        )
        table = report.format_table()
        assert "speedup" in table and "exact solver" in table

    def test_deterministic_apart_from_timing(self, small_setup):
        g, spec = small_setup
        kwargs = dict(thresholds=[0.20], runs=2, max_iter=3000, base_seed=77)
        r1, t1 = run_comparison(g, spec, **kwargs)
        r2, t2 = run_comparison(g, spec, **kwargs)
        assert [r.mean_iterations for r in r1.results] == [
            r.mean_iterations for r in r2.results
        ]
        for a, b in zip(t1, t2):
            assert [(it, err) for it, _, err in a.rows] == [
                (it, err) for it, _, err in b.rows
            ]

    def test_parallel_workers_match_serial_iterations(self, small_setup):
        g, spec = small_setup
        kwargs = dict(thresholds=[0.25], runs=2, max_iter=2000, base_seed=3)
        serial, ts = run_comparison(g, spec, workers=1, **kwargs)
        parallel, tp = run_comparison(g, spec, workers=2, **kwargs)
        assert [r.mean_iterations for r in serial.results] == [
            r.mean_iterations for r in parallel.results
        ]

    def test_parallel_step_decay_matches_serial_iterations(self):
        # the spec goes to the workers by pickle, its step decay included
        g = gen_gnp(20, 0.25, seed=5)
        spec = GameSpec.proximity(DecayFn.step(1.0))
        kwargs = dict(thresholds=[0.25], runs=2, max_iter=1000, base_seed=3)
        serial, _ = run_comparison(g, spec, workers=1, **kwargs)
        parallel, _ = run_comparison(g, spec, workers=2, **kwargs)
        assert [r.mean_iterations for r in serial.results] == [
            r.mean_iterations for r in parallel.results
        ]

    def test_g5_reference_is_gaussian_approx(self):
        g = gen_complete_weighted(8, seed=13)
        spec = GameSpec.weighted_threshold(1.0)
        report, traces = run_comparison(
            g, spec, thresholds=[0.50], runs=1, max_iter=500, base_seed=4
        )
        assert report.exact_method == "gaussian_approx"
        assert traces[0].reference == "gaussian_approx"
