from __future__ import annotations

import math

import pytest

from shapcent import bench, gen_complete_weighted, gen_gnp, run_comparison, solve
from shapcent.bench import ERROR_STRIDE
from shapcent.games import DecayFn, GameSpec


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

        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
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
