"""End-to-end acceptance checks.

Each test prints a single summary line (bypassing capture) so a plain
test log shows one pass/fail verdict per criterion.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pytest

from shapcent import (
    Graph,
    brute_force_shapley,
    gen_complete_weighted,
    gen_gnp,
    grand_value,
    max_relative_error,
    mc_shapley,
    shapley_g1,
    shapley_g2,
    shapley_g3,
    shapley_g4,
    shapley_g5,
    solve,
)
from shapcent.cli import main
from shapcent.games import DecayFn, GameSpec, characteristic_value
from shapcent.montecarlo import permutation_contributions


@pytest.fixture
def verdict(capfd):
    """One printed pass/fail line per criterion, bypassing capture."""

    def _verdict(name: str, ok: bool, detail: str = "") -> None:
        line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, f"{name}: {detail}"

    return _verdict


def _complete(n: int) -> Graph:
    return Graph.build(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])


def test_exact_solvers_match_oracle_on_random_graphs(verdict):
    """Closed-form g1-g4 agree with brute-force enumeration to 1e-9."""
    rng = np.random.default_rng(20260823)
    worst = 0.0
    runs = 0
    for i in range(50):
        n = int(rng.integers(3, 9))
        p = float(rng.choice([0.3, 0.6]))
        directed = bool(i % 2)
        g = gen_gnp(n, p, seed=1000 + i, weighted=True, directed=directed)
        deg = [len(g.in_neighbors(v)) for v in range(n)]
        k_map = {v: int(rng.integers(1, deg[v] + 2)) for v in range(n)}
        cut_map = {v: float(rng.uniform(0.5, 2.0)) for v in range(n)}
        specs = [
            GameSpec.fringe(),
            GameSpec.threshold(1),
            GameSpec.threshold(k_map),
            GameSpec.cutoff(1.0),
            GameSpec.cutoff(cut_map),
            GameSpec.proximity(DecayFn.inv_linear()),
            GameSpec.proximity(DecayFn.inv_quadratic()),
            GameSpec.proximity(DecayFn.exponential()),
            GameSpec.proximity(DecayFn.step(1.0)),
        ]
        for spec in specs:
            want = brute_force_shapley(g, spec).scores
            got = solve(g, spec).scores
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
            runs += 1
    verdict(
        "1 solver-vs-oracle agreement",
        worst <= 1e-9,
        f"50 graphs, {runs} solver runs, worst abs deviation {worst:.3g}",
    )


def test_axioms_on_hand_built_instances(verdict):
    """Efficiency, positivity and symmetric-node equality for g1-g4."""
    path4 = Graph.build(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    cycle5 = Graph.build(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    star5 = Graph.build(5, [(0, i, 1.0) for i in range(1, 5)])
    instances = [
        ("path4", path4, [(0, 3), (1, 2)]),
        ("cycle5", cycle5, [(i, (i + 1) % 5) for i in range(5)]),
        ("star5", star5, [(1, 2), (2, 3), (3, 4)]),
        ("K3", _complete(3), [(0, 1), (1, 2)]),
        ("K6", _complete(6), [(i, i + 1) for i in range(5)]),
    ]
    solvers = [
        ("g1", lambda g: shapley_g1(g)),
        ("g2", lambda g: shapley_g2(g, 2)),
        ("g3", lambda g: shapley_g3(g, 1.5)),
        ("g4", lambda g: shapley_g4(g, DecayFn.inv_linear())),
    ]
    checks = 0
    for name, g, sym_pairs in instances:
        for game, run in solvers:
            vec = run(g)
            total = sum(vec.scores)
            grand = grand_value(g, GameSpec(game, k=2, d_cutoff=1.5,
                                            decay=DecayFn.inv_linear()))
            assert abs(total - grand) <= 1e-9, f"{name}/{game}: efficiency"
            assert all(s > 0 for s in vec.scores), f"{name}/{game}: positivity"
            for a, b in sym_pairs:
                assert abs(vec.scores[a] - vec.scores[b]) <= 1e-12, (
                    f"{name}/{game}: symmetry of nodes {a}, {b}"
                )
            checks += 1
    verdict(
        "2 axiom suite on hand-built instances",
        True,
        f"{checks} (instance, game) pairs: efficiency 1e-9, symmetry 1e-12",
    )


def test_reduction_identities(verdict):
    """g2(k=1) and g3(unit, 1) collapse to g1; step decay collapses to g3."""
    rng = np.random.default_rng(31)
    exact_hits = 0
    worst_step = 0.0
    for i in range(20):
        n = int(rng.integers(5, 51))
        p = float(rng.uniform(0.05, 0.3))
        g = gen_gnp(n, p, seed=2000 + i, directed=bool(i % 2))
        base = shapley_g1(g).scores
        assert shapley_g2(g, 1).scores == base, "threshold k=1 reduction"
        assert shapley_g3(g, 1.0).scores == base, "unit-distance reduction"
        exact_hits += 1
        step = shapley_g4(g, DecayFn.step(1.7)).scores
        cut = shapley_g3(g, 1.7).scores
        worst_step = max(worst_step, max(abs(a - b) for a, b in zip(step, cut)))
    verdict(
        "3 reduction identities",
        worst_step <= 1e-9,
        f"20 graphs: two bit-exact collapses, step-vs-cutoff dev {worst_step:.3g}",
    )


def test_permutation_position_frequencies(verdict):
    """Permutation-position probabilities behind the closed forms.

    Checked empirically at one million samples on a fixed 6-node graph:
    first-arrival within a closed neighborhood, exactly-(k-1)-predecessors,
    and the predecessor-sandwich event, each within 3 standard errors.
    """
    g = Graph.build(
        6,
        [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0),
         (2, 4, 1.0), (3, 4, 1.0), (4, 5, 1.0)],
    )
    n_samples = 1_000_000
    rng = np.random.default_rng(97)
    perms = rng.permuted(np.tile(np.arange(6), (n_samples, 1)), axis=1)
    pos = np.argsort(perms, axis=1)  # pos[:, v] = position of node v

    def freq(mask: np.ndarray) -> float:
        return float(np.count_nonzero(mask)) / n_samples

    checks = []  # (label, expected, observed)

    # first arrival within N(v_j) + v_j: probability 1 / (1 + deg(v_j))
    nb1 = [u for u, _ in g.out_neighbors(1)]
    first = np.all(pos[:, [0]] < pos[:, [v for v in nb1 + [1] if v != 0]], axis=1)
    checks.append(("first-in-neighborhood deg3", 1.0 / 4.0, freq(first)))
    nb4 = [u for u, _ in g.out_neighbors(4)]
    first5 = np.all(pos[:, [5]] < pos[:, [v for v in nb4 + [4] if v != 5]], axis=1)
    checks.append(("first-in-neighborhood deg3 (far side)", 1.0 / 4.0, freq(first5)))

    # exactly k-1 neighbors of v_j precede v_i, v_j after v_i:
    # (1 + deg - k) / (deg (1 + deg))
    before = (pos[:, [2, 3]] < pos[:, [0]]).sum(axis=1)
    vj_after = pos[:, 1] > pos[:, 0]
    for k in (1, 2, 3):
        expected = (1 + 3 - k) / (3 * 4)
        observed = freq((before == k - 1) & vj_after)
        checks.append((f"exactly {k - 1} predecessors", expected, observed))

    # v_i first among a k-element closer set plus the target, with the
    # next-closest node already placed: 1 / ((k + 1)(k + 2))
    ev = (pos[:, 0] < pos[:, 1]) & (pos[:, 2] < pos[:, 0])
    checks.append(("sandwich k=1", 1.0 / 6.0, freq(ev)))
    ev = (
        (pos[:, 0] < pos[:, 1])
        & (pos[:, 0] < pos[:, 2])
        & (pos[:, 3] < pos[:, 0])
    )
    checks.append(("sandwich k=2", 1.0 / 12.0, freq(ev)))

    worst_z = 0.0
    for label, expected, observed in checks:
        se = math.sqrt(expected * (1 - expected) / n_samples)
        z = abs(observed - expected) / se
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"{label}: expected {expected:.6f}, observed {observed:.6f}"
    verdict(
        "4 permutation frequency formulas",
        True,
        f"{len(checks)} events at 1e6 samples, worst |z| = {worst_z:.2f}",
    )


def test_incremental_blocks_equal_direct_differences(verdict):
    """Sampling blocks reproduce direct value differences permutation-wide."""
    rng = np.random.default_rng(55)
    perms_per_game = {tag: 0 for tag in ("g1", "g2", "g3", "g4", "g5")}
    worst_g4 = 0.0
    for i in range(6):
        n = int(rng.integers(3, 8))
        g = gen_gnp(n, 0.5, seed=3000 + i, weighted=True, directed=bool(i % 2))
        specs = [
            GameSpec.fringe(),
            GameSpec.threshold(1),
            GameSpec.cutoff(1.0),
            GameSpec.proximity(DecayFn.inv_linear()),
            GameSpec.weighted_threshold(0.7),
        ]
        for spec in specs:
            for _ in range(20):
                perm = rng.permutation(n).tolist()
                got = permutation_contributions(g, spec, perm)
                before = 0.0
                for idx, v in enumerate(perm):
                    after = characteristic_value(g, spec, perm[: idx + 1])
                    direct = after - before
                    if spec.game == "g4":
                        worst_g4 = max(worst_g4, abs(got[v] - direct))
                        assert abs(got[v] - direct) <= 1e-12
                    else:
                        assert got[v] == direct, f"{spec.game} block mismatch"
                    before = after
                perms_per_game[spec.game] += 1
    assert all(c >= 100 for c in perms_per_game.values())
    verdict(
        "5 incremental block fidelity",
        True,
        "120 permutations per game; g1/g2/g3/g5 bit-exact, "
        f"proximity game within {worst_g4:.3g}",
    )


def test_gaussian_approximation_error_bands(verdict):
    """Mean worst-node error of the normal approximation on cliques."""
    details = []
    for n, bound in ((6, 0.15), (12, 0.10)):
        for frac in (0.25, 0.75):
            errs = []
            for r in range(30):
                g = gen_complete_weighted(n, seed=5000 + 100 * n + r)
                alpha = {
                    v: sum(w for _, w in g.in_neighbors(v)) for v in range(n)
                }
                cutoff = {v: frac * alpha[v] for v in range(n)}
                spec = GameSpec.weighted_threshold(cutoff)
                approx = shapley_g5(g, cutoff, brute_force_degree_limit=2)
                ref = brute_force_shapley(g, spec)
                errs.append(max_relative_error(ref, approx))
            mean_err = sum(errs) / len(errs)
            details.append(f"K{n} {frac:g}a: {mean_err:.1%}")
            assert mean_err <= bound, (
                f"K{n} cutoff {frac}*alpha: mean error {mean_err:.3f} > {bound}"
            )
    verdict(
        "6 normal-approximation error bands",
        True,
        "30 seeds each, " + ", ".join(details),
    )


def test_exact_solver_speedup_over_sampling(verdict):
    """Linear-time solvers beat sampling-to-10%-error by at least 10x."""
    g = gen_gnp(1000, 5.0 / 999.0, seed=424242)
    deg = [len(g.in_neighbors(v)) for v in range(1000)]
    specs = [
        ("fringe", GameSpec.fringe()),
        ("threshold", GameSpec.threshold({v: max(1, deg[v] // 2) for v in range(1000)})),
    ]
    details = []
    for label, spec in specs:
        # the median of 21 solves: a minimum of a few ~1 ms calls swings
        solve_ts = []
        for _ in range(21):
            t0 = time.perf_counter()
            ref = solve(g, spec)
            solve_ts.append(time.perf_counter() - t0)
        exact_t = statistics.median(solve_ts)
        times = []
        for r in range(30):
            _, trace = mc_shapley(
                g, spec, max_iter=40_000, seed=9000 + r,
                reference=ref, stop_error=0.10,
            )
            hit = trace.first_at_or_below(0.10)
            times.append(hit[1] if hit is not None else trace.rows[-1][1])
        mean_mc = sum(times) / len(times)
        speedup = mean_mc / exact_t
        details.append(f"{label}: {speedup:.0f}x")
        assert speedup >= 10.0, f"{label}: speedup only {speedup:.1f}x"
    verdict(
        "7 exact-vs-sampling speedup at n=1000",
        True,
        "30 runs to 10% error each, " + ", ".join(details),
    )


def test_sampling_error_statistically_decreases(verdict):
    """Late-iteration error beats early-iteration error in >= 27/30 runs."""
    g = gen_gnp(100, 0.05, seed=77)
    ref = solve(g, GameSpec.fringe())
    wins = 0
    for r in range(30):
        _, trace = mc_shapley(
            g, GameSpec.fringe(), max_iter=10_000, seed=8000 + r,
            reference=ref, error_stride=100,
        )
        errs = {it: err for it, _, err in trace.rows}
        if errs[10_000] < errs[100]:
            wins += 1
    verdict(
        "8 sampling error decreases with iterations",
        wins >= 27,
        f"{wins}/30 runs improved from iteration 100 to 10000",
    )


def _strip_elapsed(trace_csv: str) -> list[tuple[str, str]]:
    rows = []
    for line in trace_csv.splitlines()[1:]:
        it, _, err = line.split(",")
        rows.append((it, err))
    return rows


def test_seeded_pipelines_are_reproducible(tmp_path, verdict):
    """gen -> solve/sample -> report is byte-identical across executions."""
    outputs = []
    for rep in range(2):
        d = tmp_path / f"rep{rep}"
        d.mkdir()
        graph = d / "graph.txt"
        assert main(["gen", "gnp", "-n", "60", "-p", "0.1", "--weighted",
                     "--seed", "99", "--output", str(graph)]) == 0
        scores = d / "scores.csv"
        assert main(["exact", "--game", "g4", "--decay", "exp",
                     "--input", str(graph), "--weighted",
                     "--output", str(scores)]) == 0
        mc_scores = d / "mc.csv"
        trace = d / "trace.csv"
        assert main(["mc", "--game", "g1", "--input", str(graph), "--weighted",
                     "--iters", "500", "--seed", "5", "--reference", str(scores),
                     "--output", str(mc_scores), "--trace-out", str(trace)]) == 0
        bench_dir = d / "bench"
        assert main(["bench", "--game", "g1", "--input", str(graph), "--weighted",
                     "--thresholds", "0.25,0.10", "--runs", "3", "--iters", "4000",
                     "--seed", "17", "--out-dir", str(bench_dir)]) == 0
        report_rows = [
            # keep only the wall-clock-free columns of the report
            (cols[0], cols[3], cols[4])
            for cols in (
                line.split(",")
                for line in (bench_dir / "report.csv").read_text().splitlines()[1:]
            )
        ]
        outputs.append(
            {
                "graph": graph.read_bytes(),
                "scores": scores.read_bytes(),
                "mc": mc_scores.read_bytes(),
                "trace": _strip_elapsed(trace.read_text()),
                "report": report_rows,
            }
        )
    assert outputs[0] == outputs[1]
    verdict(
        "9 seeded pipeline reproducibility",
        True,
        "generator, solver, sampler and report byte-identical "
        "apart from wall-clock columns",
    )
