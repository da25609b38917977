"""Spans recorded from outside the program, around calls between modules.

The tracer replaces module and class attributes of shapcent with thin
wrappers while a traced job runs and puts the originals back after it.
A target that no longer exists is skipped and reports zero calls. Spans
stay in memory; the run writes them out once, at its end.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute path, span name). Several attributes may share a
# span name: each module holds its own reference to the function.
TARGETS = (
    ("shapcent.cli", "load_edge_list", "graph.load_edge_list"),
    ("shapcent.cli", "load_node_params", "games.load_node_params"),
    ("shapcent.cli", "solve", "exact.solve"),
    ("shapcent.cli", "mc_shapley", "montecarlo.mc_shapley"),
    ("shapcent.cli", "run_comparison", "bench.run_comparison"),
    ("shapcent.cli", "brute_force_shapley", "oracle.brute_force"),
    ("shapcent.cli", "gen_gnp", "bench.gen_gnp"),
    ("shapcent.cli", "dump_edge_list", "graph.dump_edge_list"),
    ("shapcent.bench", "solve", "exact.solve"),
    ("shapcent.bench", "mc_shapley", "montecarlo.mc_shapley"),
    ("shapcent.graph", "Graph.build", "graph.build"),
    ("shapcent.graph", "shortest_paths", "graph.shortest_paths"),
    ("shapcent.exact", "shortest_paths", "graph.shortest_paths"),
    ("shapcent.games", "shortest_paths", "graph.shortest_paths"),
    ("shapcent.montecarlo", "shortest_paths", "graph.shortest_paths"),
    ("shapcent.montecarlo", "distance_matrix", "graph.distance_matrix"),
    ("shapcent.oracle", "distance_matrix", "graph.distance_matrix"),
    ("shapcent.montecarlo", "max_relative_error", "montecarlo.max_relative_error"),
    ("shapcent.oracle", "characteristic_value", "games.characteristic_value"),
    ("shapcent.games", "GameSpec.k_values", "games.param_values"),
    ("shapcent.games", "GameSpec.d_cutoff_values", "games.param_values"),
    ("shapcent.games", "GameSpec.w_cutoff_values", "games.param_values"),
    ("shapcent.exact", "ShapleyVector.to_csv", "exact.to_csv"),
)

ROOT = "cli.main"

# Per-job metric names, in report order. Names ending in _s are seconds.
LAYER_METRICS = (
    "cli.self_s",
    "graph.load_edge_list_s",
    "graph.build_s",
    "games.load_node_params_s",
    "games.param_values_s",
    "games.param_values_calls",
    "exact.solve_self_s",
    "exact.to_csv_s",
    "graph.shortest_paths_s",
    "graph.shortest_paths_calls",
    "graph.distance_matrix_s",
    "montecarlo.precompute_s",
    "montecarlo.mc_shapley_self_s",
    "montecarlo.permutations",
    "montecarlo.perms_per_s",
    "montecarlo.max_relative_error_s",
    "montecarlo.max_relative_error_calls",
    "montecarlo.reached_ratio",
    "games.characteristic_value_s",
    "games.characteristic_value_calls",
    "oracle.brute_force_self_s",
    "bench.gen_gnp_s",
    "graph.dump_edge_list_s",
    "bench.run_comparison_self_s",
)


def _mc_facts(args, kwargs, result):
    """(precompute seconds, permutations drawn, stop error reached or None)."""
    _, trace = result
    max_iter = kwargs["max_iter"] if "max_iter" in kwargs else args[2]
    stop = kwargs.get("stop_error")
    reached = None
    done = max_iter
    if stop is not None:
        reached = bool(trace.rows) and trace.rows[-1][2] <= stop
        if reached:
            done = trace.rows[-1][0]
    return trace.precompute_seconds, done, reached


_FACTS = {"montecarlo.mc_shapley": _mc_facts}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, job, facts]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.job: str | None = None

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        facts = _FACTS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if facts is not None:
                span[5] = facts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self.missing = []
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}:{path}")
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(f"{module_name}:{path}")
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def call(self, fn, *args):
        """Run fn(*args) as a root span of the current job."""
        return self._wrap(ROOT, fn)(*args)

    def clear(self) -> None:
        self.spans.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,job\n")
            for i, (name, start, end, parent, job, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{job}\n")


def job_metrics(spans: list[list], job: str) -> dict[str, float]:
    """Per-layer metrics of one job from its spans.

    Raises ValueError when the spans are inconsistent: a child outside
    its parent, or self times that do not add up to the root spans.
    """
    total: dict[str, float] = defaultdict(float)
    child: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    precompute = perms = 0.0
    runs = reached = 0
    root_wall = 0.0
    mine = [(i, s) for i, s in enumerate(spans) if s[4] == job]
    for _, (name, start, end, parent, _, facts) in mine:
        dur = end - start
        if dur < 0:
            raise ValueError(f"span {name} of {job} never ended")
        total[name] += dur
        calls[name] += 1
        if parent >= 0:
            pname, pstart, pend = spans[parent][:3]
            if start < pstart or end > pend:
                raise ValueError(f"span {name} lies outside its parent {pname}")
            child[pname] += dur
        else:
            root_wall += dur
        if facts is not None:
            precompute += facts[0]
            perms += facts[1]
            if facts[2] is not None:
                runs += 1
                reached += facts[2]
    self_s = {name: total[name] - child[name] for name in total}
    if abs(sum(self_s.values()) - root_wall) > 1e-6 * max(1.0, root_wall):
        raise ValueError(f"self times of {job} do not sum to its wall time")
    sampling = total["montecarlo.mc_shapley"] - precompute - total["montecarlo.max_relative_error"]
    out = {
        "cli.self_s": self_s.get(ROOT, 0.0),
        "graph.load_edge_list_s": self_s.get("graph.load_edge_list", 0.0),
        "graph.build_s": total["graph.build"],
        "games.load_node_params_s": total["games.load_node_params"],
        "games.param_values_s": total["games.param_values"],
        "games.param_values_calls": calls["games.param_values"],
        "exact.solve_self_s": self_s.get("exact.solve", 0.0),
        "exact.to_csv_s": total["exact.to_csv"],
        "graph.shortest_paths_s": total["graph.shortest_paths"],
        "graph.shortest_paths_calls": calls["graph.shortest_paths"],
        "graph.distance_matrix_s": total["graph.distance_matrix"],
        "montecarlo.precompute_s": precompute,
        "montecarlo.mc_shapley_self_s": self_s.get("montecarlo.mc_shapley", 0.0),
        "montecarlo.permutations": perms,
        "montecarlo.perms_per_s": perms / sampling if perms and sampling > 0 else 0.0,
        "montecarlo.max_relative_error_s": total["montecarlo.max_relative_error"],
        "montecarlo.max_relative_error_calls": calls["montecarlo.max_relative_error"],
        "montecarlo.reached_ratio": reached / runs if runs else 0.0,
        "games.characteristic_value_s": total["games.characteristic_value"],
        "games.characteristic_value_calls": calls["games.characteristic_value"],
        "oracle.brute_force_self_s": self_s.get("oracle.brute_force", 0.0),
        "bench.gen_gnp_s": total["bench.gen_gnp"],
        "graph.dump_edge_list_s": total["graph.dump_edge_list"],
        "bench.run_comparison_self_s": self_s.get("bench.run_comparison", 0.0),
    }
    return {k: float(v) for k, v in out.items()}
