"""Seeded benchmark inputs, generated apart from the program under test.

The generator works in O(n + m) memory. It does not call shapcent's own
generator, so a change to that generator cannot move the inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# shapcent exact --bf-degree-limit default: g5 enumerates neighbours of
# degree <= 12 exactly and sends larger ones through the Gaussian path
G5_DEGREE_LIMIT = 12


@dataclass(frozen=True)
class GraphInput:
    n: int
    directed: bool
    weighted: bool
    src: np.ndarray  # int64, one entry per edge (arc on directed graphs)
    dst: np.ndarray
    weight: np.ndarray  # float64; all ones when unweighted

    @property
    def m(self) -> int:
        return len(self.src)

    def in_degree(self) -> np.ndarray:
        """Degree as shapcent's solvers see it: in-degree when directed."""
        deg = np.bincount(self.dst, minlength=self.n)
        if not self.directed:
            deg = deg + np.bincount(self.src, minlength=self.n)
        return deg

    def edge_list_text(self) -> str:
        lines = [f"nodes {self.n}"]
        if self.weighted:
            for u, v, w in zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()):
                lines.append(f"{u} {v} {w!r}")
        else:
            for u, v in zip(self.src.tolist(), self.dst.tolist()):
                lines.append(f"{u} {v}")
        return "\n".join(lines) + "\n"

    def half_degree_k_text(self) -> str:
        """Per-node k(v) = max(1, deg(v) // 2) as a 'node,value' file."""
        k = np.maximum(1, self.in_degree() // 2)
        return "".join(f"{v},{kv}\n" for v, kv in enumerate(k.tolist()))

    def stats(self) -> dict[str, float]:
        deg = self.in_degree()
        return {
            "input.nodes": float(self.n),
            "input.edges": float(self.m),
            "input.max_degree": float(deg.max()),
            "input.g5_gaussian_share": float(np.mean(deg > G5_DEGREE_LIMIT)),
        }


def degree_sequence(n: int, mean: float) -> np.ndarray:
    """n degrees whose histogram is n times the Poisson(mean) pmf, rounded
    by largest remainder. The same for every seed."""
    pmf = [math.exp(-mean)]
    while sum(pmf) < 1 - 1e-12:
        pmf.append(pmf[-1] * mean / len(pmf))
    want = n * np.array(pmf)
    counts = np.floor(want).astype(np.int64)
    short = n - int(counts.sum())
    counts[np.argsort(counts - want, kind="stable")[:short]] += 1
    return np.repeat(np.arange(len(pmf)), counts)


def random_graph(n: int, mean_degree: float, seed: int, *, weighted: bool,
                 directed: bool) -> GraphInput:
    """Simple random graph with a fixed Poisson-shaped degree histogram.

    Only the wiring and the weights depend on the seed, so the work of
    degree-driven solvers (g5 enumerates 2^deg subsets) barely moves
    between seeds. Stubs are matched at random (the configuration
    model); self-loops and repeated pairs are dropped, which removes a
    handful of edges. Weights are U(0, 1], drawn after the edges.
    """
    rng = np.random.default_rng(seed)
    nodes = np.arange(n)
    if directed:
        deg = degree_sequence(n, mean_degree / 2)
        tails = np.repeat(nodes, rng.permutation(deg))
        heads = rng.permutation(np.repeat(nodes, rng.permutation(deg)))
        keys = tails * n + heads
    else:
        stubs = rng.permutation(np.repeat(nodes, rng.permutation(degree_sequence(n, mean_degree))))
        stubs = stubs[: len(stubs) // 2 * 2]
        tails, heads = np.sort(stubs.reshape(-1, 2), axis=1).T
        keys = tails * n + heads
    _, first = np.unique(keys, return_index=True)
    first = np.sort(first[tails[first] != heads[first]])
    m = len(first)
    weight = 1.0 - rng.random(m) if weighted else np.ones(m)
    return GraphInput(n=n, directed=directed, weighted=weighted,
                      src=tails[first], dst=heads[first], weight=weight)
