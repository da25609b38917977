from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from shapcent import Graph, GraphError, gen_gnp, settle
from shapcent.games import GameSpec, characteristic_value
from shapcent.graph import data_lines

INF = math.inf


def floyd_warshall(g: Graph) -> list[list[float]]:
    """Independent all-pairs oracle: exhaustive relaxation over node triples."""
    n = g.node_count
    d = [[INF] * n for _ in range(n)]
    for v in range(n):
        d[v][v] = 0.0
    for u, v, w in g.edges:
        d[u][v] = min(d[u][v], w)
        if not g.directed:
            d[v][u] = min(d[v][u], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


# The largest id or node count that an int64 holds.
ID_LIMIT = 2**63 - 1


def build_reference(node_count: int, edges, *, directed: bool = False):
    """Graph.build checked and laid out one edge at a time, in Python:
    (edges, out listing, in listing), each listing a tuple of (id,
    weight) tuples per node; the reference for the array build."""
    if node_count < 0:
        raise GraphError(f"negative node count: {node_count}")
    edge_list = []
    seen = set()
    out = [[] for _ in range(node_count)]
    inc = [[] for _ in range(node_count)] if directed else out
    for i, (u, v, w) in enumerate(edges):
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise GraphError(f"node id out of range in edge ({u}, {v})", i)
        if not 0 < w < INF:
            kind = "non-positive" if math.isfinite(w) else "non-finite"
            raise GraphError(f"{kind} weight {w} on edge ({u}, {v})", i)
        if u == v:
            raise GraphError(f"self-loop at node {u}", i)
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge ({u}, {v})", i)
        seen.add(key)
        w = float(w)
        edge_list.append((u, v, w))
        out[u].append((v, w))
        inc[v].append((u, w))
    adj_out = tuple(tuple(a) for a in out)
    return tuple(edge_list), adj_out, tuple(tuple(a) for a in inc) if directed else adj_out


def load_edge_list_reference(stream, directed: bool = False, weighted: bool = False):
    """load_edge_list one line at a time: (node count, edges, out listing,
    in listing); the reference for the bulk parse. An id or node count
    above ID_LIMIT, which no array holds, fails once every line passes
    the other checks, at its first line."""
    declared_nodes = None
    edges = []
    edge_lines = []
    ids_seen = set()
    too_large = None
    for lineno, line in data_lines(stream):
        parts = line.split()
        if parts[0] == "nodes":
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: malformed header {line!r}")
            try:
                declared_nodes = int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: malformed header {line!r}") from None
            if declared_nodes < 0:
                raise GraphError(f"line {lineno}: negative node count in {line!r}")
            if declared_nodes > ID_LIMIT:
                too_large = too_large or f"line {lineno}: node count too large in {line!r}"
            continue
        want = 3 if weighted else 2
        if len(parts) != want:
            raise GraphError(
                f"line {lineno}: expected {want} fields, got {len(parts)}: {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer node id: {line!r}") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative node id: {line!r}")
        w = 1.0
        if weighted:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: bad weight: {line!r}") from None
        if max(u, v) > ID_LIMIT:
            too_large = too_large or f"line {lineno}: node id too large: {line!r}"
        edges.append((u, v, w))
        edge_lines.append(lineno)
        ids_seen.add(u)
        ids_seen.add(v)
    if too_large:
        raise GraphError(too_large)

    max_id = max(ids_seen) if ids_seen else -1
    node_count = max(max_id + 1, declared_nodes or 0)
    try:
        built = build_reference(node_count, edges, directed=directed)
    except GraphError as exc:
        raise GraphError(f"line {edge_lines[exc.edge]}: {exc}") from None
    if declared_nodes is not None:
        if declared_nodes <= max_id:
            raise GraphError(
                f"header declares {declared_nodes} nodes but edge ids reach {max_id}"
            )
    else:
        missing = set(range(max_id + 1)) - ids_seen
        if missing:
            raise GraphError(
                f"sparse node ids: ids {sorted(missing)[:5]} never appear in any edge"
            )
    return (node_count, *built)


def settle_rows(g: Graph, orientation: str = "forward") -> np.ndarray:
    """All-pairs distances as one all-infinite bound list per source,
    lowered by settle: the reference for the block sweeps."""
    n = g.node_count
    mat = np.empty((n, n))
    for src in range(n):
        row = [INF] * n
        settle(g, src, orientation, row)
        mat[src] = row
    return mat


def settle_covers(g: Graph, cut) -> list[list[int]]:
    """games.cutoff_covers from one settle per node, bounded just above the
    largest cutoff, in distance order: the reference for the covers that
    come from the bounded distance blocks."""
    n = g.node_count
    limit = math.nextafter(max(cut, default=0.0), INF)
    return [
        [node for d, node in settle(g, src, "forward", [limit] * n)[1:] if d <= cut[node]]
        for src in range(n)
    ]


# Settings of the all-pairs sweeps under which no distance and no g4 score
# may change: the defaults; blocks of a few sources and g4 passes of a few
# targets; a cap of one sweep, so every block that a second sweep would
# change takes settle rows.
BLOCKINGS = {
    "default": {},
    "split": {"shapcent.graph._SWEEP_BLOCK": 20, "shapcent.exact._G4_ROWS": 3},
    "settle": {"shapcent.graph._SWEEP_CAP": 0},
}
# More settings for the blocks bounded by a limit, which start as a frontier
# and switch to sweeps once a round grows wide. Without a per-group cost in
# the cap's model, sweeps stay on on a dozen-node graph, so: narrow blocks
# ("sweep"); every block switching after its first round and sweeping at
# most 1 + nodes / arcs times, so some blocks stop under the limit and the
# rest take settle rows ("short"); every block switching after its first
# round and sweeping to the end ("switch"); no block ever switching
# ("frontier").
BOUNDED_BLOCKINGS = {
    **BLOCKINGS,
    "sweep": {"shapcent.graph._GROUP_COST": 0, "shapcent.graph._SWEEP_BLOCK": 5,
              "shapcent.exact._G4_ROWS": 3},
    "short": {"shapcent.graph._GROUP_COST": 0, "shapcent.graph._SWEEP_CAP": 1,
              "shapcent.graph._FRONTIER_COST": INF},
    "switch": {"shapcent.graph._GROUP_COST": 0, "shapcent.graph._FRONTIER_COST": INF},
    "frontier": {"shapcent.graph._GROUP_COST": 0, "shapcent.graph._FRONTIER_COST": 0},
}


@contextmanager
def blocking(name: str):
    with pytest.MonkeyPatch.context() as mp:
        for target, value in BOUNDED_BLOCKINGS[name].items():
            mp.setattr(target, value)
        yield


def permutation_shapley(g: Graph, spec: GameSpec) -> list[float]:
    """Average marginal contribution over every permutation (n! enumeration)."""
    n = g.node_count
    totals = [0.0] * n
    count = 0
    for perm in itertools.permutations(range(n)):
        prefix: list[int] = []
        before = 0.0
        for v in perm:
            after = characteristic_value(g, spec, prefix + [v])
            totals[v] += after - before
            prefix.append(v)
            before = after
        count += 1
    return [t / count for t in totals]


def random_small_graph(seed: int, n_max: int = 8, weighted: bool = True,
                       directed: bool | None = None) -> Graph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    p = float(rng.choice([0.3, 0.6]))
    if directed is None:
        directed = bool(rng.integers(0, 2))
    return gen_gnp(n, p, seed=seed + 10_000, weighted=weighted, directed=directed)


def tenth_hubs(directed: bool) -> tuple[Graph, dict[int, float]]:
    """Hubs 0-2 reached from leaves 3-10 by arcs of weight 0.1, and a
    w_cutoff map of sums of 0.1 added one at a time from 0.0. So a hub's
    running in-weight lands exactly on its cutoff, as does a leaf's once
    all three hubs arrive on the undirected graph."""
    edges = [(leaf, hub, 0.1) for hub in range(3) for leaf in range(3, 11)]
    tenths = [0.0]
    for _ in range(8):
        tenths.append(tenths[-1] + 0.1)
    cut = {v: tenths[3 + v] if v < 3 else tenths[3] for v in range(11)}
    return Graph.build(11, edges, directed=directed, weighted=True), cut


@st.composite
def unit_graphs(draw, n_max: int = 12):
    """Small directed or undirected graphs with unit weights, edges in a
    drawn order, so adjacency order differs from node-id order."""
    n = draw(st.integers(1, n_max))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v, 1.0) for (u, v), k in zip(pairs, keep) if k]
    return Graph.build(n, draw(st.permutations(edges)), directed=directed)


@st.composite
def undirected_twins(draw, n_max: int = 12):
    """A small weighted undirected graph, edges in a drawn order and each
    written either way round, and its symmetric directed twin: arcs
    (u, v, w) and (v, u, w) per edge, in edge order. Integer weights
    force distance ties."""
    n = draw(st.integers(1, n_max))
    weight = draw(st.sampled_from([st.integers(1, 3).map(float),
                                   st.floats(0.0, 1.0, exclude_min=True)]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(v, u, draw(weight)) if draw(st.booleans()) else (u, v, draw(weight))
             for (u, v), k in zip(pairs, keep) if k]
    edges = draw(st.permutations(edges))
    arcs = [arc for u, v, w in edges for arc in ((u, v, w), (v, u, w))]
    return (Graph.build(n, edges, weighted=True),
            Graph.build(n, arcs, directed=True, weighted=True))


@st.composite
def weighted_graphs(draw, n_max: int = 9):
    """Small graphs, directed or not, with integer weights (which force
    ties) or weights drawn from (0, 1]."""
    n = draw(st.integers(1, n_max))
    directed = draw(st.booleans())
    if draw(st.booleans()):
        weight = st.integers(1, 3).map(float)
    else:
        weight = st.floats(0.0, 1.0, exclude_min=True)
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(u, v, draw(weight)) for u, v in chosen]
    return Graph.build(n, edges, directed=directed, weighted=True)


@pytest.fixture
def path3() -> Graph:
    return Graph.build(3, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def star4() -> Graph:
    return Graph.build(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
