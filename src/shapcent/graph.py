"""Immutable graphs, edge-list IO and shortest-path queries."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

INF = math.inf


class GraphError(ValueError):
    """Malformed edge-list input or an invalid graph query.

    `edge` is the position, in input order, of the edge that
    Graph.build rejected, or None when no single edge is at fault.
    """

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


class Arcs(NamedTuple):
    """One orientation of a graph's adjacency as arrays (CSR): node v's
    arcs are entries ptr[v] to ptr[v + 1] of ids (their far ends) and
    weights, in the order of v's adjacency listing."""

    ptr: np.ndarray
    ids: np.ndarray
    weights: np.ndarray

    @staticmethod
    def of(adj: tuple[tuple[tuple[int, float], ...], ...]) -> "Arcs":
        ptr = np.cumsum([0] + [len(a) for a in adj])
        # the (id, weight) pairs in one stream; an id is exact as a float64
        flat = np.fromiter((x for a in adj for arc in a for x in arc), float, 2 * int(ptr[-1]))
        return Arcs(ptr, flat[0::2].astype(np.int64), flat[1::2].copy())

    def by_degree(self, nodes: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """Groups of the given nodes with d >= 1 arcs, by ascending d, in the
        given order: the nodes, and (nodes, d) arc positions, ids, weights."""
        deg = np.diff(self.ptr)[nodes]
        for d in sorted(set(deg[deg > 0].tolist())):
            group = nodes[deg == d]
            pos = self.ptr[group][:, None] + np.arange(d)
            yield group, pos, self.ids[pos], self.weights[pos]


@dataclass(frozen=True)
class Graph:
    """Simple weighted/unweighted graph over dense 0-based node ids.

    Immutable after construction; all queries are pure and safe to call
    from any number of workers. The arc tuples (out_neighbors,
    in_neighbors) and the arc arrays (out_arcs, in_arcs, each built on
    first use and kept) list the same arcs in the same order.
    """

    node_count: int
    directed: bool
    weighted: bool
    edges: tuple[tuple[int, int, float], ...]
    _out: tuple[tuple[tuple[int, float], ...], ...]
    _in: tuple[tuple[tuple[int, float], ...], ...]

    @staticmethod
    def build(
        node_count: int,
        edges: Iterable[tuple[int, int, float]],
        *,
        directed: bool = False,
        weighted: bool = False,
    ) -> "Graph":
        """Check the edges and list each node's out- and in-arcs in edge order.

        An undirected edge is the arc pair u->v, v->u, so an undirected
        graph is its symmetric directed twin. Its in- and out-listings
        agree entry for entry and are one shared adjacency:
        in_neighbors(v) is out_neighbors(v), and in_arcs is out_arcs.
        """
        if node_count < 0:
            raise GraphError(f"negative node count: {node_count}")
        edge_list: list[tuple[int, int, float]] = []
        seen: set[tuple[int, int]] = set()
        out: list[list[tuple[int, float]]] = [[] for _ in range(node_count)]
        inc: list[list[tuple[int, float]]] = [[] for _ in range(node_count)] if directed else out
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
        return Graph(
            node_count=node_count,
            directed=directed,
            weighted=weighted,
            edges=tuple(edge_list),
            _out=adj_out,
            _in=tuple(tuple(a) for a in inc) if directed else adj_out,
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self.node_count):
            raise GraphError(f"invalid node id {v} (graph has {self.node_count} nodes)")

    def out_neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        self._check_node(v)
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        self._check_node(v)
        return self._in[v]

    @cached_property
    def out_arcs(self) -> Arcs:
        return Arcs.of(self._out)

    @cached_property
    def in_arcs(self) -> Arcs:
        return Arcs.of(self._in) if self.directed else self.out_arcs


def data_lines(stream) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of a text stream (a str
    or an iterable of lines) that is neither blank nor a '#' comment."""
    lines = stream.splitlines() if isinstance(stream, str) else stream
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def load_edge_list(stream, directed: bool = False, weighted: bool = False) -> Graph:
    """Parse an edge-list text stream into a Graph.

    Lines are "u v" (unweighted) or "u v w" (weighted); '#' starts a
    comment line; an optional "nodes N" header declares trailing isolated
    nodes. Node ids must be dense: every id in [0, max] must occur.
    Graph.build checks weights, self-loops and duplicates; its error is
    reported at the line of the edge it rejects.
    """
    declared_nodes: int | None = None
    edges: list[tuple[int, int, float]] = []
    edge_lines: list[int] = []
    ids_seen: set[int] = set()
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
        edges.append((u, v, w))
        edge_lines.append(lineno)
        ids_seen.add(u)
        ids_seen.add(v)

    max_id = max(ids_seen) if ids_seen else -1
    try:
        # every id fits, so an edge error here is a bad weight, a
        # self-loop or a duplicate, and it comes before the id checks
        g = Graph.build(
            max(max_id + 1, declared_nodes or 0), edges, directed=directed, weighted=weighted
        )
    except GraphError as exc:
        raise GraphError(f"line {edge_lines[exc.edge]}: {exc}") from None
    if declared_nodes is not None:
        # the header declares the id space, so isolated ids are intentional
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
    return g


def dump_edge_list(g: Graph) -> str:
    """Serialize a Graph in the load_edge_list format (round-trips)."""
    lines = [f"nodes {g.node_count}"]
    for u, v, w in g.edges:
        if g.weighted:
            lines.append(f"{u} {v} {w!r}")  # shortest exact float round-trip
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def settle(
    g: Graph, source: int, orientation: str = "forward", bound: list[float] | None = None
) -> list[tuple[float, int]]:
    """Dijkstra from (forward) or to (reverse) source, below a per-node bound.

    Returns (distance, node) for every node u below bound[u], in settle
    order: ascending (distance, node), so the source first; a source
    whose bound is not above 0 yields []. bound, n floats (all infinite
    when omitted), is lowered in place to min(bound[u], distance). If
    bound[u] <= bound[p] + w on each arc p -> u, as for a minimum of
    searches, the result is the unbounded search's nodes below their
    bounds, bit for bit. (A weight that vanishes when added can settle
    ties out of order.)
    """
    g._check_node(source)
    if orientation == "forward":
        adj = g._out
    elif orientation == "reverse":
        adj = g._in
    else:
        raise GraphError(f"unknown orientation {orientation!r}")
    dist = [INF] * g.node_count if bound is None else bound
    if not 0.0 < dist[source]:
        return []
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled: list[tuple[float, int]] = []
    while heap:
        entry = heapq.heappop(heap)
        d, u = entry
        if d > dist[u]:
            continue
        settled.append(entry)
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


# Element budget of one block's (nodes, sources) distance array: a block
# holds max(1, _SWEEP_BLOCK // n) sources at once (65 at n = 500).
_SWEEP_BLOCK = 1 << 15
# The sweep cap's cost model, in (arc, source) elements of a sweep: a
# node or arc settled in Python costs _SWEEP_CAP of them, and each
# in-degree group _GROUP_COST per sweep in numpy call overhead. Measured
# on a 2-core host (Python 3.11, numpy 2.4) over G(n, p), grids,
# geometric graphs and paths, n = 12-2000: 0.09-0.27 us per settled node
# or arc (least on a path, whose heap stays small), 2.3-2.9 ns per
# element and 7.5 us or more per group. Sweeps broke even with settle
# rows after 45-110 sweeps at n >= 200, and after under 2 at n = 12.
_SWEEP_CAP = 64
_GROUP_COST = 4096
# A frontier round gathers, filters and sorts each (arc, source)
# candidate, which the model counts as _FRONTIER_COST sweep elements: a
# bounded block switches to sweeps once a round's candidates times
# _FRONTIER_COST exceed one sweep's modeled cost. Measured as for the
# cap, on a weighted G(500) (g3 at cutoffs 0.5, 1.0 and 2.0, balls of 11,
# 94 and 455 nodes; g4 step:50, where the ball is the graph) and a
# weighted 1,000-node path at step:50: 8 ran as fast as the better of a
# frontier to the end (2.2x slower at cutoff 2.0 and step:50) and sweeps
# after the first round (up to 6x slower on the path); 4 lost at cutoff
# 2.0, and 16 ran as 8 did.
_FRONTIER_COST = 8


def _relax_frontier(
    dist: np.ndarray, arcs: Arcs, limit: float, nodes: np.ndarray, cols: np.ndarray,
    sweep: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Relax dist (n, B) in place along arcs out of the frontier, the
    entries (nodes, cols) that the last round lowered. A candidate above
    limit, or not below its entry, is dropped; each entry takes the
    minimum of the rest. Returns None once a round lowers nothing, or the
    frontier of a round after the first whose candidates, times
    _FRONTIER_COST, would exceed sweep."""
    width = dist.shape[1]
    flat = dist.reshape(-1)  # entry (v, j) is flat[v * width + j]
    first = True
    while True:
        start = arcs.ptr[nodes]
        deg = arcs.ptr[nodes + 1] - start
        total = int(deg.sum())
        if _FRONTIER_COST * total > sweep and not first:
            return nodes, cols
        first = False
        # the arcs of each entry in listing order, entry after entry
        pos = np.repeat(start - (np.cumsum(deg) - deg), deg) + np.arange(total)
        cand = np.repeat(flat[nodes * width + cols], deg) + arcs.weights[pos]
        key = arcs.ids[pos] * width + np.repeat(cols, deg)
        keep = cand <= limit
        keep &= cand < flat[key]
        key, cand = key[keep], cand[keep]
        if not len(key):
            return None
        # the minimum is exact, so the order within a key does not matter
        order = np.argsort(key)
        key, cand = key[order], cand[order]
        head = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        key = key[head]
        flat[key] = np.minimum.reduceat(cand, head)
        nodes, cols = np.divmod(key, width)


def distance_blocks(
    g: Graph, orientation: str = "forward", limit: float = INF
) -> Iterator[np.ndarray]:
    """The rows of distance_matrix, a (B, n) block of consecutive sources
    at a time, sources ascending; settle's distances bit for bit at each
    entry at or below limit, and above limit at every other entry.

    A block relaxes its B sources at once in dist (n, B), which starts at
    +inf with 0.0 at each source. A sweep lowers dist[v] to the minimum of
    dist[v] and dist[p] + w over the arcs p -> v (reverse: the arcs
    v -> p), one in-degree group of nodes at a time and in place, so a
    group sees the groups before it. Sweeps stop when one changes nothing.
    Every entry is a walk sum formed by settle's own d + w addition, and
    adding a positive weight never lowers a float, so the sweeps reach the
    least fixed point: the least walk sum to each node. settle's distances
    are a fixed point and walk sums too, so they are the same floats.

    With a finite limit (g3's largest cutoff, the c of g4's step(c)) a
    block starts as a frontier: each round relaxes only the arcs out of
    the entries that the last round lowered (reverse: the arcs into them),
    drops candidates above limit, and reduces each entry's candidates to
    their minimum. Once a round would hold more candidates than a sweep
    costs, by _FRONTIER_COST, the block finishes with sweeps from where
    the frontier left it, and they stop when one lowers no entry to limit
    or below. Relaxation order does not change the least fixed point, so
    each node within limit then holds its distance, by induction along
    its shortest path, whose prefixes are within limit too; every other
    entry is a walk sum above limit, or +inf.

    A sweep costs about arcs * B element operations plus a fixed cost per
    group, and a block needs about as many sweeps as its shortest-path
    trees are deep in hops, plus one: a handful on a small-world graph, n
    on a path. A block still changing after as many sweeps as its settle
    rows would cost, by the model above, and every later block take
    settle rows instead; on a graph of a dozen nodes that is every
    unbounded block, while a bounded one stays a frontier to the end.
    """
    if orientation == "forward":
        arcs = g.in_arcs
    elif orientation == "reverse":
        arcs = g.out_arcs
    else:
        raise GraphError(f"unknown orientation {orientation!r}")
    n = g.node_count
    width = max(1, min(n, _SWEEP_BLOCK // max(n, 1)))
    m = len(arcs.ids)
    deg = np.diff(arcs.ptr)
    sweep = width * m + _GROUP_COST * len(set(deg[deg > 0].tolist()))
    cap = int(_SWEEP_CAP * width * (n + m) / sweep) if sweep else 1
    # one sweep converges only where no source has an arc
    sweeping = cap > 1
    # a frontier relaxes the arcs that a sweep gathers, listed the other way
    spread = (g.out_arcs if orientation == "forward" else g.in_arcs) if limit < INF else None
    # with sweeps off, a frontier runs to the end
    wide = sweep if sweeping else INF
    # a group's arcs as (d, k) columns, so the minimum runs over the outer axis
    groups = [
        (nodes, ids.T.copy(), w.T[:, :, None].copy())
        for nodes, _, ids, w in (arcs.by_degree(np.arange(n)) if sweeping else ())
    ]
    first = 0
    while first < n and (sweeping or spread is not None):
        sources = np.arange(first, min(first + width, n))
        cols = np.arange(len(sources))
        dist = np.full((n, len(sources)), INF)
        dist[sources, cols] = 0.0
        # sweeps when unbounded, or once the frontier grew wide
        if spread is None or _relax_frontier(dist, spread, limit, sources, cols, wide):
            if not _sweep(dist, groups, cap, limit):
                break
        yield dist.T
        first += len(sources)
    for start in range(first, n, width):
        rows = np.empty((min(width, n - start), n))
        for j in range(len(rows)):
            row = [INF] * n
            settle(g, start + j, orientation, row)
            rows[j] = row
        yield rows


def _sweep(dist: np.ndarray, groups: list, cap: int, limit: float) -> bool:
    """Sweep dist (n, B) in place over the in-degree groups, at most cap
    times, until a sweep lowers no entry to limit or below; False if the
    last sweep still did."""
    for _ in range(cap):
        changed = False
        for nodes, ids, w in groups:
            cand = dist[ids]
            cand += w
            low = cand.min(axis=0)
            old = dist[nodes]
            if not changed:
                lower = low < old
                if limit < INF:
                    lower &= low <= limit
                changed = bool(lower.any())
            dist[nodes] = np.minimum(low, old, out=low)
        if not changed:
            return True
    return False


def distance_matrix(g: Graph, orientation: str = "forward") -> np.ndarray:
    """All-pairs (n, n) float64 array D[src, dst]; D[v, v] = 0,
    unreachable = +inf; settle's distances, bit for bit, filled from
    distance_blocks."""
    mat = np.empty((g.node_count, g.node_count))
    first = 0
    for rows in distance_blocks(g, orientation):
        mat[first : first + len(rows)] = rows
        first += len(rows)
    return mat
