"""Immutable graphs, edge-list IO and shortest-path queries."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import islice
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
    def of(owner: np.ndarray, far: np.ndarray, weights: np.ndarray, n: int) -> "Arcs":
        """The arcs owner[i] -> far[i] of n nodes, each listed at its owner
        in the given order."""
        # numpy sorts an unsigned type of up to 16 bits stably by radix
        order = np.argsort(owner.astype(np.min_scalar_type(n)), kind="stable")
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n), out=ptr[1:])
        return Arcs(ptr, far[order], weights[order])

    def by_degree(self, nodes: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """Groups of the given nodes with d >= 1 arcs, by ascending d, in the
        given order: the nodes, and (nodes, d) arc positions, ids, weights."""
        deg = np.diff(self.ptr)[nodes]
        for d in sorted(set(deg[deg > 0].tolist())):
            group = nodes[deg == d]
            pos = self.ptr[group][:, None] + np.arange(d)
            yield group, pos, self.ids[pos], self.weights[pos]


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple weighted/unweighted graph over dense 0-based node ids.

    Immutable after construction; all queries are pure and safe to call
    from any number of workers. Edge i is src[i] -> dst[i] of weight
    weight[i], in input order. out_arcs and in_arcs list each node's arcs
    in edge order; arc_tuples lists the same arcs as Python tuples.
    """

    node_count: int
    directed: bool
    weighted: bool
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    out_arcs: Arcs
    in_arcs: Arcs
    # arc_tuples' listings by the id of their Arcs, each built on first use.
    # They go in this dict, not on the instance: under CPython 3.11 an
    # attribute added after __init__ slows every later field read.
    _tuples: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def build(
        node_count: int,
        edges: Iterable[tuple[int, int, float]] | tuple[np.ndarray, np.ndarray, np.ndarray],
        *,
        directed: bool = False,
        weighted: bool = False,
    ) -> "Graph":
        """Check the edges and list each node's out- and in-arcs in edge order.

        edges is an iterable of (u, v, w) triples or a (src, dst, weight)
        tuple of arrays. The first edge that fails a check, in the order
        node range, weight, self-loop, duplicate, raises GraphError with
        its position. An undirected edge is the arc pair u->v, v->u, so an
        undirected graph is its symmetric directed twin. Its in- and
        out-listings agree entry for entry and are one shared adjacency:
        in_arcs is out_arcs.
        """
        n = node_count
        if n < 0:
            raise GraphError(f"negative node count: {n}")
        triples = None
        if isinstance(edges, tuple) and len(edges) == 3 and isinstance(edges[0], np.ndarray):
            src, dst = (np.asarray(a, dtype=np.int64) for a in edges[:2])
            weight = np.asarray(edges[2], dtype=float)
        else:
            triples = list(edges)
            us, vs, ws = zip(*triples) if triples else ((), (), ())
            # an id outside [0, n) as -1, so that a huge one converts too
            src, dst = (np.fromiter((x if 0 <= x < n else -1 for x in col), np.int64, len(col))
                        for col in (us, vs))
            weight = np.fromiter(map(float, ws), float, len(ws))
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        bad |= ~((0 < weight) & (weight < INF))
        bad |= src == dst
        # an edge is a duplicate unless it comes first among those of its key
        key = src * n + dst if directed else np.minimum(src, dst) * n + np.maximum(src, dst)
        order = np.argsort(key)
        sorted_key = key[order]
        runs = np.flatnonzero(np.diff(sorted_key, prepend=sorted_key[:1] - 1))
        dup = np.ones(len(key), dtype=bool)
        dup[np.minimum.reduceat(order, runs)] = False
        bad |= dup
        if bad.any():
            i = int(bad.argmax())
            u, v, w = triples[i] if triples else (src[i].item(), dst[i].item(), weight[i].item())
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"node id out of range in edge ({u}, {v})", i)
            if not 0 < w < INF:
                kind = "non-positive" if math.isfinite(w) else "non-finite"
                raise GraphError(f"{kind} weight {w} on edge ({u}, {v})", i)
            if u == v:
                raise GraphError(f"self-loop at node {u}", i)
            raise GraphError(f"duplicate edge ({u}, {v})", i)
        if directed:
            out_arcs, in_arcs = Arcs.of(src, dst, weight, n), Arcs.of(dst, src, weight, n)
        else:
            # arcs u0->v0, v0->u0, u1->v1, ...: each edge's pair in edge order
            ends = np.stack([src, dst], axis=1).reshape(-1)
            far = np.stack([dst, src], axis=1).reshape(-1)
            out_arcs = in_arcs = Arcs.of(ends, far, np.repeat(weight, 2), n)
        return Graph(n, directed, weighted, src, dst, weight, out_arcs, in_arcs)

    @property
    def edge_count(self) -> int:
        return len(self.src)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The (u, v, w) triples in input order."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    def arc_tuples(self, orientation: str = "forward") -> tuple[tuple[tuple[int, float], ...], ...]:
        """out_arcs (forward) or in_arcs (reverse) as a tuple of (id,
        weight) pairs per node, built on first use and kept: the listing
        that settle and the oracle's loops read, as Python numbers."""
        if orientation not in ("forward", "reverse"):
            raise GraphError(f"unknown orientation {orientation!r}")
        arcs = self.out_arcs if orientation == "forward" else self.in_arcs
        listing = self._tuples.get(id(arcs))
        if listing is None:
            pairs = list(zip(arcs.ids.tolist(), arcs.weights.tolist()))
            ptr = arcs.ptr.tolist()
            listing = self._tuples[id(arcs)] = tuple(
                tuple(pairs[a:b]) for a, b in zip(ptr, ptr[1:]))
        return listing

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self.node_count):
            raise GraphError(f"invalid node id {v} (graph has {self.node_count} nodes)")

    def out_neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        self._check_node(v)
        return self.arc_tuples("forward")[v]

    def in_neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        self._check_node(v)
        return self.arc_tuples("reverse")[v]


def data_lines(stream) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of a text stream (a str
    or an iterable of lines) that is neither blank nor a '#' comment."""
    lines = stream.splitlines() if isinstance(stream, str) else stream
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


# An id or a node count must fit an int64 array entry.
_ID_LIMIT = np.iinfo(np.int64).max


def load_edge_list(stream, directed: bool = False, weighted: bool = False) -> Graph:
    """Parse an edge-list text stream into a Graph.

    Lines are "u v" (unweighted) or "u v w" (weighted); '#' starts a
    comment line; an optional "nodes N" header declares trailing isolated
    nodes. Node ids must be dense: every id in [0, max] must occur.
    Graph.build checks weights, self-loops and duplicates; its error is
    reported at the line of the edge it rejects.

    The lines are checked and converted all at once; only when that fails
    does _bad_line walk them in order to name the first bad one.
    """
    lines = stream.splitlines() if isinstance(stream, str) else list(stream)
    rows = [parts for parts in map(str.split, lines) if parts and not parts[0].startswith("#")]
    heads = [parts for parts in rows if parts[0] == "nodes"]
    if heads:
        rows = [parts for parts in rows if parts[0] != "nodes"]
    want = 3 if weighted else 2
    m = len(rows)
    try:
        if {len(parts) for parts in heads} - {2} or {len(parts) for parts in rows} - {want}:
            raise ValueError
        counts = [int(parts[1]) for parts in heads]
        cols = list(zip(*rows)) or [()] * want
        src, dst = (np.fromiter(map(int, col), np.int64, m) for col in cols[:2])
        weight = np.fromiter(map(float, cols[2]), float, m) if weighted else np.ones(m)
        if min(counts, default=0) < 0 or max(counts, default=0) > _ID_LIMIT or (
                m and min(src.min(), dst.min()) < 0):
            raise ValueError
    except (ValueError, OverflowError):
        raise _bad_line(lines, weighted) from None

    max_id = max(src.max(), dst.max()).item() if m else -1
    declared_nodes = counts[-1] if counts else None
    try:
        # every id fits, so an edge error here is a bad weight, a
        # self-loop or a duplicate, and it comes before the id checks
        g = Graph.build(
            max(max_id + 1, declared_nodes or 0), (src, dst, weight),
            directed=directed, weighted=weighted,
        )
    except GraphError as exc:
        edge_lines = (lineno for lineno, line in data_lines(lines) if line.split()[0] != "nodes")
        raise GraphError(f"line {next(islice(edge_lines, exc.edge, None))}: {exc}") from None
    if declared_nodes is not None:
        # the header declares the id space, so isolated ids are intentional
        if declared_nodes <= max_id:
            raise GraphError(
                f"header declares {declared_nodes} nodes but edge ids reach {max_id}"
            )
    else:
        seen = np.zeros(max_id + 1, dtype=bool)
        seen[src] = seen[dst] = True
        if not seen.all():
            missing = np.flatnonzero(~seen)[:5].tolist()
            raise GraphError(f"sparse node ids: ids {missing} never appear in any edge")
    return g


def _bad_line(lines: list[str], weighted: bool) -> GraphError:
    """The error of the first data line that fails a check, walking the
    lines in order; an id or node count above _ID_LIMIT is reported only
    when no line fails another check."""
    want = 3 if weighted else 2
    too_large = None
    for lineno, line in data_lines(lines):
        parts = line.split()
        if parts[0] == "nodes":
            if len(parts) != 2:
                return GraphError(f"line {lineno}: malformed header {line!r}")
            try:
                count = int(parts[1])
            except ValueError:
                return GraphError(f"line {lineno}: malformed header {line!r}")
            if count < 0:
                return GraphError(f"line {lineno}: negative node count in {line!r}")
            if count > _ID_LIMIT and too_large is None:
                too_large = GraphError(f"line {lineno}: node count too large in {line!r}")
            continue
        if len(parts) != want:
            return GraphError(f"line {lineno}: expected {want} fields, got {len(parts)}: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            return GraphError(f"line {lineno}: non-integer node id: {line!r}")
        if u < 0 or v < 0:
            return GraphError(f"line {lineno}: negative node id: {line!r}")
        if weighted:
            try:
                float(parts[2])
            except ValueError:
                return GraphError(f"line {lineno}: bad weight: {line!r}")
        if max(u, v) > _ID_LIMIT and too_large is None:
            too_large = GraphError(f"line {lineno}: node id too large: {line!r}")
    return too_large


def dump_edge_list(g: Graph) -> str:
    """Serialize a Graph in the load_edge_list format (round-trips)."""
    ends = (g.src.tolist(), g.dst.tolist())
    if g.weighted:
        # repr: the shortest exact float round-trip
        lines = map("{} {} {!r}".format, *ends, g.weight.tolist())
    else:
        lines = map("{} {}".format, *ends)
    return "\n".join([f"nodes {g.node_count}", *lines]) + "\n"


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
    adj = g.arc_tuples(orientation)
    return settle_listing(adj, source, [INF] * g.node_count if bound is None else bound)


def settle_listing(
    adj: tuple[tuple[tuple[int, float], ...], ...], source: int, dist: list[float]
) -> list[tuple[float, int]]:
    """settle over a listing from Graph.arc_tuples, with dist as its bound
    and no checks: for a caller that runs many searches on one graph."""
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
    settle rows instead. Where the model allows no second sweep, as on a
    graph of a dozen nodes, every block takes settle rows, bounded or not.
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
    # a group's arcs as (d, k) columns, so the minimum runs over the outer axis
    groups = [
        (nodes, ids.T.copy(), w.T[:, :, None].copy())
        for nodes, _, ids, w in (arcs.by_degree(np.arange(n)) if sweeping else ())
    ]
    first = 0
    while first < n and sweeping:
        sources = np.arange(first, min(first + width, n))
        cols = np.arange(len(sources))
        dist = np.full((n, len(sources)), INF)
        dist[sources, cols] = 0.0
        # sweeps when unbounded, or once the frontier grew wide
        if spread is None or _relax_frontier(dist, spread, limit, sources, cols, sweep):
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
