from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapcent import (
    Graph,
    GraphError,
    distance_matrix,
    dump_edge_list,
    load_edge_list,
    settle,
)
from shapcent.bench import gen_gnp
from shapcent.graph import data_lines, distance_blocks

from .conftest import (
    BLOCKINGS,
    BOUNDED_BLOCKINGS,
    ID_LIMIT,
    arc_lists,
    blocking,
    build_reference,
    floyd_warshall,
    load_edge_list_reference,
    random_small_graph,
    settle_rows,
    tenth_hubs,
    undirected_twins,
    unit_graphs,
    weighted_graphs,
)

INF = math.inf


class TestBuild:
    def test_out_of_range_id(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph.build(2, [(0, 2, 1.0)])

    def test_negative_node_count(self):
        with pytest.raises(GraphError, match="negative node count"):
            Graph.build(-1, [])

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.build(3, [(1, 1, 1.0)])

    def test_non_positive_weight(self):
        with pytest.raises(GraphError, match="non-positive weight"):
            Graph.build(3, [(0, 1, 0.0)])
        with pytest.raises(GraphError, match="non-positive weight"):
            Graph.build(3, [(0, 1, -2.0)])

    @pytest.mark.parametrize("w", [INF, -INF, math.nan])
    def test_non_finite_weight(self, w):
        with pytest.raises(GraphError, match="non-finite weight"):
            Graph.build(3, [(0, 1, 1.0), (1, 2, w)], weighted=True)

    def test_duplicate_undirected_either_direction(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            Graph.build(3, [(0, 1, 1.0), (1, 0, 1.0)])

    def test_reversed_pair_allowed_when_directed(self):
        g = Graph.build(3, [(0, 1, 1.0), (1, 0, 2.0)], directed=True)
        assert g.edge_count == 2
        out = arc_lists(g.out_arcs)
        assert dict(out[0])[1] == 1.0
        assert dict(out[1])[0] == 2.0

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((2, 2, 1.0), "self-loop"),
            ((1, 0, 1.0), "duplicate edge"),
            ((1, 2, 0.0), "non-positive"),  # the weight is tested before duplicates
        ],
    )
    def test_error_names_edge_position(self, bad, message):
        with pytest.raises(GraphError, match=message) as info:
            Graph.build(3, [(0, 1, 1.0), (1, 2, 1.0), bad])
        assert info.value.edge == 2

    def test_empty_graph(self):
        g = Graph.build(0, [])
        assert g.node_count == 0 and g.edge_count == 0

    def test_isolated_nodes_allowed(self):
        g = Graph.build(5, [(0, 1, 1.0)])
        assert np.diff(g.in_arcs.ptr)[4] == 0


class TestQueries:
    def test_in_and_out_degree_directed(self):
        g = Graph.build(3, [(0, 1, 1.0), (2, 1, 1.0)], directed=True)
        assert np.diff(g.in_arcs.ptr).tolist() == [0, 2, 0]
        assert np.diff(g.out_arcs.ptr).tolist() == [1, 0, 1]

    def test_undirected_adjacency_symmetric(self, path3):
        assert dict(arc_lists(path3.out_arcs)[1]) == {0: 1.0, 2: 1.0}
        assert path3.in_arcs is path3.out_arcs

    def test_edge_weight_absent_is_zero(self, path3):
        assert 2 not in dict(arc_lists(path3.out_arcs)[0])

    def test_invalid_node_query(self, path3):
        with pytest.raises(GraphError, match="invalid node id"):
            settle(path3, 3)


@st.composite
def graphs_and_nodes(draw):
    """A graph from unit_graphs or undirected_twins, and a node set in a
    drawn order."""
    g = draw(st.one_of(unit_graphs(), undirected_twins().flatmap(st.sampled_from)))
    return g, draw(st.lists(st.integers(0, g.node_count - 1), unique=True))


class TestArcs:
    @settings(max_examples=150, deadline=None)
    @given(graphs_and_nodes())
    @example((Graph.build(0, []), []))
    @example((Graph.build(5, []), [4, 0, 2]))
    @example((Graph.build(5, [], directed=True, weighted=True), [1, 3]))
    def test_arrays_list_the_tuples(self, case):
        g, nodes = case
        assert (g.in_arcs is g.out_arcs) is not g.directed
        assert g.out_arcs is g.out_arcs
        for arcs, orientation in ((g.out_arcs, "forward"), (g.in_arcs, "reverse")):
            listing = g.arc_tuples(orientation)
            assert len(arcs.ptr) == g.node_count + 1 and arcs.ptr[0] == 0
            assert arcs.ptr[-1] == len(arcs.ids) == len(arcs.weights)
            for v in range(g.node_count):
                row = slice(arcs.ptr[v], arcs.ptr[v + 1])
                assert arcs.ids[row].tolist() == [u for u, _ in listing[v]]
                want = np.array([w for _, w in listing[v]], dtype=float)
                assert arcs.weights[row].tobytes() == want.tobytes()

            groups = list(arcs.by_degree(np.array(nodes, dtype=np.int64)))
            assert [v for group, *_ in groups for v in group.tolist()] == sorted(
                (v for v in nodes if listing[v]), key=lambda v: (len(listing[v]), nodes.index(v))
            )
            for group, pos, ids, weights in groups:
                for v, at, nbrs, ws in zip(group, pos, ids, weights):
                    assert at.tolist() == list(range(arcs.ptr[v], arcs.ptr[v + 1]))
                    assert nbrs.tolist() == arcs.ids[at].tolist()
                    assert ws.tobytes() == arcs.weights[at].tobytes()


@st.composite
def any_weight_graphs(draw):
    """Weighted graphs on 0..6 nodes whose weights range over every positive
    finite float, subnormals and the largest included."""
    n = draw(st.integers(0, 6))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.floats(0.0, exclude_min=True, allow_infinity=False)
    return Graph.build(n, [(u, v, draw(weight)) for u, v in chosen],
                       directed=directed, weighted=True)


class TestEdgeListIO:
    def test_basic_parse_with_comments(self):
        text = "# a comment\n\n0 1\n1 2\n"
        g = load_edge_list(text)
        assert g.node_count == 3 and g.edge_count == 2

    def test_weighted_parse(self):
        g = load_edge_list("0 1 0.5\n1 2 2.5\n", weighted=True)
        assert dict(arc_lists(g.out_arcs)[1])[2] == 2.5

    def test_header_declares_trailing_isolated_nodes(self):
        g = load_edge_list("nodes 5\n0 1\n")
        assert g.node_count == 5
        assert np.diff(g.in_arcs.ptr)[4] == 0

    def test_header_permits_interior_isolated_nodes(self):
        g = load_edge_list("nodes 4\n0 2\n2 3\n")
        assert g.node_count == 4
        assert np.diff(g.in_arcs.ptr)[1] == 0

    def test_header_below_max_id_rejected(self):
        with pytest.raises(GraphError, match="declares 2 nodes"):
            load_edge_list("nodes 2\n0 1\n1 2\n")

    def test_sparse_ids_rejected(self):
        with pytest.raises(GraphError, match="sparse node ids"):
            load_edge_list("0 3\n")

    def test_field_count_mismatch_reports_line(self):
        with pytest.raises(GraphError, match="line 2"):
            load_edge_list("0 1\n1 2 0.5\n")
        with pytest.raises(GraphError, match="line 1"):
            load_edge_list("0 1\n", weighted=True)

    def test_bad_tokens_report_line(self):
        with pytest.raises(GraphError, match="line 1: non-integer"):
            load_edge_list("a b\n")
        with pytest.raises(GraphError, match="line 2: bad weight"):
            load_edge_list("0 1 1.0\n1 2 heavy\n", weighted=True)
        with pytest.raises(GraphError, match="line 1: non-positive weight"):
            load_edge_list("0 1 -1\n", weighted=True)
        with pytest.raises(GraphError, match="line 1: negative node id"):
            load_edge_list("-1 0\n")

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_weight_reports_line(self, token):
        with pytest.raises(GraphError, match="line 2: non-finite weight"):
            load_edge_list(f"0 1 1.0\n1 2 {token}\n", weighted=True)

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphError, match="line 3: duplicate edge"):
            load_edge_list("0 1\n1 2\n1 0\n")

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphError, match="line 1: self-loop"):
            load_edge_list("2 2\n")

    def test_edge_error_line_skips_comments_and_header(self):
        with pytest.raises(GraphError, match="line 6: duplicate edge"):
            load_edge_list("# c\nnodes 4\n0 1\n\n1 2\n2 1\n")

    def test_malformed_header(self):
        with pytest.raises(GraphError, match="malformed header"):
            load_edge_list("nodes five\n")
        with pytest.raises(GraphError, match="negative node count"):
            load_edge_list("nodes -3\n")

    def test_accepts_line_iterables(self):
        g = load_edge_list(["0 1", "1 2"])
        assert g.node_count == 3

    @given(g=st.one_of(st.integers(0, 500).map(random_small_graph), unit_graphs(),
                       undirected_twins().flatmap(st.sampled_from), weighted_graphs(),
                       any_weight_graphs()))
    @settings(max_examples=100, deadline=None)
    def test_dump_load_round_trip(self, g):
        """Same node count, ids, weight bytes and direction."""
        back = load_edge_list(dump_edge_list(g), directed=g.directed, weighted=g.weighted)
        assert back.node_count == g.node_count
        assert [(u, v) for u, v, _ in back.edges] == [(u, v) for u, v, _ in g.edges]
        assert [struct.pack("<d", w) for *_, w in back.edges] == [
            struct.pack("<d", w) for *_, w in g.edges]
        assert back.directed == g.directed and back.weighted == g.weighted

    def test_dump_includes_header(self, star4):
        assert dump_edge_list(star4).splitlines()[0] == "nodes 4"


# Tokens that int() and float() read in ways a bulk parse could get wrong.
ODD_IDS = ["+1", "1_0", "-0", "-1", "007", "x", "1.0", str(ID_LIMIT + 1), str(10**20),
           str(-(10**20))]
ODD_WEIGHTS = ["nan", "inf", "-inf", "1e999", "-0.0", "0", "5e-324", "-1", "1_0.5", "+2",
               "heavy", "1e-320"]


@st.composite
def edge_list_texts(draw):
    """An edge-list text and its directed and weighted flags: edges over a
    few ids (so duplicates either way round and sparse ids come up),
    headers anywhere, comments, blank and whitespace lines, tabs and CRLF
    endings, and, by a drawn set of kinds, self-loops and corrupted ids,
    weights, field counts or headers now and then."""
    weighted, directed = draw(st.booleans()), draw(st.booleans())
    n = draw(st.integers(2, 8))
    kinds = draw(st.sets(st.sampled_from(["loops", "ids", "weights", "fields", "headers"])))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n))
    if "loops" in kinds:
        pair = st.one_of(pair, pair, pair, st.integers(0, n - 1).map(lambda u: (u, u)))
    fields = pair.map(lambda p: [str(p[0]), str(p[1])])
    if "ids" in kinds:
        odd = st.sampled_from(ODD_IDS)
        fields = st.one_of(fields, fields, st.tuples(fields, odd, st.booleans()).map(
            lambda t: [t[1], t[0][1]] if t[2] else [t[0][0], t[1]]))
    weight = st.floats(0.0, 4.0, exclude_min=True).map(repr)
    if "weights" in kinds:
        weight = st.one_of(weight, weight, st.sampled_from(ODD_WEIGHTS))
    if weighted:
        fields = st.tuples(fields, weight).map(lambda t: t[0] + [t[1]])
    if "fields" in kinds:
        fields = st.one_of(fields, fields, fields, fields.map(lambda f: f[:-1]),
                           fields.map(lambda f: f + ["1"]))
    header = st.integers(0, n + 1).map(lambda k: f"nodes {k}")
    if "headers" in kinds:
        header = st.one_of(header, st.sampled_from(
            ["nodes", "nodes x", "nodes 1 2", "nodes -1", "nodes +3", "nodes 1_0",
             f"nodes {ID_LIMIT + 1}"]))
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    edge_line = st.tuples(fields, sep, st.sampled_from(["", " ", "\t"])).map(
        lambda t: t[2] + t[1].join(t[0]) + t[2])
    line = st.one_of(*[edge_line] * 6, header,
                     st.sampled_from(["", "   ", "\t", "# a comment", "  # nodes 2", "#0 1"]))
    lines = draw(st.lists(line, max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), directed, weighted


def _outcome(load, text, directed, weighted):
    """The error text, or the node count, edges and arc listings with
    each weight as its bytes."""
    try:
        got = load(text, directed=directed, weighted=weighted)
    except GraphError as exc:
        return str(exc)
    if isinstance(got, Graph):
        got = (got.node_count, got.edges, got.arc_tuples("forward"), got.arc_tuples("reverse"))
    n, edges, out, inc = got
    return (n, [(u, v, struct.pack("<d", w)) for u, v, w in edges],
            *([[(u, struct.pack("<d", w)) for u, w in arcs] for arcs in listing]
              for listing in (out, inc)))


class TestBulkParse:
    """load_edge_list and Graph.build against the per-line, per-edge
    references in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts())
    @example(("0 1\n1 2\n1 0\n", False, False))
    @example(("nodes 3\r\n0\t2 5e-324\r\n\r\n# c\r\n2 1 1_0.5\r\n", True, True))
    @example((f"0 1\n1 {ID_LIMIT + 1}\n1 x\n", False, False))
    @example((f"0 1\n1 {ID_LIMIT + 1}\n", False, False))
    @example((f"nodes {ID_LIMIT + 1}\n0 1\n", False, False))
    @example((f"nodes {ID_LIMIT + 1}\nnodes {ID_LIMIT + 2}\n0 {ID_LIMIT + 1}\n", False, False))
    @example(("0 1\n1 -1\n", False, False))
    @example(("", False, True))
    def test_parse_matches_per_line_reference(self, case):
        text, directed, weighted = case
        want = _outcome(load_edge_list_reference, text, directed, weighted)
        assert _outcome(load_edge_list, text, directed, weighted) == want
        lines = text.splitlines(keepends=True)
        assert _outcome(load_edge_list, lines, directed, weighted) == want

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_larger_graph_matches_per_line_reference(self, directed, weighted):
        """Hundreds of arcs per orientation, in a shuffled order and, when
        undirected, each edge written either way round."""
        g = gen_gnp(120, 0.05, seed=3, weighted=weighted, directed=directed)
        rng = np.random.default_rng(4)
        lines = dump_edge_list(g).splitlines()
        edges = [lines[1 + i].split() for i in rng.permutation(g.edge_count)]
        if not directed:
            edges = [[v, u, *w] if flip else [u, v, *w]
                     for (u, v, *w), flip in zip(edges, rng.integers(0, 2, len(edges)))]
        text = "\n".join([lines[0], *map(" ".join, edges)])
        want = _outcome(load_edge_list_reference, text, directed, weighted)
        assert isinstance(want, tuple)
        assert _outcome(load_edge_list, text, directed, weighted) == want

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 5), directed=st.booleans(),
           edges=st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6),
                                    st.sampled_from([1.0, 0.5, 2.5, 0.0, -0.0, -1.0, INF,
                                                     -INF, math.nan, 5e-324])), max_size=10))
    @example(n=3, directed=False, edges=[(0, 1, 1.0), (2, 1, 1.0), (1, 0, 2.0)])
    @example(n=2, directed=True, edges=[(0, 1, 1.0), (1, 0, 1.0), (0, 1, 1.0)])
    @example(n=2, directed=False, edges=[(0, 1, 1.0), (ID_LIMIT + 1, 0, 1.0)])
    def test_build_matches_per_edge_reference(self, n, directed, edges):
        """The same error text and edge position, or the same layout,
        from the triples and from the arrays."""
        try:
            want = build_reference(n, edges, directed=directed)
        except GraphError as exc:
            want = (str(exc), exc.edge)
        given_edges = [edges]
        if all(abs(x) <= ID_LIMIT for u, v, _ in edges for x in (u, v)):
            us, vs, ws = zip(*edges) if edges else ((), (), ())
            given_edges.append((np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
                                np.array(ws, dtype=float)))
        for given in given_edges:
            try:
                g = Graph.build(n, given, directed=directed, weighted=True)
            except GraphError as exc:
                assert (str(exc), exc.edge) == want
                continue
            assert (g.edges, g.arc_tuples("forward"), g.arc_tuples("reverse")) == want


class TestDataLines:
    def test_skips_blank_and_comment_lines_and_counts_every_line(self):
        text = "# header\n\n  0 1  \n\t# note\n1 2\n"
        assert list(data_lines(text)) == [(3, "0 1"), (5, "1 2")]
        assert list(data_lines(text.splitlines(keepends=True))) == [(3, "0 1"), (5, "1 2")]


class TestShortestPaths:
    def test_unreachable_is_infinite(self):
        g = Graph.build(3, [(0, 1, 1.0)])
        assert distance_matrix(g)[0][2] == INF
        assert [node for _, node in settle(g, 0)] == [0, 1]

    def test_tie_breaks_on_node_id(self, star4):
        row = settle(star4, 0)
        assert [node for _, node in row] == [0, 1, 2, 3]

    def test_reverse_orientation_directed(self):
        g = Graph.build(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        assert settle(g, 2, "reverse") == [(0.0, 2), (1.0, 1), (2.0, 0)]
        assert settle(g, 2, "forward") == [(0.0, 2)]

    def test_unknown_orientation(self, path3):
        with pytest.raises(GraphError, match="unknown orientation"):
            settle(path3, 0, "sideways")

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_relaxation(self, seed):
        g = random_small_graph(seed, n_max=9)
        want = floyd_warshall(g)
        got = distance_matrix(g, "forward")
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == (g.node_count, g.node_count)
        for src in range(g.node_count):
            for dst in range(g.node_count):
                assert got[src][dst] == pytest.approx(want[src][dst], abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_reverse_matrix_is_transpose(self, seed):
        g = random_small_graph(seed, n_max=8, directed=True)
        fwd = distance_matrix(g, "forward")
        rev = distance_matrix(g, "reverse")
        for a in range(g.node_count):
            for b in range(g.node_count):
                # path sums associate in opposite order, so allow float slack
                assert rev[a][b] == pytest.approx(fwd[b][a], abs=1e-12)

    def test_weighted_shortcut_beats_hop_count(self):
        g = Graph.build(
            3, [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)], weighted=True
        )
        assert distance_matrix(g)[0][1] == 2.0


class TestDistanceBlocks:
    @pytest.mark.parametrize("blocks", sorted(BLOCKINGS))
    @given(
        g=st.one_of(
            st.just(Graph.build(0, [])),
            unit_graphs(),
            weighted_graphs(n_max=12),
            undirected_twins().flatmap(st.sampled_from),
            st.booleans().map(lambda directed: tenth_hubs(directed)[0]),
        ),
        orientation=st.sampled_from(["forward", "reverse"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matrix_is_settle_rows_bit_for_bit(self, blocks, g, orientation):
        with blocking(blocks):
            got = distance_matrix(g, orientation)
        want = settle_rows(g, orientation)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blocks", sorted(BLOCKINGS))
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_larger_graphs_bit_for_bit(self, blocks, directed, weighted):
        g = gen_gnp(150, 0.03, seed=7, weighted=weighted, directed=directed)
        for orientation in ("forward", "reverse"):
            with blocking(blocks):
                got = distance_matrix(g, orientation)
            assert got.tobytes() == settle_rows(g, orientation).tobytes()

    @pytest.mark.parametrize("deep", [False, True])
    def test_deep_trees_take_settle_rows(self, monkeypatch, deep):
        # a path needs a sweep per hop, past the cap; G(n, p) a few sweeps
        if deep:
            g = Graph.build(200, [(v, v + 1, 0.5 + v % 7 / 10) for v in range(199)],
                            weighted=True)
        else:
            g = gen_gnp(200, 0.03, seed=3, weighted=True)
        calls = []

        def counted(*args):
            calls.append(args[1])
            return settle(*args)

        monkeypatch.setattr("shapcent.graph.settle", counted)
        got = distance_matrix(g, "reverse")
        assert calls == (list(range(200)) if deep else [])
        monkeypatch.undo()
        assert got.tobytes() == settle_rows(g, "reverse").tobytes()

    def test_unknown_orientation(self, path3):
        with pytest.raises(GraphError, match="unknown orientation"):
            distance_matrix(path3, "sideways")

    @pytest.mark.parametrize("blocks", sorted(BOUNDED_BLOCKINGS))
    @given(
        g=st.one_of(
            unit_graphs(),
            weighted_graphs(n_max=12),
            undirected_twins().flatmap(st.sampled_from),
        ),
        orientation=st.sampled_from(["forward", "reverse"]),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_limit_keeps_every_entry_at_or_below_it(self, blocks, g, orientation, data):
        want = settle_rows(g, orientation)
        finite = sorted(set(want[np.isfinite(want)].tolist()))
        # a limit on a distance (0.0 included), or anywhere up past every distance
        limit = data.draw(st.sampled_from(finite) | st.floats(1e-3, 2 * finite[-1] + 1))
        with blocking(blocks):
            got = np.concatenate(list(distance_blocks(g, orientation, limit)))
        within = want <= limit
        assert got[within].tobytes() == want[within].tobytes()
        assert (got[~within] > limit).all()

    @pytest.mark.parametrize("blocks", sorted(BOUNDED_BLOCKINGS))
    @pytest.mark.parametrize("weights", ["unit", "integer"])
    def test_limit_on_a_distance_keeps_it(self, blocks, weights):
        # every limit lands on a distance, which a candidate exactly at the
        # limit must still reach
        g = gen_gnp(60, 0.06, seed=2, directed=True)
        if weights == "integer":
            g = Graph.build(60, [(u, v, float(1 + (u + v) % 3)) for u, v, _ in g.edges],
                            directed=True, weighted=True)
        for orientation in ("forward", "reverse"):
            want = settle_rows(g, orientation)
            for limit in sorted(set(want[np.isfinite(want)].tolist())):
                with blocking(blocks):
                    got = np.concatenate(list(distance_blocks(g, orientation, limit)))
                within = want <= limit
                assert got[within].tobytes() == want[within].tobytes()
                assert (got[~within] > limit).all()

    def test_limit_stops_the_sweeps_of_a_deep_tree(self, monkeypatch):
        # unbounded, this path passes the cap and takes settle rows (above);
        # bounded, each block stays a frontier over its small balls
        g = Graph.build(200, [(v, v + 1, 0.5 + v % 7 / 10) for v in range(199)],
                        weighted=True)
        monkeypatch.setattr("shapcent.graph.settle", None)  # no row may call it
        got = np.concatenate(list(distance_blocks(g, "reverse", 2.0)))
        monkeypatch.undo()
        want = settle_rows(g, "reverse")
        assert got[want <= 2.0].tobytes() == want[want <= 2.0].tobytes()
        assert (got[want > 2.0] > 2.0).all()


class TestSettle:
    @given(g=weighted_graphs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bounded_search_is_full_search_filtered(self, g, data):
        source = data.draw(st.integers(0, g.node_count - 1))
        orientation = data.draw(st.sampled_from(["forward", "reverse"]))
        full = settle(g, source, orientation)
        limits = [d for d, _ in full] + [data.draw(st.floats(0.0, 4.0))]
        for limit in limits:
            # a uniform bound just above limit keeps d <= limit
            bound = [math.nextafter(limit, INF)] * g.node_count
            bounded = settle(g, source, orientation, bound)
            # same pairs, same order, bit-identical distances
            assert bounded == [(d, v) for d, v in full if d <= limit]
            assert all(d <= limit for d, _ in bounded)

    @given(g=weighted_graphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_settles_reachable_nodes_in_distance_order(self, g, data):
        source = data.draw(st.integers(0, g.node_count - 1))
        row = settle(g, source)
        assert row[0] == (0.0, source)
        reach = floyd_warshall(g)[source]
        settled = [v for _, v in row]
        assert len(settled) == len(set(settled))
        assert set(settled) == {v for v in range(g.node_count) if reach[v] < INF}
        dists = [d for d, _ in row]
        assert dists == sorted(dists)
        if all(w.is_integer() for _, _, w in g.edges):
            assert row == sorted(row)  # ties in ascending node id

    @given(
        g=st.one_of(
            unit_graphs(),
            weighted_graphs(),
            undirected_twins().flatmap(st.sampled_from),
            st.booleans().map(lambda directed: tenth_hubs(directed)[0]),
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_list_is_lowered_to_the_full_search(self, g, data):
        n = g.node_count
        orientation = data.draw(st.sampled_from(["forward", "reverse"]))
        # the running minimum over a few searches, as the g4 sampler keeps it
        bound = [INF] * n
        for src in data.draw(st.lists(st.integers(0, n - 1), max_size=4)):
            for d, u in settle(g, src, orientation):
                bound[u] = min(bound[u], d)
        source = data.draw(st.integers(0, n - 1))
        full = {u: d for d, u in settle(g, source, orientation)}
        old = list(bound)
        got = settle(g, source, orientation, bound=bound)

        def bits(x):
            return struct.pack("<d", x)

        below = {u: d for u, d in full.items() if d < old[u]}
        assert sorted(u for _, u in got) == sorted(below)
        assert [bits(d) for d, u in got] == [bits(below[u]) for _, u in got]
        assert [bits(b) for b in bound] == [
            bits(min(o, full.get(u, INF))) for u, o in enumerate(old)
        ]

    @pytest.mark.parametrize("low", [0.0, -1.0, math.nan])
    def test_source_bound_not_above_zero_settles_nothing(self, path3, low):
        bound = [low, INF, INF]
        assert settle(path3, 0, "forward", bound) == []
        assert bound[1:] == [INF, INF]
        assert settle(path3, 1, "forward", bound) == [(0.0, 1), (1.0, 2)]


class TestGnpGenerator:
    def test_p_one_is_complete(self):
        g = gen_gnp(6, 1.0, seed=1)
        assert g.edge_count == 15

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            gen_gnp(5, 0.0, seed=1)
        with pytest.raises(ValueError):
            gen_gnp(5, 1.5, seed=1)

    def test_edge_count_near_binomial_mean(self):
        g = gen_gnp(100, 0.05, seed=42)
        mean = 4950 * 0.05
        sigma = math.sqrt(4950 * 0.05 * 0.95)
        assert abs(g.edge_count - mean) <= 3 * sigma
