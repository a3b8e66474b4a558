import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from wellcovered.graph import (DisconnectedGraphError, EdgeListParseError,
                               Graph, SelfLoopError, VertexRangeError, _reach,
                               adjacency_masks, contains_simplicial_vertex,
                               format_edge_list, is_chordal, is_sccg,
                               load_graph, parse_edge_list, relabel,
                               simplicial_report, simplicial_vertices)
from wellcovered.families import (complete, cycle, figure1, path, sierpinski,
                                  named_corpus)
from wellcovered.mis import swap_pairs

from oracles import (adjacency, components_naive, has_long_induced_cycle,
                     simplicial_cliques_naive, simplicial_vertices_naive)
from strategies import connected_graphs, random_k_tree


def test_build_k3():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_build_dedups_both_orientations():
    g = Graph(2, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        Graph(4, [(0, 1), (2, 3)])
    # n - 1 edges, so only the flood fill over the masks can reject it
    with pytest.raises(DisconnectedGraphError):
        Graph(4, [(0, 1), (1, 2), (0, 2)])


def test_too_few_edges_are_rejected_before_any_per_vertex_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraphError):
            Graph(10**7, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        Graph(3, [(0, 0), (0, 1), (1, 2)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        Graph(3, [(0, 3)])


def test_single_vertex_graph_is_accepted():
    g = Graph(1, [])
    assert g.n == 1
    assert simplicial_vertices(g) == {0}
    assert simplicial_report(g).sc == 1


def test_graph_equality_is_label_sensitive():
    a = path(3)
    b = Graph(3, [(0, 1), (1, 2)])
    c = Graph(3, [(0, 2), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def _mask(vs) -> int:
    return sum(1 << v for v in vs)


def test_neighborhood_k3():
    g = complete(3)
    assert adjacency_masks(g)[0] == _mask({1, 2})
    assert g.closed_neighborhood([0]) == {0, 1, 2}


def test_neighborhood_path_interior():
    g = path(5)
    assert adjacency_masks(g)[2] == _mask({1, 3})


def test_neighborhood_figure1_hub():
    # vertex 2 is the transcription's v3; degree six
    g = figure1()
    assert adjacency_masks(g)[2] == _mask({0, 1, 3, 4, 6, 7})


def test_neighborhood_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        path(3).closed_neighborhood([7])
    with pytest.raises(VertexRangeError):
        path(3).closed_neighborhood([-1])


def test_closed_neighborhood_checks_its_set_once(monkeypatch):
    checked = []
    check_subset = Graph._check_subset

    def spy(self, vs):
        checked.append(vs)
        return check_subset(self, vs)

    monkeypatch.setattr(Graph, "_check_subset", spy)
    assert path(5).closed_neighborhood([0, 3]) == {0, 1, 2, 3, 4}
    assert checked == [[0, 3]]
    with pytest.raises(VertexRangeError):
        path(3).closed_neighborhood([1, 7])


def test_is_clique():
    k4 = complete(4)
    assert k4.is_clique([0, 2, 3])
    assert not path(5).is_clique([0, 1, 2])
    assert path(5).is_clique([])
    assert path(5).is_clique([4])


def test_simplicial_vertices_complete():
    for n in (1, 2, 3, 5):
        assert simplicial_vertices(complete(n)) == set(range(n))


def test_simplicial_vertices_path5_matches_oracle():
    g = path(5)
    expected = set(simplicial_vertices_naive(g.n, g.edges))
    assert simplicial_vertices(g) == expected
    assert expected == {0, 4}  # only the two endpoints; interior N[v] is no clique


def test_simplicial_vertices_figure1():
    g = figure1()
    assert simplicial_vertices(g) == {0, 1, 5, 8, 9}
    assert set(simplicial_vertices_naive(g.n, g.edges)) == {0, 1, 5, 8, 9}


def test_simplicial_vertices_match_clique_predicate():
    rng = random.Random(7)
    for _ in range(40):
        g = _random_connected(rng, 8)
        simp = simplicial_vertices(g)
        for v in g.vertices:
            assert (v in simp) == g.is_clique(g.closed_neighborhood([v]))


def _report_from_oracle(g):
    """The simplicial report built literally from the oracle's simplicial
    cliques, each the closed neighbourhood of its first simplicial vertex,
    stably sorted by their smallest member."""
    cliques, connection = simplicial_cliques_naive(g.n, g.edges)
    return sorted(map(sorted, cliques), key=min), sorted(connection)


def _assert_simplicial_matches_oracle(g):
    simp = simplicial_vertices(g)
    assert simp == set(simplicial_vertices_naive(g.n, g.edges))
    rep = simplicial_report(g)
    assert rep.simplicial_vertices == simp
    assert ([sorted(c) for c in rep.cliques], sorted(rep.connection_set)) == \
        _report_from_oracle(g)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_n=10))
def test_simplicial_structure_matches_oracle(g):
    _assert_simplicial_matches_oracle(g)


def test_simplicial_structure_matches_oracle_on_corpus():
    for name, g in named_corpus().items():
        _assert_simplicial_matches_oracle(g)


def test_simplicial_report_is_memoised_per_graph():
    for name, g in named_corpus().items():
        fresh = Graph(g.n, g.edges)
        before = (hash(fresh), fresh == g, g == fresh)
        rep = simplicial_report(g)
        assert simplicial_report(g) is rep, name
        # a distinct but equal graph computes its own, equal report
        assert simplicial_report(fresh) == rep, name
        assert simplicial_report(fresh) is not rep, name
        # the memo takes no part in equality or hashing
        assert (hash(fresh), fresh == g, g == fresh) == before, name
        assert hash(g) == hash(fresh) == hash((g.n, g.edges)), name
        assert len({g, fresh}) == 1, name
    with pytest.raises(AttributeError):
        g._simplicial = None


def test_graph_copies_and_pickles_to_an_equal_graph():
    for name, g in named_corpus().items():
        blank = Graph(g.n, g.edges)
        simplicial_report(g)
        swap_pairs(g)  # fills the _engine and _mis_count slots
        assert g._engine is not None and g._mis_count is not None, name
        # the memo slots take no part in equality or hashing
        assert blank == g and hash(blank) == hash(g), name
        for twin in (copy.copy(g), copy.deepcopy(g),
                     pickle.loads(pickle.dumps(g))):
            assert twin == g and hash(twin) == hash(g), name
            assert adjacency_masks(twin) == adjacency_masks(g), name
            # rebuilt through the constructor: the memo is not carried over
            assert twin._simplicial is None, name
            assert twin._engine is None and twin._mis_count is None, name


def test_adjacency_masks_are_built_once_and_rebuilt_by_copies():
    for name, g in named_corpus().items():
        masks = adjacency_masks(g)
        assert masks == tuple(sum(1 << u for u in nbrs)
                              for nbrs in adjacency(g.n, g.edges)), name
        assert adjacency_masks(g) is masks, name
        for twin in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert adjacency_masks(twin) == masks, name


def test_contains_simplicial_vertex_reads_the_memoised_report():
    g = figure1()
    assert g._simplicial is None
    assert contains_simplicial_vertex(g, [6, 7, 8, 9])
    rep = g._simplicial
    assert rep is not None and simplicial_report(g) is rep
    assert not contains_simplicial_vertex(g, [2])
    assert g._simplicial is rep


def test_simplicial_report_figure1():
    rep = simplicial_report(figure1())
    assert rep.sc == 3
    assert [sorted(c) for c in rep.cliques] == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    assert rep.connection_set == frozenset()


def test_simplicial_report_s2():
    rep = simplicial_report(sierpinski(2).graph)
    assert rep.sc == 3


def test_simplicial_report_c8_empty():
    rep = simplicial_report(cycle(8))
    assert rep.sc == 0
    assert rep.cliques == ()
    assert rep.connection_set == frozenset()


def test_simplicial_report_cliques_are_maximal():
    for name, g in named_corpus().items():
        rep = simplicial_report(g)
        masks = adjacency_masks(g)
        for c in rep.cliques:
            assert g.is_clique(c), name
            outside = set(g.vertices) - c
            assert not any(_mask(c) & ~masks[v] == 0 for v in outside), name


def test_connection_set_membership_counts():
    for name, g in named_corpus().items():
        rep = simplicial_report(g)
        for v in g.vertices:
            count = sum(1 for c in rep.cliques if v in c)
            if v in rep.connection_set:
                assert count >= 2, name
            else:
                assert count <= 1, name


def test_contains_simplicial_vertex_literal_definition():
    g = figure1()
    assert contains_simplicial_vertex(g, [0, 2])      # clique holding simplicial 0
    assert contains_simplicial_vertex(g, [6, 7, 8, 9])
    assert not contains_simplicial_vertex(g, [2])     # v3 alone is not simplicial
    assert not contains_simplicial_vertex(g, [0, 3])  # not even a clique


def test_is_chordal_named_cases():
    assert is_chordal(complete(6))
    assert is_chordal(path(9))
    assert not is_chordal(cycle(4))
    assert is_chordal(sierpinski(2).graph)
    assert not is_chordal(sierpinski(3).graph)


def _random_connected(rng: random.Random, max_n: int) -> Graph:
    while True:
        n = rng.randint(2, max_n)
        p = rng.choice([0.25, 0.4, 0.6])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        try:
            return Graph(n, edges)
        except DisconnectedGraphError:
            continue


def test_is_chordal_agrees_with_induced_cycle_search():
    rng = random.Random(42)
    for _ in range(150):
        g = _random_connected(rng, 9)
        assert is_chordal(g) == (not has_long_induced_cycle(g.n, g.edges)), g.edges
    for name, g in named_corpus().items():
        if g.n <= 15:
            assert is_chordal(g) == (not has_long_induced_cycle(g.n, g.edges)), name


def test_random_k_trees_are_chordal_until_a_long_cycle_closes():
    # past the oracle's reach: k-trees are chordal, and a new path u-x-y-w
    # between non-adjacent u and w closes, with a shortest u-w path, a
    # chordless cycle of length at least 5
    rng = random.Random(29)
    for k in (1, 2, 3, 4):
        for n in (k + 1, 40, 150, 400):
            g = random_k_tree(rng, k, n)
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, relabel(g, perm)):
                assert is_chordal(h), (k, n)
                masks = adjacency_masks(h)
                u = rng.randrange(n)
                far = [w for w in h.vertices if not (masks[u] | 1 << u) >> w & 1]
                if not far:
                    continue  # K_{k+1}: no non-adjacent pair
                w = rng.choice(far)
                x, y = n, n + 1
                longer = Graph(n + 2, h.edges + ((u, x), (x, y), (y, w)))
                assert not is_chordal(longer), (k, n, u, w)


def test_is_sccg():
    assert is_sccg(figure1())
    assert is_sccg(complete(4))
    assert not is_sccg(sierpinski(3).graph)
    assert not is_sccg(cycle(8))  # sc = 0


def test_relabel_identity_and_permutation():
    g = figure1()
    assert relabel(g, list(range(g.n))) == g
    perm = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
    h = relabel(g, perm)
    assert h.n == g.n and len(h.edges) == len(g.edges)
    assert relabel(h, perm) == g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_n=10))
def test_set_queries_match_the_edge_list(g):
    adj = adjacency(g.n, g.edges)
    rng = random.Random(g.n * 1000 + len(g.edges))
    masks = adjacency_masks(g)
    for v in g.vertices:
        assert masks[v] == _mask(adj[v])
    for _ in range(10):
        s = {v for v in g.vertices if rng.random() < 0.5}
        assert g.closed_neighborhood(s) == s.union(*(adj[v] for v in s))
        assert g.is_clique(s) == all(u in adj[v] for u in s for v in s if u != v)
        # the flood fill from the lowest vertex of s is its first component
        keep = _mask(s)
        reached = _reach(masks, keep & -keep, keep)
        assert reached == (_mask(components_naive(adj, s)[0]) if s else 0)


# --- edge-list format ---------------------------------------------------------

def test_edge_list_round_trip():
    for name, g in named_corpus().items():
        text = format_edge_list(g, (f"corpus {name}",))
        assert parse_edge_list(text) == g, name
        # canonical writer output is idempotent through a parse cycle
        assert format_edge_list(parse_edge_list(text), (f"corpus {name}",)) == text


def test_parse_tolerates_duplicates_and_comments():
    text = "# a comment\nn 3\n0 1\n1 0\n\n1 2\n"
    g = parse_edge_list(text)
    assert g.edges == ((0, 1), (1, 2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("# hi\nnot-a-header\n")
    assert err.value.line == 2
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("n 3\n0 x\n")
    assert err.value.line == 2
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("n 3\n0 1 2\n")
    assert err.value.line == 2
    with pytest.raises(EdgeListParseError):
        parse_edge_list("# empty\n")


@pytest.mark.parametrize("text, line", [
    ("n \u0663\n0 1\n1 2\n", 1),      # an Arabic-Indic digit three
    ("n 1_0\n0 1\n", 1),               # an underscore int() reads as 10
    ("n +3\n0 1\n1 2\n", 1),
    ("n -3\n", 1),
    ("n 3\n0 +1\n1 2\n", 2),
    ("n 3\n0 1\n-1 2\n", 3),
    ("n 3\n0 1\n1 \uff12\n", 3),      # a fullwidth digit two
    ("n 3\n0 1\n1 \u00b2\n", 3),      # a superscript two
])
def test_parse_reads_ascii_decimal_digits_only(text, line):
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line


def test_load_graph_names_the_line_of_a_non_utf8_byte(tmp_path):
    target = tmp_path / "g.g"
    target.write_bytes(b"# caf\xc3\xa9\r\nn 3\r\n0 1\r\n1 2\r\n")
    assert load_graph(str(target)) == path(3)
    for data, line in ((b"\xff\nn 2\n0 1\n", 1),
                       (b"n 3\n0 1\n1 \xff2\n", 3),
                       (b"n 3\r\n0 1\r\n# caf\xc3\n", 3),  # cut short
                       (b"n 3\r0 1\r1 2\r\xfe\r", 4)):
        target.write_bytes(data)
        with pytest.raises(EdgeListParseError) as err:
            load_graph(str(target))
        assert err.value.line == line, data


def test_load_graph_skips_one_leading_byte_order_mark(tmp_path):
    target = tmp_path / "g.g"
    for data in (b"\xef\xbb\xbfn 3\n0 1\n1 2\n",
                 b"\xef\xbb\xbf# path\r\nn 3\r\n0 1\r\n1 2\r\n"):
        target.write_bytes(data)
        assert load_graph(str(target)) == path(3), data
    # a bad byte after the mark is named on its own line, counted from the
    # start of the file
    target.write_bytes(b"\xef\xbb\xbfn 3\n0 \xff1\n1 2\n")
    with pytest.raises(EdgeListParseError,
                       match="^line 2: not UTF-8: byte 0xff$"):
        load_graph(str(target))
    # only one mark is skipped: a second is text, not a header
    target.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfn 2\n0 1\n")
    with pytest.raises(EdgeListParseError, match="^line 1: expected"):
        load_graph(str(target))


def test_parse_reads_leading_zeros_as_decimal():
    assert parse_edge_list("n 03\n00 01\n01 002\n") == path(3)


def test_writer_sorts_edges():
    g = Graph(4, [(3, 2), (1, 0), (2, 0)])
    body = [line for line in format_edge_list(g).splitlines()
            if not line.startswith("#")]
    assert body == ["n 4", "0 1", "0 2", "2 3"]
