import random

import pytest
from hypothesis import given, settings

from wellcovered.graph import (DisconnectedGraphError, EdgeListParseError,
                               Graph, SelfLoopError, VertexRangeError,
                               build_graph, components,
                               contains_simplicial_vertex, format_edge_list,
                               is_chordal, is_sccg, parse_edge_list, relabel,
                               simplicial_report, simplicial_vertices)
from wellcovered.families import (complete, cycle, figure1, path, sierpinski,
                                  named_corpus)

from oracles import has_long_induced_cycle, simplicial_vertices_naive
from strategies import connected_graphs


def test_build_k3():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_build_dedups_both_orientations():
    g = build_graph(2, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        build_graph(4, [(0, 1), (2, 3)])


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(0, 0), (0, 1), (1, 2)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        build_graph(3, [(0, 3)])


def test_single_vertex_graph_is_accepted():
    g = build_graph(1, [])
    assert g.n == 1
    assert simplicial_vertices(g) == {0}
    assert simplicial_report(g).sc == 1


def test_graph_equality_is_label_sensitive():
    a = path(3)
    b = build_graph(3, [(0, 1), (1, 2)])
    c = build_graph(3, [(0, 2), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_neighborhood_k3():
    g = complete(3)
    assert g.neighborhood([0]) == {1, 2}
    assert g.closed_neighborhood([0]) == {0, 1, 2}


def test_neighborhood_path_interior():
    g = path(5)
    assert g.neighborhood([2]) == {1, 3}


def test_neighborhood_figure1_hub():
    # vertex 2 is the transcription's v3; degree six
    g = figure1()
    assert g.neighborhood([2]) == {0, 1, 3, 4, 6, 7}


def test_neighborhood_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        path(3).neighborhood([7])


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
    vertices: distinct closed neighbourhoods by first simplicial vertex,
    stably sorted by their smallest member."""
    cliques = []
    for v in simplicial_vertices_naive(g.n, g.edges):
        c = frozenset(g.adjacency[v] | {v})
        if c not in cliques:
            cliques.append(c)
    cliques.sort(key=min)
    connection = frozenset(v for v in g.vertices
                           if sum(v in c for c in cliques) >= 2)
    return ([sorted(c) for c in cliques], sorted(connection),
            [sorted(c & connection) for c in cliques])


def _assert_simplicial_matches_oracle(g):
    simp = simplicial_vertices(g)
    assert simp == set(simplicial_vertices_naive(g.n, g.edges))
    rep = simplicial_report(g)
    assert rep.simplicial_vertices == simp
    assert ([sorted(c) for c in rep.cliques], sorted(rep.connection_set),
            [sorted(w) for w in rep.per_clique_w]) == _report_from_oracle(g)


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
    assert rep.per_clique_w == (frozenset(), frozenset(), frozenset())


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
        for c in rep.cliques:
            assert g.is_clique(c), name
            outside = set(g.vertices) - c
            assert not any(c <= g.adjacency[v] for v in outside), name


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


def test_components():
    g = figure1()
    comps = components(g, set(g.vertices) - {2})
    assert [sorted(c) for c in comps] == [[0, 1], [3, 4, 5, 6, 7, 8, 9]]


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


def test_writer_sorts_edges():
    g = build_graph(4, [(3, 2), (1, 0), (2, 0)])
    body = [line for line in format_edge_list(g).splitlines()
            if not line.startswith("#")]
    assert body == ["n 4", "0 1", "0 2", "2 3"]
