import importlib.resources as resources
import json
import random
from hashlib import sha256

import pytest

from wellcovered.graph import (Graph, adjacency_masks, format_edge_list,
                               is_chordal, is_sccg, parse_edge_list, relabel,
                               simplicial_report, simplicial_vertices)
from wellcovered.families import (FAMILY_MAX_K, SIERPINSKI_MAX_ORDER, ScsSpec,
                                  ScsValidationError, complete,
                                  corpus_comments, corpus_graph, corpus_names,
                                  cycle, figure1, figure2_family,
                                  figure6_composite, figure6_g1, figure6_g2,
                                  figure6_spec, named_corpus, path,
                                  scs_compose, scs_split, sierpinski, star,
                                  triangle_pendant_spec, vertex_bowtie)
from wellcovered.harness import random_connected_graphs

from oracles import (first_splitting_clique, induced_subgraph, scs_splits,
                     split_to_spec)
from strategies import random_k_tree


def test_standard_families():
    assert complete(3) == cycle(3)
    assert path(2).edges == ((0, 1),)
    assert len(complete(4).edges) == 6
    assert len(cycle(8).edges) == 8
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)


def test_generators_are_deterministic():
    assert figure1() == figure1()
    assert sierpinski(3).graph == sierpinski(3).graph
    assert figure2_family(4) == figure2_family(4)


# --- Sierpinski -----------------------------------------------------------------

def test_sierpinski_vertex_count_formula():
    def vertex_count(order):
        return 3 * (3 ** (order - 1) + 1) // 2

    expected = {1: 3, 2: 6, 3: 15, 4: 42, 5: 123, 6: 366}
    for order, count in expected.items():
        assert vertex_count(order) == count
    for order in (1, 2, 3, 4, 5):
        assert sierpinski(order).graph.n == vertex_count(order)


def test_sierpinski_order_bounds():
    with pytest.raises(ValueError):
        sierpinski(0)
    with pytest.raises(ValueError):
        sierpinski(SIERPINSKI_MAX_ORDER + 1)


def test_sierpinski_s2_shape():
    sg = sierpinski(2)
    assert len(sg.graph.edges) == 9
    degrees = sorted(m.bit_count() for m in adjacency_masks(sg.graph))
    assert degrees == [2, 2, 2, 4, 4, 4]


def test_sierpinski_degrees_and_simplicial_vertices():
    # degree is 2 exactly on the simplicial vertices, which are the three
    # outer corners for order >= 2; every other vertex has degree 4
    for order in (2, 3, 4):
        sg = sierpinski(order)
        simp = simplicial_vertices(sg.graph)
        assert simp == set(sg.corners)
        for v, mask in enumerate(adjacency_masks(sg.graph)):
            expected = 2 if v in simp else 4
            assert mask.bit_count() == expected
    s1 = sierpinski(1)
    assert all(m.bit_count() == 2 for m in adjacency_masks(s1.graph))


def test_sierpinski_corner_cliques():
    sg = sierpinski(3)
    rep = simplicial_report(sg.graph)
    assert rep.sc == 3
    assert set(rep.cliques) == set(sg.corner_cliques)
    for c in sg.corner_cliques:
        assert len(c) == 3
    one = sierpinski(1)
    assert one.corner_cliques == (frozenset({0, 1, 2}),) * 3


def test_sierpinski_contains_three_previous_orders():
    # coordinate-block extraction: each corner block induces the previous order
    for order in (2, 3, 4):
        small = sierpinski(order - 1).graph
        big = sierpinski(order)
        half = 2 ** (order - 1)
        offsets = ((0, 0), (half, 0), (half // 2, half // 2))
        coords = sorted({(x, y) for x, y in _lattice_coords(order)})
        index = {c: i for i, c in enumerate(coords)}
        small_coords = sorted({(x, y) for x, y in _lattice_coords(order - 1)})
        for ox, oy in offsets:
            block = [index[(x + ox, y + oy)] for x, y in small_coords]
            sub, labels = induced_subgraph(big.graph, block)
            assert sub == small


def _lattice_coords(order):
    from wellcovered.families import _sierpinski_lattice
    verts, _ = _sierpinski_lattice(order)
    return verts


def test_sierpinski_classification():
    assert is_chordal(sierpinski(2).graph)
    assert is_sccg(sierpinski(2).graph)
    s3 = sierpinski(3).graph
    assert not is_chordal(s3)
    assert not is_sccg(s3)
    assert scs_split(s3) is None


# --- figure graphs ----------------------------------------------------------------

def test_figure1_shape():
    g = figure1()
    assert (g.n, len(g.edges)) == (10, 17)
    rep = simplicial_report(g)
    assert rep.sc == 3
    assert rep.connection_set == frozenset()
    assert is_sccg(g)


def test_figure2_family_shape():
    for k in (1, 2, 3, 4, 5):
        g = figure2_family(k)
        assert g.n == k + 4
        rep = simplicial_report(g)
        assert rep.sc == 2
        assert is_sccg(g)
    with pytest.raises(ValueError):
        figure2_family(0)
    with pytest.raises(ValueError):
        figure2_family(FAMILY_MAX_K + 1)


def test_figure6_parts():
    g1, g2 = figure6_g1(), figure6_g2()
    assert (g1.n, len(g1.edges)) == (7, 11)
    assert (g2.n, len(g2.edges)) == (7, 9)
    assert is_sccg(g1) and not is_chordal(g1)
    assert is_chordal(g2) and not is_sccg(g2)
    comp = figure6_composite()
    assert (comp.n, len(comp.edges)) == (10, 14)
    rep = simplicial_report(comp)
    assert rep.sc == 3
    # the shared 4-clique is simplicial in both parts and the composite
    assert frozenset({1, 2, 5, 9}) in rep.cliques


def test_vertex_bowtie_connection_set():
    rep = simplicial_report(vertex_bowtie())
    assert rep.connection_set == frozenset({2})
    assert rep.sc == 2


def test_sccg_mod_family_shares_cliques():
    expected = (frozenset({0, 3, 4}), frozenset({1, 2, 5}))
    for tag in ("base", "a", "b", "c", "d", "e"):
        g = corpus_graph(f"sccg_mod_{tag}")
        rep = simplicial_report(g)
        assert rep.cliques == expected, tag
        assert is_sccg(g), tag


# --- clique sums -------------------------------------------------------------------

def test_scs_compose_triangle_pendants():
    comp = scs_compose(triangle_pendant_spec())
    assert comp.graph.n == 5
    assert sorted(comp.shared) == [0, 1, 2]
    assert comp.g2_to_composite == (0, 1, 2, 4)
    rep = simplicial_report(comp.graph)
    assert rep.sc == 3


def test_scs_compose_no_cross_edges():
    spec = figure6_spec()
    comp = scs_compose(spec)
    only_g1 = set(range(spec.g1.n)) - comp.shared
    only_g2 = set(comp.g2_to_composite) - comp.shared
    for u, v in comp.graph.edges:
        assert not (u in only_g1 and v in only_g2)
        assert not (u in only_g2 and v in only_g1)


def test_scs_compose_figure6_matches_transcription():
    comp = scs_compose(figure6_spec())
    # provenance: g1's w7 is the transcription's w10, g2's tail shifts down
    to_transcription = [0, 1, 2, 3, 4, 5, 9, 6, 7, 8]
    assert relabel(comp.graph, to_transcription) == figure6_composite()


def test_scs_compose_validation_clauses():
    p5 = path(5)
    with pytest.raises(ScsValidationError) as err:
        scs_compose(ScsSpec(p5, p5, {0: 3, 1: 4}))
    assert err.value.clause == "not-simplicial-in-composite"

    with pytest.raises(ScsValidationError) as err:
        scs_compose(ScsSpec(p5, p5, {0: 1, 1: 3}))
    assert err.value.clause == "not-clique-in-g1"

    with pytest.raises(ScsValidationError) as err:
        scs_compose(ScsSpec(p5, p5, {0: 0, 2: 1}))
    assert err.value.clause == "not-clique-in-g2"

    # gluing onto the interior edge of a long path: a clique, but simplicial
    # in neither part
    p9 = path(9)
    with pytest.raises(ScsValidationError) as err:
        scs_compose(ScsSpec(p9, path(5), {0: 4, 1: 5}))
    assert err.value.clause == "not-simplicial-in-g1"

    with pytest.raises(ScsValidationError) as err:
        scs_compose(ScsSpec(path(5), p9, {4: 0, 5: 1}))
    assert err.value.clause == "not-simplicial-in-g2"

    # a map names each g2 vertex once; distinct g2 vertices may share a
    # target, which scs_compose rejects as not injective
    k3 = complete(3)
    assert ScsSpec(k3, k3, {2: 0, 0: 0}).glue == ((0, 0), (2, 0))
    with pytest.raises(ScsValidationError) as err:
        scs_compose(ScsSpec(k3, k3, {0: 0, 1: 0, 2: 1}))
    assert err.value.clause == "glue-not-injective"


def test_scs_compose_degenerate_full_overlap():
    comp = scs_compose(ScsSpec(complete(3), complete(3), {0: 0, 1: 1, 2: 2}))
    assert comp.graph == complete(3)


def test_scs_split_figure6_round_trip():
    comp_graph = figure6_composite()
    assert sorted(scs_split(comp_graph)) == [1, 2, 5, 9]
    [split] = scs_splits(comp_graph)
    assert sorted(split.shared) == [1, 2, 5, 9]
    assert split.part1 == figure6_g1()
    recomposed = scs_compose(split_to_spec(split))
    _, back = _canonical_relabel(recomposed.graph, split, comp_graph)
    assert back == comp_graph


def _canonical_relabel(recomposed, split, original):
    # recomposed keeps part1 labels then appends part2's unshared vertices in
    # increasing part2 order; map back through the split provenance
    mapping = list(split.part1_vertices)
    for v, orig in enumerate(split.part2_vertices):
        if orig not in split.shared:
            mapping.append(orig)
    return mapping, relabel(recomposed, mapping)


def test_scs_split_none_cases():
    assert scs_split(complete(5)) is None
    assert scs_split(cycle(8)) is None
    assert scs_split(sierpinski(3).graph) is None


def test_scs_split_round_trips_on_corpus():
    for name, g in named_corpus().items():
        if g.n > 15:
            continue
        for split in scs_splits(g):
            recomposed = scs_compose(split_to_spec(split))
            _, back = _canonical_relabel(recomposed.graph, split, g)
            assert back == g, name


def test_star_and_kn_split_behaviour():
    # K_m glued onto a star's simplicial edge splits back apart
    comp = scs_compose(ScsSpec(star(3), complete(3), {0: 1, 1: 0}))
    assert scs_split(comp.graph) is not None
    # 39 components around {0, 1}: the splitting clique is found without
    # building any of the 2^38 - 1 groupings
    assert scs_split(star(40)) == {0, 1}


def _with_pendant_clique(rng, n, k):
    """A seeded connected G(n, p) graph, then a (k+1)-clique hung from one
    random vertex x by k new vertices n..n+k-1, each simplicial."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(u, v) for v in range(n) for u in range(v)
              if rng.random() < 0.08]
    x = rng.randrange(n)
    clique = [x] + list(range(n, n + k))
    edges += [(u, v) for i, v in enumerate(clique) for u in clique[:i]]
    return Graph(n + k, edges), clique


def test_scs_split_matches_the_oracle_past_64_vertices():
    # the oracle builds no groupings, so 1-trees, whose cliques leave many
    # components, are drawn too
    rng = random.Random(64)
    seen, ks = set(), set()
    for _ in range(12):
        k = rng.randint(1, 4)
        ks.add(k)
        g1 = random_k_tree(rng, k, rng.randint(35, 45))
        g2, clique2 = _with_pendant_clique(rng, rng.randint(32, 40), k)
        simp = sorted(simplicial_report(g1).simplicial_vertices)
        v = rng.choice(simp)
        clique1 = sorted(g1.closed_neighborhood([v]))
        clique1.remove(v)
        rng.shuffle(clique1)
        # g2's simplicial clique[1] goes onto g1's simplicial v
        glue = dict(zip(clique2, [clique1[0], v] + clique1[1:]))
        comp = scs_compose(ScsSpec(g1, g2, glue)).graph
        assert comp.n > 64
        perm = list(range(comp.n))
        rng.shuffle(perm)
        for g in (comp, relabel(comp, perm), g2):
            found = scs_split(g)
            assert found == first_splitting_clique(g)
            seen.add((g is g2, found is None))
    # the composites split, and the second parts both split and do not
    assert seen == {(False, False), (True, False), (True, True)}
    assert ks == {1, 2, 3, 4}


# sha256 of every split scs_splits gives on corpus graphs with n <= 15
# and random_connected_graphs(200, 7), taken from the library's own split
# search before scs_split came to return the splitting clique alone
_SPLITS_DIGEST = \
    "36642fc6cc283a46625badbc81cb4d585604467b45b9345504057d9387a16da3"


def test_find_scs_splits_are_pinned_and_recompose():
    graphs = [(name, g) for name, g in named_corpus().items() if g.n <= 15]
    graphs += random_connected_graphs(200, 7)
    record = []
    for name, g in graphs:
        splits = scs_splits(g)
        record.append([name, [[sorted(s.shared), s.part1_vertices,
                               s.part1.edges, s.part2_vertices, s.part2.edges]
                              for s in splits]])
        for split in splits:
            # scs_compose re-validates that the shared clique is simplicial
            # in both parts and in the composite
            recomposed = scs_compose(split_to_spec(split))
            _, back = _canonical_relabel(recomposed.graph, split, g)
            assert back == g, name
        assert scs_split(g) == (splits[0].shared if splits else None), name
    assert sum(len(splits) for _, splits in record) == 184
    digest = sha256(json.dumps(record).encode()).hexdigest()
    assert digest == _SPLITS_DIGEST


# --- corpus files ------------------------------------------------------------------

def test_corpus_names_sorted_and_nonempty():
    names = corpus_names()
    assert names == sorted(names)
    assert "figure1" in names and "sierpinski_4" in names


def test_corpus_files_match_generators_byte_for_byte():
    corpus_dir = resources.files("wellcovered") / "corpus"
    for name in corpus_names():
        on_disk = (corpus_dir / f"{name}.g").read_text(encoding="utf-8")
        assert on_disk == format_edge_list(corpus_graph(name),
                                           corpus_comments(name)), name
        assert parse_edge_list(on_disk) == corpus_graph(name), name


def test_corpus_comments_present():
    for name in corpus_names():
        comments = corpus_comments(name)
        assert comments and name.split("_")[0] in comments[0]
