import json
import random
from hashlib import sha256
from itertools import islice

import pytest
from hypothesis import example, given, settings

from wellcovered import cli, mis as mis_module
from wellcovered.graph import (DisconnectedGraphError, Graph,
                               adjacency_masks, is_sccg, relabel,
                               simplicial_report)
from wellcovered.families import (complete, cycle, figure1, figure2_family,
                                  figure6_composite, figure6_spec,
                                  named_corpus, path, sierpinski, star,
                                  sccg_mod_base, triangle_pendant_spec,
                                  vertex_bowtie)
from wellcovered.harness import check_mis_count, random_connected_graphs
from wellcovered.mis import (MisCapExceededError, MisList, NotSccgError,
                             SharedCliqueMisCount, count_mis, enumerate_mis,
                             is_mis, iter_mis, random_greedy_mis,
                             sccg_mis_count_formula, scs_mis_count,
                             swap_pairs)

import oracles
from oracles import all_mis_powerset
from strategies import connected_graphs


def test_is_mis_basics():
    k3 = complete(3)
    assert is_mis(k3, {0})
    p5 = path(5)
    assert not is_mis(p5, {0, 2})  # vertex 4 is still addable
    assert is_mis(p5, {0, 2, 4})
    assert not is_mis(p5, {0, 1, 3})  # dominating but not independent


def test_is_mis_figure1_hub_selection():
    # v3, v6, v9 of the transcription: a MIS through a non-simplicial vertex
    assert is_mis(figure1(), {2, 5, 8})


def test_random_greedy_reaches_every_mis():
    # the vertex order comes from rng: 64 seeded draws reach every MIS,
    # K_{1,3}'s centre alone included (probability 1/4 per draw)
    for g in (cycle(5), path(4), star(3)):
        adj = adjacency_masks(g)
        rng = random.Random(0)
        drawn = [random_greedy_mis(adj, rng) for _ in range(64)]
        assert all(is_mis(g, members) for members in drawn), g
        assert set(map(frozenset, drawn)) == \
            set(map(frozenset, enumerate_mis(g).sets)), g


def test_enumerate_c4():
    assert list(enumerate_mis(cycle(4)).sets) == [(0, 2), (1, 3)]


def test_enumerate_complete():
    for n in (1, 2, 5):
        assert list(enumerate_mis(complete(n)).sets) == \
            [(v,) for v in range(n)]


def test_enumerate_figure1_is_one_per_clique_selection():
    mis = enumerate_mis(figure1())
    assert len(mis) == 24
    cliques = [frozenset({0, 1, 2}), frozenset({3, 4, 5}),
               frozenset({6, 7, 8, 9})]
    for m in map(frozenset, mis.sets):
        assert [len(m & c) for c in cliques] == [1, 1, 1]


def test_enumerate_matches_powerset_on_corpus():
    for name, g in named_corpus().items():
        if g.n <= 12:
            assert list(enumerate_mis(g).sets) == \
                all_mis_powerset(g.n, g.edges), name


def test_enumerate_matches_powerset_random():
    rng = random.Random(123)
    done = 0
    while done < 60:
        n = rng.randint(2, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        try:
            g = Graph(n, edges)
        except DisconnectedGraphError:
            continue
        done += 1
        mis, expected = enumerate_mis(g), all_mis_powerset(n, g.edges)
        assert list(mis.sets) == expected
        assert mis.sets == tuple(expected)


def test_enumerate_members_are_mis_and_canonical():
    g = figure6_composite()
    mis = enumerate_mis(g)
    tuples = list(mis.sets)
    assert tuples == sorted(tuples)
    for m in mis.sets:
        assert is_mis(g, m)


def test_enumerate_does_not_recurse_per_vertex():
    # a search depth of one level per leaf would pass the recursion limit
    mis = enumerate_mis(star(2000))
    assert mis.sets == ((0,), tuple(range(1, 2001)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_n=10))
@example(complete(1))
@example(cycle(10))
def test_search_yields_each_mis_exactly_once(g):
    # compared as multisets: a set yielded twice, or not at all, fails
    yielded = [tuple(sorted(t)) for t in iter_mis(g)]
    assert sorted(yielded) == all_mis_powerset(g.n, g.edges)


def test_count_matches_enumeration_and_both_raise_past_the_cap():
    for name, g in named_corpus().items():
        if g.n > 20:
            continue
        k = len(enumerate_mis(g))
        assert count_mis(g) == k, name
        assert count_mis(g, cap=k) == k, name
        assert len(enumerate_mis(g, cap=k)) == k, name
        if k == 1:
            continue
        for run in (count_mis, enumerate_mis):
            with pytest.raises(MisCapExceededError) as err:
                run(g, cap=k - 1)
            assert err.value.cap == k - 1, name


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_n=10))
@example(complete(1))
@example(cycle(10))
def test_count_matches_powerset_oracle(g):
    assert count_mis(g) == len(all_mis_powerset(g.n, g.edges))


def test_count_matches_the_search():
    rng = random.Random(29)
    graphs = []
    while len(graphs) < 40:
        n = rng.randint(20, 40)
        p = rng.uniform(0.15, 0.4)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        try:
            graphs.append(Graph(n, edges))
        except DisconnectedGraphError:
            continue
    # large counts: S4's 80 840, the Perrin numbers of C38 and C40, and a
    # graph like the bench's
    graphs += [_relabelled(sierpinski(4).graph, 5), _relabelled(cycle(38), 6),
               _relabelled(cycle(40), 7), _gnp(60, 0.22, 60)]
    for g in list(named_corpus().values()) + graphs:
        assert count_mis(g) == sum(1 for _ in iter_mis(g)), g


def _relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


def test_count_on_relabelled_cycles_is_perrin():
    perrin = [3, 0, 2]
    while len(perrin) <= 40:
        perrin.append(perrin[-2] + perrin[-3])
    assert (perrin[38], perrin[40]) == (43721, 76725)
    for n in (38, 40):
        assert count_mis(_relabelled(cycle(n), n)) == perrin[n], n


def test_count_on_relabelled_sierpinski_4():
    assert count_mis(_relabelled(sierpinski(4).graph, 3)) == 80840


def test_count_on_sierpinski_5():
    # the gasket corner-state transfer's count of order 5; it takes well
    # under a second only when the 65 536-entry memo does not thrash
    g = sierpinski(5).graph
    for h in (g, _relabelled(g, 5)):
        assert count_mis(h, cap=10**60) == 298_925_600_262_168


# sha256 over json.dumps([name, enumerate_mis(g).sets]) for each graph in
# turn, taken from a Bron-Kerbosch search over the complement graph: an
# independent algorithm's lists
_CORPUS_MIS_SHA256 = \
    "f73b7f5740412cfd6cc6e50506b0011f7abc741bf827504e05de22aeac91ec89"
_RANDOM_MIS_SHA256 = \
    "f619ef22228d2131b5b9290d9da4c2fec6a202eedf969c85340870082d7f06d8"


def _mis_lists_sha256(named_graphs) -> str:
    h = sha256()
    for name, g in named_graphs:
        h.update(json.dumps([name, enumerate_mis(g).sets]).encode())
    return h.hexdigest()


def test_mis_lists_are_pinned():
    corpus = named_corpus()
    assert "sierpinski_4" in corpus
    assert _mis_lists_sha256(sorted(corpus.items())) == _CORPUS_MIS_SHA256
    assert _mis_lists_sha256(random_connected_graphs(200, 7)) == \
        _RANDOM_MIS_SHA256


def _gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        try:
            return Graph(n, edges)
        except DisconnectedGraphError:
            continue


def _branching_states(monkeypatch) -> list[int]:
    """A one-item list counting the states the searches branch from."""
    seen = [0]
    branch_set = mis_module._branch_set

    def counted(*args):
        seen[0] += 1
        return branch_set(*args)

    monkeypatch.setattr(mis_module, "_branch_set", counted)
    return seen


# Every count and list is unchanged by a branch-set scan that stops later,
# as the scan's stop is only a shortcut; the states the searches visit on
# these graphs are not, so these pins fix the branching rule and the vertex
# order themselves: (graph, MIS count, states counted, states searched) for
# one graph the engine renumbers and one it keeps in its own labels.
_PINNED_STATES = (((28, 0.2, 28), 340, 283, 683),
                  ((24, 0.2, 24), 212, 347, 809))


def test_pinned_graphs_lie_on_both_sides_of_the_renumbering_threshold():
    sizes = [n for (n, _, _), _, _, _ in _PINNED_STATES]
    assert sizes[0] > mis_module._RENUMBER_ABOVE >= sizes[1]


def test_count_branches_from_the_pinned_states(monkeypatch):
    seen = _branching_states(monkeypatch)
    for spec, mis_count, counted, _ in _PINNED_STATES:
        seen[0] = 0
        assert count_mis(_gnp(*spec)) == mis_count
        assert seen[0] == counted, spec


def test_search_branches_from_the_pinned_states(monkeypatch):
    seen = _branching_states(monkeypatch)
    for spec, mis_count, _, searched in _PINNED_STATES:
        seen[0] = 0
        assert sum(1 for _ in iter_mis(_gnp(*spec))) == mis_count
        assert seen[0] == searched, spec


def test_smallest_last_takes_a_least_degree_vertex_each_step():
    graphs = [star(6), path(9), cycle(7), complete(5), sierpinski(3).graph]
    graphs += [_gnp(n, p, n) for n in (12, 30, 60) for p in (0.1, 0.3)]
    for g in graphs:
        order = mis_module._smallest_last(adjacency_masks(g))
        assert sorted(order) == list(g.vertices), g
        adj, left = oracles.adjacency(g.n, g.edges), set(g.vertices)
        for v in order:
            assert len(adj[v] & left) == \
                min(len(adj[u] & left) for u in left), (g, order)
            left.remove(v)


def _fresh(g: Graph) -> Graph:
    """A graph equal to g with empty memo slots: its queries build its
    engine and count its root, where g may read what it memoised."""
    return Graph(g.n, g.edges)


def _mis_queries(g: Graph, glue_edge: tuple[int, ...]):
    """count_mis, enumerate_mis's sets, swap_pairs and the through counts
    of scs_mis_count with g glued to itself along glue_edge."""
    return (count_mis(g), enumerate_mis(g).sets, swap_pairs(g),
            scs_mis_count(g, g, {v: v for v in glue_edge}))


@pytest.mark.parametrize("above", [None, 6])
def test_state_queries_match_the_oracle_on_both_sides_of_the_threshold(
        monkeypatch, above):
    # with the threshold lowered to 6, graphs of 4 to 6 vertices keep their
    # labels and larger ones are renumbered, so the oracle sees both
    if above is not None:
        monkeypatch.setattr(mis_module, "_RENUMBER_ABOVE", above)
    for n in (4, 6, 7, 10, 14):
        for k, p in enumerate((0.25, 0.5)):
            g = _gnp(n, p, 41 * n + k)
            sets = all_mis_powerset(g.n, g.edges)
            through = [sum(1 for m in sets if v in m) for v in g.vertices]
            edge = g.edges[0] if g.edges else (0,)
            assert _mis_queries(g, edge) == (
                len(sets), tuple(sets), _oracle_swap_pairs(g),
                SharedCliqueMisCount(
                    total=sum(through[v] ** 2 for v in edge),
                    per_vertex=tuple((v, through[v], through[v])
                                     for v in sorted(edge)))), (g, above)
            assert all(is_mis(g, t) for t in iter_mis(g)), (g, above)


def test_state_queries_are_unchanged_by_relabelling_around_the_threshold(
        monkeypatch):
    above = mis_module._RENUMBER_ABOVE
    for n in (above - 1, above, above + 1, above + 12):
        for k, p in enumerate((0.2, 0.4)):
            g = _gnp(n, p, 43 * n + k)
            edge = g.edges[0]
            count, sets, pairs, through = _mis_queries(g, edge)
            assert sum(1 for _ in iter_mis(g)) == count
            assert all(is_mis(g, t) for t in iter_mis(g)), g
            for seed in range(3):
                perm = list(g.vertices)
                random.Random(seed).shuffle(perm)
                h = relabel(g, perm)
                assert count_mis(h) == count, (g, seed)
                assert enumerate_mis(h).sets == tuple(sorted(
                    tuple(sorted(perm[v] for v in m)) for m in sets))
                assert swap_pairs(h) == sorted(
                    tuple(sorted((perm[u], perm[v]))) for u, v in pairs)
                out = scs_mis_count(h, g, {v: perm[v] for v in edge})
                assert out.total == through.total
                assert out.per_vertex == tuple(
                    (perm[v], l, m) for v, l, m in through.per_vertex)
            # the engine in g's own labels gives the same answers; a fresh
            # graph builds that engine, where g would read its memoised one
            monkeypatch.setattr(mis_module, "_RENUMBER_ABOVE", n)
            assert _mis_queries(_fresh(g), edge) == \
                (count, sets, pairs, through), g
            monkeypatch.setattr(mis_module, "_RENUMBER_ABOVE", above)


def test_count_does_not_recurse_per_vertex():
    # a recursive count would pass the recursion limit on the 1999 leaves
    # left undecided once a leaf is chosen
    assert count_mis(star(2000)) == 2


def test_count_raises_past_the_cap_without_listing():
    # far more than 10**6 MISs; listing them first would take seconds
    with pytest.raises(MisCapExceededError) as err:
        count_mis(sierpinski(5).graph, cap=10**6)
    assert err.value.cap == 10**6


def test_count_is_unchanged_when_the_memo_is_cleared_at_every_entry(
        monkeypatch):
    expected = {name: count_mis(g) for name, g in named_corpus().items()}
    monkeypatch.setattr(mis_module, "_COUNT_MEMO", 1)
    for name, g in named_corpus().items():
        assert count_mis(g) == expected[name], name


# seeded G(n, 0.2) graphs with 518 to 4735 MISs; states below the root
# close with counts up to 307, 579, 1159 and 1560
_DEEP_GRAPHS = tuple((n, 0.2, 100 + n) for n in (30, 34, 38, 40))


class _ClearCountingMemo(dict):
    def __init__(self):
        super().__init__()
        self.clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


@pytest.mark.parametrize("size", [1, 3])
def test_state_queries_are_unchanged_when_the_memo_is_cleared_mid_walk(
        monkeypatch, size):
    graphs = [_gnp(*spec) for spec in _DEEP_GRAPHS]
    glued = [_self_glued(g, seed) for seed, g in enumerate(graphs)]
    expected = [(count_mis(g), swap_pairs(g), scs_mis_count(*glue))
                for g, glue in zip(graphs, glued)]
    monkeypatch.setattr(mis_module, "_COUNT_MEMO", size)
    for g, glue, (k, pairs, through) in zip(graphs, glued, expected):
        # fresh graphs count their roots again, where g and the glued pair
        # would read the counts they recorded above
        g1, g2, glue_map = glue
        assert (count_mis(_fresh(g)), swap_pairs(_fresh(g)),
                scs_mis_count(_fresh(g1), _fresh(g2), glue_map)) == \
            (k, pairs, through), g
        # the memo is cleared while the walk is below the root, so the
        # count rests on the parents saved on the stack alone
        memo = _ClearCountingMemo()
        assert mis_module._count_completions(
            mis_module._state_masks(g)[0], memo, (1 << g.n) - 1, 0, k) == k
        assert memo.clears > 0


def test_count_raises_exactly_past_the_cap_on_deep_graphs():
    for spec in _DEEP_GRAPHS:
        g = _gnp(*spec)
        k = count_mis(g)
        assert count_mis(g, cap=k) == k, spec
        with pytest.raises(MisCapExceededError) as err:
            count_mis(g, cap=k - 1)
        assert err.value.cap == k - 1, spec


def test_the_engine_raises_as_soon_as_a_count_passes_the_cap():
    # count_mis compares a recorded count with the cap as well, so only a
    # call to the engine itself shows that the walk stops past the cap
    for spec in _DEEP_GRAPHS:
        g = _gnp(*spec)
        k = count_mis(g)
        masks, full = mis_module._state_masks(g)[0], (1 << g.n) - 1
        assert mis_module._count_completions(masks, {}, full, 0, k) == k
        with pytest.raises(MisCapExceededError) as err:
            mis_module._count_completions(masks, {}, full, 0, k - 1)
        assert err.value.cap == k - 1, spec


def test_search_raises_in_place_of_the_set_past_the_cap():
    stream = iter_mis(cycle(12), cap=10)
    assert len(list(islice(stream, 10))) == 10
    with pytest.raises(MisCapExceededError):
        next(stream)


def test_enumerate_cap_is_a_named_error():
    with pytest.raises(MisCapExceededError) as err:
        enumerate_mis(cycle(12), cap=10)
    assert err.value.cap == 10


def _connection_subsets(g):
    """The nonempty independent subsets of the connection set, in canonical
    order: mis._connection_walk's sets after the empty one."""
    return [frozenset(members)
            for members, _ in mis_module._connection_walk(g)][1:]


def test_independent_subsets_of_connection_set():
    assert _connection_subsets(figure1()) == []
    assert _connection_subsets(vertex_bowtie()) == [frozenset({2})]
    assert _connection_subsets(star(3)) == [frozenset({0})]


def triangle_chain(k: int) -> Graph:
    """Triangles {a_i, b_i, a_(i+1)} for i < k, with a_i = 2i and b_i = 2i + 1:
    the connection set a_1..a_(k-1) is a path of k - 1 vertices."""
    return Graph(2 * k + 1, [e for i in range(k) for e in
                             ((2 * i, 2 * i + 1), (2 * i, 2 * i + 2),
                              (2 * i + 1, 2 * i + 2))])


def test_independent_subsets_match_the_power_set_oracle():
    graphs = list(named_corpus().values()) + \
        [g for _, g in random_connected_graphs(60, 17, max_n=12)] + \
        [triangle_chain(k) for k in range(1, 9)]
    for g in graphs:
        assert _connection_subsets(g) == \
            oracles.independent_subsets_of_connection_set(g), g


def test_independent_subsets_grow_only_independent_sets():
    g = triangle_chain(16)
    adj = oracles.adjacency(g.n, g.edges)
    seeds = _connection_subsets(g)
    # every set the walk grows is yielded: one per nonempty independent set
    # of the 15-vertex connection path, and no other
    assert len(seeds) == 1596
    assert all(oracles.is_independent(adj, s) for s in seeds)
    residual, _ = sccg_mis_count_formula(g)
    assert residual.total == count_mis(g)


def _random_sccgs() -> list[Graph]:
    return [g for _, g in random_connected_graphs(300, 15, max_n=12)
            if is_sccg(g)]


def _formula_graphs() -> list[Graph]:
    """Every corpus SCCG, the SCCGs among 300 seeded random graphs, and the
    triangle chains of 1 to 12 triangles."""
    return [g for g in named_corpus().values() if is_sccg(g)] + \
        _random_sccgs() + [triangle_chain(k) for k in range(1, 13)]


def test_count_formula_matches_the_reference():
    randoms = _random_sccgs()
    assert len(randoms) == 65
    assert sum(1 for g in randoms if simplicial_report(g).connection_set) == 51
    for g in _formula_graphs():
        # both readings, (residual, simplicial), against the oracle's
        assert sccg_mis_count_formula(g) == oracles.sccg_mis_count_formula(g), g


def test_count_formula_validates_no_seed(monkeypatch):
    graphs = _formula_graphs()
    expected = [oracles.sccg_mis_count_formula(g) for g in graphs]

    def forbidden(*args):
        raise AssertionError("the formula re-validates a seed it built")

    # every vertex-set check and set-valued neighbourhood passes through here
    monkeypatch.setattr(Graph, "_check_subset", forbidden)
    assert [sccg_mis_count_formula(g) for g in graphs] == expected


def test_both_readings_come_from_one_walk(monkeypatch, capsys):
    walked = []
    original = mis_module._connection_walk

    def spy(g):
        walked.append(g)
        return original(g)

    monkeypatch.setattr(mis_module, "_connection_walk", spy)
    assert cli.main(["mis", "vertex_bowtie", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["formula_simplicial"] == 5
    assert walked == [vertex_bowtie()]
    walked.clear()
    verdict = check_mis_count(vertex_bowtie(), "vertex_bowtie")
    assert verdict.details["formula_residual"] == 5
    assert walked == [vertex_bowtie()]


def test_uncovered_empty_iff_seed_is_mis():
    # both directions of the membership remark, over every corpus SCCG: a
    # seed covers every simplicial clique exactly when it is itself a MIS
    for name, g in named_corpus().items():
        if not is_sccg(g) or g.n > 20:
            continue
        cliques = [sum(1 << v for v in c) for c in simplicial_report(g).cliques]
        seeds = mis_module._connection_walk(g)
        next(seeds)
        for members, closed in seeds:
            covers = all(c & ~closed == 0 for c in cliques)
            assert covers == is_mis(g, members), (name, members)


def test_count_formula_figure1():
    residual, simplicial = sccg_mis_count_formula(figure1())
    assert (residual.i_count, residual.product_term, residual.sum_term) == \
        (0, 36, 0)
    assert residual.total == 36  # enumeration finds 24; the harness reports both
    assert (simplicial.i_count, simplicial.product_term,
            simplicial.sum_term) == (0, 4, 0)


def test_count_formula_complete():
    for n in (1, 2, 6):
        assert [b.total for b in sccg_mis_count_formula(complete(n))] == \
            [n, n]


def test_count_formula_star_matches_enumeration():
    for leaves in (2, 3, 5):
        g = star(leaves)
        breakdown, _ = sccg_mis_count_formula(g)
        assert (breakdown.i_count, breakdown.product_term, breakdown.sum_term) == \
            (1, 1, 0)
        assert breakdown.total == len(enumerate_mis(g))


def test_count_formula_vertex_bowtie_matches_enumeration():
    g = vertex_bowtie()
    breakdown, _ = sccg_mis_count_formula(g)
    assert breakdown.total == 5 == len(enumerate_mis(g))
    assert breakdown.i_count == 1  # the lone connection vertex is itself a MIS


def test_count_formula_edge_joined_triangles_overcounts():
    g = sccg_mod_base()
    residual, simplicial = sccg_mis_count_formula(g)
    assert (residual.total, simplicial.total) == (9, 4)
    assert len(enumerate_mis(g)) == 8  # neither reading matches here


def test_count_formula_diamond_matches_enumeration():
    # nonempty connection set where both connection vertices are lone MISs
    from wellcovered.families import diamond
    g = diamond()
    rep = simplicial_report(g)
    assert sorted(rep.connection_set) == [1, 2]
    breakdown, _ = sccg_mis_count_formula(g)
    assert (breakdown.i_count, breakdown.product_term, breakdown.sum_term) == \
        (2, 1, 0)
    assert breakdown.total == 3 == len(enumerate_mis(g))


def test_count_formula_requires_sccg():
    with pytest.raises(NotSccgError):
        sccg_mis_count_formula(cycle(8))


def test_count_formula_modes_figure2():
    g = figure2_family(1)
    residual, _ = sccg_mis_count_formula(g)
    assert residual.total == 6
    assert len(enumerate_mis(g)) == 5


def test_scs_mis_count_triangle_pendants():
    from wellcovered.families import triangle_pendant_g1, triangle_pendant_g2
    out = scs_mis_count(triangle_pendant_g1(), triangle_pendant_g2(),
                        {0: 0, 1: 1, 2: 2})
    assert out.total == 3
    assert out.per_vertex == ((0, 1, 1), (1, 1, 1), (2, 1, 1))


def test_scs_mis_count_kn_glued_is_sum_of_l():
    # gluing a complete graph onto a simplicial clique: one MIS per clique vertex
    from wellcovered.families import triangle_pendant_g1
    g1 = triangle_pendant_g1()
    out = scs_mis_count(g1, complete(3), {0: 0, 1: 1, 2: 2})
    mis1 = enumerate_mis(g1)
    expected = sum(sum(1 for m in mis1.sets if v in m) for v in (0, 1, 2))
    assert out.total == expected


def test_scs_mis_count_validates_glue():
    with pytest.raises(ValueError):
        scs_mis_count(path(5), path(5), {0: 0, 1: 2})  # image not a clique


def test_mis_meets_cliques_and_simplicial_neighborhoods():
    # any clique holds at most one MIS vertex; every simplicial vertex's
    # closed neighborhood holds at least one
    for name, g in named_corpus().items():
        if g.n > 15:
            continue
        rep = simplicial_report(g)
        from wellcovered.graph import simplicial_vertices
        simp = simplicial_vertices(g)
        for m in map(frozenset, enumerate_mis(g).sets):
            for c in rep.cliques:
                assert len(m & c) <= 1, name
            for v in simp:
                assert m & g.closed_neighborhood([v]), name


def test_mis_list_stores_tuples_and_rebuilds_equal():
    mis = enumerate_mis(figure1())
    # each set is stored once, as its tuple, and in no other form: the
    # list is read through .sets and builds no frozenset on iteration
    assert type(mis.sets) is tuple
    assert all(type(t) is tuple for t in mis.sets)
    with pytest.raises(TypeError):
        iter(mis)
    # a list rebuilt from the same sets is equal and hashes alike
    fresh = MisList(graph=mis.graph, sets=mis.sets)
    assert fresh == mis and hash(fresh) == hash(mis)


def _oracle_swap_pairs(g: Graph) -> list[tuple[int, int]]:
    """Pairs {u, v} with two MISs differing in u and v alone, by comparing
    every two sets of the power-set oracle."""
    sets = [set(m) for m in all_mis_powerset(g.n, g.edges)]
    pairs = set()
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            if len(a ^ b) == 2:
                pairs.add(tuple(sorted(a ^ b)))
    return sorted(pairs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(connected_graphs(max_n=10))
@example(complete(1))
@example(complete(2))
@example(cycle(10))
def test_swap_pairs_match_the_powerset_oracle(g):
    assert swap_pairs(g) == _oracle_swap_pairs(g)


def test_swap_pairs_match_the_powerset_oracle_on_the_corpus():
    for name, g in named_corpus().items():
        if name != "sierpinski_4":
            assert swap_pairs(g) == _oracle_swap_pairs(g), name


# sha256 over json.dumps of the sorted pair list that a dict bucketing every
# MIS of S4 by the set left after removing one member produced
_S4_SWAP_PAIRS_SHA256 = \
    "0fbced67de3523c34c8dfce5b5cb6875e4faeec28d2dac917c50e06d5695f006"


def test_swap_pairs_on_sierpinski_4_are_pinned():
    pairs = swap_pairs(sierpinski(4).graph)
    assert len(pairs) == 69
    assert sha256(json.dumps(pairs).encode()).hexdigest() == \
        _S4_SWAP_PAIRS_SHA256


def _oracle_through(g: Graph, v: int) -> int:
    return sum(1 for m in all_mis_powerset(g.n, g.edges) if v in m)


def _self_glued(g: Graph, seed: int):
    """g, a relabelled copy of g, and a glue map joining the copy to g
    along one edge (along vertex 0 when g has none)."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    shared = rng.choice(g.edges) if g.edges else (0,)
    return g, relabel(g, perm), {perm[v]: v for v in shared}


def _assert_through_counts_match_the_oracle(g1, g2, glue):
    out = scs_mis_count(g1, g2, glue)
    assert out.per_vertex == tuple(
        (v1, _oracle_through(g1, v1), _oracle_through(g2, v2))
        for v2, v1 in sorted(glue.items()))
    assert out.total == sum(l * m for _, l, m in out.per_vertex)


def test_scs_through_counts_match_the_powerset_oracle():
    for spec in (triangle_pendant_spec(), figure6_spec()):
        _assert_through_counts_match_the_oracle(spec.g1, spec.g2,
                                                spec.glue_map())
    for seed, (_, g) in enumerate(random_connected_graphs(40, 11)):
        _assert_through_counts_match_the_oracle(*_self_glued(g, seed))


def test_scs_mis_count_lists_no_set(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("iter_mis called")

    monkeypatch.setattr(mis_module, "iter_mis", refuse)
    spec = figure6_spec()
    _assert_through_counts_match_the_oracle(spec.g1, spec.g2, spec.glue_map())


def test_a_recorded_mis_count_is_compared_with_each_cap():
    # a graph records its MIS count once a count or a full search
    # completes; the queries that read it still raise exactly past the cap
    for spec in _DEEP_GRAPHS:
        g = _gnp(*spec)
        next(iter_mis(g))  # a search stopped early records nothing
        assert g._mis_count is None, spec
        k = len(enumerate_mis(g).sets)
        assert g._mis_count == k and g._engine is not None, spec
        for query in (count_mis, swap_pairs):
            with pytest.raises(MisCapExceededError) as err:
                query(g, cap=k - 1)
            assert err.value.cap == k - 1, (spec, query)
        assert count_mis(g, cap=k) == k
        g1, g2, glue = _self_glued(g, 0)
        with pytest.raises(MisCapExceededError):
            scs_mis_count(g1, g2, glue, cap=k - 1)
        assert scs_mis_count(g1, g2, glue, cap=k) == \
            scs_mis_count(_fresh(g1), _fresh(g2), glue)


def test_state_queries_raise_exactly_when_the_count_passes_the_cap():
    for seed, (name, g) in enumerate(sorted(named_corpus().items())):
        k = count_mis(g)
        g1, g2, glue = _self_glued(g, seed)
        assert swap_pairs(g, cap=k) == swap_pairs(g)
        assert scs_mis_count(g1, g2, glue, cap=k) == \
            scs_mis_count(g1, g2, glue)
        with pytest.raises(MisCapExceededError):
            swap_pairs(g, cap=k - 1)
        with pytest.raises(MisCapExceededError):
            scs_mis_count(g1, g2, glue, cap=k - 1)
