import json
import random
from collections import Counter
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import example, given, settings

from wellcovered.graph import DisconnectedGraphError, Graph, build_graph, \
    is_chordal, relabel, simplicial_report
from wellcovered.families import (complete, cycle, figure1, named_corpus,
                                  path, sierpinski, star)
from wellcovered.linalg import DEFAULT_FIELDS, GF2, QQ, FieldSpec, rref, \
    integerize, nullspace_basis, rank_of_rows, span_equal
from wellcovered import wcspace
from wellcovered.mis import MisCapExceededError, MisList, count_mis, \
    enumerate_mis, is_mis, random_greedy_mis
from wellcovered.wcspace import (Weighting, certified_space,
                                 constraint_matrix,
                                 indicator_weighting, is_well_covered,
                                 verify_weighting, wcdim, well_covered_space,
                                 well_covered_spaces, wcspace_report)

from oracles import greedy_spanning_rows, nullspace_basis_elimination, \
    wcdim_fraction_elimination
from strategies import connected_graphs


def test_constraint_matrix_single_mis():
    g = build_graph(1, [])
    m = constraint_matrix(g, enumerate_mis(g), QQ)
    assert (m.rows, m.cols) == (0, 1)
    assert wcdim(g) == 1


def test_constraint_matrix_c4():
    g = cycle(4)
    m = constraint_matrix(g, enumerate_mis(g), QQ)
    assert (m.rows, m.cols) == (1, 4)
    assert list(map(int, m.entries[0])) == [-1, 1, -1, 1]


def test_constraint_matrix_figure1_rank():
    g = figure1()
    m = constraint_matrix(g, enumerate_mis(g), QQ)
    assert (m.rows, m.cols) == (23, 10)
    _, rank, _ = rref(m)
    assert rank == 7


def test_wcdim_examples():
    assert wcdim(complete(7)) == 1
    assert wcdim(path(5)) == 2
    assert wcdim(sierpinski(2).graph) == 3
    assert wcdim(cycle(8)) == 0
    assert wcdim(cycle(4)) == 3


def test_wcdim_figure1_all_fields_and_basis_span():
    g = figure1()
    mis = enumerate_mis(g)
    clique_indicator_basis = [
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
    ]
    for field in DEFAULT_FIELDS:
        space = well_covered_space(g, field, mis=mis)
        assert space.dimension == 3
        assert space.constraint_rank == 7
        vecs = space.basis_vectors()
        target = [[field.from_int(x) for x in row] for row in clique_indicator_basis]
        assert span_equal(vecs, target, field, length=10)


def test_well_covered_space_matches_oracle_elimination():
    for name, g in named_corpus().items():
        if g.n > 12:
            continue
        mis_count, rank, nullity = wcdim_fraction_elimination(g.n, g.edges)
        space = well_covered_space(g, QQ)
        assert space.mis_count == mis_count, name
        assert space.constraint_rank == rank, name
        assert space.dimension == nullity, name


def test_space_agrees_with_full_matrix_path():
    # the incremental row-selection path against plain rref of the full system
    rng = random.Random(99)
    done = 0
    while done < 25:
        n = rng.randint(2, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        try:
            g = Graph(n, edges)
        except DisconnectedGraphError:
            continue
        done += 1
        mis = enumerate_mis(g)
        for field in DEFAULT_FIELDS:
            _, rank, _ = rref(constraint_matrix(g, mis, field))
            space = well_covered_space(g, field, mis=mis)
            assert space.dimension == g.n - rank


def test_basis_vectors_pass_verification_and_are_independent():
    from wellcovered.linalg import rank_of_rows
    for name, g in named_corpus().items():
        if g.n > 20:
            continue
        mis = enumerate_mis(g)
        for field in DEFAULT_FIELDS:
            space = well_covered_space(g, field, mis=mis)
            for w in space.basis:
                assert verify_weighting(g, w, mis).ok, name
            assert rank_of_rows(space.basis_vectors(), field, g.n) == \
                space.dimension, name


def test_random_combinations_stay_in_space():
    rng = random.Random(2024)
    for g in (figure1(), path(7), sierpinski(2).graph, star(3)):
        mis = enumerate_mis(g)
        space = well_covered_space(g, QQ, mis=mis)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in space.basis]
            values = [sum((c * w.values[v] for c, w in zip(coeffs, space.basis)),
                          Fraction(0)) for v in g.vertices]
            combo = Weighting(graph=g, field=QQ, values=tuple(values))
            assert verify_weighting(g, combo, mis).ok


def test_verify_weighting_zero_and_ones():
    for g in (figure1(), cycle(4), path(5)):
        mis = enumerate_mis(g)
        zero = Weighting(graph=g, field=QQ,
                         values=tuple(Fraction(0) for _ in g.vertices))
        assert verify_weighting(g, zero, mis).ok
    c4 = cycle(4)
    ones = Weighting(graph=c4, field=QQ,
                     values=tuple(Fraction(1) for _ in c4.vertices))
    assert verify_weighting(c4, ones, enumerate_mis(c4)).ok


def test_verify_weighting_witness_on_path():
    p5 = path(5)
    mis = enumerate_mis(p5)
    ones = Weighting(graph=p5, field=QQ,
                     values=tuple(Fraction(1) for _ in p5.vertices))
    check = verify_weighting(p5, ones, mis)
    assert not check.ok
    a, b = check.witness
    sa, sb = check.sums
    assert sa != sb
    assert sa == Fraction(len(a)) and sb == Fraction(len(b))


def test_verify_weighting_rejects_mismatched_graph():
    with pytest.raises(ValueError):
        verify_weighting(path(5),
                         Weighting(graph=path(4), field=QQ,
                                   values=(Fraction(0),) * 4),
                         enumerate_mis(path(5)))


def test_is_well_covered():
    assert is_well_covered(complete(9))
    assert is_well_covered(cycle(4))
    assert not is_well_covered(path(5))
    # equivalent formulation through the all-ones weighting
    for name, g in named_corpus().items():
        if g.n > 15:
            continue
        mis = enumerate_mis(g)
        ones = indicator_weighting(g, set(g.vertices))
        assert is_well_covered(g) == verify_weighting(g, ones, mis).ok, name


def test_lower_bound_and_chordal_equality_on_corpus():
    for name, g in named_corpus().items():
        if g.n > 20:
            continue
        sc = simplicial_report(g).sc
        dim = wcdim(g)
        assert dim >= sc, name
        if is_chordal(g):
            assert dim == sc, name


def test_field_agreement_on_characteristic_independent_classes():
    from wellcovered.graph import is_sccg
    for name, g in named_corpus().items():
        if g.n > 20:
            continue
        relevant = is_sccg(g) or is_chordal(g) or name.startswith("sierpinski") \
            or name in ("triangle_pendant", "figure6")
        if not relevant:
            continue
        dims = {wcdim(g, f) for f in DEFAULT_FIELDS}
        assert len(dims) == 1, name


def test_clique_indicators_for_disjoint_clique_cover():
    # every MIS of figure1 meets each simplicial clique once, so each clique
    # indicator is a well-covered weighting and lies in the computed space
    g = figure1()
    mis = enumerate_mis(g)
    rep = simplicial_report(g)
    space = well_covered_space(g, QQ, mis=mis)
    for c in rep.cliques:
        ind = indicator_weighting(g, c)
        assert verify_weighting(g, ind, mis).ok
        assert span_equal(space.basis_vectors(),
                          space.basis_vectors() + [list(ind.values)],
                          QQ, length=g.n)


def test_wcspace_report_shape():
    g = cycle(4)
    space = well_covered_space(g, QQ)
    report = wcspace_report(space, "c4")
    assert report["graph"] == "c4"
    assert report["dimension"] == 3
    assert report["constraint_rank"] == 1
    assert report["mis_count"] == 2
    assert all(isinstance(x, int) for row in report["basis"] for x in row)
    gf_report = wcspace_report(well_covered_space(g, GF2), "c4")
    assert gf_report["field"] == {"kind": "prime_field", "p": 2}


def test_integerized_basis_is_content_one():
    for g in (figure1(), path(9), cycle(4)):
        space = well_covered_space(g, QQ)
        for w in space.basis:
            ints = integerize(w.values)
            from math import gcd
            g_all = 0
            for x in ints:
                g_all = gcd(g_all, abs(x))
            assert g_all in (0, 1)
            lead = next((x for x in ints if x != 0), 1)
            assert lead > 0


def test_clique_indicator_membership_on_corpus_sccgs():
    # whenever every MIS meets a simplicial clique exactly once, that clique's
    # indicator is a well-covered weighting and lies in the computed space
    from wellcovered.graph import is_sccg
    for name, g in named_corpus().items():
        if not is_sccg(g) or g.n > 15:
            continue
        mis = enumerate_mis(g)
        rep = simplicial_report(g)
        space = well_covered_space(g, QQ, mis=mis)
        for c in rep.cliques:
            if all(len(m & c) == 1 for m in mis):
                ind = indicator_weighting(g, c)
                assert verify_weighting(g, ind, mis).ok, name
                assert span_equal(space.basis_vectors(),
                                  space.basis_vectors() + [list(ind.values)],
                                  QQ, length=g.n), name


def _full_matrix_basis(g, mis, field):
    basis = nullspace_basis(constraint_matrix(g, mis, field))
    if field.is_rationals:
        basis = [[Fraction(x) for x in integerize(vec)] for vec in basis]
    return basis


def _seeded_random_graphs(seed, count):
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(2, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        try:
            graphs.append(Graph(n, edges))
        except DisconnectedGraphError:
            continue
    return graphs


def test_basis_vectors_equal_full_matrix_basis():
    # the selected rows span the whole system, so the reduced echelon basis
    # is the one the full constraint matrix gives, entry for entry
    graphs = _seeded_random_graphs(99, 25)
    graphs += [g for g in named_corpus().values() if g.n <= 20]
    for g in graphs:
        mis = enumerate_mis(g)
        for field in DEFAULT_FIELDS:
            space = well_covered_space(g, field, mis=mis)
            assert space.basis_vectors() == _full_matrix_basis(g, mis, field), g


# rows that span the system over Q but lose rank mod 2: each field needs
# its own row selection
GF2_RANK_DROP = Graph(9, [(0, 1), (0, 3), (0, 5), (0, 6), (1, 2), (1, 3),
                          (1, 4), (1, 5), (2, 5), (2, 6), (2, 8), (3, 4),
                          (3, 5), (3, 7), (3, 8), (4, 7), (4, 8), (5, 6),
                          (5, 7), (6, 7), (7, 8)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(connected_graphs())
@example(GF2_RANK_DROP)
def test_basis_matches_oracle_elimination(g):
    mis = enumerate_mis(g)
    for field in DEFAULT_FIELDS:
        p = None if field.is_rationals else field.p
        space = well_covered_space(g, field, mis=mis)
        got = [[int(x) for x in vec] for vec in space.basis_vectors()]
        assert got == nullspace_basis_elimination(g.n, g.edges, p)


# a 4-cycle sharing vertex 3 with a triangle: over GF(2), GF(3) and GF(5)
# some MIS has a packed sum unlike MIS 0's although every digit of the
# difference is a multiple of p, so its row is already spanned
RESIDUES_AGREE = Graph(6, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4), (3, 5),
                           (4, 5)])

# over Q a kernel vector's L1 norm outgrows the first slot width (2 -> 4);
# with width 2 kept, misread digits select the wrong rows
WIDTH_GROWS = Graph(7, [(0, 1), (0, 2), (0, 5), (1, 2), (1, 4), (1, 6),
                        (2, 3), (2, 6), (3, 6), (4, 6)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(connected_graphs())
@example(RESIDUES_AGREE)
@example(WIDTH_GROWS)
@example(cycle(8))
def test_spanning_rows_match_greedy_oracle(g):
    tuples = enumerate_mis(g).sets
    for p in (None, 2, 3, 5):
        got = wcspace._list_filter(tuples, g.n, p).rows
        assert got == greedy_spanning_rows(tuples, g.n, p), p


def _record_digits(monkeypatch) -> list:
    """Record (width, digits) for every packed-sum difference decoded."""
    calls = []
    decode = wcspace._slot_digits

    def spy(diff, width):
        digits = list(decode(diff, width))
        calls.append((width, digits))
        return iter(digits)

    monkeypatch.setattr(wcspace, "_slot_digits", spy)
    return calls


def test_unequal_sums_agreeing_mod_p_select_no_row(monkeypatch):
    calls = _record_digits(monkeypatch)
    tuples = enumerate_mis(RESIDUES_AGREE).sets
    for p in (2, 3, 5):
        calls.clear()
        rows = wcspace._list_filter(tuples, RESIDUES_AGREE.n, p).rows
        assert any(d and all(x % p == 0 for _, x in d) for _, d in calls), p
        assert rows == greedy_spanning_rows(tuples, RESIDUES_AGREE.n, p), p


def test_slot_width_grows_with_rational_vectors(monkeypatch):
    calls = _record_digits(monkeypatch)
    tuples = enumerate_mis(WIDTH_GROWS).sets
    rows = wcspace._list_filter(tuples, WIDTH_GROWS.n, None).rows
    assert [w for w, _ in calls] == [2, 4, 4, 4]
    assert rows == greedy_spanning_rows(tuples, WIDTH_GROWS.n)


def test_pass_stops_when_the_kernel_empties():
    g = cycle(8)  # well-covered dimension 0
    tuples = enumerate_mis(g).sets
    for p in (None, 2, 3):
        full = next(k for k in range(len(tuples))
                    if len(greedy_spanning_rows(tuples[:k + 1], g.n, p)) == g.n)
        assert full < len(tuples) - 1
        unread = iter(tuples)
        rows = wcspace._list_filter(unread, g.n, p).rows
        assert len(rows) == g.n, p
        assert next(unread) == tuples[full + 1], p


FOUR_FIELDS = DEFAULT_FIELDS + (FieldSpec.gf(5),)


def test_kernel_read_basis_matches_oracle_on_list_and_stream():
    # the basis is read off the filter's final kernel on both paths; it must
    # be the free-column basis of the full difference system's nullspace
    graphs = [g for g in named_corpus().values() if g.n <= 16]
    for g in graphs + _seeded_random_graphs(23, 30):
        mis = enumerate_mis(g)
        streamed = well_covered_spaces(g, FOUR_FIELDS)
        for field, space in zip(FOUR_FIELDS, streamed):
            want = nullspace_basis_elimination(g.n, g.edges, field.p)
            listed = well_covered_space(g, field, mis=mis)
            for got in (listed, space):
                assert [[int(x) for x in v] for v in got.basis_vectors()] \
                    == want, (g, field)
                scalar = Fraction if field.is_rationals else int
                assert all(type(x) is scalar
                           for v in got.basis_vectors() for x in v)


def _assert_live_kernel_is_exact(filt, field):
    # every live vector is orthogonal to every selected row (mod p over
    # GF(p)), and the live vectors are independent
    p = filt.p
    live = list(filt.kernel.values())
    for w in live:
        for row in filt.rows:
            dot = sum(a * b for a, b in zip(w, row))
            assert (dot % p if p else dot) == 0
    assert rank_of_rows(live, field, filt.n) == len(live)


def test_kernel_is_exact_when_read_stops_at_the_floor():
    graphs = [g for g in named_corpus().values() if g.n <= 16]
    graphs += _seeded_random_graphs(31, 40)
    stopped = 0
    for g in graphs:
        sc = simplicial_report(g).sc
        mis = enumerate_mis(g)
        for field in FOUR_FIELDS:
            if wcdim(g, field, mis=mis) != sc:
                continue
            filt = wcspace._RowFilter(mis.sets[0], g.n, field.p, sc)
            rest = iter(mis.sets[1:])
            assert filt.read(rest), (g, field)
            stopped += next(rest, None) is not None
            assert len(filt.kernel) == sc
            _assert_live_kernel_is_exact(filt, field)
    # most filters reach the floor before the last MIS
    assert stopped > 50, stopped


def test_sampled_kernels_are_exact_at_the_floor():
    graphs = [g for g in named_corpus().values() if g.n <= 16]
    graphs += [_relabelled_s4()] + _seeded_random_graphs(37, 40)
    for g in graphs:
        _, filters, live = wcspace._sampled_filters(
            g, FOUR_FIELDS, simplicial_report(g).sc)
        for field, filt in zip(FOUR_FIELDS, filters):
            if filt not in live:
                _assert_live_kernel_is_exact(filt, field)


# sha256 of json.dumps(report, sort_keys=True) for sierpinski order 4: the
# basis bytes depend only on the row space, not on which rows span it
S4_REPORT_SHA256 = {
    "Q": "7b9fc687d82b2d3cfefec94d8bff90fb44756a415f4ac6338ce56a0b29b7e5e4",
    "GF(2)": "fad5c6a4abd19c31d7f4304e7a0f8d5833cc8250a326c6d8956ed4124bc06b2e",
    "GF(3)": "f7b1d027c95e51b3a661f3ece6e5fefc033b1a488fdcc029da5714f654028b89",
}


def test_sierpinski_4_reports_are_byte_stable():
    g = sierpinski(4).graph
    mis = enumerate_mis(g)
    for field in DEFAULT_FIELDS:
        report = wcspace_report(well_covered_space(g, field, mis=mis),
                                "sierpinski_4")
        digest = sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == S4_REPORT_SHA256[field.label()], field.label()


def test_sierpinski_4_streamed_reports_are_byte_stable():
    g = sierpinski(4).graph
    for space in well_covered_spaces(g, DEFAULT_FIELDS):
        report = wcspace_report(space, "sierpinski_4")
        digest = sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == S4_REPORT_SHA256[space.field.label()], space.field
        assert space.mis_count == 80840


def test_streamed_spaces_equal_listed_spaces():
    # one streamed pass in search order gives, field for field, the space
    # computed from the canonical MIS list: same basis, dimension, count
    # sierpinski_4: test_sierpinski_4_streamed_reports_are_byte_stable
    graphs = [g for name, g in named_corpus().items()
              if name != "sierpinski_4"]
    graphs += _seeded_random_graphs(41, 40)
    rng = random.Random(41)
    larger = []
    while len(larger) < 10:
        n = rng.randint(10, 16)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        try:
            larger.append(Graph(n, edges))
        except DisconnectedGraphError:
            continue
    for g in graphs + larger:
        mis = enumerate_mis(g)
        streamed = well_covered_spaces(g, DEFAULT_FIELDS)
        assert [s.field for s in streamed] == list(DEFAULT_FIELDS)
        for field, space in zip(DEFAULT_FIELDS, streamed):
            listed = well_covered_space(g, field, mis=mis)
            assert space == listed, (g, field)
            assert space.mis_count == len(mis)


def test_basis_does_not_depend_on_mis_order():
    rng = random.Random(5)
    graphs = [g for g in named_corpus().values() if g.n <= 20]
    for g in graphs + _seeded_random_graphs(6, 30):
        mis = enumerate_mis(g)
        canonical = [well_covered_space(g, f, mis=mis) for f in DEFAULT_FIELDS]
        for _ in range(3):
            sets = list(mis.sets)
            rng.shuffle(sets)
            shuffled = MisList(graph=g, sets=tuple(sets))
            for field, space in zip(DEFAULT_FIELDS, canonical):
                assert well_covered_space(g, field, mis=shuffled) == space, g


def _count_streamed_reads(monkeypatch) -> Counter:
    """Count the MISs each row filter reads from the search's stream, keyed
    by the filter's modulus (None over Q); sampled MISs are not counted."""
    class Streamed(tuple):
        pass

    search = wcspace.iter_mis
    monkeypatch.setattr(wcspace, "iter_mis",
                        lambda g, cap: map(Streamed, search(g, cap)))
    fed = Counter()
    read = wcspace._RowFilter.read

    def spy(self, mis):
        def counted():
            for members in mis:
                if type(members) is Streamed:
                    fed[self.p] += 1
                yield members
        return read(self, counted())

    monkeypatch.setattr(wcspace._RowFilter, "read", spy)
    return fed


@pytest.mark.parametrize("block", [1, 3, wcspace._BLOCK])
def test_streamed_filters_stop_reading_while_counting_goes_on(monkeypatch,
                                                             block):
    monkeypatch.setattr(wcspace, "_BLOCK", block)
    monkeypatch.setattr(wcspace, "_STALL", 0)  # the base sample only
    fed = _count_streamed_reads(monkeypatch)
    g = cycle(8)  # well-covered dimension 0
    spaces = well_covered_spaces(g, DEFAULT_FIELDS)
    assert [s.dimension for s in spaces] == [0, 0, 0]
    assert [s.mis_count for s in spaces] == [count_mis(g)] * 3 == [10] * 3
    # each filter reads some of the ten streamed MISs, but not all of them
    assert len(fed) == 3 and all(0 < k < 10 for k in fed.values()), fed


def _relabelled_s4():
    sg = sierpinski(4)
    perm = list(range(sg.graph.n))
    random.Random(3).shuffle(perm)
    return relabel(sg.graph, perm)


def test_sampling_settles_relabelled_s4_before_the_stream(monkeypatch):
    fed = _count_streamed_reads(monkeypatch)
    spaces = well_covered_spaces(_relabelled_s4(), DEFAULT_FIELDS)
    assert not fed, fed
    assert [s.dimension for s in spaces] == [3, 3, 3]
    assert [s.mis_count for s in spaces] == [80840] * 3


def test_settled_filters_leave_the_stream_unread(monkeypatch):
    yielded = []
    search = wcspace.iter_mis

    def spy(g, cap):
        for members in search(g, cap):
            yielded.append(members)
            yield members

    monkeypatch.setattr(wcspace, "iter_mis", spy)
    spaces = well_covered_spaces(_relabelled_s4(), DEFAULT_FIELDS)
    assert yielded == []
    assert [s.mis_count for s in spaces] == [80840] * 3


# dimension 2, sc 1: the sampled rows alone leave a kernel of dimension 3
# over every field, so the streamed search must finish the job
SAMPLES_FALL_SHORT = Graph(11, [(0, 1), (0, 6), (0, 10), (1, 2), (1, 9),
                                (2, 4), (3, 8), (3, 9), (4, 5), (4, 10),
                                (5, 7), (5, 8), (6, 9)])


def test_filters_read_the_stream_where_dim_exceeds_sc(monkeypatch):
    graphs = [cycle(4), cycle(5), SAMPLES_FALL_SHORT]
    graphs += [g for g in _seeded_random_graphs(17, 40)
               if wcdim(g) > simplicial_report(g).sc][:10]
    assert len(graphs) == 13
    for g in graphs:
        mis = enumerate_mis(g)
        sc = simplicial_report(g).sc
        fed = _count_streamed_reads(monkeypatch)
        streamed = well_covered_spaces(g, DEFAULT_FIELDS)
        for field, space in zip(DEFAULT_FIELDS, streamed):
            assert space == well_covered_space(g, field, mis=mis), (g, field)
            if space.dimension > sc:
                # a filter above its floor reads the whole stream
                assert fed[wcspace._modulus(field)] == len(mis), (g, field)
        monkeypatch.undo()


@pytest.mark.parametrize("block", [2, wcspace._BLOCK])
def test_streamed_spaces_raise_past_the_cap(monkeypatch, block):
    monkeypatch.setattr(wcspace, "_BLOCK", block)
    g = cycle(12)  # the filters finish long before the search does
    k = count_mis(g)
    assert well_covered_spaces(g, DEFAULT_FIELDS, cap=k)[0].mis_count == k
    with pytest.raises(MisCapExceededError):
        well_covered_spaces(g, DEFAULT_FIELDS, cap=k - 1)
    with pytest.raises(MisCapExceededError):
        well_covered_space(g, QQ, cap=k - 1)
    with pytest.raises(MisCapExceededError):
        is_well_covered(path(12), cap=count_mis(path(12)) - 1)


def _drop_last_member(adj, rng):
    return random_greedy_mis(adj, rng)[:-1]


def _add_a_neighbour(adj, rng):
    members = random_greedy_mis(adj, rng)
    nbr = adj[members[0]]
    return members + ((nbr & -nbr).bit_length() - 1,)


@pytest.mark.parametrize("sampler", [_drop_last_member, _add_a_neighbour])
def test_a_sample_that_is_not_a_mis_raises(monkeypatch, sampler):
    monkeypatch.setattr(wcspace, "random_greedy_mis", sampler)
    for g in (path(5), cycle(4), sierpinski(3).graph):
        with pytest.raises(RuntimeError, match="not a maximal independent"):
            well_covered_spaces(g, DEFAULT_FIELDS)
        with pytest.raises(RuntimeError, match="not a maximal independent"):
            certified_space(g, QQ)


def test_spaces_do_not_depend_on_the_sample_seed(monkeypatch):
    graphs = [g for g in named_corpus().values() if g.n <= 20]
    graphs += _seeded_random_graphs(23, 20) + [_relabelled_s4()]

    def reports():
        return [[json.dumps(wcspace_report(s, "g"), sort_keys=True)
                 for s in well_covered_spaces(g, DEFAULT_FIELDS)]
                for g in graphs]

    expected = reports()
    for seed in (1, 2, 3):
        monkeypatch.setattr(wcspace, "_SAMPLE_SEED", seed)
        assert reports() == expected, seed


def test_certified_space_closes_on_sierpinski_5():
    sg = sierpinski(5)
    assert sg.graph.n == 123
    cliques = simplicial_report(sg.graph).cliques
    assert set(cliques) == set(sg.corner_cliques)
    for field in DEFAULT_FIELDS:
        basis, samples, cert_cliques = certified_space(sg.graph, field)
        assert len(basis) == 3 and cert_cliques == cliques, field
        assert all(is_mis(sg.graph, m) for m in samples)
        for w in basis:
            for v in sg.graph.vertices:
                if not any(v in c for c in cliques):
                    assert w.values[v] == 0, field
            for c in cliques:
                assert len({w.values[v] for v in c}) == 1, field


def test_certified_space_equals_the_enumerated_space():
    graphs = list(named_corpus().values()) + _seeded_random_graphs(31, 40)
    closed = 0
    for g in graphs:
        sc = simplicial_report(g).sc
        for space in well_covered_spaces(g, DEFAULT_FIELDS):
            cert = certified_space(g, space.field)
            if space.dimension > sc:
                assert cert is None, (g, space.field)
            elif cert is not None:
                closed += 1
                assert cert[0] == space.basis, (g, space.field)
                assert space.dimension == sc
    assert closed >= 100, closed
    assert certified_space(cycle(4), QQ) is None
