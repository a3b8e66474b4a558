import json
import random
from collections import Counter
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import example, given, settings

from wellcovered.graph import DisconnectedGraphError, Graph, \
    adjacency_masks, is_chordal, relabel, simplicial_report
from wellcovered.families import (complete, cycle, figure1,
                                  figure6_composite, named_corpus, path,
                                  sierpinski, star)
from wellcovered.harness import random_connected_graphs
from wellcovered.linalg import DEFAULT_FIELDS, GF2, GF3, QQ, FieldSpec, \
    nullspace_basis, rank_of_rows, span_basis, span_equal
from wellcovered import wcspace
from wellcovered.mis import MisCapExceededError, MisList, count_mis, \
    enumerate_mis, is_mis, random_greedy_mis
from wellcovered.wcspace import (certified_space, indicator_weighting,
                                 is_well_covered, wcdim, well_covered_space,
                                 well_covered_spaces, wcspace_report)

from oracles import _coprime_integers, difference_row, \
    greedy_spanning_rows, nullspace_basis_elimination, \
    wcdim_fraction_elimination
from strategies import connected_graphs


def _constant_sum(w, field, mis):
    """True iff the weighting has the same sum over every MIS, compared
    modulo p over GF(p)."""
    p = field.p
    sums = {sum(w[v] for v in members) for members in mis.sets}
    return len({s % p for s in sums} if p else sums) == 1


def _constraint_rows(g, mis):
    """The full difference system: MIS k minus MIS 0 for every k > 0."""
    first, *rest = mis.sets
    return [difference_row(m, first, g.n) for m in rest]


def _selected_rows(filt):
    """The difference rows of the MISs the filter selected, in order."""
    return [difference_row(m, filt.first, filt.n) for m in filt.selected]


def test_constraint_matrix_single_mis():
    g = Graph(1, [])
    assert _constraint_rows(g, enumerate_mis(g)) == []
    assert wcdim(g) == 1


def test_constraint_matrix_c4():
    g = cycle(4)
    assert _constraint_rows(g, enumerate_mis(g)) == [[-1, 1, -1, 1]]


def test_constraint_matrix_figure1_rank():
    g = figure1()
    rows = _constraint_rows(g, enumerate_mis(g))
    assert len(rows) == 23
    assert rank_of_rows(rows, QQ, g.n) == 7


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
        space = well_covered_space(mis, field)
        assert space.dimension == 3
        assert space.constraint_rank == 7
        vecs = space.basis_vectors()
        assert span_equal(vecs, clique_indicator_basis, field, length=10)


def test_well_covered_space_matches_oracle_elimination():
    for name, g in named_corpus().items():
        if g.n > 12:
            continue
        mis_count, rank, nullity = wcdim_fraction_elimination(g.n, g.edges)
        space = well_covered_spaces(g, (QQ,))[0]
        assert space.mis_count == mis_count, name
        assert space.constraint_rank == rank, name
        assert space.dimension == nullity, name


def test_space_agrees_with_full_matrix_path():
    # the incremental row-selection path against elimination of the full
    # system
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
            space = well_covered_space(mis, field)
            assert space.dimension == \
                len(nullspace_basis_elimination(g.n, g.edges, field.p))


def test_basis_vectors_pass_verification_and_are_independent():
    from wellcovered.linalg import rank_of_rows
    for name, g in named_corpus().items():
        if g.n > 20:
            continue
        mis = enumerate_mis(g)
        for field in DEFAULT_FIELDS:
            space = well_covered_space(mis, field)
            for w in space.basis:
                assert _constant_sum(w, field, mis), name
            assert rank_of_rows(space.basis_vectors(), field, g.n) == \
                space.dimension, name


def test_random_combinations_stay_in_space():
    rng = random.Random(2024)
    for g in (figure1(), path(7), sierpinski(2).graph, star(3)):
        mis = enumerate_mis(g)
        space = well_covered_space(mis, QQ)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in space.basis]
            values = [sum((c * w[v] for c, w in zip(coeffs, space.basis)),
                          Fraction(0)) for v in g.vertices]
            assert _constant_sum(values, QQ, mis)


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
        assert is_well_covered(g) == _constant_sum(ones, QQ, mis), name


def test_lower_bound_and_chordal_equality_on_corpus():
    for name, g in named_corpus().items():
        if g.n > 20:
            continue
        sc = simplicial_report(g).sc
        # the listed path: the sampled one stops at sc and cannot fall below
        dim = well_covered_space(enumerate_mis(g), QQ).dimension
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
    space = well_covered_space(mis, QQ)
    for c in rep.cliques:
        ind = indicator_weighting(g, c)
        assert _constant_sum(ind, QQ, mis)
        assert span_equal(space.basis_vectors(),
                          space.basis_vectors() + [list(ind)],
                          QQ, length=g.n)


def test_wcspace_report_shape():
    g = cycle(4)
    space = well_covered_spaces(g, (QQ,))[0]
    report = wcspace_report(space, "c4")
    assert report["graph"] == "c4"
    assert report["dimension"] == 3
    assert report["constraint_rank"] == 1
    assert report["mis_count"] == 2
    assert all(isinstance(x, int) for row in report["basis"] for x in row)
    gf_report = wcspace_report(well_covered_spaces(g, (GF2,))[0], "c4")
    assert gf_report["field"] == {"kind": "prime_field", "p": 2}


def test_integerized_basis_is_content_one():
    for g in (figure1(), path(9), cycle(4)):
        space = well_covered_spaces(g, (QQ,))[0]
        for w in space.basis:
            assert list(w) == _coprime_integers(w)


def test_clique_indicator_membership_on_corpus_sccgs():
    # whenever every MIS meets a simplicial clique exactly once, that clique's
    # indicator is a well-covered weighting and lies in the computed space
    from wellcovered.graph import is_sccg
    for name, g in named_corpus().items():
        if not is_sccg(g) or g.n > 15:
            continue
        mis = enumerate_mis(g)
        rep = simplicial_report(g)
        space = well_covered_space(mis, QQ)
        for c in rep.cliques:
            if all(len(m & c) == 1 for m in map(frozenset, mis.sets)):
                ind = indicator_weighting(g, c)
                assert _constant_sum(ind, QQ, mis), name
                assert span_equal(space.basis_vectors(),
                                  space.basis_vectors() + [list(ind)],
                                  QQ, length=g.n), name


def _full_matrix_basis(g, mis, field):
    return nullspace_basis(_constraint_rows(g, mis), field, g.n)


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
            space = well_covered_space(mis, field)
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
        space = well_covered_space(mis, field)
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


def _list_filter(mis, n, p):
    """A row filter, over GF(p) or over the rationals when p is None, that
    has read the MISs in order, the first being the base."""
    mis = iter(mis)
    filt = wcspace._RowFilter(next(mis), n, p)
    filt.read(mis)
    return filt


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(connected_graphs())
@example(RESIDUES_AGREE)
@example(WIDTH_GROWS)
@example(cycle(8))
def test_spanning_rows_match_greedy_oracle(g):
    tuples = enumerate_mis(g).sets
    for p in (None, 2, 3, 5, 7, 65521):
        got = _selected_rows(_list_filter(tuples, g.n, p))
        assert got == greedy_spanning_rows(tuples, g.n, p), p


def _record_digits(monkeypatch) -> list:
    """Record (width, digits) for every packed-sum difference decoded, the
    digits as the (slot, digit) pairs of its nonzero digits: one at a time
    over the rationals, a whole lane list at once over an odd prime."""
    calls = []
    decode, decode_lanes = wcspace._slot_digits, wcspace._lane_digits

    def spy(diff, width):
        digits = list(decode(diff, width))
        calls.append((width, digits))
        return iter(digits)

    def spy_lanes(diff, width, count):
        digits = decode_lanes(diff, width, count)
        calls.append((width, [(i, d) for i, d in enumerate(digits) if d]))
        return digits

    monkeypatch.setattr(wcspace, "_slot_digits", spy)
    monkeypatch.setattr(wcspace, "_lane_digits", spy_lanes)
    return calls


def test_unequal_sums_agreeing_mod_p_select_no_row(monkeypatch):
    calls = _record_digits(monkeypatch)
    tuples = enumerate_mis(RESIDUES_AGREE).sets
    for p in (2, 3, 5):
        calls.clear()
        rows = _selected_rows(_list_filter(tuples, RESIDUES_AGREE.n, p))
        if p != 2:  # GF(2) reads parities by XOR and decodes no digits
            assert any(d and all(x % p == 0 for _, x in d)
                       for _, d in calls), p
        assert rows == greedy_spanning_rows(tuples, RESIDUES_AGREE.n, p), p


def test_slot_width_grows_with_rational_vectors(monkeypatch):
    calls = _record_digits(monkeypatch)
    tuples = enumerate_mis(WIDTH_GROWS).sets
    rows = _selected_rows(_list_filter(tuples, WIDTH_GROWS.n, None))
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
        rows = _selected_rows(_list_filter(unread, g.n, p))
        assert len(rows) == g.n, p
        assert next(unread) == tuples[full + 1], p


def test_selected_row_leaves_every_failing_vector():
    # on both graphs some MIS fails three kernel vectors or more at once,
    # so its row is eliminated from two vectors or more besides the pivot:
    # by XOR over GF(2), and by one lane-wide add-and-reduce per vertex over
    # an odd prime.  The filter must match the oracle and stay exact after
    # every MIS.  The odd primes give lanes of 8, 32 and 128 bits, the last
    # one wider than any lane vectors() reads in one cast
    for g in (RESIDUES_AGREE, figure6_composite()):
        tuples = enumerate_mis(g).sets
        for p in (2, 3, 5, 65521, 2**61 - 1):
            filt = wcspace._RowFilter(tuples[0], g.n, p)
            widest = 0
            for k, members in enumerate(tuples[1:], 1):
                row = difference_row(members, tuples[0], g.n)
                widest = max(widest, sum(
                    sum(a * b for a, b in zip(w, row)) % p != 0
                    for w in filt.vectors()))
                filt.read((members,))
                assert _selected_rows(filt) == greedy_spanning_rows(
                    tuples[:k + 1], g.n, p), (g, p, k)
                _assert_live_kernel_is_exact(filt, FieldSpec(p))
            assert widest >= 3, (g, p)
            assert len(filt.selected) > 1, (g, p)


FOUR_FIELDS = DEFAULT_FIELDS + (FieldSpec(5),)


def test_kernel_read_basis_matches_oracle_on_list_and_stream():
    # the basis is read off the filter's final kernel on both paths; it must
    # be the free-column basis of the full difference system's nullspace
    graphs = [g for g in named_corpus().values() if g.n <= 16]
    for g in graphs + _seeded_random_graphs(23, 30):
        mis = enumerate_mis(g)
        streamed = well_covered_spaces(g, FOUR_FIELDS)
        for field, space in zip(FOUR_FIELDS, streamed):
            want = nullspace_basis_elimination(g.n, g.edges, field.p)
            listed = well_covered_space(mis, field)
            for got in (listed, space):
                assert [[int(x) for x in v] for v in got.basis_vectors()] \
                    == want, (g, field)
                assert all(type(x) is int
                           for v in got.basis_vectors() for x in v)


def test_integral_rationals_are_ints_at_the_library_interface():
    # over Q an integral scalar is an int; the library builds no Fraction
    def ints(vectors):
        return all(type(x) is int for v in vectors for x in v)

    assert ints([indicator_weighting(figure1(), {0, 3})])
    assert ints(_full_matrix_basis(figure1(), enumerate_mis(figure1()), QQ))
    assert ints(span_basis([[2, 4, 0], [1, 0, -3]], QQ, 3))
    for g in (figure1(), cycle(4)):
        assert ints(well_covered_space(enumerate_mis(g), QQ)
                    .basis_vectors())
        assert ints(well_covered_spaces(g, (QQ,))[0].basis_vectors())
        for space in well_covered_spaces(g, DEFAULT_FIELDS):
            assert ints(space.basis_vectors())
    basis, _, _ = certified_space(sierpinski(3).graph, QQ)
    assert ints(basis)


def _assert_live_kernel_is_exact(filt, field):
    # every live vector is orthogonal to every selected row (mod p over
    # GF(p), where its entries are residues), and the live vectors are
    # independent
    p = filt.p
    live = filt.vectors()
    if p:
        assert all(0 <= x < p for w in live for x in w)
    for w in live:
        for row in _selected_rows(filt):
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
            if well_covered_space(mis, field).dimension != sc:
                continue
            filt = wcspace._RowFilter(mis.sets[0], g.n, field.p, sc)
            rest = iter(mis.sets[1:])
            assert filt.read(rest), (g, field)
            stopped += next(rest, None) is not None
            assert len(filt.kernel) == sc
            _assert_live_kernel_is_exact(filt, field)
    # most filters reach the floor before the last MIS
    assert stopped > 50, stopped


def test_sampled_kernels_are_exact_at_the_floor(monkeypatch):
    graphs = [g for g in named_corpus().values() if g.n <= 16]
    graphs += [_relabelled_s4()] + _seeded_random_graphs(37, 40)
    primes = [f.p for f in FOUR_FIELDS if f.p]
    built = _spy_built_filters(monkeypatch)
    for g in graphs:
        sc = simplicial_report(g).sc
        _, filters = wcspace._sampled_filters(g, primes, sc)
        assert list(filters) == primes
        finished = [p for p, filt in filters.items() if len(filt.kernel) == sc]
        for p in finished:
            _assert_live_kernel_is_exact(filters[p], FieldSpec(p))
        # a certified Q: some prime filter reached its floor on the same
        # samples, and no rational filter is built
        built.clear()
        well_covered_spaces(g, FOUR_FIELDS)
        assert (None not in built) == bool(finished), g


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
        report = wcspace_report(well_covered_space(mis, field),
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
            listed = well_covered_space(mis, field)
            assert space == listed, (g, field)
            assert space.mis_count == len(mis)


def test_basis_does_not_depend_on_mis_order():
    rng = random.Random(5)
    graphs = [g for g in named_corpus().values() if g.n <= 20]
    for g in graphs + _seeded_random_graphs(6, 30):
        mis = enumerate_mis(g)
        canonical = [well_covered_space(mis, f) for f in DEFAULT_FIELDS]
        for _ in range(3):
            sets = list(mis.sets)
            rng.shuffle(sets)
            shuffled = MisList(graph=g, sets=tuple(sets))
            for field, space in zip(DEFAULT_FIELDS, canonical):
                assert well_covered_space(shuffled, field) == space, g


def test_listed_basis_is_the_oracle_basis_in_any_mis_order():
    # the listed basis is the filter's live vectors, with no second
    # elimination; in canonical and in shuffled MIS order it must be the
    # free-column basis of the full difference system's nullspace
    rng = random.Random(34)
    signed = 0
    for _, g in random_connected_graphs(60, 34, max_n=12):
        mis = enumerate_mis(g)
        sets = list(mis.sets)
        rng.shuffle(sets)
        for field in FOUR_FIELDS:
            want = nullspace_basis_elimination(g.n, g.edges, field.p)
            for order in (mis, MisList(graph=g, sets=tuple(sets))):
                assert well_covered_space(order, field).basis_vectors() \
                    == want, (g, field)
            if field.is_rationals:
                filt = _list_filter(sets, g.n, None)
                signed += any(next(filter(None, w)) < 0
                              for w in filt.kernel.values())
    # some raw rational vector leads with a negative entry, so the sign
    # normalisation is exercised
    assert signed > 0


def _assert_live_vectors_are_a_free_column_basis(filt):
    # live vector i is nonzero on slot i (1 over GF(p)), zero on every
    # other live slot, and zero past slot i, like the free-column basis
    live = sorted(filt.kernel)
    vectors = filt.vectors()
    assert len(vectors) == len(live)
    for i, w in zip(live, vectors):
        assert w[i] == 1 if filt.p else w[i] != 0
        assert all(w[k] == 0 for k in live if k != i)
        assert not any(w[i + 1:])


def test_live_vectors_stay_a_free_column_basis_after_every_row():
    graphs = [g for g in named_corpus().values() if g.n <= 16]
    graphs += [g for _, g in random_connected_graphs(30, 35, max_n=12)]
    for g in graphs + [NON_UNIT_PIVOT]:
        sets = list(enumerate_mis(g).sets)
        random.Random(g.n).shuffle(sets)
        for p in (None, 2, 3, 5):
            filt = wcspace._RowFilter(sets[0], g.n, p)
            _assert_live_vectors_are_a_free_column_basis(filt)
            for members in sets[1:]:
                filt.read((members,))
                _assert_live_vectors_are_a_free_column_basis(filt)


# random_3_070_n8_p0.5 of the verify harness (random_connected_graphs(120,
# 3)): its rational filter takes two pivot digits of 2, and its one final
# live vector is 2, 0, 0, 2, 0, 2, 0, 2 before it is divided by its content
NON_UNIT_PIVOT = Graph(8, [(0, 1), (0, 3), (0, 5), (0, 7), (1, 4), (1, 5),
                           (1, 6), (1, 7), (2, 6), (2, 7), (3, 5), (3, 7),
                           (4, 5), (4, 6), (5, 7)])


def test_a_pivot_digit_other_than_one_takes_the_general_update(monkeypatch):
    calls = _record_digits(monkeypatch)
    mis = enumerate_mis(NON_UNIT_PIVOT)
    filt = _list_filter(mis.sets, NON_UNIT_PIVOT.n, None)
    pivots = [digits[0][1] for _, digits in calls if digits]
    assert len(pivots) == len(filt.selected)
    assert sorted(abs(d) for d in pivots if abs(d) != 1) == [2, 2]
    assert list(filt.kernel.values()) == [[2, 0, 0, 2, 0, 2, 0, 2]]
    assert filt.vectors() == [[1, 0, 0, 1, 0, 1, 0, 1]]
    want = nullspace_basis_elimination(NON_UNIT_PIVOT.n, NON_UNIT_PIVOT.edges)
    assert well_covered_space(mis, QQ).basis_vectors() == want
    assert _selected_rows(filt) == greedy_spanning_rows(mis.sets,
                                                        NON_UNIT_PIVOT.n)


def test_bases_at_the_floor_equal_the_indicator_route():
    # a filter that stops at its floor sc publishes its live vectors; they
    # must be the basis span_basis reads off the clique indicators
    graphs = list(named_corpus().values()) + [sierpinski(5).graph]
    at_floor = 0
    for g in graphs:
        rep = simplicial_report(g)
        indicators = [indicator_weighting(g, c) for c in rep.cliques]
        for space in well_covered_spaces(g, FOUR_FIELDS, cap=10**18):
            want = tuple(map(tuple, span_basis(indicators, space.field, g.n)))
            if space.dimension == rep.sc:
                at_floor += 1
                assert space.basis == want, (g, space.field)
            cert = certified_space(g, space.field)
            if cert is not None:
                assert cert[0] == want, (g, space.field)
    assert at_floor >= 100, at_floor


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
            assert space == well_covered_space(mis, field), (g, field)
            if space.dimension > sc:
                # a filter above its floor reads the whole stream
                assert fed[field.p] == len(mis), (g, field)
        monkeypatch.undo()


def _spy_built_filters(monkeypatch) -> list:
    """The modulus of every _RowFilter built from now on, None over Q."""
    built = []
    init = wcspace._RowFilter.__init__

    def spy(self, first, n, p, floor=0):
        built.append(p)
        init(self, first, n, p, floor)

    monkeypatch.setattr(wcspace._RowFilter, "__init__", spy)
    return built


def test_a_prime_filter_at_its_floor_certifies_the_rationals(monkeypatch):
    g = _relabelled_s4()
    built = _spy_built_filters(monkeypatch)
    spaces = well_covered_spaces(g, DEFAULT_FIELDS)
    assert built == [2, 3]  # no rational filter
    assert [s.dimension for s in spaces] == [3, 3, 3]
    # the rationals alone ride on the internal prime
    built.clear()
    assert well_covered_spaces(g, (QQ,))[0] == spaces[0]
    assert built == [wcspace._Q_PRIME]
    built.clear()
    basis, _, _ = certified_space(g, QQ)
    assert basis == spaces[0].basis and built == [wcspace._Q_PRIME]


def test_a_prime_filter_above_its_floor_hands_over_to_the_rationals(
        monkeypatch):
    built = _spy_built_filters(monkeypatch)
    fed = _count_streamed_reads(monkeypatch)
    sampled = Counter()
    read = wcspace._RowFilter.read

    def spy(self, mis):
        def counted():
            for members in mis:
                # the stream's MISs are tuple subclasses, the samples tuples
                if type(members) is tuple:
                    sampled[self.p] += 1
                yield members
        return read(self, counted())

    monkeypatch.setattr(wcspace._RowFilter, "read", spy)
    space = well_covered_spaces(SAMPLES_FALL_SHORT, (QQ,))[0]
    assert built == [wcspace._Q_PRIME, None]
    assert space.dimension == 2 > simplicial_report(SAMPLES_FALL_SHORT).sc
    # only the rational filter reads the stream, and it reads all of it
    assert fed == {None: space.mis_count}
    # the rational filter is never handed a sampled MIS
    assert list(sampled) == [wcspace._Q_PRIME]
    assert certified_space(SAMPLES_FALL_SHORT, QQ) is None


def _random_7_graphs() -> dict:
    """The first 40 of random_connected_graphs(400, 7, max_n=11), by name.
    Among them, random_7_017_n11_p0.7 has sc 0 and dimension 0 over Q and
    GF(3), but 1 over GF(2): its GF(2) filter never reaches the floor."""
    return dict(random_connected_graphs(40, 7, max_n=11))


def test_rationals_read_the_stream_where_gf2_stays_open(monkeypatch):
    g = _random_7_graphs()["random_7_017_n11_p0.7"]
    assert simplicial_report(g).sc == 0
    assert [wcdim(g, f) for f in (QQ, GF2, GF3)] == [0, 1, 0]
    built = _spy_built_filters(monkeypatch)
    fed = _count_streamed_reads(monkeypatch)
    q, gf2 = well_covered_spaces(g, (QQ, GF2))
    assert built == [2, None]
    assert (q.dimension, gf2.dimension) == (0, 1)
    assert set(fed) == {2, None}  # the rational filter reads the stream
    # Q is certified modulo _Q_PRIME alone: a prime that falls short leaves
    # no certificate, and no rational filter is built
    monkeypatch.setattr(wcspace, "_Q_PRIME", 2)
    built.clear()
    assert certified_space(g, QQ) is None
    assert built == [2]


def test_one_finished_prime_certifies_the_rationals_while_gf2_stays_open(
        monkeypatch):
    g = _random_7_graphs()["random_7_017_n11_p0.7"]
    built = _spy_built_filters(monkeypatch)
    fed = _count_streamed_reads(monkeypatch)
    q, gf2, gf3 = well_covered_spaces(g, (QQ, GF2, GF3))
    assert (q.dimension, gf2.dimension, gf3.dimension) == (0, 1, 0)
    # GF(3) reaches its floor, so no rational filter is built, and only
    # the GF(2) filter reads the stream
    assert built == [2, 3]
    assert set(fed) == {2}


FIELD_SETS = ((QQ,), (QQ, GF2), (GF2, QQ, GF3), FOUR_FIELDS)


def test_streamed_spaces_equal_listed_spaces_over_every_field_set():
    # the rationals are certified by a prime, read by a rational filter, or
    # both in turn; every field set must give the listed spaces
    graphs = [g for g in named_corpus().values() if g.n <= 20]
    graphs += [SAMPLES_FALL_SHORT] + _seeded_random_graphs(43, 30)
    graphs += list(_random_7_graphs().values())
    for g in graphs:
        mis = enumerate_mis(g)
        listed = {f: well_covered_space(mis, f) for f in FOUR_FIELDS}
        for fields in FIELD_SETS:
            streamed = well_covered_spaces(g, fields)
            assert list(streamed) == [listed[f] for f in fields], (g, fields)


@pytest.mark.parametrize("block", [2, wcspace._BLOCK])
def test_streamed_spaces_raise_past_the_cap(monkeypatch, block):
    monkeypatch.setattr(wcspace, "_BLOCK", block)
    g = cycle(12)  # the filters finish long before the search does
    k = count_mis(g)
    assert well_covered_spaces(g, DEFAULT_FIELDS, cap=k)[0].mis_count == k
    with pytest.raises(MisCapExceededError):
        well_covered_spaces(g, DEFAULT_FIELDS, cap=k - 1)
    with pytest.raises(MisCapExceededError):
        well_covered_spaces(g, (QQ,), cap=k - 1)
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


def _assert_gasket_certificate(sg, field):
    # dimension 3: the basis is zero off the corners and constant on each
    cliques = simplicial_report(sg.graph).cliques
    assert set(cliques) == set(sg.corner_cliques)
    basis, samples, cert_cliques = certified_space(sg.graph, field)
    assert len(basis) == 3 and cert_cliques == cliques, field
    assert all(is_mis(sg.graph, m) for m in samples)
    for w in basis:
        for v in sg.graph.vertices:
            if not any(v in c for c in cliques):
                assert w[v] == 0, field
        for c in cliques:
            assert len({w[v] for v in c}) == 1, field


def test_certified_space_closes_on_sierpinski_5():
    sg = sierpinski(5)
    assert sg.graph.n == 123
    for field in DEFAULT_FIELDS:
        _assert_gasket_certificate(sg, field)


def test_certified_space_closes_on_sierpinski_6_over_gf2():
    sg = sierpinski(6)
    assert sg.graph.n == 366
    _assert_gasket_certificate(sg, GF2)


def test_certified_space_closes_on_sierpinski_6_over_gf3():
    sg = sierpinski(6)
    _assert_gasket_certificate(sg, GF3)


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


def test_a_filter_born_at_its_floor_draws_no_sample():
    # on one vertex n = sc, so every filter starts finished: the base MIS
    # is the only sample, and no second draw repeats it
    for field in DEFAULT_FIELDS:
        assert certified_space(Graph(1, []), field) == \
            (((1,),), ((0,),), (frozenset({0}),)), field


def _sampled_one_at_a_time(g, primes, floor):
    """The sampling phase as one sample per read: each filter reads one
    sample at a time, and the stall counter restarts at every sample that
    selects a row in some filter.  _sampled_filters reads rounds of samples
    and must stop at the same sample, with the same filters."""
    adj = adjacency_masks(g)
    rng = random.Random(wcspace._SAMPLE_SEED)
    samples = [random_greedy_mis(adj, rng)]
    filters = {p: wcspace._RowFilter(samples[0], g.n, p, floor)
               for p in primes}
    live = [filt for filt in filters.values() if len(filt.kernel) > floor]
    selected = stall = 0
    while live and stall < wcspace._STALL:
        samples.append(random_greedy_mis(adj, rng))
        live = [filt for filt in live if not filt.read(samples[-1:])]
        total = sum(len(filt.selected) for filt in filters.values())
        stall = 0 if total > selected else stall + 1
        selected = total
    return samples, filters


def _s4_relabellings(count):
    sg = sierpinski(4)
    graphs = []
    for seed in range(count):
        perm = list(range(sg.graph.n))
        random.Random(f"s4:{seed}").shuffle(perm)
        graphs.append(relabel(sg.graph, perm))
    return graphs


def test_sampling_rounds_match_one_sample_at_a_time():
    graphs = list(named_corpus().values()) + _s4_relabellings(5)
    graphs += [sierpinski(5).graph]
    graphs += [g for _, g in random_connected_graphs(200, 29, max_n=12)]
    stalled = 0
    for primes in ((2, 3), (65521,), (3,), (2, 3, 5)):
        for g in graphs:
            sc = simplicial_report(g).sc
            samples, filters = wcspace._sampled_filters(g, primes, sc)
            ref_samples, ref_filters = _sampled_one_at_a_time(g, primes, sc)
            # the same samples, so the same stopping point
            assert samples == ref_samples, (g, primes)
            for p in primes:
                filt, ref = filters[p], ref_filters[p]
                assert filt.selected == ref.selected, (g, p)
                assert filt.kernel == ref.kernel, (g, p)
                assert filt.packed == ref.packed, (g, p)
            stalled += any(len(filt.kernel) > sc
                           for filt in filters.values())
    # many of the graphs stall, so the stall rule itself is compared
    assert stalled >= 100, stalled


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
def test_lane_digits_equal_the_slot_digits(width):
    rng = random.Random(width)
    half = 1 << (width - 1)
    for count in (1, 2, 5, 40):
        for _ in range(50):
            digits = [rng.choice((0, 0, 1, -1, -half, half - 1,
                                  rng.randrange(-half, half)))
                      for _ in range(count)]
            diff = sum(d << (i * width) for i, d in enumerate(digits))
            lanes = wcspace._lane_digits(diff, width, count)
            assert lanes == digits, (width, digits)
            assert [(i, d) for i, d in enumerate(lanes) if d] == \
                list(wcspace._slot_digits(diff, width)), (width, digits)
