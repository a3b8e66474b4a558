import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (free_column_basis, is_prime_trial_division,
                     rref_fraction_elimination)
from wellcovered.linalg import (FieldSpec, GF2, GF3, Matrix, QQ, _is_prime,
                                integerize, nullspace_basis, rank_of_rows,
                                rref, span_basis, span_equal)


def test_is_prime_matches_trial_division():
    for n in range(-5, 10**5):
        assert _is_prime(n) == is_prime_trial_division(n), n
    assert FieldSpec.gf(2**61 - 1).p == 2**61 - 1
    # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5 and 7
    assert not _is_prime(3215031751)


def test_field_spec_validation():
    assert FieldSpec.gf(2).p == 2
    assert FieldSpec.gf(97).label() == "GF(97)"
    with pytest.raises(ValueError):
        FieldSpec.gf(1)
    with pytest.raises(ValueError):
        FieldSpec.gf(91)  # 7 * 13
    with pytest.raises(ValueError):
        FieldSpec.gf(2**61 + 1)
    with pytest.raises(ValueError):
        FieldSpec("rationals", 5)
    with pytest.raises(ValueError):
        FieldSpec("galois")


def test_field_parse_tokens():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("gf:7") == FieldSpec.gf(7)
    with pytest.raises(ValueError):
        FieldSpec.parse("gf:10")
    with pytest.raises(ValueError):
        FieldSpec.parse("real")


def test_rational_arithmetic_is_canonical():
    a = QQ.add(Fraction(1, 2), Fraction(1, 3))
    assert a == Fraction(5, 6) and a.denominator == 6
    prod = QQ.mul(Fraction(2, 4), Fraction(2, 3))
    assert prod == Fraction(1, 3)



def test_rref_identity():
    m = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    reduced, rank, pivots = rref(m)
    assert rank == 3 and pivots == [0, 1, 2]
    assert reduced.entries == m.entries


def test_rref_gf2_dependent_rows():
    m = Matrix.from_rows([[1, 1], [1, 1]], GF2)
    reduced, rank, _ = rref(m)
    assert rank == 1
    assert reduced.entries == ((1, 1), (0, 0))


def test_rref_single_constraint():
    m = Matrix.from_rows([[1, 1, -1, -1]], QQ)
    _, rank, _ = rref(m)
    assert rank == 1
    basis = nullspace_basis(m)
    assert len(basis) == 3
    for vec in basis:
        assert m.mat_vec(vec) == [Fraction(0)]


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(5)] for _ in range(4)]
        m = Matrix.from_rows(rows, QQ)
        reduced, rank, pivots = rref(m)
        again, rank2, pivots2 = rref(reduced)
        assert again.entries == reduced.entries
        assert (rank, pivots) == (rank2, pivots2)


def test_nullspace_zero_and_full_rank():
    zero = Matrix.from_rows([[0, 0, 0]], QQ)
    basis = nullspace_basis(zero)
    assert [list(map(int, v)) for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    full = Matrix.from_rows([[1, 0], [0, 1]], GF3)
    assert nullspace_basis(full) == []


@pytest.mark.parametrize("field", [QQ, GF2, GF3, FieldSpec.gf(13)])
def test_nullspace_properties_random(field):
    # acceptance criterion: exact Mv = 0 and |basis| = cols - rank
    rng = random.Random(hash((field.kind, field.p)) & 0xFFFF)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = Matrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)],
            field)
        _, rank, _ = rref(m)
        basis = nullspace_basis(m)
        assert len(basis) == cols - rank
        for vec in basis:
            assert all(field.is_zero(x) for x in m.mat_vec(vec))
        assert rank_of_rows(basis, field, cols) == len(basis)


def _mixed_spanning_set(basis, field, rng):
    """Vectors spanning the same space as basis: the basis mixed by a random
    invertible combination and shuffled, with a zero vector and a sum of two
    of them thrown in at random."""
    k, p = len(basis), field.p
    while True:
        mix = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if rank_of_rows(mix, field, k) == k:
            break
    out = [[sum(c * x for c, x in zip(coeffs, col)) for col in zip(*basis)]
           for coeffs in mix]
    if p:
        out = [[x % p for x in v] for v in out]
    if out and rng.random() < 0.5:
        out.append([a + b for a, b in zip(out[0], out[-1])])
    if basis and rng.random() < 0.5:
        out.append([0] * len(basis[0]))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("field", [QQ, GF2, GF3, FieldSpec.gf(5)])
def test_span_basis_equals_nullspace_basis(field):
    # span_basis reads nullspace_basis(m) off any spanning set of m's
    # nullspace, vector for vector and entry type for entry type
    rng = random.Random(41 + (field.p or 0))
    cols_of = [rng.randint(1, 8) for _ in range(60)]
    matrices = [[[rng.randint(-3, 3) for _ in range(cols)]
                 for _ in range(rng.randint(1, 7))] for cols in cols_of]
    matrices += [[[0] * 4], [[0] * 4] * 3,                 # zero matrices
                 [[1, 0, 0], [0, 1, 0], [0, 0, 1]],        # identity
                 [[1, 2, 3], [0, 1, 4], [0, 0, 1], [1, 1, 1]]]
    scalar = Fraction if field.is_rationals else int
    for rows in matrices:
        m = Matrix.from_rows(rows, field)
        want = nullspace_basis(m)
        for _ in range(3):
            got = span_basis(_mixed_spanning_set(want, field, rng), field,
                             m.cols)
            assert got == want, rows
            assert all(type(x) is scalar for v in got for x in v)
    assert span_basis([], field, 3) == []


def test_span_basis_takes_rational_entries():
    vecs = [[Fraction(1, 2), Fraction(-1, 3), Fraction(0)],
            [Fraction(1), Fraction(0), Fraction(-4, 5)]]
    m = Matrix.from_rows([[4, 6, 5]], QQ)
    assert span_basis(vecs, QQ, 3) == nullspace_basis(m) \
        == [[Fraction(3), Fraction(-2), Fraction(0)],
            [Fraction(5), Fraction(0), Fraction(-4)]]


def test_span_equal():
    e1 = [Fraction(1), Fraction(0)]
    e2 = [Fraction(0), Fraction(1)]
    assert span_equal([e1], [[Fraction(2), Fraction(0)]], QQ)
    assert not span_equal([e1], [e2], QQ)
    assert span_equal([e1, e2], [[Fraction(1), Fraction(1)], e1], QQ)
    assert span_equal([], [], QQ, length=4)
    assert not span_equal([], [e1], QQ)
    with pytest.raises(ValueError):
        span_equal([e1], [[Fraction(1)]], QQ)


def test_span_equal_with_dependent_vectors():
    # eliminating a dependent vector leaves a row whose content is zero
    a = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(-2), Fraction(-4), Fraction(-6)],
         [Fraction(0), Fraction(1, 2), Fraction(1, 2)],
         [Fraction(1), Fraction(3), Fraction(4)]]
    b = [[Fraction(1), Fraction(1), Fraction(2)],
         [Fraction(0), Fraction(3), Fraction(3)]]
    assert rank_of_rows(a, QQ, 3) == 2
    assert span_equal(a, b, QQ)
    assert not span_equal(a, b[:1] + [[Fraction(0), Fraction(0), Fraction(1)]], QQ)


@st.composite
def field_matrices(draw):
    """(rows, p) with p None for the rationals; some rows are forced to be
    multiples of others or all zero."""
    p = draw(st.sampled_from([None, 2, 3, 13]))
    cols = draw(st.integers(1, 7))
    if p is None:
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        entry = st.integers(0, p - 1)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=1, max_size=6))
    if len(rows) < 6 and draw(st.booleans()):
        src = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(entry.filter(bool))
        rows.insert(draw(st.integers(0, len(rows))), [k * x for x in src])
    if len(rows) < 6 and draw(st.booleans()):
        zero = Fraction(0) if p is None else 0
        rows.insert(draw(st.integers(0, len(rows))), [zero] * cols)
    return rows, p


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(field_matrices())
@example(([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]], None))
@example(([[Fraction(0), Fraction(3, 2)], [Fraction(0), Fraction(0)],
           [Fraction(-1, 4), Fraction(1)]], None))
@example(([[1, 2, 0], [2, 4, 0], [0, 0, 0]], 3))
def test_rref_matches_oracle_elimination(case):
    rows, p = case
    field = QQ if p is None else FieldSpec.gf(p)
    m = Matrix.from_rows(rows, field)
    reduced, rank, pivots = rref(m)
    want_rows, want_rank, want_pivots = rref_fraction_elimination(rows, p)
    assert [list(r) for r in reduced.entries] == want_rows
    assert (rank, pivots) == (want_rank, want_pivots)
    scalar = Fraction if p is None else int
    assert all(type(x) is scalar for r in reduced.entries for x in r)
    # rational nullspace vectors are coprime integers, first nonzero positive
    basis = nullspace_basis(m)
    assert basis == free_column_basis(want_rows, want_pivots, m.cols, p)
    assert all(type(x) is scalar for v in basis for x in v)
    assert rank_of_rows(rows, field, m.cols) == want_rank


def test_integerize():
    vec = [Fraction(1, 2), Fraction(-1, 3), Fraction(0)]
    assert integerize(vec) == [3, -2, 0]
    assert integerize([Fraction(-2), Fraction(4)]) == [1, -2]
    assert integerize([Fraction(0)] * 3) == [0, 0, 0]

