import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (free_column_basis, is_prime_trial_division,
                     rref_fraction_elimination)
from wellcovered.linalg import (FieldSpec, GF2, GF3, QQ, _is_prime,
                                nullspace_basis, rank_of_rows, span_basis,
                                span_equal)


def test_is_prime_matches_trial_division():
    for n in range(-5, 10**5):
        assert _is_prime(n) == is_prime_trial_division(n), n
    assert FieldSpec(2**61 - 1).p == 2**61 - 1
    # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5 and 7
    assert not _is_prime(3215031751)


def test_field_spec_validation():
    assert FieldSpec(2).p == 2
    assert FieldSpec(97).label() == "GF(97)"
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec(91)  # 7 * 13
    with pytest.raises(ValueError):
        FieldSpec(2**61 + 1)
    assert FieldSpec() == QQ and QQ.is_rationals
    assert (QQ.label(), QQ.to_json()) == ("Q", {"kind": "rationals"})
    assert FieldSpec(5).to_json() == {"kind": "prime_field", "p": 5}


def test_field_parse_tokens():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("gf:7") == FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec.parse("gf:10")
    with pytest.raises(ValueError):
        FieldSpec.parse("real")


def _annihilates(rows, vec, p):
    """True iff every row's inner product with vec is zero, modulo p unless
    p is None."""
    dots = (sum(a * x for a, x in zip(row, vec)) for row in rows)
    return all((d % p if p else d) == 0 for d in dots)


def test_rref_gf2_dependent_rows():
    m = [[1, 1], [1, 1]]
    assert rank_of_rows(m, GF2, 2) == 1
    assert nullspace_basis(m, GF2, 2) == [[1, 1]]


def test_rref_single_constraint():
    m = [[1, 1, -1, -1]]
    assert rank_of_rows(m, QQ, 4) == 1
    basis = nullspace_basis(m, QQ, 4)
    assert len(basis) == 3
    for vec in basis:
        assert _annihilates(m, vec, None)


def test_nullspace_zero_and_full_rank():
    basis = nullspace_basis([[0, 0, 0]], QQ, 3)
    assert [list(map(int, v)) for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace_basis([[1, 0], [0, 1]], GF3, 2) == []
    # no rows: the whole space, one unit vector per column
    assert nullspace_basis([], GF2, 2) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="length 3"):
        nullspace_basis([[1, 0]], QQ, 3)


@pytest.mark.parametrize("field", [QQ, GF2, GF3, FieldSpec(13)])
def test_nullspace_properties_random(field):
    # acceptance criterion: exact Mv = 0 and |basis| = cols - rank
    rng = random.Random(field.p or 0)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        rank = rref_fraction_elimination(m, field.p)[1]
        basis = nullspace_basis(m, field, cols)
        assert len(basis) == cols - rank
        for vec in basis:
            assert _annihilates(m, vec, field.p)
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


@pytest.mark.parametrize("field", [QQ, GF2, GF3, FieldSpec(5)])
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
    for rows in matrices:
        cols = len(rows[0])
        want = nullspace_basis(rows, field, cols)
        for _ in range(3):
            got = span_basis(_mixed_spanning_set(want, field, rng), field,
                             cols)
            assert got == want, rows
            assert all(type(x) is int for v in got for x in v)
    assert span_basis([], field, 3) == []


def _assert_non_ints_rejected(field):
    # an integral Fraction and a float included
    for bad in (Fraction(1, 2), Fraction(4), 2.0):
        for fn in (rank_of_rows, nullspace_basis, span_basis):
            with pytest.raises(ValueError, match="must be ints"):
                fn([[1, 0], [bad, 1]], field, 2)


def test_span_basis_takes_rational_entries():
    # entries are ints only: a rational vector is passed scaled to integers
    # (here [1/2, -1/3, 0] * 6 and [1, 0, -4/5] * 5), and Fractions are refused
    vecs = [[3, -2, 0], [5, 0, -4]]
    assert span_basis(vecs, QQ, 3) == nullspace_basis([[4, 6, 5]], QQ, 3) \
        == [[3, -2, 0], [5, 0, -4]]
    _assert_non_ints_rejected(QQ)


def test_prime_fields_take_integral_fractions_and_reject_the_rest():
    # over GF(p) ints of any size are reduced; every non-int entry, an
    # integral Fraction included, is refused
    assert rank_of_rows([[2, 1]], GF3, 2) == 1
    assert nullspace_basis([[4, -1]], GF3, 2) \
        == nullspace_basis([[1, 2]], GF3, 2) == [[1, 1]]
    got = span_basis([[4, -1]], GF3, 2)
    assert got == [[2, 1]] and all(type(x) is int for x in got[0])
    for field in (GF2, GF3):
        _assert_non_ints_rejected(field)


def test_span_equal():
    e1 = [1, 0]
    e2 = [0, 1]
    assert span_equal([e1], [[2, 0]], QQ, 2)
    assert not span_equal([e1], [e2], QQ, 2)
    assert span_equal([e1, e2], [[1, 1], e1], QQ, 2)
    assert span_equal([], [], QQ, 4)
    assert not span_equal([], [e1], QQ, 2)
    with pytest.raises(ValueError):
        span_equal([e1], [[1]], QQ, 2)
    with pytest.raises(ValueError):
        span_equal([e1], [e2], QQ, 3)


def test_span_equal_with_dependent_vectors():
    # eliminating a dependent vector leaves a row whose content is zero
    a = [[1, 2, 3], [-2, -4, -6], [0, 1, 1], [1, 3, 4]]
    b = [[1, 1, 2], [0, 3, 3]]
    assert rank_of_rows(a, QQ, 3) == 2
    assert span_equal(a, b, QQ, 3)
    assert not span_equal(a, b[:1] + [[0, 0, 1]], QQ, 3)


@st.composite
def field_matrices(draw):
    """(rows, p) with p None for the rationals; some rows are forced to be
    multiples of others or all zero."""
    p = draw(st.sampled_from([None, 2, 3, 13]))
    cols = draw(st.integers(1, 7))
    entry = st.integers(-12, 12) if p is None else st.integers(0, p - 1)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=1, max_size=6))
    if len(rows) < 6 and draw(st.booleans()):
        src = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(entry.filter(bool))
        rows.insert(draw(st.integers(0, len(rows))), [k * x for x in src])
    if len(rows) < 6 and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    return rows, p


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(field_matrices())
@example(([[2, 4], [1, 2]], None))
@example(([[0, 3], [0, 0], [-1, 4]], None))
@example(([[1, 2, 0], [2, 4, 0], [0, 0, 0]], 3))
def test_rref_matches_oracle_elimination(case):
    rows, p = case
    field = QQ if p is None else FieldSpec(p)
    cols = len(rows[0])
    want_rows, want_rank, want_pivots = rref_fraction_elimination(rows, p)
    # rational nullspace vectors are coprime integers, first nonzero positive
    basis = nullspace_basis(rows, field, cols)
    assert basis == free_column_basis(want_rows, want_pivots, cols, p)
    assert all(type(x) is int for v in basis for x in v)
    assert rank_of_rows(rows, field, cols) == want_rank
