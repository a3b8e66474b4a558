"""Exact row reduction over the rationals and prime fields.

Every entry is an int: over the rationals the value itself, over GF(p)
any int, reduced to its residue in 0..p-1.  An entry that is not an int
raises ValueError.  A FieldSpec names the field by its prime p, None for
the rationals, and is built by FieldSpec(p) or FieldSpec.parse; rows and
vectors never round and never overflow.  rank_of_rows, nullspace_basis and
span_basis take a list of rows, the field and the row length, and run one
elimination on int rows for both kinds of field (fraction-free over the
rationals).  The basis vectors are ints, over the rationals coprime with
the first nonzero entry positive.
nullspace_basis reads the basis of the space the rows annihilate;
span_basis reads the same basis off any vectors spanning that space.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .graph import _decimal, _Record

_MAX_PRIME = 2**61
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin: these bases are exact below 3.3e24,
    far above _MAX_PRIME."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec(_Record):
    """An exact coefficient field: GF(p) for a prime p, or the rationals
    where p is None.

    It does no arithmetic: rank_of_rows, nullspace_basis and span_basis
    read p to pick the reduction, modulo p over GF(p) and fraction-free
    over the rationals."""

    __slots__ = ("p",)

    p: int | None

    def __init__(self, p: int | None = None) -> None:
        if p is not None:
            if not (2 <= p < _MAX_PRIME):
                raise ValueError(f"prime modulus out of range: {p}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        super().__init__(p)

    @classmethod
    def parse(cls, token: str) -> "FieldSpec":
        """Parse a CLI field token: 'q' or 'gf:<p>', p in ASCII decimal
        digits."""
        t = token.strip().lower()
        if t == "q":
            return cls()
        if t.startswith("gf:"):
            try:
                return cls(_decimal(t[3:]))
            except ValueError as exc:
                raise ValueError(f"bad field token {token!r}: {exc}") from None
        raise ValueError(f"bad field token {token!r} (expected 'q' or 'gf:<p>')")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def label(self) -> str:
        return "Q" if self.is_rationals else f"GF({self.p})"

    def to_json(self) -> dict:
        if self.is_rationals:
            return {"kind": "rationals"}
        return {"kind": "prime_field", "p": self.p}


QQ = FieldSpec()
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
DEFAULT_FIELDS = (QQ, GF2, GF3)


def _int_rows(rows: Sequence[Sequence[int]], p: int | None,
              length: int) -> list[list[int]]:
    """The rows, each of the given length, as new int rows: residues over
    GF(p), copies over the rationals (p None).  An entry that is not an int
    raises ValueError."""
    if any(len(row) != length for row in rows):
        raise ValueError(f"vectors must have length {length}")
    if not all(set(map(type, row)) <= {int} for row in rows):
        raise ValueError("vector entries must be ints")
    return [[x % p for x in row] for row in rows] if p else \
        [list(row) for row in rows]


def _eliminate(work: list[list[int]], ncols: int, p: int | None) -> list[int]:
    """Gauss-Jordan elimination of int rows in place; returns the pivot
    columns.  Afterwards row i holds the i-th pivot, every pivot column is
    zero outside its pivot row, and the rows past the rank are zero.

    Over GF(p) (p not None) the rows are residues, the pivot is the first
    nonzero entry in its column and the pivot row is scaled to a leading one.
    Over the rationals (p None) elimination is fraction-free: the pivot is
    the nonzero entry of least absolute value, every other row becomes
    a * row - b * pivot_row divided by its content, and each row keeps its
    own nonzero pivot entry.  The reduced echelon form depends only on the
    row space, so the pivot choice never changes what the rows span.
    """
    nrows = len(work)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        candidates = [i for i in range(r, nrows) if work[i][c]]
        if not candidates:
            continue
        best = candidates[0] if p else min(candidates,
                                           key=lambda i: abs(work[i][c]))
        work[r], work[best] = work[best], work[r]
        a = work[r][c]
        if p:
            inv = pow(a, -1, p)
            work[r] = [x * inv % p for x in work[r]]
        row_r = work[r]
        for i in range(nrows):
            b = work[i][c]
            if i == r or not b:
                continue
            if p:
                work[i] = [(x - b * y) % p for x, y in zip(work[i], row_r)]
            else:
                row = [a * x - b * y for x, y in zip(work[i], row_r)]
                content = gcd(*row)  # 0 for a row that became all zero
                work[i] = [x // content for x in row] if content > 1 else row
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def nullspace_basis(rows: Sequence[Sequence[int]], field: FieldSpec,
                    length: int) -> list[list[int]]:
    """Deterministic basis of {x : row . x = 0 for every row}, the rows
    each of the given length, via free-column parameterization.

    Free columns are taken in increasing order, one basis vector each, and
    vector k is zero on every free column but the k-th; basis size is
    length - rank.  Over GF(p) the vector has a one in its free column.  Over
    the rationals it is scaled to coprime integers with its first nonzero
    entry positive.  Entries are ints over both kinds of field.  The vectors
    are read from the eliminated int rows; no reduced matrix is built.
    """
    p = field.p
    work = _int_rows(rows, p, length)
    pivot_cols = _eliminate(work, length, p)
    pivots = list(zip(work, pivot_cols))
    pivot_set = set(pivot_cols)
    basis = []
    for free in (c for c in range(length) if c not in pivot_set):
        vec = [0] * length
        if p:
            vec[free] = 1
            for row, pc in pivots:
                vec[pc] = -row[free] % p
        else:
            # the least s > 0 making every -row[free] * s / row[pc] integral
            s = lcm(*(row[pc] // gcd(row[pc], row[free]) for row, pc in pivots))
            vec[free] = s
            for row, pc in pivots:
                vec[pc] = -row[free] * s // row[pc]
            if next(x for x in vec if x) < 0:
                vec = [-x for x in vec]
        basis.append(vec)
    return basis


def span_basis(vectors: Sequence[Sequence[int]], field: FieldSpec,
               length: int) -> list[list[int]]:
    """The free-column basis of the space the vectors span:
    nullspace_basis(rows, field, length) for all rows whose nullspace is
    that space, vector for vector.

    Eliminating with the columns reversed takes the pivots greedily from
    the right, and those are the rows' free columns: the complement of the
    greedy basis from the left of the rows' column matroid is the greedy
    basis from the right of its dual, the column matroid of the nullspace.
    Each reduced row, reversed back, is then zero on every other free
    column, and is scaled as nullspace_basis scales its vectors, with int
    entries.
    """
    p = field.p
    work = _int_rows(vectors, p, length)
    for row in work:
        row.reverse()
    rank = len(_eliminate(work, length, p))
    basis = []
    for row in reversed(work[:rank]):
        row.reverse()
        if not p:
            content = gcd(*row)
            if next(x for x in row if x) < 0:
                content = -content
            if content != 1:
                row = [x // content for x in row]
        basis.append(row)
    return basis


def rank_of_rows(vectors: Sequence[Sequence[int]], field: FieldSpec,
                 length: int) -> int:
    """Rank of the vectors over the field, each of the given length."""
    return len(_eliminate(_int_rows(vectors, field.p, length), length, field.p))


def span_equal(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
               field: FieldSpec, length: int) -> bool:
    """True iff the two vector lists, each vector of the given length, span
    the same subspace."""
    ra = rank_of_rows(a, field, length)
    rb = rank_of_rows(b, field, length)
    return ra == rb == rank_of_rows(list(a) + list(b), field, length)
