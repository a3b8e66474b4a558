"""Exact field arithmetic and row reduction: rationals and prime fields.

Scalars are plain values: over the rationals an int or a fractions.Fraction
(ints are exact rationals and are kept as they are), over GF(p) an int in
0..p-1.  A FieldSpec carries the arithmetic; matrices and vectors never
round and never overflow.  Row reduction does not go through the
FieldSpec: rref, rank_of_rows, nullspace_basis and span_basis all run one
elimination on int rows for both kinds of field (fraction-free over the
rationals), and each builds Fractions only where its result promises them:
rref's reduced matrix, and the basis vectors, which over the rationals are
coprime integers with the first nonzero entry positive.  nullspace_basis
reads the basis of a matrix's nullspace off the matrix; span_basis reads
the same basis off any vectors spanning that nullspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Scalar = object  # int or Fraction over the rationals, int residue over GF(p)

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


@dataclass(frozen=True)
class FieldSpec:
    """An exact coefficient field: the rationals, or GF(p) for a prime p."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "rationals":
            if self.p is not None:
                raise ValueError("rationals take no modulus")
        elif self.kind == "prime_field":
            if self.p is None or not (2 <= self.p < _MAX_PRIME):
                raise ValueError(f"prime modulus out of range: {self.p}")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # constructors ----------------------------------------------------------

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rationals")

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls("prime_field", p)

    @classmethod
    def parse(cls, token: str) -> "FieldSpec":
        """Parse a CLI field token: 'q' or 'gf:<p>'."""
        t = token.strip().lower()
        if t == "q":
            return cls.rationals()
        if t.startswith("gf:"):
            try:
                return cls.gf(int(t[3:]))
            except ValueError as exc:
                raise ValueError(f"bad field token {token!r}: {exc}") from None
        raise ValueError(f"bad field token {token!r} (expected 'q' or 'gf:<p>')")

    @property
    def is_rationals(self) -> bool:
        return self.kind == "rationals"

    def label(self) -> str:
        return "Q" if self.is_rationals else f"GF({self.p})"

    def to_json(self) -> dict:
        if self.is_rationals:
            return {"kind": "rationals"}
        return {"kind": "prime_field", "p": self.p}

    # scalar arithmetic -------------------------------------------------------

    def zero(self) -> Scalar:
        return Fraction(0) if self.is_rationals else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.is_rationals else 1

    def from_int(self, k: int) -> Scalar:
        return Fraction(k) if self.is_rationals else k % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.is_rationals else (a + b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.is_rationals else (a * b) % self.p

    def is_zero(self, a: Scalar) -> bool:
        return a == 0


QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF3 = FieldSpec.gf(3)
DEFAULT_FIELDS = (QQ, GF2, GF3)


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix over a FieldSpec.  rows == 0 is allowed.

    Over the rationals the entries are ints or Fractions; from_rows keeps
    ints as they are, since they are exact rationals.  Over GF(p) from_rows
    stores int entries as residues in 0..p-1.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]
    field: FieldSpec

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], field: FieldSpec,
                  cols: int | None = None) -> "Matrix":
        if not rows and cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        width = cols if cols is not None else len(rows[0])
        if field.is_rationals:
            ent = tuple(map(tuple, rows))
        else:
            ent = tuple(tuple(field.from_int(x) if isinstance(x, int) else x
                              for x in r) for r in rows)
        return cls(len(ent), width, ent, field)

    def mat_vec(self, vec: Sequence[Scalar]) -> list[Scalar]:
        f = self.field
        out = []
        for row in self.entries:
            acc = f.zero()
            for a, x in zip(row, vec):
                acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return out


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """A rational row scaled by the lcm of its denominators to integers; a
    row of ints is copied as it is."""
    if set(map(type, row)) <= {int}:
        return list(row)
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _int_rows(m: Matrix) -> list[list[int]]:
    """The matrix's rows as int rows: residues over GF(p), each row scaled to
    integers over the rationals."""
    p = m.field.p
    if p:
        return [[x % p for x in row] for row in m.entries]
    return [_integer_row(row) for row in m.entries]


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


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form with exact arithmetic.

    Returns (reduced matrix, rank, pivot column indices).  Pivots are leading
    ones with zeros above and below.  Elimination runs on int rows for both
    kinds of field (see _eliminate); over the rationals Fractions are built
    only for the result, each row divided by its pivot entry.
    """
    p = m.field.p
    work = _int_rows(m)
    pivot_cols = _eliminate(work, m.cols, p)
    if not p:
        work = ([[Fraction(x, row[c]) for x in row]
                 for row, c in zip(work, pivot_cols)]
                + [[Fraction(0)] * m.cols for _ in work[len(pivot_cols):]])
    reduced = Matrix(m.rows, m.cols, tuple(map(tuple, work)), m.field)
    return reduced, len(pivot_cols), pivot_cols


def nullspace_basis(m: Matrix) -> list[list[Scalar]]:
    """Deterministic basis of {x : Mx = 0} via free-column parameterization.

    Free columns are taken in increasing order, one basis vector each, and
    vector k is zero on every free column but the k-th; basis size is
    cols - rank.  Over GF(p) the vector has a one in its free column.  Over
    the rationals it is scaled to coprime integers with its first nonzero
    entry positive, returned as Fractions with denominator 1.  The vectors
    are read from the eliminated int rows; no reduced matrix is built.
    """
    p = m.field.p
    work = _int_rows(m)
    pivot_cols = _eliminate(work, m.cols, p)
    pivots = list(zip(work, pivot_cols))
    pivot_set = set(pivot_cols)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivot_set):
        vec = [0] * m.cols
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
            sign = -1 if next(x for x in vec if x) < 0 else 1
            vec = [Fraction(sign * x) for x in vec]
        basis.append(vec)
    return basis


def span_basis(vectors: Sequence[Sequence[Scalar]], field: FieldSpec,
               length: int) -> list[list[Scalar]]:
    """The free-column basis of the space the vectors span: nullspace_basis(m)
    for every matrix m whose nullspace is that space, vector for vector.

    Eliminating with the columns reversed takes the pivots greedily from
    the right, and those are m's free columns: the complement of the greedy
    basis from the left of m's column matroid is the greedy basis from the
    right of its dual, the column matroid of the nullspace.  Each reduced
    row, reversed back, is then zero on every other free column, and is
    scaled as nullspace_basis scales its vectors.
    """
    if any(len(v) != length for v in vectors):
        raise ValueError(f"vectors must have length {length}")
    p = field.p
    if p:
        work = [[x % p for x in reversed(v)] for v in vectors]
    else:
        work = [_integer_row(v)[::-1] for v in vectors]
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
            row = list(map(Fraction, row))
        basis.append(row)
    return basis


def rank_of_rows(vectors: Sequence[Sequence[Scalar]], field: FieldSpec,
                 length: int) -> int:
    if not vectors:
        return 0
    m = Matrix.from_rows(vectors, field, cols=length)
    return len(_eliminate(_int_rows(m), length, field.p))


def span_equal(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]],
               field: FieldSpec, length: int | None = None) -> bool:
    """True iff the two vector lists span the same subspace."""
    lengths = {len(v) for v in a} | {len(v) for v in b}
    if length is not None:
        lengths.add(length)
    if len(lengths) > 1:
        raise ValueError(f"mixed vector lengths: {sorted(lengths)}")
    if not lengths:
        return True
    dim = lengths.pop()
    ra = rank_of_rows(a, field, dim)
    rb = rank_of_rows(b, field, dim)
    rab = rank_of_rows(list(a) + list(b), field, dim)
    return ra == rb == rab


def integerize(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to coprime integers, first nonzero positive.

    The zero vector maps to all zeros.  Scaling never changes membership in
    a linear space.
    """
    ints = _integer_row(vec)
    content = gcd(*ints)
    if content > 1:
        ints = [x // content for x in ints]
    if next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return ints
