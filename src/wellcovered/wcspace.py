"""Well-covered spaces: the MIS constraint system, its exact nullspace, and
weighting verification.

A weighting f (one field scalar per vertex) is well-covered when the sum of
f over every maximal independent set is the same.  Encoding constancy as
pairwise differences against the first MIS gives a homogeneous system whose
nullspace is exactly the well-covered space; its dimension is the
well-covered dimension.

For large MIS lists the constraint matrix is never materialized.  A
kernel-membership filter selects a spanning subset of difference rows
instead.  It keeps vectors spanning the kernel of the rows selected so far,
starting from the identity: coprime integers over the rationals, residues
over GF(p).  A MIS's difference row already lies in the selected row space
exactly when every kernel vector has the same sum on that MIS as on MIS 0,
compared modulo p over GF(p); this holds over every field, since a subspace
is the annihilator of its annihilator.  A MIS that fails the test has its
row selected, and one failing kernel vector is used to eliminate the new row
from the others, then dropped.  The row space only grows, so the final kernel
satisfies every MIS: the selection is exact over every field and needs no
verification pass.  The exact reduced echelon computation then runs once, on
the selected rows.  Reduced echelon form depends only on the row space, so
the basis does not depend on which spanning rows were selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .graph import Graph
from .linalg import (FieldSpec, Matrix, QQ, integerize, nullspace_basis)
from .mis import DEFAULT_MIS_CAP, MisList, enumerate_mis


@dataclass(frozen=True)
class Weighting:
    """A vertex-indexed vector of exact field scalars."""

    graph: Graph
    field: FieldSpec
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) != self.graph.n:
            raise ValueError(
                f"weighting length {len(self.values)} != vertex count {self.graph.n}")

    def to_json(self) -> list:
        return [self.field.scalar_to_json(x) for x in self.values]


@dataclass(frozen=True)
class WeightingCheck:
    """Outcome of checking a weighting for constant MIS sums.  On failure the
    witness pair holds two maximal independent sets with different sums."""

    ok: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    sums: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class WcSpace:
    """Basis and dimension of the well-covered space over one field.

    Every basis entry is integral: a residue in 0..p-1 over GF(p), and over
    the rationals a Fraction with denominator 1, each vector's entries
    coprime with its first nonzero entry positive.  well_covered_space is the
    only constructor and establishes this.
    """

    graph: Graph
    field: FieldSpec
    basis: tuple[Weighting, ...]
    dimension: int
    mis_count: int

    @property
    def constraint_rank(self) -> int:
        return self.graph.n - self.dimension

    def basis_vectors(self) -> list[list]:
        return [list(w.values) for w in self.basis]


def _difference_row(tuples: Sequence[tuple[int, ...]], k: int, n: int) -> list[int]:
    row = [0] * n
    for v in tuples[k]:
        row[v] += 1
    for v in tuples[0]:
        row[v] -= 1
    return row


def constraint_matrix(g: Graph, mis: MisList, field: FieldSpec) -> Matrix:
    """Full pairwise-difference constraint system: row k is the indicator of
    MIS k+1 minus the indicator of MIS 0.  Its nullspace is the well-covered
    space over the given field."""
    if len(mis) == 0:
        raise ValueError("a valid graph always has at least one MIS")
    rows = [_difference_row(mis.sets, k, g.n) for k in range(1, len(mis))]
    return Matrix.from_rows(rows, field, cols=g.n)


def _mis_sum(values: Sequence, members: tuple[int, ...], p: int | None):
    """Sum of the values over one MIS, reduced modulo p unless p is None."""
    s = sum(map(values.__getitem__, members))
    return s % p if p else s


def _first_unequal_sum(tuples: Sequence[tuple[int, ...]], values: Sequence,
                       p: int | None, start: int = 1) -> int:
    """Index of the first MIS from start on whose sum differs from the sum on
    MIS 0 (modulo p unless p is None), or len(tuples) if there is none."""
    get = values.__getitem__
    base = _mis_sum(values, tuples[0], p)
    for k in range(start, len(tuples)):
        s = sum(map(get, tuples[k]))
        if (s % p if p else s) != base:
            return k
    return len(tuples)


def _spanning_rows(tuples: Sequence[tuple[int, ...]], n: int,
                   p: int | None) -> list[list[int]]:
    """Difference rows that span the whole constraint row space, over GF(p),
    or over the rationals when p is None.

    kernel spans the kernel of the rows selected so far, and bad[i] is the
    first MIS from kernel[i]'s scan start on which kernel[i] is not constant.
    Every MIS before the smallest bad index k lies in the selected row space,
    so row k is selected next, the kernel vectors not orthogonal to it are
    exactly those with bad index k, and each of those that is changed resumes
    its scan after k.
    """
    m = len(tuples)
    kernel = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    bad = [_first_unequal_sum(tuples, w, p) for w in kernel]
    rows: list[list[int]] = []
    while (k := min(bad, default=m)) < m:
        row = _difference_row(tuples, k, n)
        j, *others = [i for i, b in enumerate(bad) if b == k]
        w = kernel[j]
        gw = sum(map(mul, w, row))
        for i in others:
            u = kernel[i]
            gu = sum(map(mul, u, row))
            if p:
                c = gu * pow(gw, -1, p) % p
                u = [(a - c * b) % p for a, b in zip(u, w)]
            else:
                u = [gw * a - gu * b for a, b in zip(u, w)]
                content = gcd(*u)
                u = [x // content for x in u]
            kernel[i] = u
            bad[i] = _first_unequal_sum(tuples, u, p, k + 1)
        del kernel[j], bad[j]
        rows.append(row)
    return rows


def well_covered_space(g: Graph, field: FieldSpec, mis: MisList | None = None,
                       cap: int = DEFAULT_MIS_CAP) -> WcSpace:
    """Exact basis of the well-covered space and its dimension.

    Deterministic: basis vectors come from free-column parameterization of
    the reduced echelon form, and rational vectors are rescaled to coprime
    integers with positive leading entry.
    """
    if mis is None:
        mis = enumerate_mis(g, cap)
    elif mis.graph != g:
        raise ValueError("MIS list belongs to a different graph")
    n = g.n
    rows = _spanning_rows(mis.sets, n, None if field.is_rationals else field.p)
    basis_vectors = nullspace_basis(Matrix.from_rows(rows, field, cols=n))
    if field.is_rationals:
        basis_vectors = [[Fraction(x) for x in integerize(vec)]
                         for vec in basis_vectors]
    basis = tuple(
        Weighting(graph=g, field=field, values=tuple(vec))
        for vec in basis_vectors)
    return WcSpace(graph=g, field=field, basis=basis,
                   dimension=len(basis), mis_count=len(mis))


def wcdim(g: Graph, field: FieldSpec = QQ, mis: MisList | None = None,
          cap: int = DEFAULT_MIS_CAP) -> int:
    """Dimension of the well-covered space over the given field."""
    return well_covered_space(g, field, mis=mis, cap=cap).dimension


def verify_weighting(g: Graph, f: Weighting, mis: MisList) -> WeightingCheck:
    """Check that the weighting sums to the same value over every MIS."""
    if f.graph != g:
        raise ValueError("weighting belongs to a different graph")
    if mis.graph != g:
        raise ValueError("MIS list belongs to a different graph")
    p = None if f.field.is_rationals else f.field.p
    sets = mis.sets
    k = _first_unequal_sum(sets, f.values, p)
    if k == len(sets):
        return WeightingCheck(ok=True)
    return WeightingCheck(ok=False, witness=(sets[0], sets[k]),
                          sums=(_mis_sum(f.values, sets[0], p),
                                _mis_sum(f.values, sets[k], p)))


def is_well_covered(g: Graph, cap: int = DEFAULT_MIS_CAP) -> bool:
    """True iff every maximal independent set has the same cardinality."""
    mis = enumerate_mis(g, cap)
    return len({len(s) for s in mis.sets}) == 1


def indicator_weighting(g: Graph, vs, field: FieldSpec = QQ) -> Weighting:
    """Weighting that is one on the given set and zero elsewhere."""
    s = g._check_subset(vs)
    values = tuple(field.one() if v in s else field.zero() for v in g.vertices)
    return Weighting(graph=g, field=field, values=values)


def wcspace_report(space: WcSpace, graph_id: str) -> dict:
    """JSON-ready report for one graph and one field."""
    basis = [[int(x) for x in w.values] for w in space.basis]
    return {
        "graph": graph_id,
        "field": space.field.to_json(),
        "mis_count": space.mis_count,
        "dimension": space.dimension,
        "constraint_rank": space.constraint_rank,
        "basis": basis,
    }
