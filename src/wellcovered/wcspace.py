"""Well-covered spaces: the MIS constraint system, its exact nullspace, and
weighting verification.

A weighting f (one field scalar per vertex) is well-covered when the sum of
f over every maximal independent set is the same.  Encoding constancy as
pairwise differences against the first MIS gives a homogeneous system whose
nullspace is exactly the well-covered space; its dimension is the
well-covered dimension.

For large MIS lists the constraint matrix is never materialized.  One
forward pass over the MISs selects a spanning subset of difference rows
instead: row k is selected exactly when it is outside the span of the rows
selected before it.  The pass keeps vectors spanning the kernel of the rows
selected so far, starting from the identity: coprime integers over the
rationals, residues over GF(p).  A MIS's difference row already lies in the
selected row space exactly when every kernel vector has the same sum on
that MIS as on MIS 0, compared modulo p over GF(p); this holds over every
field, since a subspace is the annihilator of its annihilator.  The kernel
vectors are packed side by side into one integer per vertex, in slots wide
enough that each vector's difference on a MIS is one exact digit, so a
single integer sum per MIS tests every vector at once.  Over GF(p) the
digits of an unequal sum are re-tested modulo p, because a difference that
is a nonzero multiple of p is zero in the field.  A MIS that fails has its
row selected, and one failing kernel vector is used to eliminate the new
row from the others, then dropped.  The row space only grows, so the final
kernel satisfies every MIS: the selection is exact over every field and
needs no verification pass.  The exact reduced echelon computation then
runs once, on the selected rows.  Reduced echelon form depends only on the
row space, so the basis does not depend on which spanning rows were
selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from operator import neg, sub
from typing import Iterable, Sequence

from .graph import Graph
from .linalg import FieldSpec, Matrix, QQ, nullspace_basis
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
    the rationals a rational scalar with denominator 1, each vector's entries
    coprime with its first nonzero entry positive, as nullspace_basis returns
    them.  well_covered_space is the only constructor.
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


def _difference_row(members: tuple[int, ...], first: tuple[int, ...],
                    n: int) -> list[int]:
    row = [0] * n
    for v in members:
        row[v] += 1
    for v in first:
        row[v] -= 1
    return row


def constraint_matrix(g: Graph, mis: MisList, field: FieldSpec) -> Matrix:
    """Full pairwise-difference constraint system: row k is the indicator of
    MIS k+1 minus the indicator of MIS 0.  Its nullspace is the well-covered
    space over the given field."""
    if len(mis) == 0:
        raise ValueError("a valid graph always has at least one MIS")
    rows = [_difference_row(m, mis.sets[0], g.n) for m in mis.sets[1:]]
    return Matrix.from_rows(rows, field, cols=g.n)


def _mis_sum(values: Sequence, members: tuple[int, ...], p: int | None):
    """Sum of the values over one MIS, reduced modulo p unless p is None."""
    s = sum(map(values.__getitem__, members))
    return s % p if p else s


def _first_unequal_sum(tuples: Sequence[tuple[int, ...]], values: Sequence,
                       p: int | None) -> int:
    """Index of the first MIS whose sum differs from the sum on MIS 0
    (modulo p unless p is None), or len(tuples) if there is none."""
    get = values.__getitem__
    base = _mis_sum(values, tuples[0], p)
    for k in range(1, len(tuples)):
        s = sum(map(get, tuples[k]))
        if (s % p if p else s) != base:
            return k
    return len(tuples)


def _slot_digits(diff: int, width: int):
    """(slot, digit) for every nonzero digit of diff in balanced base
    2**width, whose digits lie in [-2**(width-1), 2**(width-1)); lowest slot
    first."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    while diff:
        shift = ((diff & -diff).bit_length() - 1) // width * width
        d = (((diff >> shift) + half) & mask) - half
        diff -= d << shift
        yield shift // width, d


def _spanning_rows(mis: Iterable[tuple[int, ...]], n: int,
                   p: int | None) -> list[list[int]]:
    """Difference rows that span the whole constraint row space, over GF(p),
    or over the rationals when p is None: row k is selected exactly when it
    is not in the span of the rows selected before it.

    One forward pass: the MISs are read once, in order, the first being
    MIS 0, and none is read after the kernel empties.  kernel maps a slot i
    to a vector w_i; the live vectors span the kernel of the rows selected
    so far, starting from the identity.  They are packed into one int per
    vertex, packed[v] = sum of w_i[v] << (i * width), so a MIS's packed sum
    minus MIS 0's is the integer whose balanced base 2**width digits are
    the differences w_i . row_k.  A digit is exact while 2**(width-1)
    exceeds its absolute value: over GF(p) every entry is a residue, so
    n * (p - 1) bounds it; over the rationals row_k has entries in
    {-1, 0, 1}, so the vector's L1 norm bounds it, and width at least
    doubles (every vector is re-packed) whenever a vector outgrows it.
    Equal packed sums mean every vector is constant on the MIS.  Over GF(p)
    unequal sums can still agree modulo p, so only digits not divisible by
    p fail.  A MIS with a failing digit has its row selected: the vector
    with the lowest failing slot is the pivot, it eliminates the new row
    from the other failing vectors (their digits are their inner products
    with the row), and it is dropped; packed changes only in the slots that
    changed.
    """
    kernel = {i: [0] * i + [1] + [0] * (n - 1 - i) for i in range(n)}
    width = (n * (p - 1)).bit_length() + 1 if p else 2
    packed = [1 << (v * width) for v in range(n)]
    get = packed.__getitem__
    mis = iter(mis)
    first = next(mis)
    base = sum(map(get, first))
    rows: list[list[int]] = []
    for members in mis:
        diff = sum(map(get, members)) - base
        if not diff:
            continue
        failing = [(i, d) for i, d in _slot_digits(diff, width)
                   if not p or d % p]
        if not failing:
            continue
        rows.append(_difference_row(members, first, n))
        (j, gw), *others = failing
        w = kernel.pop(j)
        if not kernel:
            break
        deltas = {j: list(map(neg, w))}
        for i, gu in others:
            u = kernel[i]
            if p:
                c = gu * pow(gw, -1, p) % p
                new = [(a - c * b) % p for a, b in zip(u, w)]
            else:
                new = [gw * a - gu * b for a, b in zip(u, w)]
                content = gcd(*new)
                new = [x // content for x in new]
            kernel[i] = new
            deltas[i] = list(map(sub, new, u))
        l1 = 0 if p else max((sum(map(abs, kernel[i])) for i, _ in others),
                             default=0)
        if l1 >> (width - 1):
            width = max(2 * width, l1.bit_length() + 1)
            packed[:] = [0] * n
            deltas = kernel  # re-pack every live vector at the new width
        for i, delta in deltas.items():
            shift = i * width
            for v in compress(range(n), delta):
                packed[v] += delta[v] << shift
        base = sum(map(get, first))
    return rows


def well_covered_space(g: Graph, field: FieldSpec, mis: MisList | None = None,
                       cap: int = DEFAULT_MIS_CAP) -> WcSpace:
    """Exact basis of the well-covered space and its dimension.

    Deterministic: basis vectors come from free-column parameterization of
    the reduced echelon form; rational vectors are coprime integers with
    positive leading entry (see nullspace_basis).
    """
    if mis is None:
        mis = enumerate_mis(g, cap)
    elif mis.graph != g:
        raise ValueError("MIS list belongs to a different graph")
    n = g.n
    rows = _spanning_rows(mis.sets, n, None if field.is_rationals else field.p)
    basis = tuple(
        Weighting(graph=g, field=field, values=tuple(vec))
        for vec in nullspace_basis(Matrix.from_rows(rows, field, cols=n)))
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
