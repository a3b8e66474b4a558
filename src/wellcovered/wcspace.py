"""Well-covered spaces: the MIS constraint system, its exact nullspace, and
weighting verification.

A weighting f (one field scalar per vertex) is well-covered when the sum of
f over every maximal independent set is the same.  Encoding constancy as
pairwise differences against the first MIS gives a homogeneous system whose
nullspace is exactly the well-covered space; its dimension is the
well-covered dimension.

The well-covered space is computed without materializing the constraint
matrix.  One forward pass over the MISs selects a spanning subset of
difference rows instead, taking differences against a base MIS: a row is
selected exactly when it is outside the span of the rows selected before
it.  A given MIS list is read by one row filter per field, with its first
MIS as the base.  A filter keeps vectors spanning the kernel of the rows
selected so far, starting from the identity: coprime integers over the
rationals, residues over GF(p).  A MIS's difference row already lies in the
selected row space exactly when every kernel vector has the same sum on
that MIS as on the base, compared modulo p over GF(p); this holds over
every field, since a subspace is the annihilator of its annihilator.  The
kernel vectors are packed side by side into one integer per vertex, in
slots wide enough that each vector's difference on a MIS is one exact
digit, so a single integer sum per MIS tests every vector at once.  Over
GF(p) the digits of an unequal sum are re-tested modulo p, because a
difference that is a nonzero multiple of p is zero in the field.  A MIS that
fails has its row selected, and one failing kernel vector is used to
eliminate the new row from the others, then dropped.  The row space only
grows, so the final kernel satisfies every MIS: the selection is exact over
every field and needs no verification pass.

Without a MIS list, the filters get a floor: the simplicial clique number
sc, a lower bound on the dimension over every field.  Every MIS meets each
simplicial clique N[v] in exactly one vertex, since it must dominate v, and
each clique has a simplicial vertex in no other, so the clique indicators
are sc independent well-covered weightings.  The kernel always contains the
well-covered space, so once it is down to sc vectors it is that space, and
the filter is finished.  A sampling phase first feeds every filter the same
seeded random greedy MISs, each checked to be independent and dominating
before it is read; the first sample is the base.  It stops when every
filter is finished, or after a fixed run of samples that select no row.
The filters not yet finished then read the search, streamed a block of
MISs at a time so that no MIS list is held, until they are.  Where the
dimension exceeds sc they read it to the end, and its length is the MIS
count.  Otherwise the count comes from count_mis, which lists no set, and
where sampling finished every filter the search is never run.
certified_space stops after the sampling phase, and returns the space only
when every kernel reached its floor.

The basis is then read off each filter's final kernel, which is the
well-covered space: span_basis returns the free-column basis of the reduced
echelon form of the constraint rows, from vectors spanning their nullspace,
so the selected rows are never eliminated a second time.  That basis depends
only on the space, so neither on which spanning rows were selected, nor on
the base, nor on the order of the MISs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from math import gcd
from operator import neg, sub
from random import Random
from typing import Iterable, Sequence

from .graph import Graph, simplicial_report
from .linalg import FieldSpec, Matrix, QQ, span_basis
# bench/spans.py traces nullspace_basis under this module's name
from .linalg import nullspace_basis  # noqa: F401
from .mis import (DEFAULT_MIS_CAP, MisList, adjacency_masks, count_mis,
                  iter_mis, random_greedy_mis)
# bench/spans.py traces enumerate_mis under this module's name
from .mis import enumerate_mis  # noqa: F401


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


# MISs taken from the stream at a time.  Each row filter reads a block in
# one tight loop; a block this size makes the per-block calls negligible and
# bounds the MISs held at once.
_BLOCK = 1024


class _RowFilter:
    """One field's row selection over MISs read in order: the difference
    row of a MIS against the base MIS first is selected exactly when it is
    not in the span of the rows selected before it, over GF(p), or over the
    rationals when p is None.  The filter is finished when the kernel is
    down to floor vectors (see read).

    kernel maps a slot i to a vector w_i; the live vectors span the kernel
    of the rows selected so far, starting from the identity.  They are
    packed into one int per vertex, packed[v] = sum of w_i[v] << (i * width),
    so a MIS's packed sum minus the base MIS's is the integer whose
    balanced base 2**width digits are the differences w_i . row.  A digit
    is exact while 2**(width-1) exceeds its absolute value: over GF(p) every
    entry is a residue, so n * (p - 1) bounds it; over the rationals a row
    has entries in {-1, 0, 1}, so the vector's L1 norm bounds it, and width
    at least doubles (every vector is re-packed) whenever a vector outgrows
    it.  Equal packed sums mean every vector is constant on the MIS.  Over
    GF(p) unequal sums can still agree modulo p, so only digits not
    divisible by p fail.  A MIS with a failing digit has its row selected:
    the vector with the lowest failing slot is the pivot, it eliminates the
    new row from the other failing vectors (their digits are their inner
    products with the row), and it is dropped; packed changes only in the
    slots that changed.  The pivot eliminates the row from every other
    failing vector before the filter stops at its floor, so the live
    vectors always span the kernel of the selected rows exactly, and the
    basis is read off them (see _basis).
    """

    __slots__ = ("first", "n", "p", "floor", "kernel", "width", "packed",
                 "base", "rows")

    def __init__(self, first: tuple[int, ...], n: int, p: int | None,
                 floor: int = 0) -> None:
        self.first, self.n, self.p, self.floor = first, n, p, floor
        self.kernel = {i: [0] * i + [1] + [0] * (n - 1 - i) for i in range(n)}
        self.width = (n * (p - 1)).bit_length() + 1 if p else 2
        self.packed = [1 << (v * self.width) for v in range(n)]
        self.base = sum(map(self.packed.__getitem__, first))
        self.rows: list[list[int]] = []

    def read(self, mis: Iterable[tuple[int, ...]]) -> bool:
        """Read MISs in order, selecting each row not yet spanned.  True once
        the kernel is down to floor vectors: the filter is finished, and no
        further MIS is read.  False when the MISs run out while the kernel
        is still above its floor.

        The floor must be a lower bound on the dimension of the well-covered
        space over this field.  The kernel always contains that space, so a
        kernel of floor vectors is the space itself, and every later row is
        spanned.  With floor 0 the filter finishes when the kernel empties.
        """
        p, n, first, kernel, rows = self.p, self.n, self.first, self.kernel, \
            self.rows
        floor = self.floor
        packed, width, base = self.packed, self.width, self.base
        get = packed.__getitem__
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
            deltas = {j: list(map(neg, w))}
            for i, gu in others:
                u = kernel[i]
                if p:
                    c = gu * pow(gw, -1, p) % p
                    new = [(a - c * b) % p for a, b in zip(u, w)]
                else:
                    new = [gw * a - gu * b for a, b in zip(u, w)]
                    content = gcd(*new)
                    if content > 1:
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
            if len(kernel) == floor:
                break
        self.width, self.base = width, base
        return len(kernel) == floor


def _list_filter(mis: Iterable[tuple[int, ...]], n: int,
                 p: int | None) -> _RowFilter:
    """One _RowFilter, over GF(p) or over the rationals when p is None,
    that has read the MISs: its rows span the whole constraint row space,
    and its kernel is the well-covered space.

    One forward pass: the MISs are read once, in order, the first being the
    base of every difference row, and none is read after the kernel empties.
    """
    mis = iter(mis)
    filt = _RowFilter(next(mis), n, p)
    filt.read(mis)
    return filt


def _basis(g: Graph, field: FieldSpec,
           filt: _RowFilter) -> tuple[Weighting, ...]:
    """The reduced echelon basis of the space the filter's live kernel
    vectors span, read off those vectors by span_basis."""
    return tuple(
        Weighting(graph=g, field=field, values=tuple(vec))
        for vec in span_basis(list(filt.kernel.values()), field, g.n))


def _space(g: Graph, field: FieldSpec, filt: _RowFilter,
           mis_count: int) -> WcSpace:
    basis = _basis(g, field, filt)
    return WcSpace(graph=g, field=field, basis=basis,
                   dimension=len(basis), mis_count=mis_count)


def _modulus(field: FieldSpec) -> int | None:
    return None if field.is_rationals else field.p


# The sampler's seed: a fixed seed keeps the samples, and so the work, the
# same from run to run.  No result depends on it.
_SAMPLE_SEED = 0

# Sampling stops after this many samples in a row that select no row in any
# live filter.  Where the kernels can still reach their floors, a random
# greedy MIS rarely fails to shrink one; where they cannot (the dimension
# exceeds sc), the run bounds the samples wasted before the search.
_STALL = 32


def _sampled_filters(g: Graph, fields: Sequence[FieldSpec], floor: int):
    """Sampling phase: one row filter per field, each with the given floor,
    fed seeded random greedy MISs until every filter is finished or _STALL
    samples in a row select no row in any live filter.

    Every sample is checked to be independent and dominating before it is
    read; a sampler that breaks this raises RuntimeError.  The first sample
    is the base of every difference row.  Returns the samples, the filters,
    and the filters not yet finished.
    """
    adj = adjacency_masks(g)
    full = (1 << g.n) - 1
    rng = Random(_SAMPLE_SEED)

    def draw() -> tuple[int, ...]:
        members = random_greedy_mis(adj, rng)
        chosen = dominated = 0
        for v in members:
            chosen |= 1 << v
            dominated |= adj[v]
        if (chosen.bit_count() != len(members) or chosen & dominated
                or chosen | dominated != full):
            raise RuntimeError(
                f"sampled set {sorted(members)} is not a maximal independent "
                "set")
        return members

    samples = [draw()]
    filters = [_RowFilter(samples[0], g.n, _modulus(f), floor)
               for f in fields]
    live = filters
    selected = stall = 0
    while live and stall < _STALL:
        members = draw()
        samples.append(members)
        live = [filt for filt in live if not filt.read((members,))]
        total = sum(len(filt.rows) for filt in filters)
        stall = 0 if total > selected else stall + 1
        selected = total
    return samples, filters, live


def well_covered_spaces(g: Graph, fields: Sequence[FieldSpec],
                        cap: int = DEFAULT_MIS_CAP) -> tuple[WcSpace, ...]:
    """Exact well-covered space over each field, in the order given, from
    one streamed search.

    One row filter per field takes the simplicial clique number sc as its
    floor, and the sampling phase feeds all of them the same seeded random
    greedy MISs first; the first sample is the base of every difference
    row.  While a filter is above its floor the search is streamed: its
    MISs are taken in blocks, and each filter still above its floor reads
    each block in turn, so at most one block of MISs is held.  A filter
    reads no MIS once it is finished.  mis_count is the stream's length
    when the filters read it to the end, and count_mis's otherwise, so it
    is exact either way and the cap still raises; where sampling finished
    every filter, the search is never run.  The basis depends only on the
    row space, so not on the samples or the MIS order: each space equals
    well_covered_space's for the enumerated MIS list.
    """
    _, filters, live = _sampled_filters(g, fields, simplicial_report(g).sc)
    stream = iter_mis(g, cap)
    count = 0
    while live and (block := list(islice(stream, _BLOCK))):
        count += len(block)
        live = [filt for filt in live if not filt.read(block)]
    if not live:
        count = count_mis(g, cap)
    return tuple(_space(g, f, filt, count)
                 for f, filt in zip(fields, filters))


def certified_space(g: Graph, field: FieldSpec) -> tuple | None:
    """The well-covered space over the field with its certificate, from the
    sampling phase of well_covered_spaces alone: (basis, samples, cliques),
    or None when the sampled rows leave the kernel above the simplicial
    clique number sc.  None is not a verdict: the dimension exceeds sc, or
    sampling stalled first.

    The difference rows of the samples (each checked to be maximal and
    independent), taken against the first, have rank n - sc, so the space
    has dimension at most sc; every MIS meets each simplicial clique in
    exactly one vertex, and each clique has a private simplicial vertex, so
    the clique indicators give dimension at least sc.  basis holds the
    Weightings of well_covered_space's reduced echelon basis, read off the
    filter's final kernel of sc vectors; samples holds
    the MISs in the order drawn, each as its members in the order they
    joined; cliques holds the simplicial cliques.
    """
    rep = simplicial_report(g)
    samples, (filt,), live = _sampled_filters(g, (field,), rep.sc)
    if live:
        return None
    return _basis(g, field, filt), tuple(samples), rep.cliques


def well_covered_space(g: Graph, field: FieldSpec, mis: MisList | None = None,
                       cap: int = DEFAULT_MIS_CAP) -> WcSpace:
    """Exact basis of the well-covered space and its dimension.

    Deterministic: basis vectors come from free-column parameterization of
    the reduced echelon form; rational vectors are coprime integers with
    positive leading entry (see nullspace_basis).  A given MIS list is read
    by one row filter; without one, the search is streamed as in
    well_covered_spaces.
    """
    if mis is None:
        return well_covered_spaces(g, (field,), cap=cap)[0]
    if mis.graph != g:
        raise ValueError("MIS list belongs to a different graph")
    filt = _list_filter(mis.sets, g.n, _modulus(field))
    return _space(g, field, filt, len(mis))


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
    p = _modulus(f.field)
    sets = mis.sets
    k = _first_unequal_sum(sets, f.values, p)
    if k == len(sets):
        return WeightingCheck(ok=True)
    return WeightingCheck(ok=False, witness=(sets[0], sets[k]),
                          sums=(_mis_sum(f.values, sets[0], p),
                                _mis_sum(f.values, sets[k], p)))


def is_well_covered(g: Graph, cap: int = DEFAULT_MIS_CAP) -> bool:
    """True iff every maximal independent set has the same cardinality."""
    return len({len(s) for s in iter_mis(g, cap)}) == 1


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
