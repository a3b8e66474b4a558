"""Well-covered spaces: the exact nullspace of the MIS constraint system.

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
MIS as the base.  Every filter works over a prime field GF(p), and a
rational space is lifted from one (see below).  A filter keeps residue
vectors spanning the kernel of the rows selected so far, starting from the
identity.  A MIS's difference row already lies in the selected row space
exactly when every kernel vector has the same sum modulo p on that MIS as
on the base, since a subspace is the annihilator of its annihilator.  The
kernel vectors are packed side by side into one integer per vertex, in
slots wide enough that each vector's difference on a MIS is one exact
digit, so one integer sum per MIS tests every vector at once.  A MIS that
fails has its row selected, and one failing kernel vector, the pivot,
eliminates the new row from the others and is dropped.  Over GF(2) a slot
is one bit, the XOR of the packed bits over the MIS and the base is the set
of failing vectors, and XORing it into every vertex of the pivot's support
updates them all.  Over GF(p), p odd, the digits of an unequal sum are
decoded by one cast of its lanes and re-tested modulo p, and the
elimination is one lane-wide add-and-reduce per vertex in the pivot's
support.  The row space only grows, so the final kernel satisfies every
MIS: the selection is exact over every field and needs no verification
pass.

Without a MIS list, the filters get a floor: the simplicial clique number
sc, a lower bound on the dimension over every field.  Every MIS meets each
simplicial clique N[v] in exactly one vertex, since it must dominate v, and
each clique has a simplicial vertex in no other, so the clique indicators
are sc independent well-covered weightings.  The kernel always contains the
well-covered space, so once it is down to sc vectors it is that space, and
the filter is finished.  _ladder feeds the filters their MISs.

The final kernel is the space, and its live vectors are already its basis,
so the selected rows are never eliminated a second time.  That basis is
nullspace_basis's for the constraint rows: one vector per free column of
their reduced echelon form, zero on every other free column, so it depends
on neither the rows selected, the base nor the MIS order.  Proof: each live
vector w_i starts as e_i and stays zero on every other live slot, as an
update w_i <- w_i - (g_i / g_j) w_j keeps that (w_j[i] = 0), so the live
vectors are a free-column basis with the live slots as free set F.  The
echelon form's free set is the set of trailing indices (last nonzero
entries) of the kernel's vectors; by induction it is F, so w_i is the
vector of free column i, with trailing index i.  Let J be the failing slots
of a selected row, with digits g_i nonzero.  The new kernel reaches every
old trailing index but k = min J: i outside J by w_i, and i in J above k
by w_i - (g_i / g_k) w_k, while a vector with trailing index k has
sum a_i g_i = a_k g_k, nonzero.  The pivot is slot k, so F stays the free
set.  Each basis vector is thus a live vector, with w_i[i] still 1, as w_i
only gains multiples of w_j.

The rationals are lifted from a filter over GF(p) that read every MIS or
reached its floor (_lift): its live vectors w are the free-column basis
over GF(p), and every difference row r has r . w = 0 mod p.  Each w
becomes an int vector v = c w mod p, c a unit: its balanced residues
(x - p where x > p/2), or, where their L1 norm is p or more, each entry
rebuilt as a fraction a/b with |a|, |b| <= sqrt(p/2) (rational
reconstruction) and the vector scaled to coprime ints.  v is signed so its
first nonzero entry is positive, and the basis is accepted only if every v
has L1 norm below p.  Then it is exact.  r has entries in {-1, 0, 1}, so
|r . v| <= |v|_1 < p, and r . v = 0 mod p forces r . v = 0: v is a
rational well-covered weighting.  v_i is nonzero on slot i, where w_i is 1
and c a unit, and zero on every other live slot and past slot i, where w_i
is zero mod p and |v_i|_1 < p.  So the v's are independent, and since the
integer rows have rank over Q at least their rank mod p, they are a basis
of the rational space with the live slots as its free set: each v_i is
free column i's basis vector, scaled to coprime ints with its first
nonzero entry positive.  Where the check fails, the same MISs are read
again over the next primes above p, the residues of the filters with the
same live slots are combined by the Chinese remainder theorem, and the
lift is retried modulo their product M, by the same argument with M for
p.  All but finitely many primes keep the rational rank and free set, and
the entries' heights are bounded, so the retries end.  Only a rational
space certified by a prime at its floor has no filter, and span_basis
reads its basis off the clique indicators.
"""

from __future__ import annotations

import sys
from functools import partial, reduce
from itertools import islice
from math import gcd, isqrt, lcm
from operator import xor
from random import Random
from struct import calcsize
from typing import Callable, Iterable, Sequence

from .graph import Graph, _Record, adjacency_masks, simplicial_report
from .linalg import FieldSpec, QQ, span_basis
# bench/spans.py traces nullspace_basis under this module's name
from .linalg import nullspace_basis  # noqa: F401
from .mis import (DEFAULT_MIS_CAP, MisList, _maximal_independent, count_mis,
                  iter_mis, random_greedy_mis)
# bench/spans.py traces enumerate_mis under this module's name
from .mis import enumerate_mis  # noqa: F401


class WcSpace(_Record):
    """Basis of the well-covered space over one field.

    Every basis vector is a tuple of ints: residues in 0..p-1 over GF(p),
    and over the rationals coprime entries with the first nonzero entry
    positive, as span_basis returns them.  well_covered_space and
    well_covered_spaces are the only constructors.
    """

    __slots__ = ("graph", "field", "basis", "mis_count")

    graph: Graph
    field: FieldSpec
    basis: tuple[tuple[int, ...], ...]
    mis_count: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def constraint_rank(self) -> int:
        return self.graph.n - self.dimension

    def basis_vectors(self) -> list[list[int]]:
        return [list(w) for w in self.basis]


# Lane decoding: a memoryview cast format for each lane width read natively.
_LANES = {8 * calcsize(code): code for code in "BHIQ"}


def _lanes(xs: Iterable[int], width: int, count: int) -> list[int]:
    """The count lowest width-bit lanes of each non-negative int in xs,
    lowest first, one int after another: one memoryview cast where the
    width has a native format, and int.from_bytes slices otherwise (a width
    of 128 bits, say)."""
    step = width // 8
    if width in _LANES:
        return memoryview(b"".join(x.to_bytes(step * count, sys.byteorder)
                                   for x in xs)).cast(_LANES[width]).tolist()
    raw = b"".join(x.to_bytes(step * count, "little") for x in xs)
    return [int.from_bytes(raw[i:i + step], "little")
            for i in range(0, len(raw), step)]


def _lane_digits(diff: int, width: int, count: int) -> list[int]:
    """The count lowest digits of diff in balanced base 2**width, lowest
    first, where diff has no digit above them.  Each digit lies in
    [-half, half), half = 2**(width-1), so diff plus half in every lane holds
    each digit plus half in its own lane, with no borrow between lanes, and
    one _lanes cast reads them all."""
    half = 1 << (width - 1)
    halves = half * (((1 << (count * width)) - 1) // ((1 << width) - 1))
    return [d - half for d in _lanes((diff + halves,), width, count)]


# MISs taken from the stream at a time.  Each row filter reads a block in
# one tight loop; a block this size makes the per-block calls negligible and
# bounds the MISs held at once.
_BLOCK = 1024


class _RowFilter:
    """One prime field's row selection over MISs read in order: the
    difference row of a MIS against the base MIS first is selected exactly
    when it is not in the span of the rows selected before it, over GF(p).
    The filter is finished when the kernel is
    down to floor vectors (see read).  It never builds a difference row, as
    the packed sums test each MIS's row; selected holds the member tuples
    of the MISs whose rows were selected, in order.

    The live vectors w_i span the kernel of the rows selected so far,
    starting from the identity.  They are packed into one int per vertex,
    packed[v] = sum of w_i[v] << (i * width), so a MIS's packed sum minus
    the base MIS's is the integer whose balanced base 2**width digits are
    the differences w_i . row.  Equal packed sums mean every vector is
    constant on the MIS.  A MIS with a failing digit has its row selected:
    the vector with the lowest failing slot is the pivot, it eliminates the
    new row from the other failing vectors, and it is dropped.  So the live
    vectors always span the kernel of the selected rows exactly, each is
    zero on every other live slot, and vectors() reads the basis off them
    (see the module docstring).  The packed slots are the kernel, and kernel
    is the set of live slot ids.  GF(2) and the odd primes each have a read
    path, and both pick the same pivot, so the same rows are selected.  A
    filter over GF(_Q_PRIME) stands in for the rationals, which _lift reads
    off it.

    Over GF(2) (_read_xor) the slots are one bit wide and are never summed:
    packed[v] has bit i set when w_i[v] is 1, and base is the XOR of packed
    over first.  The XOR x of packed over a MIS, and of base, has bit i set
    exactly when w_i . row is odd, so its set bits are the failing slots.
    The pivot w_j's support is the set of v whose packed[v] has bit j set,
    and packed[v] ^= x on each of them adds w_j to every other failing
    vector and clears w_j.

    Over GF(p), p odd (_read_lanes), slot i of packed[v] holds w_i[v] as a
    residue in 0..p-1.  n * (p - 1) bounds every digit, so a width with
    2**(width-1) above it keeps digits exact, and _lane_digits decodes all
    n of them in one cast; a digit fails unless p divides it.  With g_i the
    failing digits and j the pivot's slot, each other failing w_i becomes
    w_i + t_i * w_j, t_i = -g_i / g_j mod p, and w_j becomes zero: for
    each vertex v with a = w_j[v] nonzero, packed[v] gains sum of
    (a * t_i mod p) << (i * width), less a << (j * width), built once per
    distinct a.  Every slot is then in 0..2p-2, and one lane-wide step
    takes p off each slot at p or above: adding 2**(width-1) - p to every
    slot sets its top bit exactly then, which needs 2**(width-1) >= p.
    """

    __slots__ = ("first", "n", "p", "floor", "kernel", "width", "packed",
                 "base", "selected", "last")

    def __init__(self, first: tuple[int, ...], n: int, p: int,
                 floor: int = 0) -> None:
        self.first, self.n, self.p, self.floor = first, n, p, floor
        self.kernel = set(range(n))
        # one bit over GF(2); over an odd prime the least power of two, at
        # least 8, above bit_length(n(p - 1)), so that vectors() reads every
        # lane in one cast
        self.width = 1 if p == 2 else max(
            8, 1 << (n * (p - 1)).bit_length().bit_length())
        self.packed = [1 << (v * self.width) for v in range(n)]
        # over GF(2) these bits are distinct, so their sum is their XOR
        self.base = sum(map(self.packed.__getitem__, first))
        self.selected: list[tuple[int, ...]] = []
        self.last = -1

    def vectors(self) -> list[list[int]]:
        """The live kernel vectors in ascending slot order, as lists of
        residues.  Once the kernel is the well-covered space these are its
        free-column basis (see the module docstring)."""
        live = sorted(self.kernel)
        if self.p == 2:
            return [[x >> i & 1 for x in self.packed] for i in live]
        count = max(live, default=-1) + 1
        lanes = _lanes(self.packed, self.width, count)
        return [lanes[i::count] for i in live]

    def read(self, mis: Iterable[tuple[int, ...]]) -> bool:
        """Read MISs in order, selecting each row not yet spanned.  True once
        the kernel is down to floor vectors: the filter is finished, and no
        further MIS is read.  False when the MISs run out while the kernel
        is still above its floor.

        The floor must be a lower bound on the dimension of the well-covered
        space over this field.  The kernel always contains that space, so a
        kernel of floor vectors is the space itself, and every later row is
        spanned.  With floor 0 the filter finishes when the kernel empties.
        last is then the index, among the MISs this call read,
        of the last one whose row was selected, or -1 where none was.
        """
        if self.p == 2:
            self._read_xor(mis)
        else:
            self._read_lanes(mis)
        return len(self.kernel) == self.floor

    def _read_xor(self, mis: Iterable[tuple[int, ...]]) -> None:
        """read over GF(2): a MIS's packed XOR with the base is the set of
        failing slots, and XORing it into the pivot's support flips them
        all."""
        first, kernel, selected = self.first, self.kernel, self.selected
        floor, packed, base = self.floor, self.packed, self.base
        get = packed.__getitem__
        last = -1
        for t, members in enumerate(mis):
            x = reduce(xor, map(get, members), base)
            if not x:
                continue
            last = t
            selected.append(members)
            low = x & -x
            kernel.remove(low.bit_length() - 1)
            for v, y in enumerate(packed):
                if y & low:
                    packed[v] = y ^ x
            base = reduce(xor, map(get, first), 0)
            if len(kernel) == floor:
                break
        self.base, self.last = base, last

    def _read_lanes(self, mis: Iterable[tuple[int, ...]]) -> None:
        """read over an odd prime: a digit fails unless p divides it, and a
        selected row costs one add-and-reduce per vertex in the pivot's
        support."""
        p, n, first, kernel, selected = self.p, self.n, self.first, \
            self.kernel, self.selected
        floor, packed, width, base = self.floor, self.packed, self.width, \
            self.base
        get = packed.__getitem__
        mask, top = (1 << width) - 1, width - 1
        ones = ((1 << (n * width)) - 1) // mask
        lift, high = ((1 << top) - p) * ones, ones << top
        last = -1
        for t, members in enumerate(mis):
            diff = sum(map(get, members)) - base
            if not diff:
                continue
            failing = [(i, d) for i, d in
                       enumerate(_lane_digits(diff, width, n)) if d % p]
            if not failing:
                continue
            last = t
            selected.append(members)
            (j, gj), *others = failing
            kernel.remove(j)
            shift, neg_inv = j * width, -pow(gj, -1, p)
            adds: dict[int, int] = {}
            for v, x in enumerate(packed):
                a = x >> shift & mask
                if a:
                    if a not in adds:
                        adds[a] = sum(a * gi * neg_inv % p << (i * width)
                                      for i, gi in others) - (a << shift)
                    y = x + adds[a]
                    packed[v] = y - (((y + lift) & high) >> top) * p
            base = sum(map(get, first))
            if len(kernel) == floor:
                break
        self.base, self.last = base, last


def _fraction(x: int, m: int) -> tuple[int, int] | None:
    """(a, b) with a = b x mod m, |a| and |b| at most sqrt(m/2) and b prime
    to m, by the half-extended Euclidean algorithm; None where there is
    none."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(t1, m) != 1:
        return None
    return r1, t1


def _lifted(residues: list[list[int]], m: int
            ) -> tuple[tuple[int, ...], ...] | None:
    """The rational basis that the residue vectors modulo m fix, or None
    where the check fails (see the module docstring): each vector as its
    balanced residues or, where their L1 norm is m or more, rebuilt entry
    by entry as fractions; the basis is accepted only if every vector has
    L1 norm below m."""
    half = m // 2
    basis = []
    for w in residues:
        v = [x - m if x > half else x for x in w]
        if sum(map(abs, v)) >= m:
            fractions = [_fraction(x, m) for x in w]
            if None in fractions:
                return None
            den = lcm(*(b for _, b in fractions))
            v = [a * (den // b) for a, b in fractions]
            content = gcd(*v)
            v = [x // content for x in v]
            if sum(map(abs, v)) >= m:
                return None
        if next(filter(None, v)) < 0:
            v = [-x for x in v]
        basis.append(tuple(v))
    return tuple(basis)


def _next_prime(p: int) -> int:
    """The least prime above p, by trial division."""
    q = p + 1
    while any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        q += 1
    return q


def _lift(filt: _RowFilter, mis: Callable[[], Iterable[tuple[int, ...]]]
          ) -> tuple[tuple[int, ...], ...]:
    """The rational basis lifted from filt, a GF(p) filter that read every
    MIS or reached its floor (see the module docstring).  Where the check
    fails, a filter over the next prime reads mis(), the MISs filt read
    after its base, afresh; the residues of the filters with the same live
    slots are combined by the Chinese remainder theorem, and the lift is
    retried modulo the product of their primes."""
    w, m = filt.vectors(), filt.p
    groups: dict[tuple[int, ...], tuple[list[list[int]], int]] = {}
    while (basis := _lifted(w, m)) is None:
        groups[tuple(sorted(filt.kernel))] = w, m
        p = _next_prime(filt.p)
        filt = _RowFilter(filt.first, filt.n, p, filt.floor)
        filt.read(mis())
        w, m = filt.vectors(), p
        if (live := tuple(sorted(filt.kernel))) in groups:
            u, mu = groups[live]
            inv = pow(mu, -1, p)
            w = [[a + mu * ((b - a) * inv % p) for a, b in zip(x, y)]
                 for x, y in zip(u, w)]
            m = mu * p
    return basis


def _basis(g: Graph, field: FieldSpec, filt: _RowFilter | None,
           mis: Callable[[], Iterable[tuple[int, ...]]] | None
           ) -> tuple[tuple[int, ...], ...]:
    """The free-column basis of the well-covered space over the field, from
    a filter that read every MIS or reached its floor: over a prime field
    its live vectors (vectors), and over the rationals their lift (_lift,
    which may re-read mis()).  With no filter, for a rational space
    certified by a prime, it is span_basis of the simplicial clique
    indicators, which span it (see _ladder)."""
    if filt is None:
        return tuple(map(tuple, span_basis(
            [indicator_weighting(g, c) for c in simplicial_report(g).cliques],
            field, g.n)))
    if field.is_rationals:
        return _lift(filt, mis)
    return tuple(map(tuple, filt.vectors()))


# The sampler's seed: a fixed seed keeps the samples, and so the work, the
# same from run to run.  No result depends on it.
_SAMPLE_SEED = 0

# Sampling stops after this many samples in a row that select no row in any
# live filter.  Where the kernels can still reach their floors, a random
# greedy MIS rarely fails to shrink one; where they cannot (the dimension
# exceeds sc), the run bounds the samples wasted before the search.
_STALL = 32

# The prime that stands in for the rationals: its filter is sampled where no
# prime field is asked for with them, and reads the MISs whose rational basis
# _lift reads off it.  It is never a source of error: a sampled filter
# certifies the rationals only at its floor, and a lift is accepted only
# where its L1 check proves it.  A large prime makes a rank that drops
# modulo p, or a lift that fails its check, rare; a small one keeps the
# packed slots narrow.
_Q_PRIME = 65521


def _ladder(g: Graph, fields: Sequence[FieldSpec], cap: int | None = None):
    """The row filters of the fields, fed MISs until every filter is
    finished: seeded samples, then, where a cap is given, the streamed
    search.  Returns (samples, filters, count): the samples in the order
    drawn, the filters keyed by their prime (None for the rationals), and
    the MIS count, or None where nothing is streamed.  Every filter takes
    the simplicial clique number sc as its floor.

    A sampling phase first feeds every prime-field filter the same seeded
    random greedy MISs, each checked by is_mis's test,
    mis._maximal_independent, before it is read; a sample that fails it
    raises RuntimeError.  The first sample is the base of every difference
    row.  The phase stops when every filter is finished, or after _STALL
    samples in a row that select no row in any live filter.  The samples
    come in rounds, and each live filter reads a whole round in one read
    call.  A round has k samples, the least of the largest gap
    len(kernel) - sc over the live filters and _STALL minus the current
    stall.  Read one at a time, the samples could not stop sooner: a filter
    selects at most one row per sample, and the stall grows by at most one
    per sample.  After a round the stall is the run of its samples after the
    last that selected a row in some filter, k - 1 - last, or the stall
    before it plus k where none did, exactly as one sample per read counts
    it.  So the samples, the selected rows and the stopping point are those
    of one sample per read.

    The rationals are certified from a prime: the difference rows are integer
    rows, so their rank over Q is at least their rank modulo p.  A GF(p) filter
    at its floor has rows of rank n - sc, so the dimension over Q is exactly
    sc, and the space is the span of the clique indicators; no filter is built
    for the rationals.  With no prime field asked for, one filter over
    GF(_Q_PRIME) is sampled for this alone.  Where no prime filter finishes
    and the search is streamed, the rationals take a filter over
    GF(_Q_PRIME), keyed None as well, and _basis lifts the rational basis
    from it: the sampled one where there is one, which reads on, and
    otherwise a new one on the first sample.  A new one reads no sample,
    since on the corpus and on some 900 random graphs the samples that left
    every prime filter open never finished such a filter either.  The
    filters of the fields asked for that are not yet finished, each once,
    then read the search, streamed a block of MISs at a time, until they
    are, so at most one block is held.  Where the dimension exceeds sc
    they read it to the end, and its length is the MIS count; otherwise the
    count comes from count_mis, which lists no set.  Either way it is exact
    and the cap still raises; where sampling finished every filter, the
    search is never run.
    """
    floor = simplicial_report(g).sc
    asked = {f.p for f in fields}
    primes = [f.p for f in fields if f.p] or [_Q_PRIME] * (None in asked)
    adj, rng = adjacency_masks(g), Random(_SAMPLE_SEED)

    def draw() -> tuple[int, ...]:
        members = random_greedy_mis(adj, rng)
        if not _maximal_independent(adj, members):
            raise RuntimeError(f"sampled set {sorted(members)} is not a "
                               "maximal independent set")
        return members

    samples = [draw()]
    filters = {p: _RowFilter(samples[0], g.n, p, floor) for p in primes}
    live = [filt for filt in filters.values() if len(filt.kernel) > floor]
    stall = 0
    while live and stall < _STALL:
        k = min(max(len(filt.kernel) for filt in live) - floor, _STALL - stall)
        batch = [draw() for _ in range(k)]
        samples += batch
        reading, live = live, [filt for filt in live if not filt.read(batch)]
        last = max(filt.last for filt in reading)
        stall = stall + k if last < 0 else k - 1 - last
    if cap is None:
        return samples, filters, None
    if None in asked and len(live) == len(filters):  # no prime filter finished
        filters[None] = filters.get(_Q_PRIME) or \
            _RowFilter(samples[0], g.n, _Q_PRIME, floor)
    live = list(dict.fromkeys(filt for p, filt in filters.items()
                              if p in asked and len(filt.kernel) > floor))
    stream, count = iter_mis(g, cap), 0
    while live and (block := list(islice(stream, _BLOCK))):
        count += len(block)
        live = [filt for filt in live if not filt.read(block)]
    if not live:
        count = count_mis(g, cap)
    return samples, filters, count


def well_covered_spaces(g: Graph, fields: Sequence[FieldSpec],
                        cap: int = DEFAULT_MIS_CAP) -> tuple[WcSpace, ...]:
    """Exact well-covered space over each field, in the order given, from
    the sampled MISs and one streamed search (see _ladder).  Each space
    equals well_covered_space's for the enumerated MIS list, and mis_count
    is exact, so the cap still raises.
    """
    _, filters, count = _ladder(g, fields, cap)
    stream = partial(iter_mis, g, cap)
    return tuple(WcSpace(g, f, _basis(g, f, filters.get(f.p), stream), count)
                 for f in fields)


def certified_space(g: Graph, field: FieldSpec) -> tuple | None:
    """The well-covered space over the field with its certificate, from the
    sampled MISs of well_covered_spaces alone (_ladder with no stream):
    (basis, samples, cliques), or None when the sampled rows leave the
    kernel above the simplicial clique number sc.  None is not a verdict:
    the dimension exceeds sc, or sampling stalled first.

    The difference rows of the samples (each checked to be maximal and
    independent), taken against the first, have rank n - sc, so the space
    has dimension at most sc; every MIS meets each simplicial clique in
    exactly one vertex, and each clique has a private simplicial vertex, so
    the clique indicators give dimension at least sc.  Over the rationals
    that rank is taken modulo the prime _Q_PRIME, 65521, alone: the rows
    are integer rows, so their rank over Q is at least their rank modulo p,
    and where the prime stalls the result is None.  No lift is needed
    there: the rational space is the span of the clique indicators.  basis
    holds well_covered_space's basis vectors (see _basis); samples holds
    the MISs in the order drawn, each as its members in the order they
    joined; cliques holds the simplicial cliques.
    """
    rep = simplicial_report(g)
    samples, filters, _ = _ladder(g, (field,))
    (filt,) = filters.values()  # over the rationals, GF(_Q_PRIME)'s
    if len(filt.kernel) > rep.sc:
        return None
    return _basis(g, field, filters.get(field.p), None), tuple(samples), \
        rep.cliques


def well_covered_space(mis: MisList, field: FieldSpec) -> WcSpace:
    """Exact basis of the well-covered space of mis.graph and its
    dimension, from its listed MISs alone.

    One row filter with no floor reads the list, its first MIS the base, so
    nothing is assumed of the dimension: this is the path that can show
    dim < sc.  Over the rationals the filter is over GF(_Q_PRIME).  The
    basis is the filter's live vectors, or their lift (see _basis).
    """
    g, rest = mis.graph, partial(islice, mis.sets, 1, None)
    filt = _RowFilter(mis.sets[0], g.n, field.p or _Q_PRIME)
    filt.read(rest())
    return WcSpace(g, field, _basis(g, field, filt, rest), len(mis))


def wcdim(g: Graph, field: FieldSpec = QQ, cap: int = DEFAULT_MIS_CAP) -> int:
    """Dimension of the well-covered space over the given field."""
    return well_covered_spaces(g, (field,), cap=cap)[0].dimension


def is_well_covered(g: Graph, cap: int = DEFAULT_MIS_CAP) -> bool:
    """True iff every maximal independent set has the same cardinality."""
    return len({len(s) for s in iter_mis(g, cap)}) == 1


def indicator_weighting(g: Graph, vs) -> tuple[int, ...]:
    """The int vector that is one on the given set and zero elsewhere."""
    s = g._check_subset(vs)
    return tuple(1 if v in s else 0 for v in g.vertices)


def wcspace_report(space: WcSpace, graph_id: str) -> dict:
    """JSON-ready report for one graph and one field."""
    return {
        "graph": graph_id,
        "field": space.field.to_json(),
        "mis_count": space.mis_count,
        "dimension": space.dimension,
        "constraint_rank": space.constraint_rank,
        "basis": space.basis_vectors(),
    }
