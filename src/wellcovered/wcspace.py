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
MIS as the base.  A filter keeps vectors spanning the kernel of the rows
selected so far, starting from the identity: integers over the rationals,
residues over GF(p).  A MIS's difference row already lies in the selected
row space exactly when every kernel vector has the same sum on that MIS as
on the base, compared modulo p over GF(p), since a subspace is the
annihilator of its annihilator.  The kernel vectors are packed side by
side into one integer per vertex, in slots wide enough that each vector's
difference on a MIS is one exact digit, so one integer sum per MIS tests
every vector at once.  A MIS that fails has its row selected, and one
failing kernel vector, the pivot, eliminates the new row from the others
and is dropped.  Over GF(2) a slot is one bit, the XOR of the packed bits
over the MIS and the base is the set of failing vectors, and the pivot is
XORed into each.  Over GF(p), p odd, the packed slots are the kernel, the
digits of an unequal sum are decoded by one cast of its lanes and
re-tested modulo p, and the elimination is one lane-wide add-and-reduce
per vertex in the pivot's support.  Over the rationals the slots widen as
the vectors grow; a pivot digit of +-1 costs one multiply-add per vertex in
the pivot's support, and any other is eliminated fraction-free.  The row
space only grows, so the final kernel satisfies every MIS: the selection is
exact over every field and needs no verification pass.

Without a MIS list, the filters get a floor: the simplicial clique number
sc, a lower bound on the dimension over every field.  Every MIS meets each
simplicial clique N[v] in exactly one vertex, since it must dominate v, and
each clique has a simplicial vertex in no other, so the clique indicators
are sc independent well-covered weightings.  The kernel always contains the
well-covered space, so once it is down to sc vectors it is that space, and
the filter is finished.  A sampling phase first feeds every prime-field
filter the same seeded random greedy MISs, each checked by is_mis's test,
mis._maximal_independent, before it is read; the first sample is the base.
It stops when every filter is finished, or after a fixed run of samples
that select no row.  The samples come in rounds, each live filter reading a
round in one call, and a round is never longer than the samples read one at
a time would run before stopping, so the rounds read the same samples.  The
rationals are certified from a prime: the difference rows are integer rows,
so their rank over Q is at least their rank modulo p.  A GF(p) filter at
its floor has rows of rank n - sc, so the dimension over Q is exactly sc,
and the space is the span of the clique indicators; no rational filter is
built.  With no prime field asked for, one fixed internal prime is sampled
for this alone.  Where no prime filter finishes, a rational filter is built
on the first sample; it reads no sample, since on the corpus and on some
900 random graphs the samples that left every prime filter open never
finished it either.  The filters not yet finished then read the search,
streamed a block of MISs at a time, until they are.  Where the dimension
exceeds sc they read it to the end, and its length is the MIS count;
otherwise the count comes from count_mis, which lists no set.
certified_space stops after the sampling phase, and returns the space only
when its one prime filter reached its floor.

The final kernel is the space, and its live vectors are already its basis,
so the selected rows are never eliminated a second time.  That basis is
nullspace_basis's for the constraint rows: one vector per free column of
their reduced echelon form, zero on every other free column, so it depends
on neither the rows selected, the base nor the MIS order.  Proof: each live
vector w_i starts as e_i and stays zero on every other live slot, as an
update w_i <- g_j w_i - g_i w_j keeps that (w_j[i] = 0), so the live
vectors are a free-column basis with the live slots as free set F.  The
echelon form's free set is the set of trailing indices (last nonzero
entries) of the kernel's vectors; by induction it is F, so w_i is the
vector of free column i, with trailing index i.  Let J be the failing slots
of a selected row, with digits g_i nonzero.  The new kernel reaches every
old trailing index but k = min J: i outside J by w_i, and i in J above k
by w_i - (g_i / g_k) w_k, while a vector with trailing index k has
sum a_i g_i = a_k g_k, nonzero.  The pivot is slot k, so F stays the free
set.  Each basis vector is thus a live vector, normalised by vectors: over
GF(p) w_i[i] stays 1, as w_i only gains multiples of w_j, and over the
rationals w_i is divided by its content and signed so its first nonzero
entry is positive.  Only a rational space certified by a prime has no
filter, and span_basis reads its basis off the clique indicators.
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import compress, islice
from math import gcd
from operator import neg, sub, xor
from random import Random
from struct import calcsize
from typing import Iterable, Sequence

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


# Lane decoding: a memoryview cast format for each lane width read
# natively, and the byte map from GF(2) bit characters to entries.
_LANES = {8 * calcsize(code): code for code in "BHIQ"}
_BITS = bytes.maketrans(b"01", b"\0\1")


def _lanes(x: int, width: int, count: int) -> list[int]:
    """The count lowest width-bit lanes of the non-negative int x, lowest
    first: one memoryview cast where the width has a native format, and
    int.from_bytes slices otherwise (a width of 128 bits, say)."""
    step = width // 8
    if width in _LANES:
        return memoryview(x.to_bytes(step * count, sys.byteorder)) \
            .cast(_LANES[width]).tolist()
    raw = x.to_bytes(step * count, "little")
    return [int.from_bytes(raw[i:i + step], "little")
            for i in range(0, step * count, step)]


def _lane_digits(diff: int, width: int, count: int) -> list[int]:
    """The count lowest digits of diff in balanced base 2**width, lowest
    first, where diff has no digit above them.  Each digit lies in
    [-half, half), half = 2**(width-1), so diff plus half in every lane holds
    each digit plus half in its own lane, with no borrow between lanes, and
    one _lanes cast reads them all."""
    half = 1 << (width - 1)
    halves = half * (((1 << (count * width)) - 1) // ((1 << width) - 1))
    return [d - half for d in _lanes(diff + halves, width, count)]


# MISs taken from the stream at a time.  Each row filter reads a block in
# one tight loop; a block this size makes the per-block calls negligible and
# bounds the MISs held at once.
_BLOCK = 1024


class _RowFilter:
    """One field's row selection over MISs read in order: the difference
    row of a MIS against the base MIS first is selected exactly when it is
    not in the span of the rows selected before it, over GF(p), or over the
    rationals when p is None.  The filter is finished when the kernel is
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
    (see the module docstring).  Each kind of field has its own read path,
    and every path picks the same pivot, so the same rows are selected.

    Over GF(2) (_read_xor) the slots are one bit wide and are never summed:
    kernel[i] is an int bitmask whose bit v is w_i[v], packed[v] has bit i
    set when w_i[v] is 1, and base is the XOR of packed over first.  The
    XOR x of packed over a MIS, and of base, has bit i set exactly when
    w_i . row is odd, so its set bits are the failing slots.  The pivot's
    vector w is XORed into every other failing vector, and packed[v] ^= x
    for each v in w's support updates every failing slot and clears the
    pivot's.

    Over GF(p), p odd (_read_lanes), the packed slots are the kernel: slot
    i of packed[v] holds w_i[v] as a residue in 0..p-1, and kernel is the
    set of live slot ids.  n * (p - 1) bounds every digit, so a width with
    2**(width-1) above it keeps digits exact, and _lane_digits decodes all
    n of them in one cast; a digit fails unless p divides it.  With g_i the
    failing digits and j the pivot's slot, each other failing w_i becomes
    w_i + t_i * w_j, t_i = -g_i / g_j mod p, and w_j becomes zero: for
    each vertex v with a = w_j[v] nonzero, packed[v] gains sum of
    (a * t_i mod p) << (i * width), less a << (j * width), built once per
    distinct a.  Every slot is then in 0..2p-2, and one lane-wide step
    takes p off each slot at p or above: adding 2**(width-1) - p to every
    slot sets its top bit exactly then, which needs 2**(width-1) >= p.

    Over the rationals (_read_slots) kernel maps a slot i to w_i as a list
    of ints.  A row has entries in {-1, 0, 1}, so a vector's L1 norm bounds
    its digit, and width at least doubles (every vector is re-packed)
    whenever a vector outgrows it.  A pivot digit g_j of +-1 turns each
    other failing w_i into w_i - g_i g_j w_j and clears w_j, so packed[v]
    loses w_j[v] * sum of g_i g_j << (i * width) over the failing slots.
    Any other pivot eliminates the row fraction-free, dividing each new w_i
    by its content, and packed changes only in the slots that changed.
    """

    __slots__ = ("first", "n", "p", "floor", "kernel", "width", "packed",
                 "base", "selected", "last")

    def __init__(self, first: tuple[int, ...], n: int, p: int | None,
                 floor: int = 0) -> None:
        self.first, self.n, self.p, self.floor = first, n, p, floor
        if p == 2:
            self.kernel = {i: 1 << i for i in range(n)}
            self.width = 1
        elif p:
            self.kernel = set(range(n))
            # the least power of two, at least 8, above bit_length(n(p - 1)),
            # so that vectors() reads every lane in one cast
            self.width = max(8, 1 << (n * (p - 1)).bit_length().bit_length())
        else:
            self.kernel = {i: [0] * i + [1] + [0] * (n - 1 - i)
                           for i in range(n)}
            self.width = 2
        self.packed = [1 << (v * self.width) for v in range(n)]
        # over GF(2) these bits are distinct, so their sum is their XOR
        self.base = sum(map(self.packed.__getitem__, first))
        self.selected: list[tuple[int, ...]] = []
        self.last = -1

    def vectors(self) -> list[list[int]]:
        """The live kernel vectors in ascending slot order, as int lists;
        over the rationals each is divided by its content and signed so its
        first nonzero entry is positive.  Once the kernel is the well-covered
        space these are its free-column basis (see the module docstring)."""
        live = sorted(self.kernel)
        if self.p == 2:
            return [list(format(self.kernel[i], f"0{self.n}b")[::-1].encode()
                         .translate(_BITS)) for i in live]
        if not self.p:
            vectors = []
            for w in map(self.kernel.__getitem__, live):
                content = gcd(*w)
                if next(filter(None, w)) < 0:
                    content = -content
                vectors.append([x // content for x in w])
            return vectors
        count = max(live, default=-1) + 1
        lanes = list(zip(*(_lanes(x, self.width, count)
                           for x in self.packed)))
        return [list(lanes[i]) for i in live]

    def read(self, mis: Iterable[tuple[int, ...]]) -> bool:
        """Read MISs in order, selecting each row not yet spanned.  True once
        the kernel is down to floor vectors: the filter is finished, and no
        further MIS is read.  False when the MISs run out while the kernel
        is still above its floor.

        The floor must be a lower bound on the dimension of the well-covered
        space over this field.  The kernel always contains that space, so a
        kernel of floor vectors is the space itself, and every later row is
        spanned.  With floor 0 the filter finishes when the kernel empties.
        Over GF(p), last is then the index, among the MISs this call read,
        of the last one whose row was selected, or -1 where none was.
        """
        if self.p == 2:
            self._read_xor(mis)
        elif self.p:
            self._read_lanes(mis)
        else:
            self._read_slots(mis)
        return len(self.kernel) == self.floor

    def _read_xor(self, mis: Iterable[tuple[int, ...]]) -> None:
        """read over GF(2): a MIS's packed XOR with the base is the set of
        failing slots, and the pivot's support flips them all."""
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
            w = kernel.pop(low.bit_length() - 1)
            others = x ^ low
            while others:
                low = others & -others
                kernel[low.bit_length() - 1] ^= w
                others ^= low
            while w:
                low = w & -w
                packed[low.bit_length() - 1] ^= x
                w ^= low
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

    def _read_slots(self, mis: Iterable[tuple[int, ...]]) -> None:
        """read over the rationals, on packed digit slots that widen as the
        vectors grow."""
        n, first, kernel, selected = self.n, self.first, self.kernel, \
            self.selected
        floor, packed, width, base = self.floor, self.packed, self.width, \
            self.base
        get = packed.__getitem__
        for members in mis:
            diff = sum(map(get, members)) - base
            if not diff:
                continue
            selected.append(members)
            (j, gj), *others = failing = list(_slot_digits(diff, width))
            w = kernel.pop(j)
            unit = gj * gj == 1
            deltas = {} if unit else {j: list(map(neg, w))}
            for i, gi in others:
                u = kernel[i]
                if unit:  # w_i - g_i g_j w_j, with no gcd
                    kernel[i] = [a - gi * gj * b for a, b in zip(u, w)]
                    continue
                new = [gj * a - gi * b for a, b in zip(u, w)]
                content = gcd(*new)
                if content > 1:
                    new = [x // content for x in new]
                kernel[i] = new
                deltas[i] = list(map(sub, new, u))
            l1 = max((sum(map(abs, kernel[i])) for i, _ in others), default=0)
            if l1 >> (width - 1):
                width = max(2 * width, l1.bit_length() + 1)
                packed[:] = [0] * n
                deltas = kernel  # re-pack every live vector at the new width
            elif unit:
                # slot i loses g_i g_j w_j, and slot j all of w_j: g_j g_j = 1
                step = sum(gi * gj << (i * width) for i, gi in failing)
                for v in compress(range(n), w):
                    packed[v] -= w[v] * step
            for i, delta in deltas.items():
                shift = i * width
                for v in compress(range(n), delta):
                    packed[v] += delta[v] << shift
            base = sum(map(get, first))
            if len(kernel) == floor:
                break
        self.width, self.base = width, base


def _basis(g: Graph, field: FieldSpec, filt: _RowFilter | None
           ) -> tuple[tuple[int, ...], ...]:
    """The free-column basis of the well-covered space over the field: the
    live vectors (vectors) of a filter that read every MIS or reached its
    floor, or, with no filter, for a rational space certified by a prime,
    span_basis of the simplicial clique indicators, which span it (see
    _sampled_filters)."""
    if filt is None:
        return tuple(map(tuple, span_basis(
            [indicator_weighting(g, c) for c in simplicial_report(g).cliques],
            field, g.n)))
    return tuple(map(tuple, filt.vectors()))


# The sampler's seed: a fixed seed keeps the samples, and so the work, the
# same from run to run.  No result depends on it.
_SAMPLE_SEED = 0

# Sampling stops after this many samples in a row that select no row in any
# live filter.  Where the kernels can still reach their floors, a random
# greedy MIS rarely fails to shrink one; where they cannot (the dimension
# exceeds sc), the run bounds the samples wasted before the search.
_STALL = 32

# The prime sampled in place of the rationals when no prime field is asked
# for with them.  Its filter certifies the rational space only when it
# finishes, so the prime is never a source of error.  A large prime makes a
# rank that drops modulo p unlikely, and a small one keeps the packed slots
# narrow: on Sierpinski order 6 this one certifies Q in 4.9 s of CPU where
# 2**31 - 1 takes 8.9 s (CPython 3.11, one x86_64 core, one run each).
_Q_PRIME = 65521


def _sampled_filters(g: Graph, primes: Iterable[int], floor: int):
    """Sampling phase: one row filter per prime, each over GF(p) with the
    given floor, fed seeded random greedy MISs until every filter is
    finished or _STALL samples in a row select no row in any live filter.

    The samples are drawn in rounds, and each live filter reads a whole
    round in one read call.  A round has k samples, the least of the
    largest gap len(kernel) - floor over the live filters and _STALL minus
    the current stall.  Read one at a time, the samples could not stop
    sooner: a filter selects at most one row per sample, and the stall
    grows by at most one per sample.  After a round the stall is the run of
    its samples after the last that selected a row in some filter,
    k - 1 - last, or the stall before it plus k where none did, exactly as
    one sample per read counts it.  So the samples, the selected rows and
    the stopping point are those of one sample per read.

    Every sample is checked by mis._maximal_independent, is_mis's test,
    before it is read; a sample that fails it raises RuntimeError.  The
    first sample is the base of every difference row.  Returns the samples
    and the filters keyed by their prime; a filter is finished when its
    kernel is down to the floor.  The difference rows are integer rows, so
    their rank over Q is at least their rank modulo p: a prime filter at its
    floor sc leaves the rational space at most sc dimensions, and the clique
    indicators give it at least sc.
    """
    adj = adjacency_masks(g)
    rng = Random(_SAMPLE_SEED)

    def draw() -> tuple[int, ...]:
        members = random_greedy_mis(adj, rng)
        if not _maximal_independent(adj, members):
            raise RuntimeError(
                f"sampled set {sorted(members)} is not a maximal independent "
                "set")
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
    return samples, filters


def well_covered_spaces(g: Graph, fields: Sequence[FieldSpec],
                        cap: int = DEFAULT_MIS_CAP) -> tuple[WcSpace, ...]:
    """Exact well-covered space over each field, in the order given, from
    one streamed search.

    Every row filter takes the simplicial clique number sc as its floor.
    The prime filters read the sampling phase first (see _sampled_filters);
    where the rationals are asked for with no prime field, one filter over
    GF(_Q_PRIME) is sampled in their place.  Where no prime filter
    finishes, a rational filter is built on the first sample, and it reads
    the stream alone.  While a filter is above its floor the search is
    streamed in blocks, and each filter still above its floor reads each
    block in turn, so at most one block of MISs is held.  mis_count is the
    stream's length when the filters read it to the end, and count_mis's
    otherwise, so it is exact either way and the cap still raises; where
    sampling finished every filter, the search is never run.  Each space
    equals well_covered_space's for the enumerated MIS list.
    """
    sc = simplicial_report(g).sc
    primes = [f.p for f in fields if f.p]
    rationals = len(primes) < len(fields)
    samples, filters = _sampled_filters(
        g, primes or ([_Q_PRIME] if rationals else []), sc)
    live = [filt for filt in filters.values() if len(filt.kernel) > sc]
    if rationals and len(live) == len(filters):  # no prime filter finished
        if not primes:
            live = []  # GF(_Q_PRIME) was asked for by no field
        filters[None] = _RowFilter(samples[0], g.n, None, sc)
        live.append(filters[None])
    stream = iter_mis(g, cap)
    count = 0
    while live and (block := list(islice(stream, _BLOCK))):
        count += len(block)
        live = [filt for filt in live if not filt.read(block)]
    if not live:
        count = count_mis(g, cap)
    return tuple(WcSpace(g, f, _basis(g, f, filters.get(f.p)), count)
                 for f in fields)


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
    the clique indicators give dimension at least sc.  Over the rationals
    that rank is taken modulo the prime _Q_PRIME, 65521, alone: the rows
    are integer rows, so their rank over Q is at least their rank modulo p,
    and where the prime stalls the result is None.  basis holds
    well_covered_space's basis vectors (see _basis); samples holds the MISs in the order drawn, each as its
    members in the order they joined; cliques holds the simplicial cliques.
    """
    rep = simplicial_report(g)
    p = field.p or _Q_PRIME
    samples, filters = _sampled_filters(g, (p,), rep.sc)
    if len(filters[p].kernel) > rep.sc:
        return None
    basis = _basis(g, field, filters.get(field.p))
    return basis, tuple(samples), rep.cliques


def well_covered_space(mis: MisList, field: FieldSpec) -> WcSpace:
    """Exact basis of the well-covered space of mis.graph and its
    dimension, from its listed MISs alone.

    One row filter with no floor reads the list, its first MIS the base, so
    nothing is assumed of the dimension: this is the path that can show
    dim < sc.  The basis is the filter's live vectors (see _basis).
    """
    g = mis.graph
    filt = _RowFilter(mis.sets[0], g.n, field.p)
    filt.read(islice(mis.sets, 1, None))
    return WcSpace(g, field, _basis(g, field, filt), len(mis))


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
