"""Maximal independent set machinery: exact enumeration, greedy extension,
random greedy sampling, and the closed-form counting formula for
simplicial-clique-covered graphs.

Enumeration runs Bron-Kerbosch with pivoting over the complement graph,
using Python ints as vertex bitsets and an explicit stack instead of
recursion.  A MIS of G is exactly a maximal clique of the complement.  The
search is a generator (iter_mis) that yields each MIS once, as its member
tuple, in search order; counting (count_mis) and single-pass consumers read
that stream and hold no list.  enumerate_mis sorts it into a MisList, each
MIS stored once as its ascending tuple of members, in canonical order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from random import Random
from typing import Iterable, Iterator, Mapping, Sequence

from .graph import Graph, SimplicialReport, simplicial_report, is_sccg

DEFAULT_MIS_CAP = 10**6


class MisCapExceededError(RuntimeError):
    """Enumeration found more maximal independent sets than the cap allows."""

    def __init__(self, cap: int) -> None:
        super().__init__(f"more than {cap} maximal independent sets")
        self.cap = cap


class NotIndependentError(ValueError):
    """A set required to be independent contains an edge."""


class NotSccgError(ValueError):
    """The operation needs the simplicial cliques to cover the graph."""


def adjacency_masks(g: Graph) -> list[int]:
    """Per-vertex neighbor bitmasks (bit v set iff v adjacent)."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def is_independent(g: Graph, vs: Iterable[int]) -> bool:
    s = g._check_subset(vs)
    return all(v not in g.adjacency[u] for u in s for v in s if v > u)


def is_mis(g: Graph, vs: Iterable[int]) -> bool:
    """True iff the set is independent and no outside vertex can be added."""
    s = g._check_subset(vs)
    if not is_independent(g, s):
        return False
    return all(bool(g.adjacency[v] & s) for v in g.vertices if v not in s)


@dataclass(frozen=True)
class MisList:
    """All maximal independent sets of a graph, each stored once as its
    ascending member tuple, in canonical (lexicographic) order.  Iterating
    yields each set as a frozenset, built on the fly.

    enumerate_mis builds it for callers that publish or re-read the sets in
    canonical order; a single pass in any order needs no list (iter_mis)."""

    graph: Graph
    sets: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return map(frozenset, self.sets)

    def as_sorted_tuples(self) -> list[tuple[int, ...]]:
        return list(self.sets)

    def to_json(self) -> list[list[int]]:
        return [list(t) for t in self.sets]


def iter_mis(g: Graph, cap: int = DEFAULT_MIS_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every maximal independent set exactly once, in search order,
    each as the tuple of its members in the order the search added them.

    Raises MisCapExceededError in place of yielding set cap + 1; output is
    never silently truncated.
    """
    n = g.n
    full = (1 << n) - 1
    adj = adjacency_masks(g)
    # complement adjacency: everything except self and true neighbors
    cadj = [(full ^ adj[v]) & ~(1 << v) for v in range(n)]
    found = 0
    # a child is tested when it is pushed: a leaf (P and X empty) is yielded
    # and a dead end (P empty, X not) dropped, so only nodes with P nonempty
    # reach the stack
    stack = [((), full, 0)]
    while stack:
        r, p, x = stack.pop()
        # the pivot is the first vertex of P | X with the most complement
        # neighbors in P; the scan stops early at one that reaches a bound
        # no vertex can pass: |P|, or |P| - 1 when X is empty
        pivot = -1
        best = -1
        bound = p.bit_count() - (not x)
        m = p | x
        while m:
            u = (m & -m).bit_length() - 1
            c = (p & cadj[u]).bit_count()
            if c > best:
                best, pivot = c, u
                if c == bound:
                    break
            m &= m - 1
        cand = p & ~cadj[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            keep = cadj[v]
            if p & keep:
                stack.append((r + (v,), p & keep, x & keep))
            elif not x & keep:
                found += 1
                if found > cap:
                    raise MisCapExceededError(cap)
                yield r + (v,)
            p ^= low
            x |= low
            cand ^= low


def count_mis(g: Graph, cap: int = DEFAULT_MIS_CAP) -> int:
    """Number of maximal independent sets, counted from the search without
    holding them; raises MisCapExceededError past the cap."""
    return sum(1 for _ in iter_mis(g, cap))


def enumerate_mis(g: Graph, cap: int = DEFAULT_MIS_CAP) -> MisList:
    """Every maximal independent set exactly once, sorted into a MisList.

    Raises MisCapExceededError as soon as the count passes the cap; output is
    never silently truncated.
    """
    return MisList(graph=g, sets=tuple(sorted(
        tuple(sorted(t)) for t in iter_mis(g, cap))))


def greedy_extend(g: Graph, base: Iterable[int]) -> frozenset:
    """Grow an independent set to a MIS by repeated smallest-index selection.

    Each step adds the smallest surviving vertex and deletes its closed
    neighborhood; ties in the source procedure ('select any vertex') are
    broken deterministically by index.
    """
    s = g._check_subset(base)
    if not is_independent(g, s):
        raise NotIndependentError(f"{sorted(s)} is not independent")
    adj = adjacency_masks(g)
    full = (1 << g.n) - 1
    surviving = full
    result = set(s)
    for v in s:
        surviving &= ~(adj[v] | (1 << v))
    while surviving:
        v = (surviving & -surviving).bit_length() - 1
        result.add(v)
        surviving &= ~(adj[v] | (1 << v))
    return frozenset(result)


def random_greedy_mis(adj: Sequence[int], rng: Random) -> tuple[int, ...]:
    """A maximal independent set grown greedily in a random vertex order.

    adj holds the neighbor bitmasks of adjacency_masks.  Every vertex, in an
    order shuffled by rng, joins the set unless a member is adjacent to it;
    the members come back in the order they joined.
    """
    order = list(range(len(adj)))
    rng.shuffle(order)
    free = (1 << len(adj)) - 1
    members = []
    for v in order:
        if free >> v & 1:
            members.append(v)
            free &= ~adj[v]
    return tuple(members)


def independent_subsets_of_connection_set(
        g: Graph, report: SimplicialReport | None = None) -> list[frozenset]:
    """All nonempty independent subsets of the connection set, in canonical
    order.  The empty set is excluded: the counting formula accounts for it
    through its standalone product term."""
    rep = report if report is not None else simplicial_report(g)
    w = sorted(rep.connection_set)
    out = []
    for r in range(1, len(w) + 1):
        for combo in combinations(w, r):
            if is_independent(g, combo):
                out.append(frozenset(combo))
    out.sort(key=lambda s: tuple(sorted(s)))
    return out


@dataclass(frozen=True)
class CliqueSplit:
    """Simplicial cliques split against a closed neighborhood: uncovered holds
    the cliques not contained in it, covered the rest."""

    uncovered: tuple[frozenset, ...]
    covered: tuple[frozenset, ...]

    @property
    def count_uncovered(self) -> int:
        return len(self.uncovered)


def split_cliques_by_neighborhood(
        g: Graph, seed: Iterable[int],
        report: SimplicialReport | None = None) -> CliqueSplit:
    """Partition the simplicial cliques by containment in N[seed].

    seed must be an independent subset of the connection set.  A clique lands
    in 'uncovered' iff it is not a subset of the closed neighborhood of seed.
    """
    rep = report if report is not None else simplicial_report(g)
    s = g._check_subset(seed)
    if not s <= rep.connection_set:
        raise ValueError(f"{sorted(s)} is not a subset of the connection set")
    if not is_independent(g, s):
        raise NotIndependentError(f"{sorted(s)} is not independent")
    closed = g.closed_neighborhood(s)
    uncovered = tuple(c for c in rep.cliques if not c <= closed)
    covered = tuple(c for c in rep.cliques if c <= closed)
    return CliqueSplit(uncovered=uncovered, covered=covered)


@dataclass(frozen=True)
class SccgCountBreakdown:
    """Terms of the closed-form MIS count for a simplicial-clique-covered
    graph: total = i_count + product_term + sum_term.

    count_mode records how clique residuals were sized: 'residual' counts
    every vertex of a clique outside the connection set, 'simplicial' counts
    only its simplicial vertices.  The two differ exactly when a clique holds
    a non-simplicial vertex outside the connection set.
    """

    i_count: int
    product_term: int
    sum_term: int
    total: int
    count_mode: str


def _clique_residual_sizes(g: Graph, rep: SimplicialReport, mode: str) -> list[int]:
    if mode == "residual":
        return [len(c - rep.per_clique_w[i]) for i, c in enumerate(rep.cliques)]
    if mode == "simplicial":
        return [len(c & rep.simplicial_vertices) for c in rep.cliques]
    raise ValueError(f"unknown count mode {mode!r}")


def sccg_mis_count_formula(g: Graph, count_mode: str = "residual") -> SccgCountBreakdown:
    """Evaluate the closed-form MIS count exactly as written.

    No claim is made that the result matches true enumeration; the
    verification harness compares the two and reports disagreements.
    """
    if not is_sccg(g):
        raise NotSccgError("simplicial cliques do not cover the graph")
    rep = simplicial_report(g)
    sizes = _clique_residual_sizes(g, rep, count_mode)
    by_clique = dict(zip(rep.cliques, sizes))

    product_term = 1
    for s in sizes:
        product_term *= s

    i_count = 0
    sum_term = 0
    for seed in independent_subsets_of_connection_set(g, rep):
        split = split_cliques_by_neighborhood(g, seed, rep)
        if not split.uncovered:
            # the seed already dominates everything: it is itself a MIS
            i_count += 1
            continue
        term = 1
        for c in split.uncovered:
            term *= by_clique[c]
        sum_term += term

    return SccgCountBreakdown(
        i_count=i_count,
        product_term=product_term,
        sum_term=sum_term,
        total=i_count + product_term + sum_term,
        count_mode=count_mode,
    )


@dataclass(frozen=True)
class SharedCliqueMisCount:
    """Sum over shared-clique vertices of (#MISs of G1 through v) times
    (#MISs of G2 through v)."""

    total: int
    per_vertex: tuple[tuple[int, int, int], ...]  # (g1 label, l_i, m_i)


def scs_mis_count(g1: Graph, g2: Graph, glue: Mapping[int, int],
                  cap: int = DEFAULT_MIS_CAP) -> SharedCliqueMisCount:
    """Predicted MIS count of the clique sum of g1 and g2.

    glue maps each shared vertex's g2 label to its g1 label; its domain must
    be a clique in g2 and its image a clique in g1.
    """
    dom = g2._check_subset(glue.keys())
    img = g1._check_subset(glue.values())
    if len(img) != len(dom):
        raise ValueError("glue map is not injective")
    if not g2.is_clique(dom):
        raise ValueError("glue domain is not a clique in the second graph")
    if not g1.is_clique(img):
        raise ValueError("glue image is not a clique in the first graph")
    # MISs through each vertex, from one pass over each graph's search
    through1 = Counter(chain.from_iterable(iter_mis(g1, cap)))
    through2 = Counter(chain.from_iterable(iter_mis(g2, cap)))
    rows = []
    total = 0
    for v2 in sorted(dom):
        v1 = glue[v2]
        l_count = through1[v1]
        m_count = through2[v2]
        rows.append((v1, l_count, m_count))
        total += l_count * m_count
    return SharedCliqueMisCount(total=total, per_vertex=tuple(rows))
