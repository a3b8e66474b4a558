"""Maximal independent set machinery: exact enumeration, random greedy
sampling, and the closed-form counting formula for
simplicial-clique-covered graphs.

Counting and listing share one branching rule over bitmask states (U, D),
Python ints as vertex sets: U holds the undecided vertices, D the excluded
vertices still waiting for a chosen neighbor.  Each state branches on a set
that every extension must meet (_branch_set): the undecided neighbors of
the vertex of D with the fewest, or, once D is empty, the closed undecided
neighborhood of the lowest undecided vertex.  A graph of more than
_RENUMBER_ABOVE vertices is renumbered once, in smallest-last order, so
that the lowest undecided vertex has all its undecided neighbors later in
the order: at most the graph's degeneracy of them.  Each graph has one
engine: its numbering and masks (_state_masks) are built on its first query
and memoised in its _engine slot (see graph.Graph), so every later count or
search of that graph reads them.

_count_completions counts a state's completions and builds no set.  A
state's count depends on (U, D) alone, so a memo, cleared whenever it
reaches a fixed number of entries, counts a repeated state once; on a
gasket or a cycle most states repeat.  The count walks the states
depth-first, one child at a time: each child is looked up in the memo once
and a miss is opened at once, so the stack holds one saved parent per level
of the current path.  One count answers three questions:
count_mis counts the root state (V, {}), scs_mis_count the MISs through v
as the state (V - N[v], {}), and swap_pairs reads, per edge uv, whether
two MISs differ in u and v alone from one state's count; the last two map
their query vertices into the engine's numbering.  iter_mis runs the same
search without the memo and yields each MIS once, as its member tuple in
the graph's own labels, in search order; single-pass consumers hold no
list.  enumerate_mis sorts the stream into a MisList, each MIS stored once
as its ascending tuple of members, in canonical order.

A graph records its MIS count in its _mis_count slot once count_mis counts
its root or a search runs to its end, enumerate_mis's included.  A later
count_mis, swap_pairs or scs_mis_count reads that count and compares it with
its own cap (_root_count) in place of counting the root again, so each
still raises MisCapExceededError exactly when the total passes the cap.

A MIS has one stored form, its member tuple, and is tested as a bitmask:
_maximal_independent folds the members into one mask of chosen vertices
and one of their neighbors, and is the only maximal-independence test.
is_mis calls it on a checked vertex set, and the sampler of
wcspace._ladder on every random greedy MIS it draws.
"""

from __future__ import annotations

from math import prod
from random import Random
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .graph import (Graph, _members, _memoised, _Record, adjacency_masks,
                    is_sccg, simplicial_report)

DEFAULT_MIS_CAP = 10**6


class MisCapExceededError(RuntimeError):
    """Enumeration found more maximal independent sets than the cap allows."""

    def __init__(self, cap: int) -> None:
        super().__init__(f"more than {cap} maximal independent sets")
        self.cap = cap


class NotSccgError(ValueError):
    """The operation needs the simplicial cliques to cover the graph."""


def _maximal_independent(adj: Sequence[int],
                         members: Collection[int]) -> bool:
    """True iff the members, vertices of the graph whose neighbor masks are
    adj, are distinct, independent and dominating: a maximal independent
    set.  No member may be a neighbor of a member, and every vertex must be
    a member or a neighbor of one."""
    chosen = dominated = 0
    for v in members:
        chosen |= 1 << v
        dominated |= adj[v]
    return (chosen.bit_count() == len(members) and not chosen & dominated
            and chosen | dominated == (1 << len(adj)) - 1)


def is_mis(g: Graph, vs: Iterable[int]) -> bool:
    """True iff the set is independent and no outside vertex can be added:
    exactly the vertices outside it have a neighbour in it."""
    return _maximal_independent(adjacency_masks(g), g._check_subset(vs))


class MisList(_Record):
    """All maximal independent sets of a graph, each stored once as its
    ascending member tuple, in canonical (lexicographic) order: the only
    stored form of a MIS.  A reader that tests sets builds their bitmasks.

    enumerate_mis builds it for callers that publish or re-read the sets in
    canonical order; a single pass in any order needs no list (iter_mis)."""

    __slots__ = ("graph", "sets")

    graph: Graph
    sets: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.sets)


def _branch_set(adj: Sequence[int], u: int, d: int) -> int:
    """A set of undecided vertices that every completion of the state (U, D)
    meets: the U-neighbors of the vertex of D with the fewest, or, with D
    empty, N[w] & U for the lowest vertex w of U (U is then non-empty).

    The D scan stops at the first candidate set of at most one vertex, as no
    set gives fewer branches.  An empty set means the state has no
    completion: a vertex of D has no undecided neighbor left.  The D-empty
    set needs no scan.  Every vertex below w is decided, so N[w] & U holds
    w and its undecided neighbors later than w: in the smallest-last
    numbering of _state_masks, at most the degeneracy of the graph.
    """
    if not d:
        low = u & -u
        return adj[low.bit_length() - 1] & u | low
    scan, best = d, len(adj)
    while scan:
        low = scan & -scan
        nbrs = adj[low.bit_length() - 1] & u
        k = nbrs.bit_count()
        if k < best:
            best, branch = k, nbrs
            if k < 2:
                break
        scan ^= low
    return branch


# Vertex count above which _state_masks renumbers a graph.  Renumbering costs
# ~10 us on a 7-vertex graph, against ~1.4 us for the masks alone.  Listing
# every MIS plus the swap pairs of 80 seeded G(n, p) graphs breaks even near
# n = 17 at p = 0.2, 18-22 at p = 0.3 and 28-32 at p = 0.5; at n = 24 the
# renumbered engine takes 0.82, 0.90 and 1.03 times as long (CPython 3.11).
_RENUMBER_ABOVE = 24


def _smallest_last(adj: Sequence[int]) -> list[int]:
    """The vertices in smallest-last (degeneracy) order, Matula and Beck,
    J. ACM 30(3), 1983: each has the least degree, in the graph the
    vertices not yet taken induce, among those vertices.  Each vertex then
    has at most the degeneracy of the graph neighbors later in the order.

    A bucket peel with lazy deletion, O(n + m): a vertex whose degree drops
    is filed again under its new degree, and an entry whose degree is stale
    is skipped when popped.
    """
    degree = [a.bit_count() for a in adj]
    buckets = [[] for _ in adj]
    for v in reversed(range(len(adj))):
        buckets[degree[v]].append(v)
    left, order, low = (1 << len(adj)) - 1, [], 0
    while left:
        while not buckets[low]:
            low += 1
        v = buckets[low].pop()
        if degree[v] != low:
            continue  # filed again under a lower degree since
        left ^= 1 << v
        order.append(v)
        for w in _members(adj[v] & left):
            degree[w] -= 1
            buckets[degree[w]].append(w)
        if low:
            low -= 1
    return order


def _state_masks(g: Graph) -> tuple[tuple[Sequence[int], list[int],
                                          list[int]],
                                    Sequence[int], Sequence[int]]:
    """The engine's masks and its numbering of g, built once per graph and
    memoised in its _engine slot (see Graph)."""
    return _memoised(g, "_engine", _build_engine)


def _build_engine(g: Graph) -> tuple[tuple[Sequence[int], list[int],
                                           list[int]],
                                     Sequence[int], Sequence[int]]:
    """The engine's masks and its numbering of g: ((adj, outside, apart),
    label, position).

    adj holds the neighbor masks N(v), and outside and apart the complements
    ~N[v] and ~N(v) that choosing v applies to U and to D, all over the
    engine's vertex numbers.  label[i] is g's vertex numbered i and
    position[v] the number of g's vertex v.  A graph of more than
    _RENUMBER_ABOVE vertices is numbered in smallest-last order; a smaller
    one keeps its own labels, as renumbering would cost it more than the
    order saves.
    """
    adj = adjacency_masks(g)
    if g.n > _RENUMBER_ABOVE:
        label = _smallest_last(adj)
        position = [0] * g.n
        for i, v in enumerate(label):
            position[v] = i
        bit, adj = [1 << i for i in position], [0] * g.n
        for v, w in g.edges:
            adj[position[v]] |= bit[w]
            adj[position[w]] |= bit[v]
    else:
        label = position = range(g.n)
    outside = [~(a | 1 << v) for v, a in enumerate(adj)]
    return (adj, outside, [~a for a in adj]), label, position


def iter_mis(g: Graph, cap: int = DEFAULT_MIS_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every maximal independent set exactly once, in search order,
    each as the tuple of its members, in g's labels, in the order the
    search added them.

    The search is count_mis's, by the same branching rule and without the
    memo: a state also carries the members chosen so far, by their labels
    in g, and a leaf with U and D both empty yields them, so each MIS is
    reached by one path.

    Raises MisCapExceededError in place of yielding set cap + 1; output is
    never silently truncated.
    """
    (adj, outside, apart), label, _ = _state_masks(g)
    found = 0
    # a child is tested when it is pushed: a leaf is yielded and a dead end
    # (U empty, D not) dropped, so only states with U non-empty are stacked
    stack = [((), (1 << g.n) - 1, 0)]
    while stack:
        r, u, d = stack.pop()
        branch = _branch_set(adj, u, d)
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            cu = u & outside[v]
            cd = d & apart[v]
            if cu:
                stack.append((r + (label[v],), cu, cd))
            elif not cd:
                found += 1
                if found > cap:
                    raise MisCapExceededError(cap)
                yield r + (label[v],)
            u ^= low  # excluded from the later branches
            d |= low
            branch ^= low
    _memoised(g, "_mis_count", lambda _: found)  # the search is complete


# Entries the count memo holds before it is cleared.  The states that recur
# on a gasket or a cycle fit many times over; on graphs where few recur it
# bounds the memory the memo takes.
_COUNT_MEMO = 1 << 16


def _count_completions(masks: tuple[Sequence[int], list[int], list[int]],
                       memo: dict[int, int], u: int, d: int, cap: int) -> int:
    """Number of completions of the search state (U, D), with the masks of
    _state_masks, U and D over the engine's vertex numbers, and memo,
    mapping U << n | D to a state's count, a dict that the caller owns.

    A state (U, D) holds U, the undecided vertices (not chosen, no chosen
    neighbor), and D, the excluded vertices that still need a chosen
    neighbor.  A completion is an independent S within U that dominates
    U - S and D; with U empty the only candidate is S empty, a completion
    exactly when D is empty.  Every completion meets the set B of U that
    _branch_set returns.  Branch i chooses the i-th vertex v of B, which
    takes N[v] out of U and N(v) out of D, and excludes the vertices of B
    before it, which move from U to D; the branches split the count
    exactly.  iter_mis branches by the same rule, so this argument covers
    listing too.  A state's count depends on (U, D) alone, so a memo keyed
    on both counts a repeated state once, and one memo may be shared by
    every query on one graph.  It is cleared when it reaches _COUNT_MEMO
    entries, which bounds its memory.

    The walk is depth-first, one child at a time, without recursion.  The
    open state is held in locals: its key, the U and D its next branch
    starts from, the branches left and the count so far.  Each child is
    looked up in the memo once; a miss is opened at once, after the
    parent's locals are saved on the stack, so the stack holds one saved
    parent per level of the current path.  A state with no branch left
    closes: its count is checked against the cap, stored, and added to its
    parent's, which is popped back into the locals.

    Raises MisCapExceededError as soon as any state's count passes the cap.
    """
    if not u:
        return int(not d)
    adj, outside, apart = masks
    n = len(adj)
    key = u << n | d
    total = memo.get(key)
    if total is not None:
        return total
    branch, total = _branch_set(adj, u, d), 0
    stack = []  # (key, u, d, branch, total) of each open ancestor
    while True:
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            cu = u & outside[v]
            cd = d & apart[v]
            u ^= low  # excluded from the later branches
            d |= low
            branch ^= low
            if not cu:
                total += not cd
                continue
            child = cu << n | cd
            known = memo.get(child)
            if known is None:
                stack.append((key, u, d, branch, total))
                key, u, d = child, cu, cd
                branch, total = _branch_set(adj, u, d), 0
            else:
                total += known
        if total > cap:
            raise MisCapExceededError(cap)
        if len(memo) >= _COUNT_MEMO:
            memo.clear()
        memo[key] = total
        if not stack:
            return total
        key, u, d, branch, saved = stack.pop()
        total += saved


def _root_count(g: Graph, memo: dict[int, int], cap: int) -> int:
    """g's MIS count, over memo where it is counted: the completions of the
    root state (V, {}), counted once per graph and recorded in its
    _mis_count slot (see Graph), where a full search also records its
    length.

    A fresh count raises MisCapExceededError as soon as any state's count
    passes the cap; a recorded count is compared with this call's cap, so
    the error is raised exactly when the total passes the cap either way.
    """
    mis_count = _memoised(g, "_mis_count", lambda g: _count_completions(
        _state_masks(g)[0], memo, (1 << g.n) - 1, 0, cap))
    if mis_count > cap:  # recorded under a larger cap
        raise MisCapExceededError(cap)
    return mis_count


def count_mis(g: Graph, cap: int = DEFAULT_MIS_CAP) -> int:
    """Number of maximal independent sets, counted without building one:
    the completions of the root state (V, {}), over a fresh memo, or the
    count already recorded on g (_root_count).

    Every state's count is a count of distinct MISs, never more than the
    total, so MisCapExceededError is raised as soon as any count passes the
    cap, and exactly when the total does.
    """
    return _root_count(g, {}, cap)


def _state_counter(g: Graph, cap: int):
    """count(U, D), the completions of the state (U & V, D) over one memo,
    U and D over the engine's vertex numbers, and outside, where outside[v]
    is ~N[v] over those numbers for g's vertex v.

    g's MIS count is taken first (_root_count): read where g has recorded
    it, and otherwise counted over the same memo.  So MisCapExceededError
    is raised here exactly when count_mis(g, cap) raises it.  A later count
    is of MISs of g too, so it cannot pass the cap.
    """
    masks, _, position = _state_masks(g)
    memo, full = {}, (1 << g.n) - 1

    def count(u: int, d: int) -> int:
        return _count_completions(masks, memo, u & full, d, cap)

    _root_count(g, memo, cap)
    return count, [masks[1][i] for i in position]


def swap_pairs(g: Graph, cap: int = DEFAULT_MIS_CAP) -> list[tuple[int, int]]:
    """The pairs {u, v} such that two maximal independent sets differ in u
    and v alone, as the edges (u, v) of g.edges in order.

    Two such MISs are S + u and S + v, with u and v outside S.  S + u is
    maximal, so v has a neighbor in S + u; S + v is independent, so that
    neighbor is u: every pair is an edge.  For an edge uv, S + u and S + v
    are both independent exactly when S is independent and within
    U = V - N[u] - N[v].  S + u is maximal exactly when S dominates the
    vertices outside S and N[u], and S + v when it dominates those outside
    S and N[v]; together, those outside S and N[u] & N[v].  For S within U
    they are U - S and D = N[u] ^ N[v], which is (N(u) ^ N(v)) - {u, v} as
    u is in N(v) and v in N(u).  So the edge is a pair exactly when the
    state (U, D) has a completion.  One memo serves every edge's state.

    Raises MisCapExceededError exactly when count_mis(g, cap) does.
    """
    count, outside = _state_counter(g, cap)
    # outside[v] is ~N[v], so the second mask is N[u] ^ N[v]
    return [(u, v) for u, v in g.edges
            if count(outside[u] & outside[v], outside[u] ^ outside[v])]


def enumerate_mis(g: Graph, cap: int = DEFAULT_MIS_CAP) -> MisList:
    """Every maximal independent set exactly once, sorted into a MisList.

    Raises MisCapExceededError as soon as the count passes the cap; output is
    never silently truncated.
    """
    return MisList(g, tuple(sorted(tuple(sorted(t))
                                   for t in iter_mis(g, cap))))


def random_greedy_mis(adj: Sequence[int], rng: Random) -> tuple[int, ...]:
    """A maximal independent set grown greedily in a random vertex order.

    adj holds the neighbor bitmasks of graph.adjacency_masks.  Every vertex,
    in increasing order of a random 32-bit key (ties by label) from one
    rng.randbytes draw, joins the set unless a member is adjacent to it;
    the members come back in the order they joined.
    """
    n = len(adj)
    keys = memoryview(rng.randbytes(4 * n)).cast("I").tolist()
    free = (1 << n) - 1
    members = []
    for v in sorted(range(n), key=keys.__getitem__):
        if free >> v & 1:
            members.append(v)
            free &= ~adj[v]
    return tuple(members)


def _connection_walk(g: Graph) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (S, N[S] as a bitmask) for every independent subset S of the
    connection set, the empty set first, in canonical order, each S as its
    ascending member tuple.

    Only independent sets are grown: each is extended by the later vertices
    of the sorted connection set outside its closed neighborhood, so each
    set costs one scan of the connection set.  The stack pops the smallest
    extension first, and this pre-order is the canonical order."""
    adj = adjacency_masks(g)
    w = sorted(simplicial_report(g).connection_set)
    stack = [((), 0, 0)]  # members, first index of w to grow by, N[members]
    while stack:
        members, start, closed = stack.pop()
        yield members, closed
        for j in reversed(range(start, len(w))):
            v = w[j]
            if not closed >> v & 1:
                stack.append((members + (v,), j + 1, closed | adj[v] | 1 << v))


class SccgCountBreakdown(_Record):
    """Terms of the closed-form MIS count for a simplicial-clique-covered
    graph under one reading of the clique sizes:
    total = i_count + product_term + sum_term."""

    __slots__ = ("i_count", "product_term", "sum_term", "total")

    i_count: int
    product_term: int
    sum_term: int
    total: int


def sccg_mis_count_formula(
        g: Graph) -> tuple[SccgCountBreakdown, SccgCountBreakdown]:
    """Evaluate the closed-form MIS count exactly as written, under both
    readings of a clique's size: (residual, simplicial).

    The residual reading sizes a clique C as |C - W|, W the connection set;
    the simplicial reading as the number of simplicial vertices in C.  The
    two differ exactly when a clique holds a non-simplicial vertex outside
    the connection set.  The seeds are the nonempty independent subsets S
    of the connection set, each with N[S] as a bitmask, from one walk; a
    clique is uncovered by S when its mask has a bit outside N[S].

    No claim is made that the result matches true enumeration; the
    verification harness compares the two and reports disagreements.
    """
    if not is_sccg(g):
        raise NotSccgError("simplicial cliques do not cover the graph")
    rep = simplicial_report(g)
    cliques = [(sum(1 << v for v in c), len(c - rep.connection_set),
                len(c & rep.simplicial_vertices)) for c in rep.cliques]

    i_count = 0
    sum_residual = sum_simplicial = 0
    seeds = _connection_walk(g)
    next(seeds)  # the empty set: its term is the product term
    for _, closed in seeds:
        outside = ~closed
        uncovered, term_residual, term_simplicial = False, 1, 1
        for mask, r, s in cliques:
            if mask & outside:
                uncovered = True
                term_residual *= r
                term_simplicial *= s
        if uncovered:
            sum_residual += term_residual
            sum_simplicial += term_simplicial
        else:
            # the seed already dominates everything: it is itself a MIS
            i_count += 1

    def reading(product_term: int, sum_term: int) -> SccgCountBreakdown:
        return SccgCountBreakdown(i_count, product_term, sum_term,
                                  i_count + product_term + sum_term)

    return (reading(prod(r for _, r, _ in cliques), sum_residual),
            reading(prod(s for _, _, s in cliques), sum_simplicial))


class SharedCliqueMisCount(_Record):
    """Sum over shared-clique vertices of (#MISs of G1 through v) times
    (#MISs of G2 through v)."""

    __slots__ = ("total", "per_vertex")

    total: int
    per_vertex: tuple[tuple[int, int, int], ...]  # (g1 label, l_i, m_i)


def scs_mis_count(g1: Graph, g2: Graph, glue: Mapping[int, int],
                  cap: int = DEFAULT_MIS_CAP) -> SharedCliqueMisCount:
    """Predicted MIS count of the clique sum of g1 and g2.

    glue maps each shared vertex's g2 label to its g1 label; its domain must
    be a clique in g2 and its image a clique in g1.

    The MISs through v are v plus the completions of the state
    (V - N[v], {}): choosing v leaves N[v] decided and N(v) dominated.  Each
    graph's states share one memo, and its root is counted first, so
    MisCapExceededError is raised exactly when count_mis raises it on g1 or
    g2.
    """
    dom = g2._check_subset(glue.keys())
    img = g1._check_subset(glue.values())
    if len(img) != len(dom):
        raise ValueError("glue map is not injective")
    if not g2.is_clique(dom):
        raise ValueError("glue domain is not a clique in the second graph")
    if not g1.is_clique(img):
        raise ValueError("glue image is not a clique in the first graph")
    count1, outside1 = _state_counter(g1, cap)
    count2, outside2 = _state_counter(g2, cap)
    rows = []
    for v2 in sorted(dom):
        v1 = glue[v2]
        rows.append((v1, count1(outside1[v1], 0), count2(outside2[v2], 0)))
    return SharedCliqueMisCount(total=sum(l * m for _, l, m in rows),
                                per_vertex=tuple(rows))
