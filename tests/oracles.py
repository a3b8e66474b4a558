"""Independent brute-force oracles used to freeze expected values.

Everything here works from (n, edge set) alone with definition-literal
power-set scans and plain Fraction elimination, deliberately sharing no code
path with the package implementations it checks.  The oracle formula builds
the package's SccgCountBreakdown records only so that the two compare
equal.  split_to_spec is no oracle: it turns a clique-sum split back into
the package's ScsSpec.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, prod
from typing import NamedTuple

from wellcovered.families import ScsSpec
from wellcovered.graph import Graph
from wellcovered.mis import SccgCountBreakdown


def is_prime_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_independent(adj, vs) -> bool:
    vs = list(vs)
    return all(b not in adj[a] for i, a in enumerate(vs) for b in vs[i + 1:])


def is_mis(n: int, adj, vs) -> bool:
    s = set(vs)
    if not is_independent(adj, s):
        return False
    return all(adj[v] & s for v in range(n) if v not in s)


def all_mis_powerset(n: int, edges) -> list[tuple[int, ...]]:
    adj = adjacency(n, edges)
    out = []
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            if is_mis(n, adj, combo):
                out.append(combo)
    out.sort()
    return out


def simplicial_vertices_naive(n: int, edges) -> list[int]:
    adj = adjacency(n, edges)
    out = []
    for v in range(n):
        closed = sorted(adj[v] | {v})
        if all(b in adj[a] for i, a in enumerate(closed) for b in closed[i + 1:]):
            out.append(v)
    return out


def has_long_induced_cycle(n: int, edges) -> bool:
    """True iff some vertex subset of size >= 4 induces a chordless cycle."""
    adj = adjacency(n, edges)
    for r in range(4, n + 1):
        for combo in combinations(range(n), r):
            chosen = set(combo)
            degs = [len(adj[v] & chosen) for v in combo]
            if any(d != 2 for d in degs):
                continue
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                u = stack.pop()
                for w in adj[u] & chosen:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == r:
                return True
    return False


def wcdim_fraction_elimination(n: int, edges) -> tuple[int, int, int]:
    """(mis count, constraint rank, nullity) via full-matrix elimination."""
    mis = all_mis_powerset(n, edges)
    rows = []
    for m in mis[1:]:
        row = [Fraction(0)] * n
        for v in m:
            row[v] += 1
        for v in mis[0]:
            row[v] -= 1
        rows.append(row)
    rank = 0
    for col in range(n):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return len(mis), rank, n - rank


def rref_fraction_elimination(rows, p: int | None = None):
    """(reduced rows, rank, pivot columns) by textbook Gauss-Jordan.

    Over Fraction when p is None, over GF(p) otherwise; the pivot is the
    first nonzero entry of its column, scaled to one.
    """
    if p is None:
        def norm(x):
            return Fraction(x)

        def inv(x):
            return 1 / x
    else:
        def norm(x):
            return x % p

        def inv(x):
            return pow(x, p - 2, p)
    rows = [[norm(x) for x in row] for row in rows]
    pivot_cols = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = inv(rows[r][col])
        rows[r] = [norm(x * lead) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [norm(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
    return rows, len(pivot_cols), pivot_cols


def difference_row(members, first, n: int) -> list[int]:
    """The constraint row of a MIS against the base MIS first: its
    indicator minus first's."""
    row = [0] * n
    for v in members:
        row[v] += 1
    for v in first:
        row[v] -= 1
    return row


def greedy_spanning_rows(tuples, n: int, p: int | None = None) -> list[list[int]]:
    """Difference rows (MIS k minus MIS 0) kept in order exactly when row k
    raises the rank of the rows kept before it.

    The rank is taken by Fraction Gauss-Jordan over Q when p is None, and
    over GF(p) by reducing the row against an echelon basis mod p.
    """
    kept: list[list[int]] = []
    echelon: list[tuple[int, list[int]]] = []
    for m in tuples[1:]:
        row = difference_row(m, tuples[0], n)
        if p is None:
            if rref_fraction_elimination(kept + [row])[1] > len(kept):
                kept.append(row)
            continue
        x = [a % p for a in row]
        for col, e in echelon:
            f = x[col]
            x = [(a - f * b) % p for a, b in zip(x, e)]
        lead = next((c for c in range(n) if x[c]), None)
        if lead is not None:
            inv = pow(x[lead], p - 2, p)
            echelon.append((lead, [a * inv % p for a in x]))
            kept.append(row)
    return kept


def nullspace_basis_elimination(n: int, edges, p: int | None = None) -> list[list[int]]:
    """Free-column basis (see free_column_basis) of the full MIS difference
    system's nullspace, by Gauss-Jordan over Fraction when p is None, over
    GF(p) otherwise."""
    mis = all_mis_powerset(n, edges)
    rows = [difference_row(m, mis[0], n) for m in mis[1:]]
    rows, _, pivot_cols = rref_fraction_elimination(rows, p)
    return free_column_basis(rows, pivot_cols, n, p)


def free_column_basis(rows, pivot_cols, n: int, p: int | None = None) -> list[list[int]]:
    """Nullspace basis read from reduced rows with the given pivot columns:
    vector k has a one in the k-th free column, in increasing column order,
    and rational vectors are scaled to coprime integers whose first nonzero
    entry is positive."""
    basis = []
    for free in (c for c in range(n) if c not in pivot_cols):
        vec = [0] * n
        vec[free] = 1
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -rows[i][free] if p is None else -rows[i][free] % p
        basis.append(vec if p is not None else _coprime_integers(vec))
    return basis


def _coprime_integers(vec) -> list[int]:
    fracs = [Fraction(x) for x in vec]
    scale = 1
    for x in fracs:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in fracs]
    content = 0
    for x in ints:
        content = gcd(content, abs(x))
    sign = -1 if next(x for x in ints if x != 0) < 0 else 1
    return [sign * x // content for x in ints]


def simplicial_cliques_naive(n: int, edges) -> tuple[list[frozenset], frozenset]:
    """The distinct closed neighbourhoods of the simplicial vertices, and
    the connection set: the vertices lying in at least two of them."""
    adj = adjacency(n, edges)
    cliques = list(dict.fromkeys(frozenset(adj[v] | {v})
                                 for v in simplicial_vertices_naive(n, edges)))
    connection = frozenset(v for v in range(n)
                           if sum(v in c for c in cliques) >= 2)
    return cliques, connection


def independent_subsets_of_connection_set(g: Graph) -> list[frozenset]:
    """All nonempty independent subsets of the connection set, in canonical
    order, by a power-set scan.  The empty set is excluded: the counting
    formula accounts for it through its standalone product term."""
    adj = adjacency(g.n, g.edges)
    w = sorted(simplicial_cliques_naive(g.n, g.edges)[1])
    out = [frozenset(combo) for r in range(1, len(w) + 1)
           for combo in combinations(w, r) if is_independent(adj, combo)]
    out.sort(key=lambda s: tuple(sorted(s)))
    return out


def sccg_mis_count_formula(
        g: Graph) -> tuple[SccgCountBreakdown, SccgCountBreakdown]:
    """The closed-form MIS count exactly as written, (residual, simplicial):
    a clique C is sized |C - W|, W the connection set, in the first reading
    and by its simplicial vertices in the second.  Each reading is the
    product of the clique sizes plus, for every seed S of
    independent_subsets_of_connection_set, 1 when N[S] contains every
    clique and otherwise the product of the sizes of those it does not.
    """
    adj = adjacency(g.n, g.edges)
    simp = frozenset(simplicial_vertices_naive(g.n, g.edges))
    cliques, connection = simplicial_cliques_naive(g.n, g.edges)
    if not cliques or frozenset().union(*cliques) != set(range(g.n)):
        raise ValueError("simplicial cliques do not cover the graph")
    seeds = independent_subsets_of_connection_set(g)
    readings = []
    for size in (lambda c: len(c - connection), lambda c: len(c & simp)):
        i_count = sum_term = 0
        for seed in seeds:
            closed = seed.union(*(adj[v] for v in seed))
            uncovered = [c for c in cliques if not c <= closed]
            if uncovered:
                sum_term += prod(size(c) for c in uncovered)
            else:
                # the seed already dominates everything: it is itself a MIS
                i_count += 1
        product_term = prod(size(c) for c in cliques)
        readings.append(SccgCountBreakdown(
            i_count=i_count, product_term=product_term, sum_term=sum_term,
            total=i_count + product_term + sum_term))
    return readings[0], readings[1]


def induced_subgraph(g: Graph, vs) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced on vs, relabelled 0..k-1 in increasing original
    order, and labels, where labels[i] is the original label of vertex i."""
    keep = sorted(vs)
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges
             if u in index and v in index]
    return Graph(len(keep), edges), tuple(keep)


def components_naive(adj, vs) -> list[frozenset]:
    """Connected components of the subgraph induced on vs, in increasing
    order of their smallest member, by breadth-first search."""
    left, out = set(vs), []
    while left:
        comp, frontier = set(), {min(left)}
        while frontier:
            comp |= frontier
            frontier = set().union(*(adj[v] for v in frontier)) & (left - comp)
        left -= comp
        out.append(frozenset(comp))
    return out


class Split(NamedTuple):
    """A clique-sum split: part1_vertices[i] is the original label of
    part1's vertex i, likewise part2_vertices."""

    part1: Graph
    part2: Graph
    shared: frozenset
    part1_vertices: tuple[int, ...]
    part2_vertices: tuple[int, ...]


def scs_splits(g: Graph) -> list[Split]:
    """Every clique-sum split of the graph.  A simplicial clique C splits
    it when removing C leaves more than one component, and each grouping of
    those components into two nonempty sides gives one split, each side
    taken with C.  The cliques come ordered by their smallest vertex, and a
    clique's groupings in increasing mask order with component 0 pinned to
    side one, so each unordered grouping appears once."""
    adj = adjacency(g.n, g.edges)
    cliques, _ = simplicial_cliques_naive(g.n, g.edges)
    out = []
    for clique in sorted(cliques, key=min):
        comps = components_naive(adj, set(range(g.n)) - clique)
        k = len(comps)
        if k < 2:
            continue
        for mask in range((1 << (k - 1)) - 1):
            side1, side2 = set(comps[0]), set()
            for i in range(1, k):
                (side1 if mask >> (i - 1) & 1 else side2).update(comps[i])
            part1, labels1 = induced_subgraph(g, side1 | clique)
            part2, labels2 = induced_subgraph(g, side2 | clique)
            out.append(Split(part1, part2, clique, labels1, labels2))
    return out


def first_splitting_clique(g: Graph) -> frozenset | None:
    """The first simplicial clique, in order of smallest vertex, whose
    removal leaves more than one component, or None where none does: the
    shared clique of scs_splits' first split, found without groupings."""
    adj = adjacency(g.n, g.edges)
    cliques, _ = simplicial_cliques_naive(g.n, g.edges)
    for clique in sorted(cliques, key=min):
        if len(components_naive(adj, set(range(g.n)) - clique)) > 1:
            return clique
    return None


def split_to_spec(split: Split) -> ScsSpec:
    """The recipe that re-composes a split's graph, up to relabelling: each
    shared vertex of part2 is glued to the same vertex of part1."""
    back1 = {orig: i for i, orig in enumerate(split.part1_vertices)}
    back2 = {orig: i for i, orig in enumerate(split.part2_vertices)}
    return ScsSpec(split.part1, split.part2,
                   {back2[v]: back1[v] for v in split.shared})


def classify_mis_frozensets(g: Graph, rep, clique_index: dict,
                            m: frozenset) -> str:
    """The kind of a MIS of an SCCG, by two branches on frozensets: the
    classifier check_mis_structure used before it read bitmasks.
    clique_index maps each simplicial vertex to the index of its clique in
    rep.cliques."""
    simp = rep.simplicial_vertices
    seed = m & rep.connection_set
    if not seed:
        if m <= simp and len(m) == rep.sc and \
                len({clique_index[v] for v in m}) == rep.sc:
            return "one-per-clique"
        return "neither"
    rest = m - seed
    if not rest <= simp:
        return "neither"
    closed = g.closed_neighborhood(seed)
    uncovered = {i for i, c in enumerate(rep.cliques) if not c <= closed}
    picked = [clique_index[v] for v in rest]
    if len(set(picked)) == len(picked) and set(picked) == uncovered:
        return "seeded"
    return "neither"
