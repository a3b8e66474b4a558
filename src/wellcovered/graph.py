"""Immutable simple-graph core: neighborhoods, cliques, simpliciality, chordality.

Graphs are simple, connected, undirected, with vertices 0..n-1.  Everything
here is a pure function of (n, edges); graph values are safe to share and
hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

VertexSet = frozenset  # frozenset[int] keyed to a Graph's 0..n-1 range


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class VertexRangeError(GraphError):
    """A vertex index falls outside 0..n-1."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DisconnectedGraphError(GraphError):
    """The edge list does not describe a connected graph."""


class EdgeListParseError(ValueError):
    """An edge-list file is malformed.  Carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class Graph:
    """Immutable simple undirected connected graph on vertices 0..n-1.

    Equality and hashing are label-sensitive: two graphs are equal iff they
    have the same vertex count and the same edge set.

    The graph memoises its simplicial_report in the _simplicial slot, set on
    first use: the memo lives exactly as long as the graph object, and it
    takes no part in equality or hashing.
    """

    __slots__ = ("n", "edges", "adjacency", "_hash", "_simplicial")

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[frozenset, ...]

    def __init__(self, n: int, edge_list: Iterable[tuple[int, int]]) -> None:
        if n < 1:
            raise GraphError(f"vertex count must be at least 1, got {n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edge_list:
            if not (0 <= u < n) or not (0 <= v < n):
                raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))
        if len(seen) < n - 1:
            # too few edges to connect n vertices: reject before the
            # per-vertex sets below are allocated
            raise DisconnectedGraphError(f"graph on {n} vertices is not connected")
        edges = tuple(sorted(seen))
        neighbors: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adjacency", tuple(frozenset(s) for s in neighbors))
        object.__setattr__(self, "_hash", hash((n, edges)))
        object.__setattr__(self, "_simplicial", None)
        if not self._is_connected():
            raise DisconnectedGraphError(f"graph on {n} vertices is not connected")

    def _is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"

    @property
    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adjacency[u]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise VertexRangeError(f"vertex {v} out of range for n={self.n}")

    def _check_subset(self, vs: Iterable[int]) -> frozenset:
        s = frozenset(vs)
        for v in s:
            self._check_vertex(v)
        return s

    def neighborhood(self, vs: Iterable[int]) -> frozenset:
        """Open neighborhood N(S): vertices adjacent to some vertex of S."""
        s = self._check_subset(vs)
        out: set[int] = set()
        for v in s:
            out |= self.adjacency[v]
        return frozenset(out)

    def closed_neighborhood(self, vs: Iterable[int]) -> frozenset:
        """Closed neighborhood N[S] = N(S) plus S itself."""
        s = self._check_subset(vs)
        return self.neighborhood(s) | s

    def is_clique(self, vs: Iterable[int]) -> bool:
        """True iff every pair of distinct vertices in the set is adjacent."""
        s = sorted(self._check_subset(vs))
        return all(s[j] in self.adjacency[s[i]]
                   for i in range(len(s)) for j in range(i + 1, len(s)))

    def induced_subgraph(self, vs: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the given vertices, relabeled 0..k-1.

        Returns (subgraph, labels) where labels[i] is the original index of
        the subgraph's vertex i.  Labels are in increasing original order.
        Raises DisconnectedGraphError if the induced subgraph is disconnected.
        """
        keep = sorted(self._check_subset(vs))
        if not keep:
            raise GraphError("cannot take the induced subgraph on an empty set")
        index = {v: i for i, v in enumerate(keep)}
        sub_edges = [(index[u], index[v]) for u, v in self.edges
                     if u in index and v in index]
        return Graph(len(keep), sub_edges), tuple(keep)


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated Graph; duplicate pairs in either orientation collapse."""
    return Graph(n, edge_list)


def relabel(g: Graph, mapping: Sequence[int] | dict) -> Graph:
    """Relabel vertices.  mapping[old] = new must be a bijection on 0..n-1."""
    if isinstance(mapping, dict):
        mapping = [mapping[v] for v in range(g.n)]
    if sorted(mapping) != list(range(g.n)):
        raise GraphError("relabeling is not a bijection on the vertex range")
    return Graph(g.n, [(mapping[u], mapping[v]) for u, v in g.edges])


@dataclass(frozen=True)
class SimplicialReport:
    """Simplicial structure of a graph.

    cliques holds the distinct maximal cliques N[v] over simplicial v,
    ordered by smallest contained vertex.  connection_set holds the vertices
    lying in at least two of those cliques, and per_clique_w[i] is the part
    of cliques[i] inside the connection set.
    """

    simplicial_vertices: frozenset
    cliques: tuple[frozenset, ...]
    connection_set: frozenset
    per_clique_w: tuple[frozenset, ...]

    @property
    def sc(self) -> int:
        return len(self.cliques)


def simplicial_vertices(g: Graph) -> frozenset:
    """Vertices v whose closed neighborhood N[v] is a clique.

    Such an N[v] is automatically a maximal clique: any common neighbor of
    all of N[v] would itself lie in N[v].  Read from the memoised
    simplicial_report.
    """
    return simplicial_report(g).simplicial_vertices


def contains_simplicial_vertex(g: Graph, vs: Iterable[int]) -> bool:
    """True iff the set is a clique containing at least one simplicial vertex."""
    s = g._check_subset(vs)
    if not g.is_clique(s):
        return False
    return not s.isdisjoint(simplicial_vertices(g))


def simplicial_report(g: Graph) -> SimplicialReport:
    """Distinct simplicial cliques, their count, and the connection set.

    Computed once per graph object and memoised on it (see Graph)."""
    rep = g._simplicial
    if rep is None:
        rep = _simplicial_report(g)
        object.__setattr__(g, "_simplicial", rep)
    return rep


def _simplicial_report(g: Graph) -> SimplicialReport:
    closed = [sum(1 << u for u in nbrs) | 1 << v
              for v, nbrs in enumerate(g.adjacency)]
    # N[v] is a clique iff every neighbour u of v is adjacent to all of it,
    # that is iff N[v] is a subset of N[u]
    simp = [v for v in g.vertices
            if all(closed[v] & ~closed[u] == 0 for u in g.adjacency[v])]
    # distinct cliques in order of their first simplicial vertex, then
    # stably sorted by their smallest vertex
    cliques = sorted(dict.fromkeys(g.adjacency[v] | {v} for v in simp),
                     key=min)
    seen: frozenset = frozenset()
    connection: frozenset = frozenset()
    for c in cliques:
        connection |= seen & c
        seen |= c
    return SimplicialReport(
        simplicial_vertices=frozenset(simp),
        cliques=tuple(cliques),
        connection_set=connection,
        per_clique_w=tuple(c & connection for c in cliques),
    )


def is_sccg(g: Graph) -> bool:
    """True iff the simplicial cliques are nonempty and cover every vertex."""
    rep = simplicial_report(g)
    if rep.sc == 0:
        return False
    covered: set[int] = set()
    for c in rep.cliques:
        covered |= c
    return len(covered) == g.n


def _lex_bfs_order(g: Graph) -> list[int]:
    # O(n^2) label-based lexicographic BFS; ample for desk-scale graphs.
    labels: list[list[int]] = [[] for _ in range(g.n)]
    order: list[int] = []
    remaining = set(g.vertices)
    for step in range(g.n, 0, -1):
        v = max(remaining, key=lambda u: (labels[u], -u))
        remaining.discard(v)
        order.append(v)
        for w in g.adjacency[v]:
            if w in remaining:
                labels[w].append(step)
    return order


def is_chordal(g: Graph) -> bool:
    """True iff the graph has no induced cycle of length at least 4.

    Uses lexicographic BFS followed by the standard perfect elimination
    ordering check on the reversed visit order.
    """
    order = _lex_bfs_order(g)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [u for u in g.adjacency[v] if position[u] < position[v]]
        if not earlier:
            continue
        parent = max(earlier, key=lambda u: position[u])
        for u in earlier:
            if u != parent and u not in g.adjacency[parent]:
                return False
    return True


# --- edge-list file format -------------------------------------------------
#
# UTF-8 text.  Lines starting with '#' are comments.  The first non-comment
# line is 'n <count>'; every following non-comment line is '<u> <v>' with
# 0-based decimal indices.  Duplicate edges are tolerated.  Writers emit
# edges sorted by (min endpoint, max endpoint).

def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format into a Graph."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise EdgeListParseError(lineno, f"expected 'n <count>', got {line!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise EdgeListParseError(lineno, f"bad vertex count {parts[1]!r}") from None
            continue
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"bad vertex index in {line!r}") from None
        edges.append((u, v))
    if n is None:
        raise EdgeListParseError(1, "missing 'n <count>' header line")
    return Graph(n, edges)


def format_edge_list(g: Graph, comments: Sequence[str] = ()) -> str:
    """Render a Graph in the canonical edge-list format.

    Comment lines are emitted first, each prefixed with '# '.  Output is
    deterministic: same graph and comments, same bytes.
    """
    lines = [f"# {c}" if c else "#" for c in comments]
    lines.append(f"n {g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def save_graph(g: Graph, path: str, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g, comments))


def components(g: Graph, vs: Iterable[int]) -> list[frozenset]:
    """Connected components of the subgraph induced on the given vertices.

    Returned in increasing order of their smallest member.
    """
    keep = set(g._check_subset(vs))
    out: list[frozenset] = []
    while keep:
        start = min(keep)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if w in keep and w not in comp:
                    comp.add(w)
                    stack.append(w)
        keep -= comp
        out.append(frozenset(comp))
    out.sort(key=min)
    return out

