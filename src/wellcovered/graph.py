"""Immutable simple-graph core: neighborhoods, cliques, simpliciality, chordality.

Graphs are simple, connected, undirected, with vertices 0..n-1.  Everything
here is a pure function of (n, edges); graph values are safe to share and
hash.  A graph holds its adjacency in one form, an int bitmask of
neighbours per vertex (adjacency_masks); the queries that return vertex
sets build their frozensets from the masks when called.  One simplicial
test on those masks (_simplicial) serves both the simplicial report and
chordality, which peels simplicial vertices until none is left.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Sequence


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


def _members(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _simplicial(masks: Sequence[int], among: int, keep: int) -> int:
    """The vertices of among that are simplicial in the subgraph induced on
    keep, as a bitmask.  v is simplicial there when every neighbour u of v
    in keep is adjacent to all of N[v] & keep, that is when N[v] & keep
    less N(u) is u alone."""
    out = 0
    for v in _members(among):
        closed = (masks[v] | 1 << v) & keep
        if all(closed & ~masks[u] == 1 << u for u in _members(closed ^ 1 << v)):
            out |= 1 << v
    return out


def _reach(masks: Sequence[int], start: int, keep: int) -> int:
    """The vertices of keep joined to the bitmask start by paths inside
    keep, start included: one flood fill over the neighbour masks."""
    comp = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = masks[low.bit_length() - 1] & keep & ~comp
        comp |= new
        frontier |= new
    return comp


class _Record:
    """Base of the package's immutable values: Graph and the value records.

    A class lists its fields in __slots__; a slot whose name starts with
    '_' is private state, not a field.  The generic __init__ binds
    positional and keyword arguments to the fields in slot order, and a
    missing, extra, unknown or repeated field raises TypeError; a call that
    gives every field positionally skips that check.  A class with defaults
    or checks defines its own __init__ and calls super().__init__; Graph
    validates and sets its slots itself.  Assigning or deleting any slot
    afterwards raises AttributeError.  Two values are equal iff they are of
    the same class and their fields are equal, and a value hashes as its
    fields do.  Each class reads its fields through one
    operator.attrgetter, built with the class, so that equality and hashing
    run in C.  copy and pickle rebuild a value by calling its class with
    its fields in order.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__
                            if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)
        # the slots' own setters, which bypass __setattr__ below
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            if len(args) > len(fields) or kwargs.keys() != set(fields[len(args):]):
                raise TypeError(
                    f"{type(self).__name__} takes the fields "
                    f"{', '.join(fields)}, each once; got {len(args)} "
                    f"positional and {sorted(kwargs)}")
            args += tuple(map(kwargs.__getitem__, fields[len(args):]))
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Graph(_Record):
    """Immutable simple undirected connected graph on vertices 0..n-1.

    A _Record with the fields n and edges.  Equality and hashing are
    label-sensitive: two graphs are equal iff they have the same vertex
    count and the same edge set.  __init__ validates its arguments and sets
    every slot itself; the hash of the fields is computed once there, as
    hashing edges costs O(m).  copy and pickle rebuild a graph through
    __init__, and assigning or deleting any slot raises AttributeError.

    The graph stores its adjacency once, as per-vertex neighbour bitmasks in
    the _masks slot (see adjacency_masks); the set queries read them.  Three
    memo slots start empty and are set on first use through _memoised: its
    simplicial_report in _simplicial, its MIS engine's numbering and masks
    (mis._state_masks) in _engine, and its MIS count in _mis_count, recorded
    once a count or a full search of its MISs completes.  All of them live
    exactly as long as the graph object, and none takes part in equality,
    hashing, copy or pickle.
    """

    __slots__ = ("n", "edges", "_hash", "_masks", "_simplicial", "_engine",
                 "_mis_count")

    n: int
    edges: tuple[tuple[int, int], ...]

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
            # per-vertex masks below are allocated
            raise DisconnectedGraphError(f"graph on {n} vertices is not connected")
        edges = tuple(sorted(seen))
        masks = [0] * n
        for u, v in edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        everything = (1 << n) - 1
        if _reach(masks, 1, everything) != everything:
            raise DisconnectedGraphError(f"graph on {n} vertices is not connected")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_hash", hash((n, edges)))
        object.__setattr__(self, "_simplicial", None)
        object.__setattr__(self, "_engine", None)
        object.__setattr__(self, "_mis_count", None)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"

    @property
    def vertices(self) -> range:
        return range(self.n)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise VertexRangeError(f"vertex {v} out of range for n={self.n}")

    def _check_subset(self, vs: Iterable[int]) -> frozenset:
        s = frozenset(vs)
        for v in s:
            self._check_vertex(v)
        return s

    def closed_neighborhood(self, vs: Iterable[int]) -> frozenset:
        """Closed neighborhood N[S]: S and every vertex adjacent to some
        vertex of S."""
        out = 0
        for v in self._check_subset(vs):
            out |= self._masks[v] | 1 << v
        return frozenset(_members(out))

    def is_clique(self, vs: Iterable[int]) -> bool:
        """True iff every pair of distinct vertices in the set is adjacent."""
        s = self._check_subset(vs)
        bits = sum(1 << v for v in s)
        return all(bits & ~self._masks[v] == 1 << v for v in s)


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Per-vertex neighbor bitmasks (bit u of entry v set iff u and v are
    adjacent), built once when the graph is."""
    return g._masks


def relabel(g: Graph, mapping: Sequence[int] | dict) -> Graph:
    """Relabel vertices.  mapping[old] = new must be a bijection on 0..n-1."""
    if isinstance(mapping, dict):
        mapping = [mapping[v] for v in range(g.n)]
    if sorted(mapping) != list(range(g.n)):
        raise GraphError("relabeling is not a bijection on the vertex range")
    return Graph(g.n, [(mapping[u], mapping[v]) for u, v in g.edges])


class SimplicialReport(_Record):
    """Simplicial structure of a graph.

    cliques holds the distinct maximal cliques N[v] over simplicial v,
    ordered by smallest contained vertex.  connection_set holds the vertices
    lying in at least two of those cliques.
    """

    __slots__ = ("simplicial_vertices", "cliques", "connection_set")

    simplicial_vertices: frozenset
    cliques: tuple[frozenset, ...]
    connection_set: frozenset

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


def _memoised(g: Graph, slot: str, build: Callable[[Graph], object]):
    """The value in g's memo slot (see Graph), set to build(g) when the
    slot is still empty."""
    value = getattr(g, slot)
    if value is None:
        value = build(g)
        object.__setattr__(g, slot, value)
    return value


def simplicial_report(g: Graph) -> SimplicialReport:
    """Distinct simplicial cliques, their count, and the connection set.

    Computed once per graph object and memoised on it (see Graph)."""
    return _memoised(g, "_simplicial", _simplicial_report)


def _simplicial_report(g: Graph) -> SimplicialReport:
    masks = g._masks
    everything = (1 << g.n) - 1
    simp = _members(_simplicial(masks, everything, everything))
    # distinct cliques N[v] in order of their first simplicial vertex, then
    # stably sorted by their smallest vertex
    cliques = [frozenset(_members(c)) for c in
               sorted(dict.fromkeys(masks[v] | 1 << v for v in simp),
                      key=lambda c: c & -c)]
    seen: frozenset = frozenset()
    connection: frozenset = frozenset()
    for c in cliques:
        connection |= seen & c
        seen |= c
    return SimplicialReport(frozenset(simp), tuple(cliques), connection)


def is_sccg(g: Graph) -> bool:
    """True iff the simplicial cliques are nonempty and cover every vertex."""
    return len(frozenset().union(*simplicial_report(g).cliques)) == g.n


def is_chordal(g: Graph) -> bool:
    """True iff the graph has no induced cycle of length at least 4.

    Simplicial peeling: a graph is chordal exactly when deleting simplicial
    vertices empties it (Fulkerson and Gross, 1965).  Each round deletes
    every simplicial vertex of the remaining graph and re-tests only the
    neighbours of the vertices just deleted, since no other vertex's
    closed neighbourhood changed; a round that deletes nothing leaves a
    graph with no simplicial vertex, which is not chordal.
    """
    masks = g._masks
    keep = test = (1 << g.n) - 1
    while keep:
        gone = _simplicial(masks, test, keep)
        if not gone:
            return False
        keep ^= gone
        test = 0
        for v in _members(gone):
            test |= masks[v]
        test &= keep
    return True


# --- edge-list file format -------------------------------------------------
#
# UTF-8 text, after at most one byte-order mark.  Lines starting with '#'
# are comments.  The first non-comment line is 'n <count>'; every following
# non-comment line is '<u> <v>' with 0-based indices.  The count and the indices are ASCII decimal digits: no
# sign, no underscore, no digit of another script.  Duplicate edges are
# tolerated.  Writers emit edges sorted by (min endpoint, max endpoint).

def _decimal(token: str) -> int:
    """The value of a token of ASCII digits.  Any other token raises
    ValueError, though int() would read a sign, an underscore or a
    non-ASCII digit."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not ASCII decimal digits: {token!r}")
    return int(token)


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
                n = _decimal(parts[1])
            except ValueError:
                raise EdgeListParseError(lineno, f"bad vertex count {parts[1]!r}") from None
            continue
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected '<u> <v>', got {line!r}")
        try:
            u, v = _decimal(parts[0]), _decimal(parts[1])
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


def _read_text(path: str) -> str:
    """The text of an edge-list file, less one leading UTF-8 byte-order
    mark.  A byte sequence that is not UTF-8 raises EdgeListParseError
    naming the line of its first byte."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the byte, and one character on the byte's line,
        # split as parse_edge_list splits lines
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise EdgeListParseError(
            len(lines), f"not UTF-8: byte 0x{data[exc.start]:02x}") from None


def load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def save_graph(g: Graph, path: str, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g, comments))
