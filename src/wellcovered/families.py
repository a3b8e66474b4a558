"""Deterministic graph generators: standard families, the named example
graphs shipped in the corpus, Sierpinski gaskets, and simplicial clique sums.

Every generator is pure and label-stable: the same call always returns the
same Graph with the same vertex numbering.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .graph import (Graph, _reach, _Record, adjacency_masks,
                    contains_simplicial_vertex, simplicial_report)

SIERPINSKI_MAX_ORDER = 7
FAMILY_MAX_K = 64


class ScsValidationError(ValueError):
    """A clique-sum specification violates one of the defining clauses.

    clause is one of: glue-not-injective, not-clique-in-g1, not-clique-in-g2,
    not-simplicial-in-g1, not-simplicial-in-g2, not-simplicial-in-composite.
    """

    def __init__(self, clause: str, message: str) -> None:
        super().__init__(f"{clause}: {message}")
        self.clause = clause


def complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    """Star with the given number of leaves; vertex 0 is the center."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# --- Sierpinski gasket graphs -----------------------------------------------

class SierpinskiGraph(_Record):
    """Sierpinski gasket graph of a given order with geometric bookkeeping.

    corners are the three outer triangle vertices; corner_cliques are the
    three simplicial corner triangles (the whole triangle itself at order 1).
    """

    __slots__ = ("order", "graph", "corners", "corner_cliques")

    order: int
    graph: Graph
    corners: tuple[int, int, int]
    corner_cliques: tuple[frozenset, frozenset, frozenset]


def _sierpinski_lattice(order: int) -> tuple[set, set]:
    verts = {(0, 0), (2, 0), (1, 1)}
    edges = {((0, 0), (2, 0)), ((0, 0), (1, 1)), ((2, 0), (1, 1))}
    for k in range(1, order):
        width = 2 ** k
        offsets = ((0, 0), (width, 0), (width // 2, width // 2))
        next_verts: set = set()
        next_edges: set = set()
        for ox, oy in offsets:
            for x, y in verts:
                next_verts.add((x + ox, y + oy))
            for (ax, ay), (bx, by) in edges:
                next_edges.add(((ax + ox, ay + oy), (bx + ox, by + oy)))
        verts, edges = next_verts, next_edges
    return verts, edges


def sierpinski(order: int) -> SierpinskiGraph:
    """Sierpinski gasket graph: three copies of the previous order sharing
    corner vertices, built on an integer lattice and renumbered in
    lexicographic coordinate order."""
    if not (1 <= order <= SIERPINSKI_MAX_ORDER):
        raise ValueError(f"order must be in 1..{SIERPINSKI_MAX_ORDER}, got {order}")
    verts, edges = _sierpinski_lattice(order)
    coords = sorted(verts)
    index = {c: i for i, c in enumerate(coords)}
    g = Graph(len(coords), [(index[a], index[b]) for a, b in edges])

    width = 2 ** order
    corners = (index[(0, 0)], index[(width // 2, width // 2)], index[(width, 0)])
    if order == 1:
        whole = frozenset(range(3))
        cliques = (whole, whole, whole)
    else:
        cliques = tuple(g.closed_neighborhood([c]) for c in corners)
    return SierpinskiGraph(order=order, graph=g, corners=corners,
                           corner_cliques=cliques)


# --- named example graphs ----------------------------------------------------
#
# The figure graphs are fixed transcriptions of drawn examples; the label
# maps recorded in the corpus headers tie the 0-based indices used here to
# the labels in the drawings.

def figure1() -> Graph:
    """Ten-vertex SCCG with three pairwise disjoint simplicial cliques
    {0,1,2}, {3,4,5}, {6,7,8,9} and an empty connection set.  Vertex 2 is a
    high-degree non-simplicial hub inside the first clique."""
    return Graph(10, [
        (0, 1), (0, 2), (1, 2),              # first triangle
        (3, 4), (3, 5), (4, 5),              # second triangle
        (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),  # the 4-clique
        (2, 3), (2, 4), (2, 6), (2, 7),      # hub edges out of vertex 2
        (4, 6),                              # bridge between clique 2 and 3
    ])


def figure2_family(k: int) -> Graph:
    """Clique block on k+2 vertices sharing vertex 0 with a two-edge tail.

    Every member has exactly two simplicial cliques (the block and the far
    tail edge), so sc = 2 for all k.
    """
    if not (1 <= k <= FAMILY_MAX_K):
        raise ValueError(f"k must be in 1..{FAMILY_MAX_K}, got {k}")
    block = k + 2
    edges = [(i, j) for i in range(block) for j in range(i + 1, block)]
    edges += [(0, block), (block, block + 1)]
    return Graph(block + 2, edges)


def figure6_g1() -> Graph:
    """Seven-vertex SCCG that is not chordal; simplicial cliques {0,3,4} and
    {1,2,5,6}.  Drawn labels w1..w7 map to 0..6."""
    return Graph(7, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6),
                     (2, 5), (2, 6), (3, 4), (4, 5), (5, 6)])


def figure6_g2() -> Graph:
    """Seven-vertex chordal graph that is not an SCCG: a 4-clique {0,1,2,6}
    with a three-edge path hanging off vertex 1.  Drawn labels
    w2,w3,w6,w7,w8,w9,w10 map to 0..6."""
    return Graph(7, [(0, 1), (0, 2), (0, 6), (1, 2), (1, 3), (1, 6),
                     (2, 6), (3, 4), (4, 5)])


def figure6_composite() -> Graph:
    """Clique sum of figure6_g1 and figure6_g2 over their shared 4-clique,
    as transcribed: drawn labels w1..w10 map to 0..9."""
    return Graph(10, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (1, 9),
                      (2, 5), (2, 6), (2, 9), (3, 4), (4, 5), (5, 9),
                      (6, 7), (7, 8)])


def triangle_pendant_g1() -> Graph:
    """Triangle {0,1,2} with pendant vertex 3 attached at 0."""
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


def triangle_pendant_g2() -> Graph:
    """Triangle {0,1,2} with pendant vertex 3 attached at 1."""
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])


def _sccg_mod(extra: Sequence[tuple[int, int]]) -> Graph:
    base = [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 5), (3, 4)]
    return Graph(6, base + list(extra))


def sccg_mod_base() -> Graph:
    """Two triangles {0,3,4} and {1,2,5} joined by the edge 0-1; the base of
    a family of SCCGs sharing the same two simplicial cliques."""
    return _sccg_mod([])


def vertex_bowtie() -> Graph:
    """Two triangles sharing vertex 2; the single connection vertex makes the
    one-vertex MIS {2} possible."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def diamond() -> Graph:
    """Two triangles sharing the edge 1-2; both shared vertices lie in two
    simplicial cliques, so the connection set is {1, 2}."""
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


# --- simplicial clique sums ---------------------------------------------------

class ScsSpec(_Record):
    """Recipe for a clique sum: the glue mapping sends each shared g2
    vertex to its g1 counterpart, stored as its sorted (g2, g1) pairs.  The
    glued set must be a simplicial clique of both parts and of the
    composite."""

    __slots__ = ("g1", "g2", "glue")

    g1: Graph
    g2: Graph
    glue: tuple[tuple[int, int], ...]

    def __init__(self, g1: Graph, g2: Graph, glue: Mapping[int, int]) -> None:
        super().__init__(g1, g2, tuple(sorted(glue.items())))

    def __reduce__(self):
        return ScsSpec, (self.g1, self.g2, self.glue_map())

    def glue_map(self) -> dict[int, int]:
        return dict(self.glue)


class ScsComposition(_Record):
    """A composed clique sum with provenance: the composite keeps g1's
    labels, and position i of g2_to_composite is the composite label of
    g2's vertex i."""

    __slots__ = ("graph", "shared", "g2_to_composite")

    graph: Graph
    shared: frozenset
    g2_to_composite: tuple[int, ...]


def scs_compose(spec: ScsSpec) -> ScsComposition:
    """Glue two graphs along a shared simplicial clique.

    Validates every defining clause and raises ScsValidationError naming the
    first failed one.  The composite keeps g1's labels and appends g2's
    unshared vertices in increasing order, so output labeling is canonical.
    No edge ever joins an unshared g1 vertex to an unshared g2 vertex.
    """
    g1, g2 = spec.g1, spec.g2
    glue = spec.glue_map()
    dom = g2._check_subset(glue.keys())
    img = g1._check_subset(glue.values())
    if len(img) != len(dom):
        raise ScsValidationError("glue-not-injective",
                                 f"{len(dom)} domain vertices map to {len(img)}")
    if not g1.is_clique(img):
        raise ScsValidationError("not-clique-in-g1", f"{sorted(img)}")
    if not g2.is_clique(dom):
        raise ScsValidationError("not-clique-in-g2", f"{sorted(dom)}")
    if not contains_simplicial_vertex(g1, img):
        raise ScsValidationError(
            "not-simplicial-in-g1",
            f"{sorted(img)} holds no simplicial vertex of the first graph")
    if not contains_simplicial_vertex(g2, dom):
        raise ScsValidationError(
            "not-simplicial-in-g2",
            f"{sorted(dom)} holds no simplicial vertex of the second graph")

    g2_map = dict(glue)
    next_label = g1.n
    for v in range(g2.n):
        if v not in g2_map:
            g2_map[v] = next_label
            next_label += 1
    n = next_label
    edges = list(g1.edges)
    edges += [(g2_map[u], g2_map[v]) for u, v in g2.edges]
    composite = Graph(n, edges)
    shared = frozenset(img)
    if not contains_simplicial_vertex(composite, shared):
        raise ScsValidationError(
            "not-simplicial-in-composite",
            f"{sorted(shared)} holds no simplicial vertex of the composite")
    return ScsComposition(
        graph=composite,
        shared=shared,
        g2_to_composite=tuple(g2_map[v] for v in range(g2.n)),
    )


def scs_split(g: Graph) -> frozenset | None:
    """The first simplicial clique, in simplicial_report order, whose
    removal leaves the rest in more than one component, or None when no
    simplicial clique does: the graph is a clique sum exactly when some
    clique does.

    Any grouping of the components of g - C into two nonempty sides splits
    the graph along C.  C is N[v] for a simplicial vertex v, and each part
    contains C, so v keeps N[v] = C there and C stays simplicial in both
    parts.  Every component of g - C has a neighbour in C, so each part is
    connected, and no edge joins the two sides.
    """
    masks = adjacency_masks(g)
    for clique in simplicial_report(g).cliques:
        rest = (1 << g.n) - 1 - sum(1 << v for v in clique)
        # the rest falls apart when a flood fill from its lowest vertex
        # misses part of it
        if rest and _reach(masks, rest & -rest, rest) != rest:
            return clique
    return None


def triangle_pendant_spec() -> ScsSpec:
    """Two triangle-plus-pendant graphs glued over the shared triangle."""
    return ScsSpec(triangle_pendant_g1(), triangle_pendant_g2(),
                   {0: 0, 1: 1, 2: 2})


def figure6_spec() -> ScsSpec:
    """figure6_g1 glued to figure6_g2 over the shared 4-clique."""
    return ScsSpec(figure6_g1(), figure6_g2(), {0: 1, 1: 2, 2: 5, 6: 6})


# --- the shipped corpus -------------------------------------------------------

def _corpus_entries() -> dict[str, tuple[Callable[[], Graph], tuple[str, ...]]]:
    entries: dict[str, tuple[Callable[[], Graph], tuple[str, ...]]] = {}

    def add(name: str, builder: Callable[[], Graph], *comment: str) -> None:
        entries[name] = (builder, tuple(comment))

    add("single_vertex", lambda: Graph(1, []),
        "single_vertex: degenerate one-vertex graph, connected by convention")
    for n in (2, 3, 4, 5):
        add(f"k{n}", lambda n=n: complete(n), f"k{n}: complete graph on {n} vertices")
    for n in (5, 6, 7, 8, 9):
        add(f"p{n}", lambda n=n: path(n), f"p{n}: path on {n} vertices")
    for n in (4, 8, 9, 10, 11, 12):
        add(f"c{n}", lambda n=n: cycle(n), f"c{n}: cycle on {n} vertices")
    for m in (3, 5):
        add(f"star_{m}", lambda m=m: star(m),
            f"star_{m}: center 0 with {m} leaves; the center joins every simplicial edge")

    add("figure1", figure1,
        "figure1: SCCG with simplicial cliques {0,1,2} {3,4,5} {6,7,8,9} and empty connection set",
        "label map: v1..v10 -> 0..9")
    for k in (1, 2, 3, 4, 5):
        add(f"figure2_k{k}", lambda k=k: figure2_family(k),
            f"figure2_k{k}: clique block on {k + 2} vertices plus two-edge tail at vertex 0")
    add("figure6_g1", figure6_g1,
        "figure6_g1: non-chordal SCCG half of the clique-sum example",
        "label map: w1..w7 -> 0..6")
    add("figure6_g2", figure6_g2,
        "figure6_g2: chordal non-SCCG half of the clique-sum example",
        "label map: w2,w3,w6,w7,w8,w9,w10 -> 0..6")
    add("figure6", figure6_composite,
        "figure6: clique sum of figure6_g1 and figure6_g2 over the shared 4-clique",
        "label map: w1..w10 -> 0..9; shared clique {1,2,5,9}")

    add("triangle_pendant_g1", triangle_pendant_g1,
        "triangle_pendant_g1: triangle {0,1,2} with pendant 3 at vertex 0")
    add("triangle_pendant_g2", triangle_pendant_g2,
        "triangle_pendant_g2: triangle {0,1,2} with pendant 3 at vertex 1")
    add("triangle_pendant",
        lambda: scs_compose(triangle_pendant_spec()).graph,
        "triangle_pendant: clique sum of the two pendant triangles over {0,1,2}")

    add("vertex_bowtie", vertex_bowtie,
        "vertex_bowtie: two triangles sharing vertex 2; connection set {2}")
    add("diamond", diamond,
        "diamond: two triangles sharing edge 1-2; connection set {1,2}")
    add("sccg_mod_base", sccg_mod_base,
        "sccg_mod_base: triangles {0,3,4} and {1,2,5} joined by edge 0-1")
    mods = {
        "a": [(0, 5)],
        "b": [(4, 5)],
        "c": [(1, 4), (4, 5)],
        "d": [(1, 4), (0, 5)],
        "e": [(1, 4), (0, 5), (4, 5)],
    }
    for tag, extra in mods.items():
        add(f"sccg_mod_{tag}", lambda extra=tuple(extra): _sccg_mod(extra),
            f"sccg_mod_{tag}: sccg_mod_base plus edges {sorted(extra)};"
            " same two simplicial cliques")

    for order in (1, 2, 3, 4):
        add(f"sierpinski_{order}", lambda o=order: sierpinski(o).graph,
            f"sierpinski_{order}: order-{order} Sierpinski gasket graph,"
            " lexicographic lattice labels")
    return entries


_CORPUS = _corpus_entries()


def corpus_names() -> list[str]:
    return sorted(_CORPUS)


def corpus_graph(name: str) -> Graph:
    try:
        builder, _ = _CORPUS[name]
    except KeyError:
        raise KeyError(f"unknown corpus graph {name!r}") from None
    return builder()


def corpus_comments(name: str) -> tuple[str, ...]:
    return _CORPUS[name][1]


def named_corpus() -> dict[str, Graph]:
    """All shipped corpus graphs by name (deterministic insertion order)."""
    return {name: corpus_graph(name) for name in corpus_names()}
