"""Hypothesis strategies and seeded graph generators shared by the
property tests."""

from random import Random

from hypothesis import strategies as st

from wellcovered.graph import Graph


@st.composite
def connected_graphs(draw, max_n=9):
    """A connected graph on up to max_n vertices: a random labelled spanning
    tree plus random extra edges."""
    n = draw(st.integers(1, max_n))
    label = draw(st.permutations(range(n)))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs))) if pairs else []
    return Graph(n, [(label[u], label[v]) for u, v in tree + extra])


def random_k_tree(rng: Random, k: int, n: int) -> Graph:
    """A random k-tree on n >= k + 1 vertices: K_{k+1} on 0..k, then each
    later vertex joined to k vertices of a (k+1)-clique drawn from those
    built so far.  Every k-tree is chordal."""
    cliques = [list(range(k + 1))]
    edges = [(u, v) for v in range(k + 1) for u in range(v)]
    for v in range(k + 1, n):
        base = list(rng.choice(cliques))
        base.remove(rng.choice(base))
        edges += [(u, v) for u in base]
        cliques.append(base + [v])
    return Graph(n, edges)
