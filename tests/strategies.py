"""Hypothesis strategies shared by the property tests."""

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
