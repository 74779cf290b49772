import numpy as np
import pytest
from hypothesis import strategies as st

from hyperlp import Hypergraph, SimpleGraph


@pytest.fixture
def five_vertex():
    """Two hyperedges over five vertices: one triple {0,1,2} and one pair
    {3,4}. Small enough that every score is hand-checkable."""
    return Hypergraph(5, [[0, 1, 2], [3, 4]])


@pytest.fixture
def five_vertex_file(tmp_path):
    path = tmp_path / "toy.hyg"
    path.write_text("a b c\nd e\n")
    return path


def random_hypergraph(rng: np.random.Generator, n: int, m: int, max_size: int = 4):
    """Random hypergraph with m hyperedges of sizes 2..max_size."""
    edges = []
    for _ in range(m):
        k = int(rng.integers(2, max_size + 1))
        edges.append([int(x) for x in rng.choice(n, size=k, replace=False)])
    return Hypergraph(n, edges)


@st.composite
def graphs(draw, min_n: int = 2, max_n: int = 10):
    """Hypothesis strategy: a SimpleGraph on min_n..max_n vertices with an
    arbitrary edge subset."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, [p for p, k in zip(pairs, keep) if k])
