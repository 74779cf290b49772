"""Core hypergraph and simple-graph containers, clique expansion, and
structural statistics.

Vertices are dense integer ids ``0..n-1``. A :class:`Hypergraph` keeps its
hyperedges as an ordered multiset (duplicates are preserved), so size
statistics survive randomization exactly. A :class:`SimpleGraph` is an
immutable undirected graph without self-loops.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp


class Hypergraph:
    """A vertex count plus an ordered multiset of hyperedges.

    Each hyperedge is a set of at least two distinct vertex ids below ``n``.
    Duplicate hyperedges are allowed and preserved in order.
    """

    __slots__ = ("n", "hyperedges", "__weakref__")

    def __init__(self, n: int, hyperedges: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edges = []
        for pos, raw in enumerate(hyperedges):
            f = frozenset(raw)
            if len(f) < 2:
                raise ValueError(
                    f"hyperedge #{pos} has {len(f)} distinct vertices; need >= 2"
                )
            for v in f:
                if not (0 <= v < n):
                    raise ValueError(
                        f"hyperedge #{pos} contains vertex {v}, outside 0..{n - 1}"
                    )
            edges.append(f)
        self.n = n
        self.hyperedges: tuple[frozenset[int], ...] = tuple(edges)

    def __len__(self) -> int:
        return len(self.hyperedges)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.hyperedges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.hyperedges == other.hyperedges

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, |F|={len(self.hyperedges)})"


class SimpleGraph:
    """Immutable undirected graph over vertices ``0..n-1``.

    Adjacency is stored as one frozenset of neighbors per vertex, so
    derived graphs (e.g. with one edge removed) can share unchanged rows.
    """

    __slots__ = ("n", "_adj", "_edge_count", "_hash", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._edge_count = sum(len(s) for s in self._adj) // 2
        self._hash = None
        self._csr = None

    @classmethod
    def _from_adj(cls, n: int, adj: tuple[frozenset[int], ...]) -> "SimpleGraph":
        # Trusted fast path: caller guarantees symmetry and no self-loops.
        g = cls.__new__(cls)
        g.n = n
        g._adj = adj
        g._edge_count = sum(len(s) for s in adj) // 2
        g._hash = None
        g._csr = None
        return g

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as an ordered pair ``(u, v)`` with u < v."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def non_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self._adj[u]
            for v in range(u + 1, self.n):
                if v not in row:
                    yield (u, v)

    def without_edge(self, u: int, v: int) -> "SimpleGraph":
        """Copy of the graph with edge ``{u, v}`` removed (rows shared
        elsewhere)."""
        if not self.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge")
        rows = list(self._adj)
        rows[u] = rows[u] - {v}
        rows[v] = rows[v] - {u}
        return SimpleGraph._from_adj(self.n, tuple(rows))

    def adjacency_csr(self) -> sp.csr_array:
        """0/1 float adjacency in CSR form with sorted column indices, so
        row-major entry order is ascending ``(u, v)``. Built on first use
        and kept: callers share it and must not modify it."""
        if self._csr is None:
            idx = sp.get_index_dtype(maxval=max(self.n, 2 * self._edge_count))
            indptr = np.zeros(self.n + 1, dtype=idx)
            np.cumsum([len(row) for row in self._adj], out=indptr[1:])
            indices = np.fromiter(
                (v for row in self._adj for v in sorted(row)), dtype=idx, count=indptr[-1]
            )
            self._csr = sp.csr_array((np.ones(len(indices)), indices, indptr), shape=(self.n,) * 2)
        return self._csr

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        return self.adjacency_csr().toarray().astype(dtype, copy=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._adj))
        return self._hash

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, |E|={self._edge_count})"


def clique_expand(h: Hypergraph) -> SimpleGraph:
    """Expand a hypergraph to the simple graph joining every pair of
    vertices that co-occur in at least one hyperedge.

    The result is a plain union: duplicate hyperedges and pairs covered by
    several hyperedges produce a single edge.
    """
    adj: list[set[int]] = [set() for _ in range(h.n)]
    for f in h.hyperedges:
        for u, v in combinations(f, 2):
            adj[u].add(v)
            adj[v].add(u)
    return SimpleGraph._from_adj(h.n, tuple(frozenset(s) for s in adj))


def width(h: Hypergraph) -> int:
    """Largest hyperedge cardinality. Widths above 2 are what distinguish
    genuinely higher-order structure from an edge list."""
    if not h.hyperedges:
        raise ValueError("width is undefined for a hypergraph with no hyperedges")
    return max(len(f) for f in h.hyperedges)


def size_distribution(h: Hypergraph) -> dict[int, int]:
    """Map hyperedge cardinality -> number of hyperedges of that size
    (duplicates counted)."""
    return dict(Counter(len(f) for f in h.hyperedges))


def common_neighbors_count(g: SimpleGraph, u: int, v: int) -> int:
    """Number of vertices adjacent to both ``u`` and ``v``."""
    if u == v:
        raise ValueError("common neighbors are undefined for a vertex with itself")
    return len(g.neighbors(u) & g.neighbors(v))


def hypergraph_from_labels(
    rows: Iterable[Sequence[str]],
) -> tuple[Hypergraph, list[str]]:
    """Build a dense-id hypergraph from rows of arbitrary vertex labels.

    Returns the hypergraph plus the label list indexed by dense id (first
    appearance order). Rows are assumed pre-validated (>= 2 distinct labels).
    """
    label_to_id: dict[str, int] = {}
    edges = []
    for row in rows:
        ids = []
        for label in row:
            if label not in label_to_id:
                label_to_id[label] = len(label_to_id)
            ids.append(label_to_id[label])
        edges.append(ids)
    labels = [None] * len(label_to_id)
    for label, i in label_to_id.items():
        labels[i] = label
    return Hypergraph(len(label_to_id), edges), labels
