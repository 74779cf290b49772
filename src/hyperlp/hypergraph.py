"""Core hypergraph and simple-graph containers, clique expansion, and
structural statistics.

Vertices are dense integer ids ``0..n-1``. A :class:`Hypergraph` keeps its
hyperedges as an ordered multiset (duplicates are preserved), so size
statistics survive randomization exactly. A :class:`SimpleGraph` is an
immutable undirected graph without self-loops, stored as one sorted CSR
adjacency. :func:`pair_cooccurrence` counts, for every vertex pair, the
groups holding both; clique expansion is the support of those counts, and
the latent generator's per-size coverage counts are the same product.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp


class Hypergraph:
    """A vertex count plus an ordered multiset of hyperedges.

    Each hyperedge is a set of at least two distinct vertex ids below ``n``.
    Duplicate hyperedges are allowed and preserved in order.
    """

    __slots__ = ("n", "hyperedges")

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

    Its only state is the symmetric 0/1 adjacency in CSR form, built once:
    column indices are sorted, so row-major entry order is ascending
    ``(u, v)``. Degrees, edge tests and edge lists are array reads;
    :meth:`neighbors` builds a frozenset on demand for the per-pair
    reference scorers.
    """

    __slots__ = ("n", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        u, v = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2).T
        bad = np.flatnonzero((u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n))
        if len(bad):
            a, b = int(u[bad[0]]), int(v[bad[0]])
            if a == b:
                raise ValueError(f"self-loop at vertex {a} is not allowed")
            raise ValueError(f"edge ({a}, {b}) outside 0..{n - 1}")
        # Both directions, deduplicated: ascending keys are row-major order.
        # Sort and mask: np.unique, hash-based in numpy 2.4, is ~20x slower.
        key = np.sort(np.concatenate([u * n + v, v * n + u]))
        rows, cols = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
        idx = sp.get_index_dtype(maxval=max(n, len(rows)))
        indptr = np.searchsorted(rows, np.arange(n + 1)).astype(idx)
        self.n = n
        self._csr = sp.csr_array((np.ones(len(rows)), cols.astype(idx), indptr), shape=(n, n))

    def neighbors(self, v: int) -> frozenset[int]:
        a = self._csr
        return frozenset(a.indices[a.indptr[v] : a.indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return int(self._csr.indptr[v + 1] - self._csr.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        a = self._csr
        row = a.indices[a.indptr[u] : a.indptr[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    @property
    def edge_count(self) -> int:
        return self._csr.nnz // 2

    def edge_array(self) -> np.ndarray:
        """The edges as an (m, 2) array of rows ``(u, v)``, u < v, in
        ascending order."""
        return np.column_stack(sp.triu(self._csr, k=1).nonzero()).astype(np.int64)

    def non_edge_array(self) -> np.ndarray:
        """The non-adjacent pairs as rows ``(u, v)``, u < v, in ascending
        order."""
        return np.argwhere(np.triu(self._csr.toarray() == 0, k=1))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as an ordered pair ``(u, v)`` with u < v,
        in ascending order."""
        return map(tuple, self.edge_array().tolist())

    def non_edges(self) -> Iterator[tuple[int, int]]:
        return map(tuple, self.non_edge_array().tolist())

    def without_edge(self, u: int, v: int) -> "SimpleGraph":
        """Copy of the graph with edge ``{u, v}``, its two CSR entries,
        removed."""
        a = self._csr.copy()
        rows = np.repeat(np.arange(self.n), np.diff(a.indptr))
        hit = ((rows == u) & (a.indices == v)) | ((rows == v) & (a.indices == u))
        if not hit.any():
            raise ValueError(f"({u}, {v}) is not an edge")
        a.data[hit] = 0.0
        a.eliminate_zeros()
        g = SimpleGraph.__new__(SimpleGraph)
        g.n, g._csr = self.n, a
        return g

    def adjacency_csr(self) -> sp.csr_array:
        """0/1 float adjacency in CSR form with sorted column indices, so
        row-major entry order is ascending ``(u, v)``. Callers share it and
        must not modify it."""
        return self._csr

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        return self._csr.toarray().astype(dtype, copy=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and (self._csr != other._csr).nnz == 0

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, |E|={self.edge_count})"


def pair_cooccurrence(n: int, groups: Sequence[Iterable[int]] | np.ndarray) -> sp.csr_array:
    """Pair co-occurrence counts of vertex groups, upper triangle only.

    Entry ``(i, j)``, i < j, counts the groups holding both ``i`` and
    ``j``: the strict upper triangle of ``H.T @ H`` for the group-by-vertex
    incidence matrix ``H`` (Zhou, Huang & Schölkopf, NIPS 2006). Each group
    holds distinct ids below ``n``; a 2-d array holds one equal-size group
    per row. Entries are integers with sorted indices; pairs that share no
    group are not stored.
    """
    if isinstance(groups, np.ndarray):
        sizes, members = np.full(len(groups), groups.shape[1]), groups.ravel()
    else:
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        members = np.fromiter(chain.from_iterable(groups), dtype=np.int64, count=int(sizes.sum()))
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    ones = np.ones(len(members), dtype=np.int64)
    h = sp.csr_array((ones, members, indptr), shape=(len(groups), n))
    return sp.triu(h.T @ h, k=1, format="csr")


def clique_expand(h: Hypergraph) -> SimpleGraph:
    """Expand a hypergraph to the simple graph joining every pair of
    vertices that co-occur in at least one hyperedge: the support of
    :func:`pair_cooccurrence`. Duplicate hyperedges and pairs covered by
    several hyperedges produce a single edge.
    """
    return SimpleGraph(h.n, np.column_stack(pair_cooccurrence(h.n, h.hyperedges).nonzero()))


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
