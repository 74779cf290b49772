"""Core hypergraph and simple-graph containers, clique expansion, and
structural statistics.

Vertices are dense integer ids ``0..n-1``. A :class:`Hypergraph` keeps its
hyperedges as an ordered multiset (duplicates are preserved), so size
statistics survive randomization exactly. A :class:`SimpleGraph` is an
immutable undirected graph without self-loops, stored as two CSR int
arrays. Vertex pairs are condensed keys (:func:`condensed_keys`), and pair
computations are numpy joins over them: :func:`wedge_blocks` lists the
neighbor pairs of every vertex (common neighbors, two-hop reach), and
:func:`pair_cooccurrence` counts the pairs inside vertex groups (``H.T @
H``): clique expansion is its support, and the latent generator's
coverage counts are the same count.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

# Wedges per block of wedge_blocks: each block's int64 arrays take about
# 16 MB apiece.
WEDGE_BLOCK = 1 << 21


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

    Its only state is the symmetric adjacency in CSR form, built once as
    two int arrays: row ``u``'s neighbors are
    ``indices[indptr[u]:indptr[u + 1]]``, ascending, so row-major entry
    order is ascending ``(u, v)``. Degrees, edge tests and edge lists are
    array reads; :meth:`neighbors` builds a frozenset on demand for the
    per-pair reference scorers. Callers share the arrays and must not
    modify them.
    """

    __slots__ = ("n", "indptr", "indices")

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
        keys, _ = count_keys(np.concatenate([u * n + v, v * n + u]))
        rows, cols = np.divmod(keys, n)
        self.n = n
        self.indptr = np.searchsorted(rows, np.arange(n + 1))
        self.indices = cols

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self.indices[self.indptr[v] : self.indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _find(self, u: int, v: int) -> int | None:
        """Position of entry ``(u, v)`` in ``indices``, or None."""
        lo = self.indptr[u]
        i = lo + np.searchsorted(self.indices[lo : self.indptr[u + 1]], v)
        return int(i) if i < self.indptr[u + 1] and self.indices[i] == v else None

    def has_edge(self, u: int, v: int) -> bool:
        return self._find(u, v) is not None

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edge_array(self) -> np.ndarray:
        """The edges as an (m, 2) array of rows ``(u, v)``, u < v, in
        ascending order."""
        rows = np.repeat(np.arange(self.n), self.degrees())
        upper = rows < self.indices
        return np.column_stack((rows[upper], self.indices[upper]))

    def edge_keys(self) -> np.ndarray:
        """Ascending condensed keys of the edges."""
        return condensed_keys(self.n, *self.edge_array().T)

    def non_edge_array(self) -> np.ndarray:
        """The non-adjacent pairs as rows ``(u, v)``, u < v, in ascending
        order."""
        missing = np.ones(self.n * (self.n - 1) // 2, dtype=bool)
        missing[self.edge_keys()] = False
        return condensed_pairs(self.n, np.flatnonzero(missing))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as an ordered pair ``(u, v)`` with u < v,
        in ascending order."""
        return map(tuple, self.edge_array().tolist())

    def non_edges(self) -> Iterator[tuple[int, int]]:
        return map(tuple, self.non_edge_array().tolist())

    def without_edge(self, u: int, v: int) -> "SimpleGraph":
        """Copy of the graph with edge ``{u, v}``, its two CSR entries,
        removed."""
        i, j = self._find(u, v), self._find(v, u)
        if i is None:
            raise ValueError(f"({u}, {v}) is not an edge")
        g = SimpleGraph.__new__(SimpleGraph)
        g.n, g.indices = self.n, np.delete(self.indices, [i, j])
        g.indptr = self.indptr.copy()
        g.indptr[u + 1 :] -= 1
        g.indptr[v + 1 :] -= 1
        return g

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=dtype)
        a[np.repeat(np.arange(self.n), self.degrees()), self.indices] = 1
        return a

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        eq = np.array_equal  # indptr fixes n
        return eq(self.indptr, other.indptr) and eq(self.indices, other.indices)

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, |E|={self.edge_count})"


def count_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the int array ``keys``, ascending, and their
    counts, by sort and mask (``np.unique`` hashes int64 in numpy 2.4,
    ~20x slower)."""
    keys = np.sort(keys)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    first = np.flatnonzero(new)
    return keys[first], np.diff(first, append=len(keys))


def _row_base(n: int) -> np.ndarray:
    """``base[r]`` such that the condensed key of (r, c), r < c, is
    ``base[r] + c``."""
    r = np.arange(n, dtype=np.int64)
    return r * (2 * n - r - 3) // 2 - 1


def condensed_keys(n: int, u: ArrayLike, v: ArrayLike) -> np.ndarray:
    """Condensed key ``r*n - r*(r+1)/2 + c - r - 1`` of each pair, with
    ``r = min(u, v)`` and ``c = max(u, v)``: its index in
    ``np.triu_indices(n, 1)`` order."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return _row_base(n)[np.minimum(u, v)] + np.maximum(u, v)


def condensed_pairs(n: int, keys: np.ndarray) -> np.ndarray:
    """The pairs ``(r, c)``, r < c, of condensed ``keys``, as an (m, 2)
    int array: the inverse of :func:`condensed_keys`."""
    base = _row_base(n)
    r = np.searchsorted(base + np.arange(1, n + 1), keys, side="right") - 1
    return np.column_stack((r, keys - base[r]))


def wedge_blocks(
    g: SimpleGraph, held: tuple[np.ndarray, np.ndarray] | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The wedges of ``g``, each centre's neighbor pairs, so a pair occurs
    once per common neighbor: their condensed keys and centre ids, which
    serve every per-centre weight (CN, AA, RA) in one pass.

    Centres come by descending degree, so a weight that falls with degree
    (AA, RA) reaches each pair in ascending order: equal multisets of
    terms, added in this order, give bitwise-equal sums whatever the
    vertex labels. The wedges come in blocks of whole centres, at most
    ``WEDGE_BLOCK`` per block unless one centre has more, so memory stays
    bounded on dense graphs, where the wedges (the sum of d(d-1)/2)
    outnumber the vertex pairs. ``held``, a block from
    :func:`held_wedge_block`, is yielded instead of being rebuilt.
    """
    if held is not None:
        yield held
        return
    deg = g.degrees()
    order = np.argsort(-deg, kind="stable")
    done = np.cumsum(deg[order] * (deg[order] - 1) // 2)  # wedges through each centre
    start = 0
    while start < g.n:
        before = done[start - 1] if start else 0
        stop = max(int(np.searchsorted(done, before + WEDGE_BLOCK, side="right")), start + 1)
        yield _wedges(g, order[start:stop])
        start = stop


def wedge_count(g: SimpleGraph) -> int:
    """The number of wedges of ``g``, the sum of d(d-1)/2."""
    deg = g.degrees()
    return int((deg * (deg - 1) // 2).sum())


def held_wedge_block(g: SimpleGraph) -> tuple[np.ndarray, np.ndarray] | None:
    """All wedges of ``g`` in one block, for several passes to share, or
    None when they exceed ``WEDGE_BLOCK`` and each pass builds its own."""
    fits = g.n and wedge_count(g) <= WEDGE_BLOCK
    return next(wedge_blocks(g)) if fits else None


def _wedges(g: SimpleGraph, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The wedges of ``centres``, in that order (see :func:`wedge_blocks`)."""
    sizes = g.degrees()[centres]
    ends = np.cumsum(sizes)
    pos = np.arange(int(sizes.sum()))
    # the centres' neighbor lists, in that order; each entry opens a wedge
    # with every later entry of its list
    members = g.indices[np.repeat(g.indptr[centres] - (ends - sizes), sizes) + pos]
    after = np.repeat(ends, sizes) - pos - 1
    # wedge t, opened by entry i, closes at entry i + 1 + (t - first wedge of i)
    partner = np.arange(int(after.sum()))
    partner += np.repeat(pos + 1 - (np.cumsum(after) - after), after)
    keys = np.repeat(_row_base(g.n)[members], after)
    keys += members[partner]
    return keys, np.repeat(centres, sizes * (sizes - 1) // 2)


def group_pair_keys(n: int, groups: Sequence[Iterable[int]] | np.ndarray) -> np.ndarray:
    """Condensed keys of every vertex pair inside each group, once per
    group holding the pair. Each group holds distinct ids below ``n``; a
    2-d array holds one equal-size group per row."""
    if isinstance(groups, np.ndarray):
        blocks = [groups]
    else:  # one 2-d block per group size
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        members = np.fromiter(chain.from_iterable(groups), dtype=np.int64, count=int(sizes.sum()))
        starts = np.cumsum(sizes) - sizes
        blocks = [members[starts[sizes == s, None] + np.arange(s)] for s in set(sizes.tolist())]
    base = _row_base(n)
    keys = []
    for block in blocks:
        cols = np.sort(block, axis=1).T.astype(np.int64, order="C")  # row a: member a of each
        a, b = np.triu_indices(len(cols), k=1)
        pairs = base[cols[a]]
        pairs += cols[b]
        keys.append(pairs.ravel())
    return keys[0] if len(keys) == 1 else np.concatenate([np.zeros(0, dtype=np.int64), *keys])


def pair_cooccurrence(
    n: int, groups: Sequence[Iterable[int]] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending condensed keys of the pairs some group holds, and how
    many groups hold each: the stored strict upper triangle of ``H.T @ H``
    for the group-by-vertex incidence ``H`` (Zhou, Huang & Schölkopf,
    NIPS 2006)."""
    return count_keys(group_pair_keys(n, groups))


def clique_expand(h: Hypergraph) -> SimpleGraph:
    """Expand a hypergraph to the simple graph joining every pair of
    vertices that co-occur in at least one hyperedge: the keys of
    :func:`pair_cooccurrence`. Duplicate hyperedges and pairs covered by
    several hyperedges produce a single edge.
    """
    return SimpleGraph(h.n, condensed_pairs(h.n, pair_cooccurrence(h.n, h.hyperedges)[0]))


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
