"""Core hypergraph and simple-graph containers, clique expansion, and
structural statistics.

Vertices are dense integer ids ``0..n-1``. A :class:`Hypergraph` keeps
its hyperedges as an ordered multiset (duplicates are preserved), so
size statistics survive randomization exactly; it is one CSR pair of int
arrays, a row of ascending ids per hyperedge, built and validated from
lists or from (sizes, members) arrays. A :class:`SimpleGraph` is an
immutable undirected graph without self-loops, stored as two CSR int
arrays. Vertex pairs are condensed keys (:func:`condensed_keys`), and
pair computations are numpy joins over them: :func:`wedge_blocks` lists
the neighbor pairs of every vertex (common neighbors, two-hop reach),
and :func:`group_pair_keys` lists the pairs inside vertex groups, each
once per group holding it, so a pair's count is its entry of ``H.T @ H``
for the group-by-vertex incidence ``H`` (Zhou, Huang & Schölkopf, NIPS
2006): clique expansion is the distinct keys, and the latent generator's
coverage counts are their multiplicities. Where a graph's pairs are few
beside its wedges (:func:`packs`), its rows are packed into bits instead
(:func:`packed_rows`): the OR of a vertex's neighbor rows is its two-hop
reach (:func:`reach_mark`), and the bits set in ANDed rows
(:func:`row_hits`) common neighbors, or a clique's extensions in the
latent generator. :func:`reach_keys`, the pairs within a hop limit, and
:func:`common_neighbor_hits` take whichever the graph suits. Reach sorts
the edge and wedge keys otherwise, then, hop by hop, the pairs reached
so far with one end moved to a neighbor; given pairs merge their
endpoints' neighbor lists.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

# Wedges per block of wedge_blocks: each block's int64 arrays take about
# 16 MB apiece.
WEDGE_BLOCK = 1 << 21
# Bytes of packed rows gathered, ANDed or unpacked at a time: 1 MB chunks
# stay in a core's 2 MB L2 cache; at n=5,000 on a 2-vCPU Xeon they reduce
# the neighbor rows in a third of the time 16 MB chunks take. Also the most
# pair keys the latent generator's coverage counts take at a time.
ROW_BLOCK = 1 << 20


class Hypergraph:
    """A vertex count plus an ordered multiset of hyperedges, stored as one
    CSR pair: hyperedge ``i`` is ``members[indptr[i]:indptr[i + 1]]``.

    Each hyperedge is a set of at least two distinct vertex ids below
    ``n``: its row is ascending, and an id repeated within one hyperedge
    is kept once. Duplicate hyperedges are allowed and preserved in
    order. Iterating yields each hyperedge as a frozenset, built on
    demand. Callers share the arrays and must not modify them.
    """

    __slots__ = ("n", "indptr", "members")

    def __init__(self, n: int, hyperedges: Iterable[Iterable[int]]):
        rows = [list(f) for f in hyperedges]
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        self._store(n, sizes, np.array(list(chain.from_iterable(rows))))

    @classmethod
    def from_arrays(cls, n: int, sizes: ArrayLike, members: ArrayLike) -> Hypergraph:
        """The hypergraph whose hyperedge ``i`` is the next ``sizes[i]``
        ids of ``members``, validated as the list constructor is."""
        h = cls.__new__(cls)
        h._store(n, sizes, members)
        return h

    def _store(self, n: int, sizes: ArrayLike, members: ArrayLike) -> None:
        """Validate, sort and deduplicate each row, and keep the CSR pair.
        The first invalid hyperedge raises: fewer than two distinct ids,
        else an id outside ``0..n-1`` (the smallest)."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        members = np.asarray(members)
        if members.size and members.dtype.kind not in "biu":
            raise ValueError(f"vertex ids must be integers, got {members.dtype} ids")
        members = members.astype(np.int64)  # a copy, sorted in place below
        sizes = np.asarray(sizes, dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        rows = np.repeat(np.arange(len(sizes)), sizes)
        same_row = rows[1:] == rows[:-1]
        if (members[1:] <= members[:-1])[same_row].any():  # some row not ascending
            for at in _rows_by_size(indptr):
                members[at] = np.sort(members[at], axis=1)
        dup = np.zeros(len(members), dtype=bool)
        dup[1:] = (members[1:] == members[:-1]) & same_row
        distinct = sizes - np.bincount(rows[dup], minlength=len(sizes))
        outside = (members < 0) | (members >= n)
        bad = distinct < 2
        bad[rows[outside]] = True
        if bad.any():
            pos = int(np.argmax(bad))
            if distinct[pos] < 2:
                raise ValueError(
                    f"hyperedge #{pos} has {distinct[pos]} distinct vertices; need >= 2"
                )
            row = slice(indptr[pos], indptr[pos + 1])
            v = members[row][outside[row]][0]
            raise ValueError(f"hyperedge #{pos} contains vertex {v}, outside 0..{n - 1}")
        if dup.any():
            members = members[~dup]
            indptr = np.concatenate(([0], np.cumsum(distinct)))
        self.n, self.indptr, self.members = n, indptr, members

    @property
    def sizes(self) -> np.ndarray:
        """Each hyperedge's cardinality, in order."""
        return np.diff(self.indptr)

    def blocks(self) -> list[np.ndarray]:
        """The hyperedges as one (m_s, s) array per size s, ascending in
        s; rows keep their hyperedge order."""
        return [self.members[at] for at in _rows_by_size(self.indptr)]

    def rows(self) -> list[list[int]]:
        """Each hyperedge's ids as an ascending list, in order."""
        ids, bounds = self.members.tolist(), self.indptr.tolist()
        return [ids[a:b] for a, b in zip(bounds, bounds[1:])]

    @property
    def hyperedges(self) -> tuple[frozenset[int], ...]:
        """Every hyperedge as a frozenset, in order."""
        return tuple(self)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self) -> Iterator[frozenset[int]]:
        return map(frozenset, self.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        eq = np.array_equal
        return self.n == other.n and eq(self.indptr, other.indptr) and eq(self.members, other.members)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, |F|={len(self)})"


def _rows_by_size(indptr: np.ndarray) -> Iterator[np.ndarray]:
    """Per distinct row size s of the CSR ``indptr``, ascending: the
    (m_s, s) positions of those rows' entries, rows in order."""
    sizes = np.diff(indptr)
    for s in distinct_keys(sizes).tolist():
        yield indptr[:-1][sizes == s, None] + np.arange(s)


class SimpleGraph:
    """Immutable undirected graph over vertices ``0..n-1``.

    Its only state is the symmetric adjacency in CSR form, built once as
    two int arrays: row ``u``'s neighbors are
    ``indices[indptr[u]:indptr[u + 1]]``, ascending, so row-major entry
    order is ascending ``(u, v)``. Degrees, edge keys and edge lists are
    whole-array reads; :meth:`without_edge` raises ``ValueError`` for a
    vertex outside ``0..n-1``. Callers share the arrays and must not
    modify them.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        u, v = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2).T
        bad = np.flatnonzero(_invalid_pairs(n, u, v))
        if len(bad):
            a, b = int(u[bad[0]]), int(v[bad[0]])
            if a == b:
                raise ValueError(f"self-loop at vertex {a} is not allowed")
            raise ValueError(f"edge ({a}, {b}) outside 0..{n - 1}")
        # Both directions, deduplicated: ascending keys are row-major order.
        keys = distinct_keys(np.concatenate([u * n + v, v * n + u]))
        rows, cols = np.divmod(keys, n)
        self.n = n
        self.indptr = np.searchsorted(rows, np.arange(n + 1))
        self.indices = cols

    def _check(self, *vertices: int) -> None:
        """Raise for the first of ``vertices`` outside ``0..n-1``: a
        negative id would wrap around ``indptr``."""
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} outside 0..{self.n - 1}")

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _find(self, u: int, v: int) -> int | None:
        """Position of entry ``(u, v)`` in ``indices``, or None."""
        self._check(u, v)
        lo = self.indptr[u]
        i = lo + np.searchsorted(self.indices[lo : self.indptr[u + 1]], v)
        return int(i) if i < self.indptr[u + 1] and self.indices[i] == v else None

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
        return _keys(self.n, *self.edge_array().T)

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


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the int array ``keys``, ascending, by sort
    and mask (``np.unique`` hashes int64 in numpy 2.4, ~20x slower)."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def count_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`distinct_keys` and how many times each occurs."""
    keys = np.sort(keys)
    first = np.flatnonzero(_run_starts(keys))
    return keys[first], np.diff(first, append=len(keys))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Whether each entry of the sorted ``keys`` differs from the last."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new


def _row_base(n: int) -> np.ndarray:
    """``base[r]`` such that the condensed key of (r, c), r < c, is
    ``base[r] + c``."""
    r = np.arange(n, dtype=np.int64)
    return r * (2 * n - r - 3) // 2 - 1


def condensed_keys(n: int, u: ArrayLike, v: ArrayLike) -> np.ndarray:
    """Condensed key ``r*n - r*(r+1)/2 + c - r - 1`` of each pair, with
    ``r = min(u, v)`` and ``c = max(u, v)``: its index in
    ``np.triu_indices(n, 1)`` order. Refuses a self-pair or an id outside
    ``0..n-1``, whose key would be another pair's (``ValueError``)."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    if np.any(_invalid_pairs(n, u, v)):
        raise ValueError(f"pairs must be of distinct vertices in 0..{n - 1}")
    return _keys(n, u, v)


def _invalid_pairs(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each pair is not two distinct vertices in ``0..n-1``."""
    return (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)


def _keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`condensed_keys`, unchecked: for a graph's own pairs."""
    return _row_base(n)[np.minimum(u, v)] + np.maximum(u, v)


def condensed_pairs(n: int, keys: np.ndarray) -> np.ndarray:
    """The pairs ``(r, c)``, r < c, of condensed ``keys``, as an (m, 2)
    int array: the inverse of :func:`condensed_keys`."""
    base = _row_base(n)
    pairs = np.empty((len(keys), 2), dtype=np.int64)
    r, c = pairs.T  # written in place: no column copies beside the keys
    np.subtract(np.searchsorted(base + np.arange(1, n + 1), keys, side="right"), 1, out=r)
    np.subtract(keys, base[r], out=c)
    return pairs


def wedge_blocks(g: SimpleGraph) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The wedges of ``g``, each centre's neighbor pairs, so a pair occurs
    once per common neighbor: their condensed keys and centre ids, which
    serve every per-centre weight (CN, AA, RA) in one pass.

    Centres come by descending degree, so a weight that falls with degree
    (AA, RA) reaches each pair in ascending order: equal multisets of
    terms, added in this order, give bitwise-equal sums whatever the
    vertex labels. The wedges come in blocks of whole centres, at most
    ``WEDGE_BLOCK`` per block unless one centre has more, so memory stays
    bounded on dense graphs, where the wedges (the sum of d(d-1)/2)
    outnumber the vertex pairs.
    """
    deg = g.degrees()
    order = _centre_order(g)
    done = np.cumsum(deg[order] * (deg[order] - 1) // 2)  # wedges through each centre
    for start, stop in _spans(done, WEDGE_BLOCK):
        yield _wedges(g, order[start:stop])


def _spans(done: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``(start, stop)`` spans of the items whose running
    totals are ``done``, each totalling at most ``limit`` unless one item
    alone has more."""
    start = 0
    while start < len(done):
        before = done[start - 1] if start else 0
        stop = max(int(np.searchsorted(done, before + limit, side="right")), start + 1)
        yield start, stop
        start = stop


def _centre_order(g: SimpleGraph) -> np.ndarray:
    """The vertices by descending degree, ties by id: the order in which
    :func:`wedge_blocks` and :func:`common_neighbor_hits` give centres."""
    return np.argsort(-g.degrees(), kind="stable")


def wedge_count(g: SimpleGraph) -> int:
    """The number of wedges of ``g``, the sum of d(d-1)/2."""
    deg = g.degrees()
    return int((deg * (deg - 1) // 2).sum())


def packs(g: SimpleGraph) -> bool:
    """Whether pair computations on ``g`` take its packed rows: when the
    n(n-1)/2 bytes of one ``bool`` per pair are no more than the 8 bytes
    per wedge key that a wedge pass would hold. The rows then cost at
    most 2 bytes per wedge."""
    return g.n * (g.n - 1) // 2 <= 8 * wedge_count(g)


def packed_rows(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The n-by-n 0/1 matrix with entries ``(rows[j], cols[j])``, any list
    of them, as an (n, ceil(n/64)) ``uint64`` array: row u has bit c set
    for each entry (u, c). Bit b of a row is bit b % 8 of its byte b // 8,
    which ``np.unpackbits(..., bitorder="little")`` reads from the
    ``uint8`` view; AND and OR act on whole words."""
    width = 8 * -(-n // 64)  # bytes per row
    packed = np.zeros((n, width), dtype=np.uint8)
    at = np.asarray(rows, dtype=np.int64) * width + (cols >> 3)
    np.bitwise_or.at(packed.ravel(), at, np.left_shift(1, cols & 7).astype(np.uint8))
    return packed.view(np.uint64)


def row_hits(rows: np.ndarray, members: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each row i of the (m, k) int array ``members``, the bits set in
    the AND of the packed ``rows`` (:func:`packed_rows`) it names, as
    ``(i, bit)`` batches: i ascending, and each i's bits ascending. A
    batch ANDs ``ROW_BLOCK`` bytes of rows, counted over all k columns,
    unless one row of ``members`` needs more."""
    width = rows.shape[1] * 64  # bits per row
    per = max(ROW_BLOCK * 8 // max(members.shape[1] * width, 1), 1)  # members per batch
    for lo in range(0, len(members), per):
        block = members[lo : lo + per]
        both = rows[block[:, 0]]
        for col in block[:, 1:].T:
            both &= rows[col]
        # the nonzero words, then their nonzero bytes, and only those
        # unpacked; np.flatnonzero scans bool arrays about 4x faster
        words = np.flatnonzero(both != 0)
        octets = np.take(both, words).view(np.uint8)
        nonzero = np.flatnonzero(octets != 0)
        bits = np.flatnonzero(np.unpackbits(octets[nonzero], bitorder="little") != 0)
        byte = nonzero[bits >> 3]  # of the nonzero words' bytes
        at = (words[byte >> 3] * 8 + (byte & 7)) * 8 + (bits & 7)
        i, bit = np.divmod(at, width)
        yield lo + i, bit


def _neighbor_or(g: SimpleGraph, rows: np.ndarray) -> np.ndarray:
    """Row u: the OR of ``rows[w]`` over the neighbors w of u, zero for an
    isolated u, gathering at most ``ROW_BLOCK`` bytes of rows at a time
    unless one vertex has more neighbors."""
    out = np.zeros_like(rows)
    live = np.flatnonzero(g.degrees())
    starts, ends = g.indptr[live], g.indptr[live + 1]
    per = ROW_BLOCK // max(rows.shape[1] * 8, 1)  # rows per gather
    # the live rows lie back to back from 0, so their ends are running totals
    for lo, hi in _spans(ends, per):
        gathered = rows[g.indices[starts[lo] : ends[hi - 1]]]
        out[live[lo:hi]] = np.bitwise_or.reduceat(gathered, starts[lo:hi] - starts[lo], axis=0)
    return out


def common_neighbor_hits(
    g: SimpleGraph, u: np.ndarray | None = None, v: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The common neighbors of pairs, in batches of ``(slot, centre)``
    arrays, one entry per common neighbor. Without ``u`` and ``v``, these
    are the wedges (:func:`wedge_blocks`), slotted by condensed key. Else
    the pairs ``(u[i], v[i])``, slotted by i, have their endpoints' rows
    intersected (Schank & Wagner, WEA 2005): ANDed as rows packed in
    centre order where ``g`` packs (:func:`packs`), else merged as
    neighbor lists keyed by slot and centre rank, a key listed twice
    being a common neighbor. A chunk takes ``ROW_BLOCK`` bytes of rows or
    of keys, unless one pair needs more. In a batch, each pair's common
    neighbors come in :func:`wedge_blocks` centre order."""
    if u is None:
        yield from wedge_blocks(g)
        return
    order = _centre_order(g)
    rank = np.argsort(order)  # each vertex's place in that order
    if not packs(g):
        deg = g.degrees()
        for lo, hi in _spans(np.cumsum(deg[u] + deg[v]), ROW_BLOCK // 8):
            ends = np.concatenate([u[lo:hi], v[lo:hi]])
            slot = np.repeat(np.tile(np.arange(hi - lo), 2), deg[ends])
            keys = np.sort(slot * g.n + rank[_neighbor_lists(g, ends)])
            slot, at = np.divmod(keys[1:][keys[1:] == keys[:-1]], g.n)
            yield lo + slot, order[at]
        return
    rows = packed_rows(g.n, np.repeat(np.arange(g.n), g.degrees()), rank[g.indices])
    for slot, bit in row_hits(rows, np.column_stack((u, v))):
        yield slot, order[bit]


def reach_mark(g: SimpleGraph, hops: int) -> np.ndarray:
    """Whether each pair u < v, in condensed order, is joined in ``g`` by a
    path of at most ``hops`` edges: one ``bool`` per pair.

    Level 1 is the packed adjacency and level k + 1 the OR of the
    neighbors' level-k rows; their union is unpacked ``ROW_BLOCK`` bytes
    at a time, and each row's part right of the diagonal is its stretch
    of the condensed order."""
    level = reach = packed_rows(g.n, np.repeat(np.arange(g.n), g.degrees()), g.indices)
    for _ in range(hops - 1):
        level = _neighbor_or(g, level)
        reach = reach | level
    n = g.n
    mark = np.empty(n * (n - 1) // 2, dtype=bool)
    per = max(ROW_BLOCK // max(n, 1), 1)  # rows per unpack
    at = 0
    for lo in range(0, n, per):
        bits = np.unpackbits(reach[lo : lo + per].view(np.uint8), axis=1, count=n, bitorder="little")
        for u, row in enumerate(bits.view(bool), lo):
            mark[at : at + n - u - 1] = row[u + 1 :]
            at += n - u - 1
    return mark


def _wedges(g: SimpleGraph, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The wedges of ``centres``, in that order (see :func:`wedge_blocks`)."""
    sizes = g.degrees()[centres]
    ends = np.cumsum(sizes)
    pos = np.arange(int(sizes.sum()))
    # each entry of a centre's neighbor list opens a wedge with every later
    # entry of that list
    members = _neighbor_lists(g, centres)
    after = np.repeat(ends, sizes) - pos - 1
    # wedge t, opened by entry i, closes at entry i + 1 + (t - first wedge of i)
    partner = np.arange(int(after.sum()))
    partner += np.repeat(pos + 1 - (np.cumsum(after) - after), after)
    keys = np.repeat(_row_base(g.n)[members], after)
    keys += members[partner]
    return keys, np.repeat(centres, sizes * (sizes - 1) // 2)


def _neighbor_lists(g: SimpleGraph, vertices: np.ndarray) -> np.ndarray:
    """The neighbor lists of ``vertices``, concatenated in that order."""
    sizes = g.degrees()[vertices]
    ends = np.cumsum(sizes)
    pos = np.arange(int(sizes.sum()))
    return g.indices[np.repeat(g.indptr[vertices] - (ends - sizes), sizes) + pos]


def reach_keys(g: SimpleGraph, hops: int, drop: np.ndarray) -> np.ndarray:
    """Ascending condensed keys of the pairs u < v joined in ``g`` by a
    path of at most ``hops`` edges, except the keys ``drop``.

    Where ``g`` packs (:func:`packs`), the pairs are marked from its
    packed rows (:func:`reach_mark`). Otherwise the reach within two hops
    is the union of the edge keys and the wedge keys, each wedge block
    deduplicated first, and every further hop takes the union of the
    reach with its one-edge extensions (:func:`_extensions`), each chunk
    of them deduplicated first."""
    if packs(g):
        mark = reach_mark(g, hops)
        mark[drop] = False
        return np.flatnonzero(mark)
    reach = g.edge_keys()
    for hop in range(2, hops + 1):
        parts = (keys for keys, _ in wedge_blocks(g)) if hop == 2 else _extensions(g, reach)
        reach = distinct_keys(np.concatenate([reach, *map(distinct_keys, parts)]))
    return np.setdiff1d(reach, drop, assume_unique=True)


def _extensions(g: SimpleGraph, keys: np.ndarray) -> Iterator[np.ndarray]:
    """The pairs one edge beyond the pairs of the condensed ``keys``: each
    pair (r, c) with r replaced by each neighbor of r, and with c by each
    neighbor of c, as condensed keys, leaving out a vertex paired with
    itself. They come in chunks of whole pairs, at most ``WEDGE_BLOCK``
    per chunk unless one pair has more."""
    deg = g.degrees()
    ends = condensed_pairs(g.n, keys)
    for start, stop in _spans(np.cumsum(deg[ends].sum(axis=1)), WEDGE_BLOCK):
        kept = ends[start:stop].T.ravel()  # each r, then each c
        moved = ends[start:stop, ::-1].T.ravel()  # its partner
        near = _neighbor_lists(g, moved)
        kept = np.repeat(kept, deg[moved])
        other = near != kept
        yield _keys(g.n, kept[other], near[other])


def group_pair_keys(n: int, groups: Hypergraph | np.ndarray) -> np.ndarray:
    """Condensed keys of every vertex pair inside each group, once per
    group holding the pair: the hyperedges of a :class:`Hypergraph`, or
    the rows of a 2-d array of equal-size groups, each of distinct ids
    below ``n``."""
    # rows ascending: a Hypergraph's already are
    blocks = groups.blocks() if isinstance(groups, Hypergraph) else [np.sort(groups, axis=1)]
    base = _row_base(n)
    keys = []
    for block in blocks:
        cols = block.T.astype(np.int64, order="C")  # row a: member a of each
        a, b = np.triu_indices(len(cols), k=1)
        pairs = base[cols[a]]
        pairs += cols[b]
        keys.append(pairs.ravel())
    return keys[0] if len(keys) == 1 else np.concatenate([np.zeros(0, dtype=np.int64), *keys])


def clique_expand(h: Hypergraph) -> SimpleGraph:
    """Expand a hypergraph to the simple graph joining every pair of
    vertices that co-occur in at least one hyperedge: the distinct keys of
    :func:`group_pair_keys`. Duplicate hyperedges and pairs covered by
    several hyperedges produce a single edge.
    """
    return SimpleGraph(h.n, condensed_pairs(h.n, distinct_keys(group_pair_keys(h.n, h))))


def width(h: Hypergraph) -> int:
    """Largest hyperedge cardinality. Widths above 2 are what distinguish
    genuinely higher-order structure from an edge list."""
    if not len(h):
        raise ValueError("width is undefined for a hypergraph with no hyperedges")
    return int(h.sizes.max())


def size_distribution(h: Hypergraph) -> dict[int, int]:
    """Map hyperedge cardinality -> number of hyperedges of that size
    (duplicates counted), by ascending size."""
    sizes, counts = count_keys(h.sizes)
    return dict(zip(sizes.tolist(), counts.tolist()))


def hypergraph_from_labels(
    rows: Sequence[Sequence[str]],
) -> tuple[Hypergraph, list[str]]:
    """Build a dense-id hypergraph from rows of arbitrary vertex labels.

    Returns the hypergraph plus the label list indexed by dense id (first
    appearance order). Rows are assumed pre-validated (>= 2 distinct labels).
    """
    flat = list(chain.from_iterable(rows))
    labels = list(dict.fromkeys(flat))
    index = dict(zip(labels, range(len(labels))))
    ids = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    return Hypergraph.from_arrays(len(labels), sizes, ids), labels
