"""Core container and clique-expansion behavior."""

import re
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlp import (
    Hypergraph,
    SimpleGraph,
    clique_expand,
    score,
    size_distribution,
    width,
)
from hyperlp import hypergraph
from hyperlp.hypergraph import (
    condensed_keys,
    condensed_pairs,
    group_pair_keys,
    wedge_blocks,
)
from conftest import OracleGraph, edge_list, hypergraphs, oracle_clique_expand, random_hypergraph


class TestHypergraphConstruction:
    def test_singleton_rejected(self):
        with pytest.raises(ValueError, match="need >= 2"):
            Hypergraph(3, [[0]])

    def test_repeated_vertex_collapses_then_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [[1, 1]])

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            Hypergraph(3, [[0, 3]])

    def test_duplicates_preserved_in_order(self):
        h = Hypergraph(4, [[0, 1], [2, 3], [0, 1]])
        assert len(h) == 3
        assert h.hyperedges[0] == h.hyperedges[2]

    def test_rows_ascending_without_repeats(self):
        h = Hypergraph(6, [[4, 1, 1, 3], [5, 0]])
        assert h.indptr.tolist() == [0, 3, 5] and h.members.tolist() == [1, 3, 4, 0, 5]
        assert list(h) == [frozenset({1, 3, 4}), frozenset({0, 5})]
        assert h.sizes.tolist() == [3, 2]

    @pytest.mark.parametrize("ids", [[0, 1.5], [0.0, 1.0], ["0", "1"], [None, 1]])
    def test_non_integer_id_raises(self, ids):
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            Hypergraph(3, [ids])
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            Hypergraph.from_arrays(3, [2], np.array(ids))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 8),
        st.lists(st.lists(st.integers(-2, 10), max_size=5), max_size=6),
    )
    def test_both_constructors_match_frozensets(self, n, rows):
        # the same hyperedges, or the same first error, as one frozenset
        # per row checked in order
        sizes = [len(row) for row in rows]
        flat = np.array([v for row in rows for v in row], dtype=np.int64)
        try:
            want = oracle_hyperedges(n, rows)
        except ValueError as exc:
            for build in (lambda: Hypergraph(n, rows), lambda: Hypergraph.from_arrays(n, sizes, flat)):
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    build()
            return
        h = Hypergraph(n, rows)
        assert h.hyperedges == want
        assert h == Hypergraph.from_arrays(n, sizes, flat)
        for row in h.rows():
            assert row == sorted(set(row))


def oracle_hyperedges(n, rows):
    """The hyperedges as one frozenset per row, or the first row's error:
    fewer than two distinct ids, else the smallest id outside 0..n-1."""
    for pos, row in enumerate(rows):
        f = frozenset(row)
        if len(f) < 2:
            raise ValueError(f"hyperedge #{pos} has {len(f)} distinct vertices; need >= 2")
        outside = sorted(v for v in f if not 0 <= v < n)
        if outside:
            raise ValueError(f"hyperedge #{pos} contains vertex {outside[0]}, outside 0..{n - 1}")
    return tuple(map(frozenset, rows))


class TestCliqueExpand:
    def test_five_vertex(self, five_vertex):
        g = clique_expand(five_vertex)
        assert edge_list(g) == [(0, 1), (0, 2), (1, 2), (3, 4)]
        assert g.edge_count == 4

    def test_no_hyperedges(self):
        g = clique_expand(Hypergraph(4, []))
        assert g.edge_count == 0

    def test_overlapping_hyperedges_union(self):
        # hand enumeration: {0,1,2} -> 01 02 12; {1,2,3} -> 12 13 23; {0,1} -> 01
        h = Hypergraph(5, [[0, 1, 2], [1, 2, 3], [0, 1]])
        g = clique_expand(h)
        assert edge_list(g) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        assert g.edge_count == 5

    def test_duplicate_hyperedges_idempotent(self, five_vertex):
        doubled = Hypergraph(5, list(five_vertex.hyperedges) * 2)
        assert edge_list(clique_expand(doubled)) == edge_list(clique_expand(five_vertex))

    def test_invariant_under_hyperedge_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = random_hypergraph(rng, 12, 8)
            baseline = edge_list(clique_expand(h))
            perm = rng.permutation(len(h.hyperedges))
            shuffled = Hypergraph(h.n, [sorted(h.hyperedges[i]) for i in perm])
            assert edge_list(clique_expand(shuffled)) == baseline

    def test_every_pair_inside_a_hyperedge_is_an_edge(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = random_hypergraph(rng, 15, 10, max_size=5)
            edges = set(edge_list(clique_expand(h)))
            f = h.hyperedges[int(rng.integers(len(h.hyperedges)))]
            for u, v in combinations(sorted(f), 2):
                assert (u, v) in edges

    def test_wide_hyperedge_forces_triangles(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = random_hypergraph(rng, 12, 6, max_size=5)
            if width(h) <= 2:
                continue
            edges = set(edge_list(clique_expand(h)))
            widest = max(h.hyperedges, key=len)
            for a, b, c in combinations(sorted(widest), 3):
                assert {(a, b), (b, c), (a, c)} <= edges


class TestWidth:
    def test_mixed_sizes(self, five_vertex):
        assert width(five_vertex) == 3

    def test_pairs_only(self):
        assert width(Hypergraph(4, [[0, 1], [2, 3]])) == 2

    def test_single_large(self):
        assert width(Hypergraph(5, [[0, 1, 2, 3, 4]])) == 5

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no hyperedges"):
            width(Hypergraph(3, []))


class TestSizeDistribution:
    def test_mixed(self, five_vertex):
        assert size_distribution(five_vertex) == {2: 1, 3: 1}

    def test_empty(self):
        assert size_distribution(Hypergraph(3, [])) == {}

    def test_multiset_counting(self):
        h = Hypergraph(2, [[0, 1]] * 10)
        assert size_distribution(h) == {2: 10}

    def test_counts_sum_to_edge_count(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = random_hypergraph(rng, 10, int(rng.integers(1, 15)))
            assert sum(size_distribution(h).values()) == len(h.hyperedges)


class TestCommonNeighbors:
    def test_pair_inside_triple_after_removal(self, five_vertex):
        g = clique_expand(five_vertex)
        assert score("cn", g.without_edge(1, 2), 1, 2) == 1
        assert score("cn", g.without_edge(3, 4), 3, 4) == 0

    def test_isolated_vertices(self):
        g = SimpleGraph(4, [])
        assert score("cn", g, 0, 3) == 0

    def test_same_vertex_rejected(self, five_vertex):
        with pytest.raises(ValueError):
            score("cn", clique_expand(five_vertex), 2, 2)


class TestSimpleGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            SimpleGraph(3, [(1, 1)])

    def test_adjacency_symmetric(self):
        g = SimpleGraph(4, [(0, 1), (1, 2)])
        for u in range(4):
            for v in g.indices[g.indptr[u] : g.indptr[u + 1]].tolist():
                assert u in g.indices[g.indptr[v] : g.indptr[v + 1]]

    def test_edge_count_matches_pairs(self):
        g = SimpleGraph(5, [(0, 1), (1, 2), (0, 1)])  # duplicate edge collapses
        assert g.edge_count == 2
        assert len(g.edge_array()) == 2

    def test_without_edge_leaves_original_intact(self):
        g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
        g2 = g.without_edge(1, 2)
        assert (1, 2) in edge_list(g)
        assert (1, 2) not in edge_list(g2)
        assert g2.edge_count == g.edge_count - 1
        with pytest.raises(ValueError, match="not an edge"):
            g.without_edge(0, 3)

    @pytest.mark.parametrize(
        "read, args, vertex",
        [
            ("degree", (-1,), -1),
            ("degree", (4,), 4),
            ("has_edge", (-1, 3), -1),
            ("has_edge", (0, 4), 4),
            ("has_edge", (4, 0), 4),
            ("without_edge", (-1, 3), -1),
            ("without_edge", (3, -1), -1),
            ("without_edge", (3, 4), 4),
        ],
    )
    def test_vertex_outside_range_rejected(self, read, args, vertex):
        # a negative id would wrap around indptr: degree(-1) read -2|E|.
        # degree and has_edge left the graph (its arrays are read whole);
        # the checks they made are _check's and _find's, which without_edge
        # makes
        g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
        call = {"degree": g._check, "has_edge": g._find}.get(read, g.without_edge)
        with pytest.raises(ValueError, match=rf"vertex {vertex} outside 0\.\.3"):
            call(*args)

    def test_adjacency_csr_built_once(self):
        # the CSR arrays are the graph's state: built once, and removing an
        # edge copies them instead of changing them
        g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
        indptr, indices = g.indptr, g.indices
        assert indptr.tolist() == [0, 1, 3, 5, 6] and indices.tolist() == [1, 0, 2, 1, 3, 2]
        g2 = g.without_edge(1, 2)
        assert g.indptr is indptr and g.indices is indices
        assert indptr.tolist() == [0, 1, 3, 5, 6] and indices.tolist() == [1, 0, 2, 1, 3, 2]
        assert g2.indptr.tolist() == [0, 1, 2, 3, 4] and g2.indices.tolist() == [1, 0, 3, 2]
        assert (1, 2) not in edge_list(g2) and (1, 2) in edge_list(g)

    def test_adjacency_matrix(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        a = g.adjacency_matrix()
        assert np.array_equal(a, a.T)
        assert a.sum() == 4
        assert np.all(np.diag(a) == 0)


def assert_same_graph(g: SimpleGraph, ref: OracleGraph) -> None:
    """Every read of ``g`` equals the frozenset reference exactly."""
    assert g.n == ref.n and g.edge_count == ref.edge_count
    assert edge_list(g) == sorted(ref.edges())
    assert g.degrees().tolist() == [ref.degree(u) for u in range(ref.n)]
    adjacency = [[ref.has_edge(u, v) for v in range(ref.n)] for u in range(ref.n)]
    assert g.adjacency_matrix(bool).tolist() == adjacency
    indptr, indices = ref.csr()
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)


class TestGraphParity:
    """The CSR-backed graph against the frozenset reference in conftest."""

    @settings(max_examples=100, deadline=None)
    @given(hypergraphs())
    def test_clique_expand_matches_oracle(self, h):
        g, ref = clique_expand(h), oracle_clique_expand(h)
        assert_same_graph(g, ref)
        for u, v in ref.edges():
            assert_same_graph(g.without_edge(u, v), ref.without_edge(u, v))
            assert g.without_edge(v, u) == g.without_edge(u, v)
        assert_same_graph(g, ref)  # the removals left the original intact

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_constructor_matches_oracle(self, data):
        # duplicate and reversed pairs collapse to one edge; a bad pair
        # raises the reference's message
        n = data.draw(st.integers(0, 8))
        vertex = st.integers(-1, n)
        edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=20))
        try:
            ref = OracleGraph(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                SimpleGraph(n, edges)
            return
        assert_same_graph(SimpleGraph(n, edges), ref)
        assert_same_graph(SimpleGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)), ref)


class TestPairKeys:
    @settings(max_examples=100, deadline=None)
    @given(hypergraphs(max_n=12, max_m=10))
    def test_group_pair_keys_match_incidence_product(self, h):
        # counted, the keys are the strict upper triangle of H.T @ H, entry
        # by entry, row-major
        members = [sorted(f) for f in h.hyperedges]
        sizes = [len(f) for f in members]
        incidence = sp.csr_array(
            (
                np.ones(sum(sizes), dtype=np.int64),
                np.array([v for f in members for v in f], dtype=np.int64),
                np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            ),
            shape=(len(members), h.n),
        )
        ref = sp.triu(incidence.T @ incidence, k=1).toarray()
        rows, cols = np.nonzero(ref)
        keys, counts = np.unique(group_pair_keys(h.n, h), return_counts=True)
        assert np.array_equal(keys, condensed_keys(h.n, rows, cols))
        assert np.array_equal(counts, ref[rows, cols])
        for s in {len(f) for f in members}:  # equal-size groups as a 2-d array
            same = [f for f in members if len(f) == s]
            sub = group_pair_keys(h.n, np.array(same)[:, ::-1])
            sub_keys, sub_counts = np.unique(sub, return_counts=True)
            want = sorted_pair_counts(h.n, same)
            assert (sub_keys.tolist(), sub_counts.tolist()) == want

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 15))
    def test_condensed_keys_round_trip(self, n):
        iu, iv = np.triu_indices(n, k=1)
        keys = condensed_keys(n, iv, iu)  # either orientation
        assert np.array_equal(keys, np.arange(len(iu)))
        assert np.array_equal(condensed_pairs(n, keys), np.column_stack((iu, iv)))

    @pytest.mark.parametrize("u, v", [(1, 1), (0, 3), (-1, 2), (2, -1), ([0, 2], [1, 2])])
    def test_condensed_keys_refuse_other_pairs_keys(self, u, v):
        # each read another pair's key: (1, 1) the key of (0, 2), and (0, 3)
        # and (-1, 2) the key of (1, 2)
        with pytest.raises(ValueError, match=r"distinct vertices in 0\.\.2"):
            condensed_keys(3, u, v)

    @pytest.mark.parametrize("block", [1, 7, 40])
    def test_wedge_blocks_split_one_wedge_list(self, block, monkeypatch):
        # one wedge per common neighbor of each pair, with that centre;
        # blocks hold whole centres, at most `block` wedges unless one
        # centre has more, and together give the unblocked list in the
        # same order
        rng = np.random.default_rng(block)
        g = clique_expand(random_hypergraph(rng, 30, 25, max_size=6))
        want = sorted(
            (int(condensed_keys(g.n, a, b)), w)
            for w in range(g.n)
            for a, b in combinations(g.indices[g.indptr[w] : g.indptr[w + 1]].tolist(), 2)
        )
        [(keys, centres)] = wedge_blocks(g)
        assert sorted(zip(keys.tolist(), centres.tolist())) == want
        monkeypatch.setattr(hypergraph, "WEDGE_BLOCK", block)
        parts = list(wedge_blocks(g))
        assert len(parts) > 1
        for part_keys, part_centres in parts:
            assert len(part_keys) <= block or len(set(part_centres.tolist())) == 1
        assert np.array_equal(np.concatenate([k for k, _ in parts]), keys)
        assert np.array_equal(np.concatenate([c for _, c in parts]), centres)


class TestPackedRows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 130),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.005, 0.02, 0.06, 0.3]),
        st.integers(1, 5),
        st.sampled_from([8, 200, 1 << 20]),
        st.sampled_from([3, hypergraph.WEDGE_BLOCK]),
        st.sampled_from([0.0, 0.1, 1.0]),
    )
    def test_reach_mark_matches_shortest_paths(self, n, seed, p, hops, block, wedges, dropped):
        # n from 0 to 130 crosses both word boundaries of a packed row; a
        # small ROW_BLOCK gathers and unpacks a row or two at a time. The
        # sparser graphs do not pack, so reach_keys extends their pairs
        # hop by hop, in chunks of 3 entries under the small WEDGE_BLOCK
        rng = np.random.default_rng(seed)
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < p
        g = SimpleGraph(n, np.column_stack((iu[keep], iv[keep])))
        rank = rng.permutation(n)
        rows, cols = np.nonzero(g.adjacency_matrix())
        bits = np.unpackbits(
            hypergraph.packed_rows(n, rows, rank[cols]).view(np.uint8),
            axis=1, count=n, bitorder="little",
        )
        assert np.array_equal(bits[:, rank], g.adjacency_matrix(dtype=np.uint8))
        drop = np.flatnonzero(rng.random(len(iu)) < dropped)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergraph, "ROW_BLOCK", block)
            mp.setattr(hypergraph, "WEDGE_BLOCK", wedges)
            mark = hypergraph.reach_mark(g, hops)
            keys = hypergraph.reach_keys(g, hops, drop)
        a = sp.csr_array(g.adjacency_matrix())
        hops_apart = shortest_path(a, unweighted=True)[iu, iv] if n else np.zeros(0)
        within = hops_apart <= hops
        assert mark.dtype == bool and np.array_equal(mark, within)
        within[drop] = False
        assert keys.dtype == np.int64 and np.array_equal(keys, np.flatnonzero(within))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 130),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        st.integers(0, 200),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from([1, 8, 64, hypergraph.ROW_BLOCK]),
    )
    def test_row_hits_match_dense_and(self, n, seed, p, m, k, repeat, block):
        # n from 0 to 130 crosses both word boundaries of a packed row;
        # a 1- or 8-byte ROW_BLOCK ANDs one row of members per batch, a
        # 64-byte one 8 // k rows of one word each, and a row may name
        # one id twice
        rng = np.random.default_rng(seed)
        dense = rng.random((n, n)) < p
        members = rng.integers(0, max(n, 1), size=(m if n else 0, k))
        if repeat:
            members[::2, -1] = members[::2, 0]
        rows = hypergraph.packed_rows(n, *np.nonzero(dense))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergraph, "ROW_BLOCK", block)
            batches = list(hypergraph.row_hits(rows, members))
        per = max(block // (k * rows.shape[1] * 8 or 1), 1)  # rows of members per batch
        assert len(batches) == -(-len(members) // per)
        want = np.nonzero(np.logical_and.reduce(dense[members], axis=1))
        for j in (0, 1):  # the i, then the bits
            got = np.concatenate([np.zeros(0, dtype=np.int64), *(b[j] for b in batches)])
            assert np.array_equal(got, want[j])

    @pytest.mark.parametrize("n, packs", [(16, True), (17, False)])
    def test_reach_keys_takes_the_mark_where_the_graph_packs(self, n, packs, monkeypatch):
        # a 6-leaf star has 15 wedges: 120 pairs at n=16 pack, 136 at n=17
        # do not, and take the wedge and extension sorts
        marks = []
        reach_mark = hypergraph.reach_mark
        monkeypatch.setattr(hypergraph, "reach_mark", lambda *a: marks.append(a) or reach_mark(*a))
        g = SimpleGraph(n, [(0, leaf) for leaf in range(1, 7)])
        keys = hypergraph.reach_keys(g, 3, g.edge_keys())
        pairs = [[a, b] for a in range(1, 7) for b in range(a + 1, 7)]
        assert condensed_pairs(n, keys).tolist() == pairs
        assert bool(marks) == packs


def sorted_pair_counts(n, groups):
    """(ascending condensed keys, counts) of the pairs inside ``groups``,
    counted with a Python loop."""
    counts = {}
    for f in groups:
        for a, b in combinations(sorted(f), 2):
            k = a * n - a * (a + 1) // 2 + b - a - 1
            counts[k] = counts.get(k, 0) + 1
    return sorted(counts), [counts[k] for k in sorted(counts)]
