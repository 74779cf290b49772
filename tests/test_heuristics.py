"""Scorer definitions, symmetry, and the SimRank fixed point."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    OracleGraph,
    edge_list,
    graphs,
    oracle_score,
    oracle_simrank_iterate,
    random_hypergraph,
)
from hyperlp import (
    SCORER_IDS,
    SimpleGraph,
    auc,
    clique_expand,
    er_sample,
    protocol_scores,
    score,
    score_pairs,
    simrank_matrix,
)
from hyperlp import evaluation, heuristics, hypergraph
from hyperlp.heuristics import (
    SIMRANK_DECAY,
    SimRankConvergenceError,
    score_pairs_many,
    simrank_without_each_edge,
)

# AA and RA sum the same terms in another order than the per-pair oracles.
PARITY_REL = {"aa": 1e-12, "ra": 1e-12}


# CN 4 at (0, 1): its AA terms added in set order and in ascending order
# differ in the last bit
AA_LAST_BIT = SimpleGraph(9, [
    (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (1, 3), (1, 4), (1, 5), (1, 8), (2, 4),
    (2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7),
    (4, 8), (5, 7), (5, 8), (6, 7), (7, 8),
])

# S[0, 1] and S[1, 0] of its SimRank table differ in the last bit:
# 0.42593370631227806 against 0.42593370631227795
SR_LAST_BIT = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 3)])


def path_graph(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return SimpleGraph(n, edges)


class TestDefinitions:
    def test_common_neighbors_on_triangle_minus_edge(self):
        g = SimpleGraph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        assert score("cn", g.without_edge(1, 2), 1, 2) == 1.0
        assert score("cn", g.without_edge(3, 4), 3, 4) == 0.0

    def test_preferential_attachment_is_degree_product(self):
        # center 0 has degree 3, center 5 degree 4
        g = SimpleGraph(10, [(0, 1), (0, 2), (0, 3), (5, 6), (5, 7), (5, 8), (5, 9)])
        assert score("pa", g, 0, 5) == 12.0

    def test_adamic_adar_single_shared_neighbor(self):
        g = path_graph(3)  # 0-1-2: shared neighbor 1 has degree 2
        assert score("aa", g, 0, 2) == pytest.approx(1.0 / math.log(3), abs=1e-12)

    def test_resource_allocation_single_shared_neighbor(self):
        g = path_graph(3)
        assert score("ra", g, 0, 2) == pytest.approx(0.5, abs=1e-12)

    def test_jaccard(self):
        # N(0)={1,2}, N(3)={1}: intersection {1}, union {1,2}
        g = SimpleGraph(4, [(0, 1), (0, 2), (1, 3)])
        assert score("jc", g, 0, 3) == pytest.approx(0.5)

    def test_jaccard_empty_union(self):
        g = SimpleGraph(3, [])
        assert score("jc", g, 0, 2) == 0.0

    def test_unknown_scorer_lists_valid_ids(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="cn, aa, pa, jc, ra, sr"):
            score("katz", g, 0, 1)

    def test_self_pair_rejected(self):
        g = path_graph(3)
        for s in SCORER_IDS:
            with pytest.raises(ValueError):
                score(s, g, 1, 1)


class TestSharedProperties:
    def test_symmetry_all_scorers(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 12, 0.3)
        for s in SCORER_IDS:
            for _ in range(15):
                u, v = rng.choice(12, size=2, replace=False)
                assert score(s, g, int(u), int(v)) == pytest.approx(
                    score(s, g, int(v), int(u)), abs=1e-12
                )

    def test_zero_without_common_neighbors(self):
        g = SimpleGraph(6, [(0, 1), (2, 3)])
        for s in ("cn", "aa", "ra", "jc"):
            assert score(s, g, 0, 2) == 0.0

    def test_common_neighbor_degree_at_least_two(self):
        # every common neighbor touches both endpoints, so 1/deg never blows up
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_graph(rng, 15, 0.25)
            ref = OracleGraph.of(g)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    for w in ref.neighbors(u) & ref.neighbors(v):
                        assert ref.degree(w) >= 2

    def test_cn_bounds_weighted_variants(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_graph(rng, 15, 0.3)
            ref = OracleGraph.of(g)
            for _ in range(20):
                u, v = (int(x) for x in rng.choice(15, size=2, replace=False))
                shared = ref.neighbors(u) & ref.neighbors(v)
                if not shared:
                    continue
                dmin = min(ref.degree(w) for w in shared)
                cn = score("cn", g, u, v)
                assert cn >= score("aa", g, u, v) * math.log(1 + dmin) - 1e-9
                assert cn >= score("ra", g, u, v) * dmin - 1e-9

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, 10, 0.3)
        perm = rng.permutation(10)
        g2 = SimpleGraph(10, perm[g.edge_array()])
        for s in SCORER_IDS:
            for _ in range(10):
                u, v = (int(x) for x in rng.choice(10, size=2, replace=False))
                assert score(s, g, u, v) == pytest.approx(
                    score(s, g2, int(perm[u]), int(perm[v])), abs=1e-9
                )

    def test_score_pairs(self):
        g = path_graph(4)
        for s in SCORER_IDS:
            assert len(score_pairs(s, g, [], [])) == 0
            out = score_pairs(s, g, [0, 0, 0], [2, 2, 3])
            assert out[0] == out[1]  # duplicates score identically
            assert len(out) == 3

    def test_score_pairs_checks_pairs(self):
        g = path_graph(4)
        for s in SCORER_IDS:
            with pytest.raises(ValueError, match="itself"):
                score_pairs(s, g, [0, 1], [2, 1])
            with pytest.raises(ValueError, match="outside"):
                score_pairs(s, g, [0], [4])
        with pytest.raises(ValueError, match="valid ids"):
            score_pairs("katz", g, [], [])


class TestSimRank:
    def test_self_similarity_and_range(self):
        rng = np.random.default_rng(41)
        g = random_graph(rng, 10, 0.3)
        s = simrank_matrix(g)
        assert np.allclose(np.diag(s), 1.0)
        assert np.all(s >= 0) and np.all(s <= 1 + 1e-12)

    def test_fixed_point_residual(self):
        g = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        s = simrank_matrix(g, tol=1e-10, max_iter=500)
        a = g.adjacency_matrix()
        w = a / a.sum(axis=0)
        target = SIMRANK_DECAY * (w.T @ s @ w)
        np.fill_diagonal(target, 1.0)
        assert np.max(np.abs(target - s)) < 1e-9

    def test_iterates_monotone_nondecreasing(self):
        g = SimpleGraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
        a = g.adjacency_matrix()
        deg = a.sum(axis=0)
        w = np.divide(a, deg, out=np.zeros_like(a), where=deg > 0)
        s = np.eye(6)
        for _ in range(30):
            s_next = SIMRANK_DECAY * (w.T @ s @ w)
            np.fill_diagonal(s_next, 1.0)
            assert np.all(s_next >= s - 1e-12)
            s = s_next

    def test_convergence_error(self):
        g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(SimRankConvergenceError):
            simrank_matrix(g, tol=1e-12, max_iter=2)

    def test_disconnected_vertices_score_zero(self):
        g = SimpleGraph(4, [(0, 1)])
        assert score("sr", g, 0, 3) == 0.0


class TestSimRankBuffers:
    @given(graphs(min_n=0, max_n=12))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_allocating_loop(self, g):
        edges = g.edge_array()
        got = simrank_matrix(g), simrank_without_each_edge(g, edges[:, 0], edges[:, 1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heuristics, "_simrank_iterate", oracle_simrank_iterate)
            want = simrank_matrix(g), simrank_without_each_edge(g, edges[:, 0], edges[:, 1])
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_convergence_error_matches(self):
        w = np.full((1, 3, 3), 0.5)
        messages = []
        for solve in (heuristics._simrank_iterate, oracle_simrank_iterate):
            with pytest.raises(SimRankConvergenceError, match="after 2 iterations") as exc:
                solve(w, SIMRANK_DECAY, 1e-12, 2)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


class TestSimRankWithoutEachEdge:
    # triangle 0-1-2, a pendant path 2-3-4 (3-4 has the degree-1 end 4),
    # an isolated pair 5-6 (both ends degree 1) and an isolated vertex 7
    GRAPH = SimpleGraph(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6)])

    def test_bit_identical_to_graph_copies(self):
        g = self.GRAPH
        edges = g.edge_array()
        tables = [simrank_matrix(g.without_edge(a, b)) for a, b in edges.tolist()]
        got = simrank_without_each_edge(g, edges[:, 0], edges[:, 1])
        assert got.tolist() == [s[a, b] for s, (a, b) in zip(tables, edges.tolist())]  # a < b
        flipped = simrank_without_each_edge(g, edges[:, 1], edges[:, 0])
        assert flipped.tobytes() == got.tobytes()  # (b, a) reads the same triangle
        assert got[0] > 0  # (0, 1) keeps its path through 2
        assert got[-1] == 0.0  # (5, 6) without its edge: two isolated vertices

    def test_convergence_error(self):
        g = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        with pytest.raises(SimRankConvergenceError):
            simrank_without_each_edge(g, [0], [4], tol=1e-12, max_iter=2)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            simrank_without_each_edge(self.GRAPH, [0], [3])


def sparse_graph(n: int, m: int, seed: int) -> SimpleGraph:
    """m distinct random edges on n vertices: at these densities most
    draws hold isolated vertices and degree-1 endpoints."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, 1)
    keep = rng.choice(len(iu), size=min(m, len(iu)), replace=False)
    return SimpleGraph(n, list(zip(iu[keep].tolist(), iv[keep].tolist())))


def loo_loop(g: SimpleGraph, u, v, **kwargs) -> np.ndarray:
    """Reference leave-one-out SimRank: one graph copy and one table per
    edge, in input order."""
    out = []
    for a, b in zip(u, v):  # without_edge raises for a non-edge
        out.append(simrank_matrix(g.without_edge(a, b), **kwargs)[a, b])
    return np.array(out)


def outcome(solve):
    """A solve's scores, or its error's type and message."""
    try:
        return solve().tobytes()
    except (SimRankConvergenceError, ValueError) as exc:
        return type(exc), str(exc)


class TestSimRankBatches:
    # 2**18 multiply-adds per product: n <= 64 runs stacks on threads
    GATE = 64

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 70), st.integers(0, 90), st.integers(0, 2**32 - 1))
    @example(70, 37, 0)  # above the gate, one edge at a time
    @example(64, 53, 1)  # at the gate: stacks of 16, 16, 16 and 5
    @example(65, 1, 2)  # one edge, just above the gate
    def test_bit_identical_to_per_edge_loop(self, n, m, seed):
        g = sparse_graph(n, m, seed)
        u, v = g.edge_array().T[:, ::-1]  # every edge, last first
        want = loo_loop(g, u.tolist(), v.tolist())
        assert simrank_without_each_edge(g, u, v).tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 70), st.integers(1, 40), st.integers(0, 2**32 - 1),
        st.integers(0, 40), st.booleans(),
    )
    @example(15, 5, 1, 0, False)  # an edge converges in the last iteration, the next does not
    def test_errors_match_per_edge_loop(self, n, m, seed, at, non_edge):
        # at max_iter=2 most edges stop short of tol, and the first to do
        # so raises; a non-edge inserted at ``at`` raises before any solve
        g = sparse_graph(n, m, seed)
        u, v = g.edge_array().T.tolist()
        non_edges = list(OracleGraph.of(g).non_edges())
        got = outcome(lambda: simrank_without_each_edge(g, u, v, max_iter=2))
        assert got == outcome(lambda: loo_loop(g, u, v, max_iter=2))
        if non_edge and non_edges:
            x, y = non_edges[seed % len(non_edges)]
            u.insert(at, x)
            v.insert(at, y)
            got = outcome(lambda: simrank_without_each_edge(g, u, v, max_iter=2))
            assert got == (ValueError, f"({x}, {y}) is not an edge")

    def test_threads_below_gate(self, monkeypatch):
        import concurrent.futures

        made = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                made.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(
            heuristics.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        g = sparse_graph(self.GATE, 70, 3)
        u, v = g.edge_array().T
        assert simrank_without_each_edge(g, u, v).tobytes() == loo_loop(g, u, v).tobytes()
        assert made == [3]

    def test_no_executor_above_gate(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("an executor was created")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        g = sparse_graph(self.GATE + 1, 40, 4)
        u, v = g.edge_array().T
        assert simrank_without_each_edge(g, u, v).tobytes() == loo_loop(g, u, v).tobytes()


class TestScorePairsParity:
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            graphs(min_n=0, max_n=12),
            st.integers(0, 12).map(lambda n: SimpleGraph(n)),  # edgeless
        )
    )
    def test_condensed_read_matches_explicit_pairs(self, g):
        iu, iv = np.triu_indices(g.n, k=1)
        for s in SCORER_IDS:
            assert np.array_equal(score_pairs(s, g), score_pairs(s, g, iu, iv)), s

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_matches_per_pair_scorers(self, g):
        # every pair in a shuffled order, each in a random orientation
        rng = np.random.default_rng(g.n + g.edge_count)
        iu, iv = np.triu_indices(g.n, k=1)
        perm = rng.permutation(len(iu))
        flip = rng.random(len(iu)) < 0.5
        u, v = np.where(flip, iv, iu)[perm], np.where(flip, iu, iv)[perm]
        ref = OracleGraph.of(g)
        for s in SCORER_IDS:
            got = score_pairs(s, g, u, v)
            want = np.array([oracle_score(s, ref, a, b) for a, b in zip(u.tolist(), v.tolist())])
            rel = PARITY_REL.get(s, 0.0)
            assert np.allclose(got, want, rtol=rel, atol=0.0) if rel else np.array_equal(got, want), s

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=10), st.integers(0, 2**16))
    @example(AA_LAST_BIT, 0)  # a per-pair AA sum in set order read 1.930814649609145
    def test_score_is_the_one_pair_case(self, g, pick):
        # score reads score_pairs at the pair's condensed key, bit for bit
        iu, iv = np.triu_indices(g.n, k=1)
        key = pick % len(iu)
        u, v = int(iu[key]), int(iv[key])
        for s in SCORER_IDS:
            want = score_pairs(s, g)[key]
            assert score(s, g, u, v) == score(s, g, v, u) == want, s

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=12))
    @example(SR_LAST_BIT)
    def test_simrank_orientation_free(self, g):
        # every pair, and every edge scored without itself, reads the same
        # bits either way round, though the table is symmetric only up to
        # rounding
        u, v = np.triu_indices(g.n, k=1)
        want = score_pairs("sr", g).tobytes()
        assert score_pairs("sr", g, u, v).tobytes() == score_pairs("sr", g, v, u).tobytes() == want
        a, b = g.edge_array().T
        loo = simrank_without_each_edge(g, a, b).tobytes()
        assert simrank_without_each_edge(g, b, a).tobytes() == loo


def complete_graph(n):
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def scipy_scores(g, scorer):
    """Every pair's score from scipy.sparse products of the adjacency, in
    ``np.triu_indices(g.n, 1)`` order."""
    e = g.edge_array()
    rows, cols = np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])
    a = sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    d = a.sum(axis=1)
    iu, iv = np.triu_indices(g.n, k=1)
    if scorer == "pa":
        return d[iu] * d[iv]
    w = np.ones(g.n)
    if scorer in ("aa", "ra"):
        w = np.zeros(g.n)
        w[d > 0] = 1.0 / (np.log1p(d[d > 0]) if scorer == "aa" else d[d > 0])
    prod = (a @ sp.diags_array(w) @ a).toarray()[iu, iv]
    if scorer != "jc":
        return prod
    union = d[iu] + d[iv] - prod
    return np.divide(prod, union, out=np.zeros_like(prod), where=union > 0)


class TestWedgeParity:
    """The wedge sums against scipy.sparse products: exact for the
    integer-valued CN, PA and JC, rel 1e-12 for AA and RA, whose terms
    are added in another order."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            graphs(min_n=0, max_n=12),
            st.integers(0, 12).map(lambda n: SimpleGraph(n)),  # edgeless
            st.integers(0, 12).map(complete_graph),
        ),
        st.data(),
    )
    def test_matches_scipy_products(self, g, data):
        iu, iv = np.triu_indices(g.n, k=1)
        # explicit pairs: any of them, repeats allowed, in either orientation
        picks = st.lists(st.integers(0, len(iu) - 1), max_size=30) if len(iu) else st.just([])
        idx = np.array(data.draw(picks), dtype=np.int64)
        flip = np.array(data.draw(st.lists(st.booleans(), min_size=len(idx), max_size=len(idx))))
        flip = flip.astype(bool)
        u, v = np.where(flip, iv[idx], iu[idx]), np.where(flip, iu[idx], iv[idx])
        for s in ("cn", "aa", "ra", "pa", "jc"):
            want = scipy_scores(g, s)
            # same terms in the same order at explicit pairs: bit for bit
            assert np.array_equal(score_pairs(s, g, u, v), score_pairs(s, g)[idx]), s
            for got, ref in ((score_pairs(s, g), want), (score_pairs(s, g, u, v), want[idx])):
                if s in PARITY_REL:
                    assert np.allclose(got, ref, rtol=PARITY_REL[s], atol=0.0), s
                else:
                    assert np.array_equal(got, ref), s

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_aa_ra_loo_auc_bit_identical_under_relabeling(self, seed):
        # equal multisets of terms, added in ascending order, give equal
        # sums; summing in label-dependent order splits ties instead
        rng = np.random.default_rng(seed)
        g = clique_expand(random_hypergraph(rng, 60, 80, max_size=5))
        perm = rng.permutation(g.n)
        g2 = SimpleGraph(g.n, perm[g.edge_array()])
        iu, iv = np.triu_indices(g.n, k=1)
        for s in ("aa", "ra"):
            assert np.array_equal(score_pairs(s, g), score_pairs(s, g2, perm[iu], perm[iv])), s
            (_, labels, scores), (_, labels2, scores2) = (
                protocol_scores(x, [s], "loo") for x in (g, g2)
            )
            assert auc(scores[s], labels) == auc(scores2[s], labels2), s

    @pytest.mark.parametrize("block", [1, 5, 300])
    def test_wedge_blocks_change_no_score(self, block, monkeypatch):
        # terms are added one by one in wedge order, so cutting the wedges
        # into blocks leaves every score bitwise unchanged
        rng = np.random.default_rng(block)
        gs = [clique_expand(random_hypergraph(rng, 25, 30, max_size=6)), complete_graph(9)]
        pairs = [rng.integers(0, g.n, size=(2, 40)) for g in gs]
        pairs = [(u[u != v], v[u != v]) for u, v in pairs]

        def scores():
            return [
                (score_pairs(s, g), score_pairs(s, g, u, v))
                for g, (u, v) in zip(gs, pairs)
                for s in ("cn", "aa", "ra", "jc")
            ]

        want = scores()
        monkeypatch.setattr(hypergraph, "WEDGE_BLOCK", block)
        for (got_all, got_at), (ref_all, ref_at) in zip(scores(), want):
            assert np.array_equal(got_all, ref_all) and np.array_equal(got_at, ref_at)

    def test_shared_pass_changes_no_score(self):
        # every scorer of one call shares a wedge pass: the same bits as
        # scoring alone, at every pair and at explicit pairs
        rng = np.random.default_rng(11)
        g = clique_expand(random_hypergraph(rng, 25, 30, max_size=6))
        u, v = rng.integers(0, g.n, size=(2, 60))
        for pairs in ((), (u[u != v], v[u != v])):
            many = score_pairs_many(SCORER_IDS, g, *pairs)
            assert list(many) == list(SCORER_IDS)
            for s in SCORER_IDS:
                assert np.array_equal(many[s], score_pairs(s, g, *pairs)), s

    def test_unknown_scorer_fills_its_slot(self):
        out = score_pairs_many(["cn", "katz"], path_graph(4))
        assert isinstance(out["katz"], ValueError)
        assert out["cn"].tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]

    def test_all_pairs_index_built_only_for_pa_jc_sr(self, monkeypatch):
        # CN, AA and RA over every pair (each leave-one-out graph) read no
        # u/v, so no np.triu_indices pair index is built for them
        rng = np.random.default_rng(4)
        g = clique_expand(random_hypergraph(rng, 30, 40, max_size=5))
        iu, iv = np.triu_indices(g.n, k=1)
        want = score_pairs_many(["cn", "aa", "ra"], g, iu, iv)
        loo = evaluation.evaluate_protocol(g, ["cn", "aa", "ra"], "loo")

        def refuse(*args, **kwargs):
            raise AssertionError("np.triu_indices called")

        monkeypatch.setattr(np, "triu_indices", refuse)
        got = score_pairs_many(["cn", "aa", "ra"], g)
        for s in ("cn", "aa", "ra"):
            assert got[s].dtype == want[s].dtype and np.array_equal(got[s], want[s]), s
        assert evaluation.evaluate_protocol(g, ["cn", "aa", "ra"], "loo") == loo
        with pytest.raises(AssertionError, match="triu_indices"):
            score_pairs_many(["cn", "pa"], g)


@st.composite
def packed_sized_graphs(draw, max_n: int = 130):
    """Graphs on 0..max_n vertices, across the 64- and 128-bit word
    boundaries of a packed row: sparse to complete, and on some draws
    with most vertices isolated."""
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from([0.0, 0.03, 0.15, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = rng.random(n) < draw(st.sampled_from([0.3, 1.0]))
    iu, iv = np.triu_indices(n, k=1)
    keep = (rng.random(len(iu)) < p) & active[iu] & active[iv]
    return SimpleGraph(n, np.column_stack((iu[keep], iv[keep])))


def random_pairs(rng, n, m):
    """``m`` random pairs u != v of ``n`` vertices, in either orientation,
    then their first 5 again; none when n < 2."""
    if n < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n
    return np.concatenate([u, u[:5]]), np.concatenate([v, v[:5]])


class TestPackedRows:
    """Explicit pairs scored from the AND of packed endpoint rows, against
    the merge of their neighbor lists and the every-pair wedge pass."""

    @settings(max_examples=150, deadline=None)
    @given(
        packed_sized_graphs(),
        st.integers(0, 2**32 - 1),
        st.integers(0, 120),
        st.sampled_from([8, 64, 1 << 20]),
    )
    def test_packed_pairs_match_wedge_pass(self, g, seed, m, block):
        # the AND and the merge agree bit for bit, at any chunking of the
        # ANDed rows or the merged lists; pairs without a common neighbor
        # score 0 and repeated pairs score alike
        u, v = random_pairs(np.random.default_rng(seed), g.n, m)
        scorers = ["cn", "aa", "ra", "jc", "pa"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergraph, "ROW_BLOCK", block)
            mp.setattr(hypergraph, "packs", lambda g: True)
            packed = score_pairs_many(scorers, g, u, v)
            mp.setattr(hypergraph, "packs", lambda g: False)
            merged = score_pairs_many(scorers, g, u, v)
        for s in scorers:
            assert packed[s].dtype == merged[s].dtype and np.array_equal(packed[s], merged[s]), s
        weights = [None, np.ones(g.n)]  # an empty pair set gives empty sums
        empty = np.zeros(0, dtype=np.int64)
        for fits in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hypergraph, "packs", lambda g: fits)
                cn, ones = heuristics._common_sums(g, weights, empty, empty)
            assert (cn.dtype, cn.shape, ones.dtype, ones.shape) == (np.int64, (0,), np.float64, (0,))

    @settings(max_examples=150, deadline=None)
    @given(packed_sized_graphs(), st.integers(0, 2**32 - 1), st.integers(0, 60), st.booleans())
    def test_explicit_pairs_match_every_pair_wedge_pass(self, g, seed, m, fits):
        # either row kernel, read at each pair, equals the wedge pass over
        # every pair read at its condensed key, bit for bit; an 8-byte
        # ROW_BLOCK lets one pair overrun a chunk of either kernel
        rng = np.random.default_rng(seed)
        u, v = random_pairs(rng, g.n, m)
        if g.edge_count:  # some edges, in either orientation
            a, b = g.edge_array()[rng.integers(0, g.edge_count, size=5)].T
            u, v = np.concatenate([u, a, b]), np.concatenate([v, b, a])
        scorers = ["cn", "aa", "ra", "jc"]
        every = score_pairs_many(scorers, g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergraph, "ROW_BLOCK", 8)
            mp.setattr(hypergraph, "packs", lambda g: fits)
            got = score_pairs_many(scorers, g, u, v)
        at = hypergraph.condensed_keys(g.n, u, v)
        for s in scorers:
            assert got[s].dtype == every[s].dtype and np.array_equal(got[s], every[s][at]), s

    @settings(max_examples=60, deadline=None)
    @given(packed_sized_graphs(), st.integers(0, 2**32 - 1))
    def test_packed_aa_ra_unchanged_by_relabeling(self, g, seed):
        # equal-degree centres swap ranks, but their terms are equal
        rng = np.random.default_rng(seed)
        perm = rng.permutation(g.n)
        g2 = SimpleGraph(g.n, perm[g.edge_array()])
        u, v = random_pairs(rng, g.n, 80)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergraph, "packs", lambda g: True)
            for s in ("aa", "ra"):
                assert np.array_equal(score_pairs(s, g, u, v), score_pairs(s, g2, perm[u], perm[v])), s

    @pytest.mark.parametrize("n, packed", [(16, True), (17, False)])
    def test_scorer_packs_at_its_bound(self, n, packed, monkeypatch):
        # a 6-leaf star has 15 wedges, 120 bytes of keys: 120 pairs at
        # n=16 take the packed rows, 136 at n=17 the merge; neither makes
        # a wedge pass
        rows, wedges = [], []
        real_rows, real_wedges = hypergraph.packed_rows, hypergraph._wedges
        monkeypatch.setattr(hypergraph, "packed_rows", lambda *a: rows.append(1) or real_rows(*a))
        monkeypatch.setattr(hypergraph, "_wedges", lambda *a: wedges.append(1) or real_wedges(*a))
        g = SimpleGraph(n, [(0, leaf) for leaf in range(1, 7)])
        assert hypergraph.packs(g) == packed
        u, v = np.array([1, 1, 6, 0, 7]), np.array([2, 6, 3, 1, 8])
        out = score_pairs_many(["cn", "aa", "ra", "jc"], g, u, v)
        assert out["cn"].tolist() == [1, 1, 1, 0, 0]
        assert out["ra"].tolist() == [1 / 6] * 3 + [0, 0]
        assert out["aa"].tolist() == [1 / math.log(7)] * 3 + [0, 0]
        assert out["jc"].tolist() == [1, 1, 1, 0, 0]
        assert (bool(rows), bool(wedges)) == (packed, False)


def to_networkx(nx, g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(edge_list(g))
    return G


class TestNetworkxCrossCheck:
    """networkx as an independent reference where the definitions agree.
    Its Adamic/Adar weighs by 1/log(deg), not 1/log(1 + deg), so AA is not
    compared."""

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=3))
    def test_cn_ra_jc_pa(self, g):
        nx = pytest.importorskip("networkx")
        G = to_networkx(nx, g)
        iu, iv = np.triu_indices(g.n, k=1)
        ebunch = list(zip(iu.tolist(), iv.tolist()))
        want = {
            "cn": [float(len(list(nx.common_neighbors(G, u, v)))) for u, v in ebunch],
            "ra": [p for _, _, p in nx.resource_allocation_index(G, ebunch)],
            "jc": [float(p) for _, _, p in nx.jaccard_coefficient(G, ebunch)],
            "pa": [float(p) for _, _, p in nx.preferential_attachment(G, ebunch)],
        }
        for s, values in want.items():
            got = score_pairs(s, g, iu, iv)
            if s == "ra":  # networkx sums in set order
                assert np.allclose(got, values, rtol=PARITY_REL["ra"], atol=0.0)
            else:
                assert got.tolist() == values, s

    def test_simrank(self):
        nx = pytest.importorskip("networkx")
        for seed in range(20):
            g = er_sample(15, 0.3, seed)
            ref = nx.simrank_similarity(to_networkx(nx, g), importance_factor=SIMRANK_DECAY)
            want = np.array([[ref[u][v] for v in range(g.n)] for u in range(g.n)])
            assert np.max(np.abs(simrank_matrix(g) - want)) < 5e-4
