"""Scorer definitions, symmetry, and the SimRank fixed point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import graphs
from hyperlp import SCORER_IDS, SimpleGraph, er_sample, score, score_pairs, simrank_matrix
from hyperlp.heuristics import SIMRANK_DECAY, SimRankConvergenceError

# AA and RA sum the same terms in another order than the per-pair scorers.
PARITY_REL = {"aa": 1e-12, "ra": 1e-12}


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
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    for w in g.neighbors(u) & g.neighbors(v):
                        assert g.degree(w) >= 2

    def test_cn_bounds_weighted_variants(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_graph(rng, 15, 0.3)
            for _ in range(20):
                u, v = (int(x) for x in rng.choice(15, size=2, replace=False))
                shared = g.neighbors(u) & g.neighbors(v)
                if not shared:
                    continue
                dmin = min(g.degree(w) for w in shared)
                cn = score("cn", g, u, v)
                assert cn >= score("aa", g, u, v) * math.log(1 + dmin) - 1e-9
                assert cn >= score("ra", g, u, v) * dmin - 1e-9

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, 10, 0.3)
        perm = rng.permutation(10)
        g2 = SimpleGraph(10, [(int(perm[u]), int(perm[v])) for u, v in g.edges()])
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


class TestScorePairsParity:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_matches_per_pair_scorers(self, g):
        # every pair in a shuffled order, each in a random orientation
        rng = np.random.default_rng(g.n + g.edge_count)
        iu, iv = np.triu_indices(g.n, k=1)
        perm = rng.permutation(len(iu))
        flip = rng.random(len(iu)) < 0.5
        u, v = np.where(flip, iv, iu)[perm], np.where(flip, iu, iv)[perm]
        for s in SCORER_IDS:
            got = score_pairs(s, g, u, v)
            want = np.array([score(s, g, a, b) for a, b in zip(u.tolist(), v.tolist())])
            rel = PARITY_REL.get(s, 0.0)
            assert np.allclose(got, want, rtol=rel, atol=0.0) if rel else np.array_equal(got, want), s


def to_networkx(nx, g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
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
