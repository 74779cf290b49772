"""AUC correctness against brute force, protocol behavior, and the
exact-probability ceiling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import graphs
from hyperlp import (
    SCORER_IDS,
    Hypergraph,
    ScanPoint,
    SimpleGraph,
    SplitSpec,
    auc,
    auc_conditional,
    clique_expand,
    leave_one_out,
    model_auc,
    overestimation_scan,
    potential_from_candidates,
    score,
    split_evaluate,
)
from hyperlp.evaluation import (
    LabeledPairs,
    _cross_class_counts,
    _sample_distance_limited_non_links,
    all_pairs,
)


def brute_force_auc(scores, labels):
    """O(P*N) double loop; the oracle the fast path is checked against."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_conditional(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = sum(1 for p in pos for n in neg if p > n)
    informative = sum(1 for p in pos for n in neg if p != n)
    return wins / informative


def brute_force_counts(scores, labels, weights):
    """O(P*N) weighted (greater, ties, P, N)."""
    pos = [(s, w) for s, l, w in zip(scores, labels, weights) if l]
    neg = [(s, w) for s, l, w in zip(scores, labels, weights) if not l]
    greater = sum(wp * wn for sp, wp in pos for sn, wn in neg if sp > sn)
    ties = sum(wp * wn for sp, wp in pos for sn, wn in neg if sp == sn)
    return greater, ties, sum(w for _, w in pos), sum(w for _, w in neg)


def leave_one_out_oracle(g, scorer):
    """Per-pair leave-one-out: each edge scored on a copy without it."""
    pairs = all_pairs(g.n)
    labels = [g.has_edge(u, v) for u, v in pairs]
    scores = [
        score(scorer, g.without_edge(u, v) if edge else g, u, v)
        for (u, v), edge in zip(pairs, labels)
    ]
    return pairs, labels, scores


def bfs_non_links(g_full, g_train, d_hop):
    """Non-links of the full graph at train distance 2..d_hop, by a BFS
    per source, in (source, target) order."""
    out = []
    for src in range(g_train.n):
        dist = {src: 0}
        frontier = [src]
        for depth in range(1, d_hop + 1):
            frontier = [w for u in frontier for w in sorted(g_train.neighbors(u)) if w not in dist]
            for w in frontier:
                dist.setdefault(w, depth)
        out += [
            (src, w) for w in sorted(dist)
            if dist[w] >= 2 and src < w and not g_full.has_edge(src, w)
        ]
    return out


class TestAuc:
    def test_five_vertex_values(self):
        scores = [1, 1, 1, 0] + [0] * 6
        labels = [True] * 4 + [False] * 6
        assert auc(scores, labels) == pytest.approx(0.875, abs=1e-15)
        assert auc_conditional(scores, labels) == pytest.approx(1.0, abs=1e-15)

    def test_all_ties_is_half(self):
        assert auc([3.0] * 8, [True] * 3 + [False] * 5) == 0.5

    def test_perfect_separation(self):
        assert auc([1.0, 0.0], [True, False]) == 1.0
        assert auc_conditional([1.0, 0.0], [True, False]) == 1.0
        assert auc_conditional([0.0, 1.0], [True, False]) == 0.0

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([1.0, 2.0], [True, True])

    def test_conditional_all_ties_rejected(self):
        with pytest.raises(ValueError, match="ties"):
            auc_conditional([1.0, 1.0], [True, False])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            m = int(rng.integers(2, 200))
            # integer-ish scores force plenty of ties
            scores = rng.integers(0, 6, size=m).astype(float)
            labels = rng.random(m) < 0.4
            if not labels.any() or labels.all():
                continue
            assert auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12
            )
            try:
                expected = brute_force_conditional(scores, labels)
            except ZeroDivisionError:
                continue
            assert auc_conditional(scores, labels) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.booleans(), st.floats(0.01, 10.0)),
            min_size=1,
            max_size=40,
        )
    )
    def test_weighted_counts_match_brute_force(self, obs):
        scores, labels, weights = (np.array(x) for x in zip(*obs))
        got = _cross_class_counts(scores.astype(float), labels, weights)
        assert np.allclose(got, brute_force_counts(scores, labels, weights), rtol=1e-12)
        unit = np.ones(len(scores))
        assert _cross_class_counts(scores, labels) == brute_force_counts(scores, labels, unit)

    def test_complement_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = int(rng.integers(2, 100))
            scores = rng.normal(size=m)
            labels = rng.random(m) < 0.5
            if not labels.any() or labels.all():
                continue
            assert auc(scores, labels) + auc(scores, ~labels) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = int(rng.integers(4, 80))
            scores = rng.integers(0, 10, size=m).astype(float)
            labels = rng.random(m) < 0.5
            if not labels.any() or labels.all():
                continue
            base = auc(scores, labels)
            assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
            assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


class TestLabeledPairs:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LabeledPairs(pairs=[(0, 1), (1, 0)], labels=[True, False])

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="self-pair"):
            LabeledPairs(pairs=[(1, 1)], labels=[True])


class TestLeaveOneOut:
    def test_five_vertex_score_matrix(self, five_vertex):
        g = clique_expand(five_vertex)
        lp = leave_one_out(g, "cn")
        got = dict(zip(lp.pairs, lp.scores))
        expected = {
            (0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (3, 4): 0.0,
            (0, 3): 0.0, (0, 4): 0.0, (1, 3): 0.0, (1, 4): 0.0, (2, 3): 0.0, (2, 4): 0.0,
        }
        assert got == expected
        assert auc(lp.scores, lp.labels) == pytest.approx(0.875, abs=1e-15)

    def test_label_counts(self, five_vertex):
        g = clique_expand(five_vertex)
        lp = leave_one_out(g, "cn")
        assert lp.n_pos == g.edge_count
        assert lp.n_neg == g.n * (g.n - 1) // 2 - g.edge_count

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            leave_one_out(SimpleGraph(3, []), "cn")

    def test_complete_graph_rejected(self):
        k3 = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="non-edge"):
            leave_one_out(k3, "cn")

    def test_simrank_leave_one_out(self, five_vertex):
        # the expensive path: a fresh similarity table per removed edge
        g = clique_expand(five_vertex)
        lp = leave_one_out(g, "sr")
        assert len(lp.pairs) == 10
        assert np.all(lp.scores >= 0) and np.all(lp.scores <= 1)
        got = dict(zip(lp.pairs, lp.scores))
        assert got[(0, 1)] > got[(3, 4)]  # surviving triangle vs orphaned pair

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=3, max_n=9))
    def test_matches_per_pair_oracle(self, g):
        assume(0 < g.edge_count < g.n * (g.n - 1) // 2)
        for s in SCORER_IDS:
            pairs, labels, scores = leave_one_out_oracle(g, s)
            lp = leave_one_out(g, s)
            assert lp.pairs == pairs
            assert lp.labels.tolist() == labels
            if s in ("aa", "ra"):
                assert np.allclose(lp.scores, scores, rtol=1e-12, atol=0.0), s
            else:
                assert lp.scores.tolist() == scores, s


class TestSplitEvaluate:
    @staticmethod
    def ring_graph(n):
        return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])

    def test_test_positive_count(self):
        g = self.ring_graph(100)  # 100 edges
        lp = split_evaluate(g, "cn", SplitSpec(rho=0.8, seed=1))
        assert lp.n_pos == 20

    def test_balanced_classes_by_default(self):
        g = self.ring_graph(60)
        lp = split_evaluate(g, "cn", SplitSpec(seed=2))
        assert lp.n_pos == lp.n_neg

    def test_train_test_partition(self):
        g = self.ring_graph(50)
        lp = split_evaluate(g, "cn", SplitSpec(seed=3))
        positives = {p for p, l in zip(lp.pairs, lp.labels) if l}
        assert len(positives) == 10
        # positives are edges of g; negatives are not
        for (u, v), label in zip(lp.pairs, lp.labels):
            assert g.has_edge(u, v) == label

    def test_path_graph_two_hop_candidates(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        # rho=0.5 keeps one edge; the only 2-hop non-link of the full graph
        # is (0, 2), reachable only when both edges survive -- so expect
        # either a valid split or a reported shortfall.
        try:
            lp = split_evaluate(g, "cn", SplitSpec(rho=0.5, d_hop=2, seed=0))
            negs = [p for p, l in zip(lp.pairs, lp.labels) if not l]
            assert negs == [(0, 2)]
        except ValueError as exc:
            assert "short by" in str(exc)

    def test_insufficient_negatives_reports_shortfall(self):
        g = SimpleGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="short by"):
            split_evaluate(g, "cn", SplitSpec(rho=0.5, d_hop=2, seed=0))

    def test_negatives_all_uses_every_non_link(self):
        g = self.ring_graph(12)
        lp = split_evaluate(g, "cn", SplitSpec(seed=5, negative_ratio=None))
        assert lp.n_neg == 12 * 11 // 2 - 12

    def test_deterministic_given_seed(self):
        g = self.ring_graph(40)
        a = split_evaluate(g, "cn", SplitSpec(seed=9))
        b = split_evaluate(g, "cn", SplitSpec(seed=9))
        assert a.pairs == b.pairs
        assert np.array_equal(a.scores, b.scores)

    def test_partition_covers_edges_exactly(self):
        # white-box: replay the internal draw to recover the train graph
        g = self.ring_graph(30)
        spec = SplitSpec(seed=13)
        lp = split_evaluate(g, "cn", spec)
        edges = sorted(g.edges())
        rng = np.random.default_rng(spec.seed)
        test_idx = set(rng.choice(len(edges), size=lp.n_pos, replace=False).tolist())
        train = {e for i, e in enumerate(edges) if i not in test_idx}
        positives = {p for p, l in zip(lp.pairs, lp.labels) if l}
        assert len(train) + len(positives) == g.edge_count
        assert not (positives & train)
        for pair in positives:
            assert pair in set(edges)

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=3, max_n=12), st.data())
    def test_negative_sampler_matches_bfs(self, g, data):
        edges = sorted(g.edges())
        keep = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        g_train = SimpleGraph(g.n, [e for e, k in zip(edges, keep) if k])
        d_hop = data.draw(st.integers(2, 4))
        wanted = data.draw(st.integers(1, 12))
        seed = data.draw(st.integers(0, 2**32 - 1))
        cands = bfs_non_links(g, g_train, d_hop)
        if len(cands) < wanted:
            with pytest.raises(ValueError, match=f"short by {wanted - len(cands)}"):
                _sample_distance_limited_non_links(
                    g, g_train, d_hop, wanted, np.random.default_rng(seed)
                )
            return
        chosen = np.sort(np.random.default_rng(seed).choice(len(cands), size=wanted, replace=False))
        got = _sample_distance_limited_non_links(
            g, g_train, d_hop, wanted, np.random.default_rng(seed)
        )
        assert got == [cands[i] for i in chosen]

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SplitSpec(rho=1.0)
        with pytest.raises(ValueError):
            SplitSpec(d_hop=1)


class TestModelAuc:
    def test_three_vertex_pairs_only(self):
        # three pair-candidates, equal probability: every score ties
        pot = potential_from_candidates(3, [(0, 1), (0, 2), (1, 2)], k_max=3)
        phi = [0.6, 0.0]
        g = SimpleGraph(3, [(0, 1)])
        assert model_auc(pot, phi, g) == 0.5

    def test_three_vertex_single_triple(self):
        # one size-3 candidate: realized graphs are complete or empty, so
        # the ceiling degenerates to 0.5 either way
        pot = potential_from_candidates(3, [(0, 1, 2)], k_max=3)
        phi = [0.0, 0.6]
        assert model_auc(pot, phi, SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])) == 0.5
        assert model_auc(pot, phi, SimpleGraph(3, [])) == 0.5

    def test_full_coverage_certain_selection(self):
        # phi = 1 and candidates covering every pair: the expansion is
        # complete, one class only, 0.5 by convention
        pot = potential_from_candidates(4, [(0, 1, 2, 3)], k_max=4)
        phi = [0.0, 0.0, 1.0]
        g = clique_expand(Hypergraph(4, [(0, 1, 2, 3)]))
        assert model_auc(pot, phi, g) == 0.5

    def test_partial_coverage_ranks_uncovered_last(self):
        pot = potential_from_candidates(4, [(0, 1)], k_max=2)
        g = SimpleGraph(4, [(0, 1)])
        assert model_auc(pot, [0.7], g) == 1.0


class TestOverestimationScan:
    def test_empty_grid(self):
        assert overestimation_scan([], ["cn"], seed=0) == []

    def test_row_errors_recorded_scan_continues(self):
        grid = [
            ScanPoint(n=20, d=2, percentiles=(5.0, 15.0), phi=(0.3, 0.3)),
            ScanPoint(n=20, d=2, percentiles=(5.0, 15.0), phi=(0.3, 0.3)),
        ]
        rows = overestimation_scan(grid, ["cn"], seed=1, max_potential=2)
        assert len(rows) == 2
        assert all(r.error is not None for r in rows)

    def test_higher_order_regime_flags_majority(self):
        # sparse triples with low selection probability: the heuristic
        # reads realized structure the probabilities cannot see
        grid = [ScanPoint(n=60, d=2, percentiles=(0.1, 0.6), phi=(0.0, 0.3))]
        rows = overestimation_scan(grid, ["cn"], seed=9, replicates=30)
        ok = [r for r in rows if r.error is None]
        assert len(ok) >= 20
        flagged = sum(1 for r in ok if r.overestimated)
        assert flagged / len(ok) > 0.5

    def test_pairs_only_regime_flags_are_noise(self):
        # without higher-order candidates the flag rate is sampling noise:
        # two independent batches must agree within 3 sigma
        grid = [ScanPoint(n=25, d=2, percentiles=(5.0, 10.0), phi=(0.4, 0.0))]
        rates = []
        for seed in (101, 202):
            rows = overestimation_scan(grid, ["cn"], seed=seed, replicates=40)
            ok = [r for r in rows if r.error is None]
            rates.append(sum(1 for r in ok if r.overestimated) / len(ok))
        pooled = 0.5 * (rates[0] + rates[1])
        sigma = np.sqrt(max(pooled * (1 - pooled), 1e-12) * (2 / 40))
        assert abs(rates[0] - rates[1]) <= max(3 * sigma, 1e-9)
