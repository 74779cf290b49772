"""AUC correctness against brute force, protocol behavior, and the
exact-probability ceiling."""

import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    OracleGraph,
    all_pairs,
    edge_list,
    graphs,
    oracle_score,
    random_hypergraph,
    scored_pairs,
    unique_counts,
)
from hyperlp import (
    SCORER_IDS,
    Hypergraph,
    ModelConfig,
    SimpleGraph,
    SplitSpec,
    adjusted_auc,
    auc,
    auc_conditional,
    clique_expand,
    evaluate_protocol,
    link_probability_map,
    model_auc,
    overestimation_scan,
    potential_from_candidates,
    protocol_scores,
    resolve_model,
    sample_hypergraph,
)
import hyperlp
from hyperlp import evaluation, heuristics, hypergraph, latent
from hyperlp.evaluation import (
    AucCount,
    _cross_class_counts,
    _sample_distance_limited_non_links,
)
from hyperlp.hypergraph import condensed_pairs, distinct_keys


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
    """Per-pair leave-one-out on the reference graph: each edge scored by
    the per-pair oracle on a copy without it."""
    ref = OracleGraph.of(g)
    pairs = all_pairs(g.n)
    labels = [ref.has_edge(u, v) for u, v in pairs]
    scores = [
        oracle_score(scorer, ref.without_edge(u, v) if edge else ref, u, v)
        for (u, v), edge in zip(pairs, labels)
    ]
    return pairs, labels, scores


def every_non_link_oracle(g, scorers, spec):
    """Each scorer's count under ``spec`` with ``negative_ratio=None``,
    by explicit pairs: the held-out edges' and every non-edge's condensed
    keys converted to pairs, scored on the train graph and counted."""
    edges = g.edge_array()
    m = len(edges)
    n_test = math.ceil((1.0 - spec.rho) * m)
    if n_test == 0 or n_test == m:
        raise ValueError(f"split leaves an empty class: {m} edges, {n_test} test positives")
    rng = np.random.default_rng(spec.seed)
    test = np.zeros(m, dtype=bool)
    test[rng.choice(m, size=n_test, replace=False)] = True
    g_train = SimpleGraph(g.n, edges[~test])
    keys = np.concatenate([g.edge_keys()[test], np.flatnonzero(~evaluation._pair_labels(g))])
    if len(keys) == n_test:
        raise ValueError("no negatives available for the split")
    labels = np.arange(len(keys)) < n_test
    scores = heuristics.score_pairs_many(scorers, g_train, *condensed_pairs(g.n, keys).T)
    return {
        s: x if isinstance(x, Exception) else AucCount.of(x, labels) for s, x in scores.items()
    }


def bfs_non_links(g_full, g_train, d_hop):
    """Non-links of the full graph at train distance 2..d_hop, by a BFS
    per source, in (source, target) order."""
    ref, full = OracleGraph.of(g_train), OracleGraph.of(g_full)
    out = []
    for src in range(g_train.n):
        dist = {src: 0}
        frontier = [src]
        for depth in range(1, d_hop + 1):
            frontier = [w for u in frontier for w in sorted(ref.neighbors(u)) if w not in dist]
            for w in frontier:
                dist.setdefault(w, depth)
        out += [
            (src, w) for w in sorted(dist)
            if dist[w] >= 2 and src < w and not full.has_edge(src, w)
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.booleans(), st.floats(0.01, 10.0), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_zero_weight_drops_an_observation(self, obs):
        # an observation of weight 0, or of class -1, counts as one removed
        scores, labels, weights, dropped = (np.array(x) for x in zip(*obs))
        scores = scores.astype(float)
        kept = ~dropped
        got = _cross_class_counts(scores, labels, np.where(dropped, 0.0, weights))
        want = _cross_class_counts(scores[kept], labels[kept], weights[kept])
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)
        classes = np.where(dropped, -1, labels.astype(int))
        want = _cross_class_counts(scores[kept], labels[kept])
        assert _cross_class_counts(scores, classes) == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
                    st.floats(width=64),
                ),
                st.booleans(),
                st.floats(1e-3, 1e3),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_sorted_counts_match_unique_grouping(self, obs):
        # ties, -0.0 against 0.0, infinities and NaN (grouped as one value)
        scores, labels, weights = (np.array(x) for x in zip(*obs))
        assert _cross_class_counts(scores, labels) == unique_counts(scores, labels)
        got = _cross_class_counts(scores, labels, weights)
        want = unique_counts(scores, labels, weights)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)

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


class TestLeaveOneOut:
    def test_five_vertex_score_matrix(self, five_vertex):
        g = clique_expand(five_vertex)
        _, labels, scores = protocol_scores(g, ["cn"], "loo")  # every pair, in condensed order
        got = dict(zip(all_pairs(g.n), scores["cn"]))
        expected = {
            (0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (3, 4): 0.0,
            (0, 3): 0.0, (0, 4): 0.0, (1, 3): 0.0, (1, 4): 0.0, (2, 3): 0.0, (2, 4): 0.0,
        }
        assert got == expected
        assert auc(scores["cn"], labels) == pytest.approx(0.875, abs=1e-15)

    def test_label_counts(self, five_vertex):
        g = clique_expand(five_vertex)
        pairs, labels, _ = scored_pairs(g, "cn", "loo")
        assert pairs.tolist() == list(map(list, all_pairs(g.n)))
        assert labels.sum() == g.edge_count
        assert (~labels).sum() == g.n * (g.n - 1) // 2 - g.edge_count

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            scored_pairs(SimpleGraph(3, []), "cn", "loo")

    def test_complete_graph_rejected(self):
        k3 = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="non-edge"):
            scored_pairs(k3, "cn", "loo")

    def test_simrank_leave_one_out(self, five_vertex):
        # the expensive path: a fresh similarity table per removed edge
        g = clique_expand(five_vertex)
        pairs, _, scores = scored_pairs(g, "sr", "loo")
        assert len(pairs) == 10
        assert np.all(scores >= 0) and np.all(scores <= 1)
        got = dict(zip(map(tuple, pairs.tolist()), scores))
        assert got[(0, 1)] > got[(3, 4)]  # surviving triangle vs orphaned pair

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=3, max_n=9))
    def test_matches_per_pair_oracle(self, g):
        assume(0 < g.edge_count < g.n * (g.n - 1) // 2)
        for s in SCORER_IDS:
            pairs, labels, scores = leave_one_out_oracle(g, s)
            got_pairs, got_labels, got = scored_pairs(g, s, "loo")
            assert got_pairs.tolist() == list(map(list, pairs))
            assert got_labels.tolist() == labels
            if s in ("aa", "ra"):
                assert np.allclose(got, scores, rtol=1e-12, atol=0.0), s
            else:
                assert got.tolist() == scores, s


class TestEvaluateProtocol:
    @pytest.mark.parametrize("protocol", ["loo", SplitSpec(seed=3)], ids=["loo", "split"])
    def test_scorers_share_one_pair_set(self, protocol):
        g = SimpleGraph(30, [(i, (i + 1) % 30) for i in range(30)] + [(0, 2), (5, 9)])
        pairs, labels, scores = protocol_scores(g, SCORER_IDS, protocol)
        assert list(scores) == list(SCORER_IDS)
        for s in SCORER_IDS:
            assert scores[s].shape == labels.shape, s
        if protocol == "loo":  # every pair, in condensed order: no pair array
            assert pairs is None and len(labels) == g.n * (g.n - 1) // 2
        else:
            assert pairs.shape == (len(labels), 2)
        out = evaluate_protocol(g, SCORER_IDS, protocol)
        assert list(out) == list(SCORER_IDS)
        n_pos = int(labels.sum())
        assert {(c.n_pos, c.n_neg) for c in out.values()} == {(n_pos, len(labels) - n_pos)}

    def test_pair_set_failure_fills_every_slot(self):
        k3 = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
        out = evaluate_protocol(k3, ["cn", "pa"], "loo")
        assert isinstance(out["cn"], ValueError) and out["pa"] is out["cn"]

    def test_unknown_scorer_fills_its_slot(self):
        g = SimpleGraph(4, [(0, 1), (1, 2)])
        out = evaluate_protocol(g, ["cn", "katz"], "loo")
        assert isinstance(out["katz"], ValueError)
        assert isinstance(out["cn"], AucCount)

    @staticmethod
    def count_passes(monkeypatch, blocks=None):
        """Centres per call of ``hypergraph._wedges``, which builds each
        wedge block; ``blocks`` collects weak references to their keys."""
        calls = []
        real = hypergraph._wedges

        def counted(*args):
            calls.append(len(args[1]))
            block = real(*args)
            if blocks is not None:
                blocks.append(weakref.ref(block[0]))
            return block

        monkeypatch.setattr(hypergraph, "_wedges", counted)
        return calls

    def test_one_wedge_pass_per_graph(self, monkeypatch):
        g = clique_expand(random_hypergraph(np.random.default_rng(5), 40, 50, max_size=5))
        blocks = []
        calls = self.count_passes(monkeypatch, blocks)
        evaluate_protocol(g, ["cn", "aa", "ra", "pa", "jc"], "loo")
        assert calls == [g.n]  # one block, every centre
        calls.clear()
        # the train graph packs: sampler and scorers read its packed rows
        out = evaluate_protocol(g, ["cn", "aa"], SplitSpec(seed=2))
        assert calls == []
        gc.collect()  # no block outlives its call, though the results do
        assert len(blocks) == 1 and all(ref() is None for ref in blocks) and out

    @pytest.mark.parametrize("protocol", ["loo", SplitSpec(seed=4)], ids=["loo", "split"])
    def test_wedge_blocks_change_no_score(self, protocol, monkeypatch):
        # leave-one-out reads the wedges in blocks, and a split that packs
        # reads its rows one at a time: the same negatives and the same bits
        g = clique_expand(random_hypergraph(np.random.default_rng(6), 40, 50, max_size=5))
        want_pairs, want_labels, want = protocol_scores(g, SCORER_IDS, protocol)
        monkeypatch.setattr(hypergraph, "WEDGE_BLOCK", 20)
        monkeypatch.setattr(hypergraph, "ROW_BLOCK", 8)  # n=40: one 8-byte word per row
        calls = self.count_passes(monkeypatch)
        got_pairs, got_labels, got = protocol_scores(g, SCORER_IDS, protocol)
        if protocol == "loo":
            assert len(calls) > 1 and sum(calls) == g.n  # one whole pass
        else:
            assert calls == []
        if protocol == "loo":
            assert got_pairs is None and want_pairs is None
        else:
            assert np.array_equal(got_pairs, want_pairs)
        assert np.array_equal(got_labels, want_labels)
        for s in SCORER_IDS:
            assert np.array_equal(got[s], want[s]), s

    @pytest.mark.parametrize(
        "protocol", ["loo", SplitSpec(seed=4, negative_ratio=None)], ids=["loo", "split"]
    )
    def test_failed_wedge_pass_fails_only_wedge_scorers(self, protocol, monkeypatch):
        g = clique_expand(random_hypergraph(np.random.default_rng(7), 12, 10, max_size=4))
        clean = protocol_scores(g, SCORER_IDS, protocol)[2]

        def broken(*args):
            raise MemoryError("no room for the wedges")

        monkeypatch.setattr(hypergraph, "_wedges", broken)
        monkeypatch.setattr(hypergraph, "packed_rows", broken)  # the split's pass
        out = protocol_scores(g, SCORER_IDS, protocol)[2]
        for s in ("cn", "aa", "ra", "jc"):
            assert isinstance(out[s], MemoryError) and out[s] is out["cn"], s
        for s in ("pa", "sr"):
            assert np.array_equal(out[s], clean[s]), s

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    def test_packed_split_takes_no_wedge_pass(self, seed, d_hop):
        # where the train graph packs, its negatives and its explicit-pair
        # scores both come from packed rows
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 70))
        g = clique_expand(random_hypergraph(rng, n, int(rng.integers(n, 3 * n)), max_size=5))
        spec = SplitSpec(rho=0.7, d_hop=d_hop, seed=seed)
        try:
            g_train = evaluation._split_pair_set(g, spec)[0]
        except ValueError:  # too few negatives
            assume(False)
        assume(hypergraph.packs(g_train))
        want = protocol_scores(g, ["aa"], spec)
        with pytest.MonkeyPatch.context() as mp:
            calls = self.count_passes(mp)
            got = protocol_scores(g, ["aa"], spec)
        assert calls == []
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[2]["aa"], want[2]["aa"])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_records_match_labeled_pairs(self, seed):
        # the count of each scorer's record is the count of its scores from
        # protocol_scores, exactly, or both carry the same error
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        g = clique_expand(random_hypergraph(rng, n, int(rng.integers(1, n + 1)), max_size=4))
        for protocol in ("loo", SplitSpec(rho=0.6, seed=seed)):
            out = evaluate_protocol(g, SCORER_IDS, protocol)
            for s in SCORER_IDS:
                try:
                    _, labels, scores = scored_pairs(g, s, protocol)
                except Exception as exc:
                    assert type(out[s]) is type(exc) and str(out[s]) == str(exc), s
                    continue
                assert out[s] == AucCount.of(scores, labels), s
                counts = (out[s].greater, out[s].ties, out[s].n_pos, out[s].n_neg)
                assert counts == unique_counts(scores, labels), s

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.floats(0.0, 1.0),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
    )
    @example(n=6, p=0.0, rho=0.8, seed=0)  # edgeless
    @example(n=6, p=1.0, rho=0.8, seed=0)  # complete: no negatives
    @example(n=2, p=1.0, rho=0.5, seed=0)  # one edge
    @example(n=12, p=0.6, rho=0.7, seed=1)  # packs
    @example(n=40, p=0.04, rho=0.7, seed=2)  # does not pack
    def test_every_non_link_matches_explicit_pairs(self, n, p, rho, seed):
        # every pair of the train graph, counted through the class array,
        # gives the explicit-pair route's counts for every scorer
        rng = np.random.default_rng(seed)
        u, v = np.triu_indices(n, k=1)
        keep = rng.random(len(u)) < p
        g = SimpleGraph(n, np.column_stack((u[keep], v[keep])))
        spec = SplitSpec(rho=rho, seed=seed, negative_ratio=None)
        try:
            want = every_non_link_oracle(g, SCORER_IDS, spec)
        except ValueError as exc:
            want = dict.fromkeys(SCORER_IDS, exc)
        got = evaluate_protocol(g, SCORER_IDS, spec)
        for s in SCORER_IDS:
            if isinstance(want[s], Exception):
                assert type(got[s]) is type(want[s]) and str(got[s]) == str(want[s]), s
            else:
                assert got[s] == want[s], s

    @pytest.mark.parametrize("n, hyperedges", [(30, 40), (300, 150)], ids=["packs", "sparse"])
    def test_every_non_link_scores_every_pair(self, n, hyperedges, monkeypatch):
        # one every-pair call on the train graph, whether or not it packs,
        # and no pair array built from condensed keys
        g = clique_expand(random_hypergraph(np.random.default_rng(8), n, hyperedges, max_size=4))
        calls = []
        real = evaluation.score_pairs_many

        def spy(scorers, graph, *args, **kwargs):
            calls.append((graph.edge_count, args, kwargs))
            return real(scorers, graph, *args, **kwargs)

        def refuse(*args):
            raise AssertionError("condensed_pairs was called")

        monkeypatch.setattr(evaluation, "score_pairs_many", spy)
        monkeypatch.setattr(evaluation, "condensed_pairs", refuse)
        monkeypatch.setattr(hypergraph, "condensed_pairs", refuse)
        out = evaluate_protocol(g, SCORER_IDS, SplitSpec(seed=1, negative_ratio=None))
        assert all(isinstance(c, AucCount) for c in out.values())
        n_test = math.ceil(0.2 * g.edge_count)
        assert calls == [(g.edge_count - n_test, (), {})]

    def test_bad_arguments_raise(self):
        g = SimpleGraph(4, [(0, 1), (1, 2)])
        with pytest.raises(TypeError):
            evaluate_protocol(g, "cn", "loo")
        with pytest.raises(ValueError, match="unknown protocol"):
            evaluate_protocol(g, ["cn"], "kfold")

    def test_delegates_return_protocol_scores(self):
        # leave_one_out and split_evaluate stay only as names the benchmark
        # traces: each returns protocol_scores' output for one scorer, bit
        # for bit, and neither is exported
        g = clique_expand(random_hypergraph(np.random.default_rng(9), 20, 25, max_size=4))
        for protocol in ("loo", SplitSpec(seed=1), SplitSpec(seed=1, negative_ratio=None)):
            for s in SCORER_IDS:
                if protocol == "loo":
                    got = evaluation.leave_one_out(g, s)
                else:
                    got = evaluation.split_evaluate(g, s, protocol)
                want = protocol_scores(g, [s], protocol)
                assert list(got[2]) == [s]
                for a, b in zip((*got[:2], got[2][s]), (*want[:2], want[2][s])):
                    assert a is b is None or (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), s
        assert hyperlp.protocol_scores is protocol_scores
        gone = [
            (hyperlp, "LabeledPairs"), (hyperlp, "leave_one_out"), (hyperlp, "split_evaluate"),
            (hyperlp, "link_probability"), (evaluation, "LabeledPairs"),
            (latent, "link_probability"), (SimpleGraph, "degree"), (SimpleGraph, "has_edge"),
            (SimpleGraph, "edges"), (hyperlp.DatasetBundle, "label_of"),
        ]
        assert [name for owner, name in gone if hasattr(owner, name)] == []


class TestSplitEvaluate:
    @staticmethod
    def ring_graph(n):
        return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])

    def test_test_positive_count(self):
        g = self.ring_graph(100)  # 100 edges
        _, labels, _ = scored_pairs(g, "cn", SplitSpec(rho=0.8, seed=1))
        assert labels.sum() == 20

    def test_balanced_classes_by_default(self):
        g = self.ring_graph(60)
        _, labels, _ = scored_pairs(g, "cn", SplitSpec(seed=2))
        assert labels.sum() == (~labels).sum()

    def test_train_test_partition(self):
        g = self.ring_graph(50)
        pairs, labels, _ = scored_pairs(g, "cn", SplitSpec(seed=3))
        positives = {tuple(p) for p, l in zip(pairs.tolist(), labels) if l}
        assert len(positives) == 10
        # positives are edges of g; negatives are not
        edges = set(edge_list(g))
        for (u, v), label in zip(pairs.tolist(), labels):
            assert ((u, v) in edges) == label

    def test_path_graph_two_hop_candidates(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        # rho=0.5 keeps one edge; the only 2-hop non-link of the full graph
        # is (0, 2), reachable only when both edges survive -- so expect
        # either a valid split or a reported shortfall.
        try:
            pairs, labels, _ = scored_pairs(g, "cn", SplitSpec(rho=0.5, d_hop=2, seed=0))
            assert pairs[~labels].tolist() == [[0, 2]]
        except ValueError as exc:
            assert "short by" in str(exc)

    def test_insufficient_negatives_reports_shortfall(self):
        g = SimpleGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="short by"):
            scored_pairs(g, "cn", SplitSpec(rho=0.5, d_hop=2, seed=0))

    def test_ratio_asking_for_no_negative_refused(self):
        # 11 edges: the split holds out 3, and 0.1 * 3 rounds to 0; at 0.2
        # the same split draws its one negative, so non-links exist
        g = clique_expand(Hypergraph(8, [[0, 1, 2], [2, 3], [3, 4, 5], [5, 6], [6, 7, 0]]))
        refused = evaluate_protocol(g, ["cn", "aa"], SplitSpec(negative_ratio=0.1))
        for scorer, error in refused.items():
            assert isinstance(error, ValueError), scorer
            assert str(error) == "negative_ratio 0.1 of 3 test positives rounds to 0 negatives"
        count = evaluate_protocol(g, ["cn"], SplitSpec(negative_ratio=0.2))["cn"]
        assert (count.n_pos, count.n_neg) == (3, 1)

    def test_negatives_all_uses_every_non_link(self):
        g = self.ring_graph(12)
        pairs, labels, _ = scored_pairs(g, "cn", SplitSpec(seed=5, negative_ratio=None))
        assert (~labels).sum() == 12 * 11 // 2 - 12
        # the held-out edges and every non-edge, together in condensed order
        keys = hypergraph.condensed_keys(g.n, *pairs.T)
        assert (np.diff(keys) > 0).all()
        assert list(map(tuple, pairs[~labels].tolist())) == list(OracleGraph.of(g).non_edges())
        assert labels.sum() == 3 and np.isin(keys[labels], g.edge_keys()).all()

    def test_deterministic_given_seed(self):
        g = self.ring_graph(40)
        a = scored_pairs(g, "cn", SplitSpec(seed=9))
        b = scored_pairs(g, "cn", SplitSpec(seed=9))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[2], b[2])

    def test_partition_covers_edges_exactly(self):
        # white-box: replay the internal draw to recover the train graph
        g = self.ring_graph(30)
        spec = SplitSpec(seed=13)
        pairs, labels, _ = scored_pairs(g, "cn", spec)
        edges = edge_list(g)
        rng = np.random.default_rng(spec.seed)
        test_idx = set(rng.choice(len(edges), size=labels.sum(), replace=False).tolist())
        train = {e for i, e in enumerate(edges) if i not in test_idx}
        positives = set(map(tuple, pairs[labels].tolist()))
        assert len(train) + len(positives) == g.edge_count
        assert not (positives & train)
        for pair in positives:
            assert pair in set(edges)

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=3, max_n=12), st.data())
    def test_negative_sampler_matches_bfs(self, g, data):
        edges = edge_list(g)
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
        assert got.shape == (wanted, 2)
        assert list(map(tuple, got.tolist())) == [cands[i] for i in chosen]

    @pytest.mark.parametrize("d_hop", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_negative_sampler_matches_bfs_at_hop(self, d_hop, seed):
        # the wedge join (d_hop 2) and the extensions (d_hop 3) pick the
        # BFS candidates with the same draws, on graphs of 0..25 vertices
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 26))
        iu, iv = np.triu_indices(n, k=1)
        full = rng.random(len(iu)) < rng.random()
        train = full & (rng.random(len(iu)) < 0.8)
        g = SimpleGraph(n, np.column_stack((iu[full], iv[full])))
        g_train = SimpleGraph(n, np.column_stack((iu[train], iv[train])))
        cands = bfs_non_links(g, g_train, d_hop)
        wanted = min(len(cands), int(rng.integers(1, 40)))
        got = _sample_distance_limited_non_links(
            g, g_train, d_hop, wanted, np.random.default_rng(seed)
        )
        chosen = np.sort(np.random.default_rng(seed).choice(len(cands), size=wanted, replace=False))
        assert got.shape == (wanted, 2)
        assert list(map(tuple, got.tolist())) == [cands[i] for i in chosen]

    def test_negative_sampler_in_wedge_blocks(self, monkeypatch):
        # two-hop candidates merged block by block: the same BFS pairs
        monkeypatch.setattr(hypergraph, "WEDGE_BLOCK", 3)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            iu, iv = np.triu_indices(20, k=1)
            full = rng.random(len(iu)) < 0.3
            train = full & (rng.random(len(iu)) < 0.8)
            g = SimpleGraph(20, np.column_stack((iu[full], iv[full])))
            g_train = SimpleGraph(20, np.column_stack((iu[train], iv[train])))
            cands = bfs_non_links(g, g_train, 2)
            wanted = min(len(cands), 15)
            got = _sample_distance_limited_non_links(
                g, g_train, 2, wanted, np.random.default_rng(seed)
            )
            chosen = np.sort(np.random.default_rng(seed).choice(len(cands), wanted, replace=False))
            assert list(map(tuple, got.tolist())) == [cands[i] for i in chosen]

    @staticmethod
    def two_hop_graphs(side, seed):
        """A full graph and its train graph, either dense (n(n-1)/2 mark
        bytes within the 8 bytes per wedge key) or mostly isolated
        vertices (the mark would outgrow the keys)."""
        rng = np.random.default_rng(seed)
        n, active = (30, 30) if side == "mark" else (200, 20)
        pairs = np.column_stack(np.triu_indices(active, k=1))
        full = rng.random(len(pairs)) < 0.3
        train = full & (rng.random(len(pairs)) < 0.8)
        return SimpleGraph(n, pairs[full]), SimpleGraph(n, pairs[train])

    @staticmethod
    def spy_on_sorts(monkeypatch):
        """The lengths of the key arrays the sampler sorts, as it sorts them."""
        sorted_keys = []
        monkeypatch.setattr(
            hypergraph,
            "distinct_keys",
            lambda keys: sorted_keys.append(len(keys)) or distinct_keys(keys),
        )
        return sorted_keys

    @pytest.mark.parametrize("block", [None, 3], ids=["one-block", "blocks"])
    @pytest.mark.parametrize("side", ["mark", "sort"])
    def test_negative_sampler_sides_match_bfs(self, side, block, monkeypatch):
        # the boolean mark and the per-block sort pick the same BFS pairs
        if block is not None:
            monkeypatch.setattr(hypergraph, "WEDGE_BLOCK", block)
        sorted_keys = self.spy_on_sorts(monkeypatch)
        for seed in range(5):
            g, g_train = self.two_hop_graphs(side, seed)
            marks = g.n * (g.n - 1) // 2 <= 8 * hypergraph.wedge_count(g_train)
            assert marks == (side == "mark")
            blocks = len(list(hypergraph.wedge_blocks(g_train)))
            assert blocks > 1 if block else blocks == 1
            cands = bfs_non_links(g, g_train, 2)
            wanted = min(len(cands), 25)
            sorted_keys.clear()
            got = _sample_distance_limited_non_links(
                g, g_train, 2, wanted, np.random.default_rng(seed)
            )
            chosen = np.sort(np.random.default_rng(seed).choice(len(cands), wanted, replace=False))
            assert wanted and list(map(tuple, got.tolist())) == [cands[i] for i in chosen]
            # the sort dedupes each block, then their union with the edges once
            assert len(sorted_keys) == (0 if marks else blocks + 1)

    @pytest.mark.parametrize("n, marks", [(16, True), (17, False)])
    def test_negative_sampler_mark_rule_at_its_bound(self, n, marks, monkeypatch):
        # a 6-leaf star has 15 wedges, 120 bytes of keys: 120 pairs at
        # n=16 take the mark, 136 at n=17 the sort
        g = SimpleGraph(n, [(0, leaf) for leaf in range(1, 7)])
        sorted_keys = self.spy_on_sorts(monkeypatch)  # the constructor sorts too
        got = _sample_distance_limited_non_links(g, g, 2, 15, np.random.default_rng(0))
        assert got.tolist() == [[a, b] for a in range(1, 7) for b in range(a + 1, 7)]
        assert bool(sorted_keys) != marks

    @pytest.mark.parametrize(
        "n, full, train",
        [
            (0, [], []),
            (1, [], []),
            (2, [], []),
            (2, [(0, 1)], [(0, 1)]),
            (6, [(0, 1), (2, 3), (4, 5)], [(0, 1), (2, 3)]),
            (4, [(0, 1), (1, 2), (2, 3)], [(0, 1), (2, 3)]),
        ],
    )
    def test_negative_sampler_without_wedges_is_short(self, n, full, train):
        g, g_train = SimpleGraph(n, full), SimpleGraph(n, train)
        assert hypergraph.wedge_count(g_train) == 0
        with pytest.raises(ValueError, match="short by 1"):
            _sample_distance_limited_non_links(g, g_train, 2, 1, np.random.default_rng(0))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SplitSpec(rho=1.0)
        with pytest.raises(ValueError):
            SplitSpec(d_hop=1)

    @pytest.mark.parametrize("reader", [
        lambda spec: evaluate_protocol(SimpleGraph(4, [(0, 1), (1, 2)]), ["cn"], spec()),
        lambda spec: adjusted_auc(Hypergraph(4, [(0, 1), (1, 2)]), ["cn"], spec(), n_runs=1),
    ], ids=["evaluate_protocol", "adjusted_auc"])
    @pytest.mark.parametrize("field, value, message", [
        ("negative_ratio", math.nan, "negative_ratio must be finite and > 0, got nan"),
        ("negative_ratio", math.inf, "negative_ratio must be finite and > 0, got inf"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_bad_spec_refused_when_built(self, reader, field, value, message):
        # a NaN ratio filled every scorer's slot with "cannot convert float
        # NaN to integer", an infinite one with an OverflowError, and a
        # negative seed failed inside numpy
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reader(lambda: SplitSpec(**{field: value}))


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

    def test_wrong_phi_length_rejected(self):
        pot = potential_from_candidates(4, [(0, 1), (1, 2, 3)], k_max=3)
        with pytest.raises(ValueError, match="phi needs 2 values for sizes 2..3, got 1"):
            model_auc(pot, [0.9], SimpleGraph(4, [(0, 1)]))

    def test_vertex_count_mismatch_rejected(self):
        pot = potential_from_candidates(4, [(0, 1)], k_max=2)
        with pytest.raises(ValueError, match="graph has 5 vertices; the candidate index has 4"):
            model_auc(pot, [0.7], SimpleGraph(5, [(0, 1)]))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pair_oracle(self, data):
        # every pair's exact link probability, counted against g's adjacency
        n = data.draw(st.integers(2, 8))
        subsets = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
        candidates = data.draw(st.lists(subsets, max_size=10))
        k_max = max((len(c) for c in candidates), default=2)
        pot = potential_from_candidates(n, candidates, k_max=k_max)
        phi = data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=k_max - 1, max_size=k_max - 1
        ))
        g = data.draw(graphs(min_n=n, max_n=n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        prob = link_probability_map(pot, phi)  # in the order of pairs
        ref = OracleGraph.of(g)
        labels = np.array([ref.has_edge(u, v) for u, v in pairs])
        want = AucCount.of(prob, labels).auc if 0 < labels.sum() < len(pairs) else 0.5
        assert model_auc(pot, phi, g) == want


class TestOverestimationScan:
    def test_empty_grid(self):
        # no replicates: no draw and no row
        assert overestimation_scan(ModelConfig(n=20, replicates=0), ["cn"]) == []

    def test_row_errors_recorded_scan_continues(self):
        cfg = ModelConfig(
            n=20, seed=1, percentiles=(5.0, 15.0), phi=(0.3, 0.3), max_potential=2, replicates=2
        )
        rows = overestimation_scan(cfg, ["cn"])
        assert len(rows) == 2
        assert all(r.error is not None for r in rows)

    def test_simrank_budget_fails_only_sr_rows(self, monkeypatch):
        cfg = ModelConfig(n=20, seed=1, percentiles=(5.0, 15.0), phi=(0.3, 0.3), replicates=2)
        clean = overestimation_scan(cfg, ["cn"])
        monkeypatch.setattr(heuristics, "SIMRANK_LOO_BUDGET", 10)
        rows = overestimation_scan(cfg, ["cn", "sr"])
        cn = [r for r in rows if r.scorer == "cn"]
        sr = [r for r in rows if r.scorer == "sr"]
        assert cn == clean and all(r.error is None for r in cn)
        assert all(r.heuristic_auc is None and "cap of 10" in r.error for r in sr)
        assert [r.model_auc for r in sr] == [r.model_auc for r in cn]

    @pytest.mark.parametrize("phi", [(0.3,), (0.3, 0.3, 0.3)])
    def test_phi_length_refused_when_built(self, phi):
        # the config refuses it, so no scan can start on it
        with pytest.raises(ValueError, match="^phi needs 2 values for sizes 2..3, got "):
            ModelConfig(n=20, percentiles=(5.0, 15.0), phi=phi, replicates=3)

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", math.inf, "alpha must be positive and finite, got inf"),
        ("replicates", -1, "replicates must be >= 0, got -1"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_bad_value_refused_when_built(self, field, value, message):
        # each was built and scanned: alpha = inf gave two rows carrying
        # its error, and the other two failed in numpy, naming no field
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelConfig(**{"n": 20, "replicates": 2, field: value})

    @pytest.mark.parametrize("phi", ["hoff_sigmoid", "empirical", (0.2, 0.1)])
    def test_rows_are_the_resolved_model(self, phi):
        # each replicate resolves its model as generate does: its row
        # rebuilds bit for bit from resolve_model at the row's seed
        cfg = ModelConfig(n=24, seed=5, percentiles=(4.0, 12.0), phi=phi, alpha=6.0, replicates=3)
        rows = overestimation_scan(cfg, ["cn"])
        assert len({r.seed for r in rows}) == 3
        for row in rows:
            _, pot, want_phi, _ = resolve_model(row.point, row.seed)
            g = clique_expand(sample_hypergraph(pot, want_phi, row.seed))
            assert row.point.phi == tuple(want_phi.tolist())
            assert row.model_auc == model_auc(pot, want_phi, g)
            assert (row.point.n, row.point.seed, row.point.alpha) == (24, row.seed, 6.0)

    def test_grid_points_n_outer(self):
        cfg = ModelConfig(n=20, n_list=(20, 24), d_list=(1, 2), replicates=1)
        assert [(p.n, p.d, p.n_list, p.d_list) for p in cfg.points()] == [
            (20, 1, (), ()), (20, 2, (), ()), (24, 1, (), ()), (24, 2, (), ()),
        ]
        rows = overestimation_scan(cfg, ["cn"])
        assert [(r.point.n, r.point.d) for r in rows] == [(20, 1), (20, 2), (24, 1), (24, 2)]

    def test_higher_order_regime_flags_majority(self):
        # sparse triples with low selection probability: the heuristic
        # reads realized structure the probabilities cannot see
        cfg = ModelConfig(n=60, seed=9, percentiles=(0.1, 0.6), phi=(0.0, 0.3), replicates=30)
        rows = overestimation_scan(cfg, ["cn"])
        ok = [r for r in rows if r.error is None]
        assert len(ok) >= 20
        flagged = sum(1 for r in ok if r.overestimated)
        assert flagged / len(ok) > 0.5

    def test_pairs_only_regime_flags_are_noise(self):
        # without higher-order candidates the flag rate is sampling noise:
        # two independent batches must agree within 3 sigma
        rates = []
        for seed in (101, 202):
            cfg = ModelConfig(
                n=25, seed=seed, percentiles=(5.0, 10.0), phi=(0.4, 0.0), replicates=40
            )
            rows = overestimation_scan(cfg, ["cn"])
            ok = [r for r in rows if r.error is None]
            rates.append(sum(1 for r in ok if r.overestimated) / len(ok))
        pooled = 0.5 * (rates[0] + rates[1])
        sigma = np.sqrt(max(pooled * (1 - pooled), 1e-12) * (2 / 40))
        assert abs(rates[0] - rates[1]) <= max(3 * sigma, 1e-9)
