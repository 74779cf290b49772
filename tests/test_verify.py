"""Monte-Carlo harnesses: random-graph facts, the higher-order AUC lift,
and exact-enumeration cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import all_pairs, counting, oracle_clique_expand, oracle_score, unique_counts
from hyperlp import (
    Hypergraph,
    adjusted_auc,
    clustering_coefficient,
    er_sample,
    exact_ensemble_auc,
    potential_from_candidates,
    verify_er_auc_baseline,
    verify_er_clustering,
    verify_er_common_neighbors,
    verify_higher_order_auc_lift,
    verify_relocation_baseline,
)
from hyperlp import relocation, verify
from hyperlp.verify import TrialSummary


def enumerate_ensemble_auc(candidates, phi, n):
    """Independent oracle: exact pooled tie-aware AUC by direct outcome
    enumeration on the reference graph, accumulating weighted score mass
    per class."""
    probs = [phi[len(c) - 2] for c in candidates]
    mass = {}
    for bits in range(2 ** len(candidates)):
        weight = 1.0
        chosen = []
        for idx, c in enumerate(candidates):
            if bits >> idx & 1:
                weight *= probs[idx]
                chosen.append(c)
            else:
                weight *= 1 - probs[idx]
        if weight == 0:
            continue
        g = oracle_clique_expand(Hypergraph(n, chosen))
        for u, v in all_pairs(n):
            s = oracle_score("cn", g, u, v)
            slot = mass.setdefault(s, [0.0, 0.0])
            slot[g.has_edge(u, v) is False] += weight
    w_pos = sum(m[0] for m in mass.values())
    w_neg = sum(m[1] for m in mass.values())
    greater = ties = 0.0
    below = 0.0
    for s in sorted(mass):
        mp, mn = mass[s]
        greater += mp * below
        ties += mp * mn
        below += mn
    return (greater + 0.5 * ties) / (w_pos * w_neg)


class TestErSample:
    def test_extremes(self):
        assert er_sample(6, 0.0, 1).edge_count == 0
        assert er_sample(6, 1.0, 1).edge_count == 15

    def test_edge_count_concentration(self):
        g = er_sample(100, 0.1, 7)
        mean = 4950 * 0.1
        sigma = math.sqrt(4950 * 0.1 * 0.9)
        assert abs(g.edge_count - mean) <= 3 * sigma

    def test_deterministic(self):
        assert er_sample(30, 0.2, 5) == er_sample(30, 0.2, 5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            er_sample(1, 0.5, 0)
        with pytest.raises(ValueError):
            er_sample(5, 1.5, 0)


class TestClusteringCoefficient:
    def test_complete_graph_is_one(self):
        assert clustering_coefficient(er_sample(8, 1.0, 0)) == 1.0

    def test_no_triples_is_nan(self):
        from hyperlp import SimpleGraph

        assert math.isnan(clustering_coefficient(SimpleGraph(4, [(0, 1), (2, 3)])))

    def test_triangle_with_tail(self):
        from hyperlp import SimpleGraph

        # one triangle + pendant edge: 3 closed triples, 5 connected triples
        g = SimpleGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert clustering_coefficient(g) == pytest.approx(3 / 5)


class TestErClustering:
    def test_statistic_near_p(self):
        summary = verify_er_clustering(80, 0.15, trials=40, seed=1)
        assert summary.verdict == "pass"
        assert abs(summary.statistic - 0.15) < 0.02

    def test_p_one_exact(self):
        summary = verify_er_clustering(12, 1.0, trials=30, seed=2)
        assert summary.statistic == 1.0
        assert summary.verdict == "pass"

    def test_p_zero_degenerate(self):
        summary = verify_er_clustering(12, 0.0, trials=30, seed=3)
        assert summary.verdict == "degenerate"

    def test_reproducible(self):
        a = verify_er_clustering(40, 0.2, trials=30, seed=9)
        b = verify_er_clustering(40, 0.2, trials=30, seed=9)
        assert a == b


class TestErCommonNeighbors:
    def test_mean_and_independence(self):
        summary = verify_er_common_neighbors(102, 0.1, trials=50, seed=4)
        assert summary.verdict == "pass"
        assert abs(summary.statistic - 1.0) < 0.08
        d = summary.details
        assert abs(d["edge_vs_non_edge_diff"]) <= 3 * d["se_diff"]

    def test_p_zero_counts_vanish(self):
        summary = verify_er_common_neighbors(20, 0.0, trials=30, seed=5)
        assert summary.statistic == 0.0

    def test_chi_square_detail(self):
        summary = verify_er_common_neighbors(
            60, 0.15, trials=40, seed=6, chi_square=True
        )
        assert "chi2_pvalue" in summary.details
        assert summary.details["chi2_pvalue"] > 1e-4

    @pytest.mark.parametrize("df", range(41))
    def test_chi_square_matches_scipy(self, df):
        # good and poor fits and an exact fit (statistic 0); with one cell
        # (df 0) the p-value is NaN at 0 and 0 beyond rounding error, as
        # the NaN-equal comparison checks
        rng = np.random.default_rng(df)
        for shift in (1.0, 1.2, 2.0, None):
            expected = rng.uniform(2, 60, size=df + 1)
            observed = expected if shift is None else rng.poisson(expected * shift)
            expected = expected * observed.sum() / expected.sum()
            want = stats.chisquare(observed, expected)
            got = verify._chi_square(observed, expected)
            assert got[1] > 1e-300 or df == 0
            np.testing.assert_allclose(got, tuple(want), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trials", [0, 1, 2, 7, 40, 98, 300])
    @pytest.mark.parametrize("p", [0.0, 1.0, 0.01, 0.1, 0.5, 0.93])
    def test_binomial_pmf_matches_scipy(self, trials, p):
        k = np.arange(-1, trials + 2)
        got = verify._binomial_pmf(k, trials, p)
        np.testing.assert_allclose(got, stats.binom.pmf(k, trials, p), rtol=1e-12, atol=0)


class TestErAucBaseline:
    def test_scorers_sit_at_half(self):
        out = verify_er_auc_baseline(60, 0.12, scorers=("cn", "pa"), trials=40, seed=7)
        for s, summary in out.items():
            assert summary.verdict == "pass", (s, summary.statistic)
            assert abs(summary.statistic - 0.5) < 0.03


    def test_value_error_skips_only_that_scorer(self, break_scorer):
        break_scorer("pa", ValueError)
        out = verify_er_auc_baseline(30, 0.2, scorers=("cn", "pa"), trials=30, seed=2)
        assert out["pa"].verdict == "degenerate"
        assert out["pa"].details["skipped_trials"] == 30
        assert out["cn"].details["skipped_trials"] == 0

    def test_other_errors_propagate(self, break_scorer):
        break_scorer("pa")
        with pytest.raises(RuntimeError, match="pa is broken"):
            verify_er_auc_baseline(30, 0.2, scorers=("cn", "pa"), trials=30, seed=2)


class TestHigherOrderLift:
    def test_single_triple_perfect_pooled_auc(self):
        pot = potential_from_candidates(3, [(0, 1, 2)], k_max=3)
        summary = verify_higher_order_auc_lift(pot, [0.0, 0.6], trials=400, seed=8)
        assert summary.details["pooled_auc"] == 1.0
        assert summary.details["pooled_auc_conditional"] == 1.0
        assert summary.verdict == "pass"

    def test_overlapping_triples_match_exact_enumeration(self):
        candidates = [(0, 1, 2), (2, 3, 4)]
        pot = potential_from_candidates(6, candidates, k_max=3)
        phi = [0.0, 0.5]
        exact = enumerate_ensemble_auc(candidates, phi, 6)
        assert exact > 0.5
        tie_aware, conditional = exact_ensemble_auc(pot, phi)
        assert tie_aware == pytest.approx(exact, abs=1e-12)
        assert conditional == 1.0
        summary = verify_higher_order_auc_lift(pot, phi, trials=600, seed=10)
        se = summary.details["se"]
        assert abs(summary.statistic - exact) <= max(3 * se, 0.02)
        assert summary.verdict == "pass"
        # scorer claims more than the probability ceiling owns
        assert summary.statistic > summary.details["model_auc_mean"]

    def test_pair_probability_must_be_zero(self):
        pot = potential_from_candidates(4, [(0, 1, 2)], k_max=3)
        with pytest.raises(ValueError, match="size-2"):
            verify_higher_order_auc_lift(pot, [0.3, 0.5], trials=50, seed=0)

    def test_requires_a_triple(self):
        pot = potential_from_candidates(4, [(0, 1), (2, 3)], k_max=3)
        with pytest.raises(ValueError, match="size >= 3"):
            verify_higher_order_auc_lift(pot, [0.0, 0.5], trials=50, seed=0)

    def test_reproducible(self):
        pot = potential_from_candidates(5, [(0, 1, 2), (2, 3, 4)], k_max=3)
        a = verify_higher_order_auc_lift(pot, [0.0, 0.5], trials=100, seed=3)
        b = verify_higher_order_auc_lift(pot, [0.0, 0.5], trials=100, seed=3)
        assert a == b


class TestExactEnsemble:
    def test_candidate_cap(self):
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)][:20]
        pot = potential_from_candidates(8, pairs, k_max=2)
        with pytest.raises(ValueError, match="cap"):
            exact_ensemble_auc(pot, [0.5])

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            n = 5
            m = int(rng.integers(2, 6))
            candidates = []
            for _ in range(m):
                k = int(rng.integers(2, 4))
                candidates.append(
                    tuple(sorted(int(x) for x in rng.choice(n, size=k, replace=False)))
                )
            phi = [float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))]
            pot = potential_from_candidates(n, candidates, k_max=3)
            kept = pot.all_candidates()
            expected = enumerate_ensemble_auc(kept, phi, n)
            got, _ = exact_ensemble_auc(pot, phi)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_conditional_auc_within_unit_interval(self):
        # the fifth case of test_sorted_counts_keep_the_ensemble_auc: every
        # cross-class comparison is won or tied, and dividing by the
        # difference of two float sums gave 1.0000000000000007
        pot = potential_from_candidates(5, [(4, 1, 2), (0, 3, 4)], k_max=3)
        _, conditional = exact_ensemble_auc(pot, [0.15916949903312416, 0.8667746555301177])
        assert 0.0 <= conditional <= 1.0
        assert conditional == 1.0

    def test_sorted_counts_keep_the_ensemble_auc(self, monkeypatch):
        # the same values as with the np.unique grouping it replaced
        rng = np.random.default_rng(13)
        cases = [
            (potential_from_candidates(6, [(0, 1, 2), (2, 3, 4)], k_max=3), [0.0, 0.5]),
            (potential_from_candidates(3, [(0, 1, 2)], k_max=3), [0.0, 0.6]),
        ]
        for _ in range(5):
            candidates = [
                tuple(int(x) for x in rng.choice(5, size=int(rng.integers(2, 4)), replace=False))
                for _ in range(int(rng.integers(2, 6)))
            ]
            phi = [float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))]
            cases.append((potential_from_candidates(5, candidates, k_max=3), phi))
        for pot, phi in cases:
            got = exact_ensemble_auc(pot, phi)
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_cross_class_counts", unique_counts)
                want = exact_ensemble_auc(pot, phi)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
            assert (got[1] is None) == (want[1] is None)
            if want[1] is not None:
                assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)


@st.composite
def pair_hypergraphs(draw):
    """A hypergraph of width 2 on 2..10 vertices, with 1..15 pairs, some
    of them repeated."""
    n = draw(st.integers(2, 10))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    return Hypergraph(n, draw(st.lists(pair, min_size=1, max_size=15)))


class TestRelocationBaseline:
    @settings(max_examples=60, deadline=None)
    @given(h=pair_hypergraphs(), runs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_summarizes_the_runs_of_adjusted_auc(self, h, runs, seed):
        scorers = ("cn", "pa")
        reports = adjusted_auc(h, scorers, "loo", runs, seed)
        out = verify_relocation_baseline(h, scorers, runs, seed)
        assert list(out) == list(scorers)
        for s, summary in out.items():
            assert summary.n_trials == runs
            if isinstance(reports[s], ValueError):
                assert summary.verdict == "degenerate"
                continue
            mean, se, lo, hi = verify._mean_ci(reports[s].auc_rel_runs)
            assert (summary.statistic, summary.ci_low, summary.ci_high) == (mean, lo, hi)
            assert summary.details == {"scorer": s, "se": se, "runs_used": reports[s].n_runs}

    def test_relocates_once_per_run(self, monkeypatch):
        relocations = counting(monkeypatch, relocation, "relocate")
        h = Hypergraph(20, [[i, (3 * i + 1) % 20] for i in range(20)])
        out = verify_relocation_baseline(h, ("cn", "aa", "pa"), runs=7, seed=3)
        assert len(relocations) == 7
        assert all(ts.details["runs_used"] == 7 for ts in out.values())

    def test_run_failing_otherwise_is_skipped(self, monkeypatch):
        # a run that fails with an error other than ValueError is left out
        # of runs_used, as adjust leaves it out, rather than ending the check
        h = Hypergraph(20, [[i, (3 * i + 1) % 20] for i in range(20)])
        clean = adjusted_auc(h, ["cn"], "loo", 4, 2)["cn"].auc_rel_runs
        relocate, seeds = relocation.relocate, []

        def second_run_breaks(graph, seed):
            seeds.append(seed)
            if len(seeds) == 2:
                raise RuntimeError("relocation broke")
            return relocate(graph, seed)

        monkeypatch.setattr(relocation, "relocate", second_run_breaks)
        out = verify_relocation_baseline(h, ("cn",), runs=4, seed=2)["cn"]
        assert out.details["runs_used"] == 3
        assert out.statistic == verify._mean_ci(clean[:1] + clean[2:])[0]

    def test_every_run_failing_otherwise_raises(self, monkeypatch):
        def broken(graph, seed):
            raise RuntimeError("relocation broke")

        monkeypatch.setattr(relocation, "relocate", broken)
        h = Hypergraph(10, [[0, 1], [2, 3], [4, 5]])
        with pytest.raises(RuntimeError, match="every relocation run failed"):
            verify_relocation_baseline(h, ("cn",), runs=3, seed=0)

    def test_input_without_non_edge_is_degenerate(self):
        # the triangle's own expansion is complete, so adjusted_auc has no
        # original AUC, whatever its relocations give
        h = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
        assert isinstance(adjusted_auc(h, ["cn"], "loo", 6, 0)["cn"], ValueError)
        out = verify_relocation_baseline(h, ("cn",), runs=6, seed=0)["cn"]
        assert out.verdict == "degenerate" and math.isnan(out.statistic)

    def test_trivial_hypergraph_passes(self):
        rng = np.random.default_rng(15)
        edges = [
            [int(a), int(b)]
            for a, b in (rng.choice(50, size=2, replace=False) for _ in range(100))
        ]
        h = Hypergraph(50, edges)
        out = verify_relocation_baseline(h, scorers=("cn",), runs=15, seed=16)
        assert out["cn"].verdict == "pass"
        assert abs(out["cn"].statistic - 0.5) <= 0.05

    def test_wide_input_rejected(self):
        h = Hypergraph(5, [[0, 1, 2]])
        with pytest.raises(ValueError, match="width 2"):
            verify_relocation_baseline(h, runs=5, seed=0)

    def test_other_scorers_also_sit_at_half(self):
        rng = np.random.default_rng(18)
        edges = [
            [int(a), int(b)]
            for a, b in (rng.choice(40, size=2, replace=False) for _ in range(80))
        ]
        h = Hypergraph(40, edges)
        out = verify_relocation_baseline(h, scorers=("pa", "jc", "ra"), runs=10, seed=19)
        for s, ts in out.items():
            assert abs(ts.statistic - 0.5) <= 0.05, (s, ts.statistic)

    @pytest.mark.parametrize("ci, verdict", [
        ((0.45, 0.55), "pass"), ((0.47, 0.52), "pass"), ((0.44, 0.52), "indeterminate"),
        ((0.48, 0.56), "indeterminate"), ((0.30, 0.449), "fail"), ((0.551, 0.7), "fail"),
    ])
    def test_verdict_reads_the_ci(self, ci, verdict):
        assert verify._in_band(sum(ci) / 2, 0.01, *ci) == verdict

    def test_single_run_indeterminate(self):
        h = Hypergraph(10, [[0, 1], [2, 3], [4, 5]])
        out = verify_relocation_baseline(h, scorers=("cn",), runs=1, seed=1)
        assert out["cn"].verdict == "indeterminate"


class TestTrialSummary:
    def test_ci_must_bracket_statistic(self):
        with pytest.raises(ValueError, match="bracket"):
            TrialSummary(
                claim_id="x", n_trials=1, statistic=2.0, ci_low=0.0, ci_high=1.0,
                verdict="pass",
            )
