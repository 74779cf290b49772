"""Relocation null model and the adjustment arithmetic."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlp import (
    SCORER_IDS,
    AdjustmentReport,
    AucCount,
    Hypergraph,
    SplitSpec,
    adjusted_auc,
    clique_expand,
    performance_reversal_check,
    protocol_scores,
    relocate,
    size_distribution,
)
from hyperlp import evaluation, relocation
from hyperlp.latent import ResourceLimitError
from conftest import counting, oracle_relocate, random_hypergraph


class TestRelocate:
    def test_size_multiset_preserved(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            h = random_hypergraph(rng, int(rng.integers(6, 20)), int(rng.integers(1, 12)))
            h_rel = relocate(h, seed=trial)
            assert size_distribution(h_rel) == size_distribution(h)
            assert len(h_rel) == len(h)
            assert h_rel.n == h.n

    def test_full_size_hyperedge_is_forced(self):
        h = Hypergraph(4, [[0, 1, 2, 3]])
        h_rel = relocate(h, seed=0)
        assert h_rel.hyperedges[0] == frozenset(range(4))

    def test_single_pair_uniform_over_targets(self):
        # one call, one stream: each hyperedge is an independent draw on
        # it (the same_draw tests hold the stream to the per-hyperedge
        # rng.choice loop)
        trials = 10000
        moved = relocate(Hypergraph(5, [[0, 1]] * trials), seed=0)
        targets, counts = np.unique(moved.members.reshape(-1, 2), axis=0, return_counts=True)
        assert len(targets) == 10
        p = 0.1
        se = math.sqrt(p * (1 - p) / trials)
        for f, c in zip(targets.tolist(), counts.tolist()):
            assert abs(c / trials - p) <= 3 * se, f

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        h = random_hypergraph(rng, 12, 6)
        assert relocate(h, 99).hyperedges == relocate(h, 99).hyperedges


def same_draw(h: Hypergraph, seed: int) -> None:
    """``relocate`` returns the per-hyperedge ``rng.choice`` loop's
    hyperedges, each with the same vertices in the same order."""
    got, want = relocate(h, seed), oracle_relocate(h, seed)
    assert got.n == want.n
    assert [list(f) for f in got.hyperedges] == [list(f) for f in want.hyperedges]


@st.composite
def relocation_inputs(draw):
    """(hypergraph, seed): n small (k == n reachable), on the Floyd
    branch, above 2**31 (a quarter to a half of the draws reject) or
    above 2**32 (64-bit draws); hyperedges of sizes 2..12."""
    n = draw(st.one_of(
        st.integers(2, 12),
        st.integers(13, 10**6),
        st.integers(2**31, 3 * 2**30),
        st.integers(2**32 - 2, 2**40),
    ))
    sizes = draw(st.lists(st.integers(2, min(n, 12)), max_size=20))
    return Hypergraph(n, [range(k) for k in sizes]), draw(st.integers(0, 2**63 - 1))


class TestRelocateDraw:
    @given(relocation_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_choice_loop(self, case):
        same_draw(*case)

    @pytest.mark.parametrize("n, k", [
        (20_000, 400),  # Floyd: k == n // 50
        (20_000, 401),  # tail shuffle
        (10_000, 201),  # Floyd: n not above 10,000
        (10_001, 200),
        (10_001, 201),
        (10_001, 10_001),  # tail shuffle over the whole range
    ])
    def test_both_branches_of_choice(self, n, k):
        h = Hypergraph(n, [range(k), range(2), range(k), range(3)])
        for seed in range(3):
            same_draw(h, seed)

    @pytest.mark.parametrize("n, m", [
        (5 * 10**6, 2000),  # about one rejection per thousand draws
        (10**9, 1000),  # about one in fifteen draws rejects
    ])
    def test_rejections_across_many_draws(self, n, m):
        sizes = np.random.default_rng(n).integers(2, 7, size=m)
        same_draw(Hypergraph(n, [range(k) for k in sizes.tolist()]), seed=7)

    def test_empty_hypergraph(self):
        assert relocate(Hypergraph(0, []), 3) == Hypergraph(0, [])
        assert relocate(Hypergraph(9, []), 3) == Hypergraph(9, [])

    def test_oversized_hyperedge_raises_before_any_draw(self, monkeypatch):
        h = Hypergraph(6, [[0, 1], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5]])
        h.n = 4  # a hyperedge of 5 and one of 6 no longer fit
        with pytest.raises(ValueError) as want:
            oracle_relocate(h, 0)
        assert str(want.value) == "hyperedge of size 5 cannot fit in 4 vertices"

        def no_draw(*args):
            raise AssertionError("drew before the size check")

        monkeypatch.setattr(relocation.np.random, "default_rng", no_draw)
        with pytest.raises(ValueError) as got:
            relocate(h, 0)
        assert str(got.value) == str(want.value)


def report_of(auc_original, runs, seeds):
    """A report whose intact-graph count reads ``auc_original`` (to 0.01)."""
    return AdjustmentReport(AucCount(round(auc_original * 100), 0, 10, 10), runs, seeds)


REPORT_KEYS = [
    "auc_original", "auc_rel_runs", "auc_rel_mean", "auc_rel_std", "af", "auc_adjusted",
    "n_runs", "seeds", "failures", "n_pos", "n_neg", "auc_conditional",
]


@st.composite
def counts(draw):
    """A valid ``AucCount``: both classes present, greater + ties <= P*N."""
    n_pos, n_neg = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    greater = draw(st.integers(0, n_pos * n_neg))
    ties = draw(st.integers(0, n_pos * n_neg - greater))
    return AucCount(greater, ties, n_pos, n_neg)


class TestAssembleReport:
    @settings(max_examples=200, deadline=None)
    @given(counts(), st.lists(st.floats(0, 1), min_size=1, max_size=8))
    def test_identities_hold_for_every_count(self, count, runs):
        report = AdjustmentReport(count, runs, seeds=list(range(len(runs))))
        assert report.af == report.auc_rel_mean / 0.5
        if report.af:
            assert report.auc_adjusted == report.auc_original / report.af
        else:
            assert report.auc_adjusted == math.inf
        assert report.n_runs == len(runs)
        assert (report.auc_original, report.n_pos, report.n_neg, report.auc_conditional) == (
            count.auc, count.n_pos, count.n_neg, count.auc_conditional
        )
        assert list(asdict(report)) == REPORT_KEYS

    def test_identities(self):
        report = report_of(0.99, [0.9] * 5, seeds=list(range(5)))
        assert report.af == pytest.approx(1.8, abs=1e-15)
        assert report.auc_adjusted == pytest.approx(0.55, abs=1e-15)
        assert report.af == report.auc_rel_mean / 0.5
        assert report.auc_adjusted == report.auc_original / report.af

    def test_baseline_exactly_half_is_identity(self):
        report = report_of(0.8, [0.5, 0.5, 0.5], seeds=[1, 2, 3])
        assert report.af == 1.0
        assert report.auc_adjusted == 0.8

    def test_below_half_not_clamped(self):
        report = report_of(0.6, [0.4, 0.4], seeds=[1, 2])
        assert report.af == pytest.approx(0.8)
        assert report.auc_adjusted == pytest.approx(0.75)

    def test_std_and_counts(self):
        runs = [0.5, 0.6, 0.7]
        report = report_of(0.9, runs, seeds=[1, 2, 3])
        assert report.auc_rel_std == pytest.approx(np.std(runs, ddof=1))
        assert report.n_runs == len(report.auc_rel_runs) == len(report.seeds) == 3

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            report_of(0.9, [], seeds=[])


class TestAdjustedAuc:
    def test_default_run_count(self):
        rng = np.random.default_rng(2)
        h = random_hypergraph(rng, 15, 10, max_size=3)
        report = adjusted_auc(h, ["cn"], "loo", seed=3)["cn"]
        assert report.n_runs == 5
        assert len(report.auc_rel_runs) == 5
        assert report.af == report.auc_rel_mean / 0.5
        assert report.auc_adjusted == report.auc_original / report.af

    def test_signal_free_graph_adjusts_to_itself(self):
        # one pair among four vertices: every score is zero everywhere, so
        # the original and every relocated AUC are exactly 0.5
        h = Hypergraph(4, [[0, 1]])
        report = adjusted_auc(h, ["cn"], "loo", n_runs=4, seed=0)["cn"]
        assert report.auc_original == 0.5
        assert report.auc_rel_runs == [0.5] * 4
        assert report.af == 1.0
        assert report.auc_adjusted == 0.5

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        h = random_hypergraph(rng, 12, 8, max_size=3)
        a = adjusted_auc(h, ["cn"], "loo", n_runs=3, seed=11)["cn"]
        b = adjusted_auc(h, ["cn"], "loo", n_runs=3, seed=11)["cn"]
        assert a == b

    def test_invalid_runs(self):
        h = Hypergraph(4, [[0, 1]])
        with pytest.raises(ValueError):
            adjusted_auc(h, ["cn"], "loo", n_runs=0)

    def test_self_adjustment_near_half(self):
        # adjusting an already-relocated hypergraph should self-correct to
        # about 0.5 on average
        rng = np.random.default_rng(6)
        h = random_hypergraph(rng, 30, 40, max_size=4)
        values = []
        for k in range(12):
            h_rel = relocate(h, seed=1000 + k)
            report = adjusted_auc(h_rel, ["cn"], "loo", n_runs=3, seed=k)["cn"]
            values.append(report.auc_adjusted)
        assert abs(float(np.mean(values)) - 0.5) <= 0.05


class TestSharedPairSet:
    SPLIT = SplitSpec(rho=0.8, d_hop=2, seed=4)

    @staticmethod
    def hypergraph():
        return random_hypergraph(np.random.default_rng(8), 40, 60, max_size=4)

    def test_one_relocation_expansion_and_sample_per_graph(self, monkeypatch):
        relocations = counting(monkeypatch, relocation, "relocate")
        expansions = counting(monkeypatch, relocation, "clique_expand")
        samples = counting(monkeypatch, evaluation, "_sample_distance_limited_non_links")
        out = adjusted_auc(self.hypergraph(), ["cn", "aa", "pa"], self.SPLIT, n_runs=2, seed=1)
        assert all(r.n_runs == 2 for r in out.values())
        assert (len(relocations), len(expansions), len(samples)) == (2, 3, 3)

    @pytest.mark.parametrize("protocol", ["loo", SPLIT], ids=["loo", "split"])
    def test_equals_per_scorer_composition(self, protocol):
        h = self.hypergraph()
        scorers = [s for s in SCORER_IDS if s != "sr"] if protocol == "loo" else SCORER_IDS

        def one_count(graph, scorer):
            _, labels, scores = protocol_scores(graph, [scorer], protocol)
            return AucCount.of(scores[scorer], labels), labels

        out = adjusted_auc(h, scorers, protocol, n_runs=3, seed=5)
        assert list(out) == list(scorers)
        run_seeds = [int(s) for s in np.random.default_rng(5).integers(0, 2**63 - 1, size=3)]
        for scorer in scorers:
            original, labels = one_count(clique_expand(h), scorer)
            runs = [one_count(clique_expand(relocate(h, s)), scorer)[0].auc for s in run_seeds]
            expected = AdjustmentReport(original, runs, run_seeds)
            report = out[scorer]
            assert report.auc_original == expected.auc_original
            assert report.auc_rel_runs == expected.auc_rel_runs
            assert report.af == expected.af
            assert report.auc_adjusted == expected.auc_adjusted
            assert report.seeds == run_seeds and report.failures == []
            assert (report.n_pos, report.n_neg) == (labels.sum(), len(labels) - labels.sum())

    def test_failing_scorer_fills_only_its_slot(self, break_scorer):
        h = self.hypergraph()
        clean = adjusted_auc(h, ["cn", "aa", "pa"], "loo", n_runs=2, seed=3)
        break_scorer("aa")
        out = adjusted_auc(h, ["cn", "aa", "pa"], "loo", n_runs=2, seed=3)
        assert isinstance(out["aa"], RuntimeError)
        assert out["cn"] == clean["cn"] and out["pa"] == clean["pa"]

    def test_resource_limit_on_a_run_ends_that_scorer(self, monkeypatch):
        # a scorer over a resource limit on a relocated graph keeps that
        # error and is not run again; the others keep their reports
        real = relocation.evaluate_protocol
        calls = []

        def limited(g, scorers, protocol):
            calls.append(list(scorers))
            out = real(g, scorers, protocol)
            if len(calls) == 2:
                out["aa"] = ResourceLimitError("over the cap")
            return out

        h = self.hypergraph()
        clean = adjusted_auc(h, ["cn", "aa"], "loo", n_runs=3, seed=3)
        monkeypatch.setattr(relocation, "evaluate_protocol", limited)
        out = adjusted_auc(h, ["cn", "aa"], "loo", n_runs=3, seed=3)
        assert isinstance(out["aa"], ResourceLimitError)
        assert out["cn"] == clean["cn"]
        assert calls == [["cn", "aa"], ["cn", "aa"], ["cn"], ["cn"]]

    def test_bare_string_rejected(self):
        with pytest.raises(TypeError):
            adjusted_auc(self.hypergraph(), "cn")


class TestPerformanceReversal:
    def test_flagged_pair(self):
        reports = {
            "a": report_of(0.95, [0.913461538], seeds=[1]),
            "b": report_of(0.83, [0.51875], seeds=[1]),
        }
        # a outranks b raw (0.95 > 0.83) but not adjusted (0.52 < 0.80)
        assert reports["a"].auc_adjusted < reports["b"].auc_adjusted
        assert performance_reversal_check(reports) == [("a", "b")]

    def test_identical_reports_not_flagged(self):
        reports = {
            "a": report_of(0.9, [0.6], seeds=[1]),
            "b": report_of(0.9, [0.6], seeds=[1]),
        }
        assert performance_reversal_check(reports) == []

    def test_single_scorer_empty(self):
        assert performance_reversal_check({"a": report_of(0.9, [0.6], [1])}) == []

    def test_consistent_ordering_not_flagged(self):
        reports = {
            "a": report_of(0.9, [0.6], seeds=[1]),
            "b": report_of(0.8, [0.6], seeds=[1]),
        }
        assert performance_reversal_check(reports) == []
