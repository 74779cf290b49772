"""File ingestion, round-trips, statistics, and the size-distribution fit."""

from itertools import combinations

import numpy as np
import pytest

from hyperlp import (
    DataFormatError,
    clique_expand,
    dataset_stats,
    fit_power_law,
    load_benson,
    load_plain,
    save_plain,
    size_distribution,
)
from conftest import random_hypergraph


def write_pair(tmp_path, sizes, stream):
    nv = tmp_path / "x-nverts.txt"
    sx = tmp_path / "x-simplices.txt"
    nv.write_text("\n".join(str(s) for s in sizes) + "\n")
    sx.write_text("\n".join(str(v) for v in stream) + "\n")
    return nv, sx


class TestLoadBenson:
    def test_basic_parse(self, tmp_path):
        nv, sx = write_pair(tmp_path, [3, 2], [1, 2, 3, 4, 5])
        bundle = load_benson(nv, sx)
        h = bundle.hypergraph
        assert h.n == 5
        assert [sorted(bundle.labels[v] for v in f) for f in h.hyperedges] == [
            ["1", "2", "3"],
            ["4", "5"],
        ]
        assert bundle.provenance["nverts_sha256"]

    def test_length_mismatch_names_totals(self, tmp_path):
        nv, sx = write_pair(tmp_path, [3, 2], [1, 2, 3, 4])
        with pytest.raises(DataFormatError, match="sum to 5.*holds 4"):
            load_benson(nv, sx)

    def test_non_integer_token(self, tmp_path):
        nv, sx = write_pair(tmp_path, [2], [1, 2])
        sx.write_text("1\nx\n")
        with pytest.raises(DataFormatError, match="non-integer"):
            load_benson(nv, sx)

    def test_empty_file(self, tmp_path):
        nv, sx = write_pair(tmp_path, [], [])
        with pytest.raises(DataFormatError, match="empty"):
            load_benson(nv, sx)

    def test_small_hyperedges_dropped_and_counted(self, tmp_path):
        nv, sx = write_pair(tmp_path, [1, 2, 2], [7, 1, 2, 5, 5])
        # the singleton and the degenerate {5,5} both drop
        bundle = load_benson(nv, sx)
        assert len(bundle.hypergraph) == 1
        assert bundle.dropped_small == 2

    def test_duplicate_hyperedges_retained(self, tmp_path):
        nv, sx = write_pair(tmp_path, [2, 2], [1, 2, 1, 2])
        assert len(load_benson(nv, sx).hypergraph) == 2


class TestLoadPlain:
    def test_five_vertex_file(self, five_vertex_file):
        bundle = load_plain(five_vertex_file)
        h = bundle.hypergraph
        assert h.n == 5
        assert size_distribution(h) == {2: 1, 3: 1}

    def test_blank_lines_only(self, tmp_path):
        p = tmp_path / "blank.hyg"
        p.write_text("\n\n   \n")
        with pytest.raises(DataFormatError, match="no usable"):
            load_plain(p)

    def test_duplicate_lines_kept_as_multiset(self, tmp_path):
        p = tmp_path / "dup.hyg"
        p.write_text("a b\na b\n")
        assert len(load_plain(p).hypergraph) == 2

    def test_comments_and_small_lines(self, tmp_path):
        p = tmp_path / "mixed.hyg"
        p.write_text("# header\na b c  # trailing\nsolo\nb c\n")
        bundle = load_plain(p)
        assert len(bundle.hypergraph) == 2
        assert bundle.dropped_small == 1

    def test_round_trip_fixpoint(self, tmp_path):
        rng = np.random.default_rng(9)
        h = random_hypergraph(rng, 12, 9)
        first = tmp_path / "a.hyg"
        second = tmp_path / "b.hyg"
        save_plain(h, first)
        b1 = load_plain(first)
        save_plain(b1.hypergraph, second, labels=b1.labels)
        b2 = load_plain(second)
        canon1 = sorted(sorted(b1.labels[v] for v in f) for f in b1.hypergraph)
        canon2 = sorted(sorted(b2.labels[v] for v in f) for f in b2.hypergraph)
        assert canon1 == canon2
        assert b1.hypergraph.n == b2.hypergraph.n


class TestFitPowerLaw:
    @staticmethod
    def truncated_sample(zeta, size, rng, k_min=2, k_max=10):
        ks = np.arange(k_min, k_max + 1)
        p = ks.astype(float) ** -zeta
        p /= p.sum()
        draws = rng.choice(ks, size=size, p=p)
        values, counts = np.unique(draws, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    def test_recovers_synthetic_exponent(self):
        rng = np.random.default_rng(123)
        dist = self.truncated_sample(2.0, 100_000, rng)
        fit = fit_power_law(dist)
        assert abs(fit.zeta - 2.0) <= 0.05

    def test_uniform_counts_give_zero(self):
        fit = fit_power_law({k: 100 for k in range(2, 11)})
        assert abs(fit.zeta) <= 0.01

    def test_scale_invariance(self):
        dist = {2: 500, 3: 200, 4: 90, 5: 40, 7: 12}
        a = fit_power_law(dist)
        b = fit_power_law({k: 13 * c for k, c in dist.items()})
        assert a.zeta == pytest.approx(b.zeta, abs=1e-9)

    def test_sizes_outside_window_ignored(self):
        dist = {2: 500, 3: 200, 4: 90, 30: 99999}
        fit = fit_power_law(dist)
        assert fit.zeta == pytest.approx(fit_power_law({2: 500, 3: 200, 4: 90}).zeta)

    def test_too_few_sizes(self):
        with pytest.raises(ValueError, match="two distinct sizes"):
            fit_power_law({2: 100})

    def test_lsq_variant_close_on_clean_data(self):
        rng = np.random.default_rng(77)
        dist = self.truncated_sample(1.5, 200_000, rng)
        mle = fit_power_law(dist, method="mle")
        lsq = fit_power_law(dist, method="lsq")
        assert abs(mle.zeta - lsq.zeta) < 0.3

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown fit method"):
            fit_power_law({2: 10, 3: 5}, method="huber")


class TestDatasetStats:
    def test_five_vertex(self, five_vertex_file):
        stats = dataset_stats(load_plain(five_vertex_file))
        assert stats["n_vertices"] == 5
        assert stats["n_hyperedges"] == 2
        assert stats["n_edges"] == 4
        assert stats["width"] == 3

    def test_trivial_width(self, tmp_path):
        p = tmp_path / "pairs.hyg"
        p.write_text("a b\nc d\n")
        assert dataset_stats(load_plain(p))["width"] == 2

    def test_duplicates_count_in_f_not_e(self, tmp_path):
        p = tmp_path / "dup.hyg"
        p.write_text("a b\na b\n")
        stats = dataset_stats(load_plain(p))
        assert stats["n_hyperedges"] == 2
        assert stats["n_edges"] == 1

    def test_edge_count_bounded_by_pair_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h = random_hypergraph(rng, 12, 8)
            g = clique_expand(h)
            pair_sum = sum(
                len(list(combinations(f, 2))) for f in h.hyperedges
            )
            assert g.edge_count <= pair_sum
            covered = [frozenset(p) for f in h.hyperedges for p in combinations(f, 2)]
            if len(set(covered)) == len(covered):
                assert g.edge_count == pair_sum
