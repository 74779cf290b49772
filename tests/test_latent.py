"""Generator correctness: candidate enumeration against brute force,
closed-form link probabilities against exhaustive enumeration, and the
sigmoid comparator."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

from hyperlp import (
    HoffParams,
    Hypergraph,
    ModelConfig,
    ResourceLimitError,
    build_potential,
    clique_expand,
    default_hoff_params,
    edge_distance_profile,
    er_sample,
    exact_ensemble_auc,
    hoff_clique_probability,
    hoff_edge_probability,
    link_probability_map,
    model_auc,
    pairwise_distances,
    phi_preset,
    potential_from_candidates,
    radii_from_percentiles,
    sample_hypergraph,
    sample_latents,
    verify_higher_order_auc_lift,
)
import hyperlp.hypergraph
from hyperlp.hypergraph import condensed_keys, condensed_pairs, group_pair_keys
from hyperlp.latent import spawn_seeds


def candidate_tuples(pot):
    """``pot.by_size`` as sorted-tuple lists, after checking that every
    size has a key holding an (m, s) integer array."""
    assert set(pot.by_size) == set(pot.sizes)
    for s in pot.sizes:
        arr = pot.by_size[s]
        assert arr.ndim == 2 and arr.shape[1] == s
        assert np.issubdtype(arr.dtype, np.integer)
    return {s: [tuple(c) for c in pot.by_size[s].tolist()] for s in pot.sizes}


def brute_force_candidates(positions, radii):
    """All subsets whose points are pairwise within twice the size radius."""
    n = len(positions)
    dist = squareform(pdist(positions))
    out = {}
    for s_idx, r in enumerate(radii):
        s = s_idx + 2
        out[s] = sorted(
            c
            for c in combinations(range(n), s)
            if all(dist[a][b] <= 2 * r for a, b in combinations(c, 2))
        )
    return out


def enumerate_link_probability(candidates, phi, i, j):
    """Oracle for the closed form: sum the probability of every selection
    outcome in which some chosen candidate contains both vertices."""
    probs = [phi[len(c) - 2] for c in candidates]
    total = 0.0
    for bits in range(2 ** len(candidates)):
        weight = 1.0
        linked = False
        for idx, c in enumerate(candidates):
            if bits >> idx & 1:
                weight *= probs[idx]
                if i in c and j in c:
                    linked = True
            else:
                weight *= 1 - probs[idx]
        if linked:
            total += weight
    return total


class TestSampleLatents:
    def test_moments(self):
        u = sample_latents(1000, 2, 123)
        assert np.all(np.abs(u.mean(axis=0)) < 0.1)
        assert np.all(np.abs(u.var(axis=0) - 1.0) < 0.15)

    def test_deterministic(self):
        assert np.array_equal(sample_latents(50, 3, 9), sample_latents(50, 3, 9))

    def test_minimal_shape(self):
        assert sample_latents(2, 1, 0).shape == (2, 1)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            sample_latents(1, 2, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModelConfig(n=1), "n must be >= 2, got 1"),
        (lambda: ModelConfig(n=5, d=0), "d must be >= 1, got 0"),
        (lambda: sample_latents(1, 2, 0), "n must be >= 2, got 1"),
        (lambda: sample_latents(5, 0, 0), "d must be >= 1, got 0"),
        (lambda: er_sample(1, 0.5, 0), "n must be >= 2, got 1"),
    ],
    ids=["config-n", "config-d", "latents-n", "latents-d", "er-n"],
)
def test_vertex_count_rule_has_one_wording(call, message):
    # each public entry point keeps its own check, in the config's words
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestSpawnSeeds:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 20), st.integers(0, 20))
    def test_slices_of_one_draw_are_successive_draws(self, seed, a, b):
        # bounded uint64 draws concatenate: a scan's one draw for every
        # grid point gives each point the seeds a draw per point would
        rng = np.random.default_rng(seed)
        parts = [rng.integers(0, 2**63 - 1, size=k).tolist() for k in (a, b)]
        seeds = spawn_seeds(seed, a + b)
        assert seeds == parts[0] + parts[1]
        assert spawn_seeds(seed, a) == seeds[:a]
        assert all(type(s) is int and 0 <= s < 2**63 - 1 for s in seeds)


class TestPairwiseDistances:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda d: arrays(
                np.float64,
                st.tuples(st.integers(2, 30), st.just(d)),
                elements=st.floats(-1e6, 1e6, allow_nan=False),
            )
        )
    )
    def test_bit_identical_to_scipy(self, x):
        assert np.array_equal(pairwise_distances(x), pdist(x))


def _capped_candidates(dist, radii):
    """``build_potential``'s arrays by size, or its cap message."""
    try:
        return build_potential(dist, radii, max_potential=20_000).by_size
    except ResourceLimitError as exc:
        return str(exc)


class TestSharedGeometry:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: arrays(
                np.float64,
                st.tuples(st.integers(2, 80), st.just(d)),
                # a coarse pool beside the floats: duplicate points and tied distances
                elements=st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-3, 3),
            )
        ),
        st.lists(st.sampled_from([0.5, 1, 2, 5, 10]), min_size=1, max_size=3, unique=True),
    )
    def test_readers_match_pdist(self, pts, percentiles):
        # radii, median offset and candidates from the one distance pass
        # equal those built from scipy's pdist, array for array
        percentiles = sorted(percentiles)
        dist, ref = pairwise_distances(pts), pdist(pts)
        assert np.array_equal(dist, ref)
        radii = radii_from_percentiles(dist, percentiles)
        assert np.array_equal(radii, np.percentile(ref, percentiles))
        assert default_hoff_params(dist).gamma == float(np.median(ref))
        ours, want = _capped_candidates(dist, radii), _capped_candidates(ref, radii)
        if isinstance(want, str):
            assert ours == want
            return
        assert ours.keys() == want.keys()
        assert all(np.array_equal(ours[s], want[s]) for s in want)
        # the pairs, against the dense matrix read independently
        close = np.argwhere(np.triu(squareform(ref) <= 2 * radii[0], k=1))
        assert np.array_equal(ours[2], close)


class TestRadiiFromPercentiles:
    def test_three_collinear_points(self):
        # distances are {d, d, 2d}; the median is d
        pts = np.array([[0.0], [1.0], [2.0]])
        assert radii_from_percentiles(pdist(pts), [50]) == pytest.approx([1.0])

    def test_percentile_100_is_max(self):
        pts = np.array([[0.0], [1.0], [5.0]])
        assert radii_from_percentiles(pdist(pts), [100])[0] == pytest.approx(5.0)

    def test_matches_numpy_percentile(self):
        u = sample_latents(40, 2, 5)
        got = radii_from_percentiles(pairwise_distances(u), [1, 5, 9, 13])
        expected = np.percentile(pdist(u), [1, 5, 9, 13])
        assert np.allclose(got, expected)
        assert np.all(np.diff(got) >= 0)

    def test_non_increasing_rejected(self):
        pts = sample_latents(5, 2, 0)
        with pytest.raises(ValueError, match="strictly increasing"):
            radii_from_percentiles(pairwise_distances(pts), [5, 5])

    @pytest.mark.parametrize("percentiles", [[0, 5], [50, 150], [math.nan], [5, math.nan]])
    def test_out_of_range_rejected(self, percentiles):
        # NaN reached np.percentile, which raised its own message
        with pytest.raises(ValueError, match=r"percentiles must lie in \(0, 100\]"):
            radii_from_percentiles(TEN_DIST, percentiles)


# Ten points laid out so that, at thresholds 1.0 (pairs) and 1.6
# (triples), the candidate set is exactly four pairs and one triple.
TEN_POINTS = np.array(
    [
        [0.0, 0.0],    # 0
        [0.4, 1.5],    # 1
        [5.0, 5.0],    # 2
        [-5.0, 5.0],   # 3
        [0.8, 0.0],    # 4
        [5.0, 5.9],    # 5
        [10.0, 0.0],   # 6
        [1.75, 0.0],   # 7
        [-10.0, 0.0],  # 8
        [-5.0, 5.8],   # 9
    ]
)
TEN_DIST = pdist(TEN_POINTS)


class TestBuildPotential:
    def test_ten_point_scenario(self):
        pot = build_potential(TEN_DIST, [0.5, 0.8])
        assert candidate_tuples(pot) == {2: [(0, 4), (2, 5), (3, 9), (4, 7)], 3: [(0, 1, 4)]}

    def test_zero_radii_distinct_points(self):
        pts = sample_latents(8, 2, 1)
        pot = build_potential(pairwise_distances(pts), [0.0, 0.0])
        assert pot.total == 0

    def test_tight_cluster_all_subsets(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        pot = build_potential(pairwise_distances(pts), [1.0, 1.0])
        assert pot.by_size[2].shape == (6, 2)
        assert pot.by_size[3].shape == (4, 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            n = int(rng.integers(4, 10))
            pts = rng.standard_normal((n, int(rng.integers(1, 4))))
            radii = np.sort(rng.uniform(0.1, 0.9, size=3))
            pot = build_potential(pairwise_distances(pts), radii)
            assert candidate_tuples(pot) == brute_force_candidates(pts, radii)

    def test_pair_key_counts_match_recount(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((10, 2))
        pot = build_potential(pairwise_distances(pts), [0.4, 0.6])
        counted = {
            s: np.unique(group_pair_keys(10, pot.by_size[s]), return_counts=True)
            for s in pot.sizes
        }

        def count(s, i, j):  # a pair the size does not cover counts 0
            keys, counts = counted[s]
            return int(counts[keys == condensed_keys(10, i, j)].sum())

        covered = {
            tuple(p) for keys, _ in counted.values() for p in condensed_pairs(10, keys).tolist()
        }
        assert all(i < j for i, j in covered)
        for i, j in covered:
            for s in pot.sizes:
                recount = sum(1 for f in pot.by_size[s].tolist() if i in f and j in f)
                assert recount == count(s, i, j)
        # and no covered pair is missing
        for s in pot.sizes:
            for f in pot.by_size[s].tolist():
                for a, b in combinations(f, 2):
                    assert count(s, a, b) >= 1

    def test_growing_radius_grows_candidates(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((12, 2))
        small = candidate_tuples(build_potential(pairwise_distances(pts), [0.3, 0.5]))
        for bumped in ([0.45, 0.5], [0.3, 0.7]):
            grown = candidate_tuples(build_potential(pairwise_distances(pts), bumped))
            for s in small:
                assert set(small[s]) <= set(grown[s])

    def test_cap_enforced(self):
        pts = sample_latents(30, 2, 3)
        with pytest.raises(ResourceLimitError, match="cap"):
            build_potential(pairwise_distances(pts), [5.0, 5.0], max_potential=10)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: arrays(
                np.float64,
                st.tuples(st.integers(1, 9), st.just(d)),
                # a coarse grid: coincident points and distances tied with 2r
                elements=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]),
            )
        ),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0]), min_size=1, max_size=4),
    )
    def test_matches_brute_force_exactly(self, pts, radii):
        # same candidates in the same order, for every radius (0 included)
        got = candidate_tuples(build_potential(pairwise_distances(pts), radii))
        assert got == brute_force_candidates(pts, radii)

    def test_many_blocks_same_candidates(self, monkeypatch):
        pts = sample_latents(30, 2, 4)
        dist = pairwise_distances(pts)
        radii = radii_from_percentiles(dist, [5, 10, 20, 30])
        expected = build_potential(dist, radii)
        for row_block in (1, 31, 200):  # bytes of packed rows ANDed per batch
            monkeypatch.setattr(hyperlp.hypergraph, "ROW_BLOCK", row_block)
            got = build_potential(dist, radii)
            for s in expected.sizes:
                assert got.by_size[s].dtype == expected.by_size[s].dtype
                assert np.array_equal(got.by_size[s], expected.by_size[s])

    def test_cap_boundary(self, monkeypatch):
        pts = sample_latents(30, 2, 5)
        dist = pairwise_distances(pts)
        radii = radii_from_percentiles(dist, [5, 10, 20])
        total = build_potential(dist, radii).total
        assert build_potential(dist, radii, max_potential=total).total == total
        with pytest.raises(ResourceLimitError, match=f"cap of {total - 1}: {total} candidates by size 4"):
            build_potential(dist, radii, max_potential=total - 1)
        # checked batch by batch: with one parent per batch, a cap of 0
        # stops at the first vertex that has a higher neighbour
        monkeypatch.setattr(hyperlp.hypergraph, "ROW_BLOCK", 1)
        higher = np.triu(squareform(dist) <= 2 * radii[0], k=1).sum(axis=1)
        first = int(higher[higher > 0][0])
        with pytest.raises(ResourceLimitError, match=f"cap of 0: {first} candidates by size 2"):
            build_potential(dist, radii, max_potential=0)


class TestSampleHypergraph:
    def test_phi_one_keeps_everything(self):
        pot = build_potential(TEN_DIST, [0.5, 0.8])
        h = sample_hypergraph(pot, [1.0, 1.0], seed=0)
        assert sorted(tuple(sorted(f)) for f in h.hyperedges) == sorted(
            pot.all_candidates()
        )

    def test_phi_zero_keeps_nothing(self):
        pot = build_potential(TEN_DIST, [0.5, 0.8])
        assert len(sample_hypergraph(pot, [0.0, 0.0], seed=0)) == 0

    def test_binomial_concentration(self):
        pairs = [(i, j) for i in range(100) for j in range(i + 1, 100)][:1000]
        pot = potential_from_candidates(100, pairs, k_max=2)
        h = sample_hypergraph(pot, [0.5], seed=42)
        assert 440 <= len(h) <= 560

    def test_marginal_inclusion_frequency(self):
        pot = potential_from_candidates(6, [(0, 1), (2, 3, 4)], k_max=3)
        phi = [0.3, 0.7]
        hits = np.zeros(2)
        trials = 10000
        for seed in range(trials):
            h = sample_hypergraph(pot, phi, seed)
            fs = set(h.hyperedges)
            hits[0] += frozenset((0, 1)) in fs
            hits[1] += frozenset((2, 3, 4)) in fs
        freq = hits / trials
        for k, p in enumerate(phi):
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(freq[k] - p) <= 3 * se

    def test_deterministic(self):
        pot = build_potential(TEN_DIST, [0.5, 0.8])
        a = sample_hypergraph(pot, [0.5, 0.5], seed=7)
        b = sample_hypergraph(pot, [0.5, 0.5], seed=7)
        assert a.hyperedges == b.hyperedges


class TestPhiPresets:
    def test_power_law(self):
        phi = phi_preset("power_law", k_max=5)
        assert phi[0] == pytest.approx(0.25)
        assert np.allclose(phi, [1 / 4, 1 / 9, 1 / 16, 1 / 25])

    def test_constant(self):
        assert np.allclose(phi_preset("constant", k_max=4), 0.1)

    def test_sigmoid_midpoint(self):
        phi = phi_preset("hoff_sigmoid", k_max=3, radii=[0.5, 0.7], alpha=10, gamma=0.5)
        assert phi[0] == pytest.approx(0.5)
        assert phi[1] < 0.5

    def test_empirical_scales_by_largest(self):
        pot = potential_from_candidates(
            6, [(0, 1), (1, 2), (3, 4), (0, 1, 2)], k_max=3
        )
        phi = phi_preset("empirical", k_max=3, pot=pot)
        assert np.allclose(phi, [1.0, 1 / 3])

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown phi preset"):
            phi_preset("bogus", k_max=3)


def draw_small_model(data):
    """``(n, pot, phi)``: up to 10 candidates of sizes 2..4 on 2..6
    vertices, ``k_max`` up to 5, and phi entries of 0, 1 or in between."""
    n = data.draw(st.integers(2, 6))
    candidate = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 4), unique=True)
    candidates = data.draw(st.lists(candidate, max_size=10))
    k_max = data.draw(st.integers(max([2] + [len(c) for c in candidates]), 5))
    entry = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
    phi = data.draw(st.lists(entry, min_size=k_max - 1, max_size=k_max - 1))
    return n, potential_from_candidates(n, candidates, k_max=k_max), phi


class TestLinkProbability:
    # a pair's probability is the map's entry at its condensed key

    def test_uncovered_pair_is_zero(self):
        pot = potential_from_candidates(4, [(0, 1)], k_max=2)
        assert link_probability_map(pot, [0.9])[condensed_keys(4, 2, 3)] == 0.0

    def test_single_triple(self):
        pot = potential_from_candidates(3, [(0, 1, 2)], k_max=3)
        assert link_probability_map(pot, [0.0, 0.6])[0] == pytest.approx(0.6)

    def test_two_pairs_one_triple(self):
        pot = potential_from_candidates(4, [(0, 1), (0, 1), (0, 1, 2)], k_max=3)
        assert link_probability_map(pot, [0.5, 0.5])[0] == pytest.approx(0.875, abs=1e-15)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(1, 9))
            candidates = []
            for _ in range(m):
                k = int(rng.integers(2, min(4, n) + 1))
                candidates.append(
                    tuple(sorted(int(x) for x in rng.choice(n, size=k, replace=False)))
                )
            k_top = max(len(c) for c in candidates)
            phi = rng.uniform(0, 1, size=k_top - 1)
            pot = potential_from_candidates(n, candidates, k_max=k_top)
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            # the index deduplicates candidate multisets, so enumerate its view
            kept = pot.all_candidates()
            expected = enumerate_link_probability(kept, phi, i, j)
            got = link_probability_map(pot, phi)[condensed_keys(n, i, j)]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_wrong_phi_length_rejected(self):
        pot = potential_from_candidates(5, [(0, 1, 2, 3)])  # k_max = 4
        for phi in ([0.5], [0.5] * 4, 0.5):
            with pytest.raises(ValueError, match="phi needs 3 values for sizes 2..4"):
                link_probability_map(pot, phi)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_closed_form_is_exact(self, data):
        # every one of the 2^m selections of up to 10 candidates, weighed,
        # at every pair: pairs no candidate covers, and sizes always or
        # never kept, included
        n, pot, phi = draw_small_model(data)
        kept = pot.all_candidates()
        prob = link_probability_map(pot, phi)
        assert prob.dtype == np.float64 and prob.shape == (n * (n - 1) // 2,)
        for key, (i, j) in enumerate(combinations(range(n), 2)):  # condensed order
            want = enumerate_link_probability(kept, phi, i, j)
            assert prob[key] == pytest.approx(want, abs=1e-12)
            sizes = {len(c) for c in kept if i in c and j in c}
            if all(phi[s - 2] in (0.0, 1.0) for s in sizes):  # uncovered pairs too
                assert prob[key] == float(any(phi[s - 2] == 1.0 for s in sizes))
            # either orientation keys the pair's entry
            assert condensed_keys(n, i, j) == condensed_keys(n, j, i) == key

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_chunked_counts_equal_one_chunk(self, data, block):
        # a ROW_BLOCK of 1..4 keys counts a size in chunks of one row, or
        # of a few; the counts are exact integers, so the map is bit-equal
        _, pot, phi = draw_small_model(data)
        whole = link_probability_map(pot, phi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hyperlp.hypergraph, "ROW_BLOCK", block)
            assert np.array_equal(link_probability_map(pot, phi), whole)


class TestHoffModel:
    def test_midpoint(self):
        assert hoff_edge_probability(HoffParams(2.0, 1.0), 1.0) == pytest.approx(0.5)

    def test_far_distance_vanishes(self):
        p = hoff_edge_probability(HoffParams(10.0, 0.0), 2.0)  # exponent 20
        assert p < 1e-6

    def test_known_value(self):
        assert hoff_edge_probability(HoffParams(1.0, 0.0), math.log(3)) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_strictly_decreasing(self):
        params = HoffParams(3.0, 0.5)
        d = np.linspace(0, 4, 50)
        p = hoff_edge_probability(params, d)
        assert np.all(np.diff(p) < 0)

    def test_clique_probability_midpoint_triple(self):
        params = HoffParams(2.0, 1.0)
        assert hoff_clique_probability(params, [1.0] * 3) == pytest.approx(0.125)

    def test_clique_probability_six_factors(self):
        params = HoffParams(2.0, 1.0)
        assert hoff_clique_probability(params, [1.0] * 6) == pytest.approx(0.5**6)

    def test_empty_pair_list(self):
        assert hoff_clique_probability(HoffParams(1.0, 0.0), []) == 1.0

    def test_log_probability_bound(self):
        rng = np.random.default_rng(3)
        params = HoffParams(2.0, 1.0)
        for k in (3, 4, 5):
            m = k * (k - 1) // 2
            dists = rng.uniform(0.2, 3.0, size=m)
            p = hoff_clique_probability(params, dists)
            best = float(np.max(hoff_edge_probability(params, dists)))
            assert math.log(p) <= m * math.log(best) + 1e-9

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            HoffParams(0.0, 1.0)

    @pytest.mark.parametrize("alpha, gamma, message", [
        (math.inf, 1.0, "alpha must be positive and finite"),
        (math.nan, 1.0, "alpha must be positive and finite"),
        (2.0, math.inf, "gamma must be finite"),
        (2.0, -math.inf, "gamma must be finite"),
        (2.0, math.nan, "gamma must be finite"),
    ])
    def test_non_finite_refused(self, alpha, gamma, message):
        # an infinite alpha or gamma read phi = 1.0 at every size, and a
        # NaN gamma failed later as a phi outside [0, 1]
        with pytest.raises(ValueError, match=message):
            HoffParams(alpha, gamma)

    def test_default_gamma_is_median_distance(self):
        pts = sample_latents(30, 2, 11)
        params = default_hoff_params(pairwise_distances(pts))
        assert params.gamma == pytest.approx(float(np.median(pdist(pts))))


def profile_model(n, seed, percentiles):
    """``(dist, pot, phi)``: ``n`` points in d=2 from ``seed``, candidates at
    the radii of ``percentiles``, and the ``power_law`` phi."""
    dist = pairwise_distances(sample_latents(n, 2, seed))
    pot = build_potential(dist, radii_from_percentiles(dist, percentiles))
    return dist, pot, phi_preset("power_law", k_max=len(percentiles) + 1)


class TestEdgeDistanceProfile:
    def test_phi_zero_gives_zero_profile(self):
        pot = build_potential(TEN_DIST, [0.5, 0.8])
        prof = edge_distance_profile(pot, [0.0, 0.0], TEN_DIST, bins=5)
        assert np.all(prof.model_freq == 0)
        assert prof.hoff_params == default_hoff_params(TEN_DIST)

    def test_pairs_beyond_reach_never_link(self):
        pot = build_potential(TEN_DIST, [0.5, 0.8])
        prof = edge_distance_profile(pot, [1.0, 1.0], TEN_DIST, bins=30)
        reach = 2 * 0.8
        beyond = prof.bin_edges[:-1] > reach
        assert np.all(prof.model_freq[beyond] == 0)

    def test_model_freq_is_bin_means_of_link_map(self):
        # with many bins, each bin's mean is the left-to-right sum of the
        # map over its pairs (edges[b] <= d < edges[b + 1], the top bin
        # closed), over its pair count
        dist, pot, phi = profile_model(30, 5, [4, 10, 16])
        prof = edge_distance_profile(pot, phi, dist, bins=300)
        prob = link_probability_map(pot, phi)
        assert 0 < prob.max() and prob.min() < 1
        edges = prof.bin_edges
        for b in range(300):
            inside = (dist >= edges[b]) & ((dist < edges[b + 1]) | (b == 299))
            assert prof.pair_counts[b] == inside.sum()
            want = np.cumsum(prob[inside])[-1] / inside.sum() if inside.any() else 0.0
            assert prof.model_freq[b] == want

    def test_sampled_hit_frequency_agrees_with_map(self):
        # the estimator the profile used to be: over 200 draws, each pair's
        # share of clique expansions holding it lies within five binomial
        # standard deviations, plus one draw, of its exact probability
        dist, pot, phi = profile_model(30, 5, [4, 10, 16])
        trials = 200
        hits = np.zeros(len(dist), dtype=np.int64)
        for ts in spawn_seeds(5, trials):
            hits[clique_expand(sample_hypergraph(pot, phi, ts)).edge_keys()] += 1
        prob = link_probability_map(pot, phi)
        freq = hits / trials
        assert ((0 < prob) & (prob < 1)).sum() > 50
        bound = 5 * np.sqrt(prob * (1 - prob) / trials) + 1 / trials
        assert np.all(np.abs(freq - prob) <= bound)
        assert np.array_equal(freq[prob == 0], prob[prob == 0])  # never covered, never hit

    def test_wrong_phi_length_rejected(self):
        pot = build_potential(TEN_DIST, [0.5, 0.8])
        for phi in ([0.5], [0.5, 0.5, 0.5]):
            with pytest.raises(ValueError, match="phi needs"):
                edge_distance_profile(pot, phi, TEN_DIST)

    def test_mismatched_index_rejected(self):
        pot = build_potential(pdist(TEN_POINTS[:9]), [0.5, 0.8])
        with pytest.raises(ValueError, match="candidate index"):
            edge_distance_profile(pot, [0.5, 0.5], TEN_DIST)
        # an index of another k_max meets phi as a vector of the wrong length
        with pytest.raises(ValueError, match="phi needs"):
            edge_distance_profile(build_potential(TEN_DIST, [0.5]), [0.5, 0.5], TEN_DIST)

    def test_generator_exceeds_sigmoid_in_mid_range(self):
        # the band between the pair reach and the top reach
        dist, pot, phi = profile_model(120, 33, [1, 5, 9, 13])
        hoff = default_hoff_params(dist)
        prof = edge_distance_profile(pot, phi, dist, bins=25, hoff=hoff)
        radii = radii_from_percentiles(dist, [1, 5, 9, 13])
        band = (prof.bin_centers >= 2 * radii[0]) & (prof.bin_centers <= 2 * radii[-1])
        assert band.any()
        assert prof.model_freq[band].mean() >= prof.hoff_prob[band].mean()


# every public function that takes phi, on a 4-vertex index with sizes 2..3
SMALL_POT = potential_from_candidates(4, [(0, 1), (1, 2), (0, 1, 2)], k_max=3)
PHI_READERS = {
    "sample_hypergraph": lambda phi: sample_hypergraph(SMALL_POT, phi, 0),
    "link_probability_map": lambda phi: link_probability_map(SMALL_POT, phi),
    # the one-pair read: the map's entry at the pair's condensed key
    "link_probability": lambda phi: link_probability_map(SMALL_POT, phi)[condensed_keys(4, 0, 1)],
    "model_auc": lambda phi: model_auc(SMALL_POT, phi, clique_expand(Hypergraph(4, [(0, 1)]))),
    "exact_ensemble_auc": lambda phi: exact_ensemble_auc(SMALL_POT, phi),
    "verify_higher_order_auc_lift": lambda phi: verify_higher_order_auc_lift(SMALL_POT, phi),
    "edge_distance_profile": lambda phi: edge_distance_profile(
        SMALL_POT, phi, pdist(TEN_POINTS[:4])
    ),
}


@pytest.mark.parametrize(
    "phi",
    [[1.5, 0.5], [-0.2, 0.5], [math.nan, 0.5], [0.5, 0.5, 0.9]],
    ids=["above-1", "below-0", "nan", "wrong-length"],
)
@pytest.mark.parametrize("reader", PHI_READERS)
def test_phi_outside_unit_interval_or_of_wrong_length_rejected(reader, phi):
    # a phi of 1.5 read 1.25 as a link probability, and -0.2 read 0.4
    # where 0.5 is right, before the range check
    with pytest.raises(ValueError, match="phi (values must lie in|needs 2 values for sizes 2..3, got 3)"):
        PHI_READERS[reader](phi)


def test_negative_radius_rejected():
    with pytest.raises(ValueError, match="radii must be nonnegative"):
        build_potential(TEN_DIST, [0.5, -0.1])
