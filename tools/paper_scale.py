"""Time the generator's model resolution and the protocols on seeded
synthetic inputs: one graph the size of NDC-substances, and three sparse
graphs too large to pack.

    PYTHONPATH=src python3 tools/paper_scale.py

The first rows are the models ``generate`` resolves from configs in d=2
with ``power_law`` phi, seed 0 and the default (median) sigmoid offset:
n=2,000 points at percentiles 0.1 0.2 0.3, and n=5,000 at percentiles
0.05 0.1 0.15. Each row gives the best wall time of 3 calls (of 1 at
n=5,000) of ``hyperlp.config.resolve_model``, the resolver ``generate``
and every ``scan`` replicate call (positions, distances, radii,
candidates, offset), then the ``tracemalloc`` peak of one more, then that
call's candidate count per size and the first 16 hex digits of the
sha256 of its candidate arrays, concatenated in size order, so two
builds can be checked for identical candidates. Two more lines give the
same best time and peak for the model's exact link probabilities,
``link_probability_map(pot, phi)``, and for its distance profile,
``edge_distance_profile(pot, phi, dist, hoff=hoff)``.

The NDC-sized input is drawn from ``numpy.random.default_rng(0)``:
n=5,556 vertices and 112,919 hyperedges of sizes 2..12 with P(k) ∝
k^-2.5, each hyperedge's members drawn without replacement with
popularity ∝ rank^-0.8. Its clique expansion has 415,715 edges and
2.50e8 wedges. Nothing is downloaded; drawing the input takes about
10 s. The script prints those counts, then the wall time of the split
pair set (held-out edges and two-hop negatives) and of scoring it, and
the wall time and ``tracemalloc`` peak of the call the drug-substance
check makes per graph, ``evaluate_protocol(g, ("cn", "aa", "pa"),
SplitSpec(0.8, 2, 1.0, 41))``, of the same call with every non-link as
a negative, ``SplitSpec(0.8, 2, None, 41)`` (``--negatives all``), of
one leave-one-out graph, ``evaluate_protocol(g, ("cn", "aa", "ra",
"pa", "jc"), "loo")``, and of the library call for one scorer's
leave-one-out scores, ``protocol_scores(g, ["cn"], "loo")``.

The first two sparse inputs have uniform hyperedge sizes, each hyperedge
of distinct uniform members: n=20,000 vertices and 20,000 hyperedges of
sizes 2..4 from ``numpy.random.default_rng(1)``, and n=100,000 vertices
and 150,000 hyperedges of sizes 2..5 from ``default_rng(2)``. Their
split train graphs (the same ``SplitSpec`` at ``d_hop=2``) have 53,532
edges and 348,824 wedges, and 600,278 edges and 8.29M wedges, so neither
packs. For each, the script prints the wall time and ``tracemalloc``
peak of scoring its split pair set with ``cn,aa,ra,pa,jc``; for the
first, also those of drawing 1,000 negatives within 3 and within 4 hops.
The third, drawn the same way, has n=3,000 vertices and 2,000 hyperedges
of sizes 2..5 from ``default_rng(5)`` (9,907 edges; its train graph does
not pack either), small enough to score every pair: the script
prints the wall time and ``tracemalloc`` peak of ``evaluate_protocol``
with ``cn,aa,ra,pa,jc`` and ``SplitSpec(0.8, 2, None, 41)``. (The
n=20,000 input has 2.0e8 pairs, 1.6 GB per float64 score array.)

The whole run takes about a minute on 2 cores; the leave-one-out
graph holds the most memory, about 1.2 GB.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc

import numpy as np

from hyperlp import evaluation
from hyperlp.config import ModelConfig, resolve_model
from hyperlp.evaluation import SplitSpec, evaluate_protocol, protocol_scores
from hyperlp.heuristics import score_pairs_many
from hyperlp.hypergraph import Hypergraph, clique_expand, wedge_count
from hyperlp.latent import (
    edge_distance_profile,
    link_probability_map,
    pairwise_distances,
    sample_latents,
)

N, M = 5556, 112919
SCORERS = ("cn", "aa", "pa")
ALL_SCORERS = ("cn", "aa", "ra", "pa", "jc")
SPEC = SplitSpec(0.8, 2, 1.0, 41)
EVERY = SplitSpec(0.8, 2, None, 41)  # every non-link a negative
# (n, hyperedges, largest size, seed) of each sparse input
SPARSE = ((20_000, 20_000, 4, 1), (100_000, 150_000, 5, 2))
SPARSE_EVERY = (3_000, 2_000, 5, 5)
# (config, timed calls) of each model; gamma None: the median
MODELS = (
    (ModelConfig(n=2_000, d=2, percentiles=(0.1, 0.2, 0.3)), 3),
    (ModelConfig(n=5_000, d=2, percentiles=(0.05, 0.1, 0.15)), 1),
)


def ndc_sized() -> Hypergraph:
    rng = np.random.default_rng(0)
    ks = np.arange(2, 13)
    p_size = ks**-2.5
    sizes = rng.choice(ks, size=M, p=p_size / p_size.sum())
    popularity = np.arange(1, N + 1) ** -0.8
    popularity /= popularity.sum()
    return Hypergraph(N, [rng.choice(N, size=int(k), replace=False, p=popularity) for k in sizes])


def sparse_unpacked(n: int, m: int, max_size: int, seed: int) -> Hypergraph:
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, max_size + 1, size=m)
    return Hypergraph(n, [rng.choice(n, size=int(k), replace=False) for k in sizes])


def timed(label: str, call, repeat: int = 1):
    """Print the best wall time of ``repeat`` calls of ``call()``, then the
    ``tracemalloc`` peak of one more call, and return that call's value."""
    walls = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        walls.append(time.perf_counter() - t0)
    wall = min(walls)
    tracemalloc.start()
    out = call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{label} {wall:.3f} s, tracemalloc peak {peak / 2**20:.1f} MB")
    return out


def main() -> None:
    for cfg, repeat in MODELS:
        _, pot, phi, hoff = timed(
            f"model resolution, n={cfg.n}", lambda: resolve_model(cfg, cfg.seed), repeat
        )
        digest = hashlib.sha256(b"".join(pot.by_size[s].tobytes() for s in pot.sizes))
        print(f"  candidates per size {pot.size_counts().tolist()}, sha256 {digest.hexdigest()[:16]}")
        dist = pairwise_distances(sample_latents(cfg.n, cfg.d, cfg.seed))
        timed("  link_probability_map", lambda: link_probability_map(pot, phi), repeat)
        timed(
            "  edge_distance_profile",
            lambda: edge_distance_profile(pot, phi, dist, hoff=hoff),
            repeat,
        )

    g = clique_expand(ndc_sized())
    print(f"n={g.n} edges={g.edge_count} wedges={wedge_count(g):.3g}")

    t0 = time.perf_counter()
    g_train, pairs, _ = evaluation._split_pair_set(g, SPEC)[:3]
    t1 = time.perf_counter()
    score_pairs_many(SCORERS, g_train, *pairs.T)
    t2 = time.perf_counter()
    print(f"pair set {t1 - t0:.2f} s ({len(pairs)} pairs), scoring {t2 - t1:.2f} s")
    del g_train, pairs

    timed("split evaluate_protocol", lambda: evaluate_protocol(g, SCORERS, SPEC))
    timed("split --negatives all evaluate_protocol", lambda: evaluate_protocol(g, SCORERS, EVERY))
    timed("leave-one-out evaluate_protocol", lambda: evaluate_protocol(g, ALL_SCORERS, "loo"))
    timed("leave-one-out protocol_scores cn", lambda: protocol_scores(g, ["cn"], "loo"))

    for i, params in enumerate(SPARSE):
        g = clique_expand(sparse_unpacked(*params))
        g_train, pairs = evaluation._split_pair_set(g, SPEC)[:2]
        print(f"sparse n={g.n} train edges={g_train.edge_count} wedges={wedge_count(g_train)}")
        timed(
            f"scoring {len(pairs)} split pairs",
            lambda: score_pairs_many(ALL_SCORERS, g_train, *pairs.T),
        )
        for d_hop in (3, 4) if i == 0 else ():
            timed(
                f"negatives within {d_hop} hops",
                lambda: evaluation._sample_distance_limited_non_links(
                    g, g_train, d_hop, 1000, np.random.default_rng(SPEC.seed)
                ),
            )

    g = clique_expand(sparse_unpacked(*SPARSE_EVERY))
    print(f"sparse n={g.n} edges={g.edge_count}")
    timed(
        "split --negatives all evaluate_protocol",
        lambda: evaluate_protocol(g, ALL_SCORERS, EVERY),
    )


if __name__ == "__main__":
    main()
