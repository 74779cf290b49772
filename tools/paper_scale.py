"""Time one split-protocol graph of the drug-substance check on a seeded
synthetic input the size of NDC-substances.

    PYTHONPATH=src python3 tools/paper_scale.py

The input is drawn from ``numpy.random.default_rng(0)``: n=5,556
vertices and 112,919 hyperedges of sizes 2..12 with P(k) ∝ k^-2.5, each
hyperedge's members drawn without replacement with popularity ∝
rank^-0.8. Its clique expansion has 415,715 edges and 2.50e8 wedges.
Nothing is downloaded; drawing the input takes about 10 s.

The script prints those counts, then the wall time of the split pair set
(held-out edges and two-hop negatives) and of scoring it, and the wall
time and ``tracemalloc`` peak of the call the check makes per graph:
``evaluate_protocol(g, ("cn", "aa", "pa"), SplitSpec(0.8, 2, 1.0, 41))``.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from hyperlp import evaluation
from hyperlp.evaluation import SplitSpec, evaluate_protocol
from hyperlp.heuristics import score_pairs_many
from hyperlp.hypergraph import Hypergraph, clique_expand, wedge_count

N, M = 5556, 112919
SCORERS = ("cn", "aa", "pa")
SPEC = SplitSpec(0.8, 2, 1.0, 41)


def ndc_sized() -> Hypergraph:
    rng = np.random.default_rng(0)
    ks = np.arange(2, 13)
    p_size = ks**-2.5
    sizes = rng.choice(ks, size=M, p=p_size / p_size.sum())
    popularity = np.arange(1, N + 1) ** -0.8
    popularity /= popularity.sum()
    return Hypergraph(N, [rng.choice(N, size=int(k), replace=False, p=popularity) for k in sizes])


def main() -> None:
    g = clique_expand(ndc_sized())
    print(f"n={g.n} edges={g.edge_count} wedges={wedge_count(g):.3g}")

    t0 = time.perf_counter()
    g_train, pairs, _ = evaluation._split_pair_set(g, SPEC)[:3]
    t1 = time.perf_counter()
    score_pairs_many(SCORERS, g_train, *pairs.T)
    t2 = time.perf_counter()
    print(f"pair set {t1 - t0:.2f} s ({len(pairs)} pairs), scoring {t2 - t1:.2f} s")

    t0 = time.perf_counter()
    evaluate_protocol(g, SCORERS, SPEC)
    wall = time.perf_counter() - t0
    tracemalloc.start()
    evaluate_protocol(g, SCORERS, SPEC)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"evaluate_protocol {wall:.2f} s, tracemalloc peak {peak / 2**20:.0f} MB")


if __name__ == "__main__":
    main()
