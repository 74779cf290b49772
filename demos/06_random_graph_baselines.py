"""Sanity anchors on pure-noise inputs.

On an independent-edge random graph: the clustering coefficient
concentrates on the edge probability, a pair's common-neighbor count is
binomial with n-2 slots of probability p^2 and does not depend on whether
the pair itself is linked, and consequently no scorer can beat AUC 0.5.
The same 0.5 shows up on relocated pair-only hypergraphs, which is what
licenses relocation as a baseline.

Run:  python3 demos/06_random_graph_baselines.py
"""

from hyperlp import (
    Hypergraph,
    relocate,
    verify_er_auc_baseline,
    verify_er_clustering,
    verify_er_common_neighbors,
    verify_relocation_baseline,
)

print("clustering on G(200, 0.1), 60 trials:")
cc = verify_er_clustering(200, 0.1, trials=60, seed=1)
print(f"  mean {cc.statistic:.4f}, 95% CI [{cc.ci_low:.4f}, {cc.ci_high:.4f}] -> {cc.verdict}")

print("\ncommon neighbors on G(102, 0.1), 60 trials (target 1.0):")
cn = verify_er_common_neighbors(102, 0.1, trials=60, seed=2, chi_square=True)
d = cn.details
print(f"  mean {cn.statistic:.4f}; edge-vs-non-edge gap {d['edge_vs_non_edge_diff']:+.4f} (se {d['se_diff']:.4f})")
print(f"  binomial goodness-of-fit p-value: {d['chi2_pvalue']:.3f} -> {cn.verdict}")

print("\nleave-one-out AUC on G(100, 0.1), 60 trials:")
for scorer, ts in verify_er_auc_baseline(100, 0.1, trials=60, seed=3).items():
    print(f"  {scorer}: {ts.statistic:.4f} -> {ts.verdict}")

print("\nrelocated AUC on a random pair-only hypergraph (200 pairs, 100 vertices):")
pairs = relocate(Hypergraph(100, [[0, 1]] * 200), seed=4)  # 200 uniform random pairs
for scorer, ts in verify_relocation_baseline(pairs, scorers=("cn", "aa"), runs=30, seed=5).items():
    print(f"  {scorer}: {ts.statistic:.4f} -> {ts.verdict}")
