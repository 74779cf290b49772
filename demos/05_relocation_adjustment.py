"""Correct inflated scores with relocation baselines.

Every hyperedge is re-drawn as a uniform random vertex set of the same
size, which scrubs all real signal while keeping the size profile. A
scorer's AUC on such input should be 0.5; whatever it scores above that
is structural inflation. Dividing the raw AUC by (relocated AUC / 0.5)
restates it against the honest baseline, and the resulting ordering of
scorers can flip.

Run:  python3 demos/05_relocation_adjustment.py [hypergraph-file]
      (defaults to a generated hypergraph with strong higher-order load)
"""

import sys

from hyperlp import (
    adjusted_auc,
    build_potential,
    load_plain,
    pairwise_distances,
    performance_reversal_check,
    radii_from_percentiles,
    sample_hypergraph,
    sample_latents,
)

if len(sys.argv) > 1:
    bundle = load_plain(sys.argv[1])
    h, name = bundle.hypergraph, bundle.name
else:
    dist = pairwise_distances(sample_latents(60, 2, seed=2))  # computed once, read twice
    radii = radii_from_percentiles(dist, [2, 8])
    pot = build_potential(dist, radii)
    h, name = sample_hypergraph(pot, [0.2, 0.5], seed=2), "generated"

print(f"dataset: {name} ({h.n} vertices, {len(h)} hyperedges)")
print(f"{'scorer':<8}{'auc':>8}{'rel mean':>10}{'rel std':>9}{'factor':>8}{'adjusted':>10}")
# one call: every scorer is judged on the same relocated graphs and pairs
reports = adjusted_auc(h, ("cn", "aa", "pa", "jc", "ra"), protocol="loo", n_runs=5, seed=17)
for scorer, rep in reports.items():
    if isinstance(rep, Exception):
        print(f"{scorer:<8}failed: {rep}")
        continue
    print(
        f"{scorer:<8}{rep.auc_original:>8.3f}{rep.auc_rel_mean:>10.3f}"
        f"{rep.auc_rel_std:>9.3f}{rep.af:>8.3f}{rep.auc_adjusted:>10.3f}"
    )
reports = {s: rep for s, rep in reports.items() if not isinstance(rep, Exception)}

flips = performance_reversal_check(reports)
if flips:
    print("\nordering flips after adjustment:")
    for a, b in flips:
        print(
            f"  {a} vs {b}: raw {reports[a].auc_original:.3f} vs "
            f"{reports[b].auc_original:.3f}, adjusted "
            f"{reports[a].auc_adjusted:.3f} vs {reports[b].auc_adjusted:.3f}"
        )
else:
    print("\nno ordering flips on this input")
