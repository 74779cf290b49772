"""Hand-sized cases where every number is checkable on paper.

Case 1: five vertices, one triple {a,b,c} plus one pair {d,e}. Under
leave-one-out, common neighbors gives the triple's pairs score 1 and the
pair score 0, so the evaluation claims AUC 0.875 -- yet both hyperedges
appeared with the same probability, so nothing was predictable.

Case 2: three vertices. With only pair candidates, pooled scoring over
many draws sits at 0.5, matching the probability ceiling. With a single
triple candidate, the scorer hits a perfect pooled 1.0 while the ceiling
stays at 0.5: the inflation in its purest form. The exact enumerator
confirms both numbers without sampling.

Run:  python3 demos/04_toy_walkthroughs.py
"""

import numpy as np

from hyperlp import (
    Hypergraph,
    auc,
    auc_conditional,
    clique_expand,
    exact_ensemble_auc,
    model_auc,
    potential_from_candidates,
    protocol_scores,
    sample_hypergraph,
)
from hyperlp.heuristics import score_pairs
from hyperlp.hypergraph import condensed_keys

print("case 1: triple + pair over five vertices")
h = Hypergraph(5, [[0, 1, 2], [3, 4]])
g = clique_expand(h)
# every pair u < v, in np.triu_indices order: no pair array comes back
_, labels, scores = protocol_scores(g, ["cn"], "loo")
cn = scores["cn"]
names = "abcde"
for u, v, s, label in zip(*np.triu_indices(g.n, 1), cn, labels):
    mark = "edge" if label else "    "
    print(f"  {names[u]}{names[v]} {mark} score {s:.0f}")
print(f"  tie-aware AUC  : {auc(cn, labels):.3f}")
print(f"  strict AUC     : {auc_conditional(cn, labels):.3f}")

print("\ncase 2a: three pair candidates, phi=0.6")
pot_a = potential_from_candidates(3, [(0, 1), (0, 2), (1, 2)], k_max=3)
phi_a = [0.6, 0.0]
draws = [sample_hypergraph(pot_a, phi_a, seed) for seed in range(5000)]
# the draws side by side, draw i on vertices 3i..3i+2, are one graph whose
# pairs within a draw are the pooled observations, scored in one call
offsets = 3 * np.arange(len(draws))
pooled_h = Hypergraph.from_arrays(
    3 * len(draws),
    np.concatenate([h.sizes for h in draws]),
    np.concatenate([h.members + at for h, at in zip(draws, offsets)]),
)
g = clique_expand(pooled_h)
u = (offsets[:, None] + [0, 0, 1]).ravel()
v = (offsets[:, None] + [1, 2, 2]).ravel()
labels = np.isin(condensed_keys(g.n, u, v), g.edge_keys())
pooled = auc(score_pairs("cn", g, u, v), labels)
exact, _ = exact_ensemble_auc(pot_a, phi_a)
print(f"  pooled scorer AUC over 5000 draws: {pooled:.3f} (exact {exact:.3f})")

print("\ncase 2b: one triple candidate, phi=0.6")
pot_b = potential_from_candidates(3, [(0, 1, 2)], k_max=3)
phi_b = [0.0, 0.6]
exact_b, _ = exact_ensemble_auc(pot_b, phi_b)
sample = clique_expand(sample_hypergraph(pot_b, phi_b, seed=1))
print(f"  exact pooled scorer AUC: {exact_b:.3f}")
print(f"  probability ceiling     : {model_auc(pot_b, phi_b, sample):.3f}")
print("  the scorer claims certainty; the data owns none of it")
