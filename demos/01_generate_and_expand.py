"""Walk through the hypergraph generator, end to end.

Ten points get standard-normal positions in the plane, and their pairwise
distances are computed once. Radii for sizes 2 and 3 come from
percentiles of those distances; candidate
hyperedges are the point groups that fit within twice those radii; a
Bernoulli draw per candidate yields the hypergraph, and clique expansion
turns it into a plain graph.

Run:  python3 demos/01_generate_and_expand.py
"""

import numpy as np

from hyperlp import (
    build_potential,
    clique_expand,
    pairwise_distances,
    radii_from_percentiles,
    sample_hypergraph,
    sample_latents,
    save_plain,
    size_distribution,
    width,
)

n, d, seed = 10, 2, 7
positions = sample_latents(n, d, seed)
print(f"{n} points in R^{d} (seed {seed})")

dist = pairwise_distances(positions)  # the one distance pass; the readers below share it
radii = radii_from_percentiles(dist, [6, 12])
print(f"radii from the 6th/12th distance percentiles: {np.round(radii, 3)}")

pot = build_potential(dist, radii)
for s in pot.sizes:
    print(f"  size-{s} candidates: {pot.by_size[s].tolist()}")

phi = [0.5, 0.5]
h = sample_hypergraph(pot, phi, seed=seed)
print(f"kept {len(h)} of {pot.total} candidates at phi={phi}:")
for f in h.hyperedges:
    print(f"  {tuple(sorted(f))}")
if len(h):
    print(f"width: {width(h)}, sizes: {size_distribution(h)}")

g = clique_expand(h)
edges = g.edge_array()  # rows (u, v), u < v, ascending
print(f"clique expansion: {g.edge_count} edges -> {list(map(tuple, edges.tolist()))}")

save_plain(h, "demo_generated.hyg")
print("wrote demo_generated.hyg (one hyperedge per line)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 5))
    ax.scatter(positions[:, 0], positions[:, 1], zorder=3)
    for i, (x, y) in enumerate(positions):
        ax.annotate(str(i), (x, y), textcoords="offset points", xytext=(4, 4))
    for u, v in edges:
        ax.plot(*positions[[u, v]].T, color="gray", lw=1)
    ax.set_title("expanded edges over latent positions")
    fig.savefig("demo_generated.png", dpi=120, bbox_inches="tight")
    print("wrote demo_generated.png")
except ImportError:
    print("matplotlib unavailable; skipped the figure")
