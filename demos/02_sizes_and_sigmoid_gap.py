"""Compare the generator against the pairwise sigmoid model.

Two diagnostics. First, the chance that a size-k group fully materializes:
the sigmoid model needs all k*(k-1)/2 pair draws to fire, so its group
probability collapses exponentially in k, while the generator selects a
candidate group in one draw with probability phi_k (polynomial under the
1/k^2 preset, constant under the flat one). Real co-occurrence data keeps
far more large groups than the exponential collapse allows. Second, the
exact probability that a vertex pair at a given distance ends up
linked, against the sigmoid curve at the same distance: groups let the
generator produce long edges the sigmoid starves.

Run:  python3 demos/02_sizes_and_sigmoid_gap.py
"""

import numpy as np

from hyperlp import (
    build_potential,
    default_hoff_params,
    edge_distance_profile,
    hoff_clique_probability,
    pairwise_distances,
    phi_preset,
    radii_from_percentiles,
    sample_latents,
)

n, d, seed = 120, 2, 5
percentiles = [1, 5, 9, 13]
# one distance pass: radii, candidates, sigmoid offset and profile all read it
dist = pairwise_distances(sample_latents(n, d, seed))
radii = radii_from_percentiles(dist, percentiles)
pot = build_potential(dist, radii)
hoff = default_hoff_params(dist)
print(f"n={n}, radii={np.round(radii, 3)}, sigmoid gamma={hoff.gamma:.3f}")

print("\nprobability that one size-k group materializes in full:")
print(f"{'k':>3}{'sigmoid clique':>16}{'phi 1/k^2':>12}{'phi 0.1':>9}")
phi_pl = phi_preset("power_law", k_max=5)
pair_dist = hoff.gamma  # a group at the sigmoid's midpoint distance
for k in range(2, 6):
    m = k * (k - 1) // 2
    clique_p = hoff_clique_probability(hoff, [pair_dist] * m)
    print(f"{k:>3}{clique_p:>16.2e}{phi_pl[k - 2]:>12.3f}{0.1:>9.3f}")
print("the sigmoid column collapses with k*(k-1)/2; the presets do not")

# the generator is its candidate index and phi; the profile bins their exact map
profile = edge_distance_profile(pot, phi_pl, dist, bins=30, hoff=hoff)
reach = 2 * radii[-1]
band = (profile.bin_centers >= 2 * radii[0]) & (profile.bin_centers <= reach)
outer = band & (profile.bin_centers >= 0.5 * reach)
print(
    "\nmean edge frequency, generator vs sigmoid: "
    f"reachable band {profile.model_freq[band].mean():.3f} vs "
    f"{profile.hoff_prob[band].mean():.3f}; outer half "
    f"{profile.model_freq[outer].mean():.3f} vs {profile.hoff_prob[outer].mean():.3f}"
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(profile.bin_centers, profile.model_freq, "o-", label="generator (exact)")
    ax.plot(profile.bin_centers, profile.hoff_prob, "--", label="sigmoid model")
    ax.axvline(reach, color="gray", lw=0.8, label="max reach")
    ax.set_xlabel("pairwise distance")
    ax.set_ylabel("edge probability")
    ax.set_xlim(0, 3 * radii[-1])
    ax.legend()
    fig.savefig("demo_distance_profile.png", dpi=120, bbox_inches="tight")
    print("wrote demo_distance_profile.png")
except ImportError:
    print("matplotlib unavailable; skipped the figure")
