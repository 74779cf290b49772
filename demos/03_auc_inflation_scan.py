"""Show scorers claiming more predictive power than the data contains.

Each replicate draws a hypergraph whose pair-level selection is off and
whose triples are sparse, expands it, and compares two AUC numbers: the
heuristic's leave-one-out score and the ceiling computed from the exact
link probabilities. Points above the diagonal are overestimates -- the
scorer is reading realized higher-order structure that, by construction,
carries no predictive information.

Run:  python3 demos/03_auc_inflation_scan.py [scan.csv]
      With a CSV argument, plots an existing `hyperlp scan` output
      unchanged instead of scanning here.
"""

import csv
import sys
from types import SimpleNamespace

from hyperlp import ModelConfig, overestimation_scan

if len(sys.argv) > 1:
    with open(sys.argv[1]) as fh:
        ok = [
            SimpleNamespace(
                scorer=row["scorer"],
                model_auc=float(row["model_auc"]),
                heuristic_auc=float(row["heuristic_auc"]),
                overestimated=row["overestimated"] == "True",
            )
            for row in csv.DictReader(fh)
            if not row.get("error") and row["model_auc"]
        ]
    scorers = sorted({r.scorer for r in ok})
else:
    # the config `hyperlp scan` reads: one point, 40 replicates; each
    # replicate resolves its model as `hyperlp generate` would
    cfg = ModelConfig(n=60, d=2, seed=9, percentiles=(0.1, 0.6), phi=(0.0, 0.3), replicates=40)
    rows = overestimation_scan(cfg, ["cn", "aa"])
    ok = [r for r in rows if r.error is None]
    scorers = ["cn", "aa"]
    with open("demo_scan.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scorer", "seed", "model_auc", "heuristic_auc", "overestimated"])
        for r in ok:
            writer.writerow(
                [r.scorer, r.seed, r.model_auc, r.heuristic_auc, r.overestimated]
            )
    print("wrote demo_scan.csv")

for scorer in scorers:
    mine = [r for r in ok if r.scorer == scorer]
    flagged = sum(1 for r in mine if r.overestimated)
    print(f"{scorer}: {flagged}/{len(mine)} replicates overestimated")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 5))
    markers = "os^vD*"
    for scorer, marker in zip(scorers, markers):
        mine = [r for r in ok if r.scorer == scorer]
        colors = ["red" if r.overestimated else "tab:blue" for r in mine]
        ax.scatter(
            [r.model_auc for r in mine],
            [r.heuristic_auc for r in mine],
            c=colors, marker=marker, alpha=0.7, label=scorer,
        )
    ax.plot([0.4, 1.0], [0.4, 1.0], color="gray", lw=0.8)
    ax.set_xlabel("AUC ceiling from exact probabilities")
    ax.set_ylabel("heuristic leave-one-out AUC")
    ax.legend()
    fig.savefig("demo_scan.png", dpi=120, bbox_inches="tight")
    print("wrote demo_scan.png (red = overestimated)")
except ImportError:
    print("matplotlib unavailable; skipped the figure")
