"""Monte-Carlo verification harnesses for the package's statistical claims.

Each harness samples a configurable number of trials with per-trial
derived seeds and reports a :class:`TrialSummary`: the estimated
statistic, a 95% normal-approximation confidence interval, and a verdict
against the claim's predicate. Summaries are reproducible bit-for-bit for
a fixed (parameters, seed) combination, and every harness scores with the
same production scorers the evaluation pipeline uses.

Claims covered:

* ``er-clustering`` - the global clustering coefficient of G(n, p)
  concentrates on p.
* ``er-cn`` - common-neighbor counts on G(n, p) have mean (n-2) p^2 and
  are independent of the pair's own edge indicator.
* ``er-auc`` - no scorer beats AUC 0.5 on G(n, p) under leave-one-out.
* ``cn-lift`` - with pair selection off and at least one size-3 candidate
  on, the common-neighbors AUC rises strictly above 0.5 even though the
  exact-probability ceiling stays at 0.5.
* ``relocation-baseline`` - on hypergraphs of width 2, relocation keeps
  every scorer's AUC near 0.5.

The ensemble AUC here pools (score, label) observations across trials
before ranking, matching the two-conditional-distributions definition the
lift claim is stated in; per-trial AUCs are reported alongside where they
are computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .evaluation import (
    _cross_class_counts,
    _pair_labels,
    auc,
    auc_conditional,
    leave_one_out,
    model_auc,
)
from .heuristics import score_pairs
from .hypergraph import Hypergraph, SimpleGraph, clique_expand, width
from .latent import PotentialIndex, sample_hypergraph
from .relocation import relocate

Z95 = 1.959963984540054


@dataclass
class TrialSummary:
    """Outcome of one Monte-Carlo claim check."""

    claim_id: str
    n_trials: int
    statistic: float
    ci_low: float
    ci_high: float
    verdict: str  # "pass", "fail", or "degenerate"
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.ci_low <= self.statistic <= self.ci_high) and not np.isnan(
            self.statistic
        ):
            raise ValueError("confidence interval must bracket the statistic")


def _spawn_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=count)]


def _mean_ci(values: Sequence[float]) -> tuple[float, float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, se, mean - Z95 * se, mean + Z95 * se


def er_sample(n: int, p: float, seed: int) -> SimpleGraph:
    """Erdos-Renyi graph: each pair is an edge independently with
    probability p."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not (0 <= p <= 1):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    edges = list(zip(iu[mask].tolist(), iv[mask].tolist()))
    return SimpleGraph(n, edges)


def clustering_coefficient(g: SimpleGraph) -> float:
    """Global clustering: 3 * triangles / connected triples. NaN when the
    graph has no connected triples."""
    a = g.adjacency_matrix()
    triangles = float(np.trace(a @ a @ a)) / 6.0
    degs = a.sum(axis=1)
    triples = float(np.sum(degs * (degs - 1) / 2.0))
    if triples == 0:
        return float("nan")
    return 3.0 * triangles / triples


def verify_er_clustering(n: int, p: float, trials: int = 100, seed: int = 0) -> TrialSummary:
    """Check that G(n, p)'s mean clustering coefficient matches p."""
    if n < 10 or trials < 30:
        raise ValueError("need n >= 10 and trials >= 30 for a stable check")
    values = []
    degenerate = 0
    for ts in _spawn_seeds(seed, trials):
        cc = clustering_coefficient(er_sample(n, p, ts))
        if np.isnan(cc):
            degenerate += 1
        else:
            values.append(cc)
    if not values:
        return TrialSummary(
            claim_id="er-clustering",
            n_trials=trials,
            statistic=float("nan"),
            ci_low=float("nan"),
            ci_high=float("nan"),
            verdict="degenerate",
            details={"degenerate_trials": degenerate, "target": p},
        )
    mean, se, lo, hi = _mean_ci(values)
    verdict = "pass" if lo <= p <= hi else "fail"
    return TrialSummary(
        claim_id="er-clustering",
        n_trials=trials,
        statistic=mean,
        ci_low=lo,
        ci_high=hi,
        verdict=verdict,
        details={"target": p, "se": se, "degenerate_trials": degenerate},
    )


def verify_er_common_neighbors(
    n: int,
    p: float,
    trials: int = 100,
    seed: int = 0,
    chi_square: bool = False,
) -> TrialSummary:
    """Check the common-neighbor law on G(n, p): mean (n-2) p^2, and no
    dependence between a pair's count and its own edge indicator.

    Counts are taken over every vertex pair each trial; both the mean and
    the edge/non-edge contrast get their standard errors across trials
    (pairs inside one graph are correlated, so per-pair errors would be
    optimistic). The optional goodness-of-fit test against the binomial
    law with n-2 slots of probability p^2 uses one vertex-disjoint random
    matching per trial to keep its samples effectively independent.
    """
    if n < 10 or trials < 30:
        raise ValueError("need n >= 10 and trials >= 30 for a stable check")
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    trial_means = []
    trial_diffs = []
    matched_counts = []
    for ts in _spawn_seeds(seed, trials):
        g = er_sample(n, p, ts)
        a = g.adjacency_matrix()
        counts = (a @ a)[iu, iv]
        flags = a[iu, iv] > 0
        trial_means.append(float(counts.mean()))
        if flags.any() and not flags.all():
            trial_diffs.append(float(counts[flags].mean() - counts[~flags].mean()))
        if chi_square:
            order = rng.permutation(n)
            matched_counts.append((a @ a)[order[0::2][: n // 2], order[1::2][: n // 2]])

    target = (n - 2) * p * p
    mean, se, lo, hi = _mean_ci(trial_means)
    mean_ok = abs(mean - target) <= 3 * se if se > 0 else mean == target

    details: dict = {"target": target, "se": se}
    independent_ok = True
    if trial_diffs:
        diff_mean, se_diff, _, _ = _mean_ci(trial_diffs)
        independent_ok = abs(diff_mean) <= 3 * se_diff if se_diff > 0 else diff_mean == 0
        details.update(
            {
                "edge_vs_non_edge_diff": diff_mean,
                "se_diff": se_diff,
                "diff_trials": len(trial_diffs),
            }
        )
    if chi_square:
        from scipy import stats

        cn = np.concatenate(matched_counts).astype(int)
        support = np.arange(0, n - 1)
        expected = stats.binom.pmf(support, n - 2, p * p) * len(cn)
        observed = np.bincount(cn, minlength=len(support))[: len(support)]
        keep = expected >= 5  # fold sparse tail bins together
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        chi2, pval = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        details.update({"chi2": float(chi2), "chi2_pvalue": float(pval)})

    verdict = "pass" if (mean_ok and independent_ok) else "fail"
    return TrialSummary(
        claim_id="er-cn",
        n_trials=trials,
        statistic=mean,
        ci_low=lo,
        ci_high=hi,
        verdict=verdict,
        details=details,
    )


def verify_er_auc_baseline(
    n: int,
    p: float,
    scorers: Sequence[str] = ("cn", "aa", "pa", "jc", "ra"),
    trials: int = 100,
    seed: int = 0,
) -> dict[str, TrialSummary]:
    """Check that every scorer's mean leave-one-out AUC on G(n, p) sits at
    0.5 within three standard errors."""
    if n < 10 or trials < 30:
        raise ValueError("need n >= 10 and trials >= 30 for a stable check")
    per_scorer: dict[str, list[float]] = {s: [] for s in scorers}
    skipped: dict[str, int] = {s: 0 for s in scorers}
    for ts in _spawn_seeds(seed, trials):
        g = er_sample(n, p, ts)
        for s in scorers:
            try:
                lp = leave_one_out(g, s)
                per_scorer[s].append(auc(lp.scores, lp.labels))
            except ValueError:
                skipped[s] += 1
    out = {}
    for s in scorers:
        values = per_scorer[s]
        if not values:
            out[s] = TrialSummary(
                claim_id="er-auc",
                n_trials=trials,
                statistic=float("nan"),
                ci_low=float("nan"),
                ci_high=float("nan"),
                verdict="degenerate",
                details={"scorer": s, "skipped_trials": skipped[s]},
            )
            continue
        mean, se, lo, hi = _mean_ci(values)
        ok = abs(mean - 0.5) <= 3 * se if se > 0 else mean == 0.5
        out[s] = TrialSummary(
            claim_id="er-auc",
            n_trials=trials,
            statistic=mean,
            ci_low=lo,
            ci_high=hi,
            verdict="pass" if ok else "fail",
            details={"scorer": s, "se": se, "skipped_trials": skipped[s]},
        )
    return out


def _pooled_rank_stats(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[float, float | None]:
    """(tie-aware AUC, strict conditional AUC or None) for pooled samples."""
    pooled = auc(scores, labels)
    try:
        conditional = auc_conditional(scores, labels)
    except ValueError:
        conditional = None
    return pooled, conditional


def verify_higher_order_auc_lift(
    pot: PotentialIndex,
    phi: Sequence[float],
    trials: int = 200,
    seed: int = 0,
    scorer: str = "cn",
    batches: int = 10,
) -> TrialSummary:
    """Check that higher-order candidates alone push the scorer's ensemble
    AUC strictly above 0.5.

    Requires pair-level selection off (phi for size 2 equal to zero) and
    at least one candidate of size >= 3. Scores are taken on each realized
    graph without edge removal and pooled across trials; the pooled AUC is
    computed per batch of trials, and the verdict asks the batch mean to
    exceed 0.5 by three standard errors. Per-trial leave-one-out AUCs are
    reported in the details for the trials where they exist.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi[0] != 0:
        raise ValueError("this check needs the size-2 selection probability to be 0")
    if not any(len(pot.by_size.get(s, [])) > 0 for s in range(3, pot.k_max + 1)):
        raise ValueError("need at least one candidate hyperedge of size >= 3")
    if trials < batches:
        raise ValueError(f"need trials >= batches, got {trials} < {batches}")

    iu, iv = np.triu_indices(pot.n, k=1)
    batch_scores: list[list[np.ndarray]] = [[] for _ in range(batches)]
    batch_labels: list[list[np.ndarray]] = [[] for _ in range(batches)]
    loo_values: list[float] = []
    model_values: list[float] = []
    seeds = _spawn_seeds(seed, trials)
    for t, ts in enumerate(seeds):
        g = clique_expand(sample_hypergraph(pot, phi, ts))
        b = t % batches
        batch_scores[b].append(score_pairs(scorer, g, iu, iv))
        batch_labels[b].append(_pair_labels(g, iu, iv))
        model_values.append(model_auc(pot, phi, g))
        try:
            lp = leave_one_out(g, scorer)
            loo_values.append(auc(lp.scores, lp.labels))
        except ValueError:
            pass

    batch_aucs = []
    for bs, bl in zip(batch_scores, batch_labels):
        labels = np.concatenate(bl)
        if labels.any() and not labels.all():
            batch_aucs.append(auc(np.concatenate(bs), labels))
    if not batch_aucs:
        return TrialSummary(
            claim_id="cn-lift",
            n_trials=trials,
            statistic=float("nan"),
            ci_low=float("nan"),
            ci_high=float("nan"),
            verdict="degenerate",
            details={"scorer": scorer},
        )
    mean, se, lo, hi = _mean_ci(batch_aucs)

    all_scores = np.concatenate([x for bs in batch_scores for x in bs])
    all_labels = np.concatenate([x for bl in batch_labels for x in bl])
    pooled, conditional = _pooled_rank_stats(all_scores, all_labels)

    verdict = "pass" if mean - 0.5 > 3 * se else "fail"
    details = {
        "scorer": scorer,
        "se": se,
        "batches_used": len(batch_aucs),
        "pooled_auc": pooled,
        "pooled_auc_conditional": conditional,
        "model_auc_mean": float(np.mean(model_values)),
        "loo_mean": float(np.mean(loo_values)) if loo_values else None,
        "loo_trials": len(loo_values),
    }
    return TrialSummary(
        claim_id="cn-lift",
        n_trials=trials,
        statistic=mean,
        ci_low=lo,
        ci_high=hi,
        verdict=verdict,
        details=details,
    )


def exact_ensemble_auc(
    pot: PotentialIndex,
    phi: Sequence[float],
    scorer: str = "cn",
    max_candidates: int = 16,
) -> tuple[float, float | None]:
    """Exact ensemble AUC by enumerating every candidate subset.

    Weights each of the 2^m selection outcomes by its probability, pools
    the per-pair (score, label, weight) observations, and ranks exactly.
    Returns the tie-aware AUC and the strict conditional AUC (None when
    every cross-class comparison ties). Time and memory are exponential in
    the candidate count, hence the cap.
    """
    cands = pot.all_candidates()
    m = len(cands)
    if m > max_candidates:
        raise ValueError(f"{m} candidates exceed the enumeration cap {max_candidates}")
    phi = np.asarray(phi, dtype=np.float64)
    probs = np.array([phi[len(c) - 2] for c in cands])
    iu, iv = np.triu_indices(pot.n, k=1)

    scores, labels, weights = [], [], []
    for bits in range(2**m):
        chosen = ((bits >> np.arange(m)) & 1).astype(bool)
        weight = float(np.prod(np.where(chosen, probs, 1.0 - probs)))
        if weight == 0.0:
            continue
        g = clique_expand(Hypergraph(pot.n, [c for c, on in zip(cands, chosen) if on]))
        scores.append(score_pairs(scorer, g, iu, iv))
        labels.append(_pair_labels(g, iu, iv))
        weights.append(np.full(len(iu), weight))
    greater, ties, w_pos, w_neg = _cross_class_counts(
        np.concatenate(scores), np.concatenate(labels), np.concatenate(weights)
    )
    if w_pos == 0 or w_neg == 0:
        raise ValueError("ensemble has zero mass in one class")
    total = w_pos * w_neg
    tie_aware = (greater + 0.5 * ties) / total
    conditional = greater / (total - ties) if total - ties > 0 else None
    return tie_aware, conditional


def verify_relocation_baseline(
    h: Hypergraph,
    scorers: Sequence[str] = ("cn", "aa"),
    runs: int = 50,
    seed: int = 0,
) -> dict[str, TrialSummary]:
    """Check that relocating a width-2 hypergraph leaves every scorer's
    leave-one-out AUC within 0.05 of 0.5."""
    if width(h) != 2:
        raise ValueError(f"baseline check requires width 2, got {width(h)}")
    per_scorer: dict[str, list[float]] = {s: [] for s in scorers}
    for ts in _spawn_seeds(seed, runs):
        g = clique_expand(relocate(h, ts))
        for s in scorers:
            try:
                lp = leave_one_out(g, s)
                per_scorer[s].append(auc(lp.scores, lp.labels))
            except ValueError:
                pass
    out = {}
    for s in scorers:
        values = per_scorer[s]
        if not values:
            out[s] = TrialSummary(
                claim_id="relocation-baseline",
                n_trials=runs,
                statistic=float("nan"),
                ci_low=float("nan"),
                ci_high=float("nan"),
                verdict="degenerate",
                details={"scorer": s},
            )
            continue
        mean, se, lo, hi = _mean_ci(values)
        if len(values) == 1:
            verdict = "indeterminate"
        else:
            verdict = "pass" if abs(mean - 0.5) <= 0.05 else "fail"
        out[s] = TrialSummary(
            claim_id="relocation-baseline",
            n_trials=runs,
            statistic=mean,
            ci_low=lo,
            ci_high=hi,
            verdict=verdict,
            details={"scorer": s, "se": se, "runs_used": len(values)},
        )
    return out
