"""Monte-Carlo verification harnesses for the package's statistical claims.

Each harness samples a configurable number of trials with per-trial
derived seeds and reports a :class:`TrialSummary`: the estimated
statistic, a 95% normal-approximation confidence interval, and a verdict
against the claim's predicate. Summaries are reproducible bit-for-bit for
a fixed (parameters, seed) combination, and every harness scores with the
same production scorers the evaluation pipeline uses.

Claims covered, by the id their summaries report:

* ``er-clustering`` (CLI ``cc``) - the global clustering coefficient of
  G(n, p) concentrates on p.
* ``er-cn`` (CLI ``cn-dist``) - common-neighbor counts on G(n, p) have
  mean (n-2) p^2 and are independent of the pair's own edge indicator;
  optionally, a Pearson χ² test against the Binomial(n-2, p^2) law,
  computed with ``math`` (lgamma for the pmf, the integer-df closed forms
  for the tail).
* ``er-auc`` - no scorer beats AUC 0.5 on G(n, p) under leave-one-out.
* ``cn-lift`` - with pair selection off and at least one size-3 candidate
  on, the common-neighbors AUC rises strictly above 0.5 even though the
  exact-probability ceiling stays at 0.5.
* ``relocation-baseline`` - on hypergraphs of width 2, relocation keeps
  every scorer's AUC near 0.5, in the runs of ``relocation.adjusted_auc``,
  the loop ``adjust`` and ``evaluate`` run. The CLI refuses its
  ``--runs`` below 1, ``--n`` below 2 and ``--edges`` below 1.

Two library defaults differ from the CLI's: ``verify_higher_order_auc_lift``
takes 200 trials (``verify``: 100), and ``verify_relocation_baseline``
scores cn and aa (``verify``: cn, aa, pa, jc and ra).

The ensemble AUC here pools (score, label) observations across trials
before ranking, matching the two-conditional-distributions definition the
lift claim is stated in; per-trial AUCs are reported alongside where they
are computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .evaluation import (
    AucCount,
    _ceiling_auc,
    _cross_class_counts,
    _pair_labels,
    _unwrap,
    auc,
    evaluate_protocol,
)
from .heuristics import score_pairs
from .hypergraph import Hypergraph, SimpleGraph, clique_expand, width
from .latent import (
    PotentialIndex,
    _at_least,
    _checked_phi,
    link_probability_map,
    sample_hypergraph,
    spawn_seeds,
)
from .relocation import adjusted_auc

Z95 = 1.959963984540054
# Trials of the cn-lift check pool their scores in this many batches.
_LIFT_BATCHES = 10
# The least n and trials of the G(n, p) checks (er-clustering, er-cn, er-auc).
STABLE_N, STABLE_TRIALS = 10, 30


@dataclass
class TrialSummary:
    """Outcome of one Monte-Carlo claim check."""

    claim_id: str
    n_trials: int
    statistic: float
    ci_low: float
    ci_high: float
    verdict: str  # "pass", "fail", "degenerate", or "indeterminate"
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.ci_low <= self.statistic <= self.ci_high) and not np.isnan(
            self.statistic
        ):
            raise ValueError("confidence interval must bracket the statistic")


def _mean_ci(values: Sequence[float]) -> tuple[float, float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, se, mean - Z95 * se, mean + Z95 * se


def _summary(claim_id: str, n_trials: int, values, rule, **details) -> TrialSummary:
    """The mean of ``values``, its standard error ``se`` and 95% CI, judged
    by ``rule(mean, se, ci_low, ci_high)``: True passes, False fails, a
    string is the verdict. No values: NaN statistic and CI, ``degenerate``."""
    if not len(values):
        return TrialSummary(claim_id, n_trials, math.nan, math.nan, math.nan, "degenerate", details)
    mean, se, lo, hi = _mean_ci(values)
    verdict = rule(mean, se, lo, hi)
    verdict = {True: "pass", False: "fail"}.get(verdict, verdict)
    return TrialSummary(claim_id, n_trials, mean, lo, hi, verdict, {"se": se, **details})


def _near(mean: float, target: float, se: float) -> bool:
    """Within three standard errors of ``target``; equal to it if se is 0."""
    return abs(mean - target) <= 3 * se if se > 0 else mean == target


def _in_band(mean, se, lo: float, hi: float) -> str:
    """Pass when the CI lies inside [0.45, 0.55], fail when it misses it."""
    if 0.45 <= lo and hi <= 0.55:
        return "pass"
    return "fail" if hi < 0.45 or lo > 0.55 else "indeterminate"


def er_sample(n: int, p: float, seed: int) -> SimpleGraph:
    """Erdos-Renyi graph: each pair is an edge independently with
    probability p."""
    _at_least("n", n, 2)
    if not (0 <= p <= 1):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return SimpleGraph(n, np.column_stack((iu[mask], iv[mask])))


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
    _at_least("n", n, STABLE_N)
    _at_least("trials", trials, STABLE_TRIALS)
    ccs = [clustering_coefficient(er_sample(n, p, ts)) for ts in spawn_seeds(seed, trials)]
    values = [cc for cc in ccs if not np.isnan(cc)]
    return _summary(
        "er-clustering", trials, values, lambda mean, se, lo, hi: lo <= p <= hi,
        target=p, degenerate_trials=trials - len(values),
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
    _at_least("n", n, STABLE_N)
    _at_least("trials", trials, STABLE_TRIALS)
    rng = np.random.default_rng(seed)
    trial_means = []
    trial_diffs = []
    matched_counts = []
    for ts in spawn_seeds(seed, trials):
        g = er_sample(n, p, ts)
        counts = score_pairs("cn", g)
        flags = _pair_labels(g)
        trial_means.append(float(counts.mean()))
        if flags.any() and not flags.all():
            trial_diffs.append(float(counts[flags].mean() - counts[~flags].mean()))
        if chi_square:
            order = rng.permutation(n)
            half = n // 2
            matched_counts.append(score_pairs("cn", g, order[0::2][:half], order[1::2][:half]))

    target = (n - 2) * p * p
    details: dict = {"target": target}
    independent_ok = True
    if trial_diffs:
        diff_mean, se_diff, _, _ = _mean_ci(trial_diffs)
        independent_ok = _near(diff_mean, 0, se_diff)
        details.update(
            edge_vs_non_edge_diff=diff_mean, se_diff=se_diff, diff_trials=len(trial_diffs)
        )
    if chi_square:
        cn = np.concatenate(matched_counts).astype(int)
        support = np.arange(0, n - 1)
        expected = _binomial_pmf(support, n - 2, p * p) * len(cn)
        observed = np.bincount(cn, minlength=len(support))[: len(support)]
        keep = expected >= 5  # fold sparse tail bins together
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        chi2, pval = _chi_square(obs, exp * obs.sum() / exp.sum())
        details.update(chi2=chi2, chi2_pvalue=pval)
    return _summary(
        "er-cn", trials, trial_means,
        lambda mean, se, lo, hi: _near(mean, target, se) and independent_ok, **details,
    )


def _binomial_pmf(k: np.ndarray, trials: int, p: float) -> np.ndarray:
    """P(K = k) for K ~ Binomial(trials, p), at each of the ints ``k``,
    from ``math.lgamma``; zero outside ``0..trials``."""

    def pmf(k: int) -> float:
        if not 0 <= k <= trials:
            return 0.0
        if p in (0.0, 1.0):  # a log of 0 would meet a zero power
            return float(k == trials * p)
        log_choose = math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
        return math.exp(log_choose + k * math.log(p) + (trials - k) * math.log1p(-p))

    return np.array([pmf(int(j)) for j in k], dtype=np.float64)


def _chi_square(observed: np.ndarray, expected: np.ndarray) -> tuple[float, float]:
    """Pearson's χ² statistic of ``observed`` against ``expected`` counts
    and its upper-tail p-value on one degree of freedom fewer than the
    cells, as ``scipy.stats.chisquare`` gives them.

    With y = χ²/2, the tail of an integer df is closed-form: the Poisson
    sum of y^a e^-y / Γ(a + 1) over a = df/2 - 1, df/2 - 2, ... down to 0
    for even df, and down to 1/2, plus ``erfc(sqrt(y))``, for odd df.
    With one cell, df = 0 and the law is a point mass at 0: the tail is 0
    beyond it and, as in scipy, NaN at it."""
    stat = float(((observed - expected) ** 2 / expected).sum())
    df = len(observed) - 1
    if df < 1:
        return stat, 0.0 if stat > 0 else math.nan
    if stat == 0:
        return stat, 1.0
    y = stat / 2
    powers = (df / 2 - k for k in range(1, df // 2 + 1))
    tail = math.fsum(math.exp(a * math.log(y) - y - math.lgamma(a + 1)) for a in powers)
    return stat, tail + (math.erfc(math.sqrt(y)) if df % 2 else 0.0)


def verify_er_auc_baseline(
    n: int,
    p: float,
    scorers: Sequence[str] = ("cn", "aa", "pa", "jc", "ra"),
    trials: int = 100,
    seed: int = 0,
) -> dict[str, TrialSummary]:
    """Check that every scorer's mean leave-one-out AUC on G(n, p) sits at
    0.5 within three standard errors. A trial whose scorer fails with a
    ``ValueError`` (no edge, or no non-edge) is skipped."""
    _at_least("n", n, STABLE_N)
    _at_least("trials", trials, STABLE_TRIALS)
    per_scorer: dict[str, list[float]] = {s: [] for s in scorers}
    for ts in spawn_seeds(seed, trials):
        for s, count in evaluate_protocol(er_sample(n, p, ts), scorers, "loo").items():
            if not isinstance(count, ValueError):
                per_scorer[s].append(_unwrap(count).auc)
    return {
        s: _summary(
            "er-auc", trials, values, lambda mean, se, lo, hi: _near(mean, 0.5, se),
            scorer=s, skipped_trials=trials - len(values),
        )
        for s, values in per_scorer.items()
    }


def verify_higher_order_auc_lift(
    pot: PotentialIndex,
    phi: Sequence[float],
    trials: int = 200,
    seed: int = 0,
) -> TrialSummary:
    """Check that higher-order candidates alone push the common-neighbor
    ensemble AUC strictly above 0.5.

    Requires pair-level selection off (phi for size 2 equal to zero) and
    at least one candidate of size >= 3. Scores are taken on each realized
    graph without edge removal and pooled across trials; the pooled AUC is
    computed per batch of trials (``_LIFT_BATCHES``), and the verdict asks
    the batch mean to exceed 0.5 by three standard errors. Per-trial
    leave-one-out AUCs are reported in the details for the trials where
    they exist: leaving an edge out moves no common-neighbor count, so
    they are counts of the same scores and labels.
    """
    phi = _checked_phi(phi, pot.k_max)
    if phi[0] != 0:
        raise ValueError("this check needs the size-2 selection probability to be 0")
    if not pot.size_counts()[1:].any():
        raise ValueError("need at least one candidate hyperedge of size >= 3")
    if trials < _LIFT_BATCHES:
        raise ValueError(f"need trials >= batches, got {trials} < {_LIFT_BATCHES}")

    draws: list[tuple[np.ndarray, np.ndarray]] = []  # each trial's scores and labels
    loo_values: list[float] = []
    model_values: list[float] = []
    prob = link_probability_map(pot, phi)  # the model's ceiling ranks every draw alike
    for ts in spawn_seeds(seed, trials):
        g = clique_expand(sample_hypergraph(pot, phi, ts))
        scores, labels = score_pairs("cn", g), _pair_labels(g)
        draws.append((scores, labels))
        model_values.append(_ceiling_auc(prob, labels))  # as model_auc reads it
        if labels.any() and not labels.all():
            loo_values.append(AucCount.of(scores, labels).auc)

    batch_aucs = []
    for b in range(_LIFT_BATCHES):
        scores, labels = (np.concatenate(x) for x in zip(*draws[b::_LIFT_BATCHES]))
        if labels.any() and not labels.all():
            batch_aucs.append(auc(scores, labels))
    if not batch_aucs:
        return _summary("cn-lift", trials, batch_aucs, None, scorer="cn")
    pooled = AucCount.of(*(np.concatenate(x) for x in zip(*draws)))
    return _summary(
        "cn-lift", trials, batch_aucs, lambda mean, se, lo, hi: mean - 0.5 > 3 * se,
        scorer="cn",
        batches_used=len(batch_aucs),
        pooled_auc=pooled.auc,
        pooled_auc_conditional=pooled.auc_conditional,
        model_auc_mean=float(np.mean(model_values)),
        loo_mean=float(np.mean(loo_values)) if loo_values else None,
        loo_trials=len(loo_values),
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
    phi = _checked_phi(phi, pot.k_max)
    probs = np.array([phi[len(c) - 2] for c in cands])

    scores, labels, weights = [], [], []
    for bits in range(2**m):
        chosen = ((bits >> np.arange(m)) & 1).astype(bool)
        weight = float(np.prod(np.where(chosen, probs, 1.0 - probs)))
        if weight == 0.0:
            continue
        g = clique_expand(Hypergraph(pot.n, [c for c, on in zip(cands, chosen) if on]))
        scores.append(score_pairs(scorer, g))
        labels.append(_pair_labels(g))
        weights.append(np.full(len(labels[-1]), weight))
    scores, labels, weights = map(np.concatenate, (scores, labels, weights))
    greater, ties, w_pos, w_neg = _cross_class_counts(scores, labels, weights)
    if w_pos == 0 or w_neg == 0:
        raise ValueError("ensemble has zero mass in one class")
    tie_aware = (greater + 0.5 * ties) / (w_pos * w_neg)
    # Both strict masses are sums, so the ratio stays within [0, 1].
    less = _cross_class_counts(-scores, labels, weights)[0]
    conditional = greater / (greater + less) if greater + less > 0 else None
    return tie_aware, conditional


def verify_relocation_baseline(
    h: Hypergraph,
    scorers: Sequence[str] = ("cn", "aa"),
    runs: int = 50,
    seed: int = 0,
) -> dict[str, TrialSummary]:
    """Check that relocating a width-2 hypergraph keeps every scorer's
    leave-one-out AUC within 0.05 of 0.5, over the relocated runs of
    ``adjusted_auc(h, scorers, "loo", runs, seed)``: the verdict passes
    when the runs' 95% CI lies inside [0.45, 0.55], fails when it misses
    that band, and is indeterminate otherwise or on one run. A
    ``ValueError`` in a scorer's slot gives a degenerate summary; any
    other error raises."""
    if width(h) != 2:
        raise ValueError(f"baseline check requires width 2, got {width(h)}")
    out = {}
    for s, report in adjusted_auc(h, scorers, "loo", runs, seed).items():
        if isinstance(report, ValueError):
            out[s] = _summary("relocation-baseline", runs, [], None, scorer=s)
        elif isinstance(report, Exception):
            raise report
        else:
            rule = _in_band if report.n_runs > 1 else lambda *ci: "indeterminate"
            out[s] = _summary(
                "relocation-baseline", runs, report.auc_rel_runs, rule,
                scorer=s, runs_used=report.n_runs,
            )
    return out
