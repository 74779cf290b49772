"""Evaluation protocols and tie-aware AUC.

Two AUC variants are exposed. ``auc`` is the Mann-Whitney statistic with
ties counted one half:

    auc = (#{s_pos > s_neg} + 0.5 * #{s_pos == s_neg}) / (P * N)

``auc_conditional`` is the strict variant conditioned on non-tied
comparisons, ``#{s_pos > s_neg} / #{s_pos != s_neg}``. Only the half-tie
convention reproduces the hand-computable toy value 0.875 on the
five-vertex two-hyperedge example; the strict variant is what the ideal
ranking analysis uses, so both are reported throughout.

Both count by one sort of the scores: ``_cross_class_counts`` groups
exactly equal scores and accumulates (optionally weighted) class counts
per group.

Protocols: ``leave_one_out`` scores every existing edge on the graph with
that one edge removed (non-edges are scored on the intact graph) and
covers all vertex pairs; ``split_evaluate`` removes a test fraction of
edges, trains on the rest, and samples distance-limited non-links as
negatives. Both score their whole pair set with one
:func:`~hyperlp.heuristics.score_pairs` call. Leave-one-out needs no
per-edge graph copy except for SimRank: removing edge {u, v} changes no
common neighbor of u and v and no degree of one, so CN, AA and RA keep
their intact-graph value, PA becomes ``(d_u - 1)(d_v - 1)`` and JC's
union shrinks by 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .heuristics import score_pairs, simrank_matrix
from .hypergraph import SimpleGraph, clique_expand
from .latent import (
    DEFAULT_MAX_POTENTIAL,
    PotentialIndex,
    build_potential,
    link_probability_map,
    radii_from_percentiles,
    sample_hypergraph,
    sample_latents,
)


@dataclass
class LabeledPairs:
    """Vertex pairs with link labels and (optionally) scores, kept in
    parallel order."""

    pairs: list[tuple[int, int]]
    labels: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.scores is not None:
            self.scores = np.asarray(self.scores, dtype=np.float64)
            if len(self.scores) != len(self.pairs):
                raise ValueError("scores and pairs lengths differ")
        if len(self.labels) != len(self.pairs):
            raise ValueError("labels and pairs lengths differ")
        u, v = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2).T
        selfs = np.flatnonzero(u == v)
        if len(selfs):
            raise ValueError(f"self-pair ({u[selfs[0]]}, {v[selfs[0]]}) is not allowed")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((hi, lo))
        dups = np.flatnonzero((np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0))
        if len(dups):
            i = order[dups[0]]
            raise ValueError(f"duplicate pair {(int(lo[i]), int(hi[i]))}")

    @property
    def n_pos(self) -> int:
        return int(self.labels.sum())

    @property
    def n_neg(self) -> int:
        return int(len(self.labels) - self.labels.sum())


@dataclass
class SplitSpec:
    """Train/test split parameters: train fraction ``rho``, hop limit for
    sampled non-links, negatives per positive (``None`` means use every
    non-link), and the split seed."""

    rho: float = 0.8
    d_hop: int = 2
    negative_ratio: float | None = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.rho < 1):
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.d_hop < 2:
            raise ValueError(f"d_hop must be >= 2, got {self.d_hop}")
        if self.negative_ratio is not None and self.negative_ratio <= 0:
            raise ValueError("negative_ratio must be positive or None")


def _cross_class_counts(scores, labels, weights=None) -> tuple[float, float, float, float]:
    """(#{s_pos > s_neg}, #{s_pos == s_neg}, P, N), each observation
    counted with its weight (default 1).

    Groups exactly equal scores in ascending order; every positive in a
    group beats all negatives in lower groups and ties with the negatives
    in its own group.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    w = np.ones(len(scores)) if weights is None else np.asarray(weights, dtype=np.float64)
    if not (scores.ndim == 1 and scores.shape == labels.shape == w.shape):
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    _, group = np.unique(scores, return_inverse=True)
    pos = np.bincount(group, weights=np.where(labels, w, 0.0))
    neg = np.bincount(group, weights=np.where(labels, 0.0, w))
    neg_below = np.concatenate(([0.0], np.cumsum(neg)[:-1]))
    return float(pos @ neg_below), float(pos @ neg), float(pos.sum()), float(neg.sum())


def auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Tie-aware AUC: probability a random positive outranks a random
    negative, ties counting one half."""
    greater, ties, n_pos, n_neg = _cross_class_counts(scores, labels)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"AUC needs both classes; got {n_pos:g} positives, {n_neg:g} negatives"
        )
    return (greater + 0.5 * ties) / (n_pos * n_neg)


def auc_conditional(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Strict AUC conditioned on non-tied cross-class comparisons."""
    greater, ties, n_pos, n_neg = _cross_class_counts(scores, labels)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"AUC needs both classes; got {n_pos:g} positives, {n_neg:g} negatives"
        )
    informative = n_pos * n_neg - ties
    if informative == 0:
        raise ValueError("all cross-class comparisons are ties")
    return greater / informative


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _pair_labels(g: SimpleGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each pair ``(u[i], v[i])`` is an edge of ``g``."""
    if len(u) == 0:
        return np.zeros(0, dtype=bool)
    return g.adjacency_csr()[u, v] > 0


def leave_one_out(g: SimpleGraph, scorer: str) -> LabeledPairs:
    """Score every vertex pair; edges are scored with that single edge
    removed, non-edges on the intact graph.

    All pairs are scored once on the intact graph, then edge scores are
    corrected in closed form (see the module docstring). SimRank has no
    closed form and takes one solve per edge on the graph without it.
    """
    if g.edge_count == 0:
        raise ValueError("leave-one-out needs at least one edge")
    iu, iv = np.triu_indices(g.n, k=1)
    if g.edge_count == len(iu):
        raise ValueError("leave-one-out needs at least one non-edge")
    labels = _pair_labels(g, iu, iv)
    scores = score_pairs(scorer, g, iu, iv)
    eu, ev = iu[labels], iv[labels]
    d = np.array([g.degree(w) for w in range(g.n)], dtype=np.float64)
    if scorer == "pa":
        scores[labels] = (d[eu] - 1) * (d[ev] - 1)
    elif scorer == "jc":
        cn = score_pairs("cn", g, eu, ev)
        union = d[eu] + d[ev] - cn - 2
        scores[labels] = np.divide(cn, union, out=np.zeros_like(cn), where=union > 0)
    elif scorer == "sr":
        scores[labels] = [
            simrank_matrix(g.without_edge(u, v))[u, v]
            for u, v in zip(eu.tolist(), ev.tolist())
        ]
    return LabeledPairs(pairs=list(zip(iu.tolist(), iv.tolist())), labels=labels, scores=scores)


def _sample_distance_limited_non_links(
    g_full: SimpleGraph,
    g_train: SimpleGraph,
    d_hop: int,
    wanted: int,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Uniform sample (without replacement) of distance-limited non-links.

    Candidates are the pairs u < v within ``d_hop`` train-graph hops, the
    upper triangle of the boolean ``A + A^2 + ... + A^d_hop``, minus the
    full graph's edges (which include every train edge, so distance 1
    drops out). In CSR row-major order with sorted columns they are
    enumerated by source, then target, and ``rng`` picks indices into
    that order. Memory is O(candidates): at n=5,000 with 139k edges,
    4.0M candidates peak at about 220 MB.
    """
    a = g_train.adjacency_csr().astype(bool)
    power = reach = a
    for _ in range(d_hop - 1):
        power = power @ a
        reach = reach + power
    cand = sp.triu(reach > g_full.adjacency_csr().astype(bool), k=1, format="csr")
    cand.sort_indices()
    total = cand.nnz
    if total < wanted:
        raise ValueError(
            f"only {total} non-links within {d_hop} hops; "
            f"need {wanted} (short by {wanted - total})"
        )
    chosen = np.sort(rng.choice(total, size=wanted, replace=False))
    rows = np.searchsorted(cand.indptr, chosen, side="right") - 1
    return list(zip(rows.tolist(), cand.indices[chosen].tolist()))


def split_evaluate(g: SimpleGraph, scorer: str, spec: SplitSpec) -> LabeledPairs:
    """Hold out a test fraction of edges, score held-out positives and
    sampled non-links on the train graph.

    Negatives are non-links of the original graph whose train-graph
    shortest-path distance falls in ``[2, d_hop]`` (with
    ``negative_ratio=None``, every non-link of the original graph is
    used instead). Deterministic for a fixed ``spec.seed``.
    """
    edges = sorted(g.edges())
    m = len(edges)
    n_test = math.ceil((1.0 - spec.rho) * m)
    if n_test == 0 or n_test == m:
        raise ValueError(
            f"split leaves an empty class: {m} edges, {n_test} test positives"
        )
    rng = np.random.default_rng(spec.seed)
    test_idx = rng.choice(m, size=n_test, replace=False)
    test_mask = np.zeros(m, dtype=bool)
    test_mask[test_idx] = True
    positives = [edges[i] for i in range(m) if test_mask[i]]
    train_edges = [edges[i] for i in range(m) if not test_mask[i]]
    g_train = SimpleGraph(g.n, train_edges)

    if spec.negative_ratio is None:
        negatives = list(g.non_edges())
    else:
        wanted = round(spec.negative_ratio * n_test)
        negatives = _sample_distance_limited_non_links(
            g, g_train, spec.d_hop, wanted, rng
        )
    if not negatives:
        raise ValueError("no negatives available for the split")

    pairs = positives + negatives
    labels = np.array([True] * len(positives) + [False] * len(negatives))
    u, v = np.array(pairs, dtype=np.int64).T
    return LabeledPairs(pairs=pairs, labels=labels, scores=score_pairs(scorer, g_train, u, v))


def model_auc(pot: PotentialIndex, phi: Sequence[float], g: SimpleGraph) -> float:
    """Tie-aware AUC of the exact link probabilities against the realized
    adjacency, over all vertex pairs.

    This is the ceiling any scorer can reach in expectation on graphs
    drawn from the candidate set. Degenerate inputs (a single class, or
    all cross-class comparisons tied) return 0.5: no ranking information
    either way.
    """
    prob = link_probability_map(pot, phi)
    iu, iv = np.triu_indices(g.n, k=1)
    labels = _pair_labels(g, iu, iv)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(iu):
        return 0.5
    rows, cols = np.array(list(prob), dtype=np.int64).reshape(-1, 2).T
    table = sp.csr_array((list(prob.values()), (rows, cols)), shape=(g.n, g.n))
    return auc(table[iu, iv], labels)


@dataclass
class ScanPoint:
    """One generator configuration for the overestimation scan."""

    n: int
    d: int
    percentiles: tuple[float, ...]
    phi: tuple[float, ...]

    def __post_init__(self):
        if len(self.percentiles) != len(self.phi):
            raise ValueError("percentiles and phi must have equal length")


@dataclass
class ScanRow:
    point: ScanPoint
    scorer: str
    seed: int
    model_auc: float | None = None
    heuristic_auc: float | None = None
    overestimated: bool | None = None
    error: str | None = None


def overestimation_scan(
    grid: Sequence[ScanPoint],
    scorers: Sequence[str],
    seed: int = 0,
    replicates: int = 1,
    max_potential: int | None = None,
) -> list[ScanRow]:
    """Compare heuristic leave-one-out AUC with the exact-probability AUC
    across generator configurations.

    Each grid point is drawn ``replicates`` times with derived seeds; rows
    where the heuristic exceeds the model ceiling are flagged. Failures
    (e.g. degenerate samples) are recorded per row and do not stop the
    scan.
    """
    cap = DEFAULT_MAX_POTENTIAL if max_potential is None else max_potential
    rows: list[ScanRow] = []
    seeder = np.random.default_rng(seed)
    for point in grid:
        rep_seeds = seeder.integers(0, 2**63 - 1, size=replicates)
        for rep_seed in rep_seeds:
            rep_seed = int(rep_seed)
            try:
                positions = sample_latents(point.n, point.d, rep_seed)
                radii = radii_from_percentiles(positions, point.percentiles)
                pot = build_potential(positions, radii, max_potential=cap)
                h = sample_hypergraph(pot, point.phi, rep_seed)
                g = clique_expand(h)
                truth = model_auc(pot, point.phi, g)
            except Exception as exc:
                for scorer in scorers:
                    rows.append(
                        ScanRow(point=point, scorer=scorer, seed=rep_seed, error=str(exc))
                    )
                continue
            for scorer in scorers:
                row = ScanRow(point=point, scorer=scorer, seed=rep_seed, model_auc=truth)
                try:
                    lp = leave_one_out(g, scorer)
                    row.heuristic_auc = auc(lp.scores, lp.labels)
                    row.overestimated = row.heuristic_auc > truth
                except Exception as exc:
                    row.error = str(exc)
                rows.append(row)
    return rows
