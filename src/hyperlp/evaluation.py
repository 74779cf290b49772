"""Evaluation protocols and tie-aware AUC.

Two AUC variants are exposed. ``auc`` is the Mann-Whitney statistic with
ties counted one half:

    auc = (#{s_pos > s_neg} + 0.5 * #{s_pos == s_neg}) / (P * N)

``auc_conditional`` is the strict variant conditioned on non-tied
comparisons, ``#{s_pos > s_neg} / #{s_pos != s_neg}``. Only the half-tie
convention reproduces the hand-computable toy value 0.875 on the
five-vertex two-hyperedge example; the strict variant is what the ideal
ranking analysis uses, so both are reported throughout.

Both read one :class:`AucCount`, counted by one sort of the negatives
(``_cross_class_counts``): ``searchsorted`` finds where each positive's
lower and tied negatives end, and those positions are the counts.

Protocols: leave-one-out scores every existing edge on the graph with
that one edge removed (non-edges are scored on the intact graph) and
covers all vertex pairs; a split (:class:`SplitSpec`) removes a test
fraction of edges, trains on the rest, and samples distance-limited
non-links as negatives. :func:`protocol_scores` builds a graph's pair
set, labels and scoring graph once and scores them with every scorer in
one :func:`~hyperlp.heuristics.score_pairs_many` call (one shared pass
for CN, AA, RA and JC); :func:`evaluate_protocol` counts each scorer's
scores as an :class:`AucCount`.

A sampled split's pairs are one int (m, 2) array with a labels array;
neither is built pair by pair. The leave-one-out set is every pair u < v
in ``np.triu_indices(n, 1)`` order (the condensed order), so it is only
a labels array: the edges' condensed keys scattered once
(:func:`~hyperlp.heuristics.condensed`). It needs no per-edge graph
copy: removing edge {u, v} changes no common neighbor of u and v and no
degree of one, so CN, AA and RA keep their intact-graph value, PA
becomes ``(d_u - 1)(d_v - 1)`` and JC's union shrinks by 2. SimRank
solves once per edge, from the intact column-normalized adjacency ``W``
with the two columns of the edge's endpoints replaced
(:func:`~hyperlp.heuristics.simrank_without_each_edge`). Sampled
negatives are the pairs within ``d_hop`` train-graph hops minus the full
graph's edges, read from :func:`~hyperlp.hypergraph.reach_keys`, which
marks them from packed rows where the train graph packs. The scorers
intersect the rows of each pair's endpoints, packed where the train
graph packs and merged as neighbor lists otherwise, so scoring a sampled
split makes no wedge pass. With every non-link as a negative, a split is
scored like leave-one-out: every pair of the train graph in one wedge
pass, labeled by a condensed class array (1 held-out edge, 0 non-edge of
the full graph, -1 train edge, left out of the count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import ModelConfig, resolve_model
from .heuristics import _unwrap, condensed, score_pairs_many, simrank_without_each_edge
from .hypergraph import SimpleGraph, clique_expand, condensed_pairs, reach_keys
from .latent import PotentialIndex, link_probability_map, sample_hypergraph, spawn_seeds


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
        """Refuse a bad value by its field's name (``ValueError``)."""
        ratio = self.negative_ratio
        for key, value, ok, rule in (
            ("rho", self.rho, 0 < self.rho < 1, "in (0, 1)"),
            ("d_hop", self.d_hop, self.d_hop >= 2, ">= 2"),
            ("negative_ratio", ratio, ratio is None or 0 < ratio < math.inf, "finite and > 0"),
            ("seed", self.seed, self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {value}")


def _cross_class_counts(scores, labels, weights=None) -> tuple[float, float, float, float]:
    """(#{s_pos > s_neg}, #{s_pos == s_neg}, P, N), each observation
    counted with its weight (default 1). Labels 1 (True) and 0 (False)
    are the classes; any other label (-1) is left out.

    Sorts the negatives; ``searchsorted`` (``left`` and ``right``) finds
    where each positive's lower and equal negatives end. Unweighted, those
    positions are the counts, as ints. Weighted, each run of equal
    negatives (in a stable ``argsort``) is summed once and a ``cumsum``
    over the runs gives the weight below each; no count is a difference.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    w = labels if weights is None else np.asarray(weights, dtype=np.float64)
    if not (scores.ndim == 1 and scores.shape == labels.shape == w.shape):
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    is_pos, is_neg = labels == 1, labels == 0
    neg, pos = scores[is_neg], scores[is_pos]
    if weights is None:
        neg.sort()
        pos.sort()  # ascending keys keep the binary searches cache-friendly
        lo, hi = (np.searchsorted(neg, pos, side=side) for side in ("left", "right"))
        return int(lo.sum()), int((hi - lo).sum()), len(pos), len(neg)
    order = np.argsort(neg, kind="stable")
    neg, w_neg, w_pos = neg[order], w[is_neg][order], w[is_pos]
    starts = np.flatnonzero(np.searchsorted(neg, neg) == np.arange(len(neg)))  # runs
    run = np.add.reduceat(w_neg, starts) if len(neg) else w_neg
    below = np.concatenate(([0.0], np.cumsum(run)))
    lo, hi = (np.searchsorted(neg[starts], pos, side=side) for side in ("left", "right"))
    tied = np.append(run, 0.0)[lo] * (hi > lo)
    return float(w_pos @ below[lo]), float(w_pos @ tied), float(w_pos.sum()), float(below[-1])


@dataclass(frozen=True)
class AucCount:
    """The Mann-Whitney count of one scored pair set (Hanley & McNeil,
    Radiology 1982): positives scored above a negative, cross-class ties,
    and the two class sizes. Both AUC variants are reads of it."""

    greater: int
    ties: int
    n_pos: int
    n_neg: int

    def __post_init__(self):
        if self.n_pos == 0 or self.n_neg == 0:
            raise ValueError(
                f"AUC needs both classes; got {self.n_pos:g} positives, {self.n_neg:g} negatives"
            )

    @classmethod
    def of(cls, scores: Sequence[float], labels: Sequence[bool]) -> AucCount:
        """Count ``scores`` against ``labels`` (see :func:`_cross_class_counts`)."""
        return cls(*_cross_class_counts(scores, labels))

    @property
    def auc(self) -> float:
        """Tie-aware AUC, ties counting one half."""
        return (self.greater + 0.5 * self.ties) / (self.n_pos * self.n_neg)

    @property
    def auc_conditional(self) -> float | None:
        """Strict AUC over the non-tied comparisons; None when every
        cross-class comparison ties."""
        informative = self.n_pos * self.n_neg - self.ties
        return self.greater / informative if informative else None


def auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Tie-aware AUC: probability a random positive outranks a random
    negative, ties counting one half."""
    return AucCount.of(scores, labels).auc


def auc_conditional(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Strict AUC conditioned on non-tied cross-class comparisons."""
    conditional = AucCount.of(scores, labels).auc_conditional
    if conditional is None:
        raise ValueError("all cross-class comparisons are ties")
    return conditional


def _pair_labels(g: SimpleGraph) -> np.ndarray:
    """Whether each pair u < v, in ``np.triu_indices(g.n, 1)`` order, is
    an edge of ``g``."""
    return condensed(g.n, g.edge_keys(), True)


def _scorer_ids(scorers: Sequence[str]) -> list[str]:
    if isinstance(scorers, str):  # "cn" would read as the scorers "c" and "n"
        raise TypeError(f"scorers must be a sequence of ids such as [{scorers!r}]")
    return list(dict.fromkeys(scorers))


def _loo_pair_set(g: SimpleGraph):
    """Every vertex pair, in condensed order (no pair array), labeled by
    adjacency and scored on ``g``."""
    if g.edge_count == 0:
        raise ValueError("leave-one-out needs at least one edge")
    if g.edge_count == g.n * (g.n - 1) // 2:
        raise ValueError("leave-one-out needs at least one non-edge")
    return g, None, _pair_labels(g)


def _sample_distance_limited_non_links(
    g_full: SimpleGraph,
    g_train: SimpleGraph,
    d_hop: int,
    wanted: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform sample (without replacement) of distance-limited non-links,
    as rows ``(u, v)``, u < v.

    Candidates are the pairs within ``d_hop`` train-graph hops minus the
    full graph's edges (so distance 1 drops out), as ascending condensed
    keys (:func:`~hyperlp.hypergraph.reach_keys`), into which ``rng``
    picks indices. At n=5,000 a 112k-edge train graph (139k full) has
    5.3M wedges and packs; the draw peaks at 44 MB (``tracemalloc``) for
    the 4.0M candidates at ``d_hop=2``, and at 108 MB, mostly the 12.4M
    candidate keys, at ``d_hop=3``.
    """
    cand = reach_keys(g_train, d_hop, g_full.edge_keys())
    total = len(cand)
    if total < wanted:
        raise ValueError(
            f"only {total} non-links within {d_hop} hops; "
            f"need {wanted} (short by {wanted - total})"
        )
    chosen = np.sort(rng.choice(total, size=wanted, replace=False))
    return condensed_pairs(g_train.n, cand[chosen])


def _split_pair_set(g: SimpleGraph, spec: SplitSpec):
    """Held-out edges and sampled non-links, scored on the train graph;
    with ``negative_ratio=None``, the class of every pair (see above)."""
    edges = g.edge_array()
    m = len(edges)
    n_test = math.ceil((1.0 - spec.rho) * m)
    if n_test == 0 or n_test == m:
        raise ValueError(
            f"split leaves an empty class: {m} edges, {n_test} test positives"
        )
    wanted = None if spec.negative_ratio is None else round(spec.negative_ratio * n_test)
    if wanted == 0:
        raise ValueError(
            f"negative_ratio {spec.negative_ratio} of {n_test} test positives rounds to 0 negatives"
        )
    rng = np.random.default_rng(spec.seed)
    test = np.zeros(m, dtype=bool)
    test[rng.choice(m, size=n_test, replace=False)] = True
    g_train = SimpleGraph(g.n, edges[~test])
    if spec.negative_ratio is None:  # every pair, classed in condensed order
        if m == g.n * (g.n - 1) // 2:
            raise ValueError("no negatives available for the split")
        classes = np.where(test, np.int8(1), np.int8(-1))  # of the edges
        return g_train, None, condensed(g.n, g.edge_keys(), classes)
    negatives = _sample_distance_limited_non_links(g, g_train, spec.d_hop, wanted, rng)
    pairs = np.concatenate([edges[test], negatives])
    return g_train, pairs, np.arange(len(pairs)) < n_test


def protocol_scores(
    g: SimpleGraph, scorers: Sequence[str], protocol: str | SplitSpec
) -> tuple[np.ndarray | None, np.ndarray | None, dict[str, np.ndarray | Exception]]:
    """The (m, 2) pairs of one pair set of ``g`` under ``protocol``
    (``"loo"`` or a :class:`SplitSpec`), their labels, and every scorer's
    scores of them. The pairs are None for every u < v in condensed order
    (leave-one-out, and a split with every non-link as a negative; see
    :func:`~hyperlp.hypergraph.condensed_pairs`), and the labels are
    ``bool``, or that split's class array (-1: a train edge, not counted).

    The wedge scorers share one pass over the scoring graph. A scorer
    that raises gets its exception in its own slot, and an error in the
    shared pass goes to every wedge scorer; when the pair set cannot be
    built (no non-edge, too few negatives), its exception fills every
    slot.
    """
    scorers = _scorer_ids(scorers)
    loo = protocol == "loo"
    if not (loo or isinstance(protocol, SplitSpec)):
        raise ValueError(f"unknown protocol {protocol!r}; use 'loo' or a SplitSpec")
    try:
        scored_on, pairs, labels = _loo_pair_set(g) if loo else _split_pair_set(g, protocol)
    except Exception as exc:
        return None, None, dict.fromkeys(scorers, exc)
    out: dict[str, np.ndarray | Exception] = {}
    if loo:
        edges = g.edge_array().T  # in label order: ascending condensed keys
        d = g.degrees()[edges] - 1.0  # endpoint degrees without the edge
        if "sr" in scorers:  # edges first, for the SimRank budget
            try:
                sr_edges = simrank_without_each_edge(g, *edges)
            except Exception as exc:
                out["sr"] = exc
    live = [s for s in scorers if s not in out]
    # leave-one-out scores every pair in condensed order; its JC edges read CN
    extra = ["cn"] if loo and "jc" in live else []
    uv = () if pairs is None else pairs.T
    results = score_pairs_many(live + extra, scored_on, *uv)
    for scorer in live:
        try:
            scores = _unwrap(results[scorer])
            if loo and scorer == "sr":
                scores[labels] = sr_edges
            elif loo and scorer == "pa":  # CN, AA and RA keep their intact value
                scores[labels] = d[0] * d[1]
            elif loo and scorer == "jc":
                cn = _unwrap(results["cn"])[labels]
                union = d[0] + d[1] - cn
                scores[labels] = np.divide(cn, union, out=np.zeros_like(cn), where=union > 0)
            out[scorer] = scores
        except Exception as exc:  # isolated per-scorer failure
            out[scorer] = exc
    return pairs, labels, {s: out[s] for s in scorers}


def evaluate_protocol(
    g: SimpleGraph, scorers: Sequence[str], protocol: str | SplitSpec = "loo"
) -> dict[str, AucCount | Exception]:
    """The :class:`AucCount` of every scorer on one pair set of ``g``,
    built once under ``protocol`` (``"loo"`` or a :class:`SplitSpec`);
    a failed scorer's slot holds its exception (see
    :func:`protocol_scores`). Each score array is dropped once counted.
    """
    _, labels, results = protocol_scores(g, scorers, protocol)
    for scorer, scores in results.items():
        if not isinstance(scores, Exception):
            results[scorer] = AucCount.of(scores, labels)
    return results


def leave_one_out(g: SimpleGraph, scorer: str):
    # goes when ROADMAP item 1 drops it from perfbench/tracing.py's TARGETS
    return protocol_scores(g, [scorer], "loo")


def split_evaluate(g: SimpleGraph, scorer: str, spec: SplitSpec):
    # goes when ROADMAP item 1 drops it from perfbench/tracing.py's TARGETS
    return protocol_scores(g, [scorer], spec)


def model_auc(pot: PotentialIndex, phi: Sequence[float], g: SimpleGraph) -> float:
    """Tie-aware AUC of the exact link probabilities against the realized
    adjacency, over all vertex pairs.

    This is the ceiling any scorer can reach in expectation on graphs
    drawn from the candidate set. Degenerate inputs (a single class, or
    all cross-class comparisons tied) return 0.5: no ranking information
    either way.
    """
    if g.n != pot.n:
        raise ValueError(f"graph has {g.n} vertices; the candidate index has {pot.n}")
    return _ceiling_auc(link_probability_map(pot, phi), _pair_labels(g))


def _ceiling_auc(prob: np.ndarray, labels: np.ndarray) -> float:
    """:func:`auc` of the link probabilities ``prob`` against ``labels``;
    0.5 when one class is empty."""
    if labels.all() or not labels.any():
        return 0.5
    return auc(prob, labels)


@dataclass
class ScanRow:
    """One scorer on one scan replicate, whose config ``point`` has its
    seed and its resolved phi (the preset if the model failed first)."""

    point: ModelConfig
    scorer: str
    seed: int
    model_auc: float | None = None
    heuristic_auc: float | None = None
    overestimated: bool | None = None
    error: str | None = None


def overestimation_scan(cfg: ModelConfig, scorers: Sequence[str]) -> list[ScanRow]:
    """Compare heuristic leave-one-out AUC with the exact-probability AUC
    across the grid points of ``cfg`` (:meth:`~hyperlp.config.ModelConfig.points`).

    Each point is drawn ``cfg.replicates`` times, with its run of seeds
    from one :func:`~hyperlp.latent.spawn_seeds` draw of ``cfg.seed`` for
    the grid; each replicate resolves its model as ``generate`` does
    (:func:`~hyperlp.config.resolve_model`). Rows where the heuristic
    exceeds the model ceiling are flagged. Failures (e.g. the candidate
    cap, degenerate samples) are recorded per row and do not stop the
    scan.
    """
    points = cfg.points()
    rows: list[ScanRow] = []
    for at, rep_seed in enumerate(spawn_seeds(cfg.seed, len(points) * cfg.replicates)):
        point = replace(points[at // cfg.replicates], seed=rep_seed)
        try:
            _, pot, phi, _ = resolve_model(point, rep_seed)
            point.phi = tuple(phi.tolist())
            g = clique_expand(sample_hypergraph(pot, phi, rep_seed))
            truth = model_auc(pot, phi, g)
            results = evaluate_protocol(g, scorers, "loo")
        except Exception as exc:
            truth, results = None, dict.fromkeys(scorers, exc)
        for scorer in scorers:
            row = ScanRow(point=point, scorer=scorer, seed=rep_seed, model_auc=truth)
            try:
                row.heuristic_auc = _unwrap(results[scorer]).auc
                row.overestimated = row.heuristic_auc > truth
            except Exception as exc:
                row.error = str(exc)
            rows.append(row)
    return rows
