"""Size-preserving hyperedge relocation and the adjusted AUC report.

Relocation replaces every hyperedge with a uniformly random vertex subset
of the same size, keeping the hyperedge-size multiset exactly (collisions
with existing hyperedges are kept rather than merged, for the same
reason). On such a randomized hypergraph no scorer should beat 0.5, so
the AUC measured there, divided by 0.5, is an adjustment factor; dividing
the original AUC by it restates the score against the structural
baseline the hyperedges alone induce.

The relocation stream is numpy's: hyperedge by hyperedge, ``relocate``
returns what ``Generator.choice(n, k, replace=False)`` returns on the
seed's stream, through either of its branches (Floyd's algorithm, or a
tail shuffle of ``arange(n)`` for large k), but computed in arrays. The
test suite holds it to the per-hyperedge ``rng.choice`` loop.

The adjustment factor is deliberately not clamped at 1: a scorer can
score below 0.5 on relocated input, and that information belongs in the
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .evaluation import SplitSpec, _scorer_ids, evaluate_protocol
from .hypergraph import Hypergraph, clique_expand
from .latent import ResourceLimitError, spawn_seeds


def relocate(h: Hypergraph, seed: int) -> Hypergraph:
    """Replace every hyperedge with a uniform random same-size subset of
    the vertex set. Deterministic for a fixed seed.

    Hyperedge by hyperedge, the vertices are those, in that order, of
    ``np.random.default_rng(seed).choice(h.n, k, replace=False)`` called
    once per hyperedge: Floyd's algorithm followed by a shuffle of its
    ``k`` picks, or, for ``h.n > 10,000`` and ``k > h.n // 50``, the tail
    of a partial shuffle of ``arange(h.n)``. The bounded integers those
    calls draw (Lemire's method, numpy's ``random_bounded_uint64``) come
    from one ``Generator.integers`` call over an array of bounds, which
    draws them in the same order; each size class is then one array.
    """
    n, sizes = h.n, h.sizes
    over = np.flatnonzero(sizes > n)
    if len(over):
        raise ValueError(f"hyperedge of size {sizes[over[0]]} cannot fit in {n} vertices")
    classes, size_class = np.unique(sizes, return_inverse=True)
    plans = [_choice_bounds(n, int(k)) for k in classes]
    counts = np.array([len(p) for p in plans], dtype=np.int64)[size_class]
    starts = np.cumsum(counts) - counts
    bounds = np.zeros(int(counts.sum()), dtype=np.uint64)
    slots = []  # per class: hyperedge ids, (m_k, draws) positions in bounds
    for c, plan in enumerate(plans):
        edges = np.flatnonzero(size_class == c)
        at = starts[edges, None] + np.arange(len(plan))
        bounds[at] = plan
        slots.append((edges, at))
    # a bound of 0 (k == n) draws nothing, as in choice
    values = np.random.default_rng(seed).integers(0, bounds, endpoint=True, dtype=np.uint64)
    members = np.empty(len(h.members), dtype=np.int64)
    for k, (edges, at) in zip(classes.tolist(), slots):
        if _shuffles_tail(n, k):
            picked = [_tail_of_shuffle(n, k, v) for v in values[at].tolist()]
        else:
            picked = _floyd(n, k, values[at].astype(np.int64))
        members[h.indptr[edges, None] + np.arange(k)] = picked
    return Hypergraph.from_arrays(n, sizes, members)


def _shuffles_tail(n: int, k: int) -> bool:
    """Whether ``choice(n, k, replace=False)`` shuffles the tail of
    ``arange(n)`` instead of running Floyd's algorithm."""
    return n > 10_000 and k > n // 50


def _choice_bounds(n: int, k: int) -> list[int]:
    """Inclusive upper bounds of the integers ``choice(n, k,
    replace=False)`` draws, in draw order."""
    if _shuffles_tail(n, k):
        return list(range(n - 1, max(n - k, 1) - 1, -1))
    return list(range(n - k, n)) + list(range(k - 1, 0, -1))  # Floyd, then its shuffle


def _floyd(n: int, k: int, values: np.ndarray) -> np.ndarray:
    """Each row of ``values`` (its :func:`_choice_bounds` draws) as the
    k vertices ``choice`` returns on the Floyd branch: column c keeps its
    draw unless an earlier column holds it, else takes ``n - k + c``;
    then the shuffle draws swap the columns."""
    picked = values[:, :k].copy()
    for c in range(1, k):
        seen = (picked[:, :c] == picked[:, c, None]).any(axis=1)
        picked[seen, c] = n - k + c
    rows = np.arange(len(picked))
    for i, j in zip(range(k - 1, 0, -1), values[:, k:].T):
        picked[rows, i], picked[rows, j] = picked[rows, j], picked[rows, i]
    return picked


def _tail_of_shuffle(n: int, k: int, values: list[int]) -> list[int]:
    """The last k slots of ``arange(n)`` after swapping slot i with slot
    ``values[n - 1 - i]`` for i from n - 1 down: only swapped slots are
    stored, so this takes O(k), not O(n)."""
    slot: dict[int, int] = {}
    for i, j in zip(range(n - 1, 0, -1), values):
        slot[i], slot[j] = slot.get(j, j), slot.get(i, i)
    return [slot.get(i, i) for i in range(n - k, n)]


@dataclass
class AdjustmentReport:
    """Raw AUC, relocated-run AUCs, and the derived adjustment.

    Identities maintained exactly: ``af == auc_rel_mean / 0.5`` and
    ``auc_adjusted == auc_original / af``. ``n_pos``, ``n_neg`` and
    ``auc_conditional`` describe the original evaluation (0, 0 and None
    when the report is assembled from bare AUCs).
    """

    auc_original: float
    auc_rel_runs: list[float]
    auc_rel_mean: float
    auc_rel_std: float
    af: float
    auc_adjusted: float
    n_runs: int
    seeds: list[int]
    failures: list[str] = field(default_factory=list)
    n_pos: int = 0
    n_neg: int = 0
    auc_conditional: float | None = None


def adjusted_auc(
    h: Hypergraph,
    scorers: Sequence[str],
    protocol: str | SplitSpec = "loo",
    n_runs: int = 5,
    seed: int = 0,
) -> dict[str, AdjustmentReport | Exception]:
    """Evaluate every scorer on the hypergraph's expansion, then on
    ``n_runs`` independent relocations, and assemble each scorer's
    adjusted score.

    Each graph gets one pair set, scored by every scorer and counted
    (see :func:`~hyperlp.evaluation.evaluate_protocol`); the same
    protocol, split seed included, is applied to every graph, so only the
    relocation varies between runs. Failed runs are recorded per scorer
    and skipped. A scorer whose original evaluation fails, or whose every
    run fails, gets the exception in its slot instead of a report, as
    does a scorer that exceeds a resource limit on any run. Every run
    failing is a ``ValueError`` when each run's error was one (the data,
    such as relocations with no non-edge), else a ``RuntimeError``.
    """
    scorers = _scorer_ids(scorers)
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    outcome = evaluate_protocol(clique_expand(h), scorers, protocol)
    # per scorer still running: AUCs, kept seeds, failures (message, is a
    # ValueError); a kept exception's traceback would hold the run's arrays
    runs = {s: ([], [], []) for s in scorers if not isinstance(outcome[s], Exception)}
    for run_seed in spawn_seeds(seed, n_runs):
        if not runs:
            break
        try:
            results = evaluate_protocol(clique_expand(relocate(h, run_seed)), list(runs), protocol)
        except Exception as exc:
            results = dict.fromkeys(runs, exc)
        for scorer, count in results.items():
            rel_aucs, kept_seeds, failures = runs[scorer]
            if isinstance(count, ResourceLimitError):  # runs no further
                outcome[scorer] = count
                del runs[scorer]
            elif isinstance(count, Exception):
                failures.append((f"seed {run_seed}: {count}", isinstance(count, ValueError)))
            else:
                rel_aucs.append(count.auc)
                kept_seeds.append(run_seed)

    for scorer, (rel_aucs, kept_seeds, failures) in runs.items():
        count = outcome[scorer]
        failed = [message for message, _ in failures]
        if not rel_aucs:
            error = ValueError if all(data for _, data in failures) else RuntimeError
            outcome[scorer] = error("every relocation run failed: " + "; ".join(failed))
            continue
        report = assemble_report(count.auc, rel_aucs, kept_seeds, failed)
        outcome[scorer] = replace(
            report, n_pos=count.n_pos, n_neg=count.n_neg, auc_conditional=count.auc_conditional
        )
    return outcome


def assemble_report(
    auc_original: float,
    rel_aucs: list[float],
    seeds: list[int],
    failures: list[str] | None = None,
) -> AdjustmentReport:
    """Fold relocated-run AUCs into the adjustment identities.

    The factor divides the mean relocated AUC by the 0.5 chance baseline;
    per-run factors are never averaged.
    """
    if not rel_aucs:
        raise ValueError("need at least one relocated AUC")
    rel_mean = float(np.mean(rel_aucs))
    rel_std = float(np.std(rel_aucs, ddof=1)) if len(rel_aucs) > 1 else 0.0
    af = rel_mean / 0.5
    adjusted = auc_original / af if af != 0 else float("inf")
    return AdjustmentReport(
        auc_original=auc_original,
        auc_rel_runs=list(rel_aucs),
        auc_rel_mean=rel_mean,
        auc_rel_std=rel_std,
        af=af,
        auc_adjusted=adjusted,
        n_runs=len(rel_aucs),
        seeds=list(seeds),
        failures=list(failures or []),
    )


def performance_reversal_check(
    reports: dict[str, AdjustmentReport],
) -> list[tuple[str, str]]:
    """Scorer pairs whose raw-AUC ordering flips under adjustment.

    Only strict flips count: both the raw and the adjusted differences
    must be nonzero and of opposite sign.
    """
    flips = []
    for a, b in combinations(sorted(reports), 2):
        raw = reports[a].auc_original - reports[b].auc_original
        adj = reports[a].auc_adjusted - reports[b].auc_adjusted
        if raw != 0 and adj != 0 and (raw > 0) != (adj > 0):
            flips.append((a, b))
    return flips
