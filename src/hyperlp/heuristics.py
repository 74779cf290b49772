"""Neighborhood-based link scorers.

Six classical scorers are exposed under short string ids:

==========  =============================  ==========================================
id          name                           score for a pair (u, v)
==========  =============================  ==========================================
``cn``      common neighbors               ``|N(u) & N(v)|``
``aa``      Adamic/Adar                    ``sum(1 / log(1 + deg(w)))`` over common w
``ra``      resource allocation            ``sum(1 / deg(w))`` over common w
``pa``      preferential attachment        ``deg(u) * deg(v)``
``jc``      Jaccard coefficient            ``|N(u) & N(v)| / |N(u) | N(v)|``
``sr``      SimRank                        fixed point of the pairwise recursion
==========  =============================  ==========================================

Adamic/Adar uses the natural log of ``1 + deg``, which keeps degree-1
common neighbors finite (they cannot occur anyway: a common neighbor has
degree >= 2, asserted in the tests).

Scores are raw, not normalized; rank-based evaluation downstream makes
monotone rescaling irrelevant.

:func:`score_pairs_many` scores a whole pair set at once with several
scorers, on numpy alone; :func:`score_pairs` is its one-scorer case.
CN, AA and RA add up terms 1, ``1/log(1+d_w)`` and ``1/d_w`` per pair
over its common neighbors w (Lü & Zhou, Physica A 2011; Zhou, Lü &
Zhang, EPJ B 2009): over the wedges, the neighbor pairs of each centre
w, for every pair, and over the intersected endpoint rows for explicit
pairs (:func:`~hyperlp.hypergraph.common_neighbor_hits`), with the same
terms in the same order. One pass serves all three and JC, which is
``CN / (d_u + d_v - CN)``. PA is ``d_u * d_v`` and SR indexes one
:func:`simrank_matrix`. Each pair's AA and RA terms are added in
ascending order, so the sum depends only on the multiset of
common-neighbor degrees, not on vertex labels (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002, ch. 4).
:func:`score` is the one-pair case of :func:`score_pairs`, so the two
agree bit for bit; the per-pair set formulas of the table above are
kept only as test oracles.

Leave-one-out SimRank (:func:`simrank_without_each_edge`) never copies
the graph: removing edge {a, b} changes only columns a and b of the
column-normalized adjacency ``W``, so each edge's solve starts from the
intact ``W`` with those two columns replaced, and runs the same
iteration as :func:`simrank_matrix`. The iteration runs on a stack of
such ``W``: one 3-D ``matmul`` makes the per-slice products a lone solve
makes, and each elementwise step runs once for the stack. Each edge stops
at its own converged iterate, so the scores do not depend on the stack.
At n = 60 the two products of an iteration take about 20 µs and the five
elementwise steps about 11 µs, and the interpreter lock is held between
them. Stacks of 16 edges cut that share, and when n^3 <= 2^18, the size
up to which OpenBLAS runs a product on the calling thread, the stacks run
on a thread per core. Above that size BLAS threads each product itself,
so the edges are solved one at a time, which also keeps each solve in
cache.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .hypergraph import SimpleGraph, _invalid_pairs, common_neighbor_hits
from .latent import ResourceLimitError

SCORER_IDS: tuple[str, ...] = ("cn", "aa", "pa", "jc", "ra", "sr")

SIMRANK_DECAY = 0.8
SIMRANK_TOL = 1e-4
SIMRANK_MAX_ITER = 100
# Cap on |E| * n^3 for leave-one-out SimRank, one dense solve per edge.
# On a 2-vCPU Xeon host a unit costs 1.7e-9 to 3.3e-9 s below the thread
# gate (n = 60, two threads) and 1.7e-9 to 2.7e-9 s above it (n = 100 to
# 200). As |E| < n^2 / 2, only n > 116 can reach the cap, which then
# stands for about 17 to 27 s.
SIMRANK_LOO_BUDGET = 10**10
# Edges per stack below the thread gate: 8 and 16 measured alike at n = 60,
# 4 and 32 slower
_SIMRANK_BATCH = 16
# The thread gate: OpenBLAS runs a product of at most this many
# multiply-adds on the calling thread
_BLAS_SERIAL_WORK = 1 << 18


class SimRankConvergenceError(RuntimeError):
    """Raised when the SimRank iteration has not met tolerance at the
    iteration cap."""


def _transition(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-normalized ``W`` of the dense adjacency ``a``, zero in the
    columns of isolated vertices, and the degrees."""
    deg = a.sum(axis=0)
    return np.divide(a, deg, out=np.zeros_like(a), where=deg > 0), deg


def _simrank_iterate(w: np.ndarray, decay: float, tol: float, max_iter: int) -> np.ndarray:
    """SimRank tables for a stack of column-normalized ``w``, shape
    (B, n, n): see :func:`simrank_matrix`.

    One 3-D ``matmul`` makes the same per-slice products as a 2-D one, and
    each elementwise step runs once over the stack. A slice keeps the
    iterate at which its own delta fell below ``tol`` and leaves the
    stack, so each table equals its lone solve bit for bit. Raises for
    the first slice in stack order still short of ``tol`` at ``max_iter``.
    """
    n = w.shape[-1]
    out = np.empty_like(w)
    live = list(range(len(w)))
    s = np.zeros_like(w)
    s.reshape(len(w), -1)[:, :: n + 1] = 1.0  # the identity in every slice
    nxt, tmp = np.empty_like(s), np.empty_like(s)
    wt = w.transpose(0, 2, 1)
    for _ in range(max_iter):
        np.matmul(np.matmul(wt, s, out=tmp), w, out=nxt)
        np.multiply(decay, nxt, out=nxt)
        nxt.reshape(len(live), -1)[:, :: n + 1] = 1.0  # the diagonals
        diff = np.abs(np.subtract(nxt, s, out=tmp), out=tmp)
        deltas = diff.max(axis=(1, 2), initial=0.0).tolist()
        s, nxt = nxt, s
        if min(deltas) < tol:  # freeze the converged slices and drop them
            keep = []
            for i, d in enumerate(deltas):
                if d < tol:
                    out[live[i]] = s[i]
                else:
                    keep.append(i)
            if not keep:
                return out
            live, w, s = [live[i] for i in keep], w[keep], s[keep]
            wt, nxt, tmp = w.transpose(0, 2, 1), np.empty_like(s), np.empty_like(s)
    last = next(d for d in deltas if not d < tol)  # the first slice still short
    raise SimRankConvergenceError(
        f"SimRank not within {tol} after {max_iter} iterations (last delta {last:.3g})"
    )


def simrank_matrix(
    g: SimpleGraph,
    decay: float = SIMRANK_DECAY,
    tol: float = SIMRANK_TOL,
    max_iter: int = SIMRANK_MAX_ITER,
) -> np.ndarray:
    """Full n-by-n SimRank similarity table (Jeh & Widom, KDD 2002).

    Iterates ``S <- decay * W.T S W`` with the diagonal pinned to 1, where
    ``W`` is the column-normalized adjacency matrix, starting from the
    identity (all off-diagonal similarity zero). Stops when successive
    iterates differ by less than ``tol`` in max-norm.

    Error bound: ``W`` is column-substochastic, so the pinned map is a
    ``decay``-contraction in max-norm, and the returned iterate lies
    within ``tol * decay / (1 - decay)`` of the fixed point entrywise
    (4e-4 at the defaults).
    """
    return _simrank_iterate(_transition(g.adjacency_matrix())[0][None], decay, tol, max_iter)[0]


def simrank_without_each_edge(
    g: SimpleGraph,
    u: ArrayLike,
    v: ArrayLike,
    decay: float = SIMRANK_DECAY,
    tol: float = SIMRANK_TOL,
    max_iter: int = SIMRANK_MAX_ITER,
) -> np.ndarray:
    """SimRank of each edge ``(u[i], v[i])`` on ``g`` without that edge,
    equal bit for bit to ``simrank_matrix(g.without_edge(a, b))[a, b]``
    for a < b, which either orientation reads.

    The intact ``A``, degrees and ``W`` are built once. Removing {a, b}
    changes only columns a and b of ``W``: column x becomes
    ``(A[:, x] - e_y) / (d_x - 1)``, or zero where that degree is 0.
    When ``n**3 <= 2**18`` the edges are solved in stacks of 16, one
    thread per core (``os.sched_getaffinity``); above it one at a time on
    the calling thread, while BLAS threads each product.

    Raises :class:`~hyperlp.latent.ResourceLimitError` before any solve if
    ``len(u) * n**3`` exceeds ``SIMRANK_LOO_BUDGET``, and ``ValueError`` if
    a pair is not an edge; the first edge, in order, that does not
    converge raises :class:`SimRankConvergenceError`.
    """
    work = len(u) * g.n**3
    if work > SIMRANK_LOO_BUDGET:
        raise ResourceLimitError(
            f"leave-one-out SimRank needs {len(u)} solves on n={g.n} vertices: "
            f"|E|*n^3 = {work:.3g} exceeds the cap of {SIMRANK_LOO_BUDGET:.3g}"
        )
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    a = g.adjacency_matrix()
    w, deg = _transition(a)
    missing = np.flatnonzero(a[u, v] == 0)
    if len(missing):
        raise ValueError(f"({u[missing[0]]}, {v[missing[0]]}) is not an edge")

    # below the gate stacks share each elementwise step and run on every
    # core; above it BLAS threads each product, and a stack would spill
    # out of cache
    small = g.n**3 <= _BLAS_SERIAL_WORK
    batch = _SIMRANK_BATCH if small else 1
    chunks = [slice(lo, lo + batch) for lo in range(0, len(u), batch)]

    def solve(chunk: slice) -> np.ndarray:
        x, y = u[chunk], v[chunk]
        ws = np.broadcast_to(w, (len(x), g.n, g.n)).copy()
        rows = np.arange(len(x))
        for p, q in ((x, y), (y, x)):  # column p without the edge to q
            col = a[p]  # a copy of rows p, which are columns p: A is symmetric
            col[rows, q] = 0.0
            dp = deg[p][:, None] - 1
            ws[rows, :, p] = np.divide(col, dp, out=np.zeros_like(col), where=dp > 0)
        return _simrank_iterate(ws, decay, tol, max_iter)[rows, np.minimum(x, y), np.maximum(x, y)]

    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    if small and workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(solve, chunks))
    else:
        parts = [solve(chunk) for chunk in chunks]
    return np.concatenate([np.zeros(0), *parts])


def score(scorer: str, g: SimpleGraph, u: int, v: int) -> float:
    """Score one vertex pair with the scorer named by ``scorer``: the
    one-pair case of :func:`score_pairs`."""
    return float(score_pairs(scorer, g, [u], [v])[0])


def condensed(n: int, keys: np.ndarray, values) -> np.ndarray:
    """A value for every pair u < v, in ``np.triu_indices(n, 1)`` order:
    ``values`` at the condensed ``keys``
    (:func:`~hyperlp.hypergraph.condensed_keys`), zero elsewhere."""
    out = np.zeros(n * (n - 1) // 2, dtype=np.result_type(values))
    out[keys] = values
    return out


def _common_sums(
    g: SimpleGraph,
    weights: list[np.ndarray | None],
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Sums over common neighbors of each per-vertex weight in ``weights``
    (counts for None), at every pair in condensed order or at the pairs
    ``(u[i], v[i])``, from one pass of
    :func:`~hyperlp.hypergraph.common_neighbor_hits`. Each pair's terms
    are added one by one in centre order (``np.add.at``), so no branch or
    chunking of that pass changes a sum."""
    size = g.n * (g.n - 1) // 2 if u is None else len(u)
    sums = [np.zeros(size, dtype=np.int64 if w is None else np.float64) for w in weights]
    for slots, centres in common_neighbor_hits(g, u, v):
        for total, w in zip(sums, weights):
            np.add.at(total, slots, 1 if w is None else w[centres])
    return sums


def score_pairs_many(
    scorers: Sequence[str],
    g: SimpleGraph,
    u: ArrayLike | None = None,
    v: ArrayLike | None = None,
) -> dict[str, np.ndarray | Exception]:
    """Score the pairs ``(u[i], v[i])`` at once with each scorer, in input
    order. Without ``u`` and ``v``, scores every pair u < v in
    ``np.triu_indices(g.n, 1)`` order.

    CN, AA, RA and JC (from the CN sums) share one pass over the common
    neighbors (:func:`~hyperlp.hypergraph.common_neighbor_hits`): the
    wedges for every pair, the endpoints' rows for explicit pairs. A
    scorer that raises, an unknown id included (``ValueError``), gets its
    exception in its slot, and an error in the shared pass goes to every
    one of those four. Invalid pairs (a vertex paired with itself or
    outside ``0..n-1``) raise.
    """
    every = u is None and v is None
    if every:  # valid by construction; only PA, JC and SR read u and v
        size = g.n * (g.n - 1) // 2
        if {"pa", "jc", "sr"} & set(scorers):
            u, v = np.triu_indices(g.n, k=1)
    else:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("u and v must be 1-d arrays of equal length")
        bad = np.flatnonzero(_invalid_pairs(g.n, u, v))
        if len(bad):
            a, b = int(u[bad[0]]), int(v[bad[0]])
            if a == b:
                raise ValueError(f"scores are undefined for a vertex paired with itself ({a})")
            raise ValueError(f"pair ({a}, {b}) outside 0..{g.n - 1}")
        size = len(u)
    d = g.degrees().astype(np.float64)
    weight = {  # per centre w: a count for CN, 1/log(1+d_w) for AA, 1/d_w for RA
        "cn": lambda: None,
        "aa": lambda: np.divide(1.0, np.log1p(d), out=np.zeros(g.n), where=d > 0),
        "ra": lambda: np.divide(1.0, d, out=np.zeros(g.n), where=d > 0),
    }
    summed = [s for s in weight if s in scorers or (s == "cn" and "jc" in scorers)]
    sums: dict[str, np.ndarray | Exception] = {}
    try:
        if summed and size:
            pairs = () if every else (u, v)
            sums = dict(zip(summed, _common_sums(g, [weight[s]() for s in summed], *pairs)))
    except Exception as exc:  # the shared pass fails every scorer it serves
        sums = dict.fromkeys(summed, exc)
    out: dict[str, np.ndarray | Exception] = {}
    for scorer in scorers:
        try:
            if scorer not in SCORER_IDS:
                raise ValueError(f"unknown scorer {scorer!r}; valid ids: {', '.join(SCORER_IDS)}")
            if size == 0:
                out[scorer] = np.zeros(0)
            elif scorer == "sr":  # one triangle: the table is symmetric only up to rounding
                out[scorer] = simrank_matrix(g)[np.minimum(u, v), np.maximum(u, v)]
            elif scorer == "pa":
                out[scorer] = d[u] * d[v]
            else:
                cn = _unwrap(sums["cn" if scorer == "jc" else scorer])
                cn = cn.astype(np.float64, copy=False)  # AA and RA sums are float64: no copy
                if scorer == "jc":
                    union = d[u] + d[v] - cn
                    cn = np.divide(cn, union, out=np.zeros_like(cn), where=union > 0)
                out[scorer] = cn
        except Exception as exc:  # isolated per-scorer failure
            out[scorer] = exc
    return out


def score_pairs(
    scorer: str, g: SimpleGraph, u: ArrayLike | None = None, v: ArrayLike | None = None
) -> np.ndarray:
    """The one-scorer case of :func:`score_pairs_many`, raising its error."""
    return _unwrap(score_pairs_many([scorer], g, u, v)[scorer])


def _unwrap(result):
    """One slot of a per-scorer result dict, raising its exception."""
    if isinstance(result, Exception):
        raise result
    return result
