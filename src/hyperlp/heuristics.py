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

:func:`score_pairs` scores a whole pair set at once from the CSR
adjacency ``A`` and degrees ``d`` (Lü & Zhou, Physica A 2011): CN is
``A @ A``, AA is ``A @ diag(1/log(1+d)) @ A`` and RA is
``A @ diag(1/d) @ A``, each read at ``(u, v)``; PA is ``d_u * d_v``, JC
is ``CN / (d_u + d_v - CN)`` and SR indexes one :func:`simrank_matrix`.
Called without ``u, v`` it scores every pair u < v in
``np.triu_indices(n, 1)`` order (the condensed order of
``scipy.spatial.distance.pdist``), reading each sparse product in one
pass with :func:`condensed` instead of looking up every pair.
The per-pair functions and :func:`score` compute the same definitions
one pair at a time and serve as the reference. AA and RA sum the same
terms in ascending common-neighbor order here and in set order there, so
the two can differ in the last bits.

Leave-one-out SimRank (:func:`simrank_without_each_edge`) never copies
the graph: removing edge {a, b} changes only columns a and b of the
column-normalized adjacency ``W``, so each edge's solve starts from the
intact ``W`` with those two columns replaced, and runs the same
iteration as :func:`simrank_matrix`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.sparse as sp
from numpy.typing import ArrayLike

from .hypergraph import SimpleGraph

SCORER_IDS: tuple[str, ...] = ("cn", "aa", "pa", "jc", "ra", "sr")

SIMRANK_DECAY = 0.8
SIMRANK_TOL = 1e-4
SIMRANK_MAX_ITER = 100


class SimRankConvergenceError(RuntimeError):
    """Raised when the SimRank iteration has not met tolerance at the
    iteration cap."""


def _check_pair(g: SimpleGraph, u: int, v: int) -> None:
    if u == v:
        raise ValueError(f"scores are undefined for a vertex paired with itself ({u})")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"pair ({u}, {v}) outside 0..{g.n - 1}")


def common_neighbors(g: SimpleGraph, u: int, v: int) -> float:
    _check_pair(g, u, v)
    return float(len(g.neighbors(u) & g.neighbors(v)))


def adamic_adar(g: SimpleGraph, u: int, v: int) -> float:
    _check_pair(g, u, v)
    return sum(1.0 / math.log(1 + g.degree(w)) for w in g.neighbors(u) & g.neighbors(v))


def resource_allocation(g: SimpleGraph, u: int, v: int) -> float:
    _check_pair(g, u, v)
    return sum(1.0 / g.degree(w) for w in g.neighbors(u) & g.neighbors(v))


def preferential_attachment(g: SimpleGraph, u: int, v: int) -> float:
    _check_pair(g, u, v)
    return float(g.degree(u) * g.degree(v))


def jaccard(g: SimpleGraph, u: int, v: int) -> float:
    _check_pair(g, u, v)
    nu, nv = g.neighbors(u), g.neighbors(v)
    union = len(nu | nv)
    if union == 0:
        return 0.0
    return len(nu & nv) / union


def _transition(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-normalized ``W`` of the dense adjacency ``a``, zero in the
    columns of isolated vertices, and the degrees."""
    deg = a.sum(axis=0)
    return np.divide(a, deg, out=np.zeros_like(a), where=deg > 0), deg


def _simrank_iterate(w: np.ndarray, decay: float, tol: float, max_iter: int) -> np.ndarray:
    """SimRank table for the column-normalized ``w``: see
    :func:`simrank_matrix`."""
    n = len(w)
    s = np.eye(n)
    for _ in range(max_iter):
        s_next = decay * (w.T @ s @ w)
        np.fill_diagonal(s_next, 1.0)
        delta = np.max(np.abs(s_next - s)) if n else 0.0
        s = s_next
        if delta < tol:
            return s
    raise SimRankConvergenceError(
        f"SimRank not within {tol} after {max_iter} iterations (last delta {delta:.3g})"
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
    return _simrank_iterate(_transition(g.adjacency_matrix())[0], decay, tol, max_iter)


def simrank_without_each_edge(
    g: SimpleGraph,
    u: ArrayLike,
    v: ArrayLike,
    decay: float = SIMRANK_DECAY,
    tol: float = SIMRANK_TOL,
    max_iter: int = SIMRANK_MAX_ITER,
) -> np.ndarray:
    """SimRank of each edge ``(u[i], v[i])`` on ``g`` without that edge,
    equal bit for bit to ``simrank_matrix(g.without_edge(a, b))[a, b]``.

    The intact ``A``, degrees and ``W`` are built once. Removing {a, b}
    changes only columns a and b of ``W``: column x becomes
    ``(A[:, x] - e_y) / (d_x - 1)``, or zero where that degree is 0.
    """
    a = g.adjacency_matrix()
    w, deg = _transition(a)
    out = np.empty(len(u))
    for i, (x, y) in enumerate(zip(np.asarray(u).tolist(), np.asarray(v).tolist())):
        if not a[x, y]:
            raise ValueError(f"({x}, {y}) is not an edge")
        w_i = w.copy()
        for p, q in ((x, y), (y, x)):
            col = a[:, p].copy()
            col[q] = 0.0
            w_i[:, p] = col / (deg[p] - 1) if deg[p] > 1 else 0.0
        out[i] = _simrank_iterate(w_i, decay, tol, max_iter)[x, y]
    return out


def simrank(g: SimpleGraph, u: int, v: int) -> float:
    """Solves the whole table on every call; :func:`score_pairs` solves
    it once for a pair set."""
    _check_pair(g, u, v)
    return float(simrank_matrix(g)[u, v])


_SCORERS: dict[str, Callable[[SimpleGraph, int, int], float]] = {
    "cn": common_neighbors,
    "aa": adamic_adar,
    "ra": resource_allocation,
    "pa": preferential_attachment,
    "jc": jaccard,
    "sr": simrank,
}


def _scorer(scorer: str) -> Callable[[SimpleGraph, int, int], float]:
    try:
        return _SCORERS[scorer]
    except KeyError:
        raise ValueError(
            f"unknown scorer {scorer!r}; valid ids: {', '.join(SCORER_IDS)}"
        ) from None


def score(scorer: str, g: SimpleGraph, u: int, v: int) -> float:
    """Score one vertex pair with the scorer named by ``scorer``."""
    return _scorer(scorer)(g, u, v)


def condensed(m: sp.sparray) -> np.ndarray:
    """Entries ``(r, c)``, r < c, of the square sparse ``m`` in
    ``np.triu_indices(n, 1)`` order; unstored entries read 0.

    One pass over the stored entries, each scattered to its condensed
    index ``r*n - r*(r+1)/2 + c - r - 1``; the lower triangle and the
    diagonal are ignored. The values equal ``m[np.triu_indices(n, 1)]``
    without its per-pair search of unsorted rows.
    """
    n = m.shape[0]
    c = sp.coo_array(m)
    keep = c.row < c.col
    r, col = c.row[keep].astype(np.int64), c.col[keep].astype(np.int64)
    out = np.zeros(n * (n - 1) // 2, dtype=c.data.dtype)
    out[r * n - r * (r + 1) // 2 + col - r - 1] = c.data[keep]
    return out


def score_pairs(
    scorer: str, g: SimpleGraph, u: ArrayLike | None = None, v: ArrayLike | None = None
) -> np.ndarray:
    """Score the pairs ``(u[i], v[i])`` at once; same definitions and
    checks as :func:`score`, returned in input order.

    Without ``u`` and ``v``, scores every pair u < v in
    ``np.triu_indices(g.n, 1)`` order, reading each product with
    :func:`condensed`.
    """
    _scorer(scorer)  # rejects an unknown id
    every = u is None and v is None
    if every:
        u, v = np.triu_indices(g.n, k=1)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be 1-d arrays of equal length")
    bad = np.flatnonzero((u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= g.n))
    if len(bad):
        _check_pair(g, int(u[bad[0]]), int(v[bad[0]]))
    if len(u) == 0:
        return np.zeros(0)
    if scorer == "sr":
        return simrank_matrix(g)[u, v]
    a = g.adjacency_csr()
    d = np.diff(a.indptr).astype(np.float64)
    if scorer == "pa":
        return d[u] * d[v]
    read = condensed if every else (lambda m: m[u, v])
    if scorer in ("aa", "ra"):
        w = np.zeros(g.n)
        ok = d > 0
        w[ok] = 1.0 / (np.log1p(d[ok]) if scorer == "aa" else d[ok])
        return read(a @ sp.diags_array(w) @ a)
    cn = read(a @ a)
    if scorer == "cn":
        return cn
    union = d[u] + d[v] - cn
    return np.divide(cn, union, out=np.zeros_like(cn), where=union > 0)
