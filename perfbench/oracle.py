"""Leave-one-out AUC oracle built on scipy.sparse closed forms.

With A the adjacency of the clique expansion and d its degrees:

* CN = A @ A, AA = A diag(1/log(1+d)) A, RA = A diag(1/d) A;
* PA = d_u d_v, or (d_u - 1)(d_v - 1) on an edge, whose removal lowers
  both degrees;
* JC = CN / |N(u) | N(v)|, where removing edge {u, v} takes u and v out
  of the union, shrinking it by 2.

Removing {u, v} changes no common neighbor of u and v and no degree of
one, so CN, AA and RA need no correction on edges. The AUC is the
Mann-Whitney statistic from average ranks, ties counting one half, with
scores equal to 1e-12 relative grouped as ties: the exact AUC.

CN, PA and JC are exact in floating point, so any implementation must
match the exact AUC. AA and RA are float sums whose last bits depend on
summation order, so mathematically tied scores can compare unequal and
move the AUC. ``order_bound`` gives the most that can move it: half the
cross-class comparisons inside tie groups whose members are not all the
same sum of at most two terms (the only sums every order evaluates to
the same bits).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.stats import rankdata


def adjacency(n: int, hyperedges) -> sp.csr_matrix:
    """Clique-expansion adjacency (0/1, no self-loops) of dense-id rows."""
    rows, cols = [], []
    for f in hyperedges:
        f = list(f)
        for i, u in enumerate(f):
            for v in f[i + 1 :]:
                rows += [u, v]
                cols += [v, u]
    a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    a.data[:] = 1.0
    return a


def loo_scores(a: sp.csr_matrix, scorer: str) -> tuple[np.ndarray, np.ndarray]:
    """(scores, labels) over all pairs u < v in row-major order."""
    n = a.shape[0]
    d = np.asarray(a.sum(axis=1)).ravel()
    iu, iv = np.triu_indices(n, k=1)
    labels = np.asarray(a[iu, iv]).ravel() > 0
    cn = np.asarray((a @ a)[iu, iv]).ravel()
    if scorer == "cn":
        return cn, labels
    if scorer in ("aa", "ra"):
        w = np.zeros(n)
        ok = d > 0
        w[ok] = 1.0 / (np.log1p(d[ok]) if scorer == "aa" else d[ok])
        return np.asarray((a @ sp.diags(w) @ a)[iu, iv]).ravel(), labels
    du, dv = d[iu], d[iv]
    if scorer == "pa":
        return np.where(labels, (du - 1) * (dv - 1), du * dv), labels
    if scorer == "jc":
        union = du + dv - cn - np.where(labels, 2, 0)
        return np.divide(cn, union, out=np.zeros_like(cn), where=union > 0), labels
    raise ValueError(f"no oracle for scorer {scorer!r}")


def tie_groups(scores: np.ndarray, rel: float = 1e-12) -> np.ndarray:
    """Ascending group id per score; neighbours within ``rel`` share one."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    step = np.diff(s) > rel * np.maximum(1.0, np.abs(s[1:]))
    groups = np.empty(len(s), dtype=np.int64)
    groups[order] = np.concatenate([[0], np.cumsum(step)])
    return groups


def order_bound(a: sp.csr_matrix, labels: np.ndarray, groups: np.ndarray) -> float:
    """Largest AUC change that summation order can cause (see above)."""
    pos = np.bincount(groups, weights=labels)
    neg = np.bincount(groups) - pos
    dense = a.toarray() > 0
    deg = dense.sum(axis=1)
    iu, iv = np.triu_indices(a.shape[0], k=1)
    loose = 0.0
    for g in np.nonzero((pos > 0) & (neg > 0))[0]:
        terms = {tuple(sorted(deg[dense[iu[i]] & dense[iv[i]]])) for i in np.nonzero(groups == g)[0]}
        if len(terms) > 1 or len(next(iter(terms))) > 2:
            loose += pos[g] * neg[g]
    n_pos = int(labels.sum())
    return 0.5 * loose / (n_pos * (len(labels) - n_pos))


def loo_auc(a: sp.csr_matrix, scorer: str) -> tuple[float, float]:
    """(exact leave-one-out AUC, summation-order bound) for one scorer."""
    scores, labels = loo_scores(a, scorer)
    groups = tie_groups(scores)
    bound = order_bound(a, labels, groups) if scorer in ("aa", "ra") else 0.0
    return float(mann_whitney_auc(groups, labels)), float(bound)


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    ranks = rankdata(scores)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return (ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
