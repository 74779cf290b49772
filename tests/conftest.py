import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

from hyperlp import Hypergraph, SimpleGraph, evaluation, protocol_scores
from hyperlp.heuristics import (
    SIMRANK_DECAY,
    SIMRANK_MAX_ITER,
    SIMRANK_TOL,
    SimRankConvergenceError,
    _unwrap,
)
from hyperlp.hypergraph import condensed_pairs


@pytest.fixture
def five_vertex():
    """Two hyperedges over five vertices: one triple {0,1,2} and one pair
    {3,4}. Small enough that every score is hand-checkable."""
    return Hypergraph(5, [[0, 1, 2], [3, 4]])


@pytest.fixture
def break_scorer(monkeypatch):
    """Call ``break_scorer(name, error)`` to make scorer ``name`` raise
    ``error`` wherever :func:`hyperlp.evaluate_protocol` scores a pair
    set: its slot of the shared scoring call holds that error."""
    score_pairs_many = evaluation.score_pairs_many

    def apply(name: str, error: type[Exception] = RuntimeError) -> None:
        def broken(scorers, *args, **kwargs):
            out = score_pairs_many(scorers, *args, **kwargs)
            if name in out:
                out[name] = error(f"{name} is broken")
            return out

        monkeypatch.setattr(evaluation, "score_pairs_many", broken)

    return apply


@pytest.fixture
def five_vertex_file(tmp_path):
    path = tmp_path / "toy.hyg"
    path.write_text("a b c\nd e\n")
    return path


def unique_counts(scores, labels, weights=None):
    """(#{s_pos > s_neg}, #{s_pos == s_neg}, P, N) by grouping equal scores
    with ``np.unique``: the count that sorting and ``searchsorted``
    replaced in :func:`hyperlp.evaluation._cross_class_counts`, kept as
    its oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    w = np.ones(len(scores)) if weights is None else np.asarray(weights, dtype=np.float64)
    _, group = np.unique(scores, return_inverse=True)
    pos = np.bincount(group, weights=np.where(labels, w, 0.0))
    neg = np.bincount(group, weights=np.where(labels, 0.0, w))
    neg_below = np.concatenate(([0.0], np.cumsum(neg)[:-1]))
    return float(pos @ neg_below), float(pos @ neg), float(pos.sum()), float(neg.sum())


def random_hypergraph(rng: np.random.Generator, n: int, m: int, max_size: int = 4):
    """Random hypergraph with m hyperedges of sizes 2..max_size."""
    edges = []
    for _ in range(m):
        k = int(rng.integers(2, max_size + 1))
        edges.append([int(x) for x in rng.choice(n, size=k, replace=False)])
    return Hypergraph(n, edges)


def oracle_relocate(h: Hypergraph, seed: int) -> Hypergraph:
    """Reference relocation: one ``rng.choice(n, k, replace=False)`` call
    per hyperedge, the loop :func:`hyperlp.relocate` reproduces in one
    array draw."""
    rng = np.random.default_rng(seed)
    moved = []
    for f in h.hyperedges:
        if len(f) > h.n:
            raise ValueError(f"hyperedge of size {len(f)} cannot fit in {h.n} vertices")
        moved.append([int(x) for x in rng.choice(h.n, size=len(f), replace=False)])
    return Hypergraph(h.n, moved)


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that its calls are counted."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def oracle_simrank_iterate(w: np.ndarray, decay: float, tol: float, max_iter: int) -> np.ndarray:
    """Reference SimRank iteration, one slice of the (B, n, n) stack ``w``
    at a time and allocating every iterate: the loop
    :func:`hyperlp.heuristics._simrank_iterate` runs over the whole stack
    in shared buffers."""
    out = np.empty_like(w)
    for i, wi in enumerate(w):
        n = len(wi)
        s = np.eye(n)
        for _ in range(max_iter):
            s_next = decay * (wi.T @ s @ wi)
            np.fill_diagonal(s_next, 1.0)
            delta = np.max(np.abs(s_next - s)) if n else 0.0
            s = s_next
            if delta < tol:
                break
        else:
            raise SimRankConvergenceError(
                f"SimRank not within {tol} after {max_iter} iterations (last delta {delta:.3g})"
            )
        out[i] = s
    return out


@st.composite
def graphs(draw, min_n: int = 2, max_n: int = 10):
    """Hypothesis strategy: a SimpleGraph on min_n..max_n vertices with an
    arbitrary edge subset."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, [p for p, k in zip(pairs, keep) if k])


class OracleGraph:
    """Reference simple graph: one frozenset of neighbors per vertex, the
    representation :class:`hyperlp.SimpleGraph` had before it kept only a
    CSR adjacency. The parity tests hold the array graph to it."""

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def non_edges(self):
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if v not in self.adj[u]:
                    yield (u, v)

    @classmethod
    def of(cls, g: SimpleGraph) -> "OracleGraph":
        """The reference graph with the edges of ``g``."""
        return cls(g.n, edge_list(g))

    def without_edge(self, u: int, v: int) -> "OracleGraph":
        if not self.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge")
        return OracleGraph(self.n, [e for e in self.edges() if e != (min(u, v), max(u, v))])

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the adjacency, each row ascending."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(row) for row in self.adj], out=indptr[1:])
        indices = np.array([v for row in self.adj for v in sorted(row)], dtype=np.int64)
        return indptr, indices


def edge_list(g: SimpleGraph) -> list[tuple[int, int]]:
    """The edges of ``g`` as tuples ``(u, v)``, u < v, ascending: its edge
    array read back."""
    return list(map(tuple, g.edge_array().tolist()))


def scored_pairs(g: SimpleGraph, scorer: str, protocol):
    """One scorer's pairs, labels and scores under ``protocol``, as
    :func:`hyperlp.evaluate_protocol` counts them: the output of
    :func:`hyperlp.protocol_scores` with a set of every pair expanded to
    its (m, 2) pairs, the train edges it leaves out dropped, and the
    labels ``bool``. Raises the scorer's error."""
    pairs, labels, scores = protocol_scores(g, [scorer], protocol)
    scores = _unwrap(scores[scorer])
    if pairs is None:
        kept = np.flatnonzero(labels >= 0)
        pairs, labels, scores = condensed_pairs(g.n, kept), labels[kept] == 1, scores[kept]
    return pairs, labels, scores


def all_pairs(n: int) -> list[tuple[int, int]]:
    """Every pair u < v, in ``np.triu_indices(n, 1)`` order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _shared(g: OracleGraph, u: int, v: int) -> frozenset[int]:
    if u == v:
        raise ValueError(f"scores are undefined for a vertex paired with itself ({u})")
    return g.neighbors(u) & g.neighbors(v)


def oracle_common_neighbors(g: OracleGraph, u: int, v: int) -> float:
    return float(len(_shared(g, u, v)))


def oracle_adamic_adar(g: OracleGraph, u: int, v: int) -> float:
    return sum(1.0 / math.log(1 + g.degree(w)) for w in _shared(g, u, v))


def oracle_resource_allocation(g: OracleGraph, u: int, v: int) -> float:
    return sum(1.0 / g.degree(w) for w in _shared(g, u, v))


def oracle_preferential_attachment(g: OracleGraph, u: int, v: int) -> float:
    _shared(g, u, v)
    return float(g.degree(u) * g.degree(v))


def oracle_jaccard(g: OracleGraph, u: int, v: int) -> float:
    shared = _shared(g, u, v)
    union = len(g.neighbors(u) | g.neighbors(v))
    return len(shared) / union if union else 0.0


def oracle_simrank(g: OracleGraph, u: int, v: int) -> float:
    """SimRank of one pair from a whole table solved by
    :func:`oracle_simrank_iterate` on a dense adjacency of the neighbor
    sets, read in its upper triangle: the table is symmetric only up to
    rounding."""
    _shared(g, u, v)
    a = np.zeros((g.n, g.n))
    for x, y in g.edges():
        a[x, y] = a[y, x] = 1.0
    deg = a.sum(axis=0)
    w = np.divide(a, deg, out=np.zeros_like(a), where=deg > 0)
    table = oracle_simrank_iterate(w[None], SIMRANK_DECAY, SIMRANK_TOL, SIMRANK_MAX_ITER)[0]
    return float(table[min(u, v), max(u, v)])


ORACLE_SCORERS = {
    "cn": oracle_common_neighbors,
    "aa": oracle_adamic_adar,
    "ra": oracle_resource_allocation,
    "pa": oracle_preferential_attachment,
    "jc": oracle_jaccard,
    "sr": oracle_simrank,
}


def oracle_score(scorer: str, g: OracleGraph, u: int, v: int) -> float:
    """Reference per-pair scorers: the set formulas of
    :mod:`hyperlp.heuristics` on the neighbor sets of an
    :class:`OracleGraph`, one pair at a time, AA and RA terms added in
    set order (so within rel 1e-12 of the array path, not bit for bit)."""
    return ORACLE_SCORERS[scorer](g, u, v)


def oracle_clique_expand(h: Hypergraph) -> OracleGraph:
    """Reference clique expansion: one set insertion per vertex pair of
    every hyperedge."""
    return OracleGraph(h.n, [pair for f in h.hyperedges for pair in combinations(f, 2)])


@st.composite
def hypergraphs(draw, max_n: int = 8, max_m: int = 8):
    """Hypothesis strategy: a Hypergraph on 0..max_n vertices (n of 0 or 1
    has no hyperedges) with up to max_m hyperedges, some repeated."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Hypergraph(n, [])
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
    edges = draw(st.lists(edge, max_size=max_m))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    return Hypergraph(n, edges + repeats)
