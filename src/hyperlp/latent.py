"""Latent-space hypergraph generator and its exact link probabilities.

Vertices get i.i.d. standard-normal positions in ``R^d``, whose pairwise
distances :func:`pairwise_distances` computes once, as the condensed
vector every geometry reader takes. For every hyperedge size ``s`` in
``2..k_max`` the radius ``r_s`` is a percentile of them: the candidate
(potential) hyperedges of size ``s`` are exactly the ``s``-sets whose
points are pairwise within ``2 * r_s`` of each other, i.e. the
``s``-cliques of the distance-threshold graph at ``2 * r_s``. A hypergraph
is then drawn by keeping each candidate independently with a per-size
probability ``phi_s`` in [0, 1]. Every sampler and exact read takes the
model as its candidate index (:func:`build_potential`) and ``phi``.

Because the selections are independent, the chance that a vertex pair ends
up linked after clique expansion has a closed form: if ``S_s(i, j)`` counts
the size-``s`` candidates containing both ``i`` and ``j``,

    P(i ~ j) = 1 - prod_s (1 - phi_s) ** S_s(i, j).

:func:`link_probability_map` computes it for every pair at once, as one
array in condensed order (:func:`~hyperlp.hypergraph.condensed_keys`):
``S_s`` counts the size's :func:`~hyperlp.hypergraph.group_pair_keys`.
:func:`edge_distance_profile` bins that map by distance.

The sigmoid pairwise model (Hoff, Raftery & Handcock, JASA 2002) is the
comparison baseline: :func:`hoff_edge_probability` evaluates it, and
:func:`default_hoff_params` puts its offset at the median pairwise distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import hypergraph
from .hypergraph import (
    Hypergraph,
    condensed_pairs,
    group_pair_keys,
    packed_rows,
    row_hits,
)

DEFAULT_MAX_POTENTIAL = 10_000_000
DEFAULT_HOFF_ALPHA = 10.0

PHI_PRESETS = ("power_law", "hoff_sigmoid", "constant", "empirical")


class ResourceLimitError(RuntimeError):
    """Raised when candidate-hyperedge enumeration exceeds its cap."""


@dataclass
class PotentialIndex:
    """All candidate hyperedges, grouped by size.

    ``by_size[s]`` holds the size-``s`` candidates as one (m_s, s) int32
    array, one candidate per row, each row increasing and the rows in
    lexicographic order; every size ``2..k_max`` has a key, possibly with
    zero rows.
    """

    n: int
    k_max: int
    by_size: dict[int, np.ndarray]

    @property
    def sizes(self) -> range:
        return range(2, self.k_max + 1)

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.by_size.values())

    def size_counts(self) -> np.ndarray:
        """Number of candidates per size, aligned to sizes ``2..k_max``."""
        return np.array([len(self.by_size[s]) for s in self.sizes])

    def all_candidates(self) -> list[tuple[int, ...]]:
        """Every candidate as a vertex tuple, by size, then in row order."""
        return [tuple(c) for s in self.sizes for c in self.by_size[s].tolist()]


@dataclass
class HoffParams:
    """Sigmoid edge-probability parameters: slope ``alpha`` and distance
    offset ``gamma``."""

    alpha: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")


def _at_least(name: str, value: int, low: int) -> None:
    """Refuse ``value`` below ``low`` by its ``name`` (``ValueError``)."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def sample_latents(n: int, d: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. standard-normal points in ``R^d``."""
    _at_least("n", n, 2)
    _at_least("d", d, 1)
    return np.random.default_rng(seed).standard_normal((n, d))


def spawn_seeds(seed: int, count: int) -> list[int]:
    """``count`` seeds derived from ``seed``, each drawn below 2**63 - 1.

    Each is one bounded uint64 draw of ``default_rng(seed)``, so the
    first ``a`` of ``a + b`` seeds are ``spawn_seeds(seed, a)``: a slice
    of one draw equals the same draw made piece by piece."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=count)]


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Condensed vector of all n*(n-1)/2 pairwise Euclidean distances, in
    ``pdist`` order (the upper triangle, row by row), built row by row with
    no n-by-n temporary. Equal bit for bit to ``scipy.spatial.distance.pdist``:
    squared differences are summed in dimension order (``einsum`` or
    ``sum(axis=...)`` differ in the last bits), and no run pays the 0.14 s
    import of ``scipy.spatial``."""
    x = np.asarray(positions, dtype=np.float64)
    rows = (sum((x[i + 1 :, k] - x[i, k]) ** 2 for k in range(x.shape[1])) for i in range(len(x)))
    return np.sqrt(np.concatenate([np.empty(0), *rows]))


def radii_from_percentiles(dist: np.ndarray, percentiles: Sequence[float]) -> np.ndarray:
    """Radii for sizes ``2..k_max`` as percentiles of the condensed
    pairwise distances ``dist`` (:func:`pairwise_distances`).

    ``percentiles`` must be strictly increasing, one entry per size; the
    returned radii are then nondecreasing in size.
    """
    return np.percentile(dist, _checked_percentiles(percentiles))


def _checked_percentiles(percentiles: Sequence[float]) -> np.ndarray:
    """``percentiles`` as an array, nonempty, strictly increasing and in (0, 100]."""
    pct = np.asarray(percentiles, dtype=np.float64)
    if pct.ndim != 1 or len(pct) == 0:
        raise ValueError("percentiles must be a nonempty 1-d sequence")
    if not np.all((pct > 0) & (pct <= 100)):  # NaN too, before a difference of infinities
        raise ValueError("percentiles must lie in (0, 100]")
    if np.any(np.diff(pct) <= 0):
        raise ValueError(f"percentiles must be strictly increasing, got {pct.tolist()}")
    return pct


def _extend(cliques: np.ndarray, higher: np.ndarray) -> Iterator[np.ndarray]:
    """Every one-vertex extension of the k-cliques ``cliques`` (rows in
    lexicographic order), in blocks whose rows stay in that order: the
    vertices above a clique's last member and adjacent to every member,
    the bits that :func:`~hyperlp.hypergraph.row_hits` lists in the AND of
    its members' packed ``higher`` rows (row u: u's neighbors above u)."""
    for parents, new in row_hits(higher, cliques):
        yield np.column_stack((cliques[parents], new.astype(np.int32)))


def _stack(blocks: Iterable[np.ndarray], width: int) -> np.ndarray:
    return np.concatenate([np.empty((0, width), dtype=np.int32), *blocks])


def build_potential(
    dist: np.ndarray,
    radii: Sequence[float],
    max_potential: int = DEFAULT_MAX_POTENTIAL,
) -> PotentialIndex:
    """Enumerate the candidate hyperedges for every size.

    For size ``s`` these are the ``s``-cliques of the graph linking points
    within ``2 * radii[s-2]`` of each other in ``dist``, grown level by
    level from single vertices over the size's threshold pairs (r, c)
    packed in rows r (ordered clique listing, Chiba & Nishizeki, SIAM J.
    Comput. 1985; see :func:`_extend`). Raises :class:`ResourceLimitError`
    iff the total candidate count exceeds ``max_potential``; the count is
    checked batch by batch, so an over-cap size raises before its array is
    complete. The smaller cliques grown on the way to size ``s`` are not
    candidates and do not count.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if np.any(radii < 0):
        raise ValueError(f"radii must be nonnegative, got {radii.tolist()}")
    n = (1 + math.isqrt(1 + 8 * len(dist))) // 2  # len(dist) = n * (n - 1) / 2
    by_size: dict[int, np.ndarray] = {}
    total = 0
    for s, r in enumerate(radii, start=2):
        higher = packed_rows(n, *condensed_pairs(n, np.flatnonzero(dist <= 2.0 * r)).T)
        cliques = np.arange(n, dtype=np.int32)[:, None]
        for k in range(2, s):
            cliques = _stack(_extend(cliques, higher), k)
        blocks = []
        for block in _extend(cliques, higher):
            total += len(block)
            if total > max_potential:
                raise ResourceLimitError(
                    f"candidate enumeration exceeded the cap of {max_potential}: "
                    f"{total} candidates by size {s}"
                )
            blocks.append(block)
        by_size[s] = _stack(blocks, s)
    return PotentialIndex(n=n, k_max=len(radii) + 1, by_size=by_size)


def potential_from_candidates(
    n: int,
    candidates: Sequence[Sequence[int]],
    k_max: int | None = None,
) -> PotentialIndex:
    """Build a candidate index from an explicit list of vertex sets,
    bypassing geometry. Useful for hand-crafted configurations."""
    sets = [tuple(sorted({int(v) for v in c})) for c in candidates]
    for c in sets:
        if len(c) < 2:
            raise ValueError(f"candidate {c} has fewer than 2 distinct vertices")
        if c[-1] >= n or c[0] < 0:
            raise ValueError(f"candidate {c} outside 0..{n - 1}")
    top = max((len(c) for c in sets), default=2)
    k_max = top if k_max is None else k_max
    if k_max < top:
        raise ValueError(f"k_max={k_max} below the largest candidate size {top}")
    by_size = {
        s: np.array(sorted(c for c in sets if len(c) == s), dtype=np.int32).reshape(-1, s)
        for s in range(2, k_max + 1)
    }
    return PotentialIndex(n=n, k_max=k_max, by_size=by_size)


def _checked_phi(phi: Sequence[float], k_max: int) -> np.ndarray:
    """``phi`` as an array, one probability in [0, 1] for each size ``2..k_max``."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (k_max - 1,):
        raise ValueError(f"phi needs {k_max - 1} values for sizes 2..{k_max}, got {phi.size}")
    if not np.all((phi >= 0) & (phi <= 1)):
        raise ValueError(f"phi values must lie in [0, 1], got {phi.tolist()}")
    return phi


def sample_hypergraph(pot: PotentialIndex, phi: Sequence[float], seed: int) -> Hypergraph:
    """Keep each candidate hyperedge independently with its per-size
    probability. Deterministic for a fixed seed."""
    phi = _checked_phi(phi, pot.k_max)
    rng = np.random.default_rng(seed)
    kept = [pot.by_size[s][rng.random(len(pot.by_size[s])) < phi[s - 2]] for s in pot.sizes]
    sizes = np.repeat(pot.sizes, [len(block) for block in kept])
    return Hypergraph.from_arrays(pot.n, sizes, np.concatenate([b.ravel() for b in kept]))


def phi_preset(
    name: str,
    *,
    k_max: int,
    radii: Sequence[float] | None = None,
    alpha: float = DEFAULT_HOFF_ALPHA,
    gamma: float | None = None,
    pot: PotentialIndex | None = None,
) -> np.ndarray:
    """Selection probabilities for sizes ``2..k_max`` per a named rule.

    ``power_law``     1 / s**2
    ``hoff_sigmoid``  the sigmoid edge probability (:func:`hoff_edge_probability`)
                      at distance r_s (needs radii, gamma)
    ``constant``      0.1 for every size
    ``empirical``     candidate counts per size, scaled so the largest is 1
                      (needs ``pot``)
    """
    sizes = np.arange(2, k_max + 1, dtype=np.float64)
    if name == "power_law":
        return 1.0 / sizes**2
    if name == "constant":
        return np.full(len(sizes), 0.1)
    if name == "hoff_sigmoid":
        if radii is None or gamma is None:
            raise ValueError("hoff_sigmoid preset needs radii and gamma")
        if len(radii) != len(sizes):
            raise ValueError("radii length must match k_max - 1")
        return hoff_edge_probability(HoffParams(alpha, gamma), radii)
    if name == "empirical":
        if pot is None:
            raise ValueError("empirical preset needs a PotentialIndex")
        counts = pot.size_counts().astype(np.float64)
        top = counts.max()
        if top == 0:
            return np.zeros(len(sizes))
        return counts / top
    raise ValueError(f"unknown phi preset {name!r}; valid: {', '.join(PHI_PRESETS)}")


def link_probability_map(pot: PotentialIndex, phi: Sequence[float]) -> np.ndarray:
    """Exact link probability of every pair u < v, in
    ``np.triu_indices(n, 1)`` order; uncovered pairs read 0.

    One minus the probability that every candidate covering the pair is
    rejected; candidate selections are independent, so the miss
    probabilities multiply, size by size in order, each raised to the
    number of the size's candidates that hold the pair. Those counts are
    added in row chunks of at most ``hypergraph.ROW_BLOCK`` pair keys, so
    the key temporaries stay bounded (``np.add.at`` scatters a chunk
    without a pair-sized ``bincount``); the sums are of whole numbers far
    below 2^53, exact in float64, so every chunking gives the same map.
    Two pair-sized arrays are alive: ``missed``, and ``counts``, refilled
    for each size and raised to the power in place.
    """
    miss = 1.0 - _checked_phi(phi, pot.k_max)
    pairs = pot.n * (pot.n - 1) // 2
    missed = np.ones(pairs)
    counts = np.empty(pairs)
    for m, s in zip(miss, pot.sizes):
        rows = pot.by_size[s]
        per = max(hypergraph.ROW_BLOCK // (s * (s - 1) // 2), 1)  # rows per chunk
        counts.fill(0.0)
        for lo in range(0, len(rows), per):  # an int 1 would leave ufunc.at's fast path
            np.add.at(counts, group_pair_keys(pot.n, rows[lo : lo + per]), 1.0)
        missed *= np.power(m, counts, out=counts)
    return np.subtract(1.0, missed, out=missed)


def hoff_edge_probability(params: HoffParams, dist) -> np.ndarray | float:
    """Sigmoid edge probability ``1 / (1 + exp(alpha * (dist - gamma)))``
    at the given distance(s); strictly decreasing in distance."""
    d = np.asarray(dist, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(params.alpha * (d - params.gamma)))
    return float(out) if out.ndim == 0 else out


def hoff_clique_probability(params: HoffParams, dists: Sequence[float]) -> float:
    """Probability the sigmoid model realizes a full clique: the product of
    the pairwise edge probabilities (one factor per pair, so a size-k set
    has k*(k-1)/2 factors)."""
    dists = np.asarray(dists, dtype=np.float64)
    if dists.size == 0:
        return 1.0
    return float(np.prod(hoff_edge_probability(params, dists)))


def default_hoff_params(dist: np.ndarray, alpha: float = DEFAULT_HOFF_ALPHA) -> HoffParams:
    """Fallback sigmoid parameters: slope ``alpha``, offset at the median
    of the condensed pairwise distances ``dist``."""
    return HoffParams(alpha=alpha, gamma=float(np.median(dist)))


@dataclass
class DistanceProfile:
    """Link probability by pairwise distance, for the generator and for the
    sigmoid baseline at the same distances."""

    bin_edges: np.ndarray
    bin_centers: np.ndarray
    pair_counts: np.ndarray
    model_freq: np.ndarray
    hoff_prob: np.ndarray
    hoff_params: HoffParams


def edge_distance_profile(
    pot: PotentialIndex,
    phi: Sequence[float],
    dist: np.ndarray,
    bins: int = 20,
    hoff: HoffParams | None = None,
) -> DistanceProfile:
    """Exact probability that a pair at a given distance becomes an edge,
    binned by distance, against the sigmoid baseline at bin centers.

    ``pot`` is the candidate index built from the condensed distances
    ``dist`` (see :func:`build_potential`) and ``phi`` its per-size keep
    rates; ``model_freq`` is the mean of :func:`link_probability_map` over
    each bin's pairs. ``hoff`` defaults to :func:`default_hoff_params` of
    ``dist``. Pairs farther apart than twice the largest radius can never
    be covered, so their probability is exactly zero by construction.
    """
    n = pot.n
    if len(dist) != n * (n - 1) // 2:
        raise ValueError(f"the candidate index has n={n}; {len(dist)} distances are not its pairs")
    hoff = hoff or default_hoff_params(dist)
    prob = link_probability_map(pot, phi)

    edges = np.histogram_bin_edges(dist, bins=bins)
    which = np.clip(np.digitize(dist, edges) - 1, 0, len(edges) - 2)
    counts = np.bincount(which, minlength=len(edges) - 1)
    sums = np.bincount(which, weights=prob, minlength=len(edges) - 1)
    model_freq = np.divide(sums, counts, out=np.zeros(len(edges) - 1), where=counts > 0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return DistanceProfile(
        bin_edges=edges,
        bin_centers=centers,
        pair_counts=counts,
        model_freq=model_freq,
        hoff_prob=np.asarray(hoff_edge_probability(hoff, centers)),
        hoff_params=hoff,
    )
