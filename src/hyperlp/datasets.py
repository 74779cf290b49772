"""Hypergraph dataset ingestion, statistics, and size-distribution fits.

Two file formats are read. The paired format keeps hyperedge sizes in one
file (one integer per line) and the flattened vertex ids in a second file
(whitespace/newline separated); hyperedge ``i`` takes the next
``sizes[i]`` ids. The plain format is one hyperedge per line as
whitespace-separated vertex labels, with ``#`` comments and blank lines
skipped.

Vertex labels of any kind are densified to ``0..n-1``; the bundle keeps
the id <-> label table. Hyperedges with fewer than two distinct vertices
contribute nothing after clique expansion and are dropped with a count.
Duplicate hyperedges are retained (multiset semantics).
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .hypergraph import (
    Hypergraph,
    clique_expand,
    hypergraph_from_labels,
    size_distribution,
    width,
)

logger = logging.getLogger(__name__)


class DataFormatError(ValueError):
    """Raised for malformed dataset files."""


@dataclass
class DatasetBundle:
    """A loaded hypergraph plus its label table and file provenance."""

    name: str
    hypergraph: Hypergraph
    labels: list[str]
    provenance: dict[str, str]
    dropped_small: int = 0


@dataclass
class SizeDistFit:
    """Fitted truncated power-law exponent for a hyperedge-size
    distribution, with the fit window and a goodness value (sum of squared
    log residuals over observed sizes)."""

    zeta: float
    k_min: int
    k_max: int
    goodness: float
    method: str = "mle"


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 digest of the file at ``path``."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_ints(path: Path, what: str) -> list[int]:
    values = []
    for lineno, line in enumerate(path.read_text().split("\n"), start=1):
        for token in line.split():
            try:
                values.append(int(token))
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-integer token {token!r} in {what}"
                ) from None
    if not values:
        raise DataFormatError(f"{path}: empty {what} file")
    return values


def load_benson(path_nverts, path_simplices, name: str | None = None) -> DatasetBundle:
    """Load the paired sizes/vertex-stream format.

    Line ``i`` of the sizes file gives hyperedge ``i``'s vertex count, a
    nonnegative integer; the stream file supplies that many ids. The two
    files must account for exactly the same number of ids.
    """
    path_nverts = Path(path_nverts)
    path_simplices = Path(path_simplices)
    sizes = _read_ints(path_nverts, "sizes")
    negative = [k for k in sizes if k < 0]
    if negative:
        raise DataFormatError(f"{path_nverts}: negative hyperedge size {negative[0]}")
    stream = _read_ints(path_simplices, "vertex stream")
    total = sum(sizes)
    if total != len(stream):
        raise DataFormatError(
            f"sizes in {path_nverts} sum to {total} ids but {path_simplices} "
            f"holds {len(stream)}"
        )
    rows: list[list[str]] = []
    dropped = 0
    pos = 0
    for k in sizes:
        chunk = stream[pos : pos + k]
        pos += k
        distinct = sorted(set(chunk))
        if len(distinct) < 2:
            dropped += 1
            continue
        rows.append([str(v) for v in distinct])
    if not rows:
        raise DataFormatError(f"{path_simplices}: no usable hyperedges (size >= 2)")
    if dropped:
        logger.warning("dropped %d hyperedges with < 2 distinct vertices", dropped)
    h, labels = hypergraph_from_labels(rows)
    return DatasetBundle(
        name=name or path_nverts.stem.replace("-nverts", ""),
        hypergraph=h,
        labels=labels,
        provenance={
            "nverts": str(path_nverts),
            "nverts_sha256": sha256_file(path_nverts),
            "simplices": str(path_simplices),
            "simplices_sha256": sha256_file(path_simplices),
        },
        dropped_small=dropped,
    )


def load_plain(path, name: str | None = None) -> DatasetBundle:
    """Load the one-hyperedge-per-line label format."""
    path = Path(path)
    rows: list[list[str]] = []
    dropped = 0
    for lineno, line in enumerate(path.read_text().split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = sorted(set(body.split()))
        if len(tokens) < 2:
            dropped += 1
            logger.warning("%s:%d: fewer than 2 distinct labels, dropped", path, lineno)
            continue
        rows.append(tokens)
    if not rows:
        raise DataFormatError(f"{path}: no usable hyperedges")
    h, labels = hypergraph_from_labels(rows)
    return DatasetBundle(
        name=name or path.stem,
        hypergraph=h,
        labels=labels,
        provenance={"path": str(path), "sha256": sha256_file(path)},
        dropped_small=dropped,
    )


def save_plain(h: Hypergraph, path, labels: Sequence[str] | None = None) -> None:
    """Write one hyperedge per line; ``labels`` maps vertex ids back to
    external names (defaults to the ids themselves)."""
    name = str if labels is None else labels.__getitem__
    lines = [" ".join(map(name, row)) for row in h.rows()]
    Path(path).write_text("\n".join(lines) + "\n")


def _truncated_powerlaw_nll(
    zeta: float, ks: np.ndarray, counts: np.ndarray, support: np.ndarray
) -> float:
    log_norm = math.log(np.sum(support ** (-zeta)))
    return float(zeta * np.sum(counts * np.log(ks)) + counts.sum() * log_norm)


def _golden_section(fn, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def fit_power_law(
    dist: Mapping[int, int],
    k_min: int = 2,
    k_max: int = 10,
    method: str = "mle",
) -> SizeDistFit:
    """Fit ``P(k) proportional to k**(-zeta)`` on sizes in
    ``[k_min, k_max]``.

    ``mle`` maximizes the truncated discrete likelihood by golden-section
    search over ``zeta`` in [0, 10] to 1e-4; ``lsq`` instead regresses log
    counts on log size. Sizes outside the window are ignored. Counts only
    matter through their proportions, so rescaling all of them leaves the
    fit unchanged.
    """
    if k_min >= k_max:
        raise ValueError(f"need k_min < k_max, got {k_min} >= {k_max}")
    in_range = {k: c for k, c in dist.items() if k_min <= k <= k_max and c > 0}
    if len(in_range) < 2:
        raise ValueError(
            f"need counts for at least two distinct sizes in [{k_min}, {k_max}], "
            f"got {len(in_range)}"
        )
    ks = np.array(sorted(in_range), dtype=np.float64)
    counts = np.array([in_range[int(k)] for k in ks], dtype=np.float64)
    support = np.arange(k_min, k_max + 1, dtype=np.float64)

    if method == "mle":
        zeta = _golden_section(
            lambda z: _truncated_powerlaw_nll(z, ks, counts, support),
            0.0,
            10.0,
            1e-4,
        )
    elif method == "lsq":
        slope, _ = np.polyfit(np.log(ks), np.log(counts), 1)
        zeta = -float(slope)
    else:
        raise ValueError(f"unknown fit method {method!r}; use 'mle' or 'lsq'")

    log_p = -zeta * np.log(ks) - math.log(np.sum(support ** (-zeta)))
    log_emp = np.log(counts / counts.sum())
    goodness = float(np.sum((log_emp - log_p) ** 2))
    return SizeDistFit(zeta=float(zeta), k_min=k_min, k_max=k_max, goodness=goodness, method=method)


def dataset_stats(bundle: DatasetBundle) -> dict:
    """Vertex/hyperedge/edge counts, width, and the size distribution of a
    bundle; edges are counted on the clique expansion (deduplicated)."""
    h = bundle.hypergraph
    g = clique_expand(h)
    return {
        "name": bundle.name,
        "n_vertices": h.n,
        "n_hyperedges": len(h),
        "n_edges": g.edge_count,
        "width": width(h) if len(h) else 0,
        "size_distribution": size_distribution(h),
        "dropped_small": bundle.dropped_small,
    }
