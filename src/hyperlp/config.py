"""Plain key-value config files for the generator.

One ``key = value`` pair per line; ``#`` starts a comment. Lists are
whitespace-separated. Example::

    n = 200
    d = 2
    seed = 7
    percentiles = 1 2 3 4
    phi = power_law          # or explicit: 0.25 0.11 0.06 0.04
    alpha = 10
    gamma = median

``phi`` may name a preset or give explicit per-size values for sizes
``2..k_max``. A leading size-1 entry (one more value than there are
percentiles) is accepted and dropped: singletons contribute nothing
after clique expansion. ``r1``/``phi1`` keys are ignored the same way.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .latent import (
    DEFAULT_HOFF_ALPHA,
    DEFAULT_MAX_POTENTIAL,
    PHI_PRESETS,
    HoffParams,
    _at_least,
    _checked_percentiles,
    _checked_phi,
    build_potential,
    default_hoff_params,
    pairwise_distances,
    phi_preset,
    radii_from_percentiles,
    sample_latents,
)

logger = logging.getLogger(__name__)

_IGNORED_KEYS = {"r1", "phi1"}


class ConfigError(ValueError):
    """Config validation failure; the message carries the line number."""


@dataclass
class ModelConfig:
    n: int
    d: int = 2
    seed: int = 0
    percentiles: tuple[float, ...] = (1.0, 5.0, 9.0, 13.0)
    phi: tuple[float, ...] | str = "power_law"
    alpha: float = DEFAULT_HOFF_ALPHA
    gamma: float | None = None  # None means: median pairwise distance
    max_potential: int = DEFAULT_MAX_POTENTIAL
    replicates: int = 1
    n_list: tuple[int, ...] = field(default_factory=tuple)  # scan grids only
    d_list: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        """Refuse a bad value by its field's name (``ValueError``), so a
        hand-built config and a parsed one meet the same rules."""
        for key, low in (("n", 2), ("d", 1)):
            _at_least(key, min((getattr(self, key), *getattr(self, key + "_list"))), low)
        for key in ("seed", "max_potential", "replicates"):
            _at_least(key, getattr(self, key), 0)
        _checked_percentiles(self.percentiles)
        if isinstance(self.phi, str):
            if self.phi not in PHI_PRESETS:
                raise ValueError(f"phi must be one of {', '.join(PHI_PRESETS)}, got {self.phi!r}")
        else:
            _checked_phi(self.phi, self.k_max)
        HoffParams(self.alpha, 0.0 if self.gamma is None else self.gamma)  # None: the median

    @property
    def k_max(self) -> int:
        return len(self.percentiles) + 1

    def points(self) -> list[ModelConfig]:
        """One single-model config per (n, d) of the grid, n outer."""
        return [
            replace(self, n=n, d=d, n_list=(), d_list=())
            for n in self.n_list or (self.n,)
            for d in self.d_list or (self.d,)
        ]


def resolve_model(cfg: ModelConfig, seed: int):
    """The model every command draws from: sample positions; derive radii,
    candidates and offset from one distance pass; resolve phi. Returns
    ``(radii, pot, phi, hoff)``."""
    dist = pairwise_distances(sample_latents(cfg.n, cfg.d, seed))
    radii = radii_from_percentiles(dist, cfg.percentiles)
    pot = build_potential(dist, radii, max_potential=cfg.max_potential)
    if cfg.gamma is None:
        hoff = default_hoff_params(dist, cfg.alpha)
    else:
        hoff = HoffParams(cfg.alpha, cfg.gamma)
    if isinstance(cfg.phi, str):
        phi = phi_preset(
            cfg.phi, k_max=cfg.k_max, radii=radii, alpha=hoff.alpha, gamma=hoff.gamma, pot=pot
        )
    else:
        phi = np.asarray(cfg.phi, dtype=np.float64)
    return radii, pot, phi, hoff


def _parse_number(raw: str, key: str, lineno: int, kind=float):
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"line {lineno}: {key} expects {what}, got {raw!r}") from None


def parse_model_config(text: str) -> ModelConfig:
    """Parse config text; raises :class:`ConfigError` with a line number
    on the first invalid entry."""
    return _parse(text)[0]


def _parse(text: str) -> tuple[ModelConfig, dict[str, int]]:
    """The config and the line of each key it gives. The values are
    checked by :class:`ModelConfig`; a refusal is given the line of the
    field it names."""
    values: dict = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        key = key.lower()
        if key in _IGNORED_KEYS:
            logger.warning("line %d: %s is ignored (size-1 entries are unused)", lineno, key)
            continue
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        lines[key] = lineno
        if key in ("n", "d"):
            tokens = raw.replace(",", " ").split()
            if not tokens:
                raise ConfigError(f"line {lineno}: {key} needs at least one value")
            ints = tuple(_parse_number(t, key, lineno, int) for t in tokens)
            values[key] = ints[0]
            if len(ints) > 1:
                values[key + "_list"] = ints
        elif key in ("seed", "max_potential", "replicates"):
            values[key] = _parse_number(raw, key, lineno, int)
        elif key == "percentiles" or (key == "phi" and raw not in PHI_PRESETS):
            values[key] = tuple(_parse_number(t, key, lineno) for t in raw.split())
        elif key == "phi":
            values[key] = raw
        elif key == "gamma" and raw == "median":
            values[key] = None
        elif key in ("alpha", "gamma"):
            values[key] = _parse_number(raw, key, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if "n" not in values:
        raise ConfigError("missing required key 'n'")
    phi, sizes = values.get("phi"), len(values.get("percentiles", ModelConfig.percentiles))
    if isinstance(phi, tuple) and len(phi) == sizes + 1:
        logger.warning("line %d: phi has a size-1 entry; dropping it", lines["phi"])
        values["phi"] = phi[1:]
    try:
        return ModelConfig(**values), lines
    except ValueError as exc:  # the message starts with the field's name
        raise ConfigError(f"line {lines.get(str(exc).split()[0], 0)}: {exc}") from None


def load_model_config(path) -> ModelConfig:
    """The config of one model (``generate``, ``verify --claim cn-lift``): an
    ``n`` or ``d`` grid, which only ``scan`` reads (:func:`parse_model_config`),
    is refused rather than cut to its first value, and so is ``replicates``."""
    cfg, lines = _parse(Path(path).read_text())
    for key, grid in (("n", cfg.n_list), ("d", cfg.d_list)):
        if grid:
            raise ConfigError(
                f"line {lines[key]}: {key} has {len(grid)} values; only scan reads grids"
            )
    if "replicates" in lines:
        raise ConfigError(f"line {lines['replicates']}: replicates is read by scan only")
    return cfg
