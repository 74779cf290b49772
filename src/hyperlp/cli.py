"""Command-line entry point.

Subcommands: ``generate``, ``expand``, ``stats``, ``fit-sizes``,
``evaluate``, ``scan``, ``verify``, ``adjust``. Tabular results go to CSV
(RFC-4180 quoting, LF line endings, deterministic row order), structured
results to JSON with an embedded run manifest; a sibling
``<out>.manifest.json`` records the full parameter set, seeds, tool
version, and input checksums (a dataset's from its loader, a config
file's when the manifest is built). Reruns with the same manifest
produce byte-identical CSV. Commands return their :class:`Output`;
:func:`main` writes it once the command has returned, so a command that
fails writes no file, whatever its exit code.

``evaluate`` and ``adjust`` lay out one scoring step (:func:`_scored`):
one ``adjusted_auc`` call (or, for ``evaluate --runs 0``, one
``evaluate_protocol`` call) that scores every scorer on the same graphs
and pairs; they read each scorer's AUC count or report, never a per-pair
score. A failed scorer goes to ``errors``; when every scorer failed, the
first scorer's error is raised, so a property of the data (a
``ValueError``, such as a graph with no non-edge) exits 2 and names the
reason.

Exit codes: 0 success, 2 validation error, resource limit (the
candidate enumeration cap, ``max_potential``) or a graph no protocol can
be evaluated on, 3 data error, 4 internal error.

Allocator policy: on glibc, :func:`main` first pins malloc's mmap and
trim thresholds (:func:`_keep_freed_pages`), so freed numpy temporaries
stay in the process instead of being faulted in afresh by the next one.
Importing this module changes nothing; only a call of :func:`main` does.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .config import ConfigError, load_model_config, parse_model_config, resolve_model
from .datasets import (
    DataFormatError,
    DatasetBundle,
    dataset_stats,
    fit_power_law,
    load_benson,
    load_plain,
    save_plain,
    sha256_file,
)
from .evaluation import AucCount, SplitSpec, evaluate_protocol, overestimation_scan
from .heuristics import SCORER_IDS
from .hypergraph import Hypergraph, clique_expand, size_distribution
from .latent import ResourceLimitError, sample_hypergraph
from .relocation import AdjustmentReport, adjusted_auc, performance_reversal_check, relocate
from .verify import (
    verify_er_auc_baseline,
    verify_er_clustering,
    verify_er_common_neighbors,
    verify_higher_order_auc_lift,
    verify_relocation_baseline,
)

@dataclass
class Output:
    """What a command produced, for :func:`main` to write: the JSON
    ``payload`` with its ``manifest``, a CSV table if ``header`` is set,
    extra files (suffix -> writer), and summary lines."""

    payload: dict
    header: list[str] | None = None
    rows: list[list] = field(default_factory=list)
    files: dict[str, Callable[[Path], None]] = field(default_factory=dict)
    json_suffix: str = ".json"
    lines: list[str] = field(default_factory=list)


def _finite(value):
    """``value`` with each non-finite float as None (RFC 8259 has no NaN)."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write(result: Output, out: str | None) -> None:
    """Write a command's files next to ``out``, then print its summary
    lines; without ``out``, print its payload as JSON."""
    payload = _finite(result.payload)
    text = json.dumps(payload, indent=2, default=str, allow_nan=False)
    if out is None:
        print(text)
        return
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if result.header is not None:
        with open(out.with_suffix(".csv"), "w", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
            writer.writerow(result.header)
            writer.writerows(result.rows)  # a None cell is written empty
    for suffix, write in result.files.items():
        write(out.with_suffix(suffix))
    out.with_suffix(result.json_suffix).write_text(text + "\n")
    manifest = json.dumps(payload["manifest"], indent=2, allow_nan=False)
    out.with_suffix(".manifest.json").write_text(manifest + "\n")
    for line in result.lines:
        print(line)


def _algorithms(raw: str) -> list[str]:
    # repeats dropped, first-seen order kept
    ids = list(dict.fromkeys(tok.strip().lower() for tok in raw.split(",") if tok.strip()))
    bad = [tok for tok in ids if tok not in SCORER_IDS]
    if bad or not ids:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm(s) {', '.join(bad) or '(none)'}; "
            f"valid ids: {', '.join(SCORER_IDS)}"
        )
    return ids


def _seed(raw: str) -> int:
    """A seed flag's value: an integer >= 0, as numpy's generators take."""
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {raw!r}")
    return int(raw)


# Each verify claim: the flags it reads, in manifest order (relocation-baseline
# reads --n and --edges only without --data), and the id its summaries report.
VERIFY_CLAIMS = {
    "cc": (("trials", "n", "p"), "er-clustering"),
    "cn-dist": (("trials", "n", "p", "chi_square"), "er-cn"),
    "cn-lift": (("config", "trials"), "cn-lift"),
    "er-auc": (("trials", "n", "p", "algorithms"), "er-auc"),
    "relocation-baseline": (("data", "n", "edges", "algorithms", "runs"), "relocation-baseline"),
}
# Each verify flag: its type (None: a switch), default, least value (below it
# there is nothing to draw) and help. The parser leaves each None when not
# given, so that a flag the claim does not read is refused, in this order
# (the files first).
_VERIFY_FLAGS = {
    "config": (str, None, None, "generator config"),
    "data": (str, None, None, "hypergraph file of width 2"),
    "trials": (int, 100, None, "Monte-Carlo trials"),
    "n": (int, 100, 2, "vertices"),
    "p": (float, 0.1, None, "edge probability"),
    "chi_square": (None, False, None, "add a chi-square test of the binomial law"),
    "algorithms": (_algorithms, ["cn", "aa", "pa", "jc", "ra"], None, "scorers"),
    "edges": (int, 200, 1, "random pairs when no --data"),
    "runs": (int, 50, 1, "relocation runs"),
}


def _verify_epilog() -> str:
    """``verify --help``'s list of each claim's flags, with their defaults."""
    lines = ["claim (summary id): the flags it reads besides --seed, with their defaults"]
    for claim, (flags, summary_id) in VERIFY_CLAIMS.items():
        shown = ((f.replace("_", "-"), _VERIFY_FLAGS[f][1]) for f in flags)
        shown = (f"--{f} {','.join(v) if isinstance(v, list) else v}" for f, v in shown)
        lines.append(f"  {claim} ({summary_id}): {', '.join(shown)}")
    return "\n".join(lines + ["relocation-baseline reads --n and --edges only without --data"])


def _manifest(subcommand: str, params: dict, seeds: list[int], checksums: dict) -> dict:
    return {
        "subcommand": subcommand,
        "version": __version__,
        "params": params,
        "seeds": seeds,
        "input_checksums": checksums,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _checksums(bundle: DatasetBundle) -> dict[str, str]:
    """The loader's checksums of a dataset's files, by the flag that
    named each file."""
    p = bundle.provenance
    if "sha256" in p:  # load_plain
        return {"data": p["sha256"]}
    return {"nverts": p["nverts_sha256"], "simplices": p["simplices_sha256"]}


def _load_bundle(args) -> DatasetBundle:
    if args.nverts or args.simplices:
        if args.data:
            raise ConfigError("give either --data or --nverts/--simplices, not both")
        if not (args.nverts and args.simplices):
            raise ConfigError("the paired format needs both --nverts and --simplices")
        return load_benson(args.nverts, args.simplices)
    if not args.data:
        raise ConfigError("no dataset given; use --data or --nverts/--simplices")
    return load_plain(args.data)


def _split_spec(args) -> SplitSpec:
    """The split the scoring flags give. Built for ``--protocol loo`` too,
    so a bad value is refused whatever the protocol, by its flag's name."""
    seed = args.split_seed if args.split_seed is not None else args.seed
    try:
        spec = SplitSpec(args.rho, args.d_hop, args.negative_ratio, seed)
    except ValueError as exc:  # the message starts with the field's name
        key, rule = str(exc).split(" ", 1)
        raise ConfigError(f"--{key.replace('_', '-')} {rule}") from None
    return replace(spec, negative_ratio=None) if args.negatives == "all" else spec


def cmd_generate(args) -> Output:
    cfg = load_model_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    radii, pot, phi, hoff = resolve_model(cfg, seed)
    h = sample_hypergraph(pot, phi, seed)

    hyg_path = Path(args.out).with_suffix(".hyg")
    manifest = _manifest(
        "generate",
        {
            "config": str(args.config),
            "n": cfg.n,
            "d": cfg.d,
            "percentiles": list(cfg.percentiles),
            "phi": cfg.phi if isinstance(cfg.phi, str) else list(cfg.phi),
            "alpha": hoff.alpha,
            "gamma": hoff.gamma,
            "max_potential": cfg.max_potential,
            "hypergraph": str(hyg_path),
        },
        [seed],
        {"config": sha256_file(args.config)},
    )
    summary = {
        "n": cfg.n,
        "d": cfg.d,
        "seed": seed,
        "radii": radii.tolist(),
        "phi": np.asarray(phi).tolist(),
        "candidates_per_size": {s: len(pot.by_size[s]) for s in pot.sizes},
        "n_hyperedges": len(h),
        "size_distribution": size_distribution(h),
        "hypergraph_file": str(hyg_path),
        "manifest": manifest,
    }
    return Output(
        summary,
        files={".hyg": partial(save_plain, h)},
        json_suffix=".summary.json",
        lines=[f"wrote {hyg_path} ({len(h)} hyperedges over {cfg.n} vertices)"],
    )


def cmd_expand(args) -> Output:
    bundle = _load_bundle(args)
    g = clique_expand(bundle.hypergraph)
    labels = np.asarray(bundle.labels, dtype=object)
    rank = np.argsort(np.argsort(labels))  # each vertex's place in label order
    edges = g.edge_array()
    rows = labels[edges[np.lexsort(rank[edges].T[::-1])]].tolist()
    manifest = _manifest("expand", {"dataset": bundle.name}, [], _checksums(bundle))
    payload = {
        "dataset": bundle.name,
        "n_vertices": g.n,
        "n_edges": g.edge_count,
        "manifest": manifest,
    }
    if args.out is None:
        payload["edges"] = rows
    return Output(payload, ["u", "v"], rows)


def cmd_stats(args) -> Output:
    bundle = _load_bundle(args)
    stats = dataset_stats(bundle)
    manifest = _manifest("stats", {"dataset": bundle.name}, [], _checksums(bundle))
    row = [
        stats["name"],
        stats["n_vertices"],
        stats["n_hyperedges"],
        stats["n_edges"],
        stats["width"],
        json.dumps(stats["size_distribution"]),
    ]
    return Output(
        {**stats, "manifest": manifest},
        ["dataset", "n_vertices", "n_hyperedges", "n_edges", "width", "size_distribution"],
        [row],
    )


def cmd_fit_sizes(args) -> Output:
    bundle = _load_bundle(args)
    dist = size_distribution(bundle.hypergraph)
    fit = fit_power_law(dist, k_min=args.k_min, k_max=args.k_max, method=args.method)
    manifest = _manifest(
        "fit-sizes",
        {"dataset": bundle.name, "k_min": args.k_min, "k_max": args.k_max, "method": args.method},
        [],
        _checksums(bundle),
    )
    return Output(
        {"dataset": bundle.name, **asdict(fit), "manifest": manifest},
        ["dataset", "zeta", "k_min", "k_max", "goodness", "method"],
        [[bundle.name, fit.zeta, fit.k_min, fit.k_max, fit.goodness, fit.method]],
    )


_ENTRY_FIELDS = ("n_pos", "n_neg", "auc_conditional")  # an AucCount's and a report's
_REPORT_FIELDS = ("auc_rel_mean", "auc_rel_std", "af", "auc_adjusted", "n_runs")


def _evaluate_entry(scorer: str, result: AucCount | AdjustmentReport) -> dict:
    """One ``evaluate`` result, from a scorer's AUC count (``--runs 0``)
    or its adjustment report."""
    if isinstance(result, AdjustmentReport):
        fields, auc = _ENTRY_FIELDS + _REPORT_FIELDS, result.auc_original
    else:
        fields, auc = _ENTRY_FIELDS, result.auc
    return {"scorer": scorer, "auc": auc, **{k: getattr(result, k) for k in fields}}


def _entry_lines(dataset: str, entries: list[dict], reversals) -> list[str]:
    lines = []
    for r in entries:
        line = f"{dataset} {r['scorer']}: auc={r['auc']:.4f}"
        if "auc_adjusted" in r:
            line += (f" rel={r['auc_rel_mean']:.4f}+-{r['auc_rel_std']:.4f}"
                     f" af={r['af']:.4f} adj={r['auc_adjusted']:.4f}")
        lines.append(line)
    return lines + [f"reversal: {a} vs {b}" for a, b in reversals]


def _scored(args, relocate: bool):
    """``evaluate``'s and ``adjust``'s scoring: the bundle, the manifest
    (every flag the CSV depends on), each scorer's report (``args.runs``
    relocations if ``relocate``) or AUC count, the failed scorers' errors,
    and the reversals. Raises a resource limit any scorer hit (exit 2, not
    a result without that scorer), and the first scorer's error when every
    scorer failed. A bad flag value is refused first, by the flag's name."""
    least = int(relocate)  # evaluate --runs 0 relocates none
    if args.runs < least:
        raise ConfigError(f"--runs must be >= {least}, got {args.runs}")
    spec = _split_spec(args)
    bundle = _load_bundle(args)
    protocol = "loo" if args.protocol == "loo" else spec
    if relocate:
        outcome = adjusted_auc(
            bundle.hypergraph, args.algorithms, protocol, n_runs=args.runs, seed=args.seed
        )
    else:
        outcome = evaluate_protocol(clique_expand(bundle.hypergraph), args.algorithms, protocol)
    for result in outcome.values():
        if isinstance(result, ResourceLimitError):
            raise result
    done = {s: r for s, r in outcome.items() if not isinstance(r, Exception)}
    if not done:
        raise outcome[args.algorithms[0]]
    errors = {s: str(r) for s, r in outcome.items() if s not in done}
    reversals = performance_reversal_check(done) if relocate else []
    flags = ("algorithms", "protocol", "runs", "rho", "d_hop", "negatives", "negative_ratio")
    params = {"dataset": bundle.name, **{flag: getattr(args, flag) for flag in flags}}
    params["split_seed"] = spec.seed
    manifest = _manifest(args.subcommand, params, [args.seed], _checksums(bundle))
    return bundle, manifest, done, errors, reversals


def cmd_evaluate(args) -> Output:
    bundle, manifest, done, errors, reversals = _scored(args, relocate=args.runs > 0)
    results = [_evaluate_entry(s, r) for s, r in done.items()]
    header = [
        "dataset", "scorer", "protocol", "auc", "auc_conditional", "n_pos", "n_neg",
        "auc_rel_mean", "auc_rel_std", "af", "auc_adjusted", "n_runs", "seed",
    ]
    rows = [
        [bundle.name, r["scorer"], args.protocol]
        + [r.get(key) for key in header[3:-1]]
        + [args.seed]
        for r in results
    ]
    for a, b in reversals:
        rows.append([bundle.name, f"reversal:{a}>{b}", args.protocol] + [""] * 9 + [args.seed])
    payload = {
        "dataset": bundle.name,
        "protocol": args.protocol,
        "results": results,
        "reversals": [list(p) for p in reversals],
        "errors": errors,
        "manifest": manifest,
    }
    return Output(payload, header, rows, lines=_entry_lines(bundle.name, results, reversals))


def cmd_scan(args) -> Output:
    cfg = parse_model_config(Path(args.config).read_text())
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    rows = overestimation_scan(cfg, args.algorithms)
    manifest = _manifest(
        "scan",
        {
            "config": str(args.config),
            "grid_size": len(cfg.points()),
            "replicates": cfg.replicates,
            "algorithms": args.algorithms,
        },
        [cfg.seed],
        {"config": sha256_file(args.config)},
    )
    header = [
        "n", "d", "percentiles", "phi", "scorer", "seed",
        "model_auc", "heuristic_auc", "overestimated", "error",
    ]
    csv_rows = [
        [
            r.point.n, r.point.d,
            " ".join(str(x) for x in r.point.percentiles),
            r.point.phi if isinstance(r.point.phi, str) else " ".join(str(x) for x in r.point.phi),
            r.scorer, r.seed, r.model_auc, r.heuristic_auc, r.overestimated, r.error,
        ]
        for r in rows
    ]
    n_flagged = sum(1 for r in rows if r.overestimated)
    payload = {
        "rows": len(rows),
        "flagged": n_flagged,
        "manifest": manifest,
    }
    return Output(
        payload, header, csv_rows, lines=[f"{len(rows)} rows, {n_flagged} flagged as overestimated"]
    )


def _verify_params(args) -> dict:
    """Every flag ``args.claim`` reads, given or default. A flag given to
    a claim that does not read it, or a count below its least value, is
    refused before any trial runs."""
    reads = VERIFY_CLAIMS[args.claim][0]
    if "data" in reads and args.data is not None:
        reads = tuple(f for f in reads if f not in ("n", "edges"))
    for flag in _VERIFY_FLAGS:
        if getattr(args, flag) is not None and flag not in reads:
            name = "--" + flag.replace("_", "-")
            readers = [claim for claim, (flags, _) in VERIFY_CLAIMS.items() if flag in flags]
            if args.claim in readers:
                raise ConfigError(f"{name} is not read by {args.claim} with --data")
            raise ConfigError(f"{name} is read by {', '.join(readers)} only, not by {args.claim}")
    params = {}
    for flag in reads:
        _, default, least, _ = _VERIFY_FLAGS[flag]
        params[flag] = default if getattr(args, flag) is None else getattr(args, flag)
        if least is not None and params[flag] < least:
            raise ConfigError(f"--{flag} must be >= {least}, got {params[flag]}")
    return params


def cmd_verify(args) -> Output:
    params = _verify_params(args)
    n, p, trials, algorithms = (params.get(k) for k in ("n", "p", "trials", "algorithms"))
    checksums = {}
    if args.claim == "cc":
        summaries = {"cc": verify_er_clustering(**params, seed=args.seed)}
    elif args.claim == "cn-dist":
        summaries = {"cn-dist": verify_er_common_neighbors(**params, seed=args.seed)}
    elif args.claim == "er-auc":
        summaries = verify_er_auc_baseline(n, p, algorithms, trials, args.seed)
    elif args.claim == "cn-lift":
        if not args.config:
            raise ConfigError("cn-lift needs --config with a generator model")
        cfg = load_model_config(args.config)
        checksums = {"config": sha256_file(args.config)}
        _, pot, phi, _ = resolve_model(cfg, cfg.seed)
        summaries = {"cn-lift": verify_higher_order_auc_lift(pot, phi, trials, args.seed)}
    else:  # relocation-baseline
        if args.data:
            bundle = load_plain(args.data)
            h = bundle.hypergraph
            checksums = _checksums(bundle)
        else:  # each pair is choice(n, 2, replace=False) on the seed's stream
            h = relocate(Hypergraph(n, [[0, 1]] * params["edges"]), args.seed)
        summaries = verify_relocation_baseline(h, algorithms, params["runs"], args.seed)

    manifest = _manifest("verify", {"claim": args.claim, **params}, [args.seed], checksums)
    payload = {
        "claim": args.claim,
        "summaries": {k: asdict(v) for k, v in summaries.items()},
        "all_pass": all(v.verdict == "pass" for v in summaries.values()),
        "manifest": manifest,
    }
    return Output(payload, lines=[
        f"{key}: {summary.verdict} (statistic {summary.statistic:.4f})"
        for key, summary in summaries.items()
    ])


def cmd_adjust(args) -> Output:
    bundle, manifest, reports, errors, reversals = _scored(args, relocate=True)
    header = ["dataset"]
    row = [bundle.name]
    for scorer in args.algorithms:
        header += [
            f"{scorer}_auc", f"{scorer}_auc_rel_mean", f"{scorer}_auc_rel_std",
            f"{scorer}_af", f"{scorer}_auc_adj",
        ]
        if scorer in reports:
            rep = reports[scorer]
            row += [rep.auc_original, rep.auc_rel_mean, rep.auc_rel_std, rep.af, rep.auc_adjusted]
        else:
            row += [""] * 5
    payload = {
        "dataset": bundle.name,
        "reports": {k: asdict(v) for k, v in reports.items()},
        "reversals": [list(p) for p in reversals],
        "errors": errors,
        "manifest": manifest,
    }
    entries = [_evaluate_entry(s, r) for s, r in reports.items()]
    return Output(payload, header, [row], lines=_entry_lines(bundle.name, entries, reversals))


def _add_dataset_args(sp):
    sp.add_argument("--data", help="plain-format hypergraph file")
    sp.add_argument("--nverts", help="sizes file of the paired format")
    sp.add_argument("--simplices", help="vertex-stream file of the paired format")


def _add_protocol_args(sp):
    sp.add_argument("--protocol", choices=["loo", "split"], default="loo")
    sp.add_argument("--rho", type=float, default=0.8, help="train fraction for split")
    sp.add_argument("--d-hop", type=int, default=2, dest="d_hop")
    sp.add_argument("--negative-ratio", type=float, default=1.0, dest="negative_ratio")
    sp.add_argument(
        "--negatives", choices=["dhop", "all"], default="dhop",
        help="'all' evaluates every non-link instead of sampling",
    )
    sp.add_argument("--split-seed", type=_seed, default=None, dest="split_seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlp",
        description="Hypergraph link-prediction evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"hyperlp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("generate", help="draw a hypergraph from a generator config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True, help="output prefix")
    sp.add_argument("--seed", type=_seed, default=None, help="override config seed")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("expand", help="clique-expand a hypergraph to an edge list")
    _add_dataset_args(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("stats", help="dataset statistics")
    _add_dataset_args(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("fit-sizes", help="fit the hyperedge-size power law")
    _add_dataset_args(sp)
    sp.add_argument("--k-min", type=int, default=2, dest="k_min")
    sp.add_argument("--k-max", type=int, default=10, dest="k_max")
    sp.add_argument("--method", choices=["mle", "lsq"], default="mle")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_fit_sizes)

    sp = sub.add_parser("evaluate", help="score link prediction with adjustment")
    _add_dataset_args(sp)
    sp.add_argument("--algorithms", type=_algorithms, default=list(SCORER_IDS))
    _add_protocol_args(sp)
    sp.add_argument("--runs", type=int, default=5, help="relocation runs (0 disables)")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("scan", help="model-vs-heuristic AUC scan over a grid")
    sp.add_argument("--config", required=True)
    sp.add_argument("--algorithms", type=_algorithms, default=["cn", "aa"])
    sp.add_argument("--seed", type=_seed, default=None, help="override config seed")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser(
        "verify", help="Monte-Carlo claim checks", epilog=_verify_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sp.add_argument("--claim", required=True, choices=list(VERIFY_CLAIMS))
    sp.add_argument("--seed", type=_seed, default=0)
    for flag, (kind, _, least, text) in _VERIFY_FLAGS.items():
        kind = {"action": "store_true", "default": None} if kind is None else {"type": kind}
        text += f" (at least {least})" if least else ""
        sp.add_argument("--" + flag.replace("_", "-"), **kind, help=text)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("adjust", help="relocation-adjusted AUC table")
    _add_dataset_args(sp)
    sp.add_argument("--algorithms", type=_algorithms, default=list(SCORER_IDS))
    _add_protocol_args(sp)
    sp.add_argument("--runs", type=int, default=5)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_adjust)

    return parser


# mallopt parameters, and glibc's own ceilings for its dynamic thresholds on
# 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


def _keep_freed_pages() -> None:
    """Make glibc keep freed heap pages in this process: pin the mmap
    threshold at 32 MiB and the trim threshold at 64 MiB. Otherwise each
    freed multi-MB numpy temporary goes back to the kernel, and the next
    one faults in fresh zeroed pages. Both are set, because setting either
    one stops glibc adjusting the other. Does nothing on another libc."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc or not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a threshold glibc refuses (a 32-bit build) returns 0; trim alone would
    # then fault more than the default
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_pages()
    args = build_parser().parse_args(argv)
    try:
        _write(args.func(args), args.out)
    except (DataFormatError, FileNotFoundError) as exc:  # before ValueError: a subclass
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ResourceLimitError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
