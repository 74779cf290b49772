"""Command-line entry point.

Subcommands: ``generate``, ``expand``, ``stats``, ``fit-sizes``,
``evaluate``, ``scan``, ``verify``, ``adjust``. Tabular results go to CSV
(RFC-4180 quoting, LF line endings, deterministic row order), structured
results to JSON with an embedded run manifest; a sibling
``<out>.manifest.json`` records the full parameter set, seeds, tool
version, and input checksums. Reruns with the same manifest produce
byte-identical CSV.

Exit codes: 0 success, 2 validation error or resource limit (the
candidate enumeration cap, ``max_potential``), 3 data error, 4 internal
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ModelConfig, load_model_config
from .datasets import (
    DataFormatError,
    DatasetBundle,
    dataset_stats,
    fit_power_law,
    load_benson,
    load_plain,
    save_plain,
)
from .evaluation import (
    ScanPoint,
    SplitSpec,
    auc,
    auc_conditional,
    leave_one_out,
    overestimation_scan,
    split_evaluate,
)
from .heuristics import SCORER_IDS
from .hypergraph import Hypergraph, clique_expand, size_distribution
from .latent import (
    HoffParams,
    ResourceLimitError,
    build_potential,
    pairwise_distances,
    phi_preset,
    radii_from_percentiles,
    sample_hypergraph,
    sample_latents,
)
from .relocation import adjusted_auc, performance_reversal_check
from .verify import (
    verify_er_auc_baseline,
    verify_er_clustering,
    verify_er_common_neighbors,
    verify_higher_order_auc_lift,
    verify_relocation_baseline,
)

VERIFY_CLAIMS = ("cc", "cn-dist", "cn-lift", "er-auc", "relocation-baseline")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _algorithms(raw: str) -> list[str]:
    ids = [tok.strip().lower() for tok in raw.split(",") if tok.strip()]
    bad = [tok for tok in ids if tok not in SCORER_IDS]
    if bad or not ids:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm(s) {', '.join(bad) or '(none)'}; "
            f"valid ids: {', '.join(SCORER_IDS)}"
        )
    return ids


def _manifest(subcommand: str, params: dict, seeds: list[int], inputs: dict) -> dict:
    return {
        "subcommand": subcommand,
        "version": __version__,
        "params": params,
        "seeds": seeds,
        "input_checksums": {str(k): _sha256_file(v) for k, v in inputs.items()},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit(payload: dict, args, csv_header=None, csv_rows=None) -> None:
    """Write CSV/JSON/manifest next to --out, or JSON to stdout."""
    out = getattr(args, "out", None)
    if out is None:
        json.dump(payload, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if csv_header is not None:
        _write_csv(out.with_suffix(".csv"), csv_header, csv_rows or [])
    out.with_suffix(".json").write_text(json.dumps(payload, indent=2, default=str) + "\n")
    manifest_path = out.with_suffix(".manifest.json")
    manifest_path.write_text(json.dumps(payload.get("manifest", {}), indent=2) + "\n")


def _load_bundle(args) -> DatasetBundle:
    if getattr(args, "nverts", None) or getattr(args, "simplices", None):
        if not (args.nverts and args.simplices):
            raise ConfigError("the paired format needs both --nverts and --simplices")
        return load_benson(args.nverts, args.simplices)
    if not getattr(args, "data", None):
        raise ConfigError("no dataset given; use --data or --nverts/--simplices")
    return load_plain(args.data)


def _dataset_inputs(args) -> dict:
    inputs = {}
    if getattr(args, "data", None):
        inputs["data"] = args.data
    if getattr(args, "nverts", None):
        inputs["nverts"] = args.nverts
    if getattr(args, "simplices", None):
        inputs["simplices"] = args.simplices
    return inputs


def _resolve_model(cfg: ModelConfig, seed: int):
    """Sample positions, derive radii/candidates, and resolve phi."""
    positions = sample_latents(cfg.n, cfg.d, seed)
    radii = radii_from_percentiles(positions, cfg.percentiles)
    pot = build_potential(positions, radii, max_potential=cfg.max_potential)
    gamma = cfg.gamma
    if gamma is None:
        gamma = float(np.median(pairwise_distances(positions)))
    if isinstance(cfg.phi, str):
        phi = phi_preset(
            cfg.phi, k_max=cfg.k_max, radii=radii, alpha=cfg.alpha, gamma=gamma, pot=pot
        )
    else:
        phi = np.asarray(cfg.phi, dtype=np.float64)
    return positions, radii, pot, phi, HoffParams(cfg.alpha, gamma)


def _protocol_from_args(args):
    if args.protocol == "loo":
        return "loo"
    return SplitSpec(
        rho=args.rho,
        d_hop=args.d_hop,
        negative_ratio=None if args.negatives == "all" else args.negative_ratio,
        seed=args.split_seed if args.split_seed is not None else args.seed,
    )


def cmd_generate(args) -> int:
    cfg = load_model_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    positions, radii, pot, phi, hoff = _resolve_model(cfg, seed)
    h = sample_hypergraph(pot, phi, seed)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    hyg_path = out.with_suffix(".hyg")
    save_plain(h, hyg_path)

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
        {"config": args.config},
    )
    summary = {
        "n": cfg.n,
        "d": cfg.d,
        "seed": seed,
        "radii": radii.tolist(),
        "phi": np.asarray(phi).tolist(),
        "candidates_per_size": {s: len(pot.by_size.get(s, [])) for s in pot.sizes},
        "n_hyperedges": len(h.hyperedges),
        "size_distribution": size_distribution(h) if h.hyperedges else {},
        "hypergraph_file": str(hyg_path),
        "manifest": manifest,
    }
    out.with_suffix(".summary.json").write_text(
        json.dumps(summary, indent=2, default=str) + "\n"
    )
    out.with_suffix(".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {hyg_path} ({len(h.hyperedges)} hyperedges over {cfg.n} vertices)")
    return 0


def cmd_expand(args) -> int:
    bundle = _load_bundle(args)
    g = clique_expand(bundle.hypergraph)
    rows = sorted(
        [bundle.label_of(u), bundle.label_of(v)] for u, v in g.edges()
    )
    manifest = _manifest("expand", {"dataset": bundle.name}, [], _dataset_inputs(args))
    payload = {
        "dataset": bundle.name,
        "n_vertices": g.n,
        "n_edges": g.edge_count,
        "manifest": manifest,
    }
    if args.out is None:
        payload["edges"] = rows
    _emit(payload, args, csv_header=["u", "v"], csv_rows=rows)
    return 0


def cmd_stats(args) -> int:
    bundle = _load_bundle(args)
    stats = dataset_stats(bundle)
    manifest = _manifest("stats", {"dataset": bundle.name}, [], _dataset_inputs(args))
    row = [
        stats["name"],
        stats["n_vertices"],
        stats["n_hyperedges"],
        stats["n_edges"],
        stats["width"],
        json.dumps(stats["size_distribution"]),
    ]
    payload = {**stats, "manifest": manifest}
    _emit(
        payload,
        args,
        csv_header=["dataset", "n_vertices", "n_hyperedges", "n_edges", "width", "size_distribution"],
        csv_rows=[row],
    )
    return 0


def cmd_fit_sizes(args) -> int:
    bundle = _load_bundle(args)
    dist = size_distribution(bundle.hypergraph)
    fit = fit_power_law(dist, k_min=args.k_min, k_max=args.k_max, method=args.method)
    manifest = _manifest(
        "fit-sizes",
        {"dataset": bundle.name, "k_min": args.k_min, "k_max": args.k_max, "method": args.method},
        [],
        _dataset_inputs(args),
    )
    payload = {"dataset": bundle.name, **asdict(fit), "manifest": manifest}
    _emit(
        payload,
        args,
        csv_header=["dataset", "zeta", "k_min", "k_max", "goodness", "method"],
        csv_rows=[[bundle.name, fit.zeta, fit.k_min, fit.k_max, fit.goodness, fit.method]],
    )
    return 0


def cmd_evaluate(args) -> int:
    bundle = _load_bundle(args)
    g = clique_expand(bundle.hypergraph)
    protocol = _protocol_from_args(args)

    def one_scorer(scorer: str) -> dict:
        lp = leave_one_out(g, scorer) if protocol == "loo" else split_evaluate(g, scorer, protocol)
        entry = {
            "scorer": scorer,
            "auc": auc(lp.scores, lp.labels),
            "n_pos": lp.n_pos,
            "n_neg": lp.n_neg,
        }
        try:
            entry["auc_conditional"] = auc_conditional(lp.scores, lp.labels)
        except ValueError:
            entry["auc_conditional"] = None
        if args.runs > 0:
            report = adjusted_auc(
                bundle.hypergraph, scorer, protocol, n_runs=args.runs, seed=args.seed
            )
            entry.update(
                {
                    "auc_rel_mean": report.auc_rel_mean,
                    "auc_rel_std": report.auc_rel_std,
                    "af": report.af,
                    "auc_adjusted": report.auc_adjusted,
                    "n_runs": report.n_runs,
                    "_report": report,
                }
            )
        return entry

    results = []
    errors = {}
    for scorer in args.algorithms:
        try:
            results.append(one_scorer(scorer))
        except Exception as exc:  # isolated per-scorer failure
            errors[scorer] = str(exc)

    reversals = []
    if args.runs > 0 and len(results) >= 2:
        reversals = performance_reversal_check(
            {r["scorer"]: r.pop("_report") for r in results}
        )
    else:
        for r in results:
            r.pop("_report", None)

    manifest = _manifest(
        "evaluate",
        {
            "dataset": bundle.name,
            "algorithms": args.algorithms,
            "protocol": args.protocol,
            "runs": args.runs,
            "rho": args.rho,
            "d_hop": args.d_hop,
            "negatives": args.negatives,
            "negative_ratio": args.negative_ratio,
        },
        [args.seed],
        _dataset_inputs(args),
    )
    header = [
        "dataset", "scorer", "protocol", "auc", "auc_conditional", "n_pos", "n_neg",
        "auc_rel_mean", "auc_rel_std", "af", "auc_adjusted", "n_runs", "seed",
    ]
    rows = [
        [
            bundle.name, r["scorer"], args.protocol, r["auc"],
            "" if r.get("auc_conditional") is None else r["auc_conditional"],
            r["n_pos"], r["n_neg"],
            r.get("auc_rel_mean", ""), r.get("auc_rel_std", ""),
            r.get("af", ""), r.get("auc_adjusted", ""), r.get("n_runs", ""),
            args.seed,
        ]
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
    _emit(payload, args, csv_header=header, csv_rows=rows)
    if args.out is not None:
        for r in results:
            print(f"{bundle.name} {r['scorer']}: auc={r['auc']:.4f}", end="")
            if "auc_adjusted" in r:
                print(
                    f" rel={r['auc_rel_mean']:.4f}+-{r['auc_rel_std']:.4f}"
                    f" af={r['af']:.4f} adj={r['auc_adjusted']:.4f}"
                )
            else:
                print()
        for a, b in reversals:
            print(f"reversal: {a} vs {b}")
    if errors and not results:
        raise RuntimeError(f"every scorer failed: {errors}")
    return 0


def cmd_scan(args) -> int:
    cfg = load_model_config(args.config)
    if isinstance(cfg.phi, str):
        if cfg.phi in ("power_law", "constant"):
            phi = tuple(phi_preset(cfg.phi, k_max=cfg.k_max).tolist())
        else:
            raise ConfigError(
                "scan configs need an explicit phi vector or a geometry-free "
                "preset (power_law, constant)"
            )
    else:
        phi = tuple(cfg.phi)
    ns = cfg.n_list or (cfg.n,)
    ds = cfg.d_list or (cfg.d,)
    grid = [
        ScanPoint(n=n, d=d, percentiles=tuple(cfg.percentiles), phi=phi)
        for n in ns
        for d in ds
    ]
    seed = cfg.seed if args.seed is None else args.seed
    rows = overestimation_scan(
        grid,
        args.algorithms,
        seed=seed,
        replicates=cfg.replicates,
        max_potential=cfg.max_potential,
    )
    manifest = _manifest(
        "scan",
        {
            "config": str(args.config),
            "grid_size": len(grid),
            "replicates": cfg.replicates,
            "algorithms": args.algorithms,
        },
        [seed],
        {"config": args.config},
    )
    header = [
        "n", "d", "percentiles", "phi", "scorer", "seed",
        "model_auc", "heuristic_auc", "overestimated", "error",
    ]
    csv_rows = [
        [
            r.point.n, r.point.d,
            " ".join(str(x) for x in r.point.percentiles),
            " ".join(str(x) for x in r.point.phi),
            r.scorer, r.seed,
            "" if r.model_auc is None else r.model_auc,
            "" if r.heuristic_auc is None else r.heuristic_auc,
            "" if r.overestimated is None else r.overestimated,
            r.error or "",
        ]
        for r in rows
    ]
    n_flagged = sum(1 for r in rows if r.overestimated)
    payload = {
        "rows": len(rows),
        "flagged": n_flagged,
        "manifest": manifest,
    }
    _emit(payload, args, csv_header=header, csv_rows=csv_rows)
    if args.out is not None:
        print(f"{len(rows)} rows, {n_flagged} flagged as overestimated")
    return 0


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.claim == "cc":
        summaries = {"cc": verify_er_clustering(args.n, args.p, args.trials, seed)}
    elif args.claim == "cn-dist":
        summaries = {
            "cn-dist": verify_er_common_neighbors(
                args.n, args.p, args.trials, seed, chi_square=args.chi_square
            )
        }
    elif args.claim == "er-auc":
        summaries = verify_er_auc_baseline(
            args.n, args.p, args.algorithms, args.trials, seed
        )
    elif args.claim == "cn-lift":
        if not args.config:
            raise ConfigError("cn-lift needs --config with a generator model")
        cfg = load_model_config(args.config)
        _, _, pot, phi, _ = _resolve_model(cfg, cfg.seed)
        summaries = {
            "cn-lift": verify_higher_order_auc_lift(pot, phi, args.trials, seed)
        }
    elif args.claim == "relocation-baseline":
        if args.data:
            h = load_plain(args.data).hypergraph
        else:
            rng = np.random.default_rng(seed)
            pairs = [
                [int(a), int(b)]
                for a, b in (
                    rng.choice(args.n, size=2, replace=False) for _ in range(args.edges)
                )
            ]
            h = Hypergraph(args.n, pairs)
        summaries = verify_relocation_baseline(h, args.algorithms, args.runs, seed)
    else:
        raise ConfigError(f"unknown claim {args.claim!r}; valid: {', '.join(VERIFY_CLAIMS)}")

    manifest = _manifest(
        "verify",
        {"claim": args.claim, "trials": getattr(args, "trials", None)},
        [seed],
        {"config": args.config} if getattr(args, "config", None) else {},
    )
    payload = {
        "claim": args.claim,
        "summaries": {k: asdict(v) for k, v in summaries.items()},
        "all_pass": all(v.verdict == "pass" for v in summaries.values()),
        "manifest": manifest,
    }
    _emit(payload, args)
    if args.out is not None:
        for key, summary in summaries.items():
            print(f"{key}: {summary.verdict} (statistic {summary.statistic:.4f})")
    return 0


def cmd_adjust(args) -> int:
    bundle = _load_bundle(args)
    protocol = _protocol_from_args(args)

    reports = {}
    errors = {}
    for scorer in args.algorithms:
        try:
            reports[scorer] = adjusted_auc(
                bundle.hypergraph, scorer, protocol, n_runs=args.runs, seed=args.seed
            )
        except Exception as exc:  # isolated per-scorer failure
            errors[scorer] = str(exc)
    if not reports:
        raise RuntimeError(f"every scorer failed: {errors}")
    reversals = performance_reversal_check(reports)

    manifest = _manifest(
        "adjust",
        {
            "dataset": bundle.name,
            "algorithms": args.algorithms,
            "protocol": args.protocol,
            "runs": args.runs,
        },
        [args.seed],
        _dataset_inputs(args),
    )
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
    _emit(payload, args, csv_header=header, csv_rows=[row])
    if args.out is not None:
        for scorer, rep in reports.items():
            print(
                f"{bundle.name} {scorer}: auc={rep.auc_original:.4f} "
                f"rel={rep.auc_rel_mean:.4f}+-{rep.auc_rel_std:.4f} "
                f"af={rep.af:.4f} adj={rep.auc_adjusted:.4f}"
            )
        for a, b in reversals:
            print(f"reversal: {a} vs {b}")
    return 0


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
    sp.add_argument("--split-seed", type=int, default=None, dest="split_seed")


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
    sp.add_argument("--seed", type=int, default=None, help="override config seed")
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
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("scan", help="model-vs-heuristic AUC scan over a grid")
    sp.add_argument("--config", required=True)
    sp.add_argument("--algorithms", type=_algorithms, default=["cn", "aa"])
    sp.add_argument("--seed", type=int, default=None, help="override config seed")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("verify", help="Monte-Carlo claim checks")
    sp.add_argument("--claim", required=True, choices=VERIFY_CLAIMS)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--p", type=float, default=0.1)
    sp.add_argument("--chi-square", action="store_true", dest="chi_square")
    sp.add_argument("--algorithms", type=_algorithms, default=["cn", "aa", "pa", "jc", "ra"])
    sp.add_argument("--config", default=None, help="generator config (cn-lift)")
    sp.add_argument("--data", default=None, help="hypergraph file (relocation-baseline)")
    sp.add_argument("--edges", type=int, default=200, help="random 2-edges when no --data")
    sp.add_argument("--runs", type=int, default=50, help="relocation-baseline runs")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("adjust", help="relocation-adjusted AUC table")
    _add_dataset_args(sp)
    sp.add_argument("--algorithms", type=_algorithms, default=list(SCORER_IDS))
    _add_protocol_args(sp)
    sp.add_argument("--runs", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_adjust)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
