"""The three workloads: seeded inputs, the CLI call, and its check.

Each workload turns the benchmark seed into input files plus the CLI
``--seed``, names the argv of one ``hyperlp`` call, counts the vertex
pairs that call must score, and checks the call's output files. The
check counts operations (per-scorer results, relocation runs, scan rows)
and the ones that failed: an error entry, a failed relocation run, or a
value that disagrees with the oracle or with the values recorded in
``reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

TOL = 1e-6
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Prepared:
    argv: list[str]
    out: Path
    pairs: int
    sizes: dict
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def _rng(salt: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed & (2**64 - 1)])


def write_hyperedges(path: Path, rng, n: int, m: int, k_max: int) -> list[list[int]]:
    """m uniform random hyperedges: size uniform in 2..k_max, members drawn
    without replacement from n vertices, written with string labels."""
    rows = [
        [int(v) for v in rng.choice(n, size=int(rng.integers(2, k_max + 1)), replace=False)]
        for _ in range(m)
    ]
    path.write_text("".join(" ".join(f"v{v:05d}" for v in row) + "\n" for row in rows))
    return rows


def _dense(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    ids: dict[int, int] = {}
    dense = [[ids.setdefault(v, len(ids)) for v in row] for row in rows]
    return len(ids), dense


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _identities(rep: dict, raw_key: str) -> list[str]:
    bad = []
    if rep["af"] != rep["auc_rel_mean"] / 0.5:
        bad.append("af != auc_rel_mean / 0.5")
    if rep["auc_adjusted"] != rep[raw_key] / rep["af"]:
        bad.append(f"auc_adjusted != {raw_key} / af")
    return bad


def compare_reference(outcome: Outcome, recorded: dict | None) -> None:
    """Compare the outcome's values with those recorded for this seed."""
    if not recorded:
        return
    for key, fields in recorded.items():
        got = outcome.values.get(key)
        if got is None:
            outcome.fail(1, f"{key}: missing, recorded at the reference commit")
            continue
        for name, want in fields.items():
            if not _close(got[name], want):
                outcome.fail(1, f"{key}.{name}: {got[name]!r} != recorded {want!r}")


class LooEvaluate:
    name = "loo-evaluate"
    why = ("evaluate --protocol loo, n=300, 450 hyperedges of sizes 2..5, 1 run, "
           "cn,aa,ra,pa,jc: per-pair scoring and one graph copy per edge dominate")
    salt = 1
    n, m, k_max, runs = 300, 450, 5, 1
    scorers = ("cn", "aa", "ra", "pa", "jc")
    operations = len(scorers) * (1 + runs)

    def prepare(self, seed: int, work: Path) -> Prepared:
        rng = _rng(self.salt, seed)
        cli_seed = int(rng.integers(0, 2**31))
        data = work / "loo.hyg"
        n, rows = _dense(write_hyperedges(data, rng, self.n, self.m, self.k_max))
        a = oracle.adjacency(n, rows)
        n_pairs = n * (n - 1) // 2
        n_edges = a.nnz // 2
        aucs = {s: oracle.loo_auc(a, s) for s in self.scorers}
        out = work / "out" / "evaluate"
        argv = ["evaluate", "--data", str(data), "--protocol", "loo",
                "--runs", str(self.runs), "--algorithms", ",".join(self.scorers),
                "--seed", str(cli_seed), "--out", str(out)]
        return Prepared(
            argv=argv,
            out=out,
            pairs=(1 + self.runs) * len(self.scorers) * n_pairs,
            sizes={"vertices": n, "hyperedges": self.m, "edges": n_edges, "pairs": n_pairs},
            expect={"n_pos": n_edges, "n_neg": n_pairs - n_edges, "auc": aucs},
        )

    def check(self, prep: Prepared, recorded: dict | None) -> Outcome:
        outcome = Outcome()
        payload = json.loads(prep.out.with_suffix(".json").read_text())
        results = {r["scorer"]: r for r in payload["results"]}
        for scorer in self.scorers:
            outcome.attempted += 1 + self.runs
            r = results.get(scorer)
            if r is None:
                outcome.fail(1 + self.runs, f"{scorer}: {payload['errors'].get(scorer, 'no result')}")
                continue
            bad = _identities(r, "auc")
            for key in ("n_pos", "n_neg"):
                if r[key] != prep.expect[key]:
                    bad.append(f"{key} {r[key]} != {prep.expect[key]}")
            want, bound = prep.expect["auc"][scorer]
            if abs(r["auc"] - want) > TOL + bound:
                bad.append(f"auc {r['auc']!r} != oracle {want!r} (+-{TOL:g} + order bound {bound:.3g})")
            if r["n_runs"] != self.runs:
                outcome.fail(self.runs - r["n_runs"], f"{scorer}: {r['n_runs']} of {self.runs} relocation runs kept")
            if bad:
                outcome.fail(1, f"{scorer}: " + "; ".join(bad))
            outcome.values[scorer] = {k: r[k] for k in ("auc", "auc_rel_mean", "af", "auc_adjusted")}
        compare_reference(outcome, recorded)
        return outcome


class SplitAdjust:
    name = "split-adjust"
    why = ("adjust --protocol split, n=600, 1800 hyperedges of sizes 2..6, 2 runs, cn,aa,pa: "
           "the BFS sweeps of distance-limited negative sampling dominate")
    salt = 2
    n, m, k_max, runs = 600, 1800, 6, 2
    scorers = ("cn", "aa", "pa")
    operations = len(scorers) * (1 + runs)
    rho, negative_ratio = 0.8, 1.0

    def prepare(self, seed: int, work: Path) -> Prepared:
        rng = _rng(self.salt, seed)
        cli_seed = int(rng.integers(0, 2**31))
        data = work / "split.hyg"
        n, rows = _dense(write_hyperedges(data, rng, self.n, self.m, self.k_max))
        n_edges = oracle.adjacency(n, rows).nnz // 2
        n_test = math.ceil((1.0 - self.rho) * n_edges)
        per_split = n_test + round(self.negative_ratio * n_test)
        out = work / "out" / "adjust"
        argv = ["adjust", "--data", str(data), "--protocol", "split",
                "--runs", str(self.runs), "--algorithms", ",".join(self.scorers),
                "--seed", str(cli_seed), "--out", str(out)]
        return Prepared(
            argv=argv,
            out=out,
            pairs=(1 + self.runs) * len(self.scorers) * per_split,
            sizes={"vertices": n, "hyperedges": self.m, "edges": n_edges, "pairs_per_split": per_split},
        )

    def check(self, prep: Prepared, recorded: dict | None) -> Outcome:
        outcome = Outcome()
        payload = json.loads(prep.out.with_suffix(".json").read_text())
        for scorer in self.scorers:
            outcome.attempted += 1 + self.runs
            rep = payload["reports"].get(scorer)
            if rep is None:
                outcome.fail(1 + self.runs, f"{scorer}: {payload['errors'].get(scorer, 'no report')}")
                continue
            kept = rep["n_runs"]
            if kept != self.runs or rep["failures"] or len(rep["auc_rel_runs"]) != kept:
                outcome.fail(self.runs - kept or 1, f"{scorer}: {kept} of {self.runs} runs kept, failures {rep['failures']}")
            bad = _identities(rep, "auc_original")
            if bad:
                outcome.fail(1, f"{scorer}: " + "; ".join(bad))
            outcome.values[scorer] = {
                k: rep[k] for k in ("auc_original", "auc_rel_mean", "af", "auc_adjusted")
            }
        compare_reference(outcome, recorded)
        return outcome


class GeneratorScan:
    name = "generator-scan"
    why = ("scan, n=60, d=2, percentiles 1 5 9 13, power_law phi, 3 replicates, cn,sr: "
           "candidate enumeration, the model ceiling and SimRank leave-one-out")
    salt = 3
    n, d, percentiles, replicates = 60, 2, (1, 5, 9, 13), 3
    scorers = ("cn", "sr")
    operations = replicates * len(scorers)

    def prepare(self, seed: int, work: Path) -> Prepared:
        cli_seed = int(_rng(self.salt, seed).integers(0, 2**31))
        config = work / "scan.cfg"
        config.write_text(
            f"n = {self.n}\nd = {self.d}\nseed = {cli_seed}\n"
            f"percentiles = {' '.join(map(str, self.percentiles))}\n"
            f"phi = power_law\nreplicates = {self.replicates}\n"
        )
        out = work / "out" / "scan"
        argv = ["scan", "--config", str(config), "--algorithms", ",".join(self.scorers),
                "--seed", str(cli_seed), "--out", str(out)]
        n_pairs = self.n * (self.n - 1) // 2
        return Prepared(
            argv=argv,
            out=out,
            pairs=self.replicates * (len(self.scorers) + 1) * n_pairs,
            sizes={"vertices": self.n, "replicates": self.replicates, "pairs": n_pairs},
        )

    def check(self, prep: Prepared, recorded: dict | None) -> Outcome:
        outcome = Outcome()
        with open(prep.out.with_suffix(".csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = self.operations
        outcome.attempted = max(expected, len(rows))
        if len(rows) != expected:
            outcome.fail(abs(expected - len(rows)), f"{len(rows)} scan rows, expected {expected}")
        for row in rows:
            key = f"{row['scorer']}:{row['seed']}"
            if row["error"]:
                outcome.fail(1, f"{key}: {row['error']}")
                continue
            model, heur = float(row["model_auc"]), float(row["heuristic_auc"])
            if row["overestimated"] != str(heur > model) or not (0 <= model <= 1 and 0 <= heur <= 1):
                outcome.fail(1, f"{key}: inconsistent row {row}")
            outcome.values[key] = {"model_auc": model, "heuristic_auc": heur}
        compare_reference(outcome, recorded)
        return outcome


WORKLOADS = {w.name: w for w in (LooEvaluate(), SplitAdjust(), GeneratorScan())}
