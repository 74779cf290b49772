"""Seeded benchmark of the hyperlp CLI paths a user runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``
and writes inputs, outputs and a results file under ``.perfbench/``.
Workloads (see ``workloads.py``): ``loo-evaluate``, ``split-adjust`` and
``generator-scan``; ``--workload all`` runs the three in turn.

Load model: one closed-loop client. Each operation is a fresh child
interpreter that calls ``hyperlp.cli.main(argv)`` once; the next starts
when it has exited. No ``--threads`` is passed and ``HYPERLP_THREADS`` is
removed from the child environment, so the program's pool takes its
default size.

``--trace 0`` repeats the operation for ``--seconds`` and reports medians
of the end-to-end metrics; set-up time is each child's warm import of
``hyperlp.cli``. ``--trace 1`` runs one plain operation, one traced
operation and one tracemalloc operation, and reports the per-layer
metrics plus the tracing overhead (traced minus plain wall time). Every
operation's output is checked (``workloads.py``); the last stdout line is
the JSON result, and any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np
import scipy

from tracing import layer_metrics
from workloads import REFERENCE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
DEADLINE_S = 170.0


def child_env(threads: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HYPERLP_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["HYPERLP_THREADS"] = str(threads)
    return env


def warm_up(timeout: float) -> None:
    """Import the program once, unmeasured, so that every measured import
    finds its bytecode compiled and cached."""
    subprocess.run([sys.executable, "-c", "import hyperlp.cli"], env=child_env(),
                   check=True, timeout=timeout)


def run_op(argv: list[str], mode: str, result: Path, timeout: float, threads=None) -> dict:
    """One CLI call in a child interpreter; its JSON record, or an error."""
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--mode", mode, "--result", str(result), "--", *argv],
        env=child_env(threads), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not result.exists():
        return {"rc": proc.returncode, "error": proc.stderr[-2000:]}
    record = json.loads(result.read_text())
    if record["rc"] != 0:
        record["error"] = proc.stderr[-2000:]
    return record


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "llc": last_level_cache(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def last_level_cache() -> str | None:
    caches = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            caches.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    return f"L{max(caches)[0]} {max(caches)[1]}" if caches else None


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload, seed: int, seconds: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = WORK / f"{workload.name}-s{seed}-t{int(trace)}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.prep = workload.prepare(seed, self.work)
        self.recorded = self._reference().get(workload.name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ops: list[dict] = []

    @staticmethod
    def _reference() -> dict:
        return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def op(self, mode: str, threads=None) -> dict:
        for stale in self.prep.out.parent.glob(self.prep.out.name + ".*"):
            stale.unlink()
        rec = run_op(self.prep.argv, mode, self.work / f"op-{mode}.json", self.remaining(), threads)
        rec["mode"] = mode
        if "error" in rec:
            self.attempted += self.w.operations
            self.failed += self.w.operations
            self.problems.append(f"{mode} op exited {rec['rc']}: {rec['error'].strip()[-500:]}")
        else:
            outcome = self.w.check(self.prep, self.recorded)
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.problems += outcome.problems
            rec["values"] = outcome.values
        self.ops.append({k: v for k, v in rec.items() if k not in ("spans", "folded")})
        return rec

    def end_to_end(self) -> tuple[dict, dict]:
        warm_up(self.remaining())
        start = time.monotonic()
        while not self.ops or time.monotonic() - start < self.seconds:
            self.op("plain")
        ok = [o for o in self.ops if "error" not in o]
        if not ok:
            return {}, {}
        walls = [o["wall_s"] for o in ok]
        return {
            "wall_s": {"value": median(walls), "unit": "s"},
            "pairs_per_s": {"value": median([self.prep.pairs / w for w in walls]), "unit": "1/s"},
            "cpu_s": {"value": median([o["cpu_s"] for o in ok]), "unit": "s"},
            "peak_rss_mb": {"value": median([o["peak_rss_mb"] for o in ok]), "unit": "MB"},
            "setup_s": {"value": median([o["import_s"] for o in ok]), "unit": "s"},
            "ok_frac": {"value": 1.0 - self.failed / max(1, self.attempted), "unit": "ratio"},
        }, {}

    def per_layer(self) -> tuple[dict, dict]:
        plain = self.op("plain")
        traced = self.op("trace")
        memory = self.op("memory", threads=1)
        spans = traced.get("spans", [])
        metrics = layer_metrics(
            spans, traced.get("folded", {}), traced.get("absent", []),
            memory.get("peaks_mb", {}), memory.get("absent", []),
        )
        overhead = None
        if "wall_s" in plain and "wall_s" in traced:
            overhead = traced["wall_s"] - plain["wall_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return metrics, {"spans": spans, "folded": traced.get("folded", {})}

    def execute(self) -> dict:
        metrics, extra = self.per_layer() if self.trace else self.end_to_end()
        result = {
            "correct": self.failed == 0 and bool(metrics),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        details = {
            "workload": self.w.name,
            "why": self.w.why,
            "argv": self.prep.argv,
            "sizes": self.prep.sizes,
            "pairs_per_op": self.prep.pairs,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "environment": environment(),
            "problems": self.problems,
            "ops": self.ops,
            **extra,
            "result": result,
        }
        (self.work / "results.json").write_text(json.dumps(details, indent=1) + "\n")
        return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "hyperlp" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'hyperlp'}; run from a checkout root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = Run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results[name] = run.execute()
        for problem in run.problems:
            print(f"{name}: {problem}", file=sys.stderr)
        for metric, m in results[name]["metrics"].items():
            print(f"{name} {metric} {m['value']} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
