"""One CLI call in a fresh interpreter, timed from inside.

    python3 perfbench/child.py --mode plain|trace|memory --result FILE -- ARGV...

Imports ``hyperlp.cli`` from the checkout's ``src/``, optionally installs
the span recorder (``trace``) or the tracemalloc tracker (``memory``),
then times ``hyperlp.cli.main(ARGV)`` and writes one JSON object to FILE:
exit code, wall and CPU seconds inside ``main``, import seconds, peak RSS,
and for the traced and memory modes their raw records.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["plain", "trace", "memory"], default="plain")
    parser.add_argument("--result", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hyperlp.cli

    import_s = time.perf_counter() - t0
    if not Path(hyperlp.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hyperlp was imported from {hyperlp.cli.__file__}, not {SRC}")

    recorder = tracker = None
    if opts.mode == "trace":
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    elif opts.mode == "memory":
        from tracing import MemoryTracker

        tracker = MemoryTracker()
        tracker.install()

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    rc = hyperlp.cli.main(argv)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0

    out = {
        "rc": rc,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        out["absent"] = recorder.absent
        out["spans"] = [s.as_row() for s in recorder.spans]
        out["folded"] = recorder.folded()
    if tracker is not None:
        out["absent"] = tracker.absent
        out["peaks_mb"] = tracker.peaks
    Path(opts.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
