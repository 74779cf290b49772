"""Every demo script, the README quickstart and the README command-line
examples run to completion, and every name the demos and tools import
from hyperlp exists."""

import ast
import hashlib
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hyperlp.cli import main

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    "01_generate_and_expand.py",
    "02_sizes_and_sigmoid_gap.py",
    "03_auc_inflation_scan.py",
    "04_toy_walkthroughs.py",
    "05_relocation_adjustment.py",
    "06_random_graph_baselines.py",
]
# sha256 of a demo's stdout without its figure line (which depends on
# whether matplotlib is installed): demo 02's as it printed while the
# generator was described by a separate `LatentModel` record, demo 06's as
# it printed while relocation-baseline relocated through its own loop
PINNED_STDOUT = {
    "02_sizes_and_sigmoid_gap.py": "7978369ee43490319dcd14c5f6004f525f3184da92dced504f6f409cf12145ee",
    "06_random_graph_baselines.py": "20917e14546a8ee7aa06b2b7ace0a5c279a2950fb054c997310d936b2009846c",
}
FIGURE_LINE = re.compile(r"wrote \S+\.png$|matplotlib unavailable")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "MPLBACKEND": "Agg", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if demo in PINNED_STDOUT:
        shown = "".join(
            line for line in proc.stdout.splitlines(keepends=True) if not FIGURE_LINE.match(line)
        )
        assert hashlib.sha256(shown.encode()).hexdigest() == PINNED_STDOUT[demo]


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    script = tmp_path / "quickstart.py"
    script.write_text(code)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_generate_config_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    config = re.search(r"Generator configs are plain .*?```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "model.cfg").write_text(config)
    out = tmp_path / "out" / "run1"
    assert main(["generate", "--config", str(tmp_path / "model.cfg"), "--out", str(out)]) == 0
    assert out.with_suffix(".hyg").read_text().strip()


def test_readme_commands_run(tmp_path, monkeypatch):
    # every `hyperlp ...` line of the README's command-line block, in-process;
    # its ini block serves as both configs, the toy file as `mydata.hyg`
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```bash\n(.*?)```", readme, re.S).group(1)
    config = re.search(r"Generator configs are plain .*?```ini\n(.*?)```", readme, re.S).group(1)
    for name in ("scan.cfg", "model.cfg"):
        (tmp_path / name).write_text(config)
    toy = str(ROOT / "data" / "toy_five_vertex.hyg")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hyperlp ")]
    assert len(commands) == 5
    for argv in commands:
        argv = [toy if arg in ("mydata.hyg", "data/toy_five_vertex.hyg") else arg for arg in argv]
        assert main(argv) == 0, argv


def _hyperlp_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) of each ``from hyperlp... import name`` in a file,
    and (module, None) of each ``import hyperlp...``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hyperlp":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "hyperlp"]
    return found


@pytest.mark.parametrize("script", sorted(
    str(p.relative_to(ROOT)) for folder in ("tools", "demos") for p in (ROOT / folder).glob("*.py")
))
def test_script_imports_exist(script):
    # tools/paper_scale.py takes a minute and no test runs it, so a name
    # moved in src/ would otherwise break it unseen; the files are parsed,
    # not run
    imports = _hyperlp_imports(ROOT / script)
    assert imports, f"{script} imports nothing from hyperlp"
    for module, name in imports:
        owner = importlib.import_module(module)
        if name is None or hasattr(owner, name):
            continue
        try:  # a submodule not yet imported
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            pytest.fail(f"{script} imports {name} from {module}, which has no such name")
