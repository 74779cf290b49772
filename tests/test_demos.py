"""Every demo script and the README quickstart run to completion."""

import os
import re
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


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "MPLBACKEND": "Agg", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


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
