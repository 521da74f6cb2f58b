"""Every script under ``demos/`` runs to a clean finish.

Each demo asserts its own numbers (closed forms, sum rules, cross-method
agreement), so a run that exits 0 with runtime and user warnings made errors
checks them all.  Each runs as a fresh process, the way a reader starts it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_schmidt_ladders", "02_tradeoff_frontier", "03_prolate_modes", "04_noise_ensembles", "05_qkd_budget"]


def test_every_demo_is_listed():
    assert sorted(path.stem for path in (ROOT / "demos").glob("*.py")) == DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::UserWarning", str(ROOT / "demos" / f"{demo}.py")]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
