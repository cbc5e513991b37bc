"""Smoke test: every demo script runs to completion in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # run from a scratch directory: demo 06 writes its CSV to the working directory
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_uniqueness_demo_kernel_dims_match_closed_forms(tmp_path):
    out = run_demo(ROOT / "demos" / "05_uniqueness_diagnostic.py", tmp_path)
    pairs = re.findall(r"kernel_dim = (\d+) \(closed form (\d+)\)", out)
    # the constructed p = 6 pair and the p = 117, n = 77 grid case
    assert len(pairs) == 2, out
    assert all(reported == closed for reported, closed in pairs), out
