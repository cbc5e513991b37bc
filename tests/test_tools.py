"""Smoke test: the measuring tools under tools/ still run against the package.

The tools pin thread environment variables at import, before numpy loads,
so they run in a fresh interpreter rather than in the test process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a p = 9 sweep, one instance at n = 20, all three estimators
SMOKE = """\
import sys
import tempfile

sys.path.insert(0, sys.argv[1])
import row_digest  # first: it pins the threads and puts the checkout's src/ on the path
import solve_work

import lapdiff
from lapdiff.estimator import CG_STEP_GEMMS

cfg = lapdiff.ExperimentConfig(
    dims=(9,),
    ratios=(),
    sample_sizes=(20,),
    instances=1,
    estimators=("dtrace", "plugin", "sqrt"),
    rho=0.1,
    max_iter=2000,
)
work = solve_work.solve_work(cfg)
assert [row.estimator for row, *_ in work] == ["dtrace", "sqrt"], work
for row, est, polish_gemms, attempts, dtype in work:
    assert est.converged and attempts >= 1, (row, est, attempts)
    assert dtype == "float32", (row, dtype)  # n = 20 > p: both factors are full rank
    # besides its CG steps, a polish computes each round's residual and tests
    # each solved iterate's gradient
    assert polish_gemms > CG_STEP_GEMMS * est.cg_steps, (row, est, polish_gemms)
with tempfile.TemporaryDirectory() as workdir:
    digest = row_digest.masked_sweep_digest(cfg, workdir)
assert len(digest) == 64, digest
"""


def test_solve_work_and_row_digest_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SMOKE, str(ROOT / "tools")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_gil_probe_prints_one_row_per_routine(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gil_probe.py"), "--seconds", "0.02", "--p", "16"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = [line.split() for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert rows[0] == ["routine", "ms/call", "kept"]
    assert [row[0] for row in rows[1:]] == [
        "eigh", "eigvalsh", "solve", "inv", "cholesky", "svd", "slogdet", "matrix_rank",
    ]
    assert all(len(row) == 3 for row in rows[1:])
