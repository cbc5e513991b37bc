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
import dataclasses
import os
import sys
import tempfile

sys.path.insert(0, sys.argv[1])
import row_digest  # first: it pins the threads and puts the checkout's src/ on the path
import cell_phases
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
# at this lambda_scale the polished supports hold most entries, and the
# polish solves on their complement; at the default, on the support
dense = dataclasses.replace(cfg, lambda_scale=0.05)
work = solve_work.solve_work(cfg) + solve_work.solve_work(dense)
assert [row.estimator for row, _ in work] == ["dtrace", "sqrt"] * 2, work
for row, est in work:
    assert est.converged and est.attempts >= 1, (row, est)
    assert est.dtype == "float32", (row, est)  # n = 20 > p: both factors are full rank
    # besides its CG steps, a polish computes each round's residual and tests
    # each solved iterate's gradient
    polish_gemms = est.gemms - CG_STEP_GEMMS * est.iterations
    assert polish_gemms > CG_STEP_GEMMS * est.cg_steps, (row, est, polish_gemms)
solvers = [solve_work.inner_solver(est) for _, est in work]
assert solvers == ["primal"] * 2 + ["complement"] * 2, work
with tempfile.TemporaryDirectory() as workdir:
    digest = row_digest.masked_sweep_digest(cfg, workdir)
assert len(digest) == 64, digest

ms, counts = cell_phases.cell_phases([cfg])
assert list(ms) == list(cell_phases.PHASES) and min(ms.values()) >= 0.0, ms
# a penalized cell passes through every phase besides the catch-all "other"
assert list(cell_phases.PHASES) == [
    "scenario", "sampling", "factor", "setup", "admm_loop", "polish", "scoring", "other",
], cell_phases.PHASES
assert all(ms[phase] > 0.0 for phase in cell_phases.PHASES[:-1]), ms
# two whitened roots and a joint diagonalizer per penalized solve, and the
# plugin's two inverse roots: PxqSolver reuses the roots' eigenpairs
assert (counts["cells"], counts["eigh"]) == (1, 8), counts

# cells run in worker processes, where the wrappers cannot see the solves
os.environ["LAPDIFF_THREADS"] = "2"
try:
    solve_work.solve_work(lapdiff.ExperimentConfig(dims=(9,), ratios=(1.0, 2.0), instances=1))
except solve_work.CaptureError as exc:
    assert "captured 0 solves for 2 dtrace/sqrt rows" in str(exc), exc
else:
    raise AssertionError("solve_work printed work it did not capture")
try:
    cell_phases.cell_phases([lapdiff.ExperimentConfig(dims=(9,), ratios=(1.0, 2.0), instances=1)])
except cell_phases.CaptureError as exc:
    assert "timed 0 of 2 cells" in str(exc), exc
else:
    raise AssertionError("cell_phases timed cells it did not see")
"""


def test_solve_work_and_row_digest_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SMOKE, str(ROOT / "tools")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


# a pass of cell_phases, checked from inside by a pre-wrapped scoring
# function, leaves every name of lapdiff.estimator and the function of each
# of _FactorPair's cached properties as it found them
UNTOUCHED = """\
import functools
import sys

sys.path.insert(0, sys.argv[1])
import row_digest  # first: it pins the threads and puts the checkout's src/ on the path
import cell_phases

import lapdiff
from lapdiff import estimator, experiments


pair_class = estimator._FactorPair


def snapshot():
    props = vars(pair_class).items()
    cached = {name: prop.func for name, prop in props if isinstance(prop, functools.cached_property)}
    return dict(vars(estimator)), cached


before = snapshot()
assert before[1], "no cached property found on _FactorPair"
changed = []
score = experiments.support_recovered


def checked(*args, **kwargs):
    now = snapshot()
    changed.append(sorted(
        name
        for seen, held in zip(now, before)
        for name in seen.keys() | held.keys()
        if seen.get(name) is not held.get(name)
    ))
    return score(*args, **kwargs)


experiments.support_recovered = checked
try:
    cell_phases.cell_phases([lapdiff.ExperimentConfig(dims=(9,), ratios=(2.0,), instances=1)])
finally:
    experiments.support_recovered = score
assert changed and not any(changed), changed
"""


def test_cell_phases_leaves_the_estimator_alone(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", UNTOUCHED, str(ROOT / "tools")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


# 8 code lines: blank lines, comment lines and the three docstrings do not
# count, a string that is not a docstring counts on both of its lines
CODE_LINES_MODULE = '''"""Module docstring,
on two lines."""

import os  # a comment after code


def f(x):
    """Function docstring."""
    # a comment line
    text = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 2
'''


def test_code_lines_counts_a_fixture(tmp_path):
    (tmp_path / "a.py").write_text(CODE_LINES_MODULE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"8 {tmp_path / 'a.py'}", f"1 {tmp_path / 'sub' / 'b.py'}", "9 total"
    ]
