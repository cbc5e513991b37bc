"""Smoke test: the measuring tools under tools/ still run against the package.

The tools pin thread environment variables at import, before numpy loads,
so they run in a fresh interpreter rather than in the test process. Two
structural tests go with them: a pass of the tools leaves every lapdiff
module as it found it, and src/ names its eigenvalue floors in one place.
"""

import ast
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

ms, cells = cell_phases.cell_phases([cfg])
assert list(ms) == list(cell_phases.PHASES) and min(ms.values()) >= 0.0, ms
# a penalized cell passes through every phase besides the catch-all "other"
assert list(cell_phases.PHASES) == [
    "scenario", "sampling", "factor", "setup", "admm_loop", "polish", "scoring", "other",
], cell_phases.PHASES
assert all(ms[phase] > 0.0 for phase in cell_phases.PHASES[:-1]), ms
assert cells == 1, cells

# on 2 workers the cells run in worker processes: solve_work and cell_phases
# read the records and times that come back on the rows
two_cells = lapdiff.ExperimentConfig(dims=(9,), ratios=(1.0, 2.0), instances=1)


def work_counts(work):
    return [
        (row.sort_key(), est.iterations, est.cg_steps, est.attempts, est.gemms, est.stop, est.dtype)
        for row, est in work
    ]


inline = work_counts(solve_work.solve_work(two_cells))
assert len(inline) == 2, inline
inline_ms, inline_cells = cell_phases.cell_phases([two_cells])
os.environ["LAPDIFF_THREADS"] = "2"
assert work_counts(solve_work.solve_work(two_cells)) == inline
pool_ms, pool_cells = cell_phases.cell_phases([two_cells])
assert pool_cells == inline_cells == 2, (pool_cells, inline_cells)
assert list(pool_ms) == list(inline_ms) and min(pool_ms.values()) >= 0.0, pool_ms
"""


def test_solve_work_and_row_digest_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SMOKE, str(ROOT / "tools")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


# a pass of cell_phases and one of solve_work, checked from inside by a
# pre-wrapped scoring function, leave every name of every lapdiff module and
# of numpy.linalg, and the function of each of _FactorPair's cached
# properties, as they found them
UNTOUCHED = """\
import functools
import sys

sys.path.insert(0, sys.argv[1])
import row_digest  # first: it pins the threads and puts the checkout's src/ on the path
import cell_phases
import solve_work

import numpy as np

import lapdiff
from lapdiff import estimator, experiments


def snapshot():
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "lapdiff"]
    names = {(module.__name__, name): value for module in modules + [np.linalg]
             for name, value in vars(module).items()}
    props = vars(estimator._FactorPair).items()
    cached = {name: prop.func for name, prop in props if isinstance(prop, functools.cached_property)}
    return names, cached


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
before = snapshot()
assert ("lapdiff.experiments", "run_instance") in before[0], "lapdiff.experiments not watched"
assert before[1], "no cached property found on _FactorPair"
cfg = lapdiff.ExperimentConfig(dims=(9,), ratios=(2.0,), instances=1)
try:
    cell_phases.cell_phases([cfg])
    solve_work.solve_work(cfg)
finally:
    experiments.support_recovered = score
assert len(changed) == 2 and not any(changed), changed
"""


def test_tools_leave_every_lapdiff_module_alone(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", UNTOUCHED, str(ROOT / "tools")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


# The functions of src/lapdiff that may name EIG_RELATIVE_FLOOR or float64's
# smallest normal number. linalg._classify makes every verdict on an
# eigenvalue (null, PSD, definite, nonsingular); the others use the numbers
# for something else.
FLOOR_USERS = {
    "linalg._classify": "every eigenvalue verdict",
    "estimator._FactorPair.recession": "a candidate direction below rounding offers none",
    "estimator._cg_on_support": "the CG stops on curvature below rounding",
    "estimator.run_admm": "the scale bound on lmax(P1) lmax(P2)",
    "estimator.uniqueness_check": "the rank tolerance of [N1 N2] and its unit-row test",
    "experiments.SigmaSpec.__post_init__": "the condition bound of a drawn sigma",
}


def floor_users(tree, module):
    """Qualified names of the functions of a parsed module that name a floor."""
    users, scopes = set(), [(tree, module)]
    while scopes:
        node, scope = scopes.pop()
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
            elif (
                isinstance(child, ast.Name) and child.id in ("EIG_RELATIVE_FLOOR", "_SMALLEST_NORMAL")
                or isinstance(child, ast.Attribute) and child.attr in ("tiny", "smallest_normal")
            ):
                users.add(scope)
            scopes.append((child, name))
    return users


def test_eigenvalue_floors_are_named_only_by_the_classifier():
    users = set()
    for path in sorted((ROOT / "src" / "lapdiff").glob("*.py")):
        users |= floor_users(ast.parse(path.read_text()), path.stem)
    # linalg's module level defines the constants
    assert users - {"linalg"} == set(FLOOR_USERS), sorted(users)


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
