"""The measuring tools under tools/: a smoke test, and the ledger of their output.

The tools pin thread environment variables at import, before numpy loads,
so they run in a fresh interpreter rather than in the test process. The
ledger test compares their whole output with the checked-in copy under
tests/ledger/. Three structural tests go with them: a pass of the tools
leaves every lapdiff module as it found it, src/ names its eigenvalue
floors in one place, and it reads the KKT tolerance in one verdict.
"""

import ast
import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a p = 9 sweep, one instance at n = 20, all three estimators
SMOKE = """\
import dataclasses
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, sys.argv[1])
import row_digest  # first: it pins the threads and puts the checkout's src/ on the path
import cell_phases
import solve_work

import lapdiff
from lapdiff.estimator import CG_STEP_GEMMS
from lapdiff.experiments import CSV_HEADER

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
rows = lapdiff.run_sweep(cfg).rows
work = [(row, row.solve) for row in rows + lapdiff.run_sweep(dense).rows if row.solve is not None]
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

# a line per row, its CSV fields with the wall time masked beside its work,
# then the totals of the penalized solves
lines = solve_work.case_lines("smoke", cfg)
assert [row.estimator for row in rows] == ["dtrace", "plugin", "sqrt"] and len(lines) == 4, lines
for line, row in zip(lines, rows):
    name, fields, *columns = line.split(" ")
    assert name == "smoke" and fields == row.to_csv().rsplit(",", 1)[0] + ",-", (line, row)
    est = row.solve
    expected = ["-"] * 7 if est is None else [
        str(est.iterations), str(est.cg_steps), str(est.attempts), str(est.gemms),
        est.stop, est.dtype, solve_work.inner_solver(est),
    ]
    assert columns == expected and len(columns) == len(solve_work.WORK_COLUMNS), (line, est)
assert lines[-1].startswith("smoke total ") and " polished=2,max_iter=0,raised=0 " in lines[-1]
# the rows' fields are the sweep CSV's, whose masked digest they reproduce
with tempfile.TemporaryDirectory() as workdir:
    path = os.path.join(workdir, "rows.csv")
    lapdiff.write_sweep_csv(path, rows)
    digest = row_digest.masked_csv_digest(path)
masked = "\\n".join([CSV_HEADER] + [line.split(" ")[1] for line in lines[:-1]])
assert digest == hashlib.sha256(masked.encode()).hexdigest(), digest

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
inline = solve_work.case_lines("two", two_cells)
assert len(inline) == 3, inline
inline_ms, inline_cells = cell_phases.cell_phases([two_cells])
os.environ["LAPDIFF_THREADS"] = "2"
assert solve_work.case_lines("two", two_cells) == inline
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


def test_ledger_matches_the_tools():
    # the ledger is the tools' stdout, redirected; a line that differs is a
    # row, a digest or a solve's work that moved. Regenerate it only for a
    # change meant to move those lines, and say which moved and why.
    env = dict(os.environ, LAPDIFF_THREADS="1", OPENBLAS_NUM_THREADS="1")
    runs = {
        name: subprocess.Popen(
            [sys.executable, str(ROOT / "tools" / f"{name}.py")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for name in ("row_digest", "solve_work")
    }
    moved = []
    for name, run in runs.items():
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err[-2000:]
        ledger = ROOT / "tests" / "ledger" / f"{name}.txt"
        moved += difflib.unified_diff(
            ledger.read_text().splitlines(), out.splitlines(),
            str(ledger), f"tools/{name}.py", n=0, lineterm="",
        )
    assert not moved, "\n".join(moved)


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
    solve_work.case_lines("untouched", cfg)
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


def users_of(names, attributes):
    """Qualified names of the functions of src/lapdiff that name one of names or attributes."""
    users = set()
    for path in sorted((ROOT / "src" / "lapdiff").glob("*.py")):
        scopes = [(ast.parse(path.read_text()), path.stem)]
        while scopes:
            node, scope = scopes.pop()
            for child in ast.iter_child_nodes(node):
                name = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{scope}.{child.name}"
                elif (
                    isinstance(child, ast.Name) and child.id in names
                    or isinstance(child, ast.Attribute) and child.attr in attributes
                ):
                    users.add(scope)
                scopes.append((child, name))
    return users


def test_eigenvalue_floors_are_named_only_by_the_classifier():
    users = users_of(("EIG_RELATIVE_FLOOR", "_SMALLEST_NORMAL"), ("tiny", "smallest_normal"))
    # linalg's module level defines the constants
    assert users - {"linalg"} == set(FLOOR_USERS), sorted(users)


# The functions of src/lapdiff that may name POLISH_TOL or read a factor
# pair's tol. estimator._kkt_check alone decides whether an estimate is a KKT
# point; a second KKT test would read the tolerance too, and fail here.
TOL_USERS = {
    "estimator._FactorPair.__init__": "defines tol = POLISH_TOL max |P1 - P2|",
    "estimator._polish": "the inner solves' targets",
    "estimator._kkt_check": "the verdict",
}


def test_the_kkt_tolerance_is_read_only_by_the_certificate():
    users = users_of(("POLISH_TOL",), ("tol",))
    # estimator's module level defines POLISH_TOL
    assert users - {"estimator"} == set(TOL_USERS), sorted(users)


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
