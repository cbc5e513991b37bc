"""The benchmark's own contract: smoke runs of every workload, the printed
metric names, the failure rule, the reference classifier and seeding.

Run with `PYTHONPATH=src python -m pytest -q perfbench/tests`.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import lapdiff  # noqa: E402
from perfbench import reference, run, workloads  # noqa: E402


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_benchmark(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.fixture(scope="module")
def estimate_workload(tmp_path_factory):
    return workloads.setup("estimate-cli", 5, str(tmp_path_factory.mktemp("estimate")))


@pytest.mark.parametrize(
    "overrides",
    [
        # one unbounded n = 77 cell; it stays unconverged at any max_iter
        dict(ratios=(1.0,), instances=1, max_iter=300),
        dict(ratios=(5.0,), instances=1),
    ],
)
def test_sweep_smoke(overrides, tmp_path):
    wl = workloads.setup("power-sweep", 3, str(tmp_path), **overrides)
    refs = run.build_references(wl, str(tmp_path / "cache"))
    ops, walls = run.timed_pass(wl, refs, 0)
    assert len(ops) == len(refs) and len(walls) == 1
    assert not [op.detail for op in ops if op.failed]
    metrics = run.end_to_end_metrics(ops, walls, setup_s=0.5)
    declared = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert declared == run.END_TO_END and set(metrics) == set(declared)
    if not any(op.well_posed for op in ops):
        assert math.isnan(metrics.pop("recovery_rate"))
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


def test_traced_estimate_cli_prints_the_declared_metrics():
    proc, lines = run_benchmark(
        "--workload", "estimate-cli", "--seed", "2", "--seconds", "0", "--trace", "1"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name in ("matio.read_mb", "cli.import_ms", "estimator.iterations", "linalg.root_calls"):
        assert result["metrics"][name]["value"] > 0


def test_declared_workloads_exist():
    assert [w["name"] for w in benchmark_spec()["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "cache", "__pycache__"))
    proc, lines = run_benchmark(
        "--workload", "power-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def _row(problem, error, converged=True):
    return lapdiff.SweepRow(
        p=problem.truth.shape[0], n=problem.n, ratio=problem.key[0], instance=problem.key[1],
        estimator="dtrace", support_recovered=False, sup_norm_error=error, iterations=10,
        converged=converged, wall_time_ms=1.0,
    )


def test_perturbed_sweep_result_fails(tmp_path):
    wl = workloads.setup("power-sweep", 4, str(tmp_path), ratios=(3.0,), instances=1)
    refs = run.build_references(wl, str(tmp_path))
    (problem, ref), = refs.values()
    exact = float(np.max(np.abs(ref.delta - problem.truth)))
    good, = wl.judge((1.0, [_row(problem, exact)], ""), refs)
    bad, = wl.judge((1.0, [_row(problem, exact + 1e-2 * ref.scale)], ""), refs)
    assert not good.failed and bad.failed
    perturbed = ref.delta.copy()
    perturbed[0, 1] += 1e-2 * ref.scale
    captured, = wl.judge((1.0, [_row(problem, exact)], ""), refs, {problem.key: perturbed})
    assert captured.failed


def test_perturbed_estimate_result_fails(estimate_workload, tmp_path):
    wl = estimate_workload
    refs = run.build_references(wl, str(tmp_path))
    key, _, _, outdir = wl.pairs[0]
    problem, ref = refs[key]
    os.makedirs(outdir, exist_ok=True)
    verdicts = []
    for shift in (0.0, 1e-2 * ref.scale):
        estimate = ref.delta.copy()
        estimate[3, 4] += shift
        lapdiff.write_matrix_csv(os.path.join(outdir, "delta_hat.csv"), estimate)
        with open(os.path.join(outdir, "report.txt"), "w") as fh:
            fh.write("iterations = 10\nconverged = true\n")
        op, = wl.judge((1.0, [(key, 1.0, 0, "")]), refs)
        verdicts.append(op.failed)
    op, = wl.judge((1.0, [(key, 1.0, 3, "error: solver did not converge")]), refs)
    assert verdicts == [False, True] and op.failed


def test_classifier_on_power_cells(tmp_path):
    wl = workloads.setup("power-sweep", 17, str(tmp_path), ratios=(1.0, 3.0), instances=1)
    kinds = {}
    for problem in wl.problems():
        kinds[problem.n] = reference.classify(problem.psi1, problem.psi2, problem.lam).kind
    assert kinds == {77: reference.UNBOUNDED, 229: reference.WELL_POSED}


def test_unbounded_cell_claiming_convergence_fails(tmp_path):
    wl = workloads.setup("power-sweep", 17, str(tmp_path), ratios=(1.0,), instances=1)
    refs = run.build_references(wl, str(tmp_path))
    (problem, ref), = refs.values()
    assert ref.kind == reference.UNBOUNDED
    honest, = wl.judge((1.0, [_row(problem, math.nan, converged=False)], ""), refs)
    claims, = wl.judge((1.0, [_row(problem, 1e6, converged=True)], ""), refs)
    assert not honest.failed and not honest.well_posed and claims.failed


def test_seed_changes_inputs(estimate_workload, tmp_path):
    def fingerprints(seed):
        wl = workloads.setup("power-sweep", seed, str(tmp_path), ratios=(3.0,), instances=2)
        return [reference.fingerprint(p.psi1, p.psi2, p.lam) for p in wl.problems()]

    assert fingerprints(1) == fingerprints(1)
    assert fingerprints(1) != fingerprints(2)
    other = workloads.setup("estimate-cli", 6, str(tmp_path / "other"))
    assert not np.array_equal(other.pairs[0][1], estimate_workload.pairs[0][1])
