"""The benchmark's workloads: their inputs, the operations they issue, and
how each operation's output is judged against the reference.

Every input is made from the workload seed. The program sees only what a
user would give it: an ExperimentConfig for the sweeps, CSV files and flags
for the command line.
"""

import dataclasses
import math
import os
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import lapdiff
from perfbench import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("power-sweep", "estimate-cli")

# A well-posed operation fails when its sup-norm gap to the reference,
# relative to the reference's largest entry, exceeds this. The program's
# gaps at the parent commit are below 1e-6 on every workload.
GAP_TOL = 1e-4

# The power workloads share the bundled 118-bus case, rescaled as in
# acceptance criterion 6, and a lattice difference with weights of 4.
POWER_SCALE = 1.0 / 600.0
POWER_WEIGHT = 4.0
POWER_EPSILON = 2.0

ESTIMATE_N = 4000
ESTIMATE_PAIRS = 4
ESTIMATE_LAMBDA_SCALE = 0.5
ESTIMATE_RHO = "0.1"
CLI_TIMEOUT_S = 150


@dataclass
class Problem:
    """One operation's problem as the benchmark rebuilds it for the reference."""

    key: tuple
    n: int
    lam: float
    truth: np.ndarray
    epsilon: float
    psi1: np.ndarray
    psi2: np.ndarray


@dataclass
class Op:
    """One attempted operation: what the program reported and the verdict on it."""

    key: tuple
    ms: float
    failed: bool
    well_posed: bool
    agrees: bool = False
    recovered: bool = False
    gap: float = math.nan
    iterations: int = 0
    converged: bool = False
    detail: str = ""


def support_matches(estimate, truth, epsilon):
    """True when the off-diagonal support above epsilon equals the truth's."""
    off = ~np.eye(truth.shape[0], dtype=bool)
    return bool(np.array_equal((np.abs(estimate) > epsilon) & off, (truth != 0) & off))


def power_base():
    """The reduced, rescaled 118-bus Laplacian (117 x 117)."""
    case = lapdiff.load_case118()
    laplacian, ground = lapdiff.case_laplacian(case, "dc")
    return lapdiff.reduce_ground_node(laplacian, ground) * POWER_SCALE


class SweepWorkload:
    """A run_sweep call over a fixed set of cells, issued in a closed loop."""

    def __init__(self, name, cfg, base):
        self.name = name
        self.cfg = cfg
        self.base = base
        self.p = cfg.dims[0]

    def problems(self):
        """Rebuild every cell's problem the way lapdiff.experiments documents it.

        Each cell draws from RNG streams keyed by (cell seed, role); the cell
        seed comes from one SeedSequence over (sweep seed, p, the ratio's
        IEEE-754 bits, instance), and n = ceil(ratio d^2 log p) with d the
        difference's largest off-diagonal degree. A mismatch with the
        program's rows shows up as failed operations, never as a silent pass.
        """
        cfg, p = self.cfg, self.p
        out = []
        for ratio in cfg.ratios:
            for instance in range(cfg.instances):
                bits = struct.unpack("<Q", struct.pack("<d", float(ratio)))[0]
                seq = np.random.SeedSequence(entropy=(int(cfg.seed), p, bits, instance))
                cell_seed = int(seq.generate_state(1, dtype=np.uint64)[0])
                delta = lapdiff.lattice_delta(
                    p,
                    weight_range=cfg.delta_spec.weight_range,
                    sign_mode=cfg.delta_spec.sign_mode,
                    seed=[cell_seed, 0],
                )
                eye = np.eye(p)
                scenario = lapdiff.assemble_scenario(self.base, delta, eye, eye, seed=cell_seed)
                off = (delta != 0) & ~np.eye(p, dtype=bool)
                degree = int(off.sum(axis=1).max())
                n = int(math.ceil(ratio * degree * degree * math.log(p)))
                lam = cfg.lambda_scale * math.sqrt(math.log(p) / n)
                y1 = lapdiff.sample_potentials(scenario.b1, eye, n, seed=[cell_seed, 4])
                y2 = lapdiff.sample_potentials(scenario.b2, eye, n, seed=[cell_seed, 5])
                out.append(
                    Problem(
                        key=(float(ratio), instance),
                        n=n,
                        lam=lam,
                        truth=scenario.delta_true,
                        epsilon=cfg.support_epsilon,
                        psi1=reference.factor_from_samples(y1),
                        psi2=reference.factor_from_samples(y2),
                    )
                )
        return out

    def issue(self):
        """One closed-loop step: a whole sweep. Returns (wall_s, rows or None, error)."""
        start = time.perf_counter()
        try:
            rows = lapdiff.run_sweep(self.cfg).rows
            error = ""
        except Exception:
            rows, error = None, traceback.format_exc(limit=3)
        return time.perf_counter() - start, rows, error

    def judge(self, outcome, refs, estimates=None):
        """Verdicts on one sweep's rows; estimates maps a key to a captured matrix."""
        wall, rows, error = outcome
        if rows is None:
            return [Op(key, math.nan, True, refs[key][1].kind == reference.WELL_POSED, detail=error)
                    for key in refs]
        ops, seen = [], set()
        for row in rows:
            key = (float(row.ratio), int(row.instance))
            if key not in refs or key in seen:
                ops.append(Op(key, row.wall_time_ms, True, False, detail="unexpected row"))
                continue
            seen.add(key)
            problem, ref = refs[key]
            op = Op(key, row.wall_time_ms, False, ref.kind == reference.WELL_POSED,
                    iterations=row.iterations, converged=row.converged)
            if row.n != problem.n:
                op.failed, op.detail = True, f"n = {row.n}, reference built n = {problem.n}"
            elif not op.well_posed:
                op.failed = row.converged
                op.detail = "claims convergence on an unbounded problem" if op.failed else ""
            else:
                op.recovered = bool(row.support_recovered)
                op.agrees = op.recovered == support_matches(ref.delta, problem.truth, problem.epsilon)
                ref_error = float(np.max(np.abs(ref.delta - problem.truth)))
                # the row carries only the error to the truth; by the triangle
                # inequality its distance from the reference's error bounds the gap
                op.gap = abs(row.sup_norm_error - ref_error) / ref.scale
                if estimates is not None and key in estimates:
                    op.gap = max(op.gap, float(np.max(np.abs(estimates[key] - ref.delta))) / ref.scale)
                if not math.isfinite(row.sup_norm_error) or not op.gap <= GAP_TOL:
                    op.failed = True
                    op.detail = f"relative gap {op.gap:.3e} to the reference"
            ops.append(op)
        for key in refs.keys() - seen:
            ops.append(Op(key, math.nan, True, refs[key][1].kind == reference.WELL_POSED,
                          detail="missing row"))
        return ops


class EstimateWorkload:
    """Repeated `lapdiff estimate` processes on fixed sample CSVs.

    The seed makes ESTIMATE_PAIRS independent problems (truth and samples);
    one step runs one process per problem, so a run's mix of iteration
    counts does not hang on a single draw.
    """

    name = "estimate-cli"

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.sigma = os.path.join(workdir, "sigma.csv")
        base = power_base()
        p = base.shape[0]
        eye = np.eye(p)
        os.makedirs(workdir, exist_ok=True)
        lapdiff.write_matrix_csv(self.sigma, eye)
        self.lam = ESTIMATE_LAMBDA_SCALE * math.sqrt(math.log(p) / ESTIMATE_N)
        self.pairs = []
        for k in range(ESTIMATE_PAIRS):
            truth = lapdiff.lattice_delta(
                p, weight_range=(POWER_WEIGHT, POWER_WEIGHT), sign_mode="mixed", seed=[seed, k, 0]
            )
            scenario = lapdiff.assemble_scenario(base, truth, eye, eye, seed=seed)
            samples = []
            for role, b in ((1, scenario.b1), (2, scenario.b2)):
                path = os.path.join(workdir, f"samples{k}_{role}.csv")
                lapdiff.write_samples_csv(
                    path, lapdiff.sample_potentials(b, eye, ESTIMATE_N, seed=[seed, k, role])
                )
                samples.append(path)
            outdir = os.path.join(workdir, f"out{k}")
            self.pairs.append((("estimate", k), truth, samples, outdir))

    def problems(self):
        out = []
        for key, truth, samples, _ in self.pairs:
            y1, y2 = (np.loadtxt(path, delimiter=",", comments="#") for path in samples)
            out.append(
                Problem(
                    key=key,
                    n=ESTIMATE_N,
                    lam=self.lam,
                    truth=truth,
                    epsilon=POWER_EPSILON,
                    psi1=reference.factor_from_samples(y1),
                    psi2=reference.factor_from_samples(y2),
                )
            )
        return out

    def command(self, samples, outdir, spans_path=None):
        args = [
            "estimate",
            "--samples1", samples[0],
            "--samples2", samples[1],
            "--sigma-x1", self.sigma,
            "--sigma-x2", self.sigma,
            "--lambda", repr(self.lam),
            "--rho", ESTIMATE_RHO,
            "--out", outdir,
        ]
        if spans_path is None:
            return [sys.executable, "-m", "lapdiff.cli"] + args
        return [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"), spans_path] + args

    def issue(self, spans_dir=None):
        """One closed-loop step: one CLI process per problem, one after another.

        Returns (wall_s, [(key, wall_s, returncode, stderr)]); with spans_dir,
        each process runs traced and writes spans-<k>.json there.
        """
        results = []
        for key, _, samples, outdir in self.pairs:
            for name in ("delta_hat.csv", "report.txt"):
                path = os.path.join(outdir, name)
                if os.path.exists(path):
                    os.remove(path)
            spans_path = None if spans_dir is None else os.path.join(spans_dir, f"spans-{key[1]}.json")
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    self.command(samples, outdir, spans_path), cwd=ROOT, env=child_env(),
                    capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
                )
                code, err = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, err = None, f"timed out after {CLI_TIMEOUT_S} s"
            results.append((key, time.perf_counter() - start, code, err))
        return sum(r[1] for r in results), results

    def judge(self, outcome, refs, estimates=None):
        outdirs = {key: outdir for key, _, _, outdir in self.pairs}
        return [self._judge_one(key, wall, code, err, outdirs[key], *refs[key])
                for key, wall, code, err in outcome[1]]

    @staticmethod
    def _judge_one(key, wall, code, err, outdir, problem, ref):
        op = Op(key, wall * 1000.0, False, ref.kind == reference.WELL_POSED)
        report = {}
        report_path = os.path.join(outdir, "report.txt")
        if os.path.exists(report_path):
            with open(report_path) as fh:
                report = dict(line.split(" = ", 1) for line in fh.read().splitlines() if " = " in line)
        op.converged = report.get("converged") == "true"
        op.iterations = int(report.get("iterations", 0))
        if not op.well_posed:
            op.failed = code == 0 and op.converged
            op.detail = "claims convergence on an unbounded problem" if op.failed else ""
            return op
        if code != 0:
            op.failed, op.detail = True, f"exit code {code}: {err.strip()[-300:]}"
            return op
        estimate = np.loadtxt(os.path.join(outdir, "delta_hat.csv"), delimiter=",", ndmin=2)
        op.recovered = support_matches(estimate, problem.truth, problem.epsilon)
        op.agrees = op.recovered == support_matches(ref.delta, problem.truth, problem.epsilon)
        if estimate.shape == ref.delta.shape and np.all(np.isfinite(estimate)):
            op.gap = float(np.max(np.abs(estimate - ref.delta))) / ref.scale
        if not op.gap <= GAP_TOL:
            op.failed, op.detail = True, f"relative gap {op.gap:.3e} to the reference"
        return op


def child_env(extra=None):
    """The caller's environment with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


def power_sweep_config(seed, p, **overrides):
    cfg = lapdiff.ExperimentConfig(
        dims=(p,),
        ratios=(1.0, 3.0, 5.0),
        instances=2,
        lambda_scale=2.0,
        delta_spec=lapdiff.GridDeltaSpec(weight_range=(POWER_WEIGHT, POWER_WEIGHT), sign_mode="mixed"),
        base_spec=lapdiff.MatpowerBaseSpec(scale=POWER_SCALE),
        sigma_spec=lapdiff.SigmaSpec(kind="identity"),
        support_epsilon=POWER_EPSILON,
        seed=seed,
        rho=0.1,
        max_iter=2000,
    )
    return dataclasses.replace(cfg, **overrides)


def setup(name, seed, workdir, **overrides):
    """Everything a workload needs before its first operation can be issued.

    overrides replace ExperimentConfig fields of a sweep (tests use them to
    shrink the cell set).
    """
    if name == "power-sweep":
        base = power_base()
        return SweepWorkload(name, power_sweep_config(seed, base.shape[0], **overrides), base)
    if name == "estimate-cli":
        return EstimateWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
