"""Sweep harness: per-instance trials over (p, sample size) grids.

A sweep draws, for every (p, ratio, instance) cell, a sparse lattice
difference, a base matrix, injection covariances, and finite samples from
both regimes, runs the requested estimators, and scores support recovery
and sup-norm error against the ground truth. Rows come back raw (one per
cell and estimator); aggregation is left to downstream consumers.

Sample sizes follow the rescaled-axis convention n = ceil(ratio * d^2 *
log p) with d the realized maximum degree of the difference's off-diagonal
support, so curves for different p become comparable. An explicit
`sample_sizes` list overrides the ratio grid when set; the ratio column is
then derived for reporting.
"""

import atexit
import contextlib
import math
import os
import pickle
import selectors
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericalError, SweepWorkerError
from .estimator import DeltaEstimate, SolverConfig, estimate_delta, plugin_delta
from .linalg import EIG_RELATIVE_FLOOR, as_symmetric
from .matio import FLOAT_FORMAT
from .matpower import _check_weight_mode, case_laplacian, load_case118, parse_case
from .network import (
    _assemble_on_checked_base,
    _check_base_settings,
    _check_diagonal,
    _check_lattice_settings,
    _check_nonsingular,
    _check_positive,
    _check_range,
    lattice_delta,
    random_base_matrix,
    reduce_ground_node,
)
from .sampling import precision_factor

# run_instance draws without re-checking b, which assemble_scenario checked
# against the same floor; bound under the public name, which perfbench's
# sampling.sample span wraps
from .sampling import _draw_potentials as sample_potentials

__all__ = [
    "ExperimentConfig",
    "GridDeltaSpec",
    "MatpowerBaseSpec",
    "RandomBaseSpec",
    "SigmaSpec",
    "SweepInterrupted",
    "SweepResult",
    "SweepRow",
    "run_instance",
    "run_sweep",
    "sup_norm_error",
    "support_recovered",
    "write_sweep_csv",
]

ESTIMATOR_TAGS = ("dtrace", "plugin", "sqrt")

# The injection covariance families make_sigma draws.
SIGMA_KINDS = ("identity", "diagonal", "dense")

# Relative rule for the default support threshold: a fraction of the
# largest off-diagonal magnitude of the truth.
DEFAULT_EPSILON_FRACTION = 1e-3

CSV_HEADER = (
    "p,n,ratio,instance,estimator,support_recovered,sup_norm_error,"
    "iterations,converged,wall_time_ms"
)

# RNG stream roles; every random draw an instance makes comes from its own
# stream keyed by (instance_seed, role), so adding an estimator or skipping
# a draw can never shift another draw.
_ROLE_DELTA = 0
_ROLE_BASE = 1
_ROLE_SIGMA1 = 2
_ROLE_SIGMA2 = 3
_ROLE_SAMPLES1 = 4
_ROLE_SAMPLES2 = 5


@dataclass(frozen=True)
class GridDeltaSpec:
    """Lattice difference parameters: weights, signs, and the 4-neighbor support."""

    weight_range: tuple = (0.4, 1.0)
    sign_mode: str = "mixed"

    def __post_init__(self):
        _check_lattice_settings(self.weight_range, self.sign_mode)


@dataclass(frozen=True)
class RandomBaseSpec:
    """Dense-or-sparse random base matrix parameters."""

    density: float = 1.0
    margin: float = 0.5
    scale: float = 1.0

    def __post_init__(self):
        _check_base_settings(self.density, self.margin, self.scale)


@dataclass(frozen=True)
class MatpowerBaseSpec:
    """Base matrix from a MATPOWER case: its reduced, optionally rescaled Laplacian.

    path None means the bundled IEEE 118-bus case. The same matrix serves
    every instance; only the difference and the samples vary.
    """

    path: str | None = None
    weight_mode: str = "dc"
    scale: float = 1.0

    def __post_init__(self):
        _check_weight_mode(self.weight_mode)
        _check_positive("scale", self.scale)

    @cached_property
    def matrix(self):
        """The reduced, rescaled Laplacian, parsed on first access and kept, read-only.

        Every sweep over this spec object shares one parse, so a case file
        edited after the first access is not read again. The matrix is
        checked against the scenario floors here, once, so each cell checks
        only its b2. A scale that takes the base's diagonal past
        network.MAX_DIAGONAL raises InvalidInputError.
        """
        if self.path is None:
            case = load_case118()
        else:
            with open(self.path) as fh:
                case = parse_case(fh)
        lap, ground = case_laplacian(case, self.weight_mode)
        with np.errstate(over="ignore"):
            reduced = reduce_ground_node(lap, ground) * self.scale
        # a grounded Laplacian is diagonally dominant, as the generators' matrices are
        _check_diagonal(np.diagonal(reduced), "base matrix", f"scale {self.scale}")
        reduced = as_symmetric(reduced)
        _check_nonsingular("b1", reduced)
        reduced.flags.writeable = False
        return reduced


@dataclass(frozen=True)
class SigmaSpec:
    """Injection covariance family: identity, random diagonal, or dense PD."""

    kind: str = "identity"
    value_range: tuple = (0.5, 2.0)
    condition: float = 10.0

    def __post_init__(self):
        if self.kind not in SIGMA_KINDS:
            raise InvalidInputError(f"unknown sigma kind {self.kind!r}; use one of {SIGMA_KINDS}")
        _check_range("value_range", self.value_range)
        if not (self.condition >= 1):
            raise InvalidInputError(f"condition must be >= 1, got {self.condition}")
        # a dense sigma's smallest eigenvalue, 1, must clear the scenario
        # check's relative floor, EIG_RELATIVE_FLOOR times the largest
        if self.condition > 1.0 / EIG_RELATIVE_FLOOR:
            raise InvalidInputError(
                f"condition must be <= 1 / EIG_RELATIVE_FLOOR = {1.0 / EIG_RELATIVE_FLOOR:.0e}, "
                f"got {self.condition}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; identical configs give identical rows."""

    dims: tuple
    ratios: tuple = (0.5, 1.0, 2.0, 3.0, 5.0)
    instances: int = 100
    lambda_scale: float = 0.5
    delta_spec: GridDeltaSpec = field(default_factory=GridDeltaSpec)
    base_spec: object = field(default_factory=RandomBaseSpec)
    sigma_spec: SigmaSpec = field(default_factory=SigmaSpec)
    support_epsilon: float | None = None
    seed: int = 0
    estimators: tuple = ("dtrace",)
    sample_sizes: tuple | None = None
    rho: float = SolverConfig.rho
    max_iter: int = SolverConfig.max_iter

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(p) for p in self.dims))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.sample_sizes is not None:
            object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        if not self.dims:
            raise InvalidInputError("dims must contain at least one dimension")
        if any(p < 2 for p in self.dims):
            raise InvalidInputError(f"every dimension must be >= 2, got {self.dims}")
        if not self.ratios and self.sample_sizes is None:
            raise InvalidInputError("ratios must contain at least one value")
        if any(r <= 0 for r in self.ratios):
            raise InvalidInputError(f"ratios must be positive, got {self.ratios}")
        if not (isinstance(self.instances, (int, np.integer)) and self.instances >= 1):
            raise InvalidInputError(f"instances must be an integer >= 1, got {self.instances!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise InvalidInputError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (self.lambda_scale >= 0):
            raise InvalidInputError(f"lambda_scale must be >= 0, got {self.lambda_scale}")
        if self.support_epsilon is not None and not (self.support_epsilon > 0):
            raise InvalidInputError(f"support_epsilon must be positive, got {self.support_epsilon}")
        if not self.estimators:
            raise InvalidInputError("estimators must not be empty")
        _check_estimators(self.estimators)
        if self.sample_sizes is not None and any(n < 1 for n in self.sample_sizes):
            raise InvalidInputError(f"sample sizes must be >= 1, got {self.sample_sizes}")
        if not isinstance(self.base_spec, (RandomBaseSpec, MatpowerBaseSpec)):
            raise InvalidInputError(
                f"base_spec must be RandomBaseSpec or MatpowerBaseSpec, got {type(self.base_spec).__name__}"
            )
        self.solver_config(lam=0.0)  # validates rho and max_iter

    def solver_config(self, lam):
        """The SolverConfig of one cell, whose penalty depends on the cell's n."""
        return SolverConfig(lam=lam, rho=self.rho, max_iter=self.max_iter)


@dataclass(frozen=True)
class SweepRow:
    """One estimator's result on one (p, n, instance) cell.

    solve is the DeltaEstimate of a dtrace or sqrt solve, without its delta
    (None on plugin rows and where the solve raised). It travels with the
    row from a worker process, but is no column: to_csv, equality and
    hashing read the ten other fields alone.
    """

    p: int
    n: int
    ratio: float
    instance: int
    estimator: str
    support_recovered: bool
    sup_norm_error: float
    iterations: int
    converged: bool
    wall_time_ms: float
    solve: DeltaEstimate | None = field(default=None, compare=False, repr=False)

    def sort_key(self):
        return (self.p, self.ratio, self.instance, self.estimator)

    def to_csv(self):
        return ",".join(
            (
                str(self.p),
                str(self.n),
                FLOAT_FORMAT % self.ratio,
                str(self.instance),
                self.estimator,
                str(int(self.support_recovered)),
                FLOAT_FORMAT % self.sup_norm_error,
                str(self.iterations),
                str(int(self.converged)),
                FLOAT_FORMAT % self.wall_time_ms,
            )
        )


@dataclass(frozen=True)
class SweepResult:
    """All rows of a sweep, canonically sorted."""

    rows: tuple

    def _select(self, p, ratio, estimator):
        """The rows of one (p, ratio, estimator) cell; raises when there are none."""
        rows = [
            r
            for r in self.rows
            if r.p == p and math.isclose(r.ratio, ratio) and r.estimator == estimator
        ]
        if not rows:
            raise InvalidInputError(f"no rows at p={p}, ratio={ratio}, estimator={estimator}")
        return rows

    def recovery_rate(self, p, ratio, estimator):
        flags = [r.support_recovered for r in self._select(p, ratio, estimator)]
        return sum(flags) / len(flags)

    def mean_error(self, p, ratio, estimator):
        errs = [r.sup_norm_error for r in self._select(p, ratio, estimator)]
        valid = [e for e in errs if math.isfinite(e)]
        return sum(valid) / len(valid) if valid else float("nan")


class SweepInterrupted(Exception):
    """Raised when a sweep is interrupted; carries the rows already finished."""

    def __init__(self, rows):
        super().__init__(f"sweep interrupted after {len(rows)} completed rows")
        self.rows = tuple(rows)


def _check_estimators(tags):
    for tag in tags:
        if tag not in ESTIMATOR_TAGS:
            raise InvalidInputError(f"unknown estimator {tag!r}; known: {ESTIMATOR_TAGS}")


def support_recovered(estimate, truth, epsilon):
    """True iff the off-diagonal supports match exactly at threshold epsilon."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise InvalidInputError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    if not (epsilon > 0):
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    off = ~np.eye(estimate.shape[0], dtype=bool)
    return bool(np.array_equal((np.abs(estimate) > epsilon) & off, (truth != 0) & off))


def sup_norm_error(estimate, truth):
    """Largest absolute entrywise difference."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise InvalidInputError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    return float(np.max(np.abs(estimate - truth)))


def default_support_epsilon(truth):
    """The relative fallback threshold: 1e-3 of the largest off-diagonal magnitude."""
    truth = np.asarray(truth, dtype=float)
    off = ~np.eye(truth.shape[0], dtype=bool)
    top = float(np.max(np.abs(truth[off]))) if truth.shape[0] > 1 else 0.0
    if top <= 0:
        raise InvalidInputError("truth has no off-diagonal support; no threshold is meaningful")
    return DEFAULT_EPSILON_FRACTION * top


def default_lambda(lambda_scale, p, n):
    """The default penalty lambda_scale * sqrt(log p / n) for n observations at dimension p."""
    return lambda_scale * math.sqrt(math.log(p) / n)


def max_degree(matrix):
    """Largest off-diagonal support count of any row."""
    a = np.asarray(matrix, dtype=float)
    off = (a != 0) & ~np.eye(a.shape[0], dtype=bool)
    return int(off.sum(axis=1).max())


def make_sigma(spec, p, rng):
    """Materialize one injection covariance from its family spec."""
    if spec.kind == "identity":
        return np.eye(p)
    if spec.kind == "diagonal":
        lo, hi = spec.value_range
        return np.diag(rng.uniform(lo, hi, size=p))
    # dense PD with prescribed condition number: random orthogonal basis,
    # geometric eigenvalue profile from 1 to `condition`
    gauss = rng.standard_normal((p, p))
    q, _ = np.linalg.qr(gauss)
    eigenvalues = np.geomspace(1.0, spec.condition, num=p)
    sigma = (q * eigenvalues) @ q.T
    return (sigma + sigma.T) / 2.0


def _float_key(value):
    """Stable integer key for a float: its IEEE-754 bit pattern."""
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


def _instance_seed(seed, p, axis_key, instance):
    """Derive the per-cell seed from the sweep seed and the cell's identity.

    Keying on the cell's values (p and the sample-size axis) rather than on
    grid positions means a given cell draws the same problem no matter what
    other cells the sweep contains.
    """
    seq = np.random.SeedSequence(entropy=(int(seed), int(p), int(axis_key), int(instance)))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def draw_scenario(p, seed, delta_spec, base_spec, sigma_spec):
    """Draw one two-regime scenario from its specs, keyed by `seed`.

    A MatpowerBaseSpec gives its fixed matrix in place of the random base
    draw. Each draw comes from its own (seed, role) stream. Every generator
    builds its matrix exactly symmetric, so only the eigenvalue checks of
    assemble_scenario are made.
    """
    delta = lattice_delta(
        p,
        weight_range=delta_spec.weight_range,
        sign_mode=delta_spec.sign_mode,
        seed=[seed, _ROLE_DELTA],
    )
    sigma1 = make_sigma(sigma_spec, p, np.random.default_rng([seed, _ROLE_SIGMA1]))
    sigma2 = make_sigma(sigma_spec, p, np.random.default_rng([seed, _ROLE_SIGMA2]))
    if isinstance(base_spec, MatpowerBaseSpec):
        return _assemble_on_checked_base(base_spec.matrix, delta, sigma1, sigma2, seed)
    b1 = random_base_matrix(
        p,
        base_spec.density,
        margin=base_spec.margin,
        scale=base_spec.scale,
        seed=[seed, _ROLE_BASE],
    )
    _check_nonsingular("b1", b1)
    return _assemble_on_checked_base(b1, delta, sigma1, sigma2, seed)


def run_instance(scenario, n1, n2, config, estimators, support_epsilon=None):
    """Sample both regimes once and score every requested estimator.

    Returns a list of partial row dicts (everything but the sweep bookkeeping
    columns); the `solve` key holds a dtrace or sqrt solve's DeltaEstimate
    without its delta, or None (see SweepRow). Estimator failures that are
    expected in context (plug-in undefined below n = p, solver divergence)
    produce flagged rows with NaN error instead of aborting. The scenario's
    b1 and b2 are sampled without checking their eigenvalues again (see
    NetworkScenario).
    """
    _check_estimators(estimators)
    for n in (n1, n2):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidInputError(f"n must be a positive integer, got {n!r}")
    epsilon = default_support_epsilon(scenario.delta_true) if support_epsilon is None else support_epsilon
    y1 = sample_potentials(scenario.b1, scenario.sigma_x1, n1, seed=[scenario.seed, _ROLE_SAMPLES1])
    y2 = sample_potentials(scenario.b2, scenario.sigma_x2, n2, seed=[scenario.seed, _ROLE_SAMPLES2])

    results = []
    for tag in estimators:
        start = time.perf_counter()
        delta_hat = solve = None
        iterations = 0
        converged = False
        try:
            if tag == "plugin":
                delta_hat = plugin_delta(y1, y2, scenario.sigma_x1, scenario.sigma_x2)
                converged = True
            else:
                # sqrt is dtrace with the identity whitener (unknown covariances)
                if tag == "dtrace":
                    sigma1, sigma2 = scenario.sigma_x1, scenario.sigma_x2
                else:
                    sigma1 = sigma2 = np.eye(y1.shape[1])
                est = estimate_delta(
                    precision_factor(y1, sigma1), precision_factor(y2, sigma2), config
                )
                delta_hat, iterations, converged = est.delta, est.iterations, est.converged
                solve = replace(est, delta=None)
        except NumericalError:
            pass
        wall_ms = (time.perf_counter() - start) * 1000.0
        scored = delta_hat is not None
        results.append(
            dict(
                estimator=tag,
                support_recovered=scored and support_recovered(delta_hat, scenario.delta_true, epsilon),
                sup_norm_error=sup_norm_error(delta_hat, scenario.delta_true) if scored else math.nan,
                iterations=iterations,
                converged=converged,
                wall_time_ms=wall_ms,
                solve=solve,
            )
        )
    return results


def usable_cores():
    """Cores this process may run on: its CPU affinity where the OS reports it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_cap():
    """Sweep worker count: LAPDIFF_THREADS when set, else a modest default.

    One worker runs a sweep's cells inline; more are worker processes.
    """
    raw = os.environ.get("LAPDIFF_THREADS")
    if raw is None:
        return min(8, usable_cores())
    try:
        value = int(raw)
    except ValueError:
        raise InvalidInputError(f"LAPDIFF_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise InvalidInputError(f"LAPDIFF_THREADS must be >= 1, got {value}")
    return value


def _sample_grid(cfg):
    """The sweep's second axis: (axis_key, ratio_or_none, n_or_none) entries."""
    if cfg.sample_sizes is not None:
        return [(n, None, n) for n in cfg.sample_sizes]
    return [(_float_key(r), r, None) for r in cfg.ratios]


def _run_cell(cfg, p, axis_key, ratio, n_explicit, instance):
    instance_seed = _instance_seed(cfg.seed, p, axis_key, instance)
    scenario = draw_scenario(p, instance_seed, cfg.delta_spec, cfg.base_spec, cfg.sigma_spec)
    d = max_degree(scenario.delta_true)
    rescale = d * d * math.log(p)
    if n_explicit is not None:
        n = int(n_explicit)
        ratio_out = n / rescale
    else:
        n = int(math.ceil(ratio * rescale))
        ratio_out = ratio
    lam = default_lambda(cfg.lambda_scale, p, n)
    partial = run_instance(
        scenario, n, n, cfg.solver_config(lam), cfg.estimators, support_epsilon=cfg.support_epsilon
    )
    return [
        SweepRow(
            p=p,
            n=n,
            ratio=ratio_out,
            instance=instance,
            **row,
        )
        for row in partial
    ]


# The command a worker process runs. The parent's package directory goes
# first on sys.path, so a worker imports the caller's lapdiff whatever
# PYTHONPATH says, and `-c` keeps the caller's __main__ out of the worker.
_WORKER_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from lapdiff.experiments import _serve; _serve()"
)

# Every pool not yet closed (closed at exit), and the pool kept between sweeps.
_live_pools = set()
_idle_pools = []


def _worker_blas_threads(workers):
    """OPENBLAS_NUM_THREADS for each of `workers` processes: usable cores // workers, at least 1.

    Never more than the caller's own count, the first positive value of the
    variables OpenBLAS reads, in the order it reads them.
    """
    budget = max(1, usable_cores() // workers)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            caller = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if caller >= 1:
            return min(caller, budget)
    return budget


class _Pool:
    """Worker processes that run sweep cells, one (cfg, task) at a time each, over pipes."""

    def __init__(self, workers, blas_threads):
        self.key = (workers, blas_threads)
        self.owner = os.getpid()
        self.procs = []
        _live_pools.add(self)
        package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
        for _ in range(workers):
            self.procs.append(
                subprocess.Popen(
                    [sys.executable, "-c", _WORKER_CODE, package_dir],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=env,
                    # a terminal's Ctrl-C reaches the coordinator alone
                    start_new_session=True,
                )
            )

    def close(self):
        """Kill and reap every worker; a pool inherited through fork is left alone."""
        if self.owner == os.getpid():
            for proc in self.procs:
                proc.kill()
            for proc in self.procs:
                proc.wait()
                for pipe in (proc.stdin, proc.stdout):
                    with contextlib.suppress(OSError):
                        pipe.close()
        _live_pools.discard(self)


@atexit.register
def _close_pools():
    for pool in list(_live_pools):
        pool.close()


def _take_pool(workers):
    """The kept pool when it has `workers` workers with this BLAS budget, else a new one."""
    key = (workers, _worker_blas_threads(workers))
    try:
        pool = _idle_pools.pop()  # atomic, so two sweeps never take one pool
    except IndexError:
        pool = None
    if pool is not None and (pool.key != key or pool.owner != os.getpid()):
        pool.close()
        pool = None
    return pool or _Pool(*key)


def _keep_pool(pool):
    """Keep a pool whose sweep ended normally for the next sweep; one kept is enough."""
    if _idle_pools:
        pool.close()
    else:
        _idle_pools.append(pool)


def _worker_lost(proc):
    proc.poll()
    return SweepWorkerError(
        f"sweep worker {proc.pid} ended without answering (exit status {proc.returncode})"
    )


def _send(proc, cfg, task):
    try:
        pickle.dump((cfg, task), proc.stdin, pickle.HIGHEST_PROTOCOL)
        proc.stdin.flush()
    except OSError:
        raise _worker_lost(proc) from None


def _receive(proc):
    """A cell's rows from its worker; raises what the cell raised, or SweepWorkerError."""
    try:
        reply = pickle.load(proc.stdout)
    except (EOFError, OSError, pickle.UnpicklingError):
        raise _worker_lost(proc) from None
    if isinstance(reply, list):
        return reply
    exc, text = reply
    raise exc from SweepWorkerError(f"in sweep worker {proc.pid}:\n{text}")


def _run_in_pool(pool, cfg, tasks, take):
    """Hand the tasks out to the pool's workers, a new one to each as it answers."""
    pending = iter(tasks)
    with selectors.DefaultSelector() as selector:
        for proc in pool.procs:
            _send(proc, cfg, next(pending))
            selector.register(proc.stdout, selectors.EVENT_READ, proc)
        while selector.get_map():
            for key, _ in selector.select():
                proc = key.data
                rows = _receive(proc)
                task = next(pending, None)
                if task is None:
                    selector.unregister(proc.stdout)
                else:
                    _send(proc, cfg, task)
                take(rows)


def _serve():
    """A worker's loop: run each pickled (cfg, task) on stdin, answer on stdout, until EOF.

    The answer is the cell's rows, or (exception, traceback text) when the
    cell raised.
    """
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything printed goes to stderr, never into the replies
    requests = sys.stdin.buffer
    while True:
        try:
            cfg, task = pickle.load(requests)
        except (EOFError, pickle.UnpicklingError):  # the coordinator is gone
            return
        try:
            reply = _run_cell(cfg, *task)
        except Exception as exc:
            reply = (exc, traceback.format_exc())
        reply = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        try:
            replies.write(reply)
            replies.flush()
        except BrokenPipeError:  # the coordinator is gone
            os._exit(0)


def run_sweep(cfg, row_callback=None):
    """Run every (p, ratio, instance) cell of the config, in parallel.

    Returns a SweepResult with rows sorted by (p, ratio, instance,
    estimator). Rows are deterministic for a fixed config and a fixed BLAS
    thread count, apart from wall times, whatever the worker count
    (OpenBLAS may round a product differently on more threads). When
    interrupted, raises SweepInterrupted carrying the rows that finished;
    `row_callback`, when given, sees every row as it completes, in the
    calling thread.

    Cells run on min(thread_cap(), cell count) workers. One worker runs
    them inline, in the calling thread. More send each cell's (cfg, task)
    to that many worker processes, which start on the first such sweep and
    are kept for later ones: a different count or BLAS budget starts a new
    pool, and an interrupt, a cell error or a lost worker kills and reaps
    the pool at once. A worker that dies raises SweepWorkerError; an error
    a cell raises reaches the caller with its type and message. Each worker
    runs OpenBLAS on at most usable_cores() // workers threads (at least
    one, and never more than the caller's environment sets), so workers x
    BLAS threads stay within the usable cores. Two sweeps running at once
    in different threads never share a worker. Kept workers are killed at
    interpreter exit, and exit by themselves when their parent dies.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise InvalidInputError(f"expected ExperimentConfig, got {type(cfg).__name__}")
    if isinstance(cfg.base_spec, MatpowerBaseSpec):
        size = cfg.base_spec.matrix.shape[0]  # parsed here, so workers receive it built
        for p in cfg.dims:
            if p != size:
                raise InvalidInputError(
                    f"matpower base is {size} x {size}; dims must equal that, got p = {p}"
                )
    tasks = [
        (p, axis_key, ratio, n_explicit, instance)
        for p in cfg.dims
        for axis_key, ratio, n_explicit in _sample_grid(cfg)
        for instance in range(cfg.instances)
    ]
    rows = []

    def take(cell_rows):
        for row in cell_rows:
            rows.append(row)
            if row_callback is not None:
                row_callback(row)

    workers = max(1, min(thread_cap(), len(tasks)))
    try:
        if workers == 1:
            for task in tasks:
                take(_run_cell(cfg, *task))
        else:
            pool = _take_pool(workers)
            try:
                _run_in_pool(pool, cfg, tasks, take)
            except BaseException:
                pool.close()
                raise
            _keep_pool(pool)
    except (KeyboardInterrupt, SystemExit):
        raise SweepInterrupted(sorted(rows, key=SweepRow.sort_key))
    return SweepResult(rows=tuple(sorted(rows, key=SweepRow.sort_key)))


def write_sweep_csv(path, rows):
    """Write sweep rows (sorted canonically) to CSV with the pinned header."""
    ordered = sorted(rows, key=SweepRow.sort_key)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in ordered:
            fh.write(row.to_csv() + "\n")
