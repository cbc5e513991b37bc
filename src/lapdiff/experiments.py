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

import ctypes
import glob
import math
import os
import queue
import signal
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError
from .estimator import SolverConfig, estimate_delta, plugin_delta
from .matio import FLOAT_FORMAT
from .matpower import case_laplacian, load_case118, parse_case
from .network import assemble_scenario, lattice_delta, random_base_matrix, reduce_ground_node
from .sampling import precision_factor

# run_instance draws without re-checking b, which assemble_scenario checked
# against the same floor; bound under the public name, which perfbench's
# sampling.sample span wraps
from .sampling import _draw_potentials as sample_potentials

ESTIMATOR_TAGS = ("dtrace", "plugin", "sqrt")

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
        lo, hi = self.weight_range
        if not (0 < lo <= hi):
            raise InvalidInputError(f"weight_range must satisfy 0 < lo <= hi, got {self.weight_range}")
        if self.sign_mode not in ("mixed", "positive"):
            raise InvalidInputError(f"unknown sign_mode {self.sign_mode!r}")


@dataclass(frozen=True)
class RandomBaseSpec:
    """Dense-or-sparse random base matrix parameters."""

    density: float = 1.0
    margin: float = 0.5
    scale: float = 1.0

    def __post_init__(self):
        if not (0 < self.density <= 1):
            raise InvalidInputError(f"density must lie in (0, 1], got {self.density}")
        if not (self.margin > 0):
            raise InvalidInputError(f"margin must be positive, got {self.margin}")
        if not (self.scale > 0):
            raise InvalidInputError(f"scale must be positive, got {self.scale}")


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
        if self.weight_mode not in ("dc", "magnitude_y"):
            raise InvalidInputError(f"unknown weight_mode {self.weight_mode!r}")
        if not (self.scale > 0):
            raise InvalidInputError(f"scale must be positive, got {self.scale}")

    @cached_property
    def matrix(self):
        """The reduced, rescaled Laplacian, parsed on first access and kept, read-only.

        Every sweep over this spec object shares one parse, so a case file
        edited after the first access is not read again.
        """
        if self.path is None:
            case = load_case118()
        else:
            with open(self.path) as fh:
                case = parse_case(fh)
        lap, ground = case_laplacian(case, self.weight_mode)
        reduced = reduce_ground_node(lap, ground) * self.scale
        reduced.flags.writeable = False
        return reduced


@dataclass(frozen=True)
class SigmaSpec:
    """Injection covariance family: identity, random diagonal, or dense PD."""

    kind: str = "identity"
    value_range: tuple = (0.5, 2.0)
    condition: float = 10.0

    def __post_init__(self):
        if self.kind not in ("identity", "diagonal", "dense"):
            raise InvalidInputError(f"unknown sigma kind {self.kind!r}")
        lo, hi = self.value_range
        if not (0 < lo <= hi):
            raise InvalidInputError(f"value_range must satisfy 0 < lo <= hi, got {self.value_range}")
        if not (self.condition >= 1):
            raise InvalidInputError(f"condition must be >= 1, got {self.condition}")


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
        for tag in self.estimators:
            if tag not in ESTIMATOR_TAGS:
                raise InvalidInputError(f"unknown estimator {tag!r}; known: {ESTIMATOR_TAGS}")
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
    """One estimator's result on one (p, n, instance) cell."""

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
    draw. Each draw comes from its own (seed, role) stream.
    """
    delta = lattice_delta(
        p,
        weight_range=delta_spec.weight_range,
        sign_mode=delta_spec.sign_mode,
        seed=[seed, _ROLE_DELTA],
    )
    if isinstance(base_spec, MatpowerBaseSpec):
        b1 = base_spec.matrix
    else:
        b1 = random_base_matrix(
            p,
            base_spec.density,
            margin=base_spec.margin,
            scale=base_spec.scale,
            seed=[seed, _ROLE_BASE],
        )
    sigma1 = make_sigma(sigma_spec, p, np.random.default_rng([seed, _ROLE_SIGMA1]))
    sigma2 = make_sigma(sigma_spec, p, np.random.default_rng([seed, _ROLE_SIGMA2]))
    return assemble_scenario(b1, delta, sigma1, sigma2, seed=seed)


def run_instance(scenario, n1, n2, config, estimators, support_epsilon=None):
    """Sample both regimes once and score every requested estimator.

    Returns a list of partial row dicts (everything but the sweep bookkeeping
    columns). Estimator failures that are expected in context (plug-in
    undefined below n = p, solver divergence) produce flagged rows with NaN
    error instead of aborting. The scenario's b1 and b2 are sampled without
    checking their eigenvalues again (see NetworkScenario).
    """
    for tag in estimators:
        if tag not in ESTIMATOR_TAGS:
            raise InvalidInputError(f"unknown estimator {tag!r}; known: {ESTIMATOR_TAGS}")
    for n in (n1, n2):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidInputError(f"n must be a positive integer, got {n!r}")
    epsilon = default_support_epsilon(scenario.delta_true) if support_epsilon is None else support_epsilon
    y1 = sample_potentials(scenario.b1, scenario.sigma_x1, n1, seed=[scenario.seed, _ROLE_SAMPLES1])
    y2 = sample_potentials(scenario.b2, scenario.sigma_x2, n2, seed=[scenario.seed, _ROLE_SAMPLES2])

    results = []
    for tag in estimators:
        start = time.perf_counter()
        delta_hat = None
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
            )
        )
    return results


def usable_cores():
    """Cores this process may run on: its CPU affinity where the OS reports it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_cap():
    """Worker count for sweeps: LAPDIFF_THREADS when set, else a modest default."""
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


class BlasThreads(NamedTuple):
    """Getter and setter of a BLAS library's process-wide thread count."""

    get: Callable[[], int]
    set: Callable[[int], None]


# (getter, setter) symbol pairs: reference OpenBLAS, then the scipy-openblas
# build that numpy wheels bundle.
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def _openblas_paths():
    """OpenBLAS files numpy may have loaded: its bundled copy first, then any mapped one."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs_dir, "*openblas*")))
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh if "openblas" in line.lower()]
    except OSError:
        fields = []
    for path in sorted({f[5].strip() for f in fields if len(f) == 6}):
        if path not in paths:
            paths.append(path)
    return paths


@cache
def openblas_threads():
    """BlasThreads of the OpenBLAS numpy uses, or None when none is found.

    numpy offers no thread control, so the library is opened again through
    ctypes; the dynamic loader hands back the copy numpy already loaded.
    The lookup runs on first call, not at import.
    """
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = lib[get_name], lib[set_name]
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return BlasThreads(get, set_)
    return None


@contextmanager
def _blas_thread_budget(workers):
    """Hold BLAS threads to min(current, max(1, usable cores // workers)).

    The count is process-wide, so `workers` threads each calling BLAS use
    at most the usable cores between them. The caller's count comes back
    on exit, however the block ends. Without OpenBLAS nothing changes.
    """
    blas = openblas_threads()
    if blas is None:
        yield
        return
    before = blas.get()
    blas.set(min(before, max(1, usable_cores() // workers)))
    try:
        yield
    finally:
        blas.set(before)


def _sample_grid(cfg):
    """The sweep's second axis: (axis_key, ratio_or_none, n_or_none) entries."""
    if cfg.sample_sizes is not None:
        return [(n, None, n) for n in cfg.sample_sizes]
    return [(_float_key(r), r, None) for r in cfg.ratios]


@contextmanager
def _signals_deferred():
    """Only note SIGINT and SIGTERM in the block; raise them on exit under the prior handlers.

    A KeyboardInterrupt raised inside the threading module's lock code can
    leave a lock released twice ("release unlocked lock"). Python handlers
    run only in the main thread, so elsewhere nothing is deferred; nor is
    anything where a handler set outside Python could not be put back.
    """
    sigs = (signal.SIGINT, signal.SIGTERM)
    noted = []
    previous = []
    if threading.current_thread() is threading.main_thread() and None not in map(
        signal.getsignal, sigs
    ):
        previous = [(sig, signal.signal(sig, lambda n, _: noted.append(n))) for sig in sigs]
    try:
        yield
    finally:
        for sig, handler in previous:
            signal.signal(sig, handler)
        for sig in dict.fromkeys(noted):
            signal.raise_signal(sig)


def _run_cell_into(done, cfg, task):
    """Run one cell on a worker; put its rows, or what it raised, on the `done` queue.

    Whatever the cell raises is put, so the coordinating thread, which
    raises it, never waits for a cell that is gone.
    """
    try:
        done.put(_run_cell(cfg, *task))
    except BaseException as exc:
        done.put(exc)


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


def run_sweep(cfg, row_callback=None):
    """Run every (p, ratio, instance) cell of the config, in parallel.

    Returns a SweepResult with rows sorted by (p, ratio, instance,
    estimator). Identical configs produce identical rows apart from wall
    times. When interrupted, raises SweepInterrupted carrying the rows that
    finished; `row_callback`, when given, sees every row as it completes
    (called from the coordinating thread). That thread runs no threading
    lock code an interrupt could split: it queues the cells with signals
    deferred and waits on a C-level queue.

    Cells run on min(thread_cap(), cell count) worker threads. While they
    run, OpenBLAS gets at most usable_cores() // workers threads (at least
    one), so workers x BLAS threads stay within the usable cores; the
    caller's BLAS thread count is restored when this returns or raises.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise InvalidInputError(f"expected ExperimentConfig, got {type(cfg).__name__}")
    if isinstance(cfg.base_spec, MatpowerBaseSpec):
        size = cfg.base_spec.matrix.shape[0]  # parsed here, before any worker reads it
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
    done = queue.SimpleQueue()
    workers = max(1, min(thread_cap(), len(tasks)))
    with _blas_thread_budget(workers):
        executor = ThreadPoolExecutor(max_workers=workers)
        try:
            with _signals_deferred():
                for task in tasks:
                    executor.submit(_run_cell_into, done, cfg, task)
            for _ in tasks:
                outcome = done.get()
                if isinstance(outcome, BaseException):
                    raise outcome
                for row in outcome:
                    rows.append(row)
                    if row_callback is not None:
                        row_callback(row)
        except (KeyboardInterrupt, SystemExit):
            raise SweepInterrupted(sorted(rows, key=SweepRow.sort_key))
        finally:
            with _signals_deferred():
                executor.shutdown(wait=False, cancel_futures=True)
    return SweepResult(rows=tuple(sorted(rows, key=SweepRow.sort_key)))


def write_sweep_csv(path, rows):
    """Write sweep rows (sorted canonically) to CSV with the pinned header."""
    ordered = sorted(rows, key=SweepRow.sort_key)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in ordered:
            fh.write(row.to_csv() + "\n")
