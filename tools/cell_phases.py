"""Print where the time of the benchmark's power-sweep cells goes, phase by phase.

    python3 tools/cell_phases.py [--passes N]

Runs the power-sweep config of tools/row_digest.py at seeds 1, 11 and 12
(18 cells at p = 117) on one sweep worker and one BLAS thread, after one
warm-up pass, and prints for each phase the milliseconds the cells spent
in it, summed over the three sweeps: the median of N passes (default 5).
Each phase is the self time of the functions it names, that is their time
less that of the other phases they call:

- scenario: experiments.draw_scenario (the lattice difference, the
  sigmas, and the eigenvalue checks of b2 and the sigmas);
- sampling: the two sample_potentials draws;
- factor: the two precision_factor calls;
- pxq_solver: building the estimator._FactorPair that estimate_delta
  hands to its ADMM loop estimator.run_admm (the factors' checks,
  eigenpairs and null bases), and the loop's PxqSolver from those
  eigenpairs;
- admm_loop: the rest of estimator.run_admm, its iterations and
  null-space check;
- polish_setup: what the factor pair builds on first use for the polish:
  its float64 preconditioner and inverse operators, timed through the
  function each of these cached properties caches the result of, and the
  joint diagonalizer they come from;
- polish: the rest of estimator._polish, the inner solves' casts of those
  operators to the search dtype among it;
- objective: estimate_delta's penalized_objective;
- scoring: support_recovered, sup_norm_error and default_support_epsilon;
- other: the rest of each cell (bookkeeping and the wrappers themselves).

It then prints the cell total, and the np.linalg.eigh and
linalg.as_symmetric calls of one pass, which repeat exactly. Like
row_digest.py it imports lapdiff from the `src/` of the checkout it sits
in, so running it on two checkouts compares them layer by layer.
"""

import argparse
import collections
import importlib
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# row_digest pins the sweep workers and BLAS threads before numpy loads
from row_digest import power_sweep_config  # noqa: E402

import numpy as np  # noqa: E402

import lapdiff  # noqa: E402
from lapdiff import estimator, experiments  # noqa: E402

PHASES = (
    "scenario", "sampling", "factor", "pxq_solver", "admm_loop",
    "polish_setup", "polish", "objective", "scoring", "other",
)

# (owner, attribute, phase): every function timed, where its caller finds it
TIMED = (
    (experiments, "_run_cell", "other"),
    (experiments, "draw_scenario", "scenario"),
    (experiments, "sample_potentials", "sampling"),
    (experiments, "precision_factor", "factor"),
    (estimator, "run_admm", "admm_loop"),
    (estimator, "_FactorPair", "pxq_solver"),
    (estimator, "PxqSolver", "pxq_solver"),
    (vars(estimator._FactorPair)["preconditioner"], "func", "polish_setup"),
    (vars(estimator._FactorPair)["inverse"], "func", "polish_setup"),
    (estimator, "_polish", "polish"),
    (estimator, "penalized_objective", "objective"),
    (experiments, "support_recovered", "scoring"),
    (experiments, "sup_norm_error", "scoring"),
    (experiments, "default_support_epsilon", "scoring"),
)

LAPDIFF_MODULES = ("cli", "estimator", "experiments", "linalg", "matpower", "network", "sampling")


class CaptureError(RuntimeError):
    """The wrappers did not see every cell of the sweep."""


def cell_phases(configs):
    """({phase: ms}, {"cells", "eigh", "as_symmetric": calls}) of one pass over the sweeps.

    The sweeps must run their cells in this process (one worker); raises
    CaptureError when the wrappers saw fewer cells than the sweeps made.
    """
    ms = dict.fromkeys(PHASES, 0.0)
    calls = collections.Counter()
    nested = []  # per open timed call, the time of the timed calls inside it
    installed = []

    def install(owner, attr, wrapper):
        installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def timed(original, name, phase):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            nested.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                ms[phase] += (elapsed - nested.pop()) * 1e3
                if nested:
                    nested[-1] += elapsed
        return wrapper

    def counted(original, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    try:
        for owner, attr, phase in TIMED:
            install(owner, attr, timed(getattr(owner, attr), attr, phase))
        install(np.linalg, "eigh", counted(np.linalg.eigh, "eigh"))
        as_symmetric = counted(lapdiff.linalg.as_symmetric, "as_symmetric")
        for name in LAPDIFF_MODULES:
            module = importlib.import_module(f"lapdiff.{name}")
            if hasattr(module, "as_symmetric"):
                install(module, "as_symmetric", as_symmetric)
        made = 0
        for cfg in configs:
            made += len(experiments.run_sweep(cfg).rows) // len(cfg.estimators)
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
    if calls["_run_cell"] != made:
        raise CaptureError(
            f"timed {calls['_run_cell']} of {made} cells; "
            "did the sweeps run them in other processes?"
        )
    return ms, {"cells": made, "eigh": calls["eigh"], "as_symmetric": calls["as_symmetric"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5, help="timed passes (default 5)")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    configs = [power_sweep_config(seed) for seed in (1, 11, 12)]
    try:
        cell_phases(configs)  # warm-up: parses the case, fills numpy's caches
        passes = [cell_phases(configs) for _ in range(args.passes)]
    except CaptureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    counts = passes[0][1]
    print(f"# power-sweep seeds 1 11 12: {counts['cells']} cells, one worker, one BLAS thread; "
          f"median ms of {args.passes} passes")
    print("phase ms")
    for phase in PHASES:
        print(f"{phase} {statistics.median(ms[phase] for ms, _ in passes):.1f}")
    print(f"total {statistics.median(sum(ms.values()) for ms, _ in passes):.1f}")
    print(f"eigh_calls {counts['eigh']}")
    print(f"as_symmetric_calls {counts['as_symmetric']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
