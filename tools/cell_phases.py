"""Print where the time of the benchmark's power-sweep cells goes, phase by phase.

    python3 tools/cell_phases.py [--passes N]

Runs the power-sweep config of tools/row_digest.py at seeds 1, 11 and 12
(18 cells at p = 117) on one sweep worker and one BLAS thread, after one
warm-up pass, and prints for each phase the milliseconds the cells spent
in it, summed over the three sweeps: the median of N passes (default 5).
Outside the solve, each phase is the self time of the lapdiff.experiments
functions it names, that is their time less that of the other phases they
call; inside it, the phases are the seconds the solve records in its
DeltaEstimate (estimator.estimate_delta):

- scenario: experiments.draw_scenario (the lattice difference, the
  sigmas, and the eigenvalue checks of b2 and the sigmas);
- sampling: the two sample_potentials draws;
- factor: the two precision_factor calls;
- setup: the rest of experiments.estimate_delta besides the record's
  loop_s and polish_s, or all of it when the solve raised: building the
  factor pair (the factors' checks, eigenpairs and null bases), the
  boundedness pre-check, the loop's PxqSolver and the objective;
- admm_loop: the record's loop_s, the ADMM iterations and their checks;
- polish: the record's polish_s, the polish attempts and what the factor
  pair builds on first use for them (the joint diagonalizer, the inverse
  and the preconditioner);
- scoring: support_recovered, sup_norm_error and default_support_epsilon;
- other: the rest of each cell (bookkeeping and the wrappers themselves).

It then prints the cell total and the np.linalg.eigh calls of one pass,
which repeat exactly. It replaces no function of lapdiff.estimator. Like
row_digest.py it imports lapdiff from the `src/` of the checkout it sits
in, so running it on two checkouts compares them layer by layer.
"""

import argparse
import collections
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# row_digest pins the sweep workers and BLAS threads before numpy loads
from row_digest import power_sweep_config  # noqa: E402

import numpy as np  # noqa: E402

from lapdiff import DeltaEstimate, experiments  # noqa: E402

PHASES = ("scenario", "sampling", "factor", "setup", "admm_loop", "polish", "scoring", "other")

# (name in lapdiff.experiments, phase): every function timed
TIMED = (
    ("_run_cell", "other"),
    ("draw_scenario", "scenario"),
    ("sample_potentials", "sampling"),
    ("precision_factor", "factor"),
    ("estimate_delta", "setup"),
    ("support_recovered", "scoring"),
    ("sup_norm_error", "scoring"),
    ("default_support_epsilon", "scoring"),
)


class CaptureError(RuntimeError):
    """The wrappers did not see every cell of the sweep."""


def cell_phases(configs):
    """({phase: ms}, {"cells", "eigh": calls}) of one pass over the sweeps.

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
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                own = elapsed - nested.pop()
                if isinstance(result, DeltaEstimate):  # the solve timed its loop and polish
                    ms["admm_loop"] += result.loop_s * 1e3
                    ms["polish"] += result.polish_s * 1e3
                    own -= result.loop_s + result.polish_s
                ms[phase] += own * 1e3
                if nested:
                    nested[-1] += elapsed
        return wrapper

    def counted(original, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    try:
        for attr, phase in TIMED:
            install(experiments, attr, timed(getattr(experiments, attr), attr, phase))
        install(np.linalg, "eigh", counted(np.linalg.eigh, "eigh"))
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
    return ms, {"cells": made, "eigh": calls["eigh"]}


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
