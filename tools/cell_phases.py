"""Print where the time of the benchmark's power-sweep cells goes, phase by phase.

    python3 tools/cell_phases.py [--passes N]

Runs the benchmark's power-sweep config (perfbench/workloads.py, through
tools/solve_work.py) at seeds 1, 11 and 12 (18 cells at p = 117) on one
sweep worker and one BLAS thread, after one warm-up pass, and prints for
each phase the milliseconds the cells spent in it, summed over the three
sweeps: the median of N passes (default 5).
Every phase is read from the sweep rows: outside the solve, from the
seconds lapdiff.experiments records on each row (SweepRow.phases); inside
it, from those the solve records in its DeltaEstimate (SweepRow.solve):

- scenario: drawing the scenario (the lattice difference, the sigmas, and
  the eigenvalue checks of b2 and the sigmas);
- sampling: the two sample_potentials draws;
- factor: the two precision_factor calls of each penalized row;
- setup: the rest of each penalized row's wall time (wall_time_ms)
  besides its factors, loop_s and polish_s, or besides its factors alone
  when the solve raised: building the factor pair (the factors' checks,
  eigenpairs and null bases), the boundedness pre-check, the loop's
  PxqSolver and the objective;
- admm_loop: the record's loop_s, the ADMM iterations and their checks;
- polish: the record's polish_s, the polish attempts and what the factor
  pair builds on first use for them (the joint diagonalizer, the inverse
  and the preconditioner);
- scoring: support_recovered and sup_norm_error;
- other: the rest of each cell (its bookkeeping, the default support
  threshold and any plug-in estimate).

It then prints the cell total. The rows bring their times back from
worker processes, so the phases are the same on any number of sweep
workers. It replaces no attribute of any lapdiff module. Like
row_digest.py it imports lapdiff from the `src/` of the checkout it sits
in, so running it on two checkouts compares them layer by layer.
"""

import argparse
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# solve_work imports row_digest, which pins the sweep workers and BLAS
# threads before numpy loads
from solve_work import power_sweep_config  # noqa: E402

from lapdiff import experiments  # noqa: E402

PHASES = ("scenario", "sampling", "factor", "setup", "admm_loop", "polish", "scoring", "other")


def cell_phases(configs):
    """({phase: ms}, cell count) of one pass over the sweeps, read from their rows."""
    ms = dict.fromkeys(PHASES, 0.0)
    cells = {}  # the phases of one row per cell, which its rows share
    for index, cfg in enumerate(configs):
        for row in experiments.run_sweep(cfg).rows:
            phases, est = row.phases, row.solve
            cells[index, row.p, row.n, row.ratio, row.instance] = phases
            ms["factor"] += phases["factor"] * 1e3
            ms["scoring"] += phases["scoring"] * 1e3
            if row.estimator == "plugin":
                continue
            setup_ms = row.wall_time_ms - phases["factor"] * 1e3
            if est is not None:
                ms["admm_loop"] += est.loop_s * 1e3
                ms["polish"] += est.polish_s * 1e3
                setup_ms -= (est.loop_s + est.polish_s) * 1e3
            ms["setup"] += setup_ms
    for phases in cells.values():
        ms["scenario"] += phases["scenario"] * 1e3
        ms["sampling"] += phases["sampling"] * 1e3
        ms["other"] += phases["cell"] * 1e3
    ms["other"] -= sum(ms[phase] for phase in PHASES[:-1])
    return ms, len(cells)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5, help="timed passes (default 5)")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    configs = [power_sweep_config(seed) for seed in (1, 11, 12)]
    cell_phases(configs)  # warm-up: parses the case, fills numpy's caches
    passes = [cell_phases(configs) for _ in range(args.passes)]
    print(f"# power-sweep seeds 1 11 12: {passes[0][1]} cells, one worker, one BLAS thread; "
          f"median ms of {args.passes} passes")
    print("phase ms")
    for phase in PHASES:
        print(f"{phase} {statistics.median(ms[phase] for ms, _ in passes):.1f}")
    print(f"total {statistics.median(sum(ms.values()) for ms, _ in passes):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
