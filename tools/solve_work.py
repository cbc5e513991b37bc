"""Print the solver work of every penalized solve in fixed, seeded sweeps.

    python3 tools/solve_work.py

The sweeps are the benchmark's power-sweep config (perfbench/workloads.py,
through tools/row_digest.py) at seeds 1, 11 and 12 (p = 117), the
dense-sweep case of row_digest.py (p = 16 and 25, n = 10, 20 and 64), its
default-rho-sweep case (p = 16 at the solver defaults, where a solve
polishes late or runs to max_iter) and the lam-sweep cases
lam-sweep-8, -33, -133 and -333: the power config at seed 1 and ratios 3
and 5 with lambda_scale 8, 33, 133 and 333 in place of 2, whose polished
supports hold about 45%, 16%, 2-3% and at most 1% of the off-diagonal
pairs, against 75-78% at lambda_scale 2. For each dtrace and sqrt cell it
prints what the solve's DeltaEstimate records of its work: the ADMM
iterations, the CG steps of polishing, the polish attempts, the p x p
GEMMs all of it costs, the stop reason and the search precision (`dtype`:
float32 or float64, or `-` when the solve raised). The last column,
`solver`, says where the CG steps of its polish rounds ran: primal when
all on the support (estimator._cg_on_support), complement when all on its
complement (estimator._cg_on_complement), both, or `-` when the solve took
no CG step. Then come the totals of each sweep, a tally of its stop
reasons (polished, max_iter, raised) and its GEMMs split by the same stop
reasons.

The solve counts its GEMMs itself (estimator.run_admm): four per ADMM
iteration plus every product polishing makes, the one-off setup (the eigh
calls of the factors and of their joint diagonalization, and the
preconditioner build) excluded. A GEMM counts as one whatever its
precision, though a float32 one takes about half the time of a float64
one. Work counts do not carry the timing noise of a shared machine, so
they compare two checkouts directly. Like row_digest.py it imports
lapdiff from the `src/` of the checkout it sits in and runs sweeps on one
worker and one BLAS thread. It reads each solve's record from its sweep
row (SweepRow.solve), which comes back from a worker process with the
row, so the output is the same on any number of sweep workers.
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# row_digest pins the sweep workers and BLAS threads before numpy loads
from row_digest import (  # noqa: E402
    default_rho_sweep_config,
    dense_sweep_config,
    power_sweep_config,
)

from lapdiff import experiments  # noqa: E402


def solve_work(cfg):
    """(row, DeltaEstimate or None) per dtrace/sqrt row, the estimate None where the solve raised."""
    rows = experiments.run_sweep(cfg).rows
    return [(row, row.solve) for row in rows if row.estimator != "plugin"]


def inner_solver(est):
    """The `solver` column of an estimate: where its CG steps ran."""
    if not est.cg_steps:
        return "-"
    if not est.complement_steps:
        return "primal"
    return "complement" if est.complement_steps == est.cg_steps else "both"


def lam_sweep_config(lambda_scale):
    return dataclasses.replace(power_sweep_config(1), ratios=(3.0, 5.0), lambda_scale=lambda_scale)


def main():
    cases = [(f"power-sweep-seed{seed}", power_sweep_config(seed)) for seed in (1, 11, 12)]
    cases.append(("dense-sweep", dense_sweep_config()))
    cases.append(("default-rho-sweep", default_rho_sweep_config()))
    cases += [(f"lam-sweep-{scale}", lam_sweep_config(scale)) for scale in (8, 33, 133, 333)]
    print("case p n instance estimator iterations cg_steps attempts gemms stop dtype solver")
    for name, cfg in cases:
        totals = [0, 0, 0, 0]
        stops = dict.fromkeys(("polished", "max_iter", "raised"), 0)
        stop_gemms = dict.fromkeys(stops, 0)
        for row, est in solve_work(cfg):
            if est is None:
                counts, stop, dtype, solver = (0, 0, 0, 0), "raised", "-", "-"
            else:
                counts = (est.iterations, est.cg_steps, est.attempts, est.gemms)
                stop, dtype, solver = est.stop, est.dtype, inner_solver(est)
            print(f"{name} {row.p} {row.n} {row.instance} {row.estimator} "
                  f"{' '.join(map(str, counts))} {stop} {dtype} {solver}")
            totals = [t + v for t, v in zip(totals, counts)]
            stops[stop] += 1
            stop_gemms[stop] += counts[-1]
        tally = ",".join(f"{stop}={count}" for stop, count in stops.items())
        split = ",".join(f"{stop}={count}" for stop, count in stop_gemms.items())
        print(f"{name} total - - - {' '.join(map(str, totals))} {tally} gemms:{split} - -",
              flush=True)


if __name__ == "__main__":
    main()
