"""Print the solver work of every penalized solve in fixed, seeded sweeps.

    python3 tools/solve_work.py

The sweeps are the power-sweep config of tools/row_digest.py at seeds 1,
11 and 12 (p = 117), its dense-sweep case (p = 16 and 25, n = 10, 20 and
64) and its default-rho-sweep case (p = 16 at the solver defaults, where
a solve polishes late or runs to max_iter). For each dtrace and sqrt cell
it prints the ADMM iterations, the CG steps of polishing, the p x p GEMMs
both cost together (four per iteration, CG_STEP_GEMMS per CG step; the
one-off setup is left out) and the stop reason, then the totals of each
sweep, a tally of its stop reasons (polished, max_iter, raised) and its
GEMMs split by the same stop reasons. Work
counts do not carry the timing noise of a shared machine, so they compare
two checkouts directly. Like row_digest.py it imports lapdiff from the
`src/` of the checkout it sits in and runs sweeps on one worker and one
BLAS thread.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# row_digest pins the sweep workers and BLAS threads before numpy loads
from row_digest import (  # noqa: E402
    default_rho_sweep_config,
    dense_sweep_config,
    power_sweep_config,
)

import lapdiff  # noqa: E402
from lapdiff import experiments  # noqa: E402
from lapdiff.errors import NumericalError  # noqa: E402
from lapdiff.estimator import CG_STEP_GEMMS  # noqa: E402

ADMM_ITERATION_GEMMS = 4


def solve_work(cfg):
    """(row, DeltaEstimate or None) of each dtrace/sqrt row, None where the solve raised.

    With one sweep worker, cells run and report in the order they were
    queued, so the n-th solve belongs to the n-th penalized row reported.
    """
    estimates, rows = [], []

    def recorded(psi1, psi2, config):
        try:
            est = lapdiff.estimate_delta(psi1, psi2, config)
        except NumericalError:
            estimates.append(None)
            raise
        estimates.append(est)
        return est

    solve = experiments.estimate_delta
    experiments.estimate_delta = recorded
    try:
        experiments.run_sweep(cfg, row_callback=rows.append)
    finally:
        experiments.estimate_delta = solve
    penalized = [row for row in rows if row.estimator != "plugin"]
    if len(penalized) != len(estimates):
        raise RuntimeError(f"{len(penalized)} dtrace/sqrt rows but {len(estimates)} solves")
    return sorted(zip(penalized, estimates), key=lambda pair: pair[0].sort_key())


def main():
    cases = [(f"power-sweep-seed{seed}", power_sweep_config(seed)) for seed in (1, 11, 12)]
    cases.append(("dense-sweep", dense_sweep_config()))
    cases.append(("default-rho-sweep", default_rho_sweep_config()))
    print("case p n instance estimator iterations cg_steps gemms stop")
    for name, cfg in cases:
        totals = [0, 0, 0]
        stops = dict.fromkeys(("polished", "max_iter", "raised"), 0)
        stop_gemms = dict.fromkeys(stops, 0)
        for row, est in solve_work(cfg):
            cg_steps, stop = (est.cg_steps, est.stop) if est else (0, "raised")
            gemms = ADMM_ITERATION_GEMMS * row.iterations + CG_STEP_GEMMS * cg_steps
            print(f"{name} {row.p} {row.n} {row.instance} {row.estimator} "
                  f"{row.iterations} {cg_steps} {gemms} {stop}")
            totals = [t + v for t, v in zip(totals, (row.iterations, cg_steps, gemms))]
            stops[stop] += 1
            stop_gemms[stop] += gemms
        tally = ",".join(f"{stop}={count}" for stop, count in stops.items())
        split = ",".join(f"{stop}={count}" for stop, count in stop_gemms.items())
        print(f"{name} total - - - {' '.join(map(str, totals))} {tally} gemms:{split}", flush=True)


if __name__ == "__main__":
    main()
