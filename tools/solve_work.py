"""Print every row and the solver work of every penalized solve of fixed, seeded sweeps.

    python3 tools/solve_work.py

Its output is the sweep half of the ledger that tier-1 compares
(tests/ledger/solve_work.txt; tests/test_tools.py). The sweeps are the
benchmark's power-sweep config (perfbench/workloads.py) at seeds 1, 11
and 12 (p = 117); dense-sweep, p = 16 and 25 with a dense injection
covariance, running dtrace, plugin and sqrt at n = 10 (below both p), 20
and 64 (above both); default-rho-sweep, the dense-sweep base at seed 1
and p = 16 with a diagonal injection covariance, running dtrace and sqrt
at n = 6, 10, 20 and 40 with every solver setting at the library's
default (rho 0.001, max_iter 20000), where a solve polishes late or runs
to max_iter; and the lam-sweep cases lam-sweep-8, -33, -133 and -333: the
power config at seed 1 and ratios 3 and 5 with lambda_scale 8, 33, 133
and 333 in place of 2, whose polished supports hold about 45%, 16%, 2-3%
and at most 1% of the off-diagonal pairs, against 75-78% at lambda_scale
2.

For each row it prints the row's CSV fields (lapdiff.write_sweep_csv's,
wall_time_ms masked as `-`) and what the solve's DeltaEstimate records
of its work: the ADMM iterations, the CG steps of polishing, the polish
attempts, the p x p GEMMs all of it costs, the stop reason and the search
precision (`dtype`: float32 or float64, or `-` when the solve raised). The
last column, `solver`, says where the CG steps of its polish rounds ran:
primal when all on the support (estimator._cg_on_support), complement
when all on its complement (estimator._cg_on_complement), both, or `-`
when the solve took no CG step. A plugin row has no solve, and `-` in
every work column. Then come the totals of each sweep's penalized
solves, a tally of their stop reasons (polished, max_iter, raised) and
their GEMMs split by the same stop reasons.

The solve counts its GEMMs itself (estimator.run_admm): four per ADMM
iteration plus every product polishing makes, the one-off setup (the eigh
calls of the factors and of their joint diagonalization, and the
preconditioner build) excluded. A GEMM counts as one whatever its
precision, though a float32 one takes about half the time of a float64
one. Work counts do not carry the timing noise of a shared machine, so
they compare two checkouts directly. Like row_digest.py it imports
lapdiff from the `src/` of the checkout it sits in and runs sweeps on one
worker and one BLAS thread: at two BLAS threads the float32 CG of the
lam-sweep cases takes other steps. It reads each solve's record from its
sweep row (SweepRow.solve), which comes back from a worker process with
the row, so the output is the same on any number of sweep workers.
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# row_digest pins the sweep workers and BLAS threads before numpy loads, and
# puts the checkout's src/ and root on the path
import row_digest  # noqa: E402, F401

import lapdiff  # noqa: E402
from lapdiff import experiments  # noqa: E402
from perfbench import workloads  # noqa: E402

WORK_COLUMNS = ("iterations", "cg_steps", "attempts", "gemms", "stop", "dtype", "solver")


def power_sweep_config(seed):
    """The benchmark's power-sweep config at seed, on the bundled 118-bus case (p = 117)."""
    return workloads.power_sweep_config(seed, 117)


def dense_sweep_config():
    return lapdiff.ExperimentConfig(
        dims=(16, 25),
        ratios=(),
        sample_sizes=(10, 20, 64),
        instances=2,
        lambda_scale=2.0,
        base_spec=lapdiff.RandomBaseSpec(density=0.5, margin=0.3, scale=0.05),
        sigma_spec=lapdiff.SigmaSpec(kind="dense"),
        seed=3,
        estimators=("dtrace", "plugin", "sqrt"),
    )


def default_rho_sweep_config():
    return dataclasses.replace(
        dense_sweep_config(),
        dims=(16,),
        sample_sizes=(6, 10, 20, 40),
        sigma_spec=lapdiff.SigmaSpec(kind="diagonal"),
        seed=1,
        estimators=("dtrace", "sqrt"),
    )


def lam_sweep_config(lambda_scale):
    return dataclasses.replace(power_sweep_config(1), ratios=(3.0, 5.0), lambda_scale=lambda_scale)


def inner_solver(est):
    """The `solver` column of an estimate: where its CG steps ran."""
    if not est.cg_steps:
        return "-"
    if not est.complement_steps:
        return "primal"
    return "complement" if est.complement_steps == est.cg_steps else "both"


def case_lines(name, cfg):
    """The lines of one sweep: each row with its work, then its penalized solves' totals."""
    lines, totals = [], [0, 0, 0, 0]
    stops = dict.fromkeys(("polished", "max_iter", "raised"), 0)
    stop_gemms = dict.fromkeys(stops, 0)
    for row in experiments.run_sweep(cfg).rows:
        fields, est = row.to_csv().rsplit(",", 1)[0] + ",-", row.solve
        if row.estimator == "plugin":
            lines.append(f"{name} {fields} {' '.join(['-'] * len(WORK_COLUMNS))}")
            continue
        if est is None:
            counts, stop, dtype, solver = (0, 0, 0, 0), "raised", "-", "-"
        else:
            counts = (est.iterations, est.cg_steps, est.attempts, est.gemms)
            stop, dtype, solver = est.stop, est.dtype, inner_solver(est)
        lines.append(f"{name} {fields} {' '.join(map(str, counts))} {stop} {dtype} {solver}")
        totals = [t + v for t, v in zip(totals, counts)]
        stops[stop] += 1
        stop_gemms[stop] += counts[-1]
    tally = ",".join(f"{stop}={count}" for stop, count in stops.items())
    split = ",".join(f"{stop}={count}" for stop, count in stop_gemms.items())
    lines.append(f"{name} total {' '.join(map(str, totals))} {tally} gemms:{split} -")
    return lines


def main():
    cases = [(f"power-sweep-seed{seed}", power_sweep_config(seed)) for seed in (1, 11, 12)]
    cases.append(("dense-sweep", dense_sweep_config()))
    cases.append(("default-rho-sweep", default_rho_sweep_config()))
    cases += [(f"lam-sweep-{scale}", lam_sweep_config(scale)) for scale in (8, 33, 133, 333)]
    print(f"case {experiments.CSV_HEADER} {' '.join(WORK_COLUMNS)}")
    for name, cfg in cases:
        print("\n".join(case_lines(name, cfg)), flush=True)


if __name__ == "__main__":
    main()
