"""Print the solver work of every penalized solve in fixed, seeded sweeps.

    python3 tools/solve_work.py

The sweeps are the power-sweep config of tools/row_digest.py at seeds 1,
11 and 12 (p = 117), its dense-sweep case (p = 16 and 25, n = 10, 20 and
64), its default-rho-sweep case (p = 16 at the solver defaults, where a
solve polishes late or runs to max_iter) and the lam-sweep cases
lam-sweep-8, -33, -133 and -333: the power config at seed 1 and ratios 3
and 5 with lambda_scale 8, 33, 133 and 333 in place of 2, whose polished
supports hold about 45%, 16%, 2-3% and at most 1% of the off-diagonal
pairs, against 75-78% at lambda_scale 2. For each dtrace and sqrt cell it
prints the ADMM iterations, the CG steps of polishing, the polish
attempts, the p x p GEMMs all of it costs, the stop reason, the search
precision (`dtype`, from estimator._search_dtype: float32 or float64, or
`-` when the solve raised before choosing) and the inner solver of its
polish rounds (`solver`, from estimator._inner_solver: primal for
_cg_on_support, complement for _cg_on_complement, both, or `-` when the
solve never polished), then the totals of each sweep, a tally of its stop
reasons (polished, max_iter, raised) and its GEMMs split by the same stop
reasons.

GEMMs are counted as four per ADMM iteration plus every product polishing
makes: four per call of estimator._apply_inverse (the complement CG's
steps and the first product of each of its calls) and two per call of
estimator._kkt_product (the float64 residual that starts each polish
round, the gradient test that follows each inner solve, and, through
estimator._support_product, the primal CG's operator and preconditioner
products). The one-off setup (the eigh calls of the
factors and of their joint diagonalization, and the preconditioner build)
stays excluded. A GEMM counts as one whatever its precision, though a
float32 one takes about half the time of a float64 one. Work counts do
not carry the timing noise of a shared machine, so they compare two
checkouts directly. Like row_digest.py it imports lapdiff from the `src/`
of the checkout it sits in and runs sweeps on one worker and one BLAS
thread. The wrappers see only solves made in this process, so it checks
that it captured exactly one solve per dtrace/sqrt row, with that row's
iterations and convergence flag, and exits with status 1 otherwise.
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

import lapdiff  # noqa: E402
from lapdiff import estimator, experiments  # noqa: E402

ADMM_ITERATION_GEMMS = 4
PRODUCT_GEMMS = {"_apply_inverse": 4, "_kkt_product": 2}
INNER_SOLVERS = {"_cg_on_support": "primal", "_cg_on_complement": "complement"}


class CaptureError(RuntimeError):
    """The wrappers did not capture exactly one solve per dtrace/sqrt row."""


def solve_work(cfg):
    """(row, DeltaEstimate or None, polish GEMMs, attempts, dtype, solver) per dtrace/sqrt row.

    The estimate is None where the solve raised, dtype is the name of
    run_admm's search precision, or "-" where the solve raised before
    choosing it, and solver the inner solver of its polish rounds:
    "primal", "complement", "both", or "-" where it never polished. With
    one sweep worker, cells run inline and report in the order they were
    queued, so the n-th solve belongs to the n-th penalized row reported.
    Raises CaptureError unless every such row has its solve.
    """
    solves, rows = [], []
    count = {"gemms": 0, "attempts": 0, "dtype": "-", "solvers": set()}

    def product(name):
        def counted(*args):
            count["gemms"] += PRODUCT_GEMMS[name]
            return originals[name](*args)
        return counted

    def inner_solver(*args):
        solve = originals["_inner_solver"](*args)
        count["solvers"].add(INNER_SOLVERS[solve.__name__])
        return solve

    def polish(*args):
        count["attempts"] += 1
        return originals["_polish"](*args)

    def search_dtype(*args):
        dtype = originals["_search_dtype"](*args)
        count["dtype"] = dtype.__name__
        return dtype

    def recorded(psi1, psi2, config):
        count.update(gemms=0, attempts=0, dtype="-", solvers=set())
        est = None
        try:
            est = lapdiff.estimate_delta(psi1, psi2, config)
        finally:
            names = sorted(count["solvers"])
            solver = "-" if not names else names[0] if len(names) == 1 else "both"
            solves.append((est, count["gemms"], count["attempts"], count["dtype"], solver))
        return est

    counted = {name: product(name) for name in PRODUCT_GEMMS}
    counted.update(_inner_solver=inner_solver, _polish=polish, _search_dtype=search_dtype)
    originals = {name: getattr(estimator, name) for name in counted}
    solve = experiments.estimate_delta
    experiments.estimate_delta = recorded
    for name, wrapper in counted.items():
        setattr(estimator, name, wrapper)
    try:
        experiments.run_sweep(cfg, row_callback=rows.append)
    finally:
        experiments.estimate_delta = solve
        for name, original in originals.items():
            setattr(estimator, name, original)
    penalized = [row for row in rows if row.estimator != "plugin"]
    if len(penalized) != len(solves):
        raise CaptureError(
            f"captured {len(solves)} solves for {len(penalized)} dtrace/sqrt rows; "
            "did the sweep run its cells in other processes?"
        )
    for row, (est, *_) in zip(penalized, solves):
        seen = (0, False) if est is None else (est.iterations, est.converged)
        if seen != (row.iterations, row.converged):
            raise CaptureError(f"a captured solve ({seen}) does not match its row {row}")
    pairs = sorted(zip(penalized, solves), key=lambda pair: pair[0].sort_key())
    return [(row, *solve) for row, solve in pairs]


def lam_sweep_config(lambda_scale):
    return dataclasses.replace(power_sweep_config(1), ratios=(3.0, 5.0), lambda_scale=lambda_scale)


def main():
    cases = [(f"power-sweep-seed{seed}", power_sweep_config(seed)) for seed in (1, 11, 12)]
    cases.append(("dense-sweep", dense_sweep_config()))
    cases.append(("default-rho-sweep", default_rho_sweep_config()))
    cases += [(f"lam-sweep-{scale}", lam_sweep_config(scale)) for scale in (8, 33, 133, 333)]
    print("case p n instance estimator iterations cg_steps attempts gemms stop dtype solver")
    for name, cfg in cases:
        try:
            work = solve_work(cfg)
        except CaptureError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        totals = [0, 0, 0, 0]
        stops = dict.fromkeys(("polished", "max_iter", "raised"), 0)
        stop_gemms = dict.fromkeys(stops, 0)
        for row, est, polish_gemms, attempts, dtype, solver in work:
            cg_steps, stop = (est.cg_steps, est.stop) if est else (0, "raised")
            gemms = ADMM_ITERATION_GEMMS * row.iterations + polish_gemms
            work = (row.iterations, cg_steps, attempts, gemms)
            print(f"{name} {row.p} {row.n} {row.instance} {row.estimator} "
                  f"{' '.join(map(str, work))} {stop} {dtype} {solver}")
            totals = [t + v for t, v in zip(totals, work)]
            stops[stop] += 1
            stop_gemms[stop] += gemms
        tally = ",".join(f"{stop}={count}" for stop, count in stops.items())
        split = ",".join(f"{stop}={count}" for stop, count in stop_gemms.items())
        print(f"{name} total - - - {' '.join(map(str, totals))} {tally} gemms:{split} - -",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
