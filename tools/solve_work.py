"""Print the solver work of every penalized solve in fixed, seeded sweeps.

    python3 tools/solve_work.py

The sweeps are the power-sweep config of tools/row_digest.py at seeds 1,
11 and 12 (p = 117), its dense-sweep case (p = 16 and 25, n = 10, 20 and
64) and its default-rho-sweep case (p = 16 at the solver defaults, where
a solve polishes late or runs to max_iter). For each dtrace and sqrt cell
it prints the ADMM iterations, the CG steps of polishing, the polish
attempts, the p x p GEMMs all of it costs, the stop reason and the search
precision (`dtype`, from estimator._search_dtype: float32 or float64, or
`-` when the solve raised before choosing), then the totals of each
sweep, a tally of its stop reasons (polished, max_iter, raised) and its
GEMMs split by the same stop reasons.

GEMMs are counted as four per ADMM iteration plus every product polishing
makes: two per call of estimator._support_product (the operator and
preconditioner products of CG and each repair round's residual) and two
for the gradient test that follows each CG call that reached its
tolerance. The one-off setup (the eigh calls of the factors and the
preconditioner build) stays excluded. A GEMM counts as one whatever its
precision, though a float32 one takes about half the time of a float64
one; the residuals and gradient tests of a polish stay float64. Work
counts do not carry the timing noise of a shared machine, so they compare
two checkouts directly. Like
row_digest.py it imports lapdiff from the `src/` of the checkout it sits
in and runs sweeps on one worker and one BLAS thread. The wrappers see
only solves made in this process, so it checks that it captured exactly
one solve per dtrace/sqrt row, with that row's iterations and convergence
flag, and exits with status 1 otherwise.
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
from lapdiff import estimator, experiments  # noqa: E402

ADMM_ITERATION_GEMMS = 4
SUPPORT_PRODUCT_GEMMS = 2
GRADIENT_TEST_GEMMS = 2


class CaptureError(RuntimeError):
    """The wrappers did not capture exactly one solve per dtrace/sqrt row."""


def solve_work(cfg):
    """(row, DeltaEstimate or None, polish GEMMs, polish attempts, dtype) of each dtrace/sqrt row.

    The estimate is None where the solve raised, and dtype is the name of
    run_admm's search precision, or "-" where the solve raised before
    choosing it. With one sweep worker, cells run inline and report in the
    order they were queued, so the n-th solve belongs to the n-th penalized
    row reported. Raises CaptureError unless every such row has its solve.
    """
    solves, rows = [], []
    count = {"gemms": 0, "attempts": 0, "dtype": "-"}

    def support_product(*args):
        count["gemms"] += SUPPORT_PRODUCT_GEMMS
        return originals["_support_product"](*args)

    def cg_on_support(*args):
        taken, solved = originals["_cg_on_support"](*args)
        if solved:
            count["gemms"] += GRADIENT_TEST_GEMMS
        return taken, solved

    def polish(*args):
        count["attempts"] += 1
        return originals["_polish"](*args)

    def search_dtype(*args):
        dtype = originals["_search_dtype"](*args)
        count["dtype"] = dtype.__name__
        return dtype

    def recorded(psi1, psi2, config):
        count.update(gemms=0, attempts=0, dtype="-")
        est = None
        try:
            est = lapdiff.estimate_delta(psi1, psi2, config)
        finally:
            solves.append((est, count["gemms"], count["attempts"], count["dtype"]))
        return est

    counted = {
        "_support_product": support_product,
        "_cg_on_support": cg_on_support,
        "_polish": polish,
        "_search_dtype": search_dtype,
    }
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


def main():
    cases = [(f"power-sweep-seed{seed}", power_sweep_config(seed)) for seed in (1, 11, 12)]
    cases.append(("dense-sweep", dense_sweep_config()))
    cases.append(("default-rho-sweep", default_rho_sweep_config()))
    print("case p n instance estimator iterations cg_steps attempts gemms stop dtype")
    for name, cfg in cases:
        try:
            work = solve_work(cfg)
        except CaptureError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        totals = [0, 0, 0, 0]
        stops = dict.fromkeys(("polished", "max_iter", "raised"), 0)
        stop_gemms = dict.fromkeys(stops, 0)
        for row, est, polish_gemms, attempts, dtype in work:
            cg_steps, stop = (est.cg_steps, est.stop) if est else (0, "raised")
            gemms = ADMM_ITERATION_GEMMS * row.iterations + polish_gemms
            work = (row.iterations, cg_steps, attempts, gemms)
            print(f"{name} {row.p} {row.n} {row.instance} {row.estimator} "
                  f"{' '.join(map(str, work))} {stop} {dtype}")
            totals = [t + v for t, v in zip(totals, work)]
            stops[stop] += 1
            stop_gemms[stop] += gemms
        tally = ",".join(f"{stop}={count}" for stop, count in stops.items())
        split = ",".join(f"{stop}={count}" for stop, count in stop_gemms.items())
        print(f"{name} total - - - {' '.join(map(str, totals))} {tally} gemms:{split} -",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
