"""Print how much of its rate a GEMM thread keeps beside each numpy.linalg routine.

    python3 tools/gil_probe.py [--seconds S] [--p P]

A background thread runs p x p matrix products back to back while the
main thread calls one numpy.linalg routine back to back, for S seconds
(default 2) per routine. The `kept` column is the product rate beside the
routine over the rate of the product thread alone, measured before the
first routine and after the last. A routine that releases the GIL while
LAPACK works leaves the product thread near its own rate on a machine with
a second free core; one that holds the GIL for the whole call blocks the
product thread from starting its next call, so `kept` falls toward 0.

The routines are the ones the library calls: eigh, eigvalsh, solve, inv,
cholesky, values-only svd, slogdet and matrix_rank, each on a symmetric
positive definite p x p matrix (p = 117 by default, the size of the
118-bus case). BLAS is pinned to one thread before numpy loads, so the
two threads compete for the GIL, not for BLAS threads. Run it again
whenever numpy changes: which routines release the GIL is numpy's choice.
"""

import argparse
import os
import threading
import time

# set before numpy loads: BLAS reads its thread count once, at load time
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROUTINES = {
    "eigh": np.linalg.eigh,
    "eigvalsh": np.linalg.eigvalsh,
    "solve": lambda a: np.linalg.solve(a, a),
    "inv": np.linalg.inv,
    "cholesky": np.linalg.cholesky,
    "svd": lambda a: np.linalg.svd(a, compute_uv=False),
    "slogdet": np.linalg.slogdet,
    "matrix_rank": np.linalg.matrix_rank,
}


def product_rate(a, seconds, beside=None):
    """(products per second of a thread multiplying a by itself, calls of beside per second).

    With beside, the main thread calls beside(a) back to back meanwhile;
    without, it sleeps.
    """
    stop = threading.Event()
    products = [0]

    def multiply():
        out = np.empty_like(a)
        while not stop.is_set():
            np.matmul(a, a, out=out)
            products[0] += 1

    worker = threading.Thread(target=multiply)
    calls = 0
    start = time.perf_counter()
    worker.start()
    if beside is None:
        time.sleep(seconds)
    else:
        while time.perf_counter() - start < seconds:
            beside(a)
            calls += 1
    stop.set()
    worker.join()
    elapsed = time.perf_counter() - start
    return products[0] / elapsed, calls / elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0, help="duration of each measurement")
    parser.add_argument("--p", type=int, default=117, help="matrix size")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((args.p, args.p))
    a = g @ g.T / args.p + np.eye(args.p)
    before, _ = product_rate(a, args.seconds)
    rows = [(name, *product_rate(a, args.seconds, fn)) for name, fn in ROUTINES.items()]
    after, _ = product_rate(a, args.seconds)
    alone = (before + after) / 2.0
    print(f"# numpy {np.__version__}, p = {args.p}, one BLAS thread, {args.seconds:g} s each")
    print(f"# product thread alone: {before:.0f} and {after:.0f} products/s")
    print(f"{'routine':<12} {'ms/call':>8} {'kept':>6}")
    for name, rate, calls in rows:
        ms = 1000.0 / calls if calls else float("nan")
        print(f"{name:<12} {ms:>8.3f} {rate / alone:>6.3f}")


if __name__ == "__main__":
    main()
