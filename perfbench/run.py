"""lapdiff benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload power-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`. With `--trace 0` the run prints the end-to-end
metrics, with `--trace 1` the per-layer metrics of a separate traced pass.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every operation passed its reference check. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
CACHE = os.path.join(ROOT, "perfbench", "cache")

# set-up is timed in this many fresh processes, half before the timed pass
# and half after it, and the median is reported; spreading them over the
# run keeps one slow minute of the host from setting the whole figure
SETUP_RUNS = 6
PROBE_TIMEOUT_S = 120
SERIAL_TIMEOUT_S = 150
SERIAL_ENV = {"LAPDIFF_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
THREAD_VARS = (
    "LAPDIFF_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "recovery_rate": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "experiments.cells": "count",
    "experiments.cell_ms_p50": "ms",
    "experiments.cell_ms_max": "ms",
    "experiments.parallelism": "x",
    "experiments.speedup_vs_serial": "x",
    "estimator.solve_ms": "ms",
    "estimator.admm_ms": "ms",
    "estimator.objective_ms": "ms",
    "estimator.iterations": "count",
    "estimator.iters_p50": "count",
    "estimator.unbounded_iters": "count",
    "estimator.us_per_iter": "us",
    "estimator.converged_frac": "frac",
    "estimator.ref_gap_max": "frac",
    "estimator.gflop": "GFLOP",
    "estimator.gflop_per_s": "GFLOP/s",
    "sampling.sample_ms": "ms",
    "sampling.factor_ms": "ms",
    "linalg.root_ms": "ms",
    "linalg.root_calls": "count",
    "matio.read_ms": "ms",
    "matio.read_mb": "MB",
    "matio.write_ms": "ms",
    "matio.write_mb": "MB",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "matpower.load_ms": "ms",
    "network.build_ms": "ms",
    "trace.overhead_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process (see time_setups)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setups(name, seed, count):
    """Seconds from process start until the first operation can be issued, per process."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--probe-setup"]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def env_stamp():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def build_references(wl, cache_dir=CACHE):
    """key -> (problem, reference), from the cache when the problem was seen before."""
    from perfbench import reference

    return {
        problem.key: (
            problem,
            reference.cached_reference(problem.psi1, problem.psi2, problem.lam, cache_dir),
        )
        for problem in wl.problems()
    }


def timed_pass(wl, refs, seconds, tracer=None):
    """Closed loop with one client: issue the next step only after the last ends."""
    ops, walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        estimates = None
        if tracer is None:
            outcome = wl.issue()
        elif wl.name == "estimate-cli":
            spans_dir = os.path.join(OUT, "child-spans")
            os.makedirs(spans_dir, exist_ok=True)
            outcome = wl.issue(spans_dir=spans_dir)
            for name in sorted(os.listdir(spans_dir)):
                path = os.path.join(spans_dir, name)
                with open(path) as fh:
                    tracer.adopt(json.load(fh))
                os.remove(path)
        else:
            mark = len(tracer.spans)
            outcome = tracer.call("experiments.sweep", wl.issue, (), {})
            estimates = captured_estimates(tracer.spans[mark:], refs)
        walls.append(outcome[0])
        ops.extend(wl.judge(outcome, refs, estimates))
    return ops, walls


def captured_estimates(spans, refs):
    """key -> estimate matrix, matched through each cell's sample size and truth."""
    keys = {(problem.n, problem.truth.tobytes()): key for key, (problem, _) in refs.items()}
    cells = {span["op"]: span for span in spans if span["name"] == "experiments.cell"}
    out = {}
    for span in spans:
        estimate = span.pop("estimate", None)
        cell = cells.get(span["op"])
        if estimate is None or cell is None or "truth" not in cell:
            continue
        key = keys.get((cell["n"], cell["truth"].tobytes()))
        if key is not None:
            out[key] = estimate
    for cell in cells.values():
        cell.pop("truth", None)
    return out


def peak_rss_mb():
    """Largest peak RSS of this process or of any process it started (Linux reports KiB).

    Not their sum: a child's peak already includes the parent pages it
    shared before exec, so a sum would count the parent twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def throughput(ops, walls):
    return sum(math.isfinite(op.ms) for op in ops) / sum(walls)


def end_to_end_metrics(ops, walls, setup_s):
    well_posed = [op for op in ops if op.well_posed]
    return {
        "setup_s": setup_s,
        "solves_per_s": throughput(ops, walls),
        "recovery_rate": (
            sum(op.agrees for op in well_posed) / len(well_posed) if well_posed else float("nan")
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def unique_ops(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.key, op)
    return list(seen.values())


def per_layer_metrics(spans, traced_ops, traced_walls, untraced_sps, serial_sps, p):
    from perfbench.spans import self_times

    n_ops = max(len(traced_ops), 1)
    selfs = self_times(spans)
    total = {}
    calls = {}
    mb = {}
    for span, own in zip(spans, selfs):
        name = span["name"]
        if span["op"] is None and name not in ("matpower.load", "network.build"):
            continue
        total[name] = total.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        mb[name] = mb.get(name, 0.0) + span.get("mb", 0.0)

    def per_op_ms(name):
        return 1000.0 * total.get(name, 0.0) / n_ops

    def per_call_ms(name):
        return 1000.0 * total[name] / calls[name] if calls.get(name) else 0.0

    cell_ms = sorted(
        1000.0 * (s["end"] - s["start"]) for s in spans if s["name"] == "experiments.cell"
    )
    sweep_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "experiments.sweep")
    unique = unique_ops(traced_ops)
    iterations = sum(op.iterations for op in unique)
    all_iterations = sum(op.iterations for op in traced_ops)
    admm_s = total.get("estimator.admm", 0.0)
    flop_per_iter = 16.0 * p**3
    gaps = [op.gap for op in traced_ops if op.well_posed and math.isfinite(op.gap)]
    traced_sps = throughput(traced_ops, traced_walls)
    return {
        "experiments.cells": len(cell_ms),
        "experiments.cell_ms_p50": statistics.median(cell_ms) if cell_ms else 0.0,
        "experiments.cell_ms_max": cell_ms[-1] if cell_ms else 0.0,
        "experiments.parallelism": sum(cell_ms) / 1000.0 / sweep_s if sweep_s else 0.0,
        "experiments.speedup_vs_serial": untraced_sps / serial_sps if serial_sps else 0.0,
        "estimator.solve_ms": per_op_ms("estimator.solve"),
        "estimator.admm_ms": per_op_ms("estimator.admm"),
        "estimator.objective_ms": per_op_ms("estimator.objective"),
        "estimator.iterations": iterations,
        "estimator.iters_p50": statistics.median(op.iterations for op in unique),
        "estimator.unbounded_iters": sum(op.iterations for op in unique if not op.well_posed),
        "estimator.us_per_iter": 1e6 * admm_s / all_iterations if all_iterations else 0.0,
        "estimator.converged_frac": sum(op.converged for op in unique) / len(unique),
        "estimator.ref_gap_max": max(gaps) if gaps else 0.0,
        "estimator.gflop": flop_per_iter * iterations / 1e9,
        "estimator.gflop_per_s": flop_per_iter * all_iterations / admm_s / 1e9 if admm_s else 0.0,
        "sampling.sample_ms": per_op_ms("sampling.sample"),
        "sampling.factor_ms": per_op_ms("sampling.factor"),
        "linalg.root_ms": per_op_ms("linalg.root"),
        "linalg.root_calls": calls.get("linalg.root", 0) / n_ops,
        "matio.read_ms": per_op_ms("matio.read"),
        "matio.read_mb": mb.get("matio.read", 0.0) / n_ops,
        "matio.write_ms": per_op_ms("matio.write"),
        "matio.write_mb": mb.get("matio.write", 0.0) / n_ops,
        "cli.import_ms": per_op_ms("cli.import"),
        "cli.main_ms": per_op_ms("cli.main"),
        "matpower.load_ms": per_call_ms("matpower.load"),
        "network.build_ms": per_call_ms("network.build"),
        "trace.overhead_frac": untraced_sps / traced_sps - 1.0,
    }


def serial_solves_per_s(args):
    """solves_per_s of the same workload in a child with one worker and one BLAS thread."""
    from perfbench.workloads import child_env

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(SERIAL_ENV), capture_output=True,
                          text=True, timeout=SERIAL_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"serial run failed (exit {proc.returncode}): {proc.stderr[-500:]}")
    return result["metrics"]["solves_per_s"]["value"]


def run(args):
    from perfbench import workloads
    from perfbench.spans import Tracer, install_library

    workdir = os.path.join(OUT, f"work-{args.workload}-seed{args.seed}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_stamp()}
    if args.trace == 0:
        setup_samples = time_setups(args.workload, args.seed, SETUP_RUNS // 2)
        wl = workloads.setup(args.workload, args.seed, workdir)
    else:
        tracer = Tracer()
        install_library(tracer)
        try:
            wl = workloads.setup(args.workload, args.seed, workdir)
        finally:
            tracer.uninstall()
    refs = build_references(wl)
    record["references"] = {str(k): ref.kind for k, (_, ref) in refs.items()}

    ops, walls = timed_pass(wl, refs, args.seconds)
    if args.trace == 0:
        setup_samples += time_setups(args.workload, args.seed, SETUP_RUNS - SETUP_RUNS // 2)
        record["setup_samples_s"] = setup_samples
        metrics = end_to_end_metrics(ops, walls, statistics.median(setup_samples))
        units = END_TO_END
    else:
        untraced_sps = throughput(ops, walls)
        install_library(tracer, capture_estimates=True)
        try:
            traced_ops, traced_walls = timed_pass(wl, refs, args.seconds, tracer)
        finally:
            tracer.uninstall()
        ops = ops + traced_ops
        serial_sps = serial_solves_per_s(args) if wl.name != "estimate-cli" else 0.0
        p = next(iter(refs.values()))[0].truth.shape[0]
        metrics = per_layer_metrics(
            tracer.spans, traced_ops, traced_walls, untraced_sps, serial_sps, p
        )
        units = PER_LAYER
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))

    failed = [op for op in ops if op.failed]
    times = [op.ms for op in ops if math.isfinite(op.ms)]
    record["summary"] = {
        "operations": len(ops),
        "failed_frac": len(failed) / len(ops),
        "truth_recovery_share": (
            sum(op.recovered for op in ops if op.well_posed) / max(1, sum(op.well_posed for op in ops))
        ),
        "solve_ms_p50": statistics.median(times) if times else None,
        "solve_ms_max": max(times) if times else None,
        "solve_ms_samples": len(times),
        "iterations": sum(op.iterations for op in ops),
        "steps": len(walls),
    }
    record["failures"] = [f"{op.key}: {op.detail}" for op in failed[:20]]
    record["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print("env " + json.dumps(record["env"]))
    print("summary " + json.dumps(record["summary"]))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failed else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lapdiff", "__init__.py")):
        print(f"error: no lapdiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import lapdiff

    if not os.path.abspath(lapdiff.__file__).startswith(SRC + os.sep):
        print(f"error: imported lapdiff from {lapdiff.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.setup(args.workload, args.seed, os.path.join(OUT, f"probe-{args.workload}"))
        print("ready", flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
