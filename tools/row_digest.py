"""Print one SHA-256 per fixed, seeded case of the program's command-line outputs.

    python3 tools/row_digest.py

Its output is the command-line half of the ledger that tier-1 compares
(tests/ledger/row_digest.txt; tests/test_tools.py); tools/solve_work.py
prints the sweep half, row by row. Run it on two checkouts: equal
digests mean `lapdiff estimate` writes the same delta_hat.csv and
report.txt, `lapdiff gen` the same files, and `lapdiff experiment synth`
the same sweep CSVs apart from wall time. It imports lapdiff from the
`src/` of the checkout it sits in, and pins sweep workers and BLAS to one
thread each, so the outputs do not depend on the machine's core count.
tools/solve_work.py and tools/cell_phases.py import it first for that.

The cases:
- estimate-cli: `lapdiff estimate` on sample CSVs drawn from a
  `lapdiff gen` scenario at p = 16, n = 40, with a dense injection
  covariance;
- estimate-cov: `lapdiff estimate --cov1/--cov2 --n1 40 --n2 40` on the
  uncentered covariances of the estimate-cli samples;
- estimate-plugin: `lapdiff estimate --estimator plugin` on the
  estimate-cli samples;
- estimate-sqrt: `lapdiff estimate --estimator sqrt` on the estimate-cli
  samples, whitened with the identity instead of the sigma CSVs;
- gen-files: the five matrix CSVs and manifest.txt of
  `lapdiff gen --p 25 --seed 4 --sigma dense`;
- config-sweep: `lapdiff experiment synth --config` running dtrace, sqrt
  and plugin at p = 9 and 16 with diagonal injection covariances, with
  one flag overriding a value of the config file;
- flag-sweep: `lapdiff experiment synth` set by flags alone, running
  dtrace, plugin and sqrt at p = 9 and 16 with dense injection
  covariances.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

# set before numpy loads: BLAS reads its thread count once, at load time
os.environ["LAPDIFF_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import lapdiff  # noqa: E402
from lapdiff.cli import main as cli_main  # noqa: E402


def masked_csv_digest(path):
    """SHA-256 of a sweep CSV with every wall_time_ms field masked."""
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    text = "\n".join([header] + [row.rsplit(",", 1)[0] + ",-" for row in rows])
    return hashlib.sha256(text.encode()).hexdigest()


def quiet_cli(argv):
    """Exit code of one `lapdiff` command, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def estimate_samples(workdir):
    """Sigma CSV paths and samples of both regimes of a dense-sigma `lapdiff gen` scenario."""
    scenario = os.path.join(workdir, "scenario")
    if quiet_cli(["gen", "--p", "16", "--seed", "7", "--sigma", "dense", "--out", scenario]) != 0:
        raise SystemExit("lapdiff gen failed")
    regimes = []
    for regime, b_name in ((1, "b1"), (2, "b2")):
        sigma = os.path.join(scenario, f"sigma_x{regime}.csv")
        samples = lapdiff.sample_potentials(
            lapdiff.read_matrix_csv(os.path.join(scenario, f"{b_name}.csv")),
            lapdiff.read_matrix_csv(sigma),
            40,
            seed=[7, regime],
        )
        regimes.append((regime, sigma, samples))
    return regimes


def estimate_digest(flags, workdir):
    """SHA-256 over the exit code, delta_hat.csv and report.txt of one `lapdiff estimate` run."""
    out = os.path.join(workdir, "estimate")
    code = quiet_cli(["estimate", *flags, "--lambda-scale", "1.0", "--out", out])
    digest = hashlib.sha256(f"exit {code}\n".encode())
    for name in ("delta_hat.csv", "report.txt"):
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def estimate_samples_digest(workdir, estimator="dtrace"):
    """estimate_digest of `lapdiff estimate --estimator <estimator>` on the estimate-cli samples.

    The samples are written as sample CSVs. The sigma CSVs go along, except
    to sqrt, which whitens with the identity.
    """
    flags = ["--estimator", estimator]
    for regime, sigma, samples in estimate_samples(workdir):
        path = os.path.join(workdir, f"samples{regime}.csv")
        lapdiff.write_samples_csv(path, samples)
        flags += [f"--samples{regime}", path]
        if estimator != "sqrt":
            flags += [f"--sigma-x{regime}", sigma]
    return estimate_digest(flags, workdir)


def estimate_cov_digest(workdir):
    flags = []
    for regime, sigma, samples in estimate_samples(workdir):
        path = os.path.join(workdir, f"cov{regime}.csv")
        lapdiff.write_matrix_csv(path, lapdiff.sample_covariance(samples))
        flags += [f"--cov{regime}", path, f"--n{regime}", "40", f"--sigma-x{regime}", sigma]
    return estimate_digest(flags, workdir)


def gen_files_digest(workdir):
    """SHA-256 over the exit code and the six files of one `lapdiff gen` run."""
    code = quiet_cli(["gen", "--p", "25", "--seed", "4", "--sigma", "dense", "--out", workdir])
    digest = hashlib.sha256(f"exit {code}\n".encode())
    for name in ("b1.csv", "b2.csv", "delta_true.csv", "sigma_x1.csv", "sigma_x2.csv",
                 "manifest.txt"):
        with open(os.path.join(workdir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


CONFIG_SWEEP = """\
# desk-scale synth sweep; --seed on the command line overrides the seed here
dims = 9, 16
sample_sizes = 6, 40
instances = 2
estimators = dtrace, sqrt, plugin
sigma = diagonal
sigma_min = 0.5
sigma_max = 2.0
lambda_scale = 2.0
margin = 0.3
base_scale = 0.01
rho = 0.1
max_iter = 2000
seed = 5
"""


def config_sweep_digest(workdir):
    """Masked SHA-256 of one `lapdiff experiment synth --config` run, with its exit code."""
    cfg = os.path.join(workdir, "sweep.cfg")
    with open(cfg, "w") as fh:
        fh.write(CONFIG_SWEEP)
    out = os.path.join(workdir, "rows.csv")
    code = quiet_cli(["experiment", "synth", "--config", cfg, "--seed", "9", "--out", out])
    return hashlib.sha256(f"exit {code}\n{masked_csv_digest(out)}".encode()).hexdigest()


FLAG_SWEEP = [
    "--dims", "9,16", "--sample-sizes", "10,40", "--instances", "2",
    "--estimators", "dtrace,plugin,sqrt", "--sigma", "dense", "--sigma-condition", "5",
    "--lambda-scale", "2.0", "--margin", "0.3", "--base-scale", "0.01",
    "--weight-min", "0.5", "--weight-max", "1.0", "--rho", "0.1", "--max-iter", "2000",
    "--seed", "6",
]


def flag_sweep_digest(workdir):
    """Masked SHA-256 of one flags-only `lapdiff experiment synth` run, with its exit code."""
    out = os.path.join(workdir, "rows.csv")
    code = quiet_cli(["experiment", "synth", *FLAG_SWEEP, "--out", out])
    return hashlib.sha256(f"exit {code}\n{masked_csv_digest(out)}".encode()).hexdigest()


def main():
    cases = (
        ("estimate-cli", estimate_samples_digest),
        ("estimate-cov", estimate_cov_digest),
        ("estimate-plugin", lambda d: estimate_samples_digest(d, "plugin")),
        ("estimate-sqrt", lambda d: estimate_samples_digest(d, "sqrt")),
        ("gen-files", gen_files_digest),
        ("config-sweep", config_sweep_digest),
        ("flag-sweep", flag_sweep_digest),
    )
    for name, digest in cases:
        with tempfile.TemporaryDirectory() as workdir:
            print(f"{name} {digest(workdir)}", flush=True)


if __name__ == "__main__":
    main()
