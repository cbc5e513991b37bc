"""End-to-end tests of the command line interface, run in-process.

The SIGTERM tests alone run `lapdiff` in a subprocess, since a signal ends
the whole process it reaches.
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from procs import HAS_PROC, alive, wait_for_children

import lapdiff
from lapdiff.cli import build_parser, main
from lapdiff.estimator import DEFAULT_LAMBDA_SCALE, SolverConfig, default_lambda, estimate_delta
from lapdiff.experiments import (
    CSV_HEADER,
    ESTIMATOR_TAGS,
    SIGMA_KINDS,
    MatpowerBaseSpec,
    SigmaSpec,
    SweepInterrupted,
    SweepRow,
    make_sigma,
)
from lapdiff.matio import (
    TEXT_PRECISION,
    read_keyvalue,
    read_matrix_csv,
    read_samples_csv,
    write_matrix_csv,
    write_samples_csv,
)
from lapdiff.matpower import WEIGHT_MODES, bundled_case_text
from lapdiff.network import SIGN_MODES
from lapdiff.sampling import precision_factor, precision_factor_from_covariance, sample_potentials

TWO_BUS = """\
function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1 0 0 1 1.1 0.9;
  2 1 0 0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.branch = [
  1 2 0.0 0.5 0 0 0 0 0 0 1;
];
"""


def run(*argv):
    return main(list(argv))


def gen_scenario(out, p=16, seed=7, extra=()):
    rc = run(
        "gen",
        "--p", str(p),
        "--seed", str(seed),
        "--out", str(out),
        "--margin", "0.3",
        "--scale", str(1.0 / (10 * p)),
        "--weight-min", "1.0",
        "--weight-max", "1.0",
        *extra,
    )
    assert rc == 0
    return out


class TestGen:
    def test_writes_five_matrices_and_manifest(self, tmp_path):
        gen_scenario(tmp_path)
        for name in ("b1", "b2", "delta_true", "sigma_x1", "sigma_x2"):
            assert read_matrix_csv(tmp_path / f"{name}.csv").shape == (16, 16)
        manifest = read_keyvalue(tmp_path / "manifest.txt")
        assert manifest["p"] == "16" and manifest["seed"] == "7"

    def test_b2_is_b1_plus_delta(self, tmp_path):
        gen_scenario(tmp_path)
        b1 = read_matrix_csv(tmp_path / "b1.csv")
        b2 = read_matrix_csv(tmp_path / "b2.csv")
        delta = read_matrix_csv(tmp_path / "delta_true.csv")
        assert_allclose(b2, b1 + delta, atol=1e-8)

    def test_deterministic_bytes(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        gen_scenario(first)
        gen_scenario(second)
        for name in ("b1", "b2", "delta_true", "sigma_x1", "sigma_x2", "manifest"):
            ext = "txt" if name == "manifest" else "csv"
            assert (first / f"{name}.{ext}").read_bytes() == (
                second / f"{name}.{ext}"
            ).read_bytes()

    def test_non_square_p_rejected(self, tmp_path, capsys):
        for p in ("15", "1", "-1", "-4"):
            rc = run("gen", "--p", p, "--out", str(tmp_path))
            assert rc == 2
            assert f"p = {p}" in capsys.readouterr().err

    def test_negative_seed_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "scenario"
        rc = run("gen", "--p", "16", "--seed", "-1", "--out", str(out))
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_delta_flag_exits_2_and_manifest_keeps_grid(self, tmp_path, capsys):
        # --delta had one choice, grid, which gen still draws and records
        assert run("gen", "--p", "16", "--delta", "grid", "--out", str(tmp_path / "o")) == 2
        assert "unrecognized arguments: --delta grid" in capsys.readouterr().err
        gen_scenario(tmp_path)
        assert read_keyvalue(tmp_path / "manifest.txt")["delta"] == "grid"

    def test_unwritable_out_is_io_error(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        rc = run("gen", "--p", "16", "--out", str(blocker / "sub"))
        assert rc == 4

    @pytest.mark.parametrize(
        "condition, rc", [("1e10", 0), ("1e12", 2)], ids=["at-limit", "past-limit"]
    )
    def test_dense_sigma_condition_limit(self, tmp_path, capsys, condition, rc):
        out = tmp_path / "scenario"
        argv = ("gen", "--p", "9", "--sigma", "dense", "--sigma-condition", condition)
        assert run(*argv, "--out", str(out)) == rc
        if rc:
            assert "condition must be <= 1 / EIG_RELATIVE_FLOOR = 1e+10" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize(
    "argv, setting",
    [
        (("gen", "--p", "9", "--weight-min", "1e308", "--weight-max", "1e308"), "weight_range"),
        (("gen", "--p", "9", "--scale", "1e308"), "scale 1e+308"),
        # a finite diagonal whose largest eigenvalue overflows
        (("gen", "--p", "9", "--scale", "2e307"), "scale 2e+307 and margin 0.5"),
        (
            ("experiment", "synth", "--dims", "9", "--instances", "1", "--ratios", "1",
             "--base-scale", "1e308"),
            "scale 1e+308",
        ),
    ],
    ids=["gen-weights", "gen-scale", "gen-spectrum", "synth-base-scale"],
)
def test_overflowing_scenario_draw_exits_2(tmp_path, capsys, argv, setting):
    # the diagonal sums overflowed to inf, and eigvalsh raised a LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the run
        rc = run(*argv, "--out", str(tmp_path / "out"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the diagonal of the 9 x 9 ") and setting in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_overflowing_power_base_scale_exits_2(tmp_path, capsys):
    # the scaled base overflowed with a RuntimeWarning, then as_symmetric
    # reported only "matrix contains non-finite entries"
    argv = ("experiment", "power", "--instances", "1", "--ratios", "1", "--base-scale", "1e306")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(*argv, "--out", str(tmp_path / "out.csv"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the diagonal of the 117 x 117 base matrix") and "scale 1e+306" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_small_well_conditioned_sigma_is_accepted(tmp_path):
    # a diagonal of condition number 2 at scale 1e-20: the definiteness
    # floor was an absolute 1e-10 below scale 1, so it exited 2 as "not
    # positive definite within the relative floor"
    argv = ("experiment", "synth", "--dims", "9", "--instances", "1", "--ratios", "1",
            "--sigma", "diagonal", "--sigma-min", "1e-20", "--sigma-max", "2e-20")
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 2


def test_overflowing_whitened_covariance_exits_2(tmp_path, capsys):
    # the whitened covariance overflowed with a RuntimeWarning, then
    # as_symmetric reported only "matrix contains non-finite entries"; a
    # covariance and a sigma_x at 1e300 whiten to entries near 1e600
    for name in ("cov", "sigma"):
        write_matrix_csv(tmp_path / f"{name}.csv", 1e300 * np.eye(9))
    cov, sigma = str(tmp_path / "cov.csv"), str(tmp_path / "sigma.csv")
    argv = ("estimate", "--cov1", cov, "--cov2", cov, "--n1", "40", "--n2", "40",
            "--sigma-x1", sigma, "--sigma-x2", sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(*argv, "--out", str(tmp_path / "out"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sigma_x is too large") and "whitened covariance" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_huge_sigma_gives_the_rows_of_a_unit_one(tmp_path, capsys):
    # at sigma_x 1e300..1e308 the samples' covariance overflowed and the
    # sweep exited 2; the samples are scaled first, and the row is the one
    # at 1..1e8, wall time apart
    rows = []
    for low, high in (("1", "1e8"), ("1e300", "1e308")):
        out = tmp_path / f"{low}.csv"
        argv = ("experiment", "synth", "--dims", "9", "--instances", "1", "--ratios", "1",
                "--sigma", "diagonal", "--sigma-min", low, "--sigma-max", high)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--out", str(out)) == 0, capsys.readouterr().err
        rows.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    assert rows[0] == rows[1] and len(rows[0]) == 2, rows


@pytest.fixture
def scenario_with_samples(tmp_path):
    gen_scenario(tmp_path, p=16, seed=7)
    b1 = read_matrix_csv(tmp_path / "b1.csv")
    b2 = read_matrix_csv(tmp_path / "b2.csv")
    sigma1 = read_matrix_csv(tmp_path / "sigma_x1.csv")
    sigma2 = read_matrix_csv(tmp_path / "sigma_x2.csv")
    y1 = sample_potentials(b1, sigma1, 4000, seed=[7, 101])
    y2 = sample_potentials(b2, sigma2, 4000, seed=[7, 102])
    write_samples_csv(tmp_path / "y1.csv", y1)
    write_samples_csv(tmp_path / "y2.csv", y2)
    return tmp_path


def estimate_flags(d, out, *extra):
    return (
        "estimate",
        "--samples1", str(d / "y1.csv"),
        "--samples2", str(d / "y2.csv"),
        "--sigma-x1", str(d / "sigma_x1.csv"),
        "--sigma-x2", str(d / "sigma_x2.csv"),
        "--out", str(out),
        *extra,
    )


# a bad matrix file in the second regime, on each route that reads it:
# (route flags, bad file's flag, its matrix, exit code, message after the flag)
ESTIMATE_ROUTES = {
    "cov": "--cov1 c4 --cov2 c4 --n1 5 --n2 5",
    "samples": "--samples1 y4 --samples2 y4",
    "plugin": "--samples1 y4 --samples2 y4 --estimator plugin",
}
BAD_SIGMA_FILES = {
    "indefinite": (
        np.diag([1.0, 1.0, 1.0, -0.1]), 3,
        "sigma_x must be positive semidefinite (min eig -1.000e-01",
    ),
    "singular": (
        np.diag([1.0, 1.0, 1.0, 0.0]), 3, "sigma_x must be positive definite (min eig 0.000e+00"
    ),
    "asymmetric": (np.eye(4) + np.diag([0.5, 0.0, 0.0], k=1), 2, "matrix is asymmetric"),
}
BAD_MATRIX_FILES = [
    pytest.param(route, "--sigma-x2", *bad, id=f"sigma-x2-{kind}-{route}")
    for kind, bad in BAD_SIGMA_FILES.items()
    for route in ESTIMATE_ROUTES
] + [pytest.param("cov", "--cov2", None, 2, "matrix is asymmetric", id="cov2-asymmetric")]


class TestEstimate:
    def test_recovers_support_at_large_n(self, scenario_with_samples, tmp_path):
        d = scenario_with_samples
        out = tmp_path / "est"
        rc = run(*estimate_flags(d, out, "--lambda-scale", "2.0", "--rho", "0.1"))
        assert rc == 0
        delta_hat = read_matrix_csv(out / "delta_hat.csv")
        truth = read_matrix_csv(d / "delta_true.csv")
        off = ~np.eye(16, dtype=bool)
        assert np.array_equal((np.abs(delta_hat) > 0.25) & off, (truth != 0) & off)
        report = read_keyvalue(out / "report.txt")
        assert report["converged"] == "true"
        assert report["estimator"] == "dtrace"
        assert report["stop"] == "polished"
        assert int(report["cg_steps"]) > 0

    def test_huge_lambda_zeroes_off_diagonals(self, scenario_with_samples, tmp_path):
        d = scenario_with_samples
        out = tmp_path / "shrunk"
        rc = run(*estimate_flags(d, out, "--lambda", "1e9", "--rho", "0.1"))
        assert rc == 0
        delta_hat = read_matrix_csv(out / "delta_hat.csv")
        off = ~np.eye(16, dtype=bool)
        assert np.max(np.abs(delta_hat[off])) == 0.0

    def test_plugin_undefined_below_p(self, tmp_path, capsys):
        gen_scenario(tmp_path, p=16)
        b1 = read_matrix_csv(tmp_path / "b1.csv")
        sigma1 = read_matrix_csv(tmp_path / "sigma_x1.csv")
        y = sample_potentials(b1, sigma1, 8, seed=3)
        write_samples_csv(tmp_path / "y1.csv", y)
        write_samples_csv(tmp_path / "y2.csv", y)
        rc = run(*estimate_flags(tmp_path, tmp_path / "o", "--estimator", "plugin"))
        assert rc == 3
        assert "plugin undefined for n <= p" in capsys.readouterr().err

    def test_unbounded_below_p_exits_3(self, tmp_path, capsys):
        gen_scenario(tmp_path, p=16)
        for tag, seed in (("1", 3), ("2", 4)):
            b = read_matrix_csv(tmp_path / f"b{tag}.csv")
            sigma = read_matrix_csv(tmp_path / f"sigma_x{tag}.csv")
            write_samples_csv(tmp_path / f"y{tag}.csv", sample_potentials(b, sigma, 8, seed=seed))
        out = tmp_path / "o"
        rc = run(*estimate_flags(tmp_path, out, "--lambda", "0.01", "--rho", "0.1"))
        assert rc == 3
        assert "unbounded below" in capsys.readouterr().err
        assert not (out / "delta_hat.csv").exists()

    @pytest.fixture
    def covariance_flags_below_p(self, tmp_path):
        """estimate flags for n = 8 sample covariances at p = 16 (gen --p 16 --seed 7).

        Without the rank cap that n = 8 sets, the certificate misses the
        recession direction of this draw and the loop runs to max_iter.
        """
        assert run("gen", "--p", "16", "--seed", "7", "--out", str(tmp_path)) == 0
        for tag in ("1", "2"):
            b = read_matrix_csv(tmp_path / f"b{tag}.csv")
            sigma = read_matrix_csv(tmp_path / f"sigma_x{tag}.csv")
            y = sample_potentials(b, sigma, 8, seed=[7, int(tag), 13])
            write_matrix_csv(tmp_path / f"c{tag}.csv", y.T @ y / 8)
        return (
            "estimate",
            "--cov1", str(tmp_path / "c1.csv"),
            "--cov2", str(tmp_path / "c2.csv"),
            "--sigma-x1", str(tmp_path / "sigma_x1.csv"),
            "--sigma-x2", str(tmp_path / "sigma_x2.csv"),
            "--lambda", "0.01",
            "--out", str(tmp_path / "o"),
        )

    def test_covariance_input_requires_n_flags(self, covariance_flags_below_p, capsys):
        assert run(*covariance_flags_below_p) == 2
        assert "--n1" in capsys.readouterr().err

    def test_covariance_n_below_one_rejected(self, covariance_flags_below_p, capsys):
        assert run(*covariance_flags_below_p, "--n1", "0", "--n2", "8") == 2
        assert "--n1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1e4])
    def test_covariance_below_p_certified_unbounded(
        self, covariance_flags_below_p, tmp_path, capsys, scale
    ):
        # the PSD clip band was 1e-10 max(1, largest eigenvalue): below 1 it was
        # absolute, so at x100 the 9-digit rounding of the discarded
        # eigenvalues exited 3 as "not positive semidefinite"
        for tag in ("1", "2"):
            path = tmp_path / f"c{tag}.csv"
            write_matrix_csv(path, scale * read_matrix_csv(path))
        assert run(*covariance_flags_below_p, "--n1", "8", "--n2", "8") == 3
        assert "8-dimensional null space" in capsys.readouterr().err
        assert not (tmp_path / "o" / "delta_hat.csv").exists()

    @pytest.mark.parametrize(
        "n, collinear, kind",
        [(8, False, "identity"), (80, True, "identity"), (80, True, "dense")],
        ids=["n8", "n80-collinear", "n80-collinear-dense-sigma"],
    )
    def test_nine_digit_covariance_keeps_its_null_space(self, tmp_path, capsys, n, collinear, kind):
        # 9-digit rounding moves a null eigenvalue of the covariance by about
        # 1e-9 of the largest: at n = 8 the discarded ones were "not positive
        # semidefinite" in 40 of 40 draws, and at n = 80 the collinear column's
        # null direction was rejected or kept as a tiny positive eigenvalue
        rng = np.random.default_rng(24)
        paths = []
        for tag in ("1", "2"):
            y = rng.standard_normal((n, 16))
            if collinear and tag == "2":
                y[:, -1] = y[:, 0] + y[:, 1]
            paths += ["--cov" + tag, str(tmp_path / f"c{tag}.csv"), f"--n{tag}", str(n)]
            write_matrix_csv(paths[-3], y.T @ y / n)
            if kind == "dense":
                paths += ["--sigma-x" + tag, str(tmp_path / f"s{tag}.csv")]
                write_matrix_csv(paths[-1], make_sigma(SigmaSpec(kind="dense"), 16, rng))
        sigma = ("--estimator", "sqrt") if kind == "identity" else ()
        argv = ("estimate", *paths, *sigma, "--lambda", "0.01", "--max-iter", "200")
        assert run(*argv, "--out", str(tmp_path / "o")) == 3
        name, null = ("psi2", 1) if collinear else ("psi1", 16 - n)
        assert f"{null}-dimensional null space of {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["identity", "dense"])
    def test_nine_digit_118_bus_covariance_keeps_full_rank(self, tmp_path, capsys, kind):
        # the population covariance b^-1 sigma b^-1 of the 118-bus base
        # (cond(b) 2.9e3) has whitened eigenvalues down to 4.3e-8 of the
        # largest, at least 240 times the floor each is judged at; one floor
        # of p x 5e-9 (5.85e-7) times the largest would make them null, and
        # the solve would exit 3 on an unbounded problem
        b = MatpowerBaseSpec().matrix
        binv = np.linalg.inv(b)
        argv = ["estimate", "--n1", "117", "--n2", "117", "--lambda", "0.01"]
        for tag in ("1", "2"):
            sigma = np.eye(117)
            if kind == "dense":
                argv += ["--sigma-x" + tag, str(tmp_path / f"s{tag}.csv")]
                write_matrix_csv(argv[-1], make_sigma(SigmaSpec(kind="dense"), 117, np.random.default_rng(1)))
                sigma = read_matrix_csv(argv[-1])
            argv += ["--cov" + tag, str(tmp_path / f"c{tag}.csv")]
            write_matrix_csv(argv[-1], binv @ sigma @ binv)
            factor = precision_factor_from_covariance(
                read_matrix_csv(argv[-1]), sigma, 117, _precision=TEXT_PRECISION
            )
            assert_allclose(factor, binv, rtol=0, atol=1e-6 * np.abs(binv).max())
        if kind == "identity":
            argv += ["--estimator", "sqrt"]
        assert run(*argv, "--out", str(tmp_path / "o")) == 0, capsys.readouterr().err
        assert np.abs(read_matrix_csv(tmp_path / "o" / "delta_hat.csv")).max() < 1e-6

    @pytest.mark.parametrize("n", [16, 4])
    @pytest.mark.parametrize("bad", ["--cov1", "--cov2"])
    def test_indefinite_covariance_rejected(self, tmp_path, capsys, n, bad):
        # an eigenvalue of -1e-3 times the largest is not rounding, whether
        # the n largest eigenvalues keep it (n = p) or discard it (n < p);
        # the error names the regime whose file holds it
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((16, 16)))
        values = np.concatenate([[-1e-3], np.linspace(0.1, 1.0, 15)])
        write_matrix_csv(tmp_path / "bad.csv", (q * values) @ q.T)
        write_matrix_csv(tmp_path / "good.csv", (q * np.abs(values)) @ q.T)
        argv = ["estimate", "--n1", str(n), "--n2", str(n)]
        for flag in ("--cov1", "--cov2"):
            argv += [flag, str(tmp_path / ("bad.csv" if flag == bad else "good.csv"))]
        assert run(*argv, "--estimator", "sqrt", "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert re.search(r"must be positive semidefinite\W+min eig\w* -1\.0+e-03", err), err
        assert f"error: {bad}: " in err, err

    def test_covariance_route_matches_samples_route(self, scenario_with_samples, tmp_path):
        d = scenario_with_samples
        y1 = np.loadtxt(d / "y1.csv", delimiter=",", skiprows=1)
        y2 = np.loadtxt(d / "y2.csv", delimiter=",", skiprows=1)
        write_matrix_csv(d / "c1.csv", y1.T @ y1 / y1.shape[0])
        write_matrix_csv(d / "c2.csv", y2.T @ y2 / y2.shape[0])
        out_a = tmp_path / "from_samples"
        out_b = tmp_path / "from_cov"
        assert run(*estimate_flags(d, out_a, "--lambda", "0.05", "--rho", "0.1")) == 0
        rc = run(
            "estimate",
            "--cov1", str(d / "c1.csv"),
            "--cov2", str(d / "c2.csv"),
            "--sigma-x1", str(d / "sigma_x1.csv"),
            "--sigma-x2", str(d / "sigma_x2.csv"),
            "--n1", "4000",
            "--n2", "4000",
            "--lambda", "0.05",
            "--rho", "0.1",
            "--out", str(out_b),
        )
        assert rc == 0
        # the covariance CSV is quantized to 9 significant digits, so the two
        # routes agree to CSV precision, not machine precision
        assert_allclose(
            read_matrix_csv(out_a / "delta_hat.csv"),
            read_matrix_csv(out_b / "delta_hat.csv"),
            atol=1e-6,
        )

    def test_unknown_sigma_route(self, scenario_with_samples, tmp_path):
        d = scenario_with_samples
        out = tmp_path / "uns"
        rc = run(
            "estimate",
            "--samples1", str(d / "y1.csv"),
            "--samples2", str(d / "y2.csv"),
            "--estimator", "sqrt",
            "--lambda", "0.05",
            "--rho", "0.1",
            "--out", str(out),
        )
        assert rc == 0
        # the sqrt estimator is dtrace whitened with the identity, bit for bit
        y1, y2 = read_samples_csv(d / "y1.csv"), read_samples_csv(d / "y2.csv")
        identity = np.eye(y1.shape[1])
        est = estimate_delta(
            precision_factor(y1, identity),
            precision_factor(y2, identity),
            SolverConfig(lam=0.05, rho=0.1),
        )
        write_matrix_csv(tmp_path / "library.csv", est.delta)
        assert (out / "delta_hat.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
        report = read_keyvalue(out / "report.txt")
        assert (report["estimator"], report["unknown_sigma"]) == ("sqrt", "true")

    def test_sigma_flags_conflict_with_unknown_sigma(self, scenario_with_samples, tmp_path, capsys):
        d = scenario_with_samples
        rc = run(*estimate_flags(d, tmp_path / "x", "--estimator", "sqrt"))
        assert rc == 2
        assert "--estimator sqrt conflicts with --sigma-x1/--sigma-x2" in capsys.readouterr().err

    def test_missing_sigma_flags_rejected(self, scenario_with_samples, tmp_path, capsys):
        d = scenario_with_samples
        rc = run(
            "estimate",
            "--samples1", str(d / "y1.csv"),
            "--samples2", str(d / "y2.csv"),
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "--sigma-x1" in capsys.readouterr().err

    def test_both_input_modes_rejected(self, scenario_with_samples, tmp_path, capsys):
        d = scenario_with_samples
        rc = run(
            "estimate",
            "--samples1", str(d / "y1.csv"),
            "--samples2", str(d / "y2.csv"),
            "--cov1", str(d / "y1.csv"),
            "--cov2", str(d / "y2.csv"),
            "--estimator", "sqrt",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "give sample CSVs or covariance CSVs, not both" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = run(
            "estimate",
            "--samples1", str(tmp_path / "absent.csv"),
            "--samples2", str(tmp_path / "absent.csv"),
            "--estimator", "sqrt",
            "--out", str(tmp_path),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "absent.csv" in err
        assert "input file not found" in err
        assert "file file" not in err

    def test_non_utf8_samples_exits_2(self, scenario_with_samples, tmp_path, capsys):
        bad = tmp_path / "bad_y1.csv"
        bad.write_bytes((scenario_with_samples / "y1.csv").read_bytes()[:200] + b"\xff\n")
        flags = list(estimate_flags(scenario_with_samples, tmp_path / "est"))
        flags[flags.index("--samples1") + 1] = str(bad)
        rc = run(*flags)
        assert rc == 2
        assert f"{bad}: file is not valid UTF-8" in capsys.readouterr().err

    def test_non_utf8_sigma_exits_2(self, scenario_with_samples, tmp_path, capsys):
        bad = tmp_path / "bad_sigma.csv"
        bad.write_bytes(b"\xff" + (scenario_with_samples / "sigma_x1.csv").read_bytes())
        flags = list(estimate_flags(scenario_with_samples, tmp_path / "est"))
        flags[flags.index("--sigma-x1") + 1] = str(bad)
        rc = run(*flags)
        assert rc == 2
        assert f"{bad}: file is not valid UTF-8" in capsys.readouterr().err

    def test_plugin_run_writes_estimate(self, scenario_with_samples, tmp_path):
        out = tmp_path / "plug"
        assert run(*estimate_flags(scenario_with_samples, out, "--estimator", "plugin")) == 0
        assert (out / "delta_hat.csv").exists()
        report = read_keyvalue(out / "report.txt")
        assert report["estimator"] == "plugin"
        assert report["iterations"] == "0"
        assert report["converged"] == "true"
        # no --lambda or --lambda-scale: the estimator module's default penalty
        assert report["lambda"] == "%.9g" % default_lambda(16, 4000, DEFAULT_LAMBDA_SCALE)

    @pytest.fixture
    def rule_files(self, tmp_path):
        """Small input files: 3- and 4-wide samples and covariances, a 4 x 4 sigma, and bad.csv."""
        rng = np.random.default_rng(0)
        for p in (3, 4):
            y = rng.standard_normal((5, p))
            write_samples_csv(tmp_path / f"y{p}.csv", y)
            write_matrix_csv(tmp_path / f"c{p}.csv", y.T @ y / 5)
        write_matrix_csv(tmp_path / "s4.csv", np.eye(4))
        (tmp_path / "bad.csv").write_text("1,2\nx,y\n")
        return tmp_path

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--estimator sqrt", "inputs required"),
            ("--samples1 y3 --estimator sqrt", "both --samples1 and --samples2 are required"),
            ("--cov1 c3 --n1 5 --n2 5 --estimator sqrt", "both --cov1 and --cov2 are required"),
            ("--samples1 y3 --samples2 y4 --estimator sqrt", "sample files disagree on dimension"),
            (
                "--cov1 c3 --cov2 c4 --n1 5 --n2 5 --estimator sqrt",
                "covariance files must be square and same-shaped",
            ),
            (
                "--samples1 y3 --samples2 y3 --sigma-x1 s4 --sigma-x2 s4",
                "injection covariances must be 3 x 3",
            ),
            (
                "--estimator plugin --cov1 bad --cov2 bad --n1 5 --n2 5 --sigma-x1 s4 --sigma-x2 s4",
                "the plugin estimator needs sample CSVs, not covariances",
            ),
            ("--samples1 bad --samples2 bad --n1 3 --n2 3 --estimator sqrt", "--n1 needs --cov1/--cov2"),
            ("--samples1 bad --samples2 bad --n2 3 --estimator sqrt", "--n2 needs --cov1/--cov2"),
        ],
        ids=[
            "no-inputs", "no-samples2", "no-cov2", "sample-widths", "cov-shapes",
            "sigma-shape", "plugin-cov", "samples-n1", "samples-n2",
        ],
    )
    def test_input_rules_exit_2(self, rule_files, flags, message, capsys):
        files = {"y3", "y4", "c3", "c4", "s4", "bad"}
        argv = [str(rule_files / f"{tok}.csv") if tok in files else tok for tok in flags.split()]
        out = rule_files / "o"
        assert run("estimate", *argv, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route, flag, bad, rc, message", BAD_MATRIX_FILES)
    def test_bad_matrix_file_is_named_by_its_flag(
        self, rule_files, route, flag, bad, rc, message, capsys
    ):
        d = rule_files
        if bad is None:
            bad = read_matrix_csv(d / "c4.csv") + np.diag([0.5, 0.0, 0.0], k=1)
        write_matrix_csv(d / "bad4.csv", bad)
        files = {"y4", "c4"}
        argv = [str(d / f"{tok}.csv") if tok in files else tok for tok in ESTIMATE_ROUTES[route].split()]
        argv += ["--sigma-x1", str(d / "s4.csv"), "--sigma-x2", str(d / "s4.csv")]
        argv[argv.index(flag) + 1] = str(d / "bad4.csv")
        out = d / "o"
        assert run("estimate", *argv, "--out", str(out)) == rc
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: {message}"), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lambda-scale", "-5", f"lam must be a finite nonnegative real, got "
             f"{default_lambda(4, 5, -5.0)!r}"),
            ("--rho", "-1", "rho must be a finite positive real, got -1.0"),
            ("--lambda", "-1", "lam must be a finite nonnegative real, got -1.0"),
        ],
        ids=["lambda-scale", "rho", "lambda"],
    )
    def test_plugin_checks_solver_flags(self, rule_files, flag, value, message, capsys):
        d = rule_files
        out = d / "o"
        rc = run(
            "estimate", "--estimator", "plugin",
            "--samples1", str(d / "y4.csv"), "--samples2", str(d / "y4.csv"),
            "--sigma-x1", str(d / "s4.csv"), "--sigma-x2", str(d / "s4.csv"),
            flag, value, "--out", str(out),
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--lambda", "1e306"), ("--rho", "1e308")], ids=["lambda", "rho"]
    )
    def test_overflowing_admm_values_exit_2(self, rule_files, flag, value, capsys):
        d = rule_files
        out = d / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the run
            rc = run(
                "estimate",
                "--samples1", str(d / "y4.csv"), "--samples2", str(d / "y4.csv"),
                "--sigma-x1", str(d / "s4.csv"), "--sigma-x2", str(d / "s4.csv"),
                flag, value, "--out", str(out),
            )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 4 rho and lam / (4 rho) must be finite, got lam = ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("token", ["oops", "1_000", "１"], ids=["word", "underscore", "full-width"])
    def test_malformed_number_exits_2(self, rule_files, token, capsys):
        d = rule_files
        bad = d / "bad_number.csv"
        bad.write_text(f"# n=2 p=4\n1,2,3,4\n5,6,7,{token}\n", encoding="utf-8")
        out = d / "o"
        rc = run(
            "estimate",
            "--samples1", str(bad), "--samples2", str(d / "y4.csv"),
            "--sigma-x1", str(d / "s4.csv"), "--sigma-x2", str(d / "s4.csv"),
            "--out", str(out),
        )
        assert rc == 2
        assert "bad number on line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_plugin_singular_above_p_exits_3(self, tmp_path, capsys):
        gen_scenario(tmp_path, p=16)
        for tag in ("1", "2"):
            b = read_matrix_csv(tmp_path / f"b{tag}.csv")
            sigma = read_matrix_csv(tmp_path / f"sigma_x{tag}.csv")
            rows = sample_potentials(b, sigma, 4, seed=int(tag))
            # n = 40 > p = 16, but only 4 distinct rows: the covariance has rank 4
            write_samples_csv(tmp_path / f"y{tag}.csv", np.repeat(rows, 10, axis=0))
        out = tmp_path / "o"
        assert run(*estimate_flags(tmp_path, out, "--estimator", "plugin")) == 3
        err = capsys.readouterr().err
        assert "sample covariance is singular" in err
        assert "n <= p" not in err
        assert not out.exists()

    def test_interrupt_exits_130(self, rule_files, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("lapdiff.cli.estimate_delta", interrupted)
        d = rule_files
        rc = run(
            "estimate",
            "--samples1", str(d / "y4.csv"), "--samples2", str(d / "y4.csv"),
            "--sigma-x1", str(d / "s4.csv"), "--sigma-x2", str(d / "s4.csv"),
            "--out", str(d / "o"),
        )
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="watches the signal mask through /proc"
    )
    def test_sigterm_exits_130(self, tmp_path):
        src = os.path.dirname(os.path.dirname(lapdiff.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        # 10 samples at p = 16 whose problem is unbounded below, though no direction
        # the pre-check tests shows it: no polish can pass, so the solve runs until
        # it is signalled
        rng = np.random.default_rng(1)
        write_samples_csv(tmp_path / "y1.csv", rng.standard_normal((10, 16)))
        write_samples_csv(tmp_path / "y2.csv", 1.5 * rng.standard_normal((10, 16)))
        flags = (
            "estimate", "--samples1", str(tmp_path / "y1.csv"),
            "--samples2", str(tmp_path / "y2.csv"), "--estimator", "sqrt",
            "--max-iter", "100000000", "--out", str(tmp_path / "o"),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "lapdiff.cli", *flags],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not _catches(proc.pid, signal.SIGTERM):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(1.0)  # past reading the inputs, into the solve
            assert proc.poll() is None
            proc.send_signal(signal.SIGTERM)
            sent = time.monotonic()
            _, err = proc.communicate(timeout=10.0)
            elapsed = time.monotonic() - sent
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130, err
        assert "interrupted" in err
        assert elapsed < 5.0
        assert not (tmp_path / "o").exists()

    def test_all_zero_samples_exit_0(self, tmp_path):
        # both factors are zero: the polish setup raised a numpy LinAlgError,
        # and the command exited 1 with a traceback
        write_samples_csv(tmp_path / "y.csv", np.zeros((20, 4)))
        out = tmp_path / "o"
        samples = str(tmp_path / "y.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(
                "estimate", "--samples1", samples, "--samples2", samples,
                "--estimator", "sqrt", "--lambda", "0.1", "--rho", "0.1", "--out", str(out),
            )
        assert rc == 0
        assert not read_matrix_csv(out / "delta_hat.csv").any()
        assert read_keyvalue(out / "report.txt")["stop"] == "polished"

    def test_unconverged_exit_code(self, scenario_with_samples, tmp_path, capsys):
        d = scenario_with_samples
        out = tmp_path / "short"
        rc = run(*estimate_flags(d, out, "--max-iter", "1", "--lambda", "0.05"))
        assert rc == 3
        assert "within 1 iterations" in capsys.readouterr().err
        # outputs are still written for inspection
        assert (out / "delta_hat.csv").exists()
        report = read_keyvalue(out / "report.txt")
        assert report["converged"] == "false"
        assert (report["stop"], report["cg_steps"]) == ("max_iter", "0")
        # unset solver flags report the library defaults
        assert report["max_iter"] == "1"
        assert report["rho"] == "%.9g" % SolverConfig.rho


class TestExperiment:
    def test_synth_row_count_and_determinism(self, tmp_path):
        cfg = tmp_path / "desk.cfg"
        cfg.write_text(
            "# desk scale sweep\n"
            "dims = 9\n"
            "ratios = 0.5, 2\n"
            "instances = 2\n"
            "lambda_scale = 2.0\n"
            "margin = 0.3\n"
            "base_scale = 0.0111\n"
            "weight_min = 1.0\n"
            "weight_max = 1.0\n"
            "support_epsilon = 0.25\n"
            "rho = 0.1\n"
            "seed = 7\n"
        )
        out1 = tmp_path / "rows1.csv"
        out2 = tmp_path / "rows2.csv"
        assert run("experiment", "synth", "--config", str(cfg), "--out", str(out1)) == 0
        assert run("experiment", "synth", "--config", str(cfg), "--out", str(out2)) == 0
        lines1 = out1.read_text().splitlines()
        lines2 = out2.read_text().splitlines()
        assert len(lines1) == 1 + 2 * 2
        assert lines1[0].startswith("p,n,ratio,instance,estimator")
        # identical apart from the wall-time column
        strip = lambda lines: [",".join(l.split(",")[:-1]) for l in lines]
        assert strip(lines1) == strip(lines2)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "desk.cfg"
        cfg.write_text("dims = 9\nratios = 0.5\ninstances = 4\nrho = 0.1\nseed = 1\n")
        out = tmp_path / "rows.csv"
        rc = run(
            "experiment", "synth",
            "--config", str(cfg),
            "--instances", "1",
            "--out", str(out),
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dims = 9\nvoltage = 11\n")
        rc = run("experiment", "synth", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert rc == 2
        assert "voltage" in capsys.readouterr().err

    def test_removed_tol_consensus_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("dims = 9\ntol_consensus = 1e-8\n")
        rc = run("experiment", "synth", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert rc == 2
        assert "config key 'tol_consensus' is not valid" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"dims = 9\n# \xff\n")
        rc = run("experiment", "synth", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert rc == 2
        assert f"{cfg}: file is not valid UTF-8" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        rc = run(
            "experiment", "synth",
            "--dims", "9",
            "--ratios", "1",
            "--instances", "1",
            "--seed", "-1",
            "--out", str(tmp_path / "r.csv"),
        )
        assert rc == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "flags, key",
        [
            (("--weight-max", "inf"), "weight_max"),
            (("--support-epsilon", "inf"), "support_epsilon"),
            (("--sigma", "dense", "--sigma-condition", "inf"), "sigma_condition"),
        ],
        ids=["weight-max", "support-epsilon", "sigma-condition"],
    )
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, flags, key):
        out = tmp_path / "r.csv"
        rc = run(
            "experiment", "synth",
            "--dims", "9", "--ratios", "1", "--instances", "1", *flags, "--out", str(out),
        )
        assert rc == 2
        assert f"{key}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_parse_like_config_values(self, tmp_path):
        settings = {
            "dims": "9",
            "sample_sizes": "6, 40",
            "instances": "2",
            "estimators": "dtrace,sqrt",
            "lambda_scale": "1.5",
            "rho": "0.1",
            "max_iter": "3000",
            "margin": "0.3",
            "base_scale": "0.0111",
            "weight_min": "0.5",
            "weight_max": "1.0",
            "sigma": "diagonal",
            "support_epsilon": "0.25",
            "seed": "3",
        }
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        flags = [
            tok
            for key, value in settings.items()
            for tok in ("--" + key.replace("_", "-"), value)
        ]
        from_file = tmp_path / "file.csv"
        from_flags = tmp_path / "flags.csv"
        assert run("experiment", "synth", "--config", str(cfg), "--out", str(from_file)) == 0
        assert run("experiment", "synth", *flags, "--out", str(from_flags)) == 0
        strip = lambda path: [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        rows = strip(from_flags)
        assert len(rows) == 1 + 2 * 2 * 2
        assert {line.split(",")[4] for line in rows[1:]} == {"dtrace", "sqrt"}
        assert rows == strip(from_file)

    def test_ratios_and_sample_sizes_conflict(self, tmp_path, capsys):
        rc = run(
            "experiment", "synth",
            "--dims", "9",
            "--ratios", "1,2",
            "--sample-sizes", "20,40",
            "--out", str(tmp_path / "r.csv"),
        )
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_power_emits_117_dim_rows(self, tmp_path):
        out = tmp_path / "power.csv"
        rc = run(
            "experiment", "power",
            "--sample-sizes", "200",
            "--instances", "1",
            "--rho", "0.1",
            "--max-iter", "2000",
            "--base-scale", str(1.0 / 600.0),
            "--weight-min", "4.0",
            "--weight-max", "4.0",
            "--support-epsilon", "2.0",
            "--lambda-scale", "2.0",
            "--out", str(out),
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("117,200,")

    def test_power_non_utf8_case_exits_2(self, tmp_path, capsys):
        case = tmp_path / "bad.m"
        case.write_bytes(TWO_BUS.encode() + b"% \xff\n")
        rc = run("experiment", "power", "--case", str(case), "--out", str(tmp_path / "r.csv"))
        assert rc == 2
        assert "error: case text is not valid" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_plugin_compare_writes_per_density_files(self, tmp_path):
        prefix = tmp_path / "cmp"
        rc = run(
            "experiment", "plugin-compare",
            "--p", "12",
            "--densities", "0.5,0.8",
            "--sample-sizes", "6,40",
            "--instances", "2",
            "--rho", "0.1",
            "--lambda-scale", "2.0",
            "--base-scale", str(1.0 / 120.0),
            "--margin", "0.3",
            "--out", str(prefix),
        )
        assert rc == 0
        for tag in ("0.5", "0.8"):
            lines = (tmp_path / f"cmp_s{tag}.csv").read_text().splitlines()
            # 2 sample sizes x 2 instances x 2 estimators
            assert len(lines) == 1 + 8
            tags = {line.split(",")[4] for line in lines[1:]}
            assert tags == {"dtrace", "plugin"}

    def test_interrupt_flushes_rows(self, tmp_path, monkeypatch, capsys):
        rows = (
            SweepRow(
                p=9, n=36, ratio=1.0, instance=0, estimator="dtrace",
                support_recovered=True, sup_norm_error=0.1, iterations=10,
                converged=True, wall_time_ms=1.0,
            ),
        )

        def fake_run_sweep(cfg, row_callback=None):
            raise SweepInterrupted(rows)

        monkeypatch.setattr("lapdiff.cli.run_sweep", fake_run_sweep)
        out = tmp_path / "partial.csv"
        rc = run("experiment", "synth", "--dims", "9", "--out", str(out))
        assert rc == 130
        assert "flushed 1 completed rows" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("9,36,")

    @pytest.mark.skipif(not HAS_PROC, reason="watches the sweep's workers through /proc")
    # at once the signal mostly lands while cells are still being queued; a
    # second later, while the coordinating thread waits on finished cells
    @pytest.mark.parametrize("later", [0.0, 1.0], ids=["at-once", "a-second-later"])
    def test_sigterm_flushes_rows_and_exits_130(self, tmp_path, later):
        out = tmp_path / "rows.csv"
        src = os.path.dirname(os.path.dirname(lapdiff.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", LAPDIFF_THREADS="2")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "lapdiff.cli", "experiment", "synth",
                # 4000 cells of a few ms each: the sweep runs for tens of seconds
                "--dims", "16", "--sample-sizes", "64,128", "--instances", "2000",
                "--out", str(out),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # the worker processes start inside run_sweep, after the SIGTERM handler is set
            wait_for_children(proc.pid, 2)
            time.sleep(later)
            proc.send_signal(signal.SIGTERM)
            sent = time.monotonic()
            _, err = proc.communicate(timeout=10.0)
            elapsed = time.monotonic() - sent
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130, err
        flushed = re.search(r"interrupted: flushed (\d+) completed rows", err)
        assert flushed, err
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + int(flushed.group(1))
        assert later == 0.0 or len(lines) > 1
        assert elapsed < 10.0

    @pytest.mark.skipif(not HAS_PROC, reason="watches the sweep's workers through /proc")
    @pytest.mark.parametrize("threads", [None, "1"], ids=["default-workers", "one-worker"])
    def test_sigterm_ends_a_slow_solve_within_2_s(self, tmp_path, threads):
        out = tmp_path / "rows.csv"
        src = os.path.dirname(os.path.dirname(lapdiff.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("LAPDIFF_THREADS", None)
        if threads is not None:
            env["LAPDIFF_THREADS"] = threads
        workers = min(int(threads or min(8, lapdiff.experiments.usable_cores())), 4)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "lapdiff.cli", "experiment", "power",
                # criterion 6's regime at rho 1e-6: the two ratio-1 cells
                # (n = 77 < p) are certified unbounded at once, and the two
                # bounded ratio-3 cells would iterate for hours
                "--ratios", "1,3", "--instances", "2", "--seed", "11",
                "--lambda-scale", "2", "--weight-min", "4", "--weight-max", "4",
                "--base-scale", repr(1.0 / 600.0), "--support-epsilon", "2",
                "--rho", "1e-6", "--max-iter", "100000000",
                "--out", str(out),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            pids = wait_for_children(proc.pid, workers) if workers > 1 else []
            time.sleep(3.0)  # the ratio-1 cells finish within this
            proc.send_signal(signal.SIGTERM)
            sent = time.monotonic()
            _, err = proc.communicate(timeout=30.0)
            elapsed = time.monotonic() - sent
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130, err
        assert elapsed < 2.0
        assert "interrupted: flushed 2 completed rows" in err, err
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3
        assert all(line.startswith("117,77,1,") for line in lines[1:])
        assert "Traceback" not in err
        assert not [pid for pid in pids if alive(pid)]

    @pytest.mark.skipif(not HAS_PROC, reason="watches the sweep's workers through /proc")
    def test_ctrl_c_prints_no_traceback(self, tmp_path):
        out = tmp_path / "rows.csv"
        src = os.path.dirname(os.path.dirname(lapdiff.__file__))
        env = dict(os.environ, PYTHONPATH=src, LAPDIFF_THREADS="2")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "lapdiff.cli", "experiment", "synth",
                "--dims", "16", "--sample-sizes", "64,128", "--instances", "2000",
                "--out", str(out),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            pids = wait_for_children(proc.pid, 2)
            time.sleep(0.5)
            # a terminal's Ctrl-C: SIGINT to the whole foreground process group
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=10.0)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130, err
        assert re.search(r"interrupted: flushed \d+ completed rows", err), err
        assert "Traceback" not in err
        assert not [pid for pid in pids if alive(pid)]


def _catches(pid, signum):
    """Whether a running process has a handler installed for signum, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("SigCgt:"):
                return bool(int(line.split()[1], 16) >> (signum - 1) & 1)
    raise AssertionError(f"no signal mask for process {pid}")


class TestParseMatpower:
    def test_two_bus_laplacian(self, tmp_path):
        case = tmp_path / "two.m"
        case.write_text(TWO_BUS)
        out = tmp_path / "parsed"
        rc = run("parse-matpower", "--case", str(case), "--out", str(out))
        assert rc == 0
        lap = read_matrix_csv(out / "laplacian.csv")
        assert_allclose(lap, np.array([[2.0, -2.0], [-2.0, 2.0]]))
        reduced = read_matrix_csv(out / "reduced.csv")
        assert reduced.shape == (1, 1)
        summary = read_keyvalue(out / "summary.txt")
        assert summary["bus_count"] == "2"
        assert summary["ground_bus"] == "1"

    def test_bundled_118_case_reduces_to_117(self, tmp_path):
        case = tmp_path / "grid118.m"
        case.write_text(bundled_case_text())
        out = tmp_path / "parsed"
        rc = run("parse-matpower", "--case", str(case), "--out", str(out))
        assert rc == 0
        assert read_matrix_csv(out / "reduced.csv").shape == (117, 117)
        summary = read_keyvalue(out / "summary.txt")
        assert summary["bus_count"] == "118"
        assert summary["branch_count"] == "186"
        assert summary["ground_bus"] == "69"

    def test_corrupt_case_cites_line(self, tmp_path, capsys):
        case = tmp_path / "bad.m"
        case.write_text(TWO_BUS.replace("2 1 0 0", "2 oops 0 0"))
        rc = run("parse-matpower", "--case", str(case), "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_non_utf8_case_exits_2(self, tmp_path, capsys):
        case = tmp_path / "bad.m"
        case.write_bytes(TWO_BUS.encode() + b"% \xff\n")
        rc = run("parse-matpower", "--case", str(case), "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "error: case text is not valid" in capsys.readouterr().err

    def test_ground_override(self, tmp_path):
        case = tmp_path / "two.m"
        case.write_text(TWO_BUS)
        out = tmp_path / "g"
        rc = run("parse-matpower", "--case", str(case), "--ground", "2", "--out", str(out))
        assert rc == 0
        assert read_keyvalue(out / "summary.txt")["ground_bus"] == "2"


class TestParser:
    def test_missing_subcommand_exits_2(self):
        assert run() == 2

    def test_unknown_flag_exits_2(self):
        assert run("gen", "--p", "16", "--frequency", "50") == 2

    def test_help_exits_0(self):
        assert run("--help") == 0

    @pytest.mark.parametrize(
        "command",
        ["estimate", "experiment synth", "experiment power", "experiment plugin-compare"],
    )
    def test_removed_tol_consensus_flag_exits_2(self, command, tmp_path, capsys):
        argv = [*command.split(), "--tol-consensus", "1e-6", "--out", str(tmp_path / "o")]
        assert run(*argv) == 2
        assert "unrecognized arguments: --tol-consensus" in capsys.readouterr().err


def _flags(parser):
    """{option string: dest} of one parser's own flags."""
    return {opt: action.dest for action in parser._actions for opt in action.option_strings}


def _subparsers(parser):
    """{name: parser} of a parser's subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


_COMMON_EXPERIMENT_FLAGS = {
    "-h": "help", "--help": "help", "--config": "config", "--out": "out",
    "--full-scale": "full_scale", "--instances": "instances", "--lambda-scale": "lambda_scale",
    "--support-epsilon": "support_epsilon", "--seed": "seed", "--estimators": "estimators",
    "--sample-sizes": "sample_sizes", "--rho": "rho", "--max-iter": "max_iter",
    "--weight-min": "weight_min", "--weight-max": "weight_max", "--sign-mode": "sign_mode",
    "--sigma": "sigma", "--sigma-min": "sigma_min", "--sigma-max": "sigma_max",
    "--sigma-condition": "sigma_condition",
}

# Option strings and dests of every subcommand, pinned as a scripting contract.
PINNED_FLAGS = {
    "gen": {
        "-h": "help", "--help": "help", "--p": "p", "--seed": "seed",
        "--out": "out", "--density": "density", "--margin": "margin", "--scale": "scale",
        "--weight-min": "weight_min", "--weight-max": "weight_max", "--sign-mode": "sign_mode",
        "--sigma": "sigma", "--sigma-min": "sigma_min", "--sigma-max": "sigma_max",
        "--sigma-condition": "sigma_condition",
    },
    "estimate": {
        "-h": "help", "--help": "help", "--samples1": "samples1", "--samples2": "samples2",
        "--cov1": "cov1", "--cov2": "cov2", "--sigma-x1": "sigma_x1", "--sigma-x2": "sigma_x2",
        "--estimator": "estimator", "--lambda": "lam",
        "--lambda-scale": "lambda_scale", "--n1": "n1", "--n2": "n2", "--rho": "rho",
        "--max-iter": "max_iter", "--out": "out",
    },
    "experiment synth": dict(
        _COMMON_EXPERIMENT_FLAGS,
        **{"--dims": "dims", "--ratios": "ratios", "--density": "density",
           "--margin": "margin", "--base-scale": "base_scale"},
    ),
    "experiment power": dict(
        _COMMON_EXPERIMENT_FLAGS,
        **{"--ratios": "ratios", "--case": "case", "--weight-mode": "weight_mode",
           "--base-scale": "base_scale"},
    ),
    "experiment plugin-compare": dict(
        _COMMON_EXPERIMENT_FLAGS,
        **{"--p": "p", "--densities": "densities", "--margin": "margin",
           "--base-scale": "base_scale"},
    ),
    "parse-matpower": {
        "-h": "help", "--help": "help", "--case": "case", "--weight-mode": "weight_mode",
        "--ground": "ground", "--out": "out",
    },
}


def test_flag_choices_are_the_library_tuples():
    commands = _subparsers(build_parser())
    variants = _subparsers(commands["experiment"])

    def choices(parser, dest):
        return next(action.choices for action in parser._actions if action.dest == dest)

    for parser in (commands["gen"], *variants.values()):
        assert choices(parser, "sign_mode") is SIGN_MODES
        assert choices(parser, "sigma") is SIGMA_KINDS
    for parser in (variants["power"], commands["parse-matpower"]):
        assert choices(parser, "weight_mode") is WEIGHT_MODES
    assert choices(commands["estimate"], "estimator") is ESTIMATOR_TAGS


def test_flags_match_pinned_set():
    found = {}
    for name, sub in _subparsers(build_parser()).items():
        variants = _subparsers(sub)
        if variants:
            for variant, vp in variants.items():
                found[f"{name} {variant}"] = _flags(vp)
        else:
            found[name] = _flags(sub)
    assert found == PINNED_FLAGS
