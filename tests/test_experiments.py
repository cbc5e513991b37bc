"""Tests for the sweep harness: metrics, seeding, row bookkeeping, CSV."""

import dataclasses
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lapdiff.experiments as experiments
from lapdiff.errors import InvalidInputError
from lapdiff.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    GridDeltaSpec,
    MatpowerBaseSpec,
    RandomBaseSpec,
    SigmaSpec,
    SweepInterrupted,
    SweepResult,
    SweepRow,
    default_support_epsilon,
    make_sigma,
    max_degree,
    openblas_threads,
    run_instance,
    run_sweep,
    sup_norm_error,
    support_recovered,
    thread_cap,
    usable_cores,
    write_sweep_csv,
)
from lapdiff.network import assemble_scenario, lattice_delta, random_base_matrix

BLAS = openblas_threads()


def small_config(**overrides):
    """A config small enough to sweep in well under a second."""
    defaults = dict(
        dims=(9,),
        ratios=(0.5, 2.0),
        instances=2,
        lambda_scale=2.0,
        delta_spec=GridDeltaSpec(weight_range=(1.0, 1.0), sign_mode="mixed"),
        base_spec=RandomBaseSpec(density=1.0, margin=0.3, scale=1.0 / 90.0),
        sigma_spec=SigmaSpec(kind="identity"),
        support_epsilon=0.25,
        seed=7,
        rho=0.1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_rejects_empty_dims(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(dims=())

    def test_rejects_tiny_dimension(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(dims=(1,))

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(dims=(9,), ratios=(1.0, 0.0))

    def test_rejects_unknown_estimator(self):
        with pytest.raises(InvalidInputError, match="unknown estimator"):
            ExperimentConfig(dims=(9,), estimators=("dtrace", "oracle"))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(dims=(9,), support_epsilon=0.0)

    def test_rejects_bad_solver_fields_at_construction(self):
        with pytest.raises(InvalidInputError, match="max_iter"):
            ExperimentConfig(dims=(9,), max_iter=2.5)

    def test_rejects_fractional_instances(self):
        with pytest.raises(InvalidInputError, match="instances"):
            ExperimentConfig(dims=(9,), instances=2.5)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidInputError, match="seed"):
            ExperimentConfig(dims=(9,), seed=-1)

    def test_rejects_wrong_base_spec_type(self):
        with pytest.raises(InvalidInputError, match="base_spec"):
            ExperimentConfig(dims=(9,), base_spec=object())

    def test_rejects_bad_weight_range(self):
        with pytest.raises(InvalidInputError):
            GridDeltaSpec(weight_range=(1.0, 0.4))

    def test_rejects_unknown_sigma_kind(self):
        with pytest.raises(InvalidInputError):
            SigmaSpec(kind="wishart")

    def test_rejects_unknown_weight_mode(self):
        with pytest.raises(InvalidInputError):
            MatpowerBaseSpec(weight_mode="ac")


class TestMetrics:
    def test_support_recovered_exact_match(self):
        truth = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        estimate = np.array([[9.0, 0.3, 0.004], [0.3, -2.0, 0.0], [0.004, 0.0, 0.0]])
        assert support_recovered(estimate, truth, 0.01)

    def test_support_recovered_misses_weak_edge(self):
        truth = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        estimate = np.array([[9.0, 0.004, 0.0], [0.004, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert not support_recovered(estimate, truth, 0.01)

    def test_support_recovered_flags_spurious_edge(self):
        truth = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        estimate = np.array([[1.0, 0.5, 0.02], [0.5, 1.0, 0.0], [0.02, 0.0, 1.0]])
        assert not support_recovered(estimate, truth, 0.01)

    def test_support_ignores_diagonal(self):
        truth = np.diag([1.0, 2.0]) + np.array([[0.0, 0.5], [0.5, 0.0]])
        estimate = np.array([[55.0, 0.5], [0.5, -55.0]])
        assert support_recovered(estimate, truth, 0.01)

    def test_sup_norm_matches_double_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6))
            worst = 0.0
            for i in range(6):
                for j in range(6):
                    worst = max(worst, abs(a[i, j] - b[i, j]))
            assert_allclose(sup_norm_error(a, b), worst, rtol=0, atol=0)

    def test_metric_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            sup_norm_error(np.eye(3), np.eye(4))
        with pytest.raises(InvalidInputError):
            support_recovered(np.eye(3), np.eye(4), 0.1)

    def test_default_epsilon_rule(self):
        truth = np.array([[1.0, -0.8, 0.0], [-0.8, 1.0, 0.2], [0.0, 0.2, 1.0]])
        assert_allclose(default_support_epsilon(truth), 1e-3 * 0.8)

    def test_default_epsilon_needs_support(self):
        with pytest.raises(InvalidInputError):
            default_support_epsilon(np.eye(4))

    @pytest.mark.parametrize(
        "cell",
        [(16, 1.0, "dtrace"), (9, 2.0, "dtrace"), (9, 1.0, "plugin")],
        ids=["other-p", "other-ratio", "other-estimator"],
    )
    def test_recovery_rate_needs_rows_at_the_cell(self, cell):
        row = SweepRow(
            p=9, n=36, ratio=1.0, instance=0, estimator="dtrace", support_recovered=True,
            sup_norm_error=0.1, iterations=10, converged=True, wall_time_ms=1.0,
        )
        result = SweepResult(rows=(row,))
        assert result.recovery_rate(9, 1.0, "dtrace") == 1.0
        with pytest.raises(InvalidInputError, match="no rows at"):
            result.recovery_rate(*cell)

    def test_max_degree_on_lattice(self):
        # 3 x 3 grid: the center node touches 4 neighbors
        delta = lattice_delta(9, weight_range=(1.0, 1.0), seed=0)
        assert max_degree(delta) == 4

    def test_max_degree_counts_off_diagonals_only(self):
        assert max_degree(np.diag([3.0, 4.0, 5.0])) == 0


class TestMakeSigma:
    def test_identity(self):
        sigma = make_sigma(SigmaSpec(kind="identity"), 5, np.random.default_rng(0))
        assert_allclose(sigma, np.eye(5))

    def test_diagonal_range(self):
        spec = SigmaSpec(kind="diagonal", value_range=(0.5, 2.0))
        sigma = make_sigma(spec, 40, np.random.default_rng(1))
        diag = np.diag(sigma)
        assert_allclose(sigma, np.diag(diag))
        assert diag.min() >= 0.5 and diag.max() <= 2.0

    def test_dense_condition(self):
        spec = SigmaSpec(kind="dense", condition=10.0)
        sigma = make_sigma(spec, 12, np.random.default_rng(2))
        assert_allclose(sigma, sigma.T)
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.min() > 0
        assert_allclose(eigs.max() / eigs.min(), 10.0, rtol=1e-8)


class TestRunInstance:
    def test_plugin_undefined_row_is_flagged(self):
        rng_seed = 11
        delta = lattice_delta(6, seed=rng_seed)
        base = random_base_matrix(6, 1.0, seed=rng_seed)
        scenario = assemble_scenario(base, delta, np.eye(6), np.eye(6), seed=rng_seed)
        from lapdiff.estimator import SolverConfig

        rows = run_instance(
            scenario, 4, 4, SolverConfig(lam=0.1, rho=0.1), ("dtrace", "plugin")
        )
        by_tag = {r["estimator"]: r for r in rows}
        plugin = by_tag["plugin"]
        assert plugin["support_recovered"] is False
        assert not plugin["converged"]
        assert math.isnan(plugin["sup_norm_error"])
        # at n = 4 < p = 6 both factors have rank 4, and psi2's null space holds a
        # direction along which the objective falls without bound at lam = 0.1,
        # so the dtrace row is flagged before any iteration
        dtrace = by_tag["dtrace"]
        assert math.isnan(dtrace["sup_norm_error"])
        assert not dtrace["converged"]
        assert dtrace["iterations"] == 0

    def test_unknown_estimator_rejected(self):
        delta = lattice_delta(4, seed=0)
        base = random_base_matrix(4, 1.0, seed=0)
        scenario = assemble_scenario(base, delta, np.eye(4), np.eye(4))
        from lapdiff.estimator import SolverConfig

        with pytest.raises(InvalidInputError, match="unknown estimator"):
            run_instance(scenario, 10, 10, SolverConfig(lam=0.1), ("ridge",))


    def test_sample_sizes_validated(self):
        scenario = assemble_scenario(random_base_matrix(4, 1.0, seed=0), lattice_delta(4, seed=0),
                                     np.eye(4), np.eye(4))
        from lapdiff.estimator import SolverConfig

        for n1, n2 in ((0, 10), (10, -1), (2.5, 10)):
            with pytest.raises(InvalidInputError, match="n must be a positive integer"):
                run_instance(scenario, n1, n2, SolverConfig(lam=0.1), ("dtrace",))

    def test_cell_makes_two_values_only_lapack_calls(self, monkeypatch):
        # numpy's values-only routines hold the GIL for their whole LAPACK call
        # (tools/gil_probe.py), stalling every other sweep worker; a cell keeps
        # only the eigvalsh checks of b1 and b2 in assemble_scenario
        monkeypatch.setenv("LAPDIFF_THREADS", "1")
        cfg = ExperimentConfig(
            dims=(117,),
            ratios=(3.0,),
            instances=1,
            lambda_scale=2.0,
            delta_spec=GridDeltaSpec(weight_range=(4.0, 4.0), sign_mode="mixed"),
            base_spec=MatpowerBaseSpec(scale=1.0 / 600.0),
            sigma_spec=SigmaSpec(kind="identity"),
            support_epsilon=2.0,
            rho=0.1,
            max_iter=2000,
        )
        cfg.base_spec.matrix  # parsed and checked once per spec, before the cell
        calls = []
        for name in ("eigvalsh", "svd", "slogdet", "matrix_rank"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        (row,) = run_sweep(cfg).rows
        assert row.converged
        assert calls == ["eigvalsh", "eigvalsh"]


class TestRunSweep:
    def test_row_count_and_order(self):
        result = run_sweep(small_config())
        # 1 dim x 2 ratios x 2 instances x 1 estimator
        assert len(result.rows) == 4
        keys = [r.sort_key() for r in result.rows]
        assert keys == sorted(keys)

    def test_sample_size_formula(self):
        result = run_sweep(small_config())
        for row in result.rows:
            expected = math.ceil(row.ratio * 16 * math.log(9))
            assert row.n == expected

    def test_deterministic_apart_from_wall_time(self):
        first = run_sweep(small_config())
        second = run_sweep(small_config())
        for a, b in zip(first.rows, second.rows):
            assert a.p == b.p and a.n == b.n and a.instance == b.instance
            assert a.estimator == b.estimator
            assert a.support_recovered == b.support_recovered
            assert a.iterations == b.iterations and a.converged == b.converged
            if math.isnan(a.sup_norm_error):
                assert math.isnan(b.sup_norm_error)
            else:
                assert a.sup_norm_error == b.sup_norm_error

    def test_cells_keyed_by_value_not_grid_position(self):
        both = run_sweep(small_config(ratios=(0.5, 2.0)))
        alone = run_sweep(small_config(ratios=(2.0,)))
        wide = [r for r in both.rows if r.ratio == 2.0]
        assert len(wide) == len(alone.rows) == 2
        for a, b in zip(wide, alone.rows):
            assert a.n == b.n and a.instance == b.instance
            assert a.sup_norm_error == b.sup_norm_error
            assert a.support_recovered == b.support_recovered

    def test_recovery_at_generous_sample_size(self):
        result = run_sweep(small_config(ratios=(30.0,), instances=3))
        assert result.recovery_rate(9, 30.0, "dtrace") == 1.0
        assert result.mean_error(9, 30.0, "dtrace") < 0.25

    def test_row_count_law(self):
        cfg = small_config(
            dims=(16,), ratios=(0.5, 5.0), instances=5, estimators=("dtrace", "sqrt")
        )
        result = run_sweep(cfg)
        assert len(result.rows) == 2 * 5 * 2

    def test_error_shrinks_with_quadrupled_samples(self):
        cfg = small_config(
            dims=(64,),
            ratios=(0.5, 2.0),
            instances=20,
            seed=5,
            base_spec=RandomBaseSpec(density=1.0, margin=0.3, scale=1.0 / 640.0),
        )
        result = run_sweep(cfg)
        e1 = result.mean_error(64, 0.5, "dtrace")
        e4 = result.mean_error(64, 2.0, "dtrace")
        assert e4 <= 0.75 * e1

    def test_plugin_rows_below_threshold(self):
        cfg = small_config(sample_sizes=(5, 40), estimators=("dtrace", "plugin"))
        result = run_sweep(cfg)
        assert len(result.rows) == 8
        starved = [r for r in result.rows if r.n == 5 and r.estimator == "plugin"]
        assert len(starved) == 2
        for row in starved:
            assert not row.converged and math.isnan(row.sup_norm_error)
        fed = [r for r in result.rows if r.n == 40 and r.estimator == "plugin"]
        for row in fed:
            assert row.converged and math.isfinite(row.sup_norm_error)

    def test_explicit_sample_sizes_derive_ratio(self):
        cfg = small_config(sample_sizes=(40,))
        result = run_sweep(cfg)
        for row in result.rows:
            assert row.n == 40
            assert_allclose(row.ratio, 40 / (16 * math.log(9)))

    def test_sqrt_estimator_runs(self):
        cfg = small_config(ratios=(2.0,), instances=1, estimators=("sqrt",))
        result = run_sweep(cfg)
        assert len(result.rows) == 1
        assert result.rows[0].estimator == "sqrt"
        assert math.isfinite(result.rows[0].sup_norm_error)

    def test_interrupt_carries_completed_rows(self):
        seen = []

        def boom(row):
            seen.append(row)
            if len(seen) == 2:
                raise KeyboardInterrupt

        blas_before = BLAS.get() if BLAS else None
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(small_config(), row_callback=boom)
        rows = info.value.rows
        assert len(rows) >= 2
        keys = [r.sort_key() for r in rows]
        assert keys == sorted(keys)
        if BLAS is not None:
            assert BLAS.get() == blas_before

    def test_cell_error_reaches_the_caller(self, monkeypatch):
        def broken(*args, **kwargs):
            raise InvalidInputError("broken cell")

        monkeypatch.setattr(experiments, "run_instance", broken)
        with pytest.raises(InvalidInputError, match="broken cell"):
            run_sweep(small_config())

    @pytest.mark.skipif(
        signal.getsignal(signal.SIGINT) is not signal.default_int_handler,
        reason="needs Python's own SIGINT handler",
    )
    def test_signals_deferred_to_the_end_of_the_block(self):
        reached = False
        with pytest.raises(KeyboardInterrupt):
            with experiments._signals_deferred():
                signal.raise_signal(signal.SIGINT)
                reached = True
        assert reached
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    def test_matpower_base_needs_matching_dims(self):
        cfg = small_config(dims=(9,), base_spec=MatpowerBaseSpec())
        with pytest.raises(InvalidInputError, match="dims must equal"):
            run_sweep(cfg)

    def test_matpower_base_sweep(self):
        cfg = small_config(
            dims=(117,),
            ratios=(0.5,),
            instances=1,
            base_spec=MatpowerBaseSpec(scale=1.0 / 600.0),
        )
        result = run_sweep(cfg)
        assert len(result.rows) == 1
        row = result.rows[0]
        # 13 x 9 truncated lattice still has interior nodes of degree 4
        assert row.n == math.ceil(0.5 * 16 * math.log(117))
        # n = 39 < p: the penalized problem is certified unbounded before any
        # iteration, and the row is flagged instead of reporting a finite error
        assert math.isnan(row.sup_norm_error)
        assert not row.converged
        assert row.iterations == 0
        assert not row.support_recovered

    def test_unbounded_cell_row_does_not_depend_on_sweep_size(self):
        # power cell (ratio 1, instance 0) at seed 11: n = 77 < p = 117, unbounded.
        # A one-cell sweep keeps the caller's BLAS threads, a six-cell sweep
        # runs with fewer, and the flagged row must come out the same.
        cfg = ExperimentConfig(
            dims=(117,),
            ratios=(1.0, 3.0, 5.0),
            instances=2,
            lambda_scale=2.0,
            delta_spec=GridDeltaSpec(weight_range=(4.0, 4.0), sign_mode="mixed"),
            base_spec=MatpowerBaseSpec(scale=1.0 / 600.0),
            sigma_spec=SigmaSpec(kind="identity"),
            support_epsilon=2.0,
            seed=11,
            rho=0.1,
            max_iter=2000,
        )
        one = run_sweep(dataclasses.replace(cfg, ratios=(1.0,), instances=1)).rows
        six = run_sweep(cfg).rows
        assert len(one) == 1 and len(six) == 6

        def masked(row):
            return repr(dataclasses.replace(row, wall_time_ms=0.0))

        in_six = [r for r in six if r.ratio == 1.0 and r.instance == 0]
        assert masked(one[0]) == masked(in_six[0])
        assert math.isnan(one[0].sup_norm_error) and one[0].iterations == 0


class TestCsv:
    def test_header_and_formatting(self, tmp_path):
        rows = [
            SweepRow(
                p=9,
                n=36,
                ratio=1.0,
                instance=1,
                estimator="plugin",
                support_recovered=False,
                sup_norm_error=float("nan"),
                iterations=0,
                converged=False,
                wall_time_ms=1.25,
            ),
            SweepRow(
                p=9,
                n=36,
                ratio=1.0,
                instance=0,
                estimator="dtrace",
                support_recovered=True,
                sup_norm_error=0.125,
                iterations=212,
                converged=True,
                wall_time_ms=8.5,
            ),
        ]
        path = tmp_path / "rows.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # rows come out sorted by (p, ratio, instance, estimator)
        assert lines[1] == "9,36,1,0,dtrace,1,0.125,212,1,8.5"
        assert lines[2] == "9,36,1,1,plugin,0,nan,0,0,1.25"

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("LAPDIFF_THREADS", "3")
        assert thread_cap() == 3
        monkeypatch.setenv("LAPDIFF_THREADS", "zero")
        with pytest.raises(InvalidInputError):
            thread_cap()
        monkeypatch.setenv("LAPDIFF_THREADS", "0")
        with pytest.raises(InvalidInputError):
            thread_cap()


class TestCoreBudget:
    def test_thread_cap_default_counts_usable_cores(self, monkeypatch):
        monkeypatch.delenv("LAPDIFF_THREADS", raising=False)
        monkeypatch.setattr(experiments, "usable_cores", lambda: 1)
        assert thread_cap() == 1
        monkeypatch.setattr(experiments, "usable_cores", lambda: 32)
        assert thread_cap() == 8

    def test_usable_cores_prefers_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert usable_cores() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert usable_cores() == 3

    def test_import_does_not_look_up_blas(self):
        code = (
            "import lapdiff, lapdiff.experiments as e; "
            "assert e.openblas_threads.cache_info().currsize == 0"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.skipif(BLAS is None, reason="no OpenBLAS thread control found")
class TestBlasBudget:
    """Four usable cores and a caller BLAS count of 4, whatever the machine has."""

    @pytest.fixture(autouse=True)
    def four_cores(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cores", lambda: 4)
        before = BLAS.get()
        BLAS.set(4)
        yield
        BLAS.set(before)

    @staticmethod
    def counts_in_cells(monkeypatch, cfg):
        seen = []

        def counting(*args, **kwargs):
            seen.append(BLAS.get())
            return run_instance(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_instance", counting)
        run_sweep(cfg)
        return seen

    @pytest.mark.parametrize("workers, expected", [(2, 2), (3, 1), (8, 1)])
    def test_multi_cell_sweep_shares_cores(self, monkeypatch, workers, expected):
        monkeypatch.setenv("LAPDIFF_THREADS", str(workers))
        # 4 cells: min(workers, 4) threads share 4 cores
        assert self.counts_in_cells(monkeypatch, small_config()) == [expected] * 4
        assert BLAS.get() == 4

    def test_one_cell_sweep_keeps_full_count(self, monkeypatch):
        monkeypatch.setenv("LAPDIFF_THREADS", "8")
        cfg = small_config(ratios=(2.0,), instances=1)
        assert self.counts_in_cells(monkeypatch, cfg) == [4]
        assert BLAS.get() == 4

    def test_never_raises_the_callers_count(self, monkeypatch):
        BLAS.set(1)
        monkeypatch.setenv("LAPDIFF_THREADS", "1")
        assert self.counts_in_cells(monkeypatch, small_config()) == [1] * 4
        assert BLAS.get() == 1
