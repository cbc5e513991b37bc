"""Tests for the sweep harness: metrics, seeding, row bookkeeping, CSV."""

import dataclasses
import math
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from procs import HAS_PROC, alive, child_pids, environ

import lapdiff.experiments as experiments
from lapdiff.errors import InvalidInputError, NearSingularScenarioError, SweepWorkerError
from lapdiff.experiments import (
    CSV_HEADER,
    ESTIMATOR_TAGS,
    SIGMA_KINDS,
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
    run_instance,
    run_sweep,
    sup_norm_error,
    support_recovered,
    thread_cap,
    usable_cores,
    write_sweep_csv,
)
from lapdiff.estimator import DEFAULT_LAMBDA_SCALE, SolverConfig
from lapdiff.matpower import case_laplacian, load_case118
from lapdiff.network import assemble_scenario, lattice_delta, random_base_matrix

SRC = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))


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
    def test_solver_defaults_are_the_estimator_modules(self):
        cfg = ExperimentConfig(dims=(9,))
        assert cfg.lambda_scale == DEFAULT_LAMBDA_SCALE
        assert (cfg.rho, cfg.max_iter) == (SolverConfig.rho, SolverConfig.max_iter)

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

    @pytest.mark.parametrize(
        "name, value",
        [("support_epsilon", value) for value in (0.0, -1.0, math.nan, math.inf)]
        + [("lambda_scale", value) for value in (-1.0, math.nan, math.inf)],
    )
    def test_rejects_bad_epsilon_or_lambda_scale(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            ExperimentConfig(dims=(9,), **{name: value})

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


def verdict(build):
    """"ok" when build() returns, "invalid" when it raises InvalidInputError; anything else propagates."""
    try:
        build()
    except InvalidInputError:
        return "invalid"
    return "ok"


INF, NAN = math.inf, math.nan


class TestSpecsAgreeWithGenerators:
    """Each spec accepts exactly the settings its generator accepts, and rejects the rest
    with InvalidInputError (an OverflowError or a numpy error propagates and fails)."""

    @pytest.mark.parametrize(
        "weight_range, sign_mode, expected",
        [
            ((0.4, 1.0), "mixed", "ok"),
            ((0.4, 1.0), "positive", "ok"),
            ((1.0, 1.0), "mixed", "ok"),
            ((0.0, 1.0), "mixed", "invalid"),
            ((-1.0, 1.0), "mixed", "invalid"),
            ((NAN, 1.0), "mixed", "invalid"),
            ((0.4, NAN), "mixed", "invalid"),
            ((1.0, INF), "mixed", "invalid"),
            ((INF, INF), "positive", "invalid"),
            ((1.0, 0.4), "mixed", "invalid"),
            ((0.4, 1.0), "negative", "invalid"),
            ((0.4, 1.0), "Mixed", "invalid"),
        ],
    )
    def test_grid_delta(self, weight_range, sign_mode, expected):
        spec = verdict(lambda: GridDeltaSpec(weight_range=weight_range, sign_mode=sign_mode))
        draw = verdict(lambda: lattice_delta(9, weight_range=weight_range, sign_mode=sign_mode))
        assert spec == draw == expected

    @pytest.mark.parametrize(
        "density, margin, scale, expected",
        [
            (1.0, 0.5, 1.0, "ok"),
            (0.3, 2.0, 0.01, "ok"),
            (0.0, 0.5, 1.0, "invalid"),
            (-0.5, 0.5, 1.0, "invalid"),
            (NAN, 0.5, 1.0, "invalid"),
            (INF, 0.5, 1.0, "invalid"),
            (1.5, 0.5, 1.0, "invalid"),
            (1.0, 0.0, 1.0, "invalid"),
            (1.0, -1.0, 1.0, "invalid"),
            (1.0, NAN, 1.0, "invalid"),
            (1.0, INF, 1.0, "invalid"),
            (1.0, 0.5, 0.0, "invalid"),
            (1.0, 0.5, -1.0, "invalid"),
            (1.0, 0.5, NAN, "invalid"),
            (1.0, 0.5, INF, "invalid"),
        ],
    )
    def test_random_base(self, density, margin, scale, expected):
        spec = verdict(lambda: RandomBaseSpec(density=density, margin=margin, scale=scale))
        draw = verdict(lambda: random_base_matrix(9, density, margin=margin, scale=scale))
        assert spec == draw == expected

    @pytest.fixture(scope="class")
    def case118(self):
        return load_case118()

    @pytest.mark.parametrize(
        "weight_mode, expected",
        [("dc", "ok"), ("magnitude_y", "ok"), ("ac", "invalid"), ("", "invalid"),
         ("DC", "invalid"), (None, "invalid")],
    )
    def test_matpower_weight_mode(self, case118, weight_mode, expected):
        spec = verdict(lambda: MatpowerBaseSpec(weight_mode=weight_mode))
        laplacian = verdict(lambda: case_laplacian(case118, weight_mode))
        assert spec == laplacian == expected

    @pytest.mark.parametrize("scale", [0.0, -1.0, NAN, INF])
    def test_matpower_scale_rejected_at_construction(self, scale):
        with pytest.raises(InvalidInputError, match="scale must be positive and finite"):
            MatpowerBaseSpec(scale=scale)

    def test_overflowing_matpower_scale_names_it(self):
        # the scaled base overflowed with a RuntimeWarning, then as_symmetric
        # reported only "matrix contains non-finite entries"
        spec = MatpowerBaseSpec(scale=1e306)
        with pytest.raises(InvalidInputError, match=r"117 x 117 base matrix .* scale 1e\+306"):
            spec.matrix

    @pytest.mark.parametrize(
        "value_range",
        [(0.0, 1.0), (-1.0, 1.0), (NAN, 1.0), (1.0, NAN), (1.0, INF), (INF, INF), (2.0, 1.0)],
    )
    def test_sigma_range_rejected_at_construction(self, value_range):
        # (1.0, inf) constructed, and the sweep's draw raised numpy's OverflowError
        with pytest.raises(InvalidInputError, match="value_range must satisfy"):
            SigmaSpec(kind="diagonal", value_range=value_range)

    @pytest.mark.parametrize("kind", SIGMA_KINDS)
    def test_every_sigma_kind_draws(self, kind):
        sigma = make_sigma(SigmaSpec(kind=kind), 4, np.random.default_rng(0))
        assert sigma.shape == (4, 4) and np.linalg.eigvalsh(sigma)[0] > 0

    def test_unknown_sigma_kind_names_the_kinds(self):
        with pytest.raises(InvalidInputError, match="'identity', 'diagonal', 'dense'"):
            SigmaSpec(kind="wishart")


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

    def test_rows_carry_each_solve_record_without_matrices(self):
        delta = lattice_delta(6, seed=11)
        base = random_base_matrix(6, 1.0, seed=11)
        scenario = assemble_scenario(base, delta, np.eye(6), np.eye(6), seed=11)
        from lapdiff.estimator import DeltaEstimate, SolverConfig

        config = SolverConfig(lam=0.1, rho=0.1)
        # at n = 4 < p = 6 the dtrace solve raises (unbounded) and the plugin is undefined
        raised = run_instance(scenario, 4, 4, config, ("dtrace", "plugin"))
        assert [row["solve"] for row in raised] == [None, None]
        solved = run_instance(scenario, 40, 40, config, ESTIMATOR_TAGS)
        assert [row["solve"] is None for row in solved] == [tag == "plugin" for tag in ESTIMATOR_TAGS]
        for row in solved:
            record = row["solve"]
            if record is not None:
                assert isinstance(record, DeltaEstimate) and record.delta is None
                assert (record.iterations, record.converged) == (row["iterations"], row["converged"])
                assert not any(isinstance(value, np.ndarray) for value in vars(record).values())

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

    def test_cell_makes_one_values_only_lapack_call(self, monkeypatch):
        # each of numpy's values-only routines costs a whole LAPACK call; a
        # matpower cell keeps only the eigvalsh check of b2, since its base
        # was checked once, when MatpowerBaseSpec.matrix was built
        monkeypatch.setenv("LAPDIFF_THREADS", "1")
        cfg = power_cell_config(3.0)
        calls = []
        for name in ("eigvalsh", "svd", "slogdet", "matrix_rank"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        (row,) = run_sweep(cfg).rows
        assert row.converged
        assert calls == ["eigvalsh"]

    @pytest.mark.parametrize("ratio, bounded, decompositions", [(3.0, True, 3), (1.0, False, 2)])
    def test_cell_decomposes_each_matrix_once(self, monkeypatch, ratio, bounded, decompositions):
        # one eigh per whitened root; the factor pair takes the factors'
        # eigenpairs from those roots (identity whitener), and a bounded cell
        # adds the joint diagonalizer of its polish, which a certified-unbounded
        # one (n < p at ratio 1) never reaches
        monkeypatch.setenv("LAPDIFF_THREADS", "1")
        cfg = power_cell_config(ratio)
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        (row,) = run_sweep(cfg).rows
        assert row.converged is bounded
        assert row.iterations > 0 if bounded else row.iterations == 0
        assert len(calls) == decompositions, calls

    def test_cell_reaches_every_traced_binding(self, monkeypatch):
        # perfbench's tracer wraps these names where their callers find them;
        # a cell that bypassed one would leave that span empty. np.linalg.eigh
        # is counted beside them
        import lapdiff.estimator as estimator
        import lapdiff.sampling as sampling

        monkeypatch.setenv("LAPDIFF_THREADS", "1")
        bindings = [
            (estimator, "run_admm"),
            (estimator, "penalized_objective"),
            (experiments, "run_instance"),
            (experiments, "sample_potentials"),
            (experiments, "precision_factor"),
            (experiments, "estimate_delta"),
            (sampling, "sqrt_psd"),
            (np.linalg, "eigh"),
        ]
        calls = {name: 0 for _, name in bindings}
        for module, name in bindings:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        # sqrt_psd takes the root of each sigma_x to sample, and at n = 71 >= p = 9
        # the whitened root of each factor of the dtrace and the sqrt solve,
        # which keeps all its eigenvalues. eigh runs for those four roots, for
        # the joint diagonalizer of each polish and for the plugin's two
        # inverse roots: PxqSolver reuses the roots' eigenpairs
        cfg = small_config(ratios=(2.0,), instances=1, estimators=ESTIMATOR_TAGS)
        rows = run_sweep(cfg).rows
        assert [row.estimator for row in rows] == list(ESTIMATOR_TAGS)
        assert all(row.converged and row.n == 71 for row in rows), rows
        assert calls == {
            "run_admm": 2,
            "penalized_objective": 2,
            "run_instance": 1,
            "sample_potentials": 2,
            "precision_factor": 4,
            "estimate_delta": 2,
            "sqrt_psd": 6,
            "eigh": 8,
        }, calls

    def test_rows_carry_their_cell_phase_times(self):
        rows = run_sweep(small_config(ratios=(2.0,), instances=1, estimators=ESTIMATOR_TAGS)).rows
        shared = {(row.phases["scenario"], row.phases["sampling"], row.phases["cell"]) for row in rows}
        assert len(shared) == 1, shared
        # the plugin makes no precision factor
        assert [row.phases["factor"] > 0.0 for row in rows] == [True, False, True]
        assert all(row.phases["scoring"] > 0.0 for row in rows)
        # the phases and the rows' wall times are disjoint spans of the cell
        ((scenario, sampling, cell),) = shared
        spans = scenario + sampling + sum(row.wall_time_ms / 1e3 + row.phases["scoring"] for row in rows)
        assert 0.0 < scenario and 0.0 < sampling and spans < cell
        for row in rows:
            assert row.phases["factor"] < row.wall_time_ms / 1e3


def power_cell_config(ratio):
    """One dtrace cell of the benchmark's power-sweep config, its base parsed and checked."""
    cfg = ExperimentConfig(
        dims=(117,),
        ratios=(ratio,),
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
    return cfg


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

        with pytest.raises(SweepInterrupted) as info:
            run_sweep(small_config(), row_callback=boom)
        rows = info.value.rows
        assert len(rows) >= 2
        keys = [r.sort_key() for r in rows]
        assert keys == sorted(keys)
        # the interrupted sweep's workers, if it had any, are killed and reaped
        assert not experiments._live_pools
        if HAS_PROC:
            assert child_pids(os.getpid()) == []

    def test_cell_error_reaches_the_caller(self, monkeypatch):
        # a base of about 1e-9 I is too close to singular: every cell raises
        # while it assembles its scenario, in a worker process or inline
        cfg = small_config(base_spec=RandomBaseSpec(density=1e-9, margin=1e-9))
        for workers in ("2", "1"):
            monkeypatch.setenv("LAPDIFF_THREADS", workers)
            with pytest.raises(NearSingularScenarioError, match="b1 is too close") as info:
                run_sweep(cfg)
            if workers == "2":
                # the worker's traceback comes along as the cause
                cause = info.value.__cause__
                assert isinstance(cause, SweepWorkerError)
                assert "NearSingularScenarioError" in str(cause)
                assert not experiments._live_pools

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
        # A one-cell sweep runs inline with the caller's BLAS threads, a
        # six-cell sweep in worker processes with fewer, and the flagged row
        # must come out the same.
        cfg = power_config(11)
        one = run_sweep(dataclasses.replace(cfg, ratios=(1.0,), instances=1)).rows
        six = run_sweep(cfg).rows
        assert len(one) == 1 and len(six) == 6

        def masked(row):
            return repr(dataclasses.replace(row, wall_time_ms=0.0))

        in_six = [r for r in six if r.ratio == 1.0 and r.instance == 0]
        assert masked(one[0]) == masked(in_six[0])
        assert math.isnan(one[0].sup_norm_error) and one[0].iterations == 0


class TestCsv:
    def test_solve_record_is_no_column(self):
        # built from the ten CSV columns alone, as callers outside the sweep build rows
        bare = SweepRow(
            p=9, n=36, ratio=1.0, instance=0, estimator="dtrace", support_recovered=True,
            sup_norm_error=0.125, iterations=212, converged=True, wall_time_ms=8.5,
        )
        assert bare.solve is None and bare.phases == {}
        (swept,) = run_sweep(small_config(ratios=(2.0,), instances=1)).rows
        carried = dataclasses.replace(bare, solve=swept.solve, phases=swept.phases)
        assert carried.solve is swept.solve is not None
        assert set(carried.phases) == {"scenario", "sampling", "factor", "scoring", "cell"}
        assert carried == bare and hash(carried) == hash(bare)
        assert carried.to_csv() == bare.to_csv() == "9,36,1,0,dtrace,1,0.125,212,1,8.5"
        assert repr(carried) == repr(bare)

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

    @pytest.mark.skipif(not HAS_PROC, reason="lists child processes through /proc")
    def test_import_starts_no_process(self):
        code = textwrap.dedent(
            """
            import os, sys
            sys.path.insert(0, sys.argv[1])
            from procs import child_pids
            import lapdiff, lapdiff.cli, lapdiff.experiments as e
            assert not e._live_pools and child_pids(os.getpid()) == []
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        subprocess.run([sys.executable, "-c", code, tests_dir], env=env, check=True, timeout=60)


def sweep_worker_pids():
    """Pids of the workers of the pool kept between sweeps."""
    (pool,) = experiments._idle_pools
    return [proc.pid for proc in pool.procs]


@pytest.mark.skipif(not HAS_PROC, reason="reads the workers' environment through /proc")
class TestBlasBudget:
    """Four usable cores, whatever the machine has: each worker gets its share of BLAS threads."""

    @pytest.fixture(autouse=True)
    def four_cores(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cores", lambda: 4)
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)

    @staticmethod
    def worker_blas_threads(cfg):
        run_sweep(cfg)
        return [environ(pid).get("OPENBLAS_NUM_THREADS") for pid in sweep_worker_pids()]

    @pytest.mark.parametrize("workers, expected", [(2, 2), (3, 1), (8, 1)])
    def test_multi_cell_sweep_shares_cores(self, monkeypatch, workers, expected):
        monkeypatch.setenv("LAPDIFF_THREADS", str(workers))
        # 4 cells: min(workers, 4) processes share 4 cores
        assert self.worker_blas_threads(small_config()) == [str(expected)] * min(workers, 4)
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_one_cell_sweep_keeps_full_count(self, monkeypatch):
        # one cell runs inline, in this process, with the caller's BLAS threads
        monkeypatch.setenv("LAPDIFF_THREADS", "8")
        seen = []

        def counting(*args, **kwargs):
            seen.append(os.getpid())
            return run_instance(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_instance", counting)
        run_sweep(small_config(ratios=(2.0,), instances=1))
        assert seen == [os.getpid()]

    def test_never_raises_the_callers_count(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("LAPDIFF_THREADS", "2")
        assert self.worker_blas_threads(small_config()) == ["1", "1"]
        # OpenBLAS falls back on OMP_NUM_THREADS when its own variable is unset
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert experiments._worker_blas_threads(2) == 1


def masked_rows(rows):
    """Rows as text, with the wall time masked (NaN errors compare equal as text)."""
    return [repr(dataclasses.replace(row, wall_time_ms=0.0)) for row in rows]


def untimed_solves(rows):
    """Each row's solve record with its three timings zeroed, or None, and its phase names."""
    return [
        (row.solve and dataclasses.replace(row.solve, setup_s=0.0, loop_s=0.0, polish_s=0.0),
         sorted(row.phases))
        for row in rows
    ]


# Runs one sweep config inline and then on 2 worker processes, with one BLAS
# thread for both, and checks that their rows agree apart from wall time.
POOL_VS_INLINE = """
import os, sys
sys.path[:0] = sys.argv[1:3]
import lapdiff
import test_experiments as t

cfg = t.{config}
os.environ["LAPDIFF_THREADS"] = "1"
inline = lapdiff.run_sweep(cfg).rows
os.environ["LAPDIFF_THREADS"] = "2"
rows = lapdiff.run_sweep(cfg).rows
assert t.masked_rows(rows) == t.masked_rows(inline), (rows, inline)
assert {expect}, rows
"""


def power_config(seed, **overrides):
    """The benchmark's power-sweep config (118-bus case, p = 117, 6 cells at rho 0.1)."""
    cfg = ExperimentConfig(
        dims=(117,),
        ratios=(1.0, 3.0, 5.0),
        instances=2,
        lambda_scale=2.0,
        delta_spec=GridDeltaSpec(weight_range=(4.0, 4.0), sign_mode="mixed"),
        base_spec=MatpowerBaseSpec(scale=1.0 / 600.0),
        sigma_spec=SigmaSpec(kind="identity"),
        support_epsilon=2.0,
        seed=seed,
        rho=0.1,
        max_iter=2000,
    )
    return dataclasses.replace(cfg, **overrides)


def dense_config():
    """p = 16 over a dense covariance at n = 10 and 64; the sqrt row at n = 10,
    instance 0, is unbounded but not certified, and runs to max_iter."""
    return ExperimentConfig(
        dims=(16,),
        ratios=(),
        sample_sizes=(10, 64),
        instances=2,
        lambda_scale=2.0,
        base_spec=RandomBaseSpec(density=0.5, margin=0.3, scale=0.05),
        sigma_spec=SigmaSpec(kind="dense"),
        seed=3,
        estimators=("dtrace", "plugin", "sqrt"),
    )


@pytest.mark.skipif(not HAS_PROC, reason="watches worker processes through /proc")
class TestWorkerPool:
    @pytest.mark.parametrize(
        "config, expect",
        [
            # six cells; the two at n = 77 < p are certified unbounded
            ("power_config(11)", "[r.iterations == 0 for r in rows] == [True] * 2 + [False] * 4"),
            # 2 sample sizes x 2 instances x 3 estimators; one sqrt row at
            # n = 10 runs to max_iter on an unbounded problem
            ("dense_config()", "len(rows) == 12 and 20000 in [r.iterations for r in rows]"),
            # every solve's record and every row's phases come back from its
            # worker, timings aside
            (
                "small_config(estimators=('dtrace', 'plugin', 'sqrt'))",
                "t.untimed_solves(rows) == t.untimed_solves(inline)"
                " and [r.solve is None for r in rows] == [r.estimator == 'plugin' for r in rows]"
                " and all(len(r.phases) == 5 for r in rows)",
            ),
        ],
        ids=["power-seed11", "dense-unbounded-sqrt", "solve-records"],
    )
    def test_pool_rows_equal_inline_rows(self, config, expect):
        code = POOL_VS_INLINE.format(config=config, expect=expect)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONPATH", None)
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code, SRC, tests_dir],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]

    def test_workers_are_gone_after_exit(self, tmp_path):
        code = textwrap.dedent(
            """
            import os, sys
            sys.path[:0] = sys.argv[1:3]
            import lapdiff.experiments as e
            import test_experiments as t
            os.environ["LAPDIFF_THREADS"] = "2"
            e.run_sweep(t.small_config())
            print(*t.sweep_worker_pids(), flush=True)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, SRC, os.path.dirname(os.path.abspath(__file__))],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        assert not [pid for pid in pids if alive(pid)]

    def test_killed_worker_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setenv("LAPDIFF_THREADS", "2")
        killed = []

        def kill_a_worker(row):
            if not killed:
                (pool,) = experiments._live_pools
                killed.append(pool.procs[0].pid)
                os.kill(killed[0], signal.SIGKILL)

        # 40 cells: the sweep is still running when the first row comes back
        cfg = small_config(instances=20)
        start = time.monotonic()
        with pytest.raises(SweepWorkerError, match="ended without answering") as info:
            run_sweep(cfg, row_callback=kill_a_worker)
        assert time.monotonic() - start < 10.0
        assert f"sweep worker {killed[0]} " in str(info.value) and not alive(killed[0])
        assert not experiments._live_pools and child_pids(os.getpid()) == []
        # the next sweep starts a new pool
        assert len(run_sweep(small_config()).rows) == 4

    def test_workers_import_the_callers_package(self, tmp_path):
        # a copy of the package that marks every process importing it; the
        # caller finds it through sys.path alone, not through PYTHONPATH
        copy = tmp_path / "copy"
        shutil.copytree(os.path.join(SRC, "lapdiff"), copy / "lapdiff",
                        ignore=shutil.ignore_patterns("__pycache__"))
        marks = tmp_path / "marks"
        marks.mkdir()
        mark = f"open(_os.path.join({str(marks)!r}, str(_os.getpid())), 'w').close()"
        with open(copy / "lapdiff" / "__init__.py", "a") as fh:
            fh.write(f"\nimport os as _os\n{mark}\n")
        code = textwrap.dedent(
            """
            import os, sys
            sys.path.insert(0, sys.argv[1])
            import lapdiff
            cfg = lapdiff.ExperimentConfig(dims=(9,), ratios=(0.5, 2.0), instances=2, rho=0.1)
            os.environ["LAPDIFF_THREADS"] = "2"
            lapdiff.run_sweep(cfg)
            print(os.getpid())
            """
        )
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(copy)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        marked = {int(name) for name in os.listdir(marks)}
        # the caller and its two workers
        assert int(proc.stdout) in marked and len(marked) == 3

    def test_concurrent_sweeps_never_share_a_worker(self, monkeypatch):
        monkeypatch.setenv("LAPDIFF_THREADS", "2")
        configs = [small_config(seed=seed, instances=3) for seed in (7, 8)]
        expected = [masked_rows(run_sweep(cfg).rows) for cfg in configs]
        results = [None, None]
        errors = []

        def sweep(k):
            try:
                results[k] = masked_rows(run_sweep(configs[k]).rows)
            except BaseException as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=sweep, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and results == expected
        # one pool is kept, the other closed
        assert len(experiments._idle_pools) == 1 and len(experiments._live_pools) == 1
