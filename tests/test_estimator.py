"""Tests for the loss, ADMM solver, exact identity, baselines, and diagnostic."""

import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    ista_reference_delta,
    kernel_pair_count,
    kron_stationary_delta,
    naive_dtrace_loss,
)

from lapdiff import estimator, experiments
from lapdiff.errors import (
    InvalidInputError,
    NotPsdError,
    PluginUndefinedError,
    SolverDivergedError,
    UnboundedProblemError,
)
from lapdiff.estimator import (
    CG_STEP_GEMMS,
    DeltaEstimate,
    SolverConfig,
    UniquenessReport,
    _cg_on_support,
    _check_bounded,
    _FactorPair,
    _kkt_check,
    _polish,
    default_lambda,
    dtrace_loss,
    estimate_delta,
    exact_delta,
    plugin_delta,
    uniqueness_check,
)
from lapdiff.experiments import (
    ExperimentConfig,
    GridDeltaSpec,
    MatpowerBaseSpec,
    RandomBaseSpec,
    SigmaSpec,
    run_sweep,
)
from lapdiff.linalg import PxqSolver
from lapdiff.network import lattice_delta, random_base_matrix
from lapdiff.sampling import precision_factor, sample_potentials


def random_pd(rng, p, shift=0.3):
    a = rng.standard_normal((p, p))
    return a @ a.T / p + shift * np.eye(p)


def power_sweep_config(ratio, seed, instances):
    """The benchmark's power-sweep shape (118-bus case, p = 117) at one ratio."""
    return ExperimentConfig(
        dims=(117,),
        ratios=(ratio,),
        instances=instances,
        lambda_scale=2.0,
        delta_spec=GridDeltaSpec(weight_range=(4.0, 4.0), sign_mode="mixed"),
        base_spec=MatpowerBaseSpec(scale=1.0 / 600.0),
        sigma_spec=SigmaSpec(kind="identity"),
        support_epsilon=2.0,
        seed=seed,
        rho=0.1,
        max_iter=2000,
    )


def captured_solves(monkeypatch, cfg):
    """The sweep's rows and (psi1, psi2, config, estimate) of each solve, as handed to estimate_delta.

    The sweep runs inline on one worker, where the wrapper sees its cells.
    """
    captured = []

    def capture(psi1, psi2, config):
        est = estimate_delta(psi1, psi2, config)
        captured.append((psi1, psi2, config, est))
        return est

    monkeypatch.setattr(experiments, "estimate_delta", capture)
    monkeypatch.setenv("LAPDIFF_THREADS", "1")
    return run_sweep(cfg).rows, captured


@pytest.fixture(scope="module")
def power_cells():
    """captured_solves of the power-sweep shape at seed 101 and ratio 5 (n = 381 > p = 117)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        rows, solves = captured_solves(monkeypatch, power_sweep_config(5.0, seed=101, instances=2))
    assert len(rows) == len(solves) == 2
    return rows, solves


def kkt_residual(delta, psi1, psi2, lam):
    """Largest violation of the optimality conditions of the penalized problem at delta."""
    grad = (psi1 @ delta @ psi2 + psi2 @ delta @ psi1) / 2.0 - (psi1 - psi2)
    off = ~np.eye(delta.shape[0], dtype=bool)
    active = off & (delta != 0.0)
    return max(
        float(np.max(np.abs(grad + lam * np.sign(delta))[active], initial=0.0)),
        float(np.max((np.abs(grad) - lam)[off & ~active], initial=0.0)),
        float(np.max(np.abs(np.diagonal(grad)))),
    )


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(lam=0.1)
        assert cfg.rho == 0.001
        assert cfg.max_iter == 20000

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(lam=-0.1)
        with pytest.raises(InvalidInputError):
            SolverConfig(lam=0.1, rho=0.0)
        with pytest.raises(InvalidInputError):
            SolverConfig(lam=0.1, max_iter=0)

    @pytest.mark.parametrize(
        "lam, rho", [(1e306, 0.001), (0.1, 1e308)], ids=["lam-over-4rho", "4rho"]
    )
    def test_rejects_overflowing_admm_values(self, lam, rho):
        # finite fields whose penalty 4 rho or threshold lam / (4 rho) is inf
        with pytest.raises(InvalidInputError, match=r"lam .* rho"):
            SolverConfig(lam=lam, rho=rho)


class TestDtraceLoss:
    def test_zero_delta_zero_loss(self):
        rng = np.random.default_rng(0)
        p1, p2 = random_pd(rng, 5), random_pd(rng, 5)
        assert dtrace_loss(np.zeros((5, 5)), p1, p2) == 0.0

    def test_identity_factors_give_half_frobenius(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((6, 6))
        expected = 0.5 * np.sum(d * d)
        assert dtrace_loss(d, np.eye(6), np.eye(6)) == pytest.approx(expected)

    def test_matches_naive_trace_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p1, p2 = random_pd(rng, 5), random_pd(rng, 5)
            d = rng.standard_normal((5, 5))
            assert dtrace_loss(d, p1, p2) == pytest.approx(
                naive_dtrace_loss(d, p1, p2), rel=1e-12, abs=1e-12
            )

    def test_population_minimum_at_true_difference(self):
        # with factors equal to the exact inverses, the loss is minimized
        # at b2 - b1 over a random probe set
        rng = np.random.default_rng(3)
        b1 = random_base_matrix(4, 1.0, margin=1.0, seed=1)
        b2 = b1 + lattice_delta(4, seed=2)
        psi1, psi2 = np.linalg.inv(b1), np.linalg.inv(b2)
        star = dtrace_loss(b2 - b1, psi1, psi2)
        for _ in range(20):
            probe = b2 - b1 + 0.1 * rng.standard_normal((4, 4))
            assert dtrace_loss(probe, psi1, psi2) >= star - 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            dtrace_loss(np.zeros((2, 2)), np.eye(3), np.eye(3))


class TestExactDelta:
    def test_equal_systems_give_zero(self):
        b = random_base_matrix(6, 0.8, seed=3)
        out = exact_delta(b, b, np.eye(6), np.eye(6))
        assert np.max(np.abs(out)) <= 1e-10

    def test_identity_sigma_reduces_to_subtraction(self):
        b1 = random_base_matrix(5, 1.0, margin=1.0, seed=4)
        b2 = b1 + lattice_delta(5, seed=5)
        out = exact_delta(b1, b2, np.eye(5), np.eye(5))
        assert_allclose(out, b2 - b1, atol=1e-10)

    def test_identity_holds_for_random_pd_inputs(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            p = 20
            b1 = random_pd(rng, p, shift=0.8)
            b2 = b1 + 0.3 * random_pd(rng, p, shift=0.2)
            s1 = random_pd(rng, p, shift=0.5)
            s2 = random_pd(rng, p, shift=0.5)
            out = exact_delta(b1, b2, s1, s2)
            truth = b2 - b1
            rel = np.linalg.norm(out - truth) / max(1e-30, np.linalg.norm(truth))
            assert rel <= 1e-8

    def test_non_pd_b_rejected(self):
        with pytest.raises(NotPsdError):
            exact_delta(np.diag([1.0, -1.0]), np.eye(2), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("wrong", ["sigma_x1", "sigma_x2"])
    def test_sigma_shape_must_match_b(self, wrong):
        sigmas = {"sigma_x1": np.eye(3), "sigma_x2": np.eye(3), wrong: np.eye(2)}
        with pytest.raises(InvalidInputError, match=r"sigma shape \(2, 2\) != b shape \(3, 3\)"):
            exact_delta(2 * np.eye(3), 3 * np.eye(3), **sigmas)


class TestRunAdmm:
    @pytest.mark.parametrize(
        "psi2, message",
        [
            (np.triu(np.ones((3, 3))), r"^psi2: "),
            (np.eye(4), r"^factor shapes differ: \(3, 3\) vs \(4, 4\)"),
        ],
        ids=["asymmetric-psi2", "shapes-differ"],
    )
    def test_factor_checks(self, psi2, message):
        with pytest.raises(InvalidInputError, match=message):
            estimate_delta(np.eye(3), psi2, SolverConfig(lam=0.1))

    def test_indefinite_factor_raises_not_psd_without_a_warning(self):
        # the factor pair checks both factors before the loop divides by
        # d_i e_j + sigma, which an indefinite factor makes zero or negative
        config = SolverConfig(lam=0.1, rho=0.1, max_iter=2000)
        indefinite = np.diag([1.0, -1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPsdError, match="^psi1 must be positive semidefinite"):
                estimate_delta(indefinite, np.eye(3), config)
            with pytest.raises(NotPsdError, match="^psi2 must be positive semidefinite"):
                estimate_delta(np.eye(3), indefinite, config)

    def test_zero_factors_polish_to_zero_without_a_warning(self):
        # all-zero samples give all-zero factors: no eigenvalue is above the
        # null floor, and the polish setup divided by zero and failed in eigh
        zero = np.zeros((3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_delta(zero, zero, SolverConfig(lam=0.1, rho=0.1))
        assert (est.stop, est.iterations, est.cg_steps) == ("polished", estimator.POLISH_CHECK, 0)
        assert not est.delta.any() and est.objective == 0.0

    def test_factors_beyond_float64_raise_invalid_input_without_a_warning(self):
        # each factor's largest eigenvalue is 2e308, and P1 - P2 overflows: the
        # solve raised SolverDivergedError and uniqueness_check was "inconclusive"
        psi1 = 1e308 * np.array([[1.0, 1.0], [1.0, 1.0]])
        psi2 = 1e308 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (
                lambda: estimate_delta(psi1, psi2, SolverConfig(lam=0.1)),
                lambda: uniqueness_check(psi1, psi2, 1.0),
            ):
                with pytest.raises(InvalidInputError, match="^psi1 has an eigenvalue past float64's range"):
                    check()
            with pytest.raises(InvalidInputError, match="^psi2 has an eigenvalue past float64's range"):
                estimate_delta(np.eye(2), psi2, SolverConfig(lam=0.1))

    @pytest.mark.parametrize("c", [1e-155, 1e-165])
    def test_bounded_pair_below_float64_raises_invalid_input_without_a_warning(self, c):
        # lmax(P1) lmax(P2) is subnormal at c = 1e-155, where the polish
        # overflowed and the solve ran to max_iter, and 0 at c = 1e-165, where
        # the complement CG raised ZeroDivisionError
        rng = np.random.default_rng(47)
        psi1, psi2 = random_pd(rng, 6), random_pd(rng, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="too small for float64"):
                estimate_delta(c * psi1, c * psi2, SolverConfig(lam=0.0, rho=0.1))

    @pytest.mark.parametrize("c", [1e154, 1e155])
    def test_bounded_pair_beyond_float64_raises_invalid_input_without_a_warning(self, c):
        # lmax(P1) lmax(P2) overflows to inf: at c = 1e154 the solve ran to
        # max_iter, 8.5e-2 from the optimum, with overflow warnings, and at
        # c = 1e155 it returned an estimate with relative error 1.0
        rng = np.random.default_rng(47)
        psi1, psi2 = random_pd(rng, 6), random_pd(rng, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="too large for float64.* c < 1 "):
                estimate_delta(c * psi1, c * psi2, SolverConfig(lam=0.0, rho=0.1))

    def test_bounded_pair_just_inside_float64_polishes_without_a_warning(self):
        # at c = 3e153, lmax(P1) lmax(P2) = 8.4e307 is still finite
        rng = np.random.default_rng(47)
        psi1, psi2 = random_pd(rng, 6), random_pd(rng, 6)
        config = SolverConfig(lam=0.0, rho=0.1)
        optimum = estimate_delta(psi1, psi2, config).delta
        c = 3e153
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_delta(c * psi1, c * psi2, config)
        assert est.converged
        assert np.max(np.abs(c * est.delta - optimum)) <= 1e-8 * np.max(np.abs(optimum))

    def test_equal_factors_yield_zero(self):
        rng = np.random.default_rng(7)
        psi = random_pd(rng, 5)
        for lam in (0.0, 0.05, 1.0):
            est = estimate_delta(psi, psi, SolverConfig(lam=lam))
            assert est.converged
            assert np.max(np.abs(est.delta)) <= 1e-6

    def test_matches_kron_oracle_at_lambda_zero(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            psi1, psi2 = random_pd(rng, 4), random_pd(rng, 4)
            cfg = SolverConfig(lam=0.0)
            est = estimate_delta(psi1, psi2, cfg)
            oracle = kron_stationary_delta(psi1, psi2)
            assert est.converged
            assert np.max(np.abs(est.delta - oracle)) <= 1e-5

    def test_matches_proximal_gradient_at_positive_lambda(self):
        rng = np.random.default_rng(9)
        for lam in (0.05, 0.2):
            psi1, psi2 = random_pd(rng, 4), random_pd(rng, 4)
            cfg = SolverConfig(lam=lam)
            est = estimate_delta(psi1, psi2, cfg)
            oracle = ista_reference_delta(psi1, psi2, lam)
            assert est.converged
            assert np.max(np.abs(est.delta - oracle)) <= 1e-4

    def test_huge_lambda_zeroes_off_diagonals(self):
        rng = np.random.default_rng(11)
        psi1, psi2 = random_pd(rng, 6), random_pd(rng, 6)
        est = estimate_delta(psi1, psi2, SolverConfig(lam=1e9))
        off = est.delta[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) == 0.0

    def test_polished_state_is_exactly_symmetric(self):
        rng = np.random.default_rng(12)
        psi1, psi2 = random_pd(rng, 5), random_pd(rng, 5)
        est = estimate_delta(psi1, psi2, SolverConfig(lam=0.05))
        assert est.stop == "polished"
        assert_allclose(est.delta, est.delta.T, rtol=0, atol=0)
        assert est.iterations >= 1

    def test_one_linear_solve_per_iteration(self, monkeypatch):
        calls = []
        solve = PxqSolver.solve

        def counted(self, r, out=None):
            calls.append(1)
            return solve(self, r, out=out)

        monkeypatch.setattr(PxqSolver, "solve", counted)
        rng = np.random.default_rng(16)
        psi1, psi2 = random_pd(rng, 6), random_pd(rng, 6)
        for max_iter in (1, 7, 20000):
            calls.clear()
            est = estimate_delta(psi1, psi2, SolverConfig(lam=0.05, max_iter=max_iter))
            assert len(calls) == est.iterations
        assert est.iterations < 20000

    def test_power_sweep_rows_converge_within_2000_iterations(self, power_cells):
        rows, _ = power_cells
        for row in rows:
            assert row.converged and 0 < row.iterations <= 2000

    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(13)
        psi1, psi2 = random_pd(rng, 4), random_pd(rng, 4)
        cfg = SolverConfig(lam=0.05)
        fwd = estimate_delta(psi1, psi2, cfg)
        bwd = estimate_delta(psi2, psi1, cfg)
        assert np.max(np.abs(fwd.delta + bwd.delta)) <= 1e-5

    def test_objective_never_worse_than_zero_matrix(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            psi1, psi2 = random_pd(rng, 5), random_pd(rng, 5)
            est = estimate_delta(psi1, psi2, SolverConfig(lam=0.1))
            assert est.objective <= 0.0 + 1e-8

    def test_lambda_monotone_support(self):
        rng = np.random.default_rng(15)
        psi1, psi2 = random_pd(rng, 6), random_pd(rng, 6)
        counts = []
        for lam in np.linspace(0.0, 0.6, 10):
            est = estimate_delta(psi1, psi2, SolverConfig(lam=float(lam)))
            off = est.delta[~np.eye(6, dtype=bool)]
            counts.append(int(np.count_nonzero(np.abs(off) > 1e-8)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_divergence_detected(self):
        # PSD factors whose optimum, (P1 - P2) / (P1 P2) = 1e320 I, lies beyond
        # float64's range drive iterates non-finite
        psi1 = 1e308 * np.eye(3)
        psi2 = 1e-320 * np.eye(3)
        # the default max_iter reaches a finiteness check in the loop; one
        # below POLISH_CHECK ends first and meets the check after the loop
        for max_iter in (20000, estimator.POLISH_CHECK - 1):
            with np.errstate(all="ignore"):
                with pytest.raises(SolverDivergedError) as info:
                    estimate_delta(psi1, psi2, SolverConfig(lam=0.1, max_iter=max_iter))
            assert 1 <= info.value.iteration <= max_iter

    def test_converged_is_the_polished_stop(self):
        times = (1e-3, 2e-3, 3e-3)
        est = DeltaEstimate(np.zeros((2, 2)), 7, 0.0, "max_iter", 0, 0, 0, 28, "float32", *times)
        assert not est.converged
        assert DeltaEstimate(
            np.zeros((2, 2)), 7, 0.0, "polished", 3, 3, 1, 50, "float32", *times
        ).converged
        with pytest.raises(AttributeError):
            est.converged = True
        with pytest.raises(TypeError):
            DeltaEstimate(
                np.zeros((2, 2)), 7, 0.0, "max_iter", 0, 0, 0, 28, "float32", *times,
                converged=False,
            )

    def test_accepts_precision_factor_wrappers(self):
        b = random_base_matrix(4, 1.0, margin=1.0, seed=6)
        y = sample_potentials(b, np.eye(4), 500, seed=7)
        f = precision_factor(y, np.eye(4))
        est = estimate_delta(f, f, SolverConfig(lam=0.01))
        assert isinstance(est, DeltaEstimate)
        assert np.max(np.abs(est.delta)) <= 1e-6


def rank_deficient_psd(rng, p, rank):
    a = rng.standard_normal((p, rank))
    return a @ a.T / p


# A singular pair whose null spaces, e3 for the first and e2 for the second,
# give the recession candidates -3 e3 e3^T and e2 e2^T: both diagonal, so
# without penalty, with inner products 3 and 1 against P1 - P2.
SINGULAR_PAIR = (
    np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]]),
    np.diag([1.0, 0.0, 3.0]),
)

# scales from near the bottom of float64's range to near its top
PAIR_SCALES = (1e-200, 1e-12, 1.0, 1e200)


@pytest.fixture
def no_iterations(monkeypatch):
    """Fail the test if the ADMM loop starts (each iteration calls solve first)."""

    def forbidden(self, r, out=None):
        raise AssertionError("ADMM iterated on a certified-unbounded problem")

    monkeypatch.setattr(PxqSolver, "solve", forbidden)


@pytest.fixture
def power_ratio1_cell(monkeypatch):
    """(psi1, psi2, config) of the power-sweep cell (ratio 1, instance 0) at seed 11.

    p = 117 and n = 77: each sample factor has a 40-dimensional null space.
    The factors are captured where the sweep hands them to estimate_delta.
    """
    captured = []

    def capture(psi1, psi2, config):
        captured.append((psi1, psi2, config))
        return estimate_delta(psi1, psi2, config)

    monkeypatch.setattr(experiments, "estimate_delta", capture)
    monkeypatch.setenv("LAPDIFF_THREADS", "1")  # inline, where the wrapper sees the cell
    (row,) = run_sweep(power_sweep_config(1.0, seed=11, instances=1)).rows
    assert row.n == 77 and row.iterations == 0
    (cell,) = captured
    return cell


class TestUnboundedCertificate:
    def test_power_ratio1_cell_finds_its_whole_null_space(self, power_ratio1_cell):
        psi1, psi2, config = power_ratio1_cell
        pair = _FactorPair(psi1, psi2)
        null1, null2 = pair.nulls
        assert null1.shape == null2.shape == (117, 40)
        with pytest.raises(UnboundedProblemError):
            _check_bounded(pair, config.lam)

    @pytest.mark.parametrize("deficient", ["psi1", "psi2"])
    def test_rank_deficient_factor_raises_before_iterating(self, deficient, no_iterations):
        rng = np.random.default_rng(31)
        low, full = rank_deficient_psd(rng, 8, 3), random_pd(rng, 8)
        psi1, psi2 = (low, full) if deficient == "psi1" else (full, low)
        with pytest.raises(UnboundedProblemError, match=f"null space of {deficient}"):
            estimate_delta(psi1, psi2, SolverConfig(lam=0.01))

    def test_random_pd_pairs_never_raise(self):
        rng = np.random.default_rng(32)
        for p in (3, 8, 20):
            for lam in (0.0, 0.01, 0.5):
                for _ in range(5):
                    psi1, psi2 = random_pd(rng, p, shift=0.01), random_pd(rng, p, shift=0.01)
                    est = estimate_delta(psi1, psi2, SolverConfig(lam=lam, max_iter=1))
                    assert est.iterations == 1

    def test_huge_unbounded_problem_raises_with_a_finite_rate(self):
        # with psi2 = 0 the loss is -<D, psi1>, which falls without bound along
        # psi1; unscaled, the candidate's slope and its bound both overflow to
        # -inf, which passes the check and leaves the loop to overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnboundedProblemError, match=r"of psi2 .* rate 1\.732e\+308 "):
                estimate_delta(1e308 * np.eye(3), np.zeros((3, 3)), SolverConfig(lam=0.1))

    def test_diagonal_direction_is_unbounded_at_any_lambda(self):
        # psi1's null space is e3, so the only candidate, -psi2[2, 2] e3 e3^T, is
        # diagonal: the off-diagonal penalty leaves its slope at -psi2[2, 2]^2 < 0
        psi1 = np.diag([2.0, 1.0, 0.0])
        psi2 = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 0.5]])
        for lam in (0.0, 1.0, 1e6):
            with pytest.raises(UnboundedProblemError):
                estimate_delta(psi1, psi2, SolverConfig(lam=lam, rho=0.1))

    @pytest.mark.parametrize(
        "p, n, kind",
        [(6, 40, "collinear"), (16, 80, "collinear"), (16, 80, "repeated"), (16, 200, "collinear")],
    )
    def test_rank_deficient_samples_above_p_keep_their_null_space(self, p, n, kind, no_iterations):
        # P2's samples span fewer than p dimensions although n > p. The null
        # eigenvalues of the whitened covariance came out of eigh as rounding,
        # about 1e-16 of the largest, which the root raised to about 1e-8 of
        # its largest, above the factor's null floor: 27-50 of each row's 60
        # draws lost the null direction and ran the loop.
        config = SolverConfig(lam=default_lambda(p, n), rho=0.1)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            y1 = rng.standard_normal((n, p))
            if kind == "collinear":
                y2 = rng.standard_normal((n, p))
                y2[:, -1] = y2[:, 0] + y2[:, 1]
            else:
                y2 = rng.standard_normal((14, p))[rng.integers(0, 14, n)]
            null = p - np.linalg.matrix_rank(y2)
            psi1, psi2 = (precision_factor(y, np.eye(p)) for y in (y1, y2))
            with pytest.raises(UnboundedProblemError, match=f" {null}-dimensional null space of psi2"):
                estimate_delta(psi1, psi2, config)

    def test_scaled_singular_pair_raises_at_every_scale(self):
        # with the factors and lam scaled by c, the objective at delta / c is
        # the unscaled one at delta: the pre-check reads scale-free rates and
        # certifies the pair at every c, without an overflow warning
        psi1, psi2 = SINGULAR_PAIR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in PAIR_SCALES:
                with pytest.raises(UnboundedProblemError, match="null space of psi1"):
                    estimate_delta(c * psi1, c * psi2, SolverConfig(lam=0.1 * c, rho=0.1))

    def test_criterion_5_draw_below_p_stays_bounded(self):
        # first n = p/2 = 30 instance of acceptance criterion 5, where both
        # factors have rank 30 of 60 and the problem is still bounded
        cfg = ExperimentConfig(
            dims=(60,),
            ratios=(),
            sample_sizes=(30,),
            instances=1,
            lambda_scale=2.0,
            delta_spec=GridDeltaSpec(weight_range=(1.0, 1.0), sign_mode="mixed"),
            base_spec=RandomBaseSpec(density=0.5, margin=0.3, scale=1.0 / 600.0),
            sigma_spec=SigmaSpec(kind="identity"),
            support_epsilon=0.25,
            seed=17,
            rho=0.1,
            estimators=("dtrace",),
        )
        (row,) = run_sweep(cfg).rows
        assert row.n == 30
        assert np.isfinite(row.sup_norm_error)
        assert row.converged and row.iterations > 0


# the dense-sweep case of tools/solve_work.py, running sqrt alone
DENSE_SWEEP = dict(
    ratios=(),
    lambda_scale=2.0,
    base_spec=RandomBaseSpec(density=0.5, margin=0.3, scale=0.05),
    sigma_spec=SigmaSpec(kind="dense"),
    seed=3,
    estimators=("sqrt",),
)


def polish_from(z, psi1, psi2, lam, dtype=np.float64):
    """_polish started from z, with the factor pair run_admm would use, searching in dtype.

    Its gradient estimate is z's own, so a complement solve starts the
    multiplier where z's is.
    """
    pair = _FactorPair(psi1, psi2)
    signs = np.sign(z).astype(np.int8)
    np.fill_diagonal(signs, 0)
    grad = (psi1 @ z @ psi2 + psi2 @ z @ psi1) / 2.0 - pair.diff
    return _polish(pair, lam, z.astype(dtype), grad, signs, 10000)


def polished_problem():
    """(psi1, psi2, lam, optimum, (i, j)): a random p = 8 problem, its polished
    optimum, and the first off-diagonal entry where the optimum is nonzero."""
    rng = np.random.default_rng(0)
    psi1, psi2 = random_pd(rng, 8), random_pd(rng, 8)
    lam = 0.15
    est = estimate_delta(psi1, psi2, SolverConfig(lam=lam))
    assert est.stop == "polished"
    i, j = np.argwhere(~np.eye(8, dtype=bool) & (est.delta != 0.0))[0]
    return psi1, psi2, lam, est.delta, (i, j)


class TestPolish:
    def test_power_sweep_cells_polish_within_60_iterations(self, power_cells):
        # waiting for the sign pattern to hold for a whole check, these
        # cells polished at iterations 110 and 170
        _, solves = power_cells
        for psi1, psi2, config, est in solves:
            assert est.stop == "polished" and est.converged
            assert 0 < est.iterations <= 60
            assert np.array_equal(est.delta, est.delta.T)
            tol = _FactorPair(psi1, psi2).tol
            assert kkt_residual(est.delta, psi1, psi2, config.lam) <= tol

    def test_polished_solves_match_proximal_gradient(self):
        rng = np.random.default_rng(41)
        for p in range(3, 9):
            psi1, psi2 = random_pd(rng, p), random_pd(rng, p)
            lam = float(rng.uniform(0.02, 0.2))
            est = estimate_delta(psi1, psi2, SolverConfig(lam=lam))
            assert est.stop == "polished"
            assert np.max(np.abs(est.delta - ista_reference_delta(psi1, psi2, lam))) <= 1e-8

    def test_converged_means_near_the_optimum_at_every_rho_and_scale(self):
        # p = 16: dense base at scale 1/(10p), lattice change, n = 4p, lam = 2 sqrt(ln p / n)
        p, n = 16, 64
        b1 = random_base_matrix(p, 1.0, scale=1.0 / (10 * p), seed=0)
        b2 = b1 + lattice_delta(p, seed=0)
        sigma = np.eye(p)
        psi1 = precision_factor(sample_potentials(b1, sigma, n, seed=[0, 1]), sigma)
        psi2 = precision_factor(sample_potentials(b2, sigma, n, seed=[0, 2]), sigma)
        rhos = (1e-3, 0.1, 10.0, 1e3)
        cases = [(rho, c, rho) for rho in rhos for c in (1e-3, 1.0, 1e3)]
        # far from unit scale, rho c^2 keeps the d-step P1 X P2 + 4 rho X of the
        # c = 1 problem; a float32 search must not overflow or underflow there
        cases += [(rho, c, rho * c * c) for rho in rhos for c in (1e-12, 1e12)]
        # at this lam the support holds 22% of the entries and the polish
        # solves on it; at a tenth of it 87%, and the polish solves on the
        # complement, whose float32 pieces must not overflow either
        for lam in (2.0 * np.sqrt(np.log(p) / n), 0.2 * np.sqrt(np.log(p) / n)):
            reference = ista_reference_delta(psi1, psi2, lam)
            for rho, c, scaled_rho in cases:
                # scaling the factors and lam by c scales the optimum by 1 / c
                config = SolverConfig(lam=c * lam, rho=scaled_rho)
                est = estimate_delta(c * psi1, c * psi2, config)
                assert est.converged, (lam, rho, c)
                optimum = reference / c
                gap = np.max(np.abs(est.delta - optimum)) / np.max(np.abs(optimum))
                # the KKT tolerance scales with c max |P1 - P2|, so the gap does not
                assert gap <= 1e-8, (lam, rho, c, gap)

    def test_stop_reasons(self):
        rng = np.random.default_rng(42)
        psi1, psi2 = random_pd(rng, 5), random_pd(rng, 5)
        short = estimate_delta(psi1, psi2, SolverConfig(lam=0.05, max_iter=7))
        assert (short.stop, short.iterations, short.converged) == ("max_iter", 7, False)
        # z stays 0, so at the first check its pattern equals the zero pattern
        # of its start, and the first check polishes it
        same = estimate_delta(psi1, psi1, SolverConfig(lam=0.05))
        assert (same.stop, same.iterations, same.converged) == (
            "polished", estimator.POLISH_CHECK, True
        )
        # lam this large leaves the optimum diagonal-only, and z's off-diagonal
        # signs stay at their zero start, so the first check polishes here too
        diagonal = estimate_delta(psi1, psi2, SolverConfig(lam=1.0))
        assert (diagonal.stop, diagonal.iterations, diagonal.converged) == (
            "polished", estimator.POLISH_CHECK, True
        )
        assert np.array_equal(diagonal.delta, np.diag(np.diag(diagonal.delta)))
        assert np.any(np.diag(diagonal.delta))

    def test_wrong_sign_pattern_returns_no_estimate(self, monkeypatch):
        psi1, psi2, lam, optimum, (i, j) = polished_problem()
        one_flipped = optimum.copy()
        one_flipped[i, j] = one_flipped[j, i] = -optimum[i, j]
        monkeypatch.setattr(estimator, "POLISH_ROUNDS", 0)
        for wrong in (-optimum, one_flipped):
            x, steps, *_ = polish_from(wrong, psi1, psi2, lam)
            assert x is None and steps > 0

    def test_cg_stops_once_every_residual_entry_is_within_tol(self):
        # max |r| <= tol < |r|_F: the KKT check is entrywise, so CG takes no step.
        # Every entry at +-tol gives |r|_F = sqrt(|S|) tol, the largest norm
        # at which CG must still look at max |r|
        rng = np.random.default_rng(1)
        p1, p2 = random_pd(rng, 6), random_pd(rng, 6)
        tol = 1e-6
        upper = np.triu(np.sign(rng.standard_normal((6, 6))))
        pair = _FactorPair(p1, p2)
        full = np.ones((6, 6), dtype=bool)
        for r in (np.full((6, 6), 0.5 * tol), (upper + np.triu(upper, 1).T) * tol):
            assert np.max(np.abs(r)) <= tol < np.linalg.norm(r)
            d, steps, _, solved = _cg_on_support(pair, np.float64, r, full, tol, 100)
            assert (steps, solved) == (0, True)
            assert d.dtype == np.float64 and not d.any()

    def test_repairs_a_support_wrong_in_a_few_entries(self, power_cells):
        # from each cell's optimum with 4 of its pairs dropped and 4 spurious
        # ones added; solving every round to the KKT tolerance took 388 and 399 steps
        _, solves = power_cells
        rng = np.random.default_rng(0)
        upper = np.triu(np.ones((117, 117), dtype=bool), 1)
        for psi1, psi2, config, est in solves:
            z = est.delta.copy()
            dropped = rng.permutation(np.argwhere(upper & (z != 0.0)))[:4]
            added = rng.permutation(np.argwhere(upper & (z == 0.0)))[:4]
            for i, j in dropped:
                z[i, j] = z[j, i] = 0.0
            for i, j in added:
                z[i, j] = z[j, i] = rng.choice((-1e-3, 1e-3))
            x, steps, *_ = polish_from(z, psi1, psi2, config.lam)
            assert x is not None and steps <= 250
            assert kkt_residual(x, psi1, psi2, config.lam) <= _FactorPair(psi1, psi2).tol

    def test_repair_round_restores_a_dropped_pair(self):
        psi1, psi2, lam, optimum, (i, j) = polished_problem()
        dropped = optimum.copy()
        dropped[i, j] = dropped[j, i] = 0.0
        x, *_ = polish_from(dropped, psi1, psi2, lam)
        assert x is not None
        assert np.max(np.abs(x - optimum)) <= 1e-8

    def test_unbounded_row_spends_within_the_budget(self, monkeypatch):
        # the problem is unbounded below, though no direction the pre-check
        # tests shows it, so no polish can pass
        steps, patterns = [], []
        cg = estimator._cg_on_support
        polish = estimator._polish

        def counted(*args):
            d, taken, gemms, solved = cg(*args)
            steps.append(taken)
            return d, taken, gemms, solved

        def recorded(pair, lam, z, estimate, signs, *rest):
            patterns.append(signs.copy())
            return polish(pair, lam, z, estimate, signs, *rest)

        monkeypatch.setattr(estimator, "_cg_on_support", counted)
        monkeypatch.setattr(estimator, "_polish", recorded)
        monkeypatch.setenv("LAPDIFF_THREADS", "1")  # inline, where the wrappers see the cell
        cfg = ExperimentConfig(dims=(16,), sample_sizes=(10,), instances=1, **DENSE_SWEEP)
        (row,) = run_sweep(cfg).rows
        assert row.iterations == cfg.max_iter and not row.converged
        assert len(steps) > 1
        assert CG_STEP_GEMMS * sum(steps) <= 0.5 * cfg.max_iter
        # each attempt differs from the one before it in more signs than the
        # settled fraction; retrying a pattern once it held exactly and differed
        # at all made 14 attempts here
        settled = estimator.POLISH_SETTLED * 16 * 15
        assert 1 < len(patterns) <= 8
        assert all(np.count_nonzero(a != b) > settled for a, b in zip(patterns, patterns[1:]))

    def test_default_rho_row_polishes_within_300_iterations(self):
        # the default-rho-sweep case of tools/solve_work.py at n = 6 < p = 16.
        # When a retry waited until the budget left covered twice the failed
        # attempt's CG steps, this row took 6 680 iterations, and when a retry
        # waited for the pattern to hold exactly, 400
        cfg = ExperimentConfig(
            dims=(16,),
            sample_sizes=(6,),
            instances=1,
            **{**DENSE_SWEEP, "sigma_spec": SigmaSpec(kind="diagonal"), "seed": 1},
        )
        (row,) = run_sweep(cfg).rows
        assert (cfg.rho, cfg.max_iter) == (SolverConfig.rho, SolverConfig.max_iter)
        assert row.converged and 0 < row.iterations <= 300

    def test_bounded_rows_past_max_iter_now_converge(self):
        cfg = ExperimentConfig(dims=(16,), sample_sizes=(20,), instances=2, **DENSE_SWEEP)
        rows = run_sweep(cfg).rows
        assert len(rows) == 2
        for row in rows:
            assert row.converged and row.iterations < cfg.max_iter


def reference_cg_on_support(p1, p2, x, r, support, tol, max_steps, precond):
    """The loop of _cg_on_support, written apart: a boolean support, max |r| formed as such.

    Kept to pin that loop's steps and bits against it, from x = 0.
    """
    g, scale = precond
    flat = estimator.EIG_RELATIVE_FLOOR * 2.0 * scale
    direction, product, scratch = (np.empty_like(x) for _ in range(3))
    largest = float(np.max(np.abs(r, out=scratch)))
    estimator._support_product(g, g, r, support, direction, scratch)
    rz = float(np.vdot(r, direction))
    steps = 0
    while largest > tol and steps < max_steps:
        estimator._support_product(p1, p2, direction, support, product, scratch)
        curvature = float(np.vdot(direction, product))
        if not curvature > flat * float(np.vdot(direction, direction)):
            break
        alpha = rz / curvature
        np.multiply(direction, alpha, out=scratch)
        x += scratch
        product *= alpha
        r -= product
        largest = float(np.max(np.abs(r, out=scratch)))
        estimator._support_product(g, g, r, support, product, scratch)
        rz_next = float(np.vdot(r, product))
        direction *= rz_next / rz
        direction += product
        rz = rz_next
        steps += 1
    return steps, largest <= tol


def cg_case(kind, dtype, p=30):
    """(pair, r, support, tol) of one CG case: a _FactorPair, float64 r, boolean support.

    "solve" has PD factors and a sparse support; "singular" has rank-5
    factors (n = 5 < p) and the full support; "nan" is "solve" with a NaN
    in the residual. tol suits a search in dtype.
    """
    rng = np.random.default_rng(8)
    if kind == "singular":
        p1, p2 = (rank_deficient_psd(rng, p, 5) for _ in range(2))
        support = np.ones((p, p), dtype=bool)
    else:
        p1, p2 = random_pd(rng, p), random_pd(rng, p)
        upper = np.triu(rng.random((p, p)) < 0.3, 1)
        support = upper | upper.T | np.eye(p, dtype=bool)
    r = rng.standard_normal((p, p))
    r = (r + r.T) * support
    if kind == "nan":
        r[2, 2] = np.nan
    tol = (1e-9 if dtype == np.float64 else 1e-4) * float(np.nanmax(np.abs(r)))
    return _FactorPair(p1, p2), r, support, tol


def bits(a):
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


class TestCgLoop:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["solve", "singular", "nan"])
    def test_matches_the_reference_loop_bit_for_bit(self, kind, dtype):
        pair, r, support, tol = cg_case(kind, dtype)
        max_steps = 500
        ref_x, ref_r = np.zeros(r.shape, dtype), r.astype(dtype)
        p1, p2, g = (a.astype(dtype) for a in (pair.p1, pair.p2, pair.preconditioner))
        expected = reference_cg_on_support(
            p1, p2, ref_x, ref_r, support, tol, max_steps, (g, pair.scale)
        )
        d, steps, _, solved = _cg_on_support(pair, dtype, r, support, tol, max_steps)
        assert (steps, solved) == expected
        ref_d = ref_x.astype(float)
        ref_d = (ref_d + ref_d.T) * 0.5
        assert d.dtype == np.float64 and np.array_equal(bits(d), bits(ref_d))
        steps, solved = expected
        if kind == "solve":
            assert solved and steps > 1
        elif kind == "nan":
            # max(r.max(), -r.min()) is NaN, which no tolerance passes
            assert expected == (0, False)
        elif dtype == np.float64:
            # a direction in the factors' shared null space has no curvature
            assert not solved and 0 < steps < max_steps


    def test_a_target_whose_square_overflows_solves_silently(self):
        # the near-gate once formed 4 |S| target^2, which overflowed here
        rng = np.random.default_rng(3)
        p1, p2 = random_pd(rng, 12), random_pd(rng, 12)
        large = _FactorPair(p1 * 1e75, p2 * 1e75)
        assert 1e150 <= large.scale <= 1e152
        support = np.abs(np.subtract.outer(np.arange(12), np.arange(12))) <= 2
        r = rng.standard_normal((12, 12))
        r = r + r.T
        target = np.float64(1e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, steps, _, solved = _cg_on_support(large, np.float64, r * 1e160, support, target, 500)
        assert solved and steps >= 1 and np.all(np.isfinite(d))
        unscaled, *_ = _cg_on_support(_FactorPair(p1, p2), np.float64, r, support, 1e-5, 500)
        assert_allclose(d * 1e150 / 1e160, unscaled, rtol=1e-6, atol=0)

    @pytest.mark.parametrize(
        "solve, factor_scale, r_scale, target, steps",
        [
            # the first curvature overflows: a step of rz / inf = 0 would then
            # repeat the same residual until max_steps
            (estimator._cg_on_complement, 1.0, 1e153, 1e153, 1),
            # the curvature overflows where |direction|^2 does not, and
            # rz / curvature = inf / inf would make the iterate NaN
            (_cg_on_support, 100.0, 1e155, 1e150, 0),
        ],
    )
    def test_an_overflowing_curvature_stops_the_search(self, solve, factor_scale, r_scale, target, steps):
        rng = np.random.default_rng(3)
        p1, p2 = random_pd(rng, 12), random_pd(rng, 12)
        pair = _FactorPair(p1 * factor_scale, p2 * factor_scale)
        support = np.abs(np.subtract.outer(np.arange(12), np.arange(12))) <= 2
        r = rng.standard_normal((12, 12))
        r = (r + r.T) * r_scale
        d, taken, gemms, solved = solve(pair, np.float64, r, support, target, 28)
        # the first preconditioned residual and the product that overflowed
        assert (taken, gemms, solved) == (steps, 8 if steps else 4, False)
        assert np.all(np.isfinite(d))


@pytest.fixture(scope="module")
def dense_sweep_rows():
    """(config, rows) of the dense-sweep case of tools/solve_work.py, all three estimators."""
    cfg = ExperimentConfig(
        dims=(16, 25),
        sample_sizes=(10, 20, 64),
        instances=2,
        **{**DENSE_SWEEP, "estimators": ("dtrace", "plugin", "sqrt")},
    )
    return cfg, run_sweep(cfg).rows


class TestPreconditionedPolish:
    def test_polished_deltas_are_exactly_symmetric(self):
        rng = np.random.default_rng(43)
        for p in (5, 12, 30):
            psi1, psi2 = random_pd(rng, p), random_pd(rng, p)
            est = estimate_delta(psi1, psi2, SolverConfig(lam=0.05, rho=0.1))
            assert est.stop == "polished" and est.cg_steps > 0
            assert np.array_equal(est.delta, est.delta.T)

    def test_power_cells_polish_within_200_cg_steps(self, power_cells):
        # unpreconditioned, these two cells took 253 and 266 steps, and the
        # cells of seeds 1, 11 and 12 took 249-474
        _, solves = power_cells
        for _, _, _, est in solves:
            assert est.stop == "polished"
            assert 0 < est.cg_steps <= 200

    def test_bounded_row_below_p_polishes_within_350_iterations(self, dense_sweep_rows):
        # n = 10 < p = 16: both factors are singular; polishing every 50
        # iterations with unpreconditioned CG took 350 iterations here
        _, rows = dense_sweep_rows
        (row,) = [r for r in rows if (r.p, r.n, r.instance, r.estimator) == (16, 10, 1, "sqrt")]
        assert row.converged and 0 < row.iterations <= 350

    def test_null_directions_do_not_stall_the_polish(self):
        # the config-sweep case of tools/row_digest.py at p = 9, n = 6: each
        # factor has a 3-dimensional null space. Flooring its null eigenvalues
        # at 1e-6 of the largest, instead of raising them to the smallest
        # nonzero one, spent the first attempt's 500 steps on repair rounds,
        # and the row ran all 2000 iterations
        cfg = ExperimentConfig(
            dims=(9,),
            ratios=(),
            sample_sizes=(6,),
            instances=2,
            lambda_scale=2.0,
            base_spec=RandomBaseSpec(margin=0.3, scale=0.01),
            sigma_spec=SigmaSpec(kind="diagonal", value_range=(0.5, 2.0)),
            seed=9,
            estimators=("dtrace",),
            rho=0.1,
            max_iter=2000,
        )
        row = run_sweep(cfg).rows[1]
        assert (row.n, row.instance) == (6, 1)
        assert row.converged and row.iterations < cfg.max_iter

    def test_bounded_rows_total_within_5850_iterations(self, dense_sweep_rows):
        # 5850 is their total when polishing every 50 iterations without a preconditioner
        cfg, rows = dense_sweep_rows
        solved = [r for r in rows if r.estimator != "plugin"]
        bounded = [r for r in solved if r.iterations < cfg.max_iter]
        assert len(solved) - len(bounded) == 3  # the unbounded sqrt rows at n = 10
        assert all(r.converged for r in bounded)
        assert sum(r.iterations for r in bounded) <= 5850


@pytest.fixture
def search_dtypes(monkeypatch):
    """The dtypes PxqSolver.solve writes into and _polish receives z in, as a list of names.

    Sweeps run inline on one worker, where the wrappers see their cells.
    """
    seen = []
    solve, polish = PxqSolver.solve, estimator._polish

    def solve_recorded(self, r, out=None):
        seen.append((out if out is not None else r).dtype.name)
        return solve(self, r, out=out)

    def polish_recorded(pair, lam, z, *rest):
        seen.append(z.dtype.name)
        return polish(pair, lam, z, *rest)

    monkeypatch.setattr(PxqSolver, "solve", solve_recorded)
    monkeypatch.setattr(estimator, "_polish", polish_recorded)
    monkeypatch.setenv("LAPDIFF_THREADS", "1")
    return seen


class TestSearchPrecision:
    def test_full_rank_problem_searches_in_float32(self, search_dtypes):
        rng = np.random.default_rng(44)
        psi1, psi2 = random_pd(rng, 6), random_pd(rng, 6)
        est = estimate_delta(psi1, psi2, SolverConfig(lam=0.05, rho=0.1))
        assert est.converged
        assert len(search_dtypes) > est.iterations  # every solve and at least one polish
        assert set(search_dtypes) == {"float32"}

    def test_singular_factor_searches_in_float64(self, search_dtypes):
        # the config-sweep case of tools/row_digest.py at p = 9, n = 6: each
        # factor has a 3-dimensional null space, and both rows polish
        cfg = ExperimentConfig(
            dims=(9,),
            ratios=(),
            sample_sizes=(6,),
            instances=2,
            lambda_scale=2.0,
            base_spec=RandomBaseSpec(margin=0.3, scale=0.01),
            sigma_spec=SigmaSpec(kind="diagonal", value_range=(0.5, 2.0)),
            seed=9,
            estimators=("dtrace",),
            rho=0.1,
            max_iter=2000,
        )
        rows = run_sweep(cfg).rows
        assert all(row.converged for row in rows)
        assert len(search_dtypes) > sum(row.iterations for row in rows)
        assert set(search_dtypes) == {"float64"}

    @pytest.mark.parametrize("c", [1e-19, 1e19])
    def test_problem_beyond_the_float32_span_searches_in_float64(self, search_dtypes, c):
        # rho c^2 keeps the d-step of the c = 1 problem; sigma or lmax(P1) lmax(P2)
        # then leaves FLOAT32_SPAN, where float32 weights overflowed or a polish
        # never passed
        rng = np.random.default_rng(45)
        psi1, psi2 = random_pd(rng, 6), random_pd(rng, 6)
        est = estimate_delta(c * psi1, c * psi2, SolverConfig(lam=c * 0.05, rho=0.1 * c * c))
        assert est.converged
        assert set(search_dtypes) == {"float64"}

    @pytest.mark.parametrize("c", [1e30, 1e40])
    def test_factor_difference_beyond_the_float32_span_searches_in_float64(
        self, search_dtypes, c
    ):
        # sigma, lmax(P1) lmax(P2) = 6 and lam / sigma fit the span, but
        # max |P1 - P2| = 3c does not: a float32 search overflows, and runs to
        # max_iter at c = 1e30 and diverges at c = 1e40
        psi1, psi2 = c * np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 0.5, 2.0]) / c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_delta(psi1, psi2, SolverConfig(lam=0.1, rho=0.1))
        assert est.converged
        assert set(search_dtypes) == {"float64"}
        assert_allclose(est.delta, c * np.diag([1.0, 2.0, 0.5]), rtol=1e-12)

    def test_polished_full_rank_estimate_is_float64_and_exactly_symmetric(
        self, power_cells, monkeypatch
    ):
        _, solves = power_cells
        for psi1, psi2, config, est in solves:
            assert est.converged and est.delta.dtype == np.float64
            assert np.array_equal(est.delta, est.delta.T)
            assert kkt_residual(est.delta, psi1, psi2, config.lam) <= _FactorPair(psi1, psi2).tol
        # the float32 search ends within 1e-8 of the optimum a float64 search finds
        monkeypatch.setattr(estimator, "_search_dtype", lambda *args: np.float64)
        for psi1, psi2, config, est in solves:
            exact = estimate_delta(psi1, psi2, config)
            assert exact.converged
            gap = np.max(np.abs(est.delta - exact.delta)) / np.max(np.abs(exact.delta))
            assert gap <= 1e-8, gap


def held_arrays(value):
    """The arrays in value, a pair's attributes: nested in tuples, lists and dicts too."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from held_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from held_arrays(item)


class TestFactorPairPrecision:
    def test_pair_holds_float64_only_after_solves_in_both_dtypes(self):
        pair, r, support, tol = cg_case("solve", np.float32)
        _, _, stop, *_ = estimator.run_admm(pair, SolverConfig(lam=0.05, rho=0.1))
        assert stop == "polished"
        for dtype in (np.float32, np.float64):
            for solve in (_cg_on_support, estimator._cg_on_complement):
                d, _, _, solved = solve(pair, dtype, r, support, tol, 500)
                assert solved and d.dtype == np.float64
        held = vars(pair)
        assert "preconditioner" in held and "inverse" in held
        assert {a.dtype for a in held_arrays(held)} == {np.dtype(np.float64)}


def forced_solver(monkeypatch, solve):
    """Make every polish round use the inner solve given."""
    monkeypatch.setattr(estimator, "_inner_solver", lambda pair, support: solve)


def dense_support_problem():
    """(psi1, psi2, config) of a random full-rank p = 30 problem whose optimum's support holds
    most of the entries."""
    rng = np.random.default_rng(46)
    psi1, psi2 = random_pd(rng, 30), random_pd(rng, 30)
    return psi1, psi2, SolverConfig(lam=0.01, rho=0.1)


class TestComplementPolish:
    def test_both_inner_solves_reach_the_same_certified_optimum(self, power_cells, monkeypatch):
        _, solves = power_cells
        problems = [(psi1, psi2, config) for psi1, psi2, config, _ in solves[:1]]
        problems.append(dense_support_problem())
        for psi1, psi2, config in problems:
            ests = []
            for solve in (estimator._cg_on_support, estimator._cg_on_complement):
                forced_solver(monkeypatch, solve)
                est = estimate_delta(psi1, psi2, config)
                assert est.converged and est.delta.dtype == np.float64
                assert np.array_equal(est.delta, est.delta.T)
                tol = _FactorPair(psi1, psi2).tol
                assert kkt_residual(est.delta, psi1, psi2, config.lam) <= tol
                ests.append(est)
            primal, complement = ests
            assert 2 * np.count_nonzero(primal.delta) > primal.delta.size
            assert (complement.stop, complement.iterations) == (primal.stop, primal.iterations)
            gap = np.max(np.abs(complement.delta - primal.delta)) / np.max(np.abs(primal.delta))
            assert gap <= 1e-8, gap

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_complement_polish_from_the_optimum_with_pairs_dropped(self, dtype, monkeypatch):
        # a float64 search and a float32 one, from the optimum with 4 of its
        # pairs dropped, which the repair rounds restore
        psi1, psi2, config = dense_support_problem()
        optimum = estimate_delta(psi1, psi2, config).delta
        z = optimum.copy()
        upper = np.triu(np.ones(z.shape, dtype=bool), 1)
        for i, j in np.argwhere(upper & (z != 0.0))[:4]:
            z[i, j] = z[j, i] = 0.0
        forced_solver(monkeypatch, estimator._cg_on_complement)
        x, steps, *_ = polish_from(z, psi1, psi2, config.lam, dtype)
        assert x is not None and 0 < steps
        assert x.dtype == np.float64 and np.array_equal(x, x.T)
        assert kkt_residual(x, psi1, psi2, config.lam) <= _FactorPair(psi1, psi2).tol
        assert np.max(np.abs(x - optimum)) / np.max(np.abs(optimum)) <= 1e-8

    def test_inner_solver_follows_the_support_and_the_factors(self, power_cells):
        _, solves = power_cells
        psi1, psi2, _, est = solves[0]
        pair = _FactorPair(psi1, psi2)
        support = est.delta != 0.0
        assert np.all(np.diagonal(support)) and 2 * np.count_nonzero(support) > support.size
        diagonal = np.eye(117, dtype=bool)
        assert estimator._inner_solver(pair, support) is estimator._cg_on_complement
        assert estimator._inner_solver(pair, diagonal) is estimator._cg_on_support
        # the complement solve needs the exact inverse, which a singular factor lacks
        rng = np.random.default_rng(47)
        singular = _FactorPair(rank_deficient_psd(rng, 12, 6), random_pd(rng, 12))
        assert not singular.definite
        full = np.ones((12, 12), dtype=bool)
        assert estimator._inner_solver(singular, full) is estimator._cg_on_support

    def test_one_pair_solves_two_lams_as_fresh_pairs_do(self, monkeypatch):
        # the lam-path contract: the pair holds no work array, so solving a
        # second lam on the other inner solve leaves the first estimate as it
        # was, and each solve on the shared pair matches a fresh pair's bit for bit
        psi1, psi2, dense = dense_support_problem()
        sparse = SolverConfig(lam=0.3, rho=dense.rho)
        solvers = []
        choose = estimator._inner_solver

        def recorded(pair, support):
            solvers.append(choose(pair, support))
            return solvers[-1]

        monkeypatch.setattr(estimator, "_inner_solver", recorded)
        pair = _FactorPair(psi1, psi2)
        runs = []
        cases = ((dense, estimator._cg_on_complement), (sparse, estimator._cg_on_support))
        for config, solve in cases:
            solvers.clear()
            z, *rest = estimator.run_admm(pair, config)
            assert rest[1] == "polished" and set(solvers) == {solve}
            runs.append((config, z, z.copy(), rest))
        for config, z, kept, rest in runs:
            assert np.array_equal(bits(z), bits(kept))
            fresh, *fresh_rest = estimator.run_admm(_FactorPair(psi1, psi2), config)
            # all but the last two values, loop_s and polish_s, which are wall-clock times
            assert np.array_equal(bits(z), bits(fresh)) and rest[:-2] == fresh_rest[:-2]

    def test_power_cells_polish_within_71_cg_steps(self, power_cells):
        # on the complement these cells take 54 and 62 steps; solving for
        # x on their supports, 143 and 137
        _, solves = power_cells
        for _, _, _, est in solves:
            assert est.stop == "polished"
            assert 0 < est.cg_steps <= 71


@pytest.fixture
def counted_work(monkeypatch):
    """The polish work of the solves that follow, counted apart from their records.

    Wrappers around the estimator's helpers add 2 GEMMs per _kkt_product
    call and 4 per _apply_inverse call, count the _polish calls, add up the
    steps each _cg_on_complement call returns and collect the inner solves
    _inner_solver picks, as "primal" or "complement". Sweeps run inline on
    one worker, where the wrappers see their cells.
    """
    work = {"gemms": 0, "attempts": 0, "complement_steps": 0, "picks": set()}
    kkt, inverse = estimator._kkt_product, estimator._apply_inverse
    polish, choose = estimator._polish, estimator._inner_solver
    complement = estimator._cg_on_complement

    def kkt_counted(*args):
        work["gemms"] += 2
        return kkt(*args)

    def inverse_counted(*args):
        work["gemms"] += 4
        return inverse(*args)

    def polish_counted(*args):
        work["attempts"] += 1
        return polish(*args)

    def complement_counted(*args):
        d, steps, *rest = complement(*args)
        work["complement_steps"] += steps
        return (d, steps, *rest)

    def choose_counted(*args):
        solve = choose(*args)
        work["picks"].add("complement" if solve is complement_counted else "primal")
        return solve

    monkeypatch.setattr(estimator, "_kkt_product", kkt_counted)
    monkeypatch.setattr(estimator, "_apply_inverse", inverse_counted)
    monkeypatch.setattr(estimator, "_polish", polish_counted)
    monkeypatch.setattr(estimator, "_cg_on_complement", complement_counted)
    monkeypatch.setattr(estimator, "_inner_solver", choose_counted)
    monkeypatch.setenv("LAPDIFF_THREADS", "1")
    return work


class TestSolveWork:
    """A solve's record of its work against counted_work's count of the same solve."""

    @staticmethod
    def assert_recorded(est, work, picks):
        assert est.gemms - CG_STEP_GEMMS * est.iterations == work["gemms"]
        assert est.attempts == work["attempts"] >= 1
        assert est.complement_steps == work["complement_steps"]
        assert work["picks"] == picks

    def test_bounded_power_cell_polishes_on_the_complement(self, power_cells, counted_work):
        _, solves = power_cells
        psi1, psi2, config, _ = solves[0]
        est = estimate_delta(psi1, psi2, config)
        self.assert_recorded(est, counted_work, {"complement"})
        assert est.complement_steps == est.cg_steps > 0 and est.dtype == "float32"

    def test_sparse_optimum_polishes_on_the_support(self, counted_work):
        psi1, psi2, dense = dense_support_problem()
        est = estimate_delta(psi1, psi2, SolverConfig(lam=0.3, rho=dense.rho))
        self.assert_recorded(est, counted_work, {"primal"})
        assert est.complement_steps == 0 < est.cg_steps and est.dtype == "float32"

    def test_curvature_stop_row_counts_the_product_before_the_stop(
        self, counted_work, monkeypatch
    ):
        # the dense-sweep row p = 16, n = 10, instance 0, sqrt: a primal CG
        # makes its operator product before its curvature test breaks the
        # loop, and adding 2 GEMMs per step instead counted 82 360
        cfg = ExperimentConfig(dims=(16,), sample_sizes=(10,), instances=1, **DENSE_SWEEP)
        _, [(*_, est)] = captured_solves(monkeypatch, cfg)
        self.assert_recorded(est, counted_work, {"primal"})
        assert (est.stop, est.gemms, est.cg_steps, est.attempts) == ("max_iter", 82370, 585, 5)
        assert est.complement_steps == 0 and est.dtype == "float64"


class TestSolveTimes:
    """The seconds a solve records of its setup, ADMM loop and polish."""

    @staticmethod
    def timed_solve(psi1, psi2, config):
        start = time.perf_counter()
        est = estimate_delta(psi1, psi2, config)
        wall = time.perf_counter() - start
        times = (est.setup_s, est.loop_s, est.polish_s)
        assert all(np.isfinite(t) and t >= 0.0 for t in times), times
        assert sum(times) <= wall, (times, wall)
        return est

    def test_bounded_power_cell_times_its_phases_within_the_solve(self, power_cells):
        _, solves = power_cells
        psi1, psi2, config, _ = solves[0]
        est = self.timed_solve(psi1, psi2, config)
        assert est.attempts >= 1 and est.polish_s > 0.0 and est.loop_s > 0.0

    def test_dense_support_problem_times_its_phases_within_the_solve(self):
        est = self.timed_solve(*dense_support_problem())
        assert est.attempts >= 1 and est.polish_s > 0.0 and est.loop_s > 0.0

    def test_a_solve_that_ends_before_the_first_check_spends_nothing_polishing(self):
        psi1, psi2, dense = dense_support_problem()
        assert estimator.POLISH_CHECK > 5
        est = self.timed_solve(psi1, psi2, SolverConfig(lam=dense.lam, rho=dense.rho, max_iter=5))
        assert (est.iterations, est.attempts, est.polish_s) == (5, 0, 0.0)


@pytest.fixture(scope="module")
def default_rho_singular_solves():
    """captured_solves of tools/solve_work.py's default-rho-sweep case at n = 6 and 10 < p = 16.

    Each factor is singular, so all eight dtrace and sqrt solves search in
    float64.
    """
    cfg = ExperimentConfig(
        dims=(16,),
        sample_sizes=(6, 10),
        instances=2,
        **{
            **DENSE_SWEEP,
            "sigma_spec": SigmaSpec(kind="diagonal"),
            "seed": 1,
            "estimators": ("dtrace", "sqrt"),
        },
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, solves = captured_solves(monkeypatch, cfg)
    assert len(solves) == 8
    assert all(est.dtype == "float64" for *_, est in solves)
    return solves


@pytest.fixture(params=["power_cells", "default_rho_singular_solves"])
def polished_solves(request):
    """(psi1, psi2, config, estimate) of solves that all stop polished."""
    solves = request.getfixturevalue(request.param)
    if request.param == "power_cells":
        _, solves = solves
    assert all(est.stop == "polished" for *_, est in solves)
    return solves


# Flat bound of the equivariance tests, relative to max |delta|. Measured
# errors were at most 3.1e-12 (swap) and 2.5e-11 (permutation) on the power
# cells, and 9.6e-10 and 7.1e-12 on the singular default-rho solves.
EQUIVARIANCE_RTOL = 1e-8


class TestEquivariance:
    """The optimum negates when the regimes swap and permutes with the nodes."""

    def test_swapping_the_regimes_negates_the_estimate(self, polished_solves):
        for psi1, psi2, config, est in polished_solves:
            swapped = estimate_delta(psi2, psi1, config)
            assert swapped.stop == "polished"
            gap = np.max(np.abs(swapped.delta + est.delta))
            assert gap <= EQUIVARIANCE_RTOL * np.max(np.abs(est.delta))

    def test_permuting_the_nodes_permutes_the_estimate(self, polished_solves):
        rng = np.random.default_rng(5)
        for psi1, psi2, config, est in polished_solves:
            perm = np.ix_(*[rng.permutation(psi1.shape[0])] * 2)
            permuted = estimate_delta(psi1[perm], psi2[perm], config)
            assert permuted.stop == "polished"
            gap = np.max(np.abs(permuted.delta - est.delta[perm]))
            assert gap <= EQUIVARIANCE_RTOL * np.max(np.abs(est.delta))


def diagonal_only_optimum(psi1, psi2):
    """(x, lam_max): the best diagonal-only difference diag(x), optimal from lam = lam_max up.

    [sym(P1 diag(x) P2)]_ii = ((P1 o P2) x)_i, so x solves
    (P1 o P2) x = diag(P1 - P2); lam_max is the largest off-diagonal
    |entry| of the gradient sym(P1 diag(x) P2) - (P1 - P2) there.
    """
    diff = psi1 - psi2
    x = np.linalg.solve(psi1 * psi2, np.diagonal(diff))
    product = psi1 @ (x[:, None] * psi2)
    grad = (product + product.T) / 2.0 - diff
    return x, float(np.max(np.abs(grad[~np.eye(len(x), dtype=bool)])))


class TestLambdaMax:
    def test_diagonal_only_optimum_holds_exactly_from_lambda_max(self, power_cells):
        # measured: at 1.01 lam_max both cells polish in 10 iterations within
        # 1.1e-9 and 7.0e-10 of diag(x), relative to max |x|; at 0.99 lam_max
        # they keep 2 and 4 off-diagonal nonzeros
        _, solves = power_cells
        for psi1, psi2, config, _ in solves:
            x, lam_max = diagonal_only_optimum(psi1, psi2)
            off = ~np.eye(len(x), dtype=bool)
            rho, max_iter = config.rho, config.max_iter
            above = estimate_delta(psi1, psi2, SolverConfig(1.01 * lam_max, rho, max_iter))
            below = estimate_delta(psi1, psi2, SolverConfig(0.99 * lam_max, rho, max_iter))
            assert above.stop == below.stop == "polished"
            assert np.count_nonzero(above.delta[off]) == 0
            assert np.max(np.abs(above.delta - np.diag(x))) <= 1e-8 * np.max(np.abs(x))
            assert np.count_nonzero(below.delta[off]) > 0


def certificate(psi1, psi2, lam, x, signs=None):
    """(_kkt_check's record, G) for x at lam, signs defaulting to x's off-diagonal sign pattern."""
    product = psi1 @ x @ psi2
    grad = (product + product.T) / 2.0 - (psi1 - psi2)
    if signs is None:
        signs = np.sign(x).astype(np.int8)
        np.fill_diagonal(signs, 0)
    support = signs != 0
    np.fill_diagonal(support, True)
    return _kkt_check(_FactorPair(psi1, psi2), lam, x, grad, signs, support), grad


class TestKktCheck:
    """The one KKT certificate, on estimates the polish did not make.

    kkt_residual, the tests' own KKT oracle, shares no code with it.
    """

    def test_diagonal_optimum_is_accepted_only_from_lambda_max(self, power_cells):
        _, solves = power_cells
        for psi1, psi2, _, _ in solves:
            x, lam_max = diagonal_only_optimum(psi1, psi2)
            above, _ = certificate(psi1, psi2, 1.01 * lam_max, np.diag(x))
            assert above.verdict == "accepted" and above.largest <= 2.0 * _FactorPair(psi1, psi2).tol
            assert kkt_residual(np.diag(x), psi1, psi2, 1.01 * lam_max) <= _FactorPair(psi1, psi2).tol
            below, grad = certificate(psi1, psi2, 0.99 * lam_max, np.diag(x))
            assert below.verdict == "wrong-support" and below.residual is None
            assert not below.flipped.any() and below.outside.any()
            # the pair where |G| attains lam_max lies outside the diagonal support
            off = np.where(np.eye(len(x), dtype=bool), 0.0, np.abs(grad))
            assert below.outside[np.unravel_index(np.argmax(off), off.shape)]

    def test_a_diagonal_off_its_optimum_is_inexact(self, power_cells):
        _, solves = power_cells
        psi1, psi2, _, _ = solves[0]
        x, lam_max = diagonal_only_optimum(psi1, psi2)
        x[3] *= 1.0 + 1e-6
        kkt, grad = certificate(psi1, psi2, 1.01 * lam_max, np.diag(x))
        assert kkt.verdict == "inexact" and not (kkt.flipped.any() or kkt.outside.any())
        # the residual of the next refinement: -2 G on the diagonal support, zero off it
        assert_allclose(kkt.residual, np.diag(-2.0 * np.diagonal(grad)), rtol=0, atol=0)
        assert kkt.largest == np.max(np.abs(kkt.residual)) > 2.0 * _FactorPair(psi1, psi2).tol

    def test_a_negated_support_sign_is_flipped(self, power_cells):
        _, solves = power_cells
        psi1, psi2, config, _ = solves[0]
        est = estimate_delta(psi1, psi2, config)
        kkt, _ = certificate(psi1, psi2, config.lam, est.delta)
        assert est.converged and kkt.verdict == "accepted"
        signs = np.sign(est.delta).astype(np.int8)
        np.fill_diagonal(signs, 0)
        i, j = np.argwhere(signs)[0]
        signs[i, j] = signs[j, i] = -signs[i, j]
        kkt, _ = certificate(psi1, psi2, config.lam, est.delta, signs)
        assert kkt.verdict == "wrong-support" and kkt.residual is None
        assert sorted(map(tuple, np.argwhere(kkt.flipped))) == sorted({(i, j), (j, i)})

    def test_a_nan_entry_is_not_finite(self, power_cells):
        _, solves = power_cells
        psi1, psi2, _, _ = solves[0]
        x, lam_max = diagonal_only_optimum(psi1, psi2)
        x[0] = np.nan
        with np.errstate(invalid="ignore"):
            kkt, _ = certificate(psi1, psi2, 1.01 * lam_max, np.diag(x))
        assert kkt.verdict == "not-finite" and kkt.flipped is None and kkt.outside is None


class TestPluginDelta:
    def test_undefined_at_n_equal_p(self):
        rng = np.random.default_rng(16)
        y1 = rng.standard_normal((5, 5))
        y2 = rng.standard_normal((50, 5))
        with pytest.raises(PluginUndefinedError):
            plugin_delta(y1, y2, np.eye(5), np.eye(5))

    @pytest.mark.parametrize("wrong", [1, 2])
    def test_sample_width_must_match_sigma(self, wrong):
        rng = np.random.default_rng(17)
        samples = {1: rng.standard_normal((20, 5)), 2: rng.standard_normal((20, 5))}
        samples[wrong] = rng.standard_normal((20, 4))
        with pytest.raises(InvalidInputError, match="incompatible with sigma"):
            plugin_delta(samples[1], samples[2], np.eye(5), np.eye(5))

    def test_population_samples_reproduce_exact_identity(self):
        # build sample sets whose uncentered covariance equals the population
        # covariance exactly; the plug-in then equals the exact identity
        rng = np.random.default_rng(17)
        p = 5
        b1 = random_base_matrix(p, 1.0, margin=1.0, seed=8)
        b2 = b1 + lattice_delta(p, seed=9)
        s1 = np.diag(rng.uniform(0.5, 2.0, p))
        s2 = np.diag(rng.uniform(0.5, 2.0, p))
        samples = []
        for b, s in ((b1, s1), (b2, s2)):
            b_inv = np.linalg.inv(b)
            cov = b_inv @ s @ b_inv
            vals, vecs = np.linalg.eigh(cov)
            root = (vecs * np.sqrt(vals)) @ vecs.T
            block = np.sqrt(p) * root
            samples.append(np.vstack([block, block]) / np.sqrt(2) * np.sqrt(2))
        out = plugin_delta(samples[0], samples[1], s1, s2)
        expected = exact_delta(b1, b2, s1, s2)
        assert_allclose(out, expected, atol=1e-8)

    def test_large_samples_with_dense_sigma_give_the_scaled_estimate(self):
        # scaling the samples by c scales the plug-in estimate by 1 / c; the
        # whitened covariance of large samples is asymmetric by rounding
        p = 8
        a = np.random.default_rng(3).standard_normal((p, p))
        sigma = a @ a.T / p + np.eye(p)
        b1 = random_base_matrix(p, 0.5, seed=4)
        b2 = b1 + lattice_delta(p, seed=5)
        y1 = sample_potentials(b1, sigma, 40, seed=6)
        y2 = sample_potentials(b2, sigma, 40, seed=7)
        base = plugin_delta(y1, y2, sigma, sigma)
        for scale in (1e2, 1e4):
            out = plugin_delta(scale * y1, scale * y2, sigma, sigma)
            assert_allclose(scale * out, base, rtol=0, atol=1e-9 * np.max(np.abs(base)))

    def test_large_n_approaches_truth(self):
        # Monte-Carlo check at n = 1000: entrywise error is ~0.16 on average
        # for base matrices of this scale; bound the mean and each draw
        p = 10
        b1 = random_base_matrix(p, 0.2, margin=0.5, seed=10)
        b2 = b1 + lattice_delta(p, (0.4, 0.6), seed=11)
        errs = []
        for seed in range(5):
            y1 = sample_potentials(b1, np.eye(p), 1000, seed=100 + seed)
            y2 = sample_potentials(b2, np.eye(p), 1000, seed=200 + seed)
            out = plugin_delta(y1, y2, np.eye(p), np.eye(p))
            errs.append(np.max(np.abs(out - (b2 - b1))))
        assert np.mean(errs) <= 0.2
        assert max(errs) <= 0.3


class TestEstimateSqrtDelta:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(18)
        y = rng.standard_normal((30, 4))
        psi = precision_factor(y, np.eye(4))
        est = estimate_delta(psi, psi, SolverConfig(lam=0.05))
        assert np.max(np.abs(est.delta)) <= 1e-6

    def test_diagonal_closed_form(self):
        # sigma = 4I with diagonal b: the target is (b2 - b1) / 2
        p = 4
        b1 = np.diag([1.0, 2.0, 3.0, 4.0])
        b2 = np.diag([2.0, 2.0, 1.5, 4.0])
        sigma = 4.0 * np.eye(p)
        n = 100000
        y1 = sample_potentials(b1, sigma, n, seed=20)
        y2 = sample_potentials(b2, sigma, n, seed=21)
        eye = np.eye(p)
        est = estimate_delta(
            precision_factor(y1, eye), precision_factor(y2, eye), SolverConfig(lam=0.01)
        )
        assert np.max(np.abs(est.delta - (b2 - b1) / 2.0)) <= 0.1


class TestUniquenessCheck:
    def test_pd_factors_unique(self):
        rng = np.random.default_rng(19)
        for trial in range(5):
            p = int(rng.integers(2, 11))
            rep = uniqueness_check(random_pd(rng, p), random_pd(rng, p), tau=1.0)
            assert isinstance(rep, UniquenessReport)
            assert rep.kernel_dim == 0
            assert rep.verdict == "unique"

    def test_kernel_dim_matches_bruteforce_on_rank_deficient(self):
        rng = np.random.default_rng(20)
        for trial in range(5):
            p, r = 5, 3
            a1 = rng.standard_normal((p, r))
            a2 = rng.standard_normal((p, r))
            psi1, psi2 = a1 @ a1.T, a2 @ a2.T
            rep = uniqueness_check(psi1, psi2, tau=1.0)
            assert rep.kernel_dim == kernel_pair_count(psi1, psi2)
            assert rep.kernel_dim > 0
            assert rep.verdict in ("not-unique", "inconclusive")

    @pytest.mark.parametrize(
        "psi1, psi2",
        [(np.zeros((3, 3)), np.zeros((3, 3))), (np.diag([0.0, 1, 1]), np.diag([0.0, 2, 1]))],
        ids=["zero", "shared-axis"],
    )
    def test_unit_vector_in_both_null_spaces_is_not_unique(self, psi1, psi2):
        # P1 E_00 = P2 E_00 = 0 and <E_00, P1 - P2> = 0, and the penalty skips
        # the diagonal: the objective is constant along t E_00. Both pairs were
        # "inconclusive", having no candidate that violates a condition
        rep = uniqueness_check(psi1, psi2, tau=1.0)
        assert rep.kernel_dim > 0 and rep.verdict == "not-unique"
        assert (rep.condition_inner, rep.condition_norm) == (0.0, 0.0)

    def test_equal_projectors_have_zero_inner_condition(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((6, 2))
        q, _ = np.linalg.qr(a)
        proj = q @ q.T
        rep = uniqueness_check(proj, proj, tau=100.0)
        assert rep.kernel_dim > 0
        assert rep.condition_inner <= 1e-10

    def test_verdict_does_not_depend_on_the_scale(self):
        # c (P1, P2) has the candidates of (P1, P2), and condition_inner scales
        # by c; the candidates are left out as rounding by a relative rule
        psi1, psi2 = SINGULAR_PAIR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = uniqueness_check(psi1, psi2, tau=1.0)
            assert (ref.verdict, ref.kernel_dim, ref.condition_norm) == ("not-unique", 2, 0.0)
            assert ref.condition_inner == pytest.approx(3.0, rel=1e-12)
            for c in PAIR_SCALES:
                rep = uniqueness_check(c * psi1, c * psi2, tau=1.0)
                assert (rep.verdict, rep.kernel_dim, rep.condition_norm) == (
                    "not-unique", 2, ref.condition_norm
                ), c
                assert rep.condition_inner / c == pytest.approx(ref.condition_inner, rel=1e-12)

    def test_skewed_pair_keeps_the_verdict(self):
        # |P1 - P2|_F of (1e160 P1, P2 / 1e160) overflows unless formed scaled;
        # its largest inner product is e2 e2^T's, 1e160 P1[1, 1]
        psi1, psi2 = SINGULAR_PAIR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = uniqueness_check(1e160 * psi1, psi2 / 1e160, tau=1.0)
        assert (rep.verdict, rep.kernel_dim, rep.condition_norm) == ("not-unique", 2, 0.0)
        assert rep.condition_inner == pytest.approx(1e160, rel=1e-12)

    def test_common_eigenbasis_kernel_dimension(self):
        # diagonal factors with complementary supports: kernel pairs are the
        # index pairs (i, j) with e1[i] * e2[j] + e2[i] * e1[j] = 0
        psi1 = np.diag([1.0, 1.0, 0.0])
        psi2 = np.diag([1.0, 0.0, 0.0])
        expected = sum(
            1
            for i in range(3)
            for j in range(3)
            if abs(psi1[i, i] * psi2[j, j] + psi2[i, i] * psi1[j, j]) < 1e-12
        )
        rep = uniqueness_check(psi1, psi2, tau=1.0)
        assert rep.kernel_dim == expected == kernel_pair_count(psi1, psi2)

    def test_kernel_dim_matches_oracle_on_controlled_ranges(self):
        # distinct eigenbases of two ranges that share exactly k directions:
        # the kernel dimension is p^2 - 2 r1 r2 + k^2; nonzero eigenvalues in
        # [0.3, 3] keep the oracle's 1e-9 relative cut clear of the spectrum
        rng = np.random.default_rng(2031)

        def orthonormal(m):
            return np.linalg.qr(rng.standard_normal((m, m)))[0]

        kernel_dims = []
        for _ in range(200):
            p = int(rng.integers(2, 9))
            k = int(rng.integers(0, p + 1))
            a1 = int(rng.integers(0, p - k + 1))
            a2 = int(rng.integers(0, p - k - a1 + 1))
            frame = orthonormal(p)
            psis = []
            for own in (range(k, k + a1), range(k + a1, k + a1 + a2)):
                cols = [*range(k), *own]
                basis = frame[:, cols] @ orthonormal(len(cols)) if cols else np.zeros((p, 0))
                psi = (basis * rng.uniform(0.3, 3.0, len(cols))) @ basis.T
                psis.append((psi + psi.T) / 2.0)
            rep = uniqueness_check(*psis, tau=1.0)
            closed = p * p - 2 * (k + a1) * (k + a2) + k * k
            assert rep.kernel_dim == closed == kernel_pair_count(*psis), (p, k, a1, a2)
            assert (rep.verdict == "unique") == (closed == 0)
            kernel_dims.append(closed)
        assert 0 in kernel_dims and max(kernel_dims) >= 40

    def test_sample_factors_below_p(self):
        # two rank-20 factors in R^36 share 2 * 20 - 36 = 4 range directions
        p, n = 36, 20
        eye = np.eye(p)
        psi1, psi2 = (
            precision_factor(sample_potentials(random_base_matrix(p, 0.3, seed=s), eye, n, s), eye)
            for s in (1, 2)
        )
        rep = uniqueness_check(psi1, psi2, tau=1.0)
        assert rep.kernel_dim == 512 == p * p - 2 * n * n + 4 * 4
        assert rep.kernel_dim == kernel_pair_count(psi1, psi2)

    def test_paper_scale_cell_in_milliseconds(self, power_ratio1_cell):
        psi1, psi2, _ = power_ratio1_cell
        start = time.perf_counter()
        rep = uniqueness_check(psi1, psi2, tau=1.0)
        elapsed = time.perf_counter() - start
        assert rep.kernel_dim == 3200 == 117**2 - 2 * 77**2 + 37**2
        assert rep.verdict == "not-unique"
        assert elapsed < 0.1

    def test_kept_root_factors_are_not_decomposed_again(self, monkeypatch):
        # identity-whitened factors are kept PSD roots (linalg._eigenpairs):
        # the PSD check and the null bases both read the roots' eigenpairs
        p, eye = 20, np.eye(20)
        psi1, psi2 = (
            precision_factor(sample_potentials(random_base_matrix(p, 0.3, seed=s), eye, n, s), eye)
            for s, n in ((1, 40), (2, 12))
        )
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rep = uniqueness_check(psi1, psi2, tau=1.0)
        assert calls == []
        # a factor that is no kept root is decomposed once, and a non-PSD one
        # raises before anything divides by its eigenvalues
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPsdError, match="psi1"):
                uniqueness_check(np.diag([1.0, -1.0]), np.eye(2), tau=1.0)
        assert calls == ["eigh"]
        monkeypatch.undo()
        assert rep.kernel_dim == kernel_pair_count(psi1, psi2) == p * p - 2 * p * 12 + 12 * 12
        assert rep.verdict in ("not-unique", "inconclusive")

    def test_indefinite_factor_rejected(self):
        # the closed-form kernel count holds only for PSD factors
        with pytest.raises(NotPsdError, match="psi1"):
            uniqueness_check(np.diag([1.0, -1.0]), np.eye(2), tau=1.0)
        with pytest.raises(NotPsdError, match="psi2"):
            uniqueness_check(np.eye(3), -np.eye(3), tau=1.0)

    def test_factor_shapes_differ(self):
        with pytest.raises(InvalidInputError, match=r"factor shapes differ: \(3, 3\) vs \(4, 4\)"):
            uniqueness_check(np.eye(3), np.eye(4), tau=1.0)

    def test_tau_validation(self):
        with pytest.raises(InvalidInputError):
            uniqueness_check(np.eye(3), np.eye(3), tau=0.0)
