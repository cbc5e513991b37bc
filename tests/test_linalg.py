"""Tests for the dense symmetric numerics kernel."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from lapdiff.errors import InvalidInputError, NotPsdError, SingularMatrixError
from lapdiff.estimator import _FactorPair, exact_delta
from lapdiff.linalg import (
    PxqSolver,
    as_symmetric,
    inv_sqrt_pd,
    inverse_geometric_mean,
    off_diagonal_l1,
    soft_threshold,
    solve_pxq,
    sqrt_psd,
    vec,
)
from lapdiff.sampling import precision_factor, sample_potentials


def random_psd(rng, p, rank=None):
    """Random PSD matrix with controlled rank."""
    if rank is None:
        rank = p
    a = rng.standard_normal((p, rank))
    return a @ a.T / rank


def random_pd(rng, p, shift=0.5):
    return random_psd(rng, p) + shift * np.eye(p)


class TestAsSymmetric:
    def test_symmetrizes_roundoff(self):
        rng = np.random.default_rng(0)
        a = random_pd(rng, 6)
        a_noisy = a + rng.standard_normal((6, 6)) * 1e-14
        out = as_symmetric(a_noisy)
        assert_allclose(out, out.T, rtol=0, atol=0)

    def test_huge_finite_entries_stay_finite(self):
        out = as_symmetric(1e308 * np.eye(2))
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, 1e308 * np.eye(2))

    def test_is_the_halved_sum_bit_for_bit(self):
        # a bitwise-symmetric input skips the gap check; every input keeps the
        # bytes of a / 2 + a.T / 2, subnormal entries and signed zeros included
        rng = np.random.default_rng(3)
        a = random_pd(rng, 6)
        a[0, 1] = a[1, 0] = 5e-324
        signed = a.copy()
        signed[2, 3], signed[3, 2] = 0.0, -0.0
        for m in (a, signed, signed.T, a + 1e-14 * rng.standard_normal((6, 6))):
            expected = m / 2.0 + m.T / 2.0
            assert np.array_equal(as_symmetric(m).view(np.int64), expected.view(np.int64))

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            as_symmetric(a)

    def test_tolerance_scales_with_the_largest_entry(self):
        # symmetric up to rounding at scale 1e5: the gap, 2.9e-11, exceeded an
        # absolute 1e-12 and was rejected
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((50, 50)))
        a = 1e5 * (q * np.geomspace(1.0, 10.0, 50)) @ q.T
        assert not np.array_equal(a, a.T)
        out = as_symmetric(a)
        assert np.array_equal(out, out.T)
        # clearly asymmetric at scale 1e-15: it was silently symmetrized
        with pytest.raises(InvalidInputError, match=r"1\.000e-15 > 1\.000e-27$"):
            as_symmetric(np.array([[0.0, 1e-15], [0.0, 0.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            as_symmetric(np.zeros((2, 3)))
        with pytest.raises(InvalidInputError):
            as_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            as_symmetric(np.zeros((0, 0)))


class TestSqrtPsd:
    def test_square_reproduces_input(self):
        rng = np.random.default_rng(3)
        for p in (1, 3, 8, 20):
            c = random_psd(rng, p)
            root = sqrt_psd(c)
            assert_allclose(root, root.T, rtol=0, atol=0)
            scale = max(1.0, np.linalg.norm(c))
            assert np.linalg.norm(root @ root - c) <= 1e-10 * scale

    def test_matches_scipy_on_pd(self):
        rng = np.random.default_rng(4)
        c = random_pd(rng, 7)
        expected = scipy.linalg.sqrtm(c).real
        assert_allclose(sqrt_psd(c), expected, atol=1e-9)

    def test_rank_deficient_ok(self):
        rng = np.random.default_rng(5)
        c = random_psd(rng, 9, rank=4)
        root = sqrt_psd(c)
        assert np.linalg.norm(root @ root - c) <= 1e-10 * max(1.0, np.linalg.norm(c))
        assert np.all(np.linalg.eigvalsh(root) >= -1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            sqrt_psd(np.diag([1.0, -0.5]))

    def test_clips_tiny_negative(self):
        # eigenvalue at -1e-12 sits inside the clip band and must be treated as zero
        c = np.diag([1.0, -1e-12])
        root = sqrt_psd(c)
        assert root[1, 1] == 0.0


def test_spectrum_past_float64_range_is_invalid_input():
    # finite entries, eigenvalues (1e307, inf): sqrt_psd returned an all-inf
    # root, and the others called b singular or not positive definite
    b = np.array([[1.0, 0.9], [0.9, 1.0]]) * 1e308
    for name, check in (
        ("matrix", lambda: sqrt_psd(b)),
        ("matrix", lambda: inv_sqrt_pd(b)),
        ("b", lambda: sample_potentials(b, np.eye(2), 5)),
        ("b", lambda: exact_delta(b, b, np.eye(2), np.eye(2))),
    ):
        with pytest.raises(InvalidInputError, match=f"^{name} has an eigenvalue past float64's range"):
            check()


class TestInvSqrtPd:
    def test_whitening_identity(self):
        rng = np.random.default_rng(6)
        for p in (2, 5, 15):
            c = random_pd(rng, p)
            w = inv_sqrt_pd(c)
            assert_allclose(w @ c @ w, np.eye(p), atol=1e-9)
            assert_allclose(w, w.T, rtol=0, atol=0)

    def test_inverse_of_sqrt(self):
        rng = np.random.default_rng(7)
        c = random_pd(rng, 6)
        assert_allclose(inv_sqrt_pd(c) @ sqrt_psd(c), np.eye(6), atol=1e-9)

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            inv_sqrt_pd(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            inv_sqrt_pd(np.diag([1.0, -0.3]))


def kron_solve_pxq(p, q, r, gamma):
    """Brute-force oracle: vectorize P X Q + gamma X = R and solve densely."""
    n = p.shape[0]
    system = np.kron(q.T, p) + gamma * np.eye(n * n)
    x = np.linalg.solve(system, r.flatten(order="F"))
    return x.reshape((n, n), order="F")


class TestSolvePxq:
    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            p_dim = int(rng.integers(1, 9))
            p = random_psd(rng, p_dim, rank=max(1, p_dim - int(rng.integers(0, 3))))
            q = random_psd(rng, p_dim, rank=max(1, p_dim - int(rng.integers(0, 3))))
            r = rng.standard_normal((p_dim, p_dim))
            gamma = float(rng.uniform(1e-3, 2.0))
            x = solve_pxq(p, q, r, gamma)
            assert_allclose(x, kron_solve_pxq(p, q, r, gamma), atol=1e-8)

    def test_residual_identity(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            p_dim = int(rng.integers(1, 21))
            p = random_psd(rng, p_dim)
            q = random_psd(rng, p_dim)
            r = rng.standard_normal((p_dim, p_dim)) * float(rng.uniform(0.1, 100.0))
            gamma = float(rng.uniform(1e-3, 4.0))
            x = solve_pxq(p, q, r, gamma)
            residual = np.linalg.norm(p @ x @ q + gamma * x - r)
            assert residual <= 1e-9 * max(1.0, np.linalg.norm(r))

    def test_zero_operators_reduce_to_scaling(self):
        r = np.arange(9, dtype=float).reshape(3, 3)
        x = solve_pxq(np.zeros((3, 3)), np.zeros((3, 3)), r, 2.0)
        assert_allclose(x, r / 2.0, rtol=1e-14)

    def test_rejects_bad_gamma_and_shapes(self):
        eye = np.eye(2)
        with pytest.raises(InvalidInputError):
            solve_pxq(eye, eye, eye, 0.0)
        with pytest.raises(InvalidInputError):
            solve_pxq(eye, eye, np.eye(3), 1.0)
        with pytest.raises(InvalidInputError):
            solve_pxq(eye, eye, np.full((2, 2), np.inf), 1.0)
        with pytest.raises(InvalidInputError):
            solve_pxq(eye, np.eye(3), eye, 1.0)

    def test_indefinite_operand_raises_not_psd_naming_it(self):
        # it returned an all-NaN X for Q = -I, whose weights 1 / (d_i e_j + gamma) divide by 0
        eye = np.eye(3)
        with pytest.raises(NotPsdError, match="^Q must be positive semidefinite"):
            solve_pxq(eye, -eye, eye, 1.0)
        with pytest.raises(NotPsdError, match="^P must be positive semidefinite"):
            solve_pxq(np.diag([1.0, -2.0, 1.0]), eye, eye, 1.0)


class TestPxqSolverTakesRootEigenpairs:
    def test_only_an_unchanged_root_skips_eigh(self, monkeypatch):
        # under an identity whitener a factor is the PSD root sqrt_psd built,
        # whose eigenpairs the factor pair takes and builds PxqSolver from; a
        # factor or a root changed in place after it was built, and a factor
        # from a dense sigma, are decomposed afresh
        rng = np.random.default_rng(12)
        p = 9
        y = rng.standard_normal((40, p))
        fresh = precision_factor(y, np.eye(p))
        mutated = precision_factor(rng.standard_normal((40, p)), np.eye(p))
        mutated *= 1.5
        mutated_root = sqrt_psd(random_psd(rng, p))
        mutated_root[0, 0] += 1.0
        dense = precision_factor(y, random_pd(rng, p))
        r = rng.standard_normal((p, p))
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for factor, decompositions in ((fresh, 0), (mutated, 2), (mutated_root, 2), (dense, 2)):
            calls.clear()
            x = PxqSolver(*_FactorPair(factor, factor).eigenpairs, 0.3).solve(r)
            assert len(calls) == decompositions
            assert_allclose(x, solve_pxq(factor, factor, r, 0.3), rtol=0, atol=1e-12)
            assert_allclose(x, kron_solve_pxq(factor, factor, r, 0.3), rtol=0, atol=1e-10)


class TestPxqSolverPrecision:
    def test_float32_solver_writes_out_without_allocating(self):
        # the solver casts its eigenvectors and weights and allocates its
        # scratch when built, so even its first call with out allocates no
        # p x p array
        rng = np.random.default_rng(14)
        p = 40
        eigenpairs = _FactorPair(random_pd(rng, p), random_pd(rng, p)).eigenpairs
        r = rng.standard_normal((p, p))
        solver = PxqSolver(*eigenpairs, 0.3, np.float32)
        r32, out = r.astype(np.float32), np.empty((p, p), np.float32)
        tracemalloc.start()
        try:
            got = solver.solve(r32, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got is out and peak < out.nbytes
        exact = PxqSolver(*eigenpairs, 0.3).solve(r)
        assert exact.dtype == np.float64
        assert_allclose(got, exact, rtol=0, atol=1e-5 * np.max(np.abs(exact)))


class TestInverseGeometricMean:
    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(12)
        for p_dim, rank in ((1, 1), (6, 6), (12, 12), (12, 7)):
            p, q = random_psd(rng, p_dim, rank), random_psd(rng, p_dim, rank)
            pair = _FactorPair(p, q)
            g, scale = inverse_geometric_mean(*pair.joint_diagonalizer), pair.scale
            assert np.array_equal(g, g.T)
            assert np.linalg.eigvalsh(g)[0] > 0.0
            lmax = np.linalg.eigvalsh(p)[-1] * np.linalg.eigvalsh(q)[-1]
            assert scale == pytest.approx(lmax, rel=1e-12)

    def test_inverse_is_the_geometric_mean(self):
        # P # Q is the only positive definite H with H P^-1 H = Q
        rng = np.random.default_rng(13)
        p, q = random_pd(rng, 10), random_pd(rng, 10)
        g = inverse_geometric_mean(*_FactorPair(p, q).joint_diagonalizer)
        h = np.linalg.inv(g)
        assert_allclose(h @ np.linalg.solve(p, h), q, atol=1e-10)

    def test_zero_factors_give_a_finite_preconditioner(self):
        # every eigenvalue is null, so none is left to raise the others to;
        # raising them to 0 divided by zero and left eigh a NaN matrix
        zero = np.zeros((4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = inverse_geometric_mean(*_FactorPair(zero, zero).joint_diagonalizer)
        assert_allclose(g, np.eye(4), atol=1e-12)


class TestSoftThreshold:
    def test_scalar_oracle(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 6)) * 2
        lam = 0.7
        out = soft_threshold(a, lam)
        for i in range(6):
            for j in range(6):
                v = a[i, j]
                expected = np.sign(v) * max(abs(v) - lam, 0.0)
                assert out[i, j] == pytest.approx(expected)

    def test_contraction_and_zero_preservation(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5))
        a[0, 0] = 0.0
        out = soft_threshold(a, 0.3)
        assert np.all(np.abs(out) <= np.abs(a) + 1e-15)
        assert out[0, 0] == 0.0

    def test_lambda_zero_is_identity(self):
        a = np.array([[1.5, -2.0], [0.0, 0.25]])
        assert_allclose(soft_threshold(a, 0.0), a, rtol=0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(InvalidInputError):
            soft_threshold(np.eye(2), -0.1)


class TestVecUnvec:
    def test_column_stacking_order(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(a), np.array([1.0, 2.0, 3.0, 4.0]))


class TestOffDiagonalL1:
    def test_loop_oracle(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((7, 7))
        expected = sum(
            abs(a[i, j]) for i in range(7) for j in range(7) if i != j
        )
        assert off_diagonal_l1(a) == pytest.approx(expected)

    def test_diagonal_matrix_is_zero(self):
        assert off_diagonal_l1(np.diag([4.0, -2.0, 1.0])) == 0.0
