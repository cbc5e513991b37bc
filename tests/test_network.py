"""Tests for graph construction, Laplacians, grounding, and generators."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lapdiff.cli import build_parser, cmd_gen
from lapdiff.errors import (
    InvalidInputError,
    NearSingularScenarioError,
    ReductionError,
    SingularMatrixError,
)
from lapdiff.estimator import exact_delta, plugin_delta
from lapdiff.matpower import case_laplacian, load_case118
from lapdiff.network import (
    NetworkScenario,
    WeightedGraph,
    assemble_scenario,
    lattice_delta,
    lattice_edges,
    laplacian_from_graph,
    random_base_matrix,
    reduce_ground_node,
)
from lapdiff.sampling import precision_factor, sample_potentials


class TestWeightedGraph:
    def test_merges_parallel_edges(self):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.5), (1, 2, 0.5)))
        assert g.edges == ((0, 1, 3.5), (1, 2, 0.5))
        assert g.edge_count == 2

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            WeightedGraph(2, ((1, 1, 1.0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            WeightedGraph(2, ((0, 2, 1.0),))

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidInputError):
            WeightedGraph(2, ((0, 1, -1.0),))


class TestLaplacian:
    def test_path_graph_known_matrix(self):
        g = WeightedGraph(3, ((0, 1, 2.0), (1, 2, 3.0)))
        lap = laplacian_from_graph(g)
        expected = np.array([[2.0, -2.0, 0.0], [-2.0, 5.0, -3.0], [0.0, -3.0, 3.0]])
        assert_allclose(lap, expected, rtol=0)

    def test_row_sums_zero_and_psd(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(2, 12))
            edges = []
            for i in range(n - 1):
                edges.append((i, i + 1, float(rng.uniform(0.1, 3.0))))
            for _ in range(n):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    edges.append((int(i), int(j), float(rng.uniform(0.0, 2.0))))
            lap = laplacian_from_graph(WeightedGraph(n, tuple(edges)))
            assert_allclose(lap.sum(axis=1), np.zeros(n), atol=1e-12)
            assert np.linalg.eigvalsh(lap)[0] >= -1e-12
            assert_allclose(lap, lap.T, rtol=0)


class TestReduceGroundNode:
    def test_delete_is_principal_submatrix(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 0.5)))
        lap = laplacian_from_graph(g)
        red = reduce_ground_node(lap, 1)
        keep = [0, 2, 3]
        assert_allclose(red, lap[np.ix_(keep, keep)], rtol=0)
        assert np.linalg.eigvalsh(red)[0] > 0

    def test_disconnected_raises(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        lap = laplacian_from_graph(g)
        with pytest.raises(ReductionError):
            reduce_ground_node(lap, 0)

    # the floor is relative to the largest eigenvalue, so the verdict does not
    # depend on the weights' scale; an absolute 1e-12 rejected the 118-bus case
    # (condition number 2.9e3) at every scale from about 1e-12 down
    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-13, 2.0**-40, 2.0**-600, 1e12])
    def test_connected_case_reduces_at_any_scale(self, scale):
        lap, ground = case_laplacian(load_case118(), "dc")
        reduced = reduce_ground_node(lap * scale, ground)
        assert_allclose(reduced, reduce_ground_node(lap, ground) * scale, rtol=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12, 2.0**-600])
    def test_disconnected_raises_at_any_scale(self, scale):
        lap = laplacian_from_graph(WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))))
        with pytest.raises(ReductionError, match="likely disconnected"):
            reduce_ground_node(lap * scale, 0)

    def test_bad_arguments(self):
        lap = laplacian_from_graph(WeightedGraph(2, ((0, 1, 1.0),)))
        with pytest.raises(InvalidInputError):
            reduce_ground_node(lap, 5)


class TestLatticeEdges:
    def test_square_grid_edge_count(self):
        for k in (2, 3, 8):
            p = k * k
            edges = lattice_edges(p)
            assert len(edges) == 2 * k * (k - 1)

    def test_connected_for_awkward_sizes(self):
        for p in (2, 5, 7, 60, 117):
            edges = lattice_edges(p)
            adj = {i: set() for i in range(p)}
            for i, j in edges:
                adj[i].add(j)
                adj[j].add(i)
            seen = {0}
            stack = [0]
            while stack:
                node = stack.pop()
                for nbr in adj[node]:
                    if nbr not in seen:
                        seen.add(nbr)
                        stack.append(nbr)
            assert len(seen) == p

    def test_max_degree_four(self):
        for p in (16, 60, 117):
            degree = np.zeros(p, dtype=int)
            for i, j in lattice_edges(p):
                degree[i] += 1
                degree[j] += 1
            assert degree.max() == 4


class TestGridDelta:
    """lattice_delta on square p: the k x k grid that `lapdiff gen` draws."""

    def test_support_is_grid_and_diagonal_rule(self):
        p = 16
        delta = lattice_delta(p, seed=3)
        assert_allclose(delta, delta.T, rtol=0)
        edges = set(lattice_edges(p))
        for i in range(p):
            row_abs = 0.0
            for j in range(p):
                if i == j:
                    continue
                key = (min(i, j), max(i, j))
                if key in edges:
                    assert 0.4 <= abs(delta[i, j]) <= 1.0
                else:
                    assert delta[i, j] == 0.0
                row_abs += abs(delta[i, j])
            assert delta[i, i] == pytest.approx(row_abs + 0.1)

    def test_rejects_non_square(self, tmp_path):
        # the p = k*k grid check lives in `lapdiff gen`; it fails before any draw
        for p in ("15", "1"):
            args = build_parser().parse_args(["gen", "--p", p, "--out", str(tmp_path)])
            with pytest.raises(InvalidInputError):
                cmd_gen(args)
        assert not any(tmp_path.iterdir())

    def test_positive_mode_and_determinism(self):
        a = lattice_delta(25, sign_mode="positive", seed=9)
        off = a[~np.eye(25, dtype=bool)]
        assert np.all(off[off != 0] > 0)
        b = lattice_delta(25, sign_mode="positive", seed=9)
        assert np.array_equal(a, b)
        c = lattice_delta(25, sign_mode="positive", seed=10)
        assert not np.array_equal(a, c)


class TestRandomBaseMatrix:
    def test_diagonally_dominant_pd(self):
        rng = np.random.default_rng(4)
        for trial in range(8):
            p = int(rng.integers(2, 40))
            s = float(rng.uniform(0.1, 1.0))
            margin = float(rng.uniform(0.2, 1.0))
            b = random_base_matrix(p, s, margin=margin, seed=trial)
            assert_allclose(b, b.T, rtol=0)
            assert np.linalg.eigvalsh(b)[0] >= margin - 1e-9
            off = np.abs(b[~np.eye(p, dtype=bool)])
            nz = off[off > 0]
            if nz.size:
                assert nz.min() >= 0.5 and nz.max() <= 1.0

    def test_density_one_fills_everything(self):
        b = random_base_matrix(6, 1.0, seed=0)
        off = b[~np.eye(6, dtype=bool)]
        assert np.all(off != 0)

    def test_scale_shrinks_off_diagonals_only(self):
        full = random_base_matrix(12, 1.0, margin=0.3, seed=7)
        small = random_base_matrix(12, 1.0, margin=0.3, scale=0.01, seed=7)
        off = ~np.eye(12, dtype=bool)
        assert_allclose(small[off], full[off] * 0.01, rtol=1e-12)
        # diagonal stays margin plus the (scaled) absolute row sums
        assert_allclose(np.diag(small), np.abs(small).sum(axis=1) - np.diag(np.abs(small)) + 0.3)
        assert np.linalg.eigvalsh(small)[0] >= 0.3 - 1e-9

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            random_base_matrix(5, 0.0)
        with pytest.raises(InvalidInputError):
            random_base_matrix(5, 0.5, margin=0.0)
        with pytest.raises(InvalidInputError):
            random_base_matrix(5, 0.5, scale=0.0)

    def test_scale_whose_spectrum_overflows_names_scale_and_margin(self):
        # the diagonal was finite but the largest eigenvalue overflowed, so the
        # scenario check's relative floor was inf and called the base near singular
        with pytest.raises(InvalidInputError, match=r"at scale 2e\+307 and margin 0.5"):
            random_base_matrix(9, 1.0, scale=2e307)
        b = random_base_matrix(9, 1.0, scale=1e307)
        assert np.isfinite(np.linalg.eigvalsh(b)).all()


class TestAssembleScenario:
    def test_b2_exact_sum(self):
        b1 = random_base_matrix(10, 0.4, seed=1)
        delta = lattice_delta(9, seed=2)
        # shapes differ on purpose: must raise
        with pytest.raises(InvalidInputError):
            assemble_scenario(b1, delta, np.eye(10), np.eye(10))
        delta = lattice_delta(10, seed=2)
        scen = assemble_scenario(b1, delta, np.eye(10), 2.0 * np.eye(10), seed=5)
        assert isinstance(scen, NetworkScenario)
        assert np.array_equal(scen.b2, scen.b1 + scen.delta_true)
        assert scen.seed == 5 and scen.p == 10

    @pytest.mark.parametrize(
        "b1, delta, name",
        [
            (np.array([[1.0, 0.9], [0.9, 1.0]]) * 1e308, np.zeros((2, 2)), "b1"),
            (np.array([[1.0, 0.9], [0.9, 1.0]]) * 5e307, np.array([[1.0, 0.9], [0.9, 1.0]]) * 5e307, "b2"),
        ],
        ids=["b1", "b2"],
    )
    def test_spectrum_past_float64_range_is_invalid_input(self, b1, delta, name):
        # finite entries whose largest eigenvalue overflows: the relative floor
        # was inf, and the report called the matrix near singular
        with pytest.raises(InvalidInputError, match=f"^{name} has an eigenvalue past float64's range"):
            assemble_scenario(b1, delta, np.eye(2), np.eye(2))

    def test_b2_whose_entries_overflow_is_invalid_input(self):
        # b2 = b1 + delta overflowed to inf with a numpy warning before it was checked
        delta = np.diag([1e308, 1e308, 0.0])
        with pytest.raises(InvalidInputError, match="^b2 = b1 \\+ delta has entries past float64's range"):
            assemble_scenario(1e308 * np.eye(3), delta, np.eye(3), np.eye(3))

    def test_near_singular_rejected(self):
        b1 = np.eye(3)
        delta = -np.eye(3) * (1.0 - 1e-9)
        with pytest.raises(NearSingularScenarioError):
            assemble_scenario(b1, delta, np.eye(3), np.eye(3))

    def test_relative_floor_of_sampling_enforced(self):
        # run_instance samples b1 and b2 without checking them again, so the
        # scenario enforces sample_potentials' relative floor, 1e-10 x 1e5 here
        sigma = np.eye(2)
        with pytest.raises(NearSingularScenarioError):
            assemble_scenario(np.diag([1e5, 5e-6]), np.zeros((2, 2)), sigma, sigma)
        with pytest.raises(SingularMatrixError):
            sample_potentials(np.diag([1e5, 5e-6]), sigma, 10)
        scenario = assemble_scenario(np.diag([1e5, 2e-5]), np.zeros((2, 2)), sigma, sigma)
        assert sample_potentials(scenario.b1, sigma, 10).shape == (10, 2)

    def test_eigvalsh_only_for_b_and_dense_sigma(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        b1, delta = random_base_matrix(5, 1.0, seed=1), lattice_delta(5, seed=2)
        assemble_scenario(b1, delta, np.diag([1.0, 2.0, 0.5, 1.0, 3.0]), np.eye(5))
        assert len(calls) == 2
        dense = random_base_matrix(5, 1.0, seed=3)
        assemble_scenario(b1, delta, dense, np.eye(5))
        assert len(calls) == 5

    def test_bad_sigma_rejected(self):
        b1 = np.eye(3)
        with pytest.raises(InvalidInputError):
            assemble_scenario(b1, np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0]), np.eye(3))
        with pytest.raises(InvalidInputError, match="min eig -1.000e"):
            assemble_scenario(b1, np.zeros((3, 3)), np.eye(3), np.diag([2.0, -1.0, 1.0]))

    def test_sigma_message_states_its_floor(self):
        # 1 is positive but at or below 1e-10 times the largest eigenvalue, 1e12
        with pytest.raises(InvalidInputError, match=r"min eig 1\.000e\+00 <= 1\.000e\+02\)"):
            assemble_scenario(np.eye(2), np.zeros((2, 2)), np.diag([1.0, 1e12]), np.eye(2))

    @pytest.mark.parametrize("k", [-600, -60, 0, 60])
    def test_any_sigma_scale_gives_the_same_estimates(self, k):
        # the floors were an absolute 1e-10 below scale 1, so sigmas scaled
        # by 2^-60 or 2^-600 were "not positive definite"; below about
        # 2^-512 the whitened covariances underflowed too. Scaling both
        # sigmas by one number changes no factor or plug-in estimate. At
        # 2^600 the whitened covariance overflows, which has its own error.
        rng = np.random.default_rng(4)
        m = rng.standard_normal((9, 9))
        sigmas = [m @ m.T / 9 + 0.5 * np.eye(9), np.diag(rng.uniform(1.0, 2.0, 9))]
        b1, delta = random_base_matrix(9, 0.5, seed=1), lattice_delta(9, seed=2)

        def estimates(scale):
            scenario = assemble_scenario(b1, delta, *(scale * s for s in sigmas))
            pairs = [(scenario.b1, scenario.sigma_x1), (scenario.b2, scenario.sigma_x2)]
            ys = [sample_potentials(b, sigma, 40, seed=3) for b, sigma in pairs]
            factors = [precision_factor(y, sigma) for y, (_, sigma) in zip(ys, pairs)]
            plugin = plugin_delta(*ys, scenario.sigma_x1, scenario.sigma_x2)
            exact = exact_delta(scenario.b1, scenario.b2, scenario.sigma_x1, scenario.sigma_x2)
            return [*factors, plugin, exact]

        for got, expected in zip(estimates(2.0**k), estimates(1.0)):
            assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    def test_subnormal_sigma_is_not_positive_definite(self):
        # both eigenvalues are below float64's smallest normal number, where
        # 1e-10 times the largest underflows and would pass the smallest
        with pytest.raises(InvalidInputError, match=r"min eig 1\.000e-313 <= 2\.225e-308\)"):
            assemble_scenario(np.eye(2), np.zeros((2, 2)), np.diag([1e-313, 2e-313]), np.eye(2))
