"""Weighted graphs, their Laplacians, and synthetic problem generators.

Conventions: a Laplacian here has nonnegative diagonal, entry (i, j) equal
to minus the edge weight for i != j, and zero row sums, so it is positive
semidefinite with the all-ones vector in its kernel. Grounding a reference
node produces the positive definite reduced matrix the estimators work on.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NearSingularScenarioError, ReductionError, SingularMatrixError
from .linalg import _classify, _eigvalsh, as_symmetric

__all__ = [
    "NetworkScenario",
    "WeightedGraph",
    "assemble_scenario",
    "laplacian_from_graph",
    "lattice_delta",
    "random_base_matrix",
    "reduce_ground_node",
]

# Constant added to the absolute row sums when building diagonals of
# synthetic difference matrices; keeps them nonsingular without dominating.
DELTA_DIAGONAL_SHIFT = 0.1

# Matrices in an assembled scenario must keep all eigenvalue magnitudes
# above this, or sampling from the implied covariance is meaningless.
SCENARIO_MIN_EIG = 1e-6

# The sign modes of lattice_delta's weights.
SIGN_MODES = ("mixed", "positive")

# Largest diagonal entry a generated matrix may have. Each generator builds a
# diagonally dominant matrix, whose eigenvalues are at most twice its largest
# diagonal entry (Gershgorin), so they stay finite, and so do the entries of
# b2 = b1 + delta.
MAX_DIAGONAL = float(np.finfo(float).max) / 2


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on nodes 0 .. node_count - 1.

    Edges are (i, j, weight) triples. Construction validates indices,
    forbids self-loops and negative weights, merges parallel edges by
    summing their weights, and stores the result sorted by node pair.
    """

    node_count: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.node_count < 1:
            raise InvalidInputError(f"node_count must be >= 1, got {self.node_count}")
        merged = {}
        for edge in self.edges:
            try:
                i, j, w = edge
            except (TypeError, ValueError):
                raise InvalidInputError(f"edge must be an (i, j, weight) triple, got {edge!r}")
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise InvalidInputError(f"self-loop on node {i} is not allowed")
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise InvalidInputError(
                    f"edge ({i}, {j}) out of range for {self.node_count} nodes"
                )
            if not math.isfinite(w) or w < 0:
                raise InvalidInputError(f"edge ({i}, {j}) has invalid weight {w!r}")
            key = (min(i, j), max(i, j))
            merged[key] = merged.get(key, 0.0) + w
        canon = tuple((i, j, w) for (i, j), w in sorted(merged.items()))
        object.__setattr__(self, "edges", canon)

    @property
    def edge_count(self):
        return len(self.edges)


def laplacian_from_graph(graph):
    """Dense Laplacian of a weighted graph: zero row sums, PSD."""
    if not isinstance(graph, WeightedGraph):
        raise InvalidInputError(f"expected a WeightedGraph, got {type(graph).__name__}")
    n = graph.node_count
    lap = np.zeros((n, n))
    for i, j, w in graph.edges:
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def reduce_ground_node(laplacian, ground):
    """Ground one node of a Laplacian, returning a (p-1) x (p-1) matrix.

    Removes the ground node's row and column (the standard grounded
    Laplacian; PD exactly when the graph is connected).

    Raises
    ------
    ReductionError
        If the reduced matrix is not positive definite (linalg._classify,
        whose verdict does not depend on the weights' scale), which means
        the graph is disconnected.
    """
    lap = as_symmetric(laplacian)
    n = lap.shape[0]
    if not isinstance(ground, (int, np.integer)) or not (0 <= ground < n):
        raise InvalidInputError(f"ground node {ground!r} out of range for size {n}")
    if n == 1:
        raise InvalidInputError("cannot reduce a 1 x 1 Laplacian")
    keep = np.array([k for k in range(n) if k != ground])
    reduced = lap[np.ix_(keep, keep)]
    reduced = (reduced + reduced.T) / 2.0
    try:
        _classify(np.linalg.eigvalsh(reduced), "reduced matrix", "definite")
    except SingularMatrixError as err:
        raise ReductionError(f"{err}; the graph is likely disconnected") from None
    return reduced


def lattice_edges(p):
    """Edge list of the truncated square lattice on p nodes.

    Nodes are laid out row by row on a grid ceil(sqrt(p)) columns wide; each
    node connects to its right and lower neighbor when those exist. For a
    perfect square p this is the standard 4-neighbor grid. Deterministic and
    connected for every p >= 2; maximum degree 4 once the lattice has at
    least three rows and columns.
    """
    if p < 2:
        raise InvalidInputError(f"lattice needs at least 2 nodes, got {p}")
    cols = math.isqrt(p)
    if cols * cols < p:
        cols += 1
    edges = []
    for i in range(p):
        if (i % cols) != cols - 1 and i + 1 < p:
            edges.append((i, i + 1))
        if i + cols < p:
            edges.append((i, i + cols))
    return edges


def lattice_delta(p, weight_range=(0.4, 1.0), sign_mode="mixed", seed=0):
    """Sparse symmetric difference matrix supported on a truncated lattice.

    Off-diagonal entries on lattice edges get weights drawn uniformly from
    weight_range (with random signs under sign_mode="mixed"); each diagonal
    entry is its row's absolute off-diagonal sum plus 0.1. Raises
    InvalidInputError when a diagonal entry passes MAX_DIAGONAL.
    """
    edges = lattice_edges(p)
    lo, hi = _check_lattice_settings(weight_range, sign_mode)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(lo, hi, size=len(edges))
    if sign_mode == "mixed":
        weights *= rng.choice([-1.0, 1.0], size=len(edges))
    delta = np.zeros((p, p))
    for (i, j), w in zip(edges, weights):
        delta[i, j] = w
        delta[j, i] = w
    _fill_finite_diagonal(
        delta, DELTA_DIAGONAL_SHIFT, "difference", f"weight_range {tuple(weight_range)}"
    )
    return delta


def random_base_matrix(p, density, margin=0.5, scale=1.0, seed=0):
    """Random symmetric positive definite base matrix.

    Each off-diagonal pair (i, j), i < j, is nonzero independently with
    probability `density`, with magnitude uniform in [0.5, 1.0] times
    `scale` and random sign. Diagonal entries are the absolute row sums
    plus `margin`, which makes the matrix strictly diagonally dominant,
    hence positive definite with smallest eigenvalue at least `margin`.

    `scale` controls how large the off-diagonal couplings are relative to
    the diagonal. At scale 1.0 a dense matrix has operator norm growing
    linearly with p; small scales keep the norm near `margin`, which is
    the regime where a fixed-magnitude difference between two such
    matrices remains statistically visible at moderate sample sizes.
    Raises InvalidInputError when a diagonal entry passes MAX_DIAGONAL.
    """
    if p < 1:
        raise InvalidInputError(f"p must be >= 1, got {p}")
    _check_base_settings(density, margin, scale)
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(p, k=1)
    present = rng.random(rows.size) < density
    magnitudes = rng.uniform(0.5, 1.0, size=rows.size) * scale
    signs = rng.choice([-1.0, 1.0], size=rows.size)
    base = np.zeros((p, p))
    vals = np.where(present, signs * magnitudes, 0.0)
    base[rows, cols] = vals
    base[cols, rows] = vals
    _fill_finite_diagonal(base, margin, "base matrix", f"scale {scale} and margin {margin}")
    return base


def _check_positive(name, value):
    if not (0 < value < math.inf):
        raise InvalidInputError(f"{name} must be positive and finite, got {value}")


def _check_range(name, value_range):
    """value_range as floats (lo, hi); raises InvalidInputError unless 0 < lo <= hi < inf."""
    lo, hi = map(float, value_range)
    if not (0 < lo <= hi < math.inf):
        raise InvalidInputError(f"{name} must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")
    return lo, hi


def _check_lattice_settings(weight_range, sign_mode):
    """lattice_delta's check of its settings, which GridDeltaSpec makes too; returns (lo, hi)."""
    if sign_mode not in SIGN_MODES:
        raise InvalidInputError(f"unknown sign_mode {sign_mode!r}; use one of {SIGN_MODES}")
    return _check_range("weight_range", weight_range)


def _check_base_settings(density, margin, scale):
    """random_base_matrix's check of its settings, which RandomBaseSpec makes too."""
    if not (0 < density <= 1):
        raise InvalidInputError(f"density must lie in (0, 1], got {density}")
    _check_positive("margin", margin)
    _check_positive("scale", scale)


def _check_diagonal(diagonal, name, settings):
    """Raise InvalidInputError when a diagonally dominant matrix's diagonal passes MAX_DIAGONAL."""
    top = float(np.max(diagonal))
    if not top <= MAX_DIAGONAL:
        p = len(diagonal)
        raise InvalidInputError(
            f"the diagonal of the {p} x {p} {name} reaches {top:.3e} at {settings}, "
            f"past {MAX_DIAGONAL:.3e}, where its eigenvalues could overflow"
        )


def _fill_finite_diagonal(mat, shift, name, settings):
    """Set mat's diagonal to its absolute row sums plus shift; raise past MAX_DIAGONAL."""
    with np.errstate(over="ignore"):
        diagonal = np.sum(np.abs(mat), axis=1) + shift
    _check_diagonal(diagonal, name, settings)
    np.fill_diagonal(mat, diagonal)


@dataclass(frozen=True)
class NetworkScenario:
    """A fully specified two-regime ground truth.

    b2 equals b1 + delta_true exactly; both are symmetric and nonsingular
    (linalg._classify), the check sample_potentials makes, with every
    eigenvalue magnitude above SCENARIO_MIN_EIG too, so run_instance samples
    them without checking again. sigma_x1 and sigma_x2 are the positive
    definite injection covariances of the two regimes, and seed keys every
    random draw made on the scenario's behalf.
    """

    b1: np.ndarray
    b2: np.ndarray
    delta_true: np.ndarray
    sigma_x1: np.ndarray
    sigma_x2: np.ndarray
    seed: int = 0

    @property
    def p(self):
        return self.b1.shape[0]


def assemble_scenario(b1, delta, sigma_x1, sigma_x2, seed=0):
    """Validate the pieces of a two-regime scenario and bundle them.

    One eigenvalue computation per matrix does every check; a diagonal
    covariance is checked from its diagonal.

    Raises
    ------
    InvalidInputError
        On shape mismatches, covariances that are not positive definite
        (linalg._classify), a b2 = b1 + delta whose entries overflow, or a b1
        or b2 with an eigenvalue past float64's range.
    NearSingularScenarioError
        If b1 or b2 = b1 + delta is not nonsingular (linalg._classify), the
        check of sample_potentials, or has an eigenvalue of magnitude <= 1e-6.
    """
    b1 = as_symmetric(b1)
    _check_nonsingular("b1", b1)
    return _assemble_on_checked_base(
        b1, as_symmetric(delta), as_symmetric(sigma_x1), as_symmetric(sigma_x2), seed
    )


def _check_nonsingular(name, mat):
    """Raise NearSingularScenarioError unless mat is nonsingular and clear of SCENARIO_MIN_EIG.

    Nonsingular is linalg._classify's verdict; every eigenvalue magnitude
    must also be above SCENARIO_MIN_EIG.
    """
    values = np.linalg.eigvalsh(mat)
    _classify(values, name, "nonsingular", NearSingularScenarioError)
    margin = float(np.abs(values).min())
    if margin <= SCENARIO_MIN_EIG:
        raise NearSingularScenarioError(
            f"{name} is too close to singular (min |eig| {margin:.3e} <= {SCENARIO_MIN_EIG:.3e})"
        )


def _assemble_on_checked_base(b1, delta, sigma_x1, sigma_x2, seed):
    """assemble_scenario for a symmetric b1 that already passed _check_nonsingular.

    delta and the sigmas are exactly symmetric and finite, as as_symmetric
    or the generators of a sweep's draw leave them. A base shared by many
    scenarios (MatpowerBaseSpec.matrix) is checked once, when it is built,
    so each scenario checks only b2.
    """
    p = b1.shape[0]
    for name, mat in (("delta", delta), ("sigma_x1", sigma_x1), ("sigma_x2", sigma_x2)):
        if mat.shape != (p, p):
            raise InvalidInputError(f"{name} has shape {mat.shape}, expected {(p, p)}")
    for name, sigma in (("sigma_x1", sigma_x1), ("sigma_x2", sigma_x2)):
        _classify(_eigvalsh(sigma), name, "definite", InvalidInputError)
    with np.errstate(over="ignore"):  # reported below by name, not by a numpy warning
        b2 = b1 + delta
    if not np.all(np.isfinite(b2)):
        raise InvalidInputError("b2 = b1 + delta has entries past float64's range")
    _check_nonsingular("b2", b2)
    return NetworkScenario(
        b1=b1, b2=b2, delta_true=delta, sigma_x1=sigma_x1, sigma_x2=sigma_x2, seed=int(seed)
    )
