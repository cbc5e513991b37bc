"""Core difference estimation: quadratic trace loss, ADMM solver, exact
identity, plug-in baseline, and the uniqueness diagnostic.

All estimators target delta = b2 - b1, the difference of the two symmetric
system matrices, using only square-root precision factors built from node
potentials (see sampling.precision_factor).
"""

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidInputError,
    NotPsdError,
    PluginUndefinedError,
    SingularMatrixError,
    SolverDivergedError,
    UnboundedProblemError,
)
from .linalg import (
    EIG_RELATIVE_FLOOR,
    PxqSolver,
    _classify,
    _congruence,
    _eigenpairs,
    _eigvalsh,
    _preconditioner_eigenvalues,
    _soft_threshold_into,
    as_symmetric,
    inv_sqrt_pd,
    inverse_geometric_mean,
    off_diagonal_l1,
)
from .sampling import _at_sample_scale, _whitened, sample_covariance

__all__ = [
    "DeltaEstimate",
    "SolverConfig",
    "UniquenessReport",
    "dtrace_loss",
    "estimate_delta",
    "exact_delta",
    "penalized_objective",
    "plugin_delta",
    "uniqueness_check",
]

# Relative margin by which a recession direction's objective slope must be
# negative before a solve declares the problem unbounded.
UNBOUNDED_MARGIN = 1e-6

# Over-relaxation factor of run_admm's d-step; 1 is plain ADMM.
ADMM_RELAXATION = 1.5

# Every POLISH_CHECK iterations run_admm compares the off-diagonal sign pattern
# of z with the one at the previous check, starting from the zero pattern of
# z's zero start. It tries a polish once at most a POLISH_SETTLED fraction of
# those signs changed, and more than that fraction differ from the pattern of
# the last attempt, if there was one.
POLISH_CHECK = 10
POLISH_SETTLED = 0.01

# Active-set repair rounds after a polish's first solve on the support.
POLISH_ROUNDS = 6

# A polish round first solves its support to this fraction of the round's
# initial max |r|, and solves to the KKT tolerance only once the support
# passed the KKT certificate's flip and outside-support test.
POLISH_LOOSE = 1e-3

# p x p GEMMs of one CG step of a polish, on either side of its support: a
# primal step (_cg_on_support) makes two for the operator and two for the
# preconditioner, a complement step (_cg_on_complement) four for the exact
# inverse, and a complement call counts its first inverse product as a step.
# An ADMM iteration costs four too, and all polish attempts of a run share a
# budget of max_iter GEMMs, so a run that never polishes does at most a
# quarter more GEMMs than its iterations.
CG_STEP_GEMMS = 4

# The complement CG checks the KKT residual on S that zeroing X_C leaves (two
# GEMMs) only once lmax(P1) lmax(P2) max |X_C| <= COMPLEMENT_SLACK times its
# target. On the power cells that residual was 0.005-0.03 times
# lmax(P1) lmax(P2) max |X_C|, so the first check mostly passes.
COMPLEMENT_SLACK = 30.0

# KKT tolerance of an accepted polish, relative to max |P1 - P2|.
POLISH_TOL = 1e-9

# run_admm searches in float32 only while the d-step penalty sigma and the
# operator scale lmax(P1) lmax(P2) lie within this factor of 1, and the shrink
# threshold and max |P1 - P2| below it. 2^96 is about 8e28, ten decades inside
# float32's range (1e-38 to 3e38), room for the squares CG forms.
FLOAT32_SPAN = 2.0**96

# The scale of default_lambda's penalty, for sweeps and `lapdiff estimate` alike.
DEFAULT_LAMBDA_SCALE = 0.5


@dataclass
class SolverConfig:
    """Parameters of the ADMM solver for the penalized difference problem.

    lam is the l1 penalty weight; rho sets run_admm's augmented-Lagrangian
    penalty 4 rho, and with it the shrink threshold lam / (4 rho), both of
    which must be finite; run_admm stops when the KKT certificate accepts
    a polish or at max_iter. The penalty falls on the off-diagonal entries
    only. These defaults, and default_lambda's DEFAULT_LAMBDA_SCALE, are the
    package's only solver defaults; the sweep config and the command line
    take theirs from here.
    """

    lam: float
    rho: float = 0.001
    max_iter: int = 20000

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InvalidInputError(f"lam must be a finite nonnegative real, got {self.lam!r}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise InvalidInputError(f"rho must be a finite positive real, got {self.rho!r}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise InvalidInputError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        self.max_iter = int(self.max_iter)
        if not (math.isfinite(4.0 * self.rho) and math.isfinite(self.lam / (4.0 * self.rho))):
            raise InvalidInputError(
                f"4 rho and lam / (4 rho) must be finite, got lam = {self.lam!r}, rho = {self.rho!r}"
            )


def default_lambda(p, n, lambda_scale=DEFAULT_LAMBDA_SCALE):
    """The default penalty lambda_scale * sqrt(log p / n) for n observations at dimension p."""
    return lambda_scale * math.sqrt(math.log(p) / n)


@dataclass
class DeltaEstimate:
    """A difference estimate and the bookkeeping of the solve that made it.

    delta is the symmetric estimate, float64, and objective the penalized
    objective there; the copy a sweep row carries (SweepRow.solve) has
    delta None. stop says why the ADMM loop ended: "polished" (the KKT
    certificate _kkt_check accepted a polish, and delta is it) or
    "max_iter". iterations counts ADMM iterations, cg_steps the CG steps of
    all polish attempts, complement_steps the part of them _cg_on_complement
    took, and attempts the polish attempts. gemms counts every p x p GEMM
    of the ADMM loop and the polish, whatever its precision, but none of the
    one-off setup (the eigh calls and the preconditioner). dtype is the
    search precision, "float32" or "float64" (run_admm).

    The last three fields time the solve's phases in seconds, wall clock.
    polish_s covers the polish attempts, and with them what the factor pair
    builds on first use for the polish: its joint diagonalizer, inverse and
    preconditioner. loop_s covers the rest of the ADMM loop, and setup_s
    the rest of the solve: the pair build, the boundedness pre-check, the
    PxqSolver and the objective. They sum to the solve's time
    (estimate_delta) and are the only fields two runs of one solve may
    differ in.

    What "polished" certifies, and where its one tolerance falls short in a
    badly scaled problem, is _kkt_check's to say.
    """

    delta: np.ndarray
    iterations: int
    objective: float
    stop: str
    cg_steps: int
    complement_steps: int
    attempts: int
    gemms: int
    dtype: str
    setup_s: float
    loop_s: float
    polish_s: float

    @property
    def converged(self):
        """Whether the estimate is KKT-certified: stop == "polished"."""
        return self.stop == "polished"


@dataclass
class UniquenessReport:
    """Outcome of the kernel-based uniqueness diagnostic.

    condition_inner is the largest inner product <V, factor1 - factor2> over
    the unit recession candidates V, and condition_norm their largest
    off-diagonal l1 norm, both 0.0 without a candidate; tau the radius those
    norms are compared against. Both are read from the pair's one recession
    analysis (_FactorPair.recession), which the ADMM pre-check reads too, so
    the two agree on the candidates at every scale of the factors.
    """

    kernel_dim: int
    condition_inner: float
    condition_norm: float
    tau: float
    verdict: str


def _factor_matrix(factor, name):
    try:
        return as_symmetric(factor)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{name}: {exc}") from None


def dtrace_loss(delta, psi1, psi2):
    """Quadratic difference loss 0.25(<P1 D, D P2> + <P2 D, D P1>) - <D, P1 - P2>.

    <A, B> = trace(A B^T). The population minimizer over symmetric D is
    exactly b2 - b1 when the factors are the inverse system matrices. For
    a symmetric D the two inner products are equal, trace(P1 D P2 D) each,
    so one of them is formed, with two GEMMs instead of four.
    """
    p1 = _factor_matrix(psi1, "psi1")
    p2 = _factor_matrix(psi2, "psi2")
    delta = np.asarray(delta, dtype=float)
    if delta.shape != p1.shape or p2.shape != p1.shape:
        raise InvalidInputError(
            f"shape mismatch: delta {delta.shape}, psi1 {p1.shape}, psi2 {p2.shape}"
        )
    linear = np.sum(delta * (p1 - p2))
    if np.array_equal(delta, delta.T):
        return float(0.5 * np.sum((p1 @ delta) * (delta @ p2)) - linear)
    quad = np.sum((p1 @ delta) * (delta @ p2)) + np.sum((p2 @ delta) * (delta @ p1))
    return float(0.25 * quad - linear)


def penalized_objective(delta, psi1, psi2, config):
    """dtrace_loss plus lam times the off-diagonal l1 norm."""
    return dtrace_loss(delta, psi1, psi2) + config.lam * off_diagonal_l1(delta)


class _FactorPair:
    """The factor pair (P1, P2) of a solve or a uniqueness check, built once from (psi1, psi2).

    p1 and p2 are the validated float64 factors, and eigenpairs their
    (values ascending, vectors) from linalg._eigenpairs (no eigh for a kept
    PSD root), checked finite and PSD (linalg._classify) before anything
    divides by them; each error names the factor. nulls are their
    orthonormal null bases, the eigenvectors of the null eigenvalues
    _classify finds (p x 0 when full rank), definite says both are full rank,
    scale = lmax(P1) lmax(P2), diff = P1 - P2, largest = max |diff| and
    tol = POLISH_TOL largest, the KKT tolerance of an accepted polish. The
    recession analysis, the joint diagonalizer and the operators a polish
    applies are built on first use. Everything the pair holds is float64:
    a solve casts what it reads to its search dtype, and the pair holds no
    work array, so one pair serves any number of solves in either dtype.
    """

    def __init__(self, psi1, psi2):
        self.p1 = _factor_matrix(psi1, "psi1")
        self.p2 = _factor_matrix(psi2, "psi2")
        if self.p2.shape != self.p1.shape:
            raise InvalidInputError(f"factor shapes differ: {self.p1.shape} vs {self.p2.shape}")
        self.eigenpairs, self.nulls = [], []
        for name, factor in (("psi1", self.p1), ("psi2", self.p2)):
            values, vectors = _eigenpairs(factor)
            # finite PSD factors have a finite difference, each entry being at
            # most (lmax(P1) + lmax(P2)) / 2 in size
            self.nulls.append(vectors[:, _classify(values, name, "psd")])
            self.eigenpairs.append((values, vectors))
        self.definite = not any(basis.shape[1] for basis in self.nulls)
        # a product of Python floats overflows to inf without a warning
        self.scale = math.prod(float(values[-1]) for values, _ in self.eigenpairs)
        self.diff = self.p1 - self.p2
        self.largest = float(np.max(np.abs(self.diff)))
        self.tol = POLISH_TOL * self.largest

    @cached_property
    def recession(self):
        """The pair's recession analysis: (candidates, |P1 - P2|_F / max |P1 - P2|).

        A candidate is (name, null dimension, penalty, fall) for each factor Pi
        whose null space is nontrivial. With Ni the projector onto it,
        V1 = -N1 P2 N1 and V2 = N2 P1 N2. Pi Ni = 0 makes both quadratic terms
        of the loss vanish on each, so each lies in the Hessian kernel; each
        maximizes <V, P1 - P2> over {Ni X Ni} at its norm, whichever basis of
        the null space eigh returned. penalty = pen(V) / |V|_F and
        fall = <V, P1 - P2> / (|V|_F max |P1 - P2|) are formed from V and
        P1 - P2 divided by their largest entries, so neither depends on the
        pair's scale or overflows, and lam enters neither. A V with
        max |V| at most EIG_RELATIVE_FLOOR times the other factor's largest
        eigenvalue is rounding, not a direction, and offers no candidate.
        """
        diff = self.diff / (self.largest or 1.0)
        candidates = []
        for name, basis, (other_values, _), other, sign in zip(
            ("psi1", "psi2"), self.nulls, self.eigenpairs[::-1], (self.p2, self.p1), (-1.0, 1.0)
        ):
            if not basis.shape[1]:
                continue
            direction = sign * (basis @ (basis.T @ other @ basis) @ basis.T)
            top = float(np.max(np.abs(direction)))
            if top > EIG_RELATIVE_FLOOR * other_values[-1]:
                direction /= top
                norm = float(np.linalg.norm(direction))
                fall = float(np.sum(direction * diff)) / norm
                candidates.append((name, basis.shape[1], off_diagonal_l1(direction) / norm, fall))
        return candidates, float(np.linalg.norm(diff))

    @cached_property
    def joint_diagonalizer(self):
        """(W, c) with W.T P1 W = I and W.T P2 W = diag(c), c ascending.

        With m = P1^-1/2 and C = m P2 m = V diag(c) V.T, W = m V. The null
        eigenvalues of P1 are raised first (_preconditioner_eigenvalues), so
        W is finite for a singular P1 too, though W.T P1 W = I then holds
        only off P1's null space. c are C's eigenvalues as eigh returns
        them. From (W, c) come both inverse_geometric_mean(W, c) and, when
        both factors are definite, the inverse of X -> P1 X P2 + P2 X P1,
        which maps B to W [(W.T B W) / (c_i + c_j)] W.T.
        """
        (dvals, up), (evals, uq) = self.eigenpairs
        m = (up / np.sqrt(_preconditioner_eigenvalues(dvals))) @ up.T
        root = (m @ uq) * np.sqrt(np.clip(evals, 0.0, None))
        cvals, v = np.linalg.eigh(root @ root.T)
        return m @ v, cvals

    @cached_property
    def preconditioner(self):
        """G = (P1 # P2)^-1, _cg_on_support's preconditioner (see
        linalg.inverse_geometric_mean)."""
        return inverse_geometric_mean(*self.joint_diagonalizer)

    @cached_property
    def inverse(self):
        """(W, weights, jacobi): _apply_inverse's W and weights, and a Jacobi.

        W and c are the joint diagonalization, and the weights
        1 / (2 (c_i + c_j)). The diagonal entry of the inverse at (i, j) is
        sum_kl W_ik W_jl (W_ik W_jl + W_jk W_il) / (c_k + c_l). jacobi is 1
        over its first term, [(W * W) (1 / (c_k + c_l)) (W * W).T]_ij, which
        two GEMMs give. On a power cell that term was 0.67-1 of the whole
        entry, and preconditioning with it halved the complement CG's steps.
        """
        w, c = self.joint_diagonalizer
        weights = 1.0 / np.add.outer(c, c)
        squares = w * w
        jacobi = 1.0 / (squares @ weights @ squares.T)
        weights *= 0.5
        return w, weights, jacobi


def _check_bounded(pair, lam):
    """Raise UnboundedProblemError if a recession candidate of the pair proves it unbounded.

    Along t V the objective changes at the constant slope
    lam pen(V) - <V, P1 - P2>. A slope negative by more than UNBOUNDED_MARGIN,
    relative to lam pen(V) + |V|_F |P1 - P2|_F, proves the problem unbounded
    below. The test is sufficient, not necessary. It reads the pair's
    recession analysis (_FactorPair.recession), the one uniqueness_check
    reads, and divides the inequality through by |V|_F max |P1 - P2|, so it
    forms no V and nothing it forms overflows. A full-rank factor offers no
    candidate.
    """
    candidates, spread = pair.recession
    for name, k, penalty, fall in candidates:
        cost = lam * penalty / (pair.largest or 1.0)
        if cost - fall < -UNBOUNDED_MARGIN * (cost + spread):
            raise UnboundedProblemError(
                f"the penalized problem is unbounded below: along a direction in the "
                f"{k}-dimensional null space of {name} the objective falls at rate "
                f"{(fall - cost) * pair.largest:.3e} per unit step at lam = {lam:.6g}; "
                f"a larger lam or more samples may make it bounded"
            )


def _support_product(p1, p2, x, support, out, scratch):
    """out = [P1 X P2 + P2 X P1]_S for symmetric X, with S the 0/1 or boolean mask support.

    Returns its GEMMs, those of _kkt_product.
    """
    gemms = _kkt_product(p1, p2, x, scratch, out)
    np.multiply(scratch, support, out=out)
    return gemms


def _kkt_product(p1, p2, x, out, scratch):
    """out = P1 X P2 + P2 X P1 for symmetric X: the polish's float64 residuals and gradients.

    Returns its GEMMs, 2.
    """
    np.matmul(p1, x, out=out)
    np.matmul(out, p2, out=scratch)
    np.add(scratch, scratch.T, out=out)
    return 2


def _apply_inverse(w, weights, y, out, scratch):
    """out = W [(W.T Y W) * weights] W.T plus its transpose, for symmetric Y.

    With weights 1 / (2 (c_i + c_j)) and (W, c) from
    _FactorPair.joint_diagonalizer, this is the inverse of
    X -> P1 X P2 + P2 X P1, made exactly symmetric. Returns its GEMMs, 4.
    """
    np.matmul(y, w, out=out)
    np.matmul(w.T, out, out=scratch)
    scratch *= weights
    np.matmul(w, scratch, out=out)
    np.matmul(out, w.T, out=scratch)
    np.add(scratch, scratch.T, out=out)
    return 4


def _cg_on_support(pair, dtype, r, support, target, max_steps):
    """One primal CG call: D, zero off S, with [P1 D P2 + P2 D P1]_S = r_S within target.

    Preconditioned conjugate gradients from D = 0. S is the boolean
    support, and r, float64, is read on S only. The CG runs in dtype, the
    search's, on the pair's factors and preconditioner G = (P1 # P2)^-1
    (see linalg.inverse_geometric_mean), cast to that dtype once per call,
    in work arrays it allocates once per call, S among them as a 0/1 mask:
    at p = 16 and 25 the boolean support made a step about 15% slower (one
    thread of a 2-core Xeon VM, numpy 2.4). The iterate and the residual
    stay symmetric and zero off S, where the operator is positive
    semidefinite. The preconditioned residual is [G r G + (G r G)^T]_S,
    which the transpose keeps exactly symmetric.

    Stops once max |r| <= target, the entrywise norm of the KKT certificate,
    after max_steps steps, or when a search direction finds no curvature
    above EIG_RELATIVE_FLOOR times the operator's largest eigenvalue,
    2 lmax(P1) lmax(P2), or one that overflows. max |r| is computed only
    once |r|_F is at most 2 sqrt(|S|) target (or not finite): above that,
    max |r| > target, with room for the rounding of |r|_F^2 (see
    _largest_if_near); at p = 16 and 25, on the same VM, that made a step
    about 5% faster. Returns (D, steps taken, GEMMs made, whether
    max |r| <= target), D being the iterate made
    exactly symmetric in a new float64 array. The GEMMs are what its
    products return, an operator product made before a curvature stop
    included.
    """
    p1, p2, g = (a.astype(dtype, copy=False) for a in (pair.p1, pair.p2, pair.preconditioner))
    flat = EIG_RELATIVE_FLOOR * 2.0 * pair.scale
    mask = support.astype(dtype)
    r = np.multiply(r, mask, dtype=dtype)
    x = np.zeros_like(r)
    direction, product, scratch = (np.empty_like(r) for _ in range(3))
    near = 2.0 * math.sqrt(np.count_nonzero(mask)) * float(target)
    largest = _largest_if_near(r, float(np.vdot(r, r)), near)
    gemms = _support_product(g, g, r, mask, direction, scratch)
    rz = float(np.vdot(r, direction))
    steps = 0
    while largest > target and steps < max_steps:
        gemms += _support_product(p1, p2, direction, mask, product, scratch)
        curvature = float(np.vdot(direction, product))
        if not flat * float(np.vdot(direction, direction)) < curvature < math.inf:
            break
        alpha = rz / curvature
        np.multiply(direction, alpha, out=scratch)
        x += scratch
        product *= alpha
        r -= product
        largest = _largest_if_near(r, float(np.vdot(r, r)), near)
        gemms += _support_product(g, g, r, mask, product, scratch)
        rz_next = float(np.vdot(r, product))
        direction *= rz_next / rz
        direction += product
        rz = rz_next
        steps += 1
    return _symmetric_part(x), steps, gemms, largest <= target


def _cg_on_complement(pair, dtype, r, support, target, max_steps):
    """One complement CG call: D, zero off S, with P1 D P2 + P2 D P1 = r + M, M zero on S.

    The range-space method for an equality-constrained quadratic program
    (Nocedal & Wright, Numerical Optimization, 2nd ed., 2006, sections
    16.2-16.3): with L(X) = P1 X P2 + P2 X P1 and its exact inverse
    A(Y) = _apply_inverse(W, weights, Y) from pair.inverse, symmetric
    positive definite on symmetric matrices, CG finds the multiplier M on
    the complement C of the boolean support S from [A(r + M)]_C = 0, and
    D = A(r + M) with C zeroed, to max |[L(D)]_S - r_S| <= target. r is
    float64 and read on every entry, and its part on C sets where the
    multiplier starts: for an iterate x with residual B - L(x), x + D has
    the multiplier [L(x) - B]_C + r_C + M on C, so r_C = 0 starts it at
    x's own, and r_C = E_C + (B - L(x))_C at an estimate E.

    The CG runs in dtype, the search's, on the factors and pair.inverse
    cast to it once per call, in work arrays it allocates once per call, as
    _cg_on_support does. It carries not M but y = A(r + M), which it
    updates in place, and the residual rho = -[y]_C, preconditioned as
    jacobi rho (Jacobi), with pair.inverse's jacobi approximating 1 over
    A's diagonal. Each step makes one A product, four
    GEMMs. Zeroing y on C leaves [L(y + rho)]_S = r_S + [L(rho)]_S, so the
    solve is done once max |[L(rho)]_S| <= target. That check costs two
    GEMMs, so it is made only once gain max |rho| <= target, gain being a
    guess at the ratio of the two norms, first lmax(P1) lmax(P2) /
    COMPLEMENT_SLACK; a check that fails replaces gain with the ratio it
    saw. max |rho| is computed as in _cg_on_support. It stops at max_steps
    steps, or on a direction without positive finite curvature, which only
    rounding, a NaN or an overflow can give.

    Returns (D, steps, GEMMs, solved) as _cg_on_support does, the steps
    counting the first product A(r), which costs what a step does: so every
    call takes a step, a call with no step left fails at once, with D None,
    and the polish's step budget bounds its calls.
    """
    if max_steps < 1:
        return None, 0, 0, False
    w, weights, jacobi = (a.astype(dtype, copy=False) for a in pair.inverse)
    p1, p2 = (a.astype(dtype, copy=False) for a in (pair.p1, pair.p2))
    mask = support.astype(dtype)
    negated = mask - 1.0
    y, rho, product, scratch, direction = (np.empty_like(mask) for _ in range(5))
    gemms = _apply_inverse(w, weights, r.astype(dtype, copy=False), y, scratch)
    np.multiply(y, negated, out=rho)
    np.multiply(rho, jacobi, out=direction)
    count = np.count_nonzero(negated)
    rr = float(np.vdot(rho, rho))
    rz = float(np.vdot(rho, direction))
    gain = pair.scale / COMPLEMENT_SLACK
    steps, solved = 1, False
    while True:
        bound = target / gain
        largest = _largest_if_near(rho, rr, 2.0 * math.sqrt(count) * bound)
        if largest <= bound:
            gemms += _support_product(p1, p2, rho, mask, product, scratch)
            residual = max(float(product.max()), -float(product.min()))
            if residual <= target:
                solved = True
                break
            gain = residual / largest
        if steps >= max_steps:
            break
        gemms += _apply_inverse(w, weights, direction, product, scratch)
        curvature = float(np.vdot(direction, product))
        if not 0.0 < curvature < math.inf:
            break
        product *= rz / curvature
        y += product
        np.multiply(y, negated, out=rho)
        rr = float(np.vdot(rho, rho))
        np.multiply(rho, jacobi, out=product)
        rz_next = float(np.vdot(rho, product))
        direction *= rz_next / rz
        direction += product
        rz = rz_next
        steps += 1
    y += rho
    return _symmetric_part(y), steps, gemms, solved


def _largest_if_near(r, squared, near):
    """max |r|, or inf when sqrt(squared), squared being the float |r|_F^2, is finite and > near.

    Comparing norms, not their squares, keeps the test free of overflow at
    any finite near. A NaN in r makes the squared norm NaN and comes back as
    max |r| = NaN, which no tolerance passes.
    """
    if near < math.sqrt(squared) < math.inf:
        return math.inf
    return max(float(r.max()), -float(r.min()))


def _symmetric_part(a):
    """(A + A.T) / 2 in a new float64 array, for A in the search dtype."""
    a = a.astype(float, copy=False)
    out = np.add(a, a.T)
    out *= 0.5
    return out


def _inner_solver(pair, support):
    """The inner solve of a polish round on the boolean support S.

    _cg_on_complement when both factors are definite, which its exact
    inverse needs, and the complement C of S is the smaller side, at most
    half of the p^2 entries; _cg_on_support otherwise. A step costs four
    GEMMs on either side, and the side with fewer unknowns takes fewer
    steps: on the power config at lambda_scale 2-8 (tools/solve_work.py's
    lam-sweep cases), the two broke even with S at 45-53% of the entries,
    and on a support of 5% the complement did not polish at all.
    """
    if pair.definite and 2 * np.count_nonzero(support) >= support.size:
        return _cg_on_complement
    return _cg_on_support


# _kkt_check's record of an iterate (see there)
_Kkt = namedtuple("_Kkt", "verdict flipped outside residual largest", defaults=(None,) * 4)


def _kkt_check(pair, lam, x, grad, signs, support):
    """The KKT certificate: whether x is an optimum of the penalized problem at lam, as a _Kkt.

    x is a float64 estimate, zero off the boolean support S, and
    grad = sym(P1 x P2) - (P1 - P2) its gradient G, P1 and P2 being the
    factors of the _FactorPair pair; signs (int8, 0 on the diagonal) is
    the off-diagonal sign pattern x claims on S, and S holds its nonzeros
    and the diagonal. With tol = pair.tol, POLISH_TOL max |P1 - P2|, x is
    accepted when, in this order:
    - x and G are finite ("not-finite" otherwise);
    - no off-diagonal sign of x on S differs from signs (flipped), and
      |G| <= lam + tol off S (outside; "wrong-support" when either holds
      an entry);
    - max |G + lam signs| <= tol on S ("inexact" otherwise). The residual
      -2 (G + lam signs) on S is B_S - [P1 x P2 + P2 x P1]_S, with
      B = 2 (P1 - P2 - lam signs), the system the next refinement solves,
      so its max, largest, is compared with 2 tol.
    An unbounded problem has no KKT point, so nothing passes it. Every
    "polished" stop of run_admm is this verdict, and nothing else in the
    package decides it.

    Returns a _Kkt: the verdict, then the boolean masks flipped and
    outside of the support test, None when x or G is not finite, and the
    residual with its max |.|, largest, None once the support test failed.
    They are what the polish repairs the support from, or refines from.

    The test holds every entry to one tolerance, POLISH_TOL max |P1 - P2|,
    not to that entry's own scale, so in a badly scaled problem a small
    entry of an accepted x can be far from its optimum: with factors
    diag(1, 1e25) and 1e-30 I at lam = 0.1, the solve stops "polished"
    with delta[0, 0] = 1.0004e5, where the optimum is about 1e30.
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(grad))):
        return _Kkt("not-finite")
    flipped = (np.sign(x) != signs) & support
    np.fill_diagonal(flipped, False)
    outside = (np.abs(grad) > lam + pair.tol) & ~support
    if flipped.any() or outside.any():
        return _Kkt("wrong-support", flipped, outside)
    residual = (signs * lam + grad) * -2.0 * support
    largest = float(np.max(np.abs(residual)))
    verdict = "accepted" if largest <= 2.0 * pair.tol else "inexact"
    return _Kkt(verdict, flipped, outside, residual, largest)


def _polish(pair, lam, z, estimate, signs, max_steps):
    """Solve for the optimum on the support of z; (x or None, CG steps, complement steps, GEMMs).

    signs is the off-diagonal sign pattern of z (int8, 0 on the diagonal),
    and _polish works on a copy of it. S holds its nonzeros plus the
    diagonal, and C, the rest, is where x stays zero. If S and signs are
    those of the optimum, x solves [P1 X P2 + P2 X P1]_S = B_S, with
    B = 2 (P1 - P2 - lam signs) twice the stationarity condition on S. pair
    (_FactorPair) holds the factors, the KKT tolerance tol and what the
    inner solves apply in the search dtype, z's. estimate is a
    float64 estimate of the optimum's gradient G = sym(P1 X P2) - (P1 - P2);
    run_admm passes -sigma sym(u) from its scaled dual u. The iterate x and
    every temporary of the polish are new float64 arrays.

    Every round picks its inner solve from the support (_inner_solver): CG
    on S for x, or CG on C for the multiplier 2 G_C. Either way the polish
    is mixed-precision iterative refinement (Carson & Higham, SIAM J. Sci.
    Comput. 2018): each inner solve finds, in the search dtype, a
    correction for the float64 residual r = B_S - [P1 x P2 + P2 x P1]_S,
    which is made exactly symmetric and added to x in float64, and every
    residual and test below is float64. The first inner solve on C starts
    the multiplier at 2 estimate_C, the later ones at the iterate's own.

    Each round first solves loosely, to max |r| <= max(tol, POLISH_LOOSE
    times the round's initial max |r|), and hands the iterate x, with its
    gradient G, to the KKT certificate (_kkt_check), which alone decides
    whether x is accepted. An "inexact" iterate, whose support passed, is
    refined from the certificate's residual to max(tol, refine max |r|) at
    a time, refine being POLISH_LOOSE in a float32 search and 0 in a
    float64 one, and handed over again; an inner solve's stop on the
    doubled system at target tol leaves the certificate a margin of tol / 2.
    x is returned as soon as it is accepted, whatever the target of the
    solve that gave it, and None when it is not finite. On a
    "wrong-support" verdict, up to POLISH_ROUNDS repair rounds drop the
    entries whose sign flipped, add the entries outside S at sign
    -sign(G), and solve again, loosely first. max_steps caps the CG steps
    of all rounds, a complement step counting as a primal one.

    Besides x, it returns the CG steps of all rounds, the part of them
    _cg_on_complement took, and the p x p GEMMs of the polish: those its
    inner solves return, and two for each round's residual and each
    solved iterate's gradient.
    """
    x = z.astype(float)
    product, scratch = np.empty_like(x), np.empty_like(x)
    signs = signs.copy()
    support = signs != 0
    np.fill_diagonal(support, True)
    diff, tol = pair.diff, pair.tol
    refine = POLISH_LOOSE if z.dtype == np.float32 else 0.0
    steps = complement = gemms = 0
    for repair in range(POLISH_ROUNDS + 1):
        solve = _inner_solver(pair, support)
        gemms += _kkt_product(pair.p1, pair.p2, x, product, scratch)
        r = (signs * -lam + diff) * 2.0 - product
        target = max(tol, POLISH_LOOSE * float(np.max(np.abs(r * support))))
        if repair:
            r *= support
        else:
            # off S, r holds -2 G(x); adding 2 estimate starts the multiplier
            # of the complement solve at 2 estimate_C instead
            r += estimate * ~support * 2.0
        while True:
            correction, taken, work, solved = solve(
                pair, z.dtype, r, support, target, max_steps - steps
            )
            steps += taken
            complement += taken if solve is _cg_on_complement else 0
            gemms += work
            if not solved:
                return None, steps, complement, gemms
            x += correction
            gemms += _kkt_product(pair.p1, pair.p2, x, product, scratch)
            grad = product * 0.5 - diff
            kkt = _kkt_check(pair, lam, x, grad, signs, support)
            if kkt.verdict != "inexact":
                break
            r = kkt.residual
            target = max(tol, refine * kkt.largest)
        if kkt.verdict == "accepted":
            return x, steps, complement, gemms
        if kkt.verdict == "not-finite" or repair == POLISH_ROUNDS:
            break
        support[kkt.flipped] = False
        signs[kkt.flipped] = 0
        x[kkt.flipped] = 0.0
        support[kkt.outside] = True
        signs[kkt.outside] = -np.sign(grad[kkt.outside])
    return None, steps, complement, gemms


def _search_dtype(pair, sigma, thresh):
    """run_admm's search precision: float32 or float64.

    float32 when both factors of the pair are full rank and sigma, the
    operator scale lmax(P1) lmax(P2), the shrink threshold thresh and
    max |P1 - P2| fit FLOAT32_SPAN; float64 otherwise. On a singular factor,
    float32 rounding (eps 6e-8) hides the curvature stop of _cg_on_support
    (EIG_RELATIVE_FLOOR), and the CG runs on through null directions.
    """
    if not pair.definite:
        return np.float64
    span = all(1.0 / FLOAT32_SPAN <= v <= FLOAT32_SPAN for v in (sigma, pair.scale))
    return np.float32 if span and max(thresh, pair.largest) <= FLOAT32_SPAN else np.float64


def _check_finite(z, iteration):
    if not np.all(np.isfinite(z)):
        raise SolverDivergedError(
            f"iterates became non-finite by iteration {iteration}", iteration=iteration
        )


def run_admm(pair, config):
    """Two-block scaled ADMM for the penalized difference problem, from zero start.

    The loop of estimate_delta, which checks config and builds pair, the
    _FactorPair of the two factors; run_admm checks neither. First it
    searches the factors' null spaces for a direction along which the
    objective falls without bound (_check_bounded), and raises
    UnboundedProblemError on finding one. It then raises InvalidInputError
    when both factors are nonzero but lmax(P1) lmax(P2) is below float64's
    smallest normal number, where the polish's operators overflow and its
    stopping test divides by zero, or overflows to inf, where the polish's
    curvature and stopping tests compare against inf and no polish passes.

    On symmetric D the loss equals 0.5 <P1 D P2, D> - <D, P1 - P2>, so the
    problem splits into that smooth term over any p x p matrix d and the
    penalty over symmetric z, coupled by d = z (Boyd et al. 2011, section 3.1)
    with penalty sigma = 4 rho. Each iteration solves
    P1 X P2 + sigma X = R once with a PxqSolver built from the pair's
    eigenpairs, over-relaxes d with ADMM_RELAXATION (section 3.4.3), and
    shrinks the off-diagonal entries of the symmetric part of d + u at
    lam / sigma. The z-step projects onto symmetric matrices, so the fixed
    point is the symmetric optimum and does not depend on rho.

    Every POLISH_CHECK iterations the off-diagonal sign pattern of z is
    compared with the one at the previous check, which before the first
    check is the all-zero pattern of z's zero start. One rule decides every
    attempt: at most a POLISH_SETTLED fraction of the off-diagonal signs
    changed since the previous check, and, if an attempt was made before,
    more than that fraction differ from the pattern of the last attempt.
    An attempt solves on the support of z, repairing it where it is wrong
    (_polish; OSQP's solution polishing, Stellato et al. 2020, section 5),
    its complement solves warm-started from -2 sigma sym(u), ADMM's
    estimate of twice the gradient, u being the scaled dual. A polish that
    the KKT certificate (_kkt_check) accepts ends the run; one that fails
    leaves the iterates untouched. All attempts together take at most
    max_iter // CG_STEP_GEMMS CG steps. An accepted polish is the only stop
    before max_iter, so a run that is not "max_iter" is KKT-certified.

    The search runs in the precision _search_dtype picks, and the
    PxqSolver is built in it. The iterations write into buffers of that
    dtype allocated once per run, through PxqSolver.solve(r, out=), and a
    float32 search also runs the polish's inner solves in float32, each
    casting the pair's float64 operators once per call and working in
    arrays of its own. The sign pattern and the KKT certificate stay
    float64, and the returned z is float64 and the run's own. A
    float64 search gives the same bits as one that allocates each iterate
    anew.

    Returns (z, iterations, stop, cg_steps, complement_steps, attempts,
    gemms, dtype, loop_s, polish_s), which estimate_delta records as the
    DeltaEstimate fields of those names, delta being z. The run counts its
    own work: the polish attempts, their CG steps (_polish), and every
    p x p GEMM of the loop and the polish, CG_STEP_GEMMS per iteration plus
    what each _polish returns. dtype is the name of the search dtype. It
    times its own phases in seconds: polish_s sums the _polish calls, and
    loop_s is the rest of the time from the first iteration to the return.
    Raises SolverDivergedError if z is not finite at a check or after the
    last iteration.
    """
    p = pair.p1.shape[0]
    sigma = float(4.0 * config.rho)
    thresh = float(config.lam / sigma)
    _check_bounded(pair, config.lam)
    tiny = np.finfo(float).tiny
    if not tiny <= pair.scale < math.inf and pair.p1.any() and pair.p2.any():
        side, c = ("small", "c > 1") if pair.scale < tiny else ("large", "c < 1")
        raise InvalidInputError(
            f"the factors are too {side} for float64: lmax(psi1) lmax(psi2) = {pair.scale:.3e} "
            f"is outside [{tiny:.3e}, inf); scaling both factors and lam by {c} scales the "
            f"estimate by 1/c"
        )
    settled = POLISH_SETTLED * p * (p - 1)

    dtype = _search_dtype(pair, sigma, thresh)
    solver = PxqSolver(*pair.eigenpairs, sigma, dtype)
    z, u = (np.zeros((p, p), dtype) for _ in range(2))
    r, d, w = np.empty((3, p, p), dtype)
    diff_search = pair.diff.astype(dtype, copy=False)

    stop = "max_iter"
    pattern = np.zeros((p, p), dtype=np.int8)
    tried = None
    budget = config.max_iter // CG_STEP_GEMMS
    cg_steps = complement_steps = attempts = polish_gemms = 0
    polish_s = 0.0
    loop_start = time.perf_counter()
    for iteration in range(1, config.max_iter + 1):
        # d solves P1 d P2 + sigma d = (P1 - P2) + sigma (z - u)
        np.subtract(z, u, out=r)
        r *= sigma
        r += diff_search
        solver.solve(r, out=d)
        # w = relaxed d + u; z = shrunk sym(w); u = w - z
        np.multiply(z, 1.0 - ADMM_RELAXATION, out=r)
        np.multiply(d, ADMM_RELAXATION, out=w)
        w += r
        w += u
        np.add(w, w.T, out=d)
        d /= 2.0
        _soft_threshold_into(d, thresh, z, r)
        np.fill_diagonal(z, np.diagonal(d))
        np.subtract(w, z, out=u)
        if iteration % POLISH_CHECK:
            continue
        _check_finite(z, iteration)
        held = pattern
        pattern = np.sign(z).astype(np.int8)
        np.fill_diagonal(pattern, 0)
        if cg_steps >= budget or np.count_nonzero(pattern != held) > settled:
            continue
        if tried is not None and np.count_nonzero(pattern != tried) <= settled:
            continue
        tried = pattern
        # at the fixed point the d-step gives G = sym(P1 z P2) - (P1 - P2) = -sigma sym(u)
        estimate = np.add(u, u.T, dtype=float)
        estimate *= -0.5 * sigma
        polish_start = time.perf_counter()
        polished, taken, on_complement, gemms = _polish(
            pair, config.lam, z, estimate, pattern, budget - cg_steps
        )
        polish_s += time.perf_counter() - polish_start
        attempts += 1
        cg_steps += taken
        complement_steps += on_complement
        polish_gemms += gemms
        if polished is not None:
            z = polished
            stop = "polished"
            break

    z = z.astype(float, copy=False)
    _check_finite(z, iteration)
    loop_s = time.perf_counter() - loop_start - polish_s
    work = cg_steps, complement_steps, attempts, CG_STEP_GEMMS * iteration + polish_gemms
    return z, iteration, stop, *work, np.dtype(dtype).name, loop_s, polish_s


def estimate_delta(psi1, psi2, config):
    """Penalized difference estimate from two square-root precision factors.

    Takes symmetric PSD matrices, such as those precision_factor returns,
    checks config, builds their _FactorPair (NotPsdError names a factor
    that is not PSD) and runs the ADMM loop run_admm on it. Returns a
    DeltaEstimate holding the symmetric sparse iterate, its penalized
    objective, the iteration count, the stop reason, the work of the
    solve and the seconds of its phases: setup_s is the solve's time less
    the loop_s and polish_s run_admm returns. A solve that raises returns
    no record.

    With unknown injection covariances, whiten with the identity:
    estimate_delta(precision_factor(y1, np.eye(p)), precision_factor(y2, np.eye(p)),
    config) estimates the difference of the inverse-covariance square roots
    of the two potential distributions, which is (b2 - b1) / 2 when both
    injection covariances equal 4 I.
    """
    start = time.perf_counter()
    if not isinstance(config, SolverConfig):
        raise InvalidInputError(f"config must be a SolverConfig, got {type(config).__name__}")
    pair = _FactorPair(psi1, psi2)
    z, iterations, stop, *work, loop_s, polish_s = run_admm(pair, config)
    objective = penalized_objective(z, pair.p1, pair.p2, config)
    setup_s = time.perf_counter() - start - loop_s - polish_s
    return DeltaEstimate(z, iterations, objective, stop, *work, setup_s, loop_s, polish_s)


def exact_delta(b1, b2, sigma_x1, sigma_x2):
    """Population identity: recover b2 - b1 through the square-root pipeline.

    For each regime, whitens the population covariance b^{-1} sigma b^{-1}
    of the potentials (sampling._whitened, with m = sigma^{1/2}), which
    gives s = (m b^{-1} m)^2, and wraps its inverse PSD square root with m
    on both sides: m s^{-1/2} m = b. The difference of the two wrapped
    roots equals b2 - b1 up to floating-point error; this is the identity
    the sample estimator plugs into. A b that is not positive definite is
    a NotPsdError naming b; a sigma that is not is the NotPsdError or
    SingularMatrixError of the whitening, naming sigma_x.
    """
    terms = []
    for b, sigma in ((b1, sigma_x1), (b2, sigma_x2)):
        b = as_symmetric(b)
        sigma = as_symmetric(sigma)
        if sigma.shape != b.shape:
            raise InvalidInputError(f"sigma shape {sigma.shape} != b shape {b.shape}")
        _classify(_eigvalsh(b), "b", "definite", NotPsdError)
        cov = np.linalg.solve(b, np.linalg.solve(b, sigma).T)
        root, _, _, s = _whitened((cov + cov.T) / 2.0, sigma)
        terms.append(_congruence(root, inv_sqrt_pd(s)))
    delta = terms[1] - terms[0]
    return (delta + delta.T) / 2.0


def plugin_delta(samples1, samples2, sigma_x1, sigma_x2):
    """Plug-in baseline: inverse square roots of the sample covariances.

    Substitutes the inverse square root of each whitened sample covariance
    s (sampling._whitened, with m = sigma^{1/2}) for the population inverse
    root in the exact identity: each regime's term is m s^{-1/2} m. Only
    defined when both sample covariances are invertible, which requires
    n > p: a singular s is a PluginUndefinedError, while a sigma that is
    not positive definite is the whitening's NotPsdError or
    SingularMatrixError naming sigma_x. Each regime's term is inversely
    proportional to its samples at any scale (sampling._at_sample_scale).
    """
    whitened = []
    for samples, sigma in ((samples1, sigma_x1), (samples2, sigma_x2)):
        samples, scale = _at_sample_scale(samples)
        sigma = as_symmetric(sigma)
        if samples.ndim != 2 or samples.shape[1] != sigma.shape[0]:
            raise InvalidInputError(
                f"samples shape {samples.shape} incompatible with sigma {sigma.shape}"
            )
        n, p = samples.shape
        if n <= p:
            raise PluginUndefinedError(f"plugin undefined for n <= p: got n = {n}, p = {p}")
        root, _, _, s = _whitened(sample_covariance(samples), sigma)
        whitened.append((root, s, scale))
    try:
        t1, t2 = (_congruence(root, inv_sqrt_pd(s)) / scale for root, s, scale in whitened)
    except SingularMatrixError as exc:
        raise PluginUndefinedError(f"sample covariance is singular: {exc}") from None
    delta = t2 - t1
    return (delta + delta.T) / 2.0


def uniqueness_check(psi1, psi2, tau):
    """Kernel diagnostic for uniqueness of the penalized difference estimate.

    The factors must be PSD (NotPsdError otherwise). Then the Hessian
    (P1 (x) P2 + P2 (x) P1) / 2 of the quadratic loss vanishes on V exactly
    when Q1 V Q2 = 0 and Q2 V Q1 = 0, with Qi the projector onto range Pi, so
    its kernel has dimension p^2 - 2 r1 r2 + k^2 with ri = rank Pi and
    k = dim(range P1 & range P2). Both come from the null bases of the
    factors' _FactorPair in O(p^3): one eigh per factor, none for a factor
    that is a kept PSD root. The two uniqueness conditions are evaluated on
    the recession candidates of the pair (_FactorPair.recession), which lie
    in that kernel: the same scale-free analysis the ADMM pre-check
    _check_bounded reads, so scaling both factors by c scales
    condition_inner by c and changes nothing else.

    Verdicts: a trivial kernel certifies a strongly convex problem
    ("unique"). "not-unique" is witnessed by a candidate violating either
    condition, the inner one counting above 1e-10 |P1 - P2|_F, or by a
    unit vector e_i in both null spaces, whose row of each null basis has
    unit norm within EIG_RELATIVE_FLOOR: P1 E_ii = P2 E_ii = 0 and
    <E_ii, P1 - P2> = 0, and the penalty ignores the diagonal, so the
    objective is constant along E_ii = e_i e_i^T. Otherwise the verdict is
    "inconclusive", because only these directions (not the whole kernel
    cone) were examined.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise InvalidInputError(f"tau must be a positive real, got {tau!r}")
    pair = _FactorPair(psi1, psi2)
    null1, null2 = pair.nulls
    p = pair.p1.shape[0]
    # range P1 & range P2 is the complement of null P1 + null P2; a null direction
    # the two share is a zero singular value, sqrt(1 - cos 0), of [N1 N2]
    shared = p - int(np.linalg.matrix_rank(np.hstack([null1, null2]), tol=EIG_RELATIVE_FLOOR))
    kernel_dim = p * p - 2 * (p - null1.shape[1]) * (p - null2.shape[1]) + shared * shared

    candidates, spread = pair.recession
    condition_norm = max([0.0] + [candidate[2] for candidate in candidates])
    fall = max([0.0] + [candidate[3] for candidate in candidates])
    # axes[k][i]: e_i lies in the null space of factor k + 1, its basis row of unit norm
    axes = [np.abs(np.linalg.norm(n, axis=1) - 1.0) <= EIG_RELATIVE_FLOOR for n in pair.nulls]

    if kernel_dim == 0:
        verdict = "unique"
    elif fall > 1e-10 * spread or condition_norm > tau or np.any(axes[0] & axes[1]):
        verdict = "not-unique"
    else:
        verdict = "inconclusive"
    # condition_inner = fall max |P1 - P2| = max <V, P1 - P2> / |V|_F
    return UniquenessReport(kernel_dim, fall * pair.largest, condition_norm, float(tau), verdict)
