"""Core difference estimation: quadratic trace loss, ADMM solver, exact
identity, plug-in baseline, and the uniqueness diagnostic.

All estimators target delta = b2 - b1, the difference of the two symmetric
system matrices, using only square-root precision factors built from node
potentials (see sampling.precision_factor).
"""

import math
from dataclasses import dataclass

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
    as_symmetric,
    inv_sqrt_pd,
    off_diagonal_l1,
    sqrt_psd,
)
from .sampling import sample_covariance

# Relative margin by which a recession direction's objective slope must be
# negative before run_admm declares the problem unbounded.
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
# passed the flip and outside-support test.
POLISH_LOOSE = 1e-3

# p x p GEMMs of one preconditioned CG step: two apply the operator, two the
# preconditioner. An ADMM iteration costs four, and all polish attempts of a
# run share a budget of max_iter GEMMs, so a run that never polishes does at
# most a quarter more GEMMs than its iterations.
CG_STEP_GEMMS = 4

# KKT tolerance of an accepted polish, relative to max |P1 - P2|.
POLISH_TOL = 1e-9

# run_admm searches in float32 only while the d-step penalty sigma and the
# operator scale lmax(P1) lmax(P2) lie within this factor of 1 and the shrink
# threshold below it. 2^96 is about 8e28, ten decades inside float32's range
# (about 1e-38 to 3e38), which leaves room for the squares CG forms.
FLOAT32_SPAN = 2.0**96


@dataclass
class SolverConfig:
    """Parameters of the ADMM solver for the penalized difference problem.

    lam is the l1 penalty weight; rho sets run_admm's augmented-Lagrangian
    penalty 4 rho, and with it the shrink threshold lam / (4 rho), both of
    which must be finite; run_admm stops when a polish passes the KKT check
    or at max_iter. The penalty falls on the off-diagonal entries only.
    These are the package's only solver defaults; the sweep config and the
    command line take theirs from here.
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


@dataclass
class AdmmState:
    """Final iterate of the two-block ADMM.

    z is the symmetric shrunk block, float64. stop says why the loop ended:
    "polished" (a polish passed the KKT check, and z is the polished
    optimum) or "max_iter". iterations counts ADMM iterations, cg_steps the
    CG steps of all polish attempts.
    """

    z: np.ndarray
    iterations: int
    stop: str
    cg_steps: int


@dataclass
class DeltaEstimate:
    """A computed difference estimate plus solver bookkeeping; stop, cg_steps as in AdmmState."""

    delta: np.ndarray
    iterations: int
    converged: bool
    objective: float
    stop: str
    cg_steps: int


@dataclass
class UniquenessReport:
    """Outcome of the kernel-based uniqueness diagnostic.

    condition_inner is the largest inner product <V, factor1 - factor2> over
    the unit recession candidates V (see _recession_candidates), and
    condition_norm their largest off-diagonal l1 norm, both 0.0 without a
    candidate; tau the radius those norms are compared against.
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
    exactly b2 - b1 when the factors are the inverse system matrices.
    """
    p1 = _factor_matrix(psi1, "psi1")
    p2 = _factor_matrix(psi2, "psi2")
    delta = np.asarray(delta, dtype=float)
    if delta.shape != p1.shape or p2.shape != p1.shape:
        raise InvalidInputError(
            f"shape mismatch: delta {delta.shape}, psi1 {p1.shape}, psi2 {p2.shape}"
        )
    quad = np.sum((p1 @ delta) * (delta @ p2)) + np.sum((p2 @ delta) * (delta @ p1))
    linear = np.sum(delta * (p1 - p2))
    return float(0.25 * quad - linear)


def penalized_objective(delta, psi1, psi2, config):
    """dtrace_loss plus lam times the off-diagonal l1 norm."""
    return dtrace_loss(delta, psi1, psi2) + config.lam * off_diagonal_l1(delta)


def _recession_candidates(null1, null2, p1, p2):
    """(name, null dimension, V) for each factor Pi whose null space (basis nulli) is nontrivial.

    With Ni the projector onto it, V1 = -N1 P2 N1 and V2 = N2 P1 N2. Pi Ni = 0
    makes both quadratic terms of the loss vanish on each, so each lies in the
    Hessian kernel; each maximizes <V, P1 - P2> over {Ni X Ni} at its norm,
    whichever basis of the null space eigh returned.
    """
    return [
        (name, basis.shape[1], sign * (basis @ (basis.T @ other @ basis) @ basis.T))
        for name, basis, other, sign in (("psi1", null1, p2, -1.0), ("psi2", null2, p1, 1.0))
        if basis.shape[1]
    ]


def _check_bounded(solver, p1, p2, diff, config):
    """Raise UnboundedProblemError if a recession candidate proves the problem unbounded.

    Along t V the objective changes at the constant slope
    lam pen(V) - <V, P1 - P2>. A slope negative by more than UNBOUNDED_MARGIN,
    relative to lam pen(V) + |V|_F |P1 - P2|_F, proves the problem unbounded
    below. The test is sufficient, not necessary. A full-rank factor offers
    no candidate, so it then costs one pass over the eigenvalues.
    """
    for name, k, direction in _recession_candidates(*solver.null_bases(), p1, p2):
        penalty = config.lam * off_diagonal_l1(direction)
        slope = penalty - float(np.sum(direction * diff))
        norm = float(np.linalg.norm(direction))
        if slope < -UNBOUNDED_MARGIN * (penalty + norm * float(np.linalg.norm(diff))):
            raise UnboundedProblemError(
                f"the penalized problem is unbounded below: along a direction in the "
                f"{k}-dimensional null space of {name} the objective falls at rate "
                f"{-slope / norm:.3e} per unit step at lam = {config.lam:.6g}; a larger "
                f"lam or more samples may make it bounded"
            )


def _support_product(p1, p2, x, support, out, scratch):
    """out = [P1 X P2 + P2 X P1]_S for symmetric X, with S the boolean mask support."""
    np.matmul(p1, x, out=scratch)
    np.matmul(scratch, p2, out=out)
    np.add(out, out.T, out=scratch)
    np.multiply(scratch, support, out=out)


def _cg_on_support(p1, p2, x, r, support, tol, max_steps, work, precond):
    """Preconditioned conjugate gradients for [P1 X P2 + P2 X P1]_S = B_S from x, in place.

    On entry r holds the residual B_S - [P1 x P2 + P2 x P1]_S and x is
    symmetric and zero off S, as both stay. The operator is positive
    semidefinite on such matrices. precond is the (G, lmax(P1) lmax(P2))
    of PxqSolver.inverse_geometric_mean, and the preconditioned residual is
    [G r G + (G r G)^T]_S, which the transpose keeps exactly symmetric.
    Stops once max |r| <= tol, the entrywise norm of the KKT check, after
    max_steps steps, or when a search direction finds no curvature above
    EIG_RELATIVE_FLOOR times the operator's largest eigenvalue,
    2 lmax(P1) lmax(P2). Returns (steps taken, whether max |r| <= tol).
    """
    g, scale = precond
    flat = EIG_RELATIVE_FLOOR * 2.0 * scale
    direction, product, scratch = work
    largest = float(np.max(np.abs(r, out=scratch)))
    _support_product(g, g, r, support, direction, scratch)
    rz = float(np.vdot(r, direction))
    steps = 0
    while largest > tol and steps < max_steps:
        _support_product(p1, p2, direction, support, product, scratch)
        curvature = float(np.vdot(direction, product))
        if not curvature > flat * float(np.vdot(direction, direction)):
            break
        alpha = rz / curvature
        np.multiply(direction, alpha, out=scratch)
        x += scratch
        product *= alpha
        r -= product
        largest = float(np.max(np.abs(r, out=scratch)))
        _support_product(g, g, r, support, product, scratch)
        rz_next = float(np.vdot(r, product))
        direction *= rz_next / rz
        direction += product
        rz = rz_next
        steps += 1
    return steps, largest <= tol


def _polish(p1, p2, diff, lam, z, signs, tol, max_steps, precond, search):
    """Solve for the optimum on the support of z; (x or None, CG steps taken).

    signs is the off-diagonal sign pattern of z (int8, 0 on the diagonal),
    and _polish works on a copy of it. S holds its nonzeros plus the
    diagonal. If S and signs are those of the optimum, it solves
    [P1 X P2 + P2 X P1]_S = 2 (P1 - P2 - lam signs)_S with X zero off S,
    twice the stationarity condition on S. Conjugate gradients, warm-started
    at z and preconditioned with precond (see _cg_on_support), solve it.
    The iterate x is float64 whatever the dtype of z.

    search is None for a float64 search, in which CG updates x and its
    residual r in place. Otherwise it is (P1, P2, precond, work) in float32,
    work being five p x p float32 arrays, and each CG call solves for a
    correction from r rounded to float32, which is made exactly symmetric
    and added to x in float64: mixed-precision iterative refinement (Carson
    & Higham, SIAM J. Sci. Comput. 2018). Every residual and test below is
    float64 either way.

    Each round first solves loosely, to max |r| <= max(tol, POLISH_LOOSE
    times the round's initial max |r|), and tests that iterate, with
    gradient G = sym(P1 x P2) - (P1 - P2): x and G are finite, no sign
    flipped, and |G| <= lam + tol off S. A support that passes is solved on
    from the iterate and its recomputed residual, to max |r| <= tol, or in
    float32 to max(tol, POLISH_LOOSE max |r|) at a time, and tested again.
    x is returned only if it then also passes the rest of the KKT check,
    |G + lam signs| <= tol on S; CG's stop on the doubled system leaves
    that a margin of tol / 2. A float64 search that fails it returns None,
    and a float32 one solves on. An unbounded problem has no KKT point, so
    it never passes. When the test fails on a flipped sign or an entry off
    S, up to POLISH_ROUNDS repair rounds drop the entries whose sign
    flipped, add the entries off S with |G| > lam + tol at sign -sign(G),
    and solve again, loosely first. max_steps caps the CG steps of all
    rounds.
    """
    x = z.astype(float)
    r, direction, product, scratch = (np.empty_like(x) for _ in range(4))
    if search is not None:
        p1_search, p2_search, precond_search, (correction, r_search, *cg_work) = search
    signs = signs.copy()
    support = signs != 0
    np.fill_diagonal(support, True)
    steps = 0
    for repair in range(POLISH_ROUNDS + 1):
        np.multiply(signs, -lam, out=r)
        r += diff
        r *= 2.0
        r *= support
        _support_product(p1, p2, x, support, product, scratch)
        r -= product
        target = max(tol, POLISH_LOOSE * float(np.max(np.abs(r, out=scratch))))
        while True:
            if search is None:
                taken, solved = _cg_on_support(
                    p1, p2, x, r, support, target, max_steps - steps,
                    (direction, product, scratch), precond,
                )
            else:
                correction.fill(0.0)
                np.copyto(r_search, r, casting="same_kind")
                taken, solved = _cg_on_support(
                    p1_search, p2_search, correction, r_search, support, target,
                    max_steps - steps, cg_work, precond_search,
                )
                np.copyto(direction, correction)
                np.add(direction, direction.T, out=product)
                product *= 0.5
                x += product
            steps += taken
            if not solved:
                return None, steps
            np.matmul(p1, x, out=scratch)
            np.matmul(scratch, p2, out=product)
            grad = np.add(product, product.T, out=r)
            grad *= 0.5
            grad -= diff
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(grad))):
                return None, steps
            flipped = np.sign(x, out=direction) != signs
            flipped &= support
            np.fill_diagonal(flipped, False)
            outside = np.abs(grad, out=scratch) > lam + tol
            outside &= ~support
            if flipped.any() or outside.any():
                break
            np.multiply(signs, lam, out=direction)
            direction += grad
            # r = 2 (P1 - P2 - lam signs)_S - [P1 x P2 + P2 x P1]_S, from G;
            # its max |r| is twice the largest |G + lam signs| on S
            np.multiply(direction, -2.0, out=r)
            r *= support
            largest = float(np.max(np.abs(r, out=scratch)))
            if target == tol and (search is None or largest <= 2.0 * tol):
                return (x if largest <= 2.0 * tol else None), steps
            target = tol if search is None else max(tol, POLISH_LOOSE * largest)
        if repair == POLISH_ROUNDS:
            break
        support[flipped] = False
        signs[flipped] = 0
        x[flipped] = 0.0
        support[outside] = True
        signs[outside] = -np.sign(grad[outside])
    return None, steps


def _search_dtype(solver, sigma, thresh, scale):
    """run_admm's search precision: float32 or float64.

    float32 when both factors are full rank and sigma, the operator scale
    lmax(P1) lmax(P2) and the shrink threshold thresh fit FLOAT32_SPAN;
    float64 otherwise. On a singular factor, float32 rounding (eps 6e-8)
    hides the curvature stop of _cg_on_support (EIG_RELATIVE_FLOOR), and
    the CG runs on through null directions.
    """
    null1, null2 = solver.null_bases()
    if null1.shape[1] or null2.shape[1]:
        return np.float64
    span = all(1.0 / FLOAT32_SPAN <= v <= FLOAT32_SPAN for v in (sigma, scale))
    return np.float32 if span and thresh <= FLOAT32_SPAN else np.float64


def _shrink_off_diagonal(a, thresh, out, scratch):
    """out = soft_threshold(a, thresh, off_diagonal_only=True), allocating nothing."""
    np.abs(a, out=out)
    out -= thresh
    np.maximum(out, 0.0, out=out)
    out *= np.sign(a, out=scratch)
    np.fill_diagonal(out, np.diagonal(a))


def _polish_tolerance(diff):
    """KKT tolerance of an accepted polish for the factor difference diff = P1 - P2."""
    return POLISH_TOL * float(np.max(np.abs(diff)))


def _check_finite(z, iteration):
    if not np.all(np.isfinite(z)):
        raise SolverDivergedError(
            f"iterates became non-finite by iteration {iteration}", iteration=iteration
        )


def run_admm(psi1, psi2, config):
    """Two-block scaled ADMM for the penalized difference problem, from zero start.

    On symmetric D the loss equals 0.5 <P1 D P2, D> - <D, P1 - P2>, so the
    problem splits into that smooth term over any p x p matrix d and the
    penalty over symmetric z, coupled by d = z (Boyd et al. 2011, section 3.1)
    with penalty sigma = 4 rho. Each iteration solves P1 X P2 + sigma X = R
    once with a PxqSolver, which decomposes the two factors once for the
    whole run, over-relaxes d with ADMM_RELAXATION (section 3.4.3), and
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
    (_polish; OSQP's solution polishing, Stellato et al. 2020, section 5). A
    polish that passes the KKT check at _polish_tolerance(P1 - P2) ends the
    run; one that fails leaves the iterates untouched. Its CG is
    preconditioned with (P1 # P2)^-1, built once per solve. All attempts
    together take at most max_iter // CG_STEP_GEMMS CG steps. A passed
    polish is the only stop before max_iter, so a run that is not
    "max_iter" is KKT-certified.

    The search runs in the precision _search_dtype picks: float32 when both
    factors are full rank, float64 otherwise. The iterations write into
    buffers of that dtype allocated once per solve, through
    PxqSolver.solve(r, out=), and a float32 search also polishes in float32
    (see _polish). The sign pattern, the KKT check and its tolerance stay
    float64, and the returned z is float64. A float64 search gives the same
    bits as one that allocates each iterate anew.

    Before the first iteration, the null spaces of the two factors are
    searched for a direction along which the objective falls without bound
    (see _check_bounded); finding one raises UnboundedProblemError.

    Returns the AdmmState. Raises SolverDivergedError if z is not finite at
    a check or after the last iteration.
    """
    p1 = _factor_matrix(psi1, "psi1")
    p2 = _factor_matrix(psi2, "psi2")
    if p2.shape != p1.shape:
        raise InvalidInputError(f"factor shapes differ: {p1.shape} vs {p2.shape}")
    if not isinstance(config, SolverConfig):
        raise InvalidInputError(f"config must be a SolverConfig, got {type(config).__name__}")
    p = p1.shape[0]
    sigma = float(4.0 * config.rho)
    thresh = float(config.lam / sigma)
    solver = PxqSolver(p1, p2, sigma)
    diff = p1 - p2
    _check_bounded(solver, p1, p2, diff, config)
    precond = solver.inverse_geometric_mean()
    polish_tol = _polish_tolerance(diff)
    settled = POLISH_SETTLED * p * (p - 1)

    dtype = _search_dtype(solver, sigma, thresh, precond[1])
    z, u = (np.zeros((p, p), dtype) for _ in range(2))
    r, d, w = (np.empty((p, p), dtype) for _ in range(3))
    diff_search = diff.astype(dtype, copy=False)
    search = None
    if dtype != np.float64:
        # the polish's CG borrows the iteration's scratch arrays r, d and w
        work = (np.empty((p, p), dtype), np.empty((p, p), dtype), r, d, w)
        g, scale = precond
        search = (p1.astype(dtype), p2.astype(dtype), (g.astype(dtype), scale), work)

    stop = "max_iter"
    pattern = np.zeros((p, p), dtype=np.int8)
    tried = None
    budget = config.max_iter // CG_STEP_GEMMS
    cg_steps = 0
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
        _shrink_off_diagonal(d, thresh, z, r)
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
        polished, taken = _polish(
            p1, p2, diff, config.lam, z, pattern, polish_tol, budget - cg_steps, precond, search
        )
        cg_steps += taken
        if polished is not None:
            z = polished
            stop = "polished"
            break

    z = z.astype(float, copy=False)
    _check_finite(z, iteration)
    return AdmmState(z=z, iterations=iteration, stop=stop, cg_steps=cg_steps)


def estimate_delta(psi1, psi2, config):
    """Penalized difference estimate from two square-root precision factors.

    Takes symmetric matrices, such as those precision_factor returns. Returns a
    DeltaEstimate holding the symmetric sparse iterate, iteration count,
    convergence flag, final penalized objective, stop reason and CG steps.

    With unknown injection covariances, whiten with the identity:
    estimate_delta(precision_factor(y1, np.eye(p)), precision_factor(y2, np.eye(p)),
    config) estimates the difference of the inverse-covariance square roots
    of the two potential distributions, which is (b2 - b1) / 2 when both
    injection covariances equal 4 I.
    """
    state = run_admm(psi1, psi2, config)
    objective = penalized_objective(state.z, psi1, psi2, config)
    return DeltaEstimate(
        delta=state.z,
        iterations=state.iterations,
        converged=state.stop == "polished",
        objective=objective,
        stop=state.stop,
        cg_steps=state.cg_steps,
    )


def _wrapped_root_difference(regimes):
    """Symmetrized t2 - t1 for the two (m, c) regimes, where t = m @ inv_sqrt_pd(c) @ m.

    Raises SingularMatrixError when a c is not positive definite.
    """
    t1, t2 = (root @ inv_sqrt_pd(cov) @ root for root, cov in regimes)
    delta = t2 - t1
    return (delta + delta.T) / 2.0


def exact_delta(b1, b2, sigma_x1, sigma_x2):
    """Population identity: recover b2 - b1 through the square-root pipeline.

    For each regime, forms the population covariance of the multiplied
    potentials, ( sigma^{1/2} b^{-1} sigma^{1/2} )^2, takes its inverse PSD
    square root, and wraps it with sigma^{1/2} on both sides. The difference
    of the two wrapped roots equals b2 - b1 up to floating-point error; this
    is the identity the sample estimator plugs into.
    """
    regimes = []
    for b, sigma in ((b1, sigma_x1), (b2, sigma_x2)):
        b = as_symmetric(b)
        sigma = as_symmetric(sigma)
        if sigma.shape != b.shape:
            raise InvalidInputError(f"sigma shape {sigma.shape} != b shape {b.shape}")
        eigs = np.linalg.eigvalsh(b)
        if eigs[0] <= EIG_RELATIVE_FLOOR * max(1.0, abs(eigs[-1])):
            raise NotPsdError(f"b must be positive definite (min eigenvalue {eigs[0]:.6e})")
        root = sqrt_psd(sigma)
        t = root @ np.linalg.solve(b, root)
        t = (t + t.T) / 2.0
        cov = t @ t
        regimes.append((root, (cov + cov.T) / 2.0))
    return _wrapped_root_difference(regimes)


def plugin_delta(samples1, samples2, sigma_x1, sigma_x2):
    """Plug-in baseline: inverse square roots of the sample covariances.

    Substitutes the inverse square root of each whitened sample covariance
    for the population inverse root in the exact identity. Only defined when
    both sample covariances are invertible, which requires n > p.
    """
    regimes = []
    for samples, sigma in ((samples1, sigma_x1), (samples2, sigma_x2)):
        samples = np.asarray(samples, dtype=float)
        sigma = as_symmetric(sigma)
        if samples.ndim != 2 or samples.shape[1] != sigma.shape[0]:
            raise InvalidInputError(
                f"samples shape {samples.shape} incompatible with sigma {sigma.shape}"
            )
        n, p = samples.shape
        if n <= p:
            raise PluginUndefinedError(f"plugin undefined for n <= p: got n = {n}, p = {p}")
        root = sqrt_psd(sigma)
        cov = root @ sample_covariance(samples) @ root
        regimes.append((root, (cov + cov.T) / 2.0))
    try:
        return _wrapped_root_difference(regimes)
    except SingularMatrixError as exc:
        raise PluginUndefinedError(f"sample covariance is singular: {exc}") from None


def uniqueness_check(psi1, psi2, tau):
    """Kernel diagnostic for uniqueness of the penalized difference estimate.

    The factors must be PSD (NotPsdError otherwise). Then the Hessian
    (P1 (x) P2 + P2 (x) P1) / 2 of the quadratic loss vanishes on V exactly
    when Q1 V Q2 = 0 and Q2 V Q1 = 0, with Qi the projector onto range Pi, so
    its kernel has dimension p^2 - 2 r1 r2 + k^2 with ri = rank Pi and
    k = dim(range P1 & range P2). Both come from the factors' eigenpairs in
    O(p^3). The two uniqueness conditions are evaluated on the unit
    recession candidates, which lie in that kernel.

    Verdicts: a trivial kernel certifies a strongly convex problem
    ("unique"); a candidate violating either condition witnesses
    "not-unique"; otherwise "inconclusive", because only the candidates
    (not the whole kernel cone) were examined.
    """
    p1 = _factor_matrix(psi1, "psi1")
    p2 = _factor_matrix(psi2, "psi2")
    if p2.shape != p1.shape:
        raise InvalidInputError(f"factor shapes differ: {p1.shape} vs {p2.shape}")
    if not (math.isfinite(tau) and tau > 0):
        raise InvalidInputError(f"tau must be a positive real, got {tau!r}")
    for name, factor in (("psi1", p1), ("psi2", p2)):
        low, high = np.linalg.eigvalsh(factor)[[0, -1]]
        if low < -EIG_RELATIVE_FLOOR * max(1.0, high):
            raise NotPsdError(f"{name} must be positive semidefinite (min eigenvalue {low:.6e})")

    p = p1.shape[0]
    null1, null2 = PxqSolver(p1, p2, 1.0).null_bases()  # gamma plays no part in them
    # range P1 & range P2 is the complement of null P1 + null P2; a null direction
    # the two share is a zero singular value, sqrt(1 - cos 0), of [N1 N2]
    shared = p - int(np.linalg.matrix_rank(np.hstack([null1, null2]), tol=EIG_RELATIVE_FLOOR))
    kernel_dim = p * p - 2 * (p - null1.shape[1]) * (p - null2.shape[1]) + shared * shared

    diff = p1 - p2
    inner_tol = 1e-10 * max(1.0, float(np.linalg.norm(diff)))
    condition_inner = condition_norm = 0.0
    for _, _, direction in _recession_candidates(null1, null2, p1, p2):
        norm = float(np.linalg.norm(direction))
        if norm > inner_tol:  # a smaller candidate is rounding, not a direction
            condition_inner = max(condition_inner, float(np.sum(direction * diff)) / norm)
            condition_norm = max(condition_norm, off_diagonal_l1(direction) / norm)

    if kernel_dim == 0:
        verdict = "unique"
    elif condition_inner > inner_tol or condition_norm > tau:
        verdict = "not-unique"
    else:
        verdict = "inconclusive"
    return UniquenessReport(kernel_dim, condition_inner, condition_norm, float(tau), verdict)
