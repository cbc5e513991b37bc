"""Dense symmetric-matrix numerics shared by the rest of the package.

Everything here works on plain float64 numpy arrays, except that a
PxqSolver can be built to solve in float32. Matrices that are
symmetric by contract are validated and then stored in exactly
symmetrized form (A + A.T) / 2 so downstream eigendecompositions see a
bitwise-symmetric operand.
"""

import math
import threading

import numpy as np

from .errors import InvalidInputError, NotPsdError, SingularMatrixError

__all__ = [
    "as_symmetric",
    "inv_sqrt_pd",
    "off_diagonal_l1",
    "soft_threshold",
    "solve_pxq",
    "sqrt_psd",
    "vec",
]

# Tolerance for accepting a matrix as symmetric, relative to its largest
# entry in magnitude.
SYMMETRY_ATOL = 1e-12

# Relative floor of every eigenvalue verdict (_classify): an eigenvalue whose
# magnitude is at most this times the largest is null, so a matrix computed
# in float64 passes or fails at any scale. A matrix whose entries were
# rounded coarser than float64's, such as one read from text, widens each
# eigenvalue's floor by how far that rounding can have moved it
# (_rounding_band).
EIG_RELATIVE_FLOOR = 1e-10
_SMALLEST_NORMAL = float(np.finfo(float).tiny)

# How many of its latest PSD roots each thread keeps with their eigenpairs
# (see _keep_root): enough for the two factors of a solve and two more.
KEPT_ROOTS = 4
_kept = threading.local()


def as_symmetric(a):
    """Validate that `a` is a finite square symmetric matrix and symmetrize it.

    Parameters
    ----------
    a : array_like, shape (p, p)
        Matrix to validate.

    Returns
    -------
    ndarray
        float64 copy equal to a / 2 + a.T / 2, finite for every finite `a`.

    Raises
    ------
    InvalidInputError
        If `a` is not square, contains non-finite entries, or is asymmetric
        beyond SYMMETRY_ATOL times its largest entry in magnitude.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidInputError(f"expected a nonempty square matrix, got shape {a.shape}")
    if (a.view(np.int64) == a.T.view(np.int64)).all():
        # bit for bit symmetric, as every matrix this returns is: there is no
        # gap to measure, and a / 2 + a / 2 is a / 2 + a.T / 2
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("matrix contains non-finite entries")
        half = a / 2.0
        half += half
        return half
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    gap = np.max(np.abs(a - a.T))
    tol = SYMMETRY_ATOL * np.max(np.abs(a))
    if gap > tol:
        raise InvalidInputError(f"matrix is asymmetric: max |a - a.T| = {gap:.3e} > {tol:.3e}")
    # halving first is exact (barring subnormals) and cannot overflow
    return a / 2.0 + a.T / 2.0


def sqrt_psd(c):
    """Symmetric PSD square root of a symmetric PSD matrix.

    The null eigenvalues (_classify), those of magnitude at most
    EIG_RELATIVE_FLOOR times the largest, are set to zero first, so the root
    has the null space of c exactly; anything more negative raises.

    Raises
    ------
    NotPsdError
        If the smallest eigenvalue is below minus that floor.
    InvalidInputError
        If an eigenvalue of c is past float64's range.
    """
    return _sqrt_psd_top(c, 0)


def _sqrt_psd_top(c, rank, rounded=None):
    """sqrt_psd(c), keeping only the `rank` largest eigenvalues when 0 < rank < p.

    rounded = (m, bound) says that c = m a m for an a whose entries are
    each within bound of their exact values, as a covariance read from text
    is: c's eigenvalues are then judged with _rounding_band's widening.
    """
    c = as_symmetric(c)
    truncate = 0 < rank < c.shape[0]
    values, vectors = np.linalg.eigh(c) if truncate or rounded is not None else _eigh(c)
    rounding = 0.0 if rounded is None else _rounding_band(*rounded, vectors)
    null = _classify(values, require="psd", rounding=rounding)
    if truncate:
        null[:-rank] = True
    values[null] = 0.0
    root = _sqrt_from(values, vectors)
    if vectors is not None:
        _keep_root(root, np.sqrt(values), vectors)
    return root


def _rounding_band(m, bound, vectors):
    """How far rounding a's entries, each by at most bound, can move each eigenvalue of m a m.

    vectors are the eigenvectors of m a m, and m is symmetric (or 1-D, for
    diag(m)). An entrywise change E of a moves the eigenvalue of a simple
    eigenvector v by w.T E w to first order, with w = m v, so by at most
    |w|.T bound |w|. The band follows each direction through the whitener
    m: an eigenvalue far below the largest keeps a band as small as its
    own rounding, not one of the largest's scale. The second-order term is
    the square of that over the eigenvalue's gap to the others, far inside
    EIG_RELATIVE_FLOOR. A cluster of k null eigenvalues moves as the k x k
    matrix of those products, which can reach past its diagonal; over 40
    draws each of 1, 3 and 5 collinear columns at p = 16 (n = 80) and 117
    (n = 400), under identity and dense whiteners, every null eigenvalue
    of a 9-digit covariance stayed within 0.61 of its floor.
    """
    w = np.abs(m[:, None] * vectors if m.ndim == 1 else m @ vectors)
    return np.einsum("ik,ik->k", w, bound @ w)


def _keep_root(root, values, vectors):
    """Keep a copy of root with its eigenpairs (values ascending), for _eigenpairs.

    Each thread keeps its own KEPT_ROOTS latest, read-only, so no other
    thread and no caller can change what a thread finds there.
    """
    kept = (root.copy(), values, vectors)
    for a in kept:
        a.flags.writeable = False
    _kept.roots = (kept,) + getattr(_kept, "roots", ())[: KEPT_ROOTS - 1]


def _eigenpairs(a):
    """np.linalg.eigh(a), or the eigenpairs of a root this thread kept that a equals.

    A PSD root built from an eigendecomposition has, up to rounding, the
    square roots of the eigenvalues, the null ones set to zero, and the same
    eigenvectors, so a factor that is still such a root, entry for entry
    (precision_factor's under an identity whitener), is not decomposed
    again. A root changed in place, or any other matrix, is.
    """
    for root, values, vectors in getattr(_kept, "roots", ()):
        if np.array_equal(root, a):
            return values, vectors
    return np.linalg.eigh(a)


def inv_sqrt_pd(c):
    """Symmetric inverse square root of a symmetric positive definite matrix.

    Raises
    ------
    SingularMatrixError
        If c is not positive definite (_classify): its smallest eigenvalue is
        at or below 1e-10 * its largest, or float64's smallest normal number.
    InvalidInputError
        If an eigenvalue of c is past float64's range.
    """
    values, vectors = _eigh(as_symmetric(c))
    _classify(values, require="definite")
    return _inv_sqrt_from(values, vectors)


def _sqrt_and_inv_sqrt_pd(c, name):
    """(sqrt_psd(c), inv_sqrt_pd(c)) from one eigendecomposition of c, which as_symmetric gave.

    A diagonal c gives both as the 1-D diagonals of the roots, for scaling
    by broadcasting (see _congruence) rather than by p x p products with
    diagonal matrices. Raises NotPsdError where sqrt_psd would, and
    otherwise SingularMatrixError where inv_sqrt_pd would, each naming c
    as name.
    """
    values, vectors = _eigh(c)
    _classify(values, name, "psd")
    _classify(values, name, "definite")
    if vectors is None:
        return np.sqrt(values), 1.0 / np.sqrt(values)
    return _sqrt_from(values, vectors), _inv_sqrt_from(values, vectors)


def _congruence(m, a):
    """m @ a @ m, where a 1-D m stands for the diagonal matrix diag(m).

    The broadcast (m[:, None] * a) * m rounds each entry as the two products
    with diag(m) do, since their other terms are exact zeros.
    """
    if m.ndim == 1:
        return m[:, None] * a * m
    return m @ a @ m


def _eigh(c):
    """np.linalg.eigh of a symmetric c, without it for a diagonal c.

    A diagonal c gives its diagonal as the eigenvalues, in place rather than
    ascending, and None for the eigenvectors, which stands for the identity.
    The roots built from either agree bit for bit.
    """
    if _is_diagonal(c):
        return np.diagonal(c).copy(), None
    return np.linalg.eigh(c)


def _eigvalsh(c):
    """Ascending eigenvalues of a symmetric c: its sorted diagonal when c is diagonal.

    A diagonal c, whose eigenvalues are exact without it, skips
    np.linalg.eigvalsh, which costs 0.26 ms even on the p = 117 identity
    on one BLAS thread.
    """
    if _is_diagonal(c):
        return np.sort(np.diagonal(c))
    return np.linalg.eigvalsh(c)


def _is_diagonal(c):
    return np.count_nonzero(c) == np.count_nonzero(np.diagonal(c))


# The verdicts _classify makes: what the matrix must be, the eigenvalues
# judged, the comparison that fails, and the error it raises by default.
_VERDICTS = {
    "psd": ("positive semidefinite", "eig", "<", NotPsdError),
    "definite": ("positive definite", "eig", "<=", SingularMatrixError),
    "nonsingular": ("nonsingular", "|eig|", "<=", SingularMatrixError),
}


def _classify(values, name="matrix", require=None, error=None, rounding=0.0):
    """The null mask of the eigenvalues of a symmetric matrix called name, after checking them.

    The one place that decides whether an eigenvalue is null, and whether
    a matrix is positive semidefinite, definite or nonsingular. Each
    eigenvalue's floor is EIG_RELATIVE_FLOOR times the largest magnitude,
    which covers float64's rounding, plus rounding: 0 for a matrix computed
    in float64, or how far a coarser rounding of its entries can have moved
    each eigenvalue (_rounding_band). An eigenvalue is null when its
    magnitude is at most its floor, so no verdict depends on the matrix's
    scale. The matrix is "psd" when no eigenvalue is below minus its floor,
    "definite" when none is at or below its floor, and "nonsingular" when
    no magnitude is. Those two also need every eigenvalue above float64's
    smallest normal number, since its inverse root has lost precision or
    overflows. The null mask does not: a spectrum that is subnormal
    throughout (1e-320 I) keeps its full rank, as the same matrix at any
    other scale does, and run_admm judges a solve's scale on its own.

    Raises InvalidInputError naming the matrix when an eigenvalue is not
    finite, as eigvalsh gives for finite entries past float64's range.
    When require names a verdict that fails, raises error, by default the
    verdict's class in _VERDICTS, with a message that states the bound.
    """
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"{name} has an eigenvalue past float64's range")
    magnitudes = np.abs(values)
    floor = np.broadcast_to(EIG_RELATIVE_FLOOR * magnitudes.max() + rounding, values.shape)
    if require is not None:
        must, eig, fails, default = _VERDICTS[require]
        judged = magnitudes if eig == "|eig|" else values
        bound = -floor if require == "psd" else np.maximum(floor, _SMALLEST_NORMAL)
        failed = np.flatnonzero(judged < bound if fails == "<" else judged <= bound)
        if failed.size:
            k = failed[np.argmin(judged[failed])]
            raise (error or default)(
                f"{name} must be {must} (min {eig} {judged[k]:.3e} {fails} {bound[k]:.3e})"
            )
    return magnitudes <= floor


def _at_unit_scale(sigma, *others):
    """(sigma, *others), all divided by a power of four when sigma is small.

    The power of four brings sigma's largest diagonal entry into [1, 4)
    when that entry is below 1; otherwise nothing is divided. A regime's
    whitened covariance sigma^(1/2) C sigma^(1/2), whose roots
    sampling.precision_factor_from_covariance and estimator.plugin_delta
    take, scales with the square of sigma and underflows for a sigma below
    about 1e-154, but what those functions return is unchanged when sigma
    and C are divided by one number. A power of four divides exactly and
    has an exact square root. An `other` pushed past float64's range comes
    back with infinite entries.
    """
    _, exponent = math.frexp(np.max(np.diagonal(sigma)))
    if exponent >= 1:
        return (sigma, *others)
    scale = math.ldexp(1.0, 2 * ((exponent - 1) // 2))
    with np.errstate(over="ignore"):
        return tuple(a / scale for a in (sigma, *others))


def _sqrt_from(values, vectors):
    """The PSD root from nonnegative eigenvalues and their eigenvectors (None for the identity)."""
    if vectors is None:
        return np.diag(np.sqrt(values))
    root = (vectors * np.sqrt(values)) @ vectors.T
    return (root + root.T) / 2.0


def _inv_sqrt_from(values, vectors):
    if vectors is None:
        return np.diag(1.0 / np.sqrt(values))
    m = (vectors / np.sqrt(values)) @ vectors.T
    return (m + m.T) / 2.0


class PxqSolver:
    """Solver for P @ X @ Q + gamma * X = R from the eigenpairs of P and Q.

    P and Q must be symmetric positive semidefinite and gamma > 0, so every
    transformed denominator is at least gamma. Diagonalizing P = Up D Up.T and
    Q = Uq E Uq.T reduces the equation to an entrywise divide:

        X = Up (W * (Up.T @ R @ Uq)) Uq.T,   W[i, j] = 1 / (D[i] * E[j] + gamma)

    PxqSolver((D, Up), (E, Uq), gamma, dtype) takes the eigenpairs as
    _eigenpairs gives them, and takes its operands as given: callers
    validate them once at their own boundary (solve_pxq for outside input,
    estimator._FactorPair for a solve's factors), so the eigenpairs are
    those of PSD matrices of one shape, gamma is finite and positive, and
    each R is finite with their shape. The weights are formed in float64,
    and the solver holds them and the eigenvectors cast to dtype (themselves
    in float64) with one scratch matrix of that dtype.
    """

    def __init__(self, p_eigenpairs, q_eigenpairs, gamma, dtype=np.float64):
        (dvals, up), (evals, uq) = p_eigenpairs, q_eigenpairs
        weights = 1.0 / (np.multiply.outer(dvals, evals) + gamma)
        self._up, self._uq, self._weights = (a.astype(dtype, copy=False) for a in (up, uq, weights))
        self._scratch = np.empty_like(self._weights)

    def solve(self, r, out=None):
        """The X with P @ X @ Q + gamma * X = R, written into out (by default a new array).

        X is formed in the solver's dtype, which out must have, so a call
        with out allocates nothing.
        """
        if out is None:
            out = np.empty_like(self._weights)
        up, uq, scratch = self._up, self._uq, self._scratch
        np.matmul(up.T, r, out=scratch)
        np.matmul(scratch, uq, out=out)
        out *= self._weights
        np.matmul(up, out, out=scratch)
        return np.matmul(scratch, uq.T, out=out)


def inverse_geometric_mean(w, c):
    """G = (P # Q)^-1 from the joint diagonalization W.T P W = I, W.T Q W = diag(c).

    P # Q = P^1/2 (P^-1/2 Q P^-1/2)^1/2 P^1/2 is the matrix geometric mean
    (Bhatia, Positive Definite Matrices, 2007, ch. 4), and
    G = W diag(c^-1/2) W.T. The null eigenvalues of C are raised first
    (_preconditioner_eigenvalues), as estimator._FactorPair's
    joint_diagonalizer raises P's, so G is finite, exactly symmetric and
    positive definite for singular factors too. X -> G X G inverts X -> (P # Q) X (P # Q). With X = W Y W.T,
    P X Q + Q X P = W^-T [(c_i + c_j) Y_ij] W^-1 and 2 (P # Q) X (P # Q) =
    W^-T [2 (c_i c_j)^1/2 Y_ij] W^-1, so on symmetric X the two differ by at
    most the ratio of the arithmetic to the geometric mean of a pair of
    eigenvalues of C.
    """
    half = w / np.sqrt(np.sqrt(_preconditioner_eigenvalues(c)))
    g = half @ half.T
    return (g + g.T) / 2.0


def _preconditioner_eigenvalues(values):
    """Ascending PSD eigenvalues, the null ones raised for inversion.

    The null eigenvalues (_classify) rise to the smallest of the others, or
    to 1 when all are null (a zero matrix). P # Q is singular wherever a
    factor is, but X -> P X Q + Q X P is not zero on those directions, and
    a preconditioner that scaled them by the inverse square root of a small
    floor made conjugate gradients slower than none on factors from n < p
    samples.
    """
    null = int(np.count_nonzero(_classify(values)))
    if null == values.size:
        return np.ones_like(values)
    return np.maximum(values, values[null])


def solve_pxq(p, q, r, gamma):
    """Solve the linear matrix equation P @ X @ Q + gamma * X = R once.

    Validates all four inputs, then solves with a :class:`PxqSolver`, whose
    docstring gives the method and the requirements on P, Q and gamma; a P
    or Q that is not positive semidefinite raises NotPsdError naming it.

    Returns
    -------
    ndarray
        The unique solution X, same shape as R.
    """
    if not np.isfinite(gamma) or gamma <= 0:
        raise InvalidInputError(f"gamma must be a positive real, got {gamma!r}")
    p = as_symmetric(p)
    q = as_symmetric(q)
    r = np.asarray(r, dtype=float)
    if r.shape != p.shape or q.shape != p.shape:
        raise InvalidInputError(
            f"shape mismatch: P {p.shape}, Q {q.shape}, R {r.shape} must all agree"
        )
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("right-hand side contains non-finite entries")
    eigenpairs = [_eigenpairs(p), _eigenpairs(q)]
    for name, (values, _) in zip("PQ", eigenpairs):
        _classify(values, name, "psd")
    return PxqSolver(*eigenpairs, gamma).solve(r)


def soft_threshold(a, lam, *, off_diagonal_only=False):
    """Entrywise soft thresholding sign(a) * max(|a| - lam, 0).

    With `off_diagonal_only`, diagonal entries pass through unchanged
    (requires a square input).
    """
    if not np.isfinite(lam) or lam < 0:
        raise InvalidInputError(f"threshold must be a nonnegative real, got {lam!r}")
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    _soft_threshold_into(a, lam, out, np.empty_like(a))
    if off_diagonal_only:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError("off_diagonal_only requires a square matrix")
        np.fill_diagonal(out, np.diagonal(a))
    # a 0-d input gives a scalar, as a ufunc would
    return out if out.ndim else out[()]


def _soft_threshold_into(a, lam, out, scratch):
    """out = sign(a) * max(|a| - lam, 0), allocating nothing; scratch takes sign(a)."""
    np.abs(a, out=out)
    out -= lam
    np.maximum(out, 0.0, out=out)
    out *= np.sign(a, out=scratch)


def vec(a):
    """Column-stack a matrix into a vector (Fortran order)."""
    return np.asarray(a, dtype=float).flatten(order="F")


def off_diagonal_l1(a):
    """Sum of absolute values of the off-diagonal entries of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    return float(np.sum(np.abs(a)) - np.sum(np.abs(np.diagonal(a))))
