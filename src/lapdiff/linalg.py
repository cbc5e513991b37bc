"""Dense symmetric-matrix numerics shared by the rest of the package.

Everything here works on plain float64 numpy arrays, except that
PxqSolver.solve can also write its solution in float32. Matrices that are
symmetric by contract are validated and then stored in exactly
symmetrized form (A + A.T) / 2 so downstream eigendecompositions see a
bitwise-symmetric operand.
"""

import numpy as np

from .errors import InvalidInputError, NotPsdError, SingularMatrixError

# Absolute tolerance for accepting a matrix as symmetric.
SYMMETRY_ATOL = 1e-12

# Relative floor used when classifying eigenvalues, scaled by max(1, largest
# eigenvalue) so that tiny matrices are not judged with an absurdly tight bar.
EIG_RELATIVE_FLOOR = 1e-10


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
        beyond SYMMETRY_ATOL.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidInputError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    gap = np.max(np.abs(a - a.T))
    if gap > SYMMETRY_ATOL:
        raise InvalidInputError(
            f"matrix is asymmetric: max |a - a.T| = {gap:.3e} > {SYMMETRY_ATOL:.0e}"
        )
    # halving first is exact (barring subnormals) and cannot overflow
    return a / 2.0 + a.T / 2.0


def sqrt_psd(c):
    """Symmetric PSD square root of a symmetric PSD matrix.

    Eigenvalues in [-eps, 0) are clipped to zero, with
    eps = 1e-10 * max(1, largest eigenvalue); anything more negative raises.

    Raises
    ------
    NotPsdError
        If the smallest eigenvalue is below the clip threshold.
    """
    return _sqrt_psd_top(c, 0)


def _sqrt_psd_top(c, rank):
    """sqrt_psd(c) keeping only the `rank` largest eigenvalues when 0 < rank < p."""
    c = as_symmetric(c)
    truncate = 0 < rank < c.shape[0]
    values, vectors = np.linalg.eigh(c) if truncate else _eigh(c)
    _require_psd(values)
    if truncate:
        values[:-rank] = 0.0
    return _sqrt_from(values, vectors)


def inv_sqrt_pd(c):
    """Symmetric inverse square root of a symmetric positive definite matrix.

    Raises
    ------
    SingularMatrixError
        If the smallest eigenvalue is at or below
        1e-10 * max(1, largest eigenvalue).
    """
    values, vectors = _eigh(as_symmetric(c))
    _require_pd(values)
    return _inv_sqrt_from(values, vectors)


def _sqrt_and_inv_sqrt_pd(c):
    """(sqrt_psd(c), inv_sqrt_pd(c)) from one eigendecomposition of c.

    A diagonal c gives both as the 1-D diagonals of the roots, for scaling
    by broadcasting (see _congruence) rather than by p x p products with
    diagonal matrices. Raises NotPsdError where sqrt_psd would, and
    otherwise SingularMatrixError where inv_sqrt_pd would.
    """
    values, vectors = _eigh(as_symmetric(c))
    _require_psd(values)
    _require_pd(values)
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

    np.linalg.eigvalsh holds the GIL for the whole LAPACK call (see
    tools/gil_probe.py), so a diagonal c, whose eigenvalues are exact
    without it, skips it.
    """
    if _is_diagonal(c):
        return np.sort(np.diagonal(c))
    return np.linalg.eigvalsh(c)


def _is_diagonal(c):
    return np.count_nonzero(c) == np.count_nonzero(np.diagonal(c))


def _require_psd(values):
    clip = EIG_RELATIVE_FLOOR * max(1.0, values.max())
    if values.min() < -clip:
        raise NotPsdError(
            f"matrix is not positive semidefinite: min eigenvalue {values.min():.6e} < -{clip:.1e}"
        )


def _require_pd(values):
    floor = EIG_RELATIVE_FLOOR * max(1.0, values.max())
    if values.min() <= floor:
        raise SingularMatrixError(
            f"matrix is numerically singular: min eigenvalue {values.min():.6e} <= {floor:.1e}"
        )


def _sqrt_from(values, vectors):
    if vectors is None:
        return np.diag(np.sqrt(np.clip(values, 0.0, None)))
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.T
    return (root + root.T) / 2.0


def _inv_sqrt_from(values, vectors):
    if vectors is None:
        return np.diag(1.0 / np.sqrt(values))
    m = (vectors / np.sqrt(values)) @ vectors.T
    return (m + m.T) / 2.0


class PxqSolver:
    """Solver for P @ X @ Q + gamma * X = R that decomposes P and Q once.

    P and Q must be symmetric positive semidefinite and gamma > 0, so every
    transformed denominator is at least gamma. Diagonalizing P = Up D Up.T and
    Q = Uq E Uq.T reduces the equation to an entrywise divide:

        X = Up (W * (Up.T @ R @ Uq)) Uq.T,   W[i, j] = 1 / (D[i] * E[j] + gamma)

    Operands are taken as given: callers validate them once at their own
    boundary (solve_pxq for outside input, run_admm for its factors), so P
    and Q arrive exactly symmetric and equal-shaped, gamma finite and
    positive, and each R finite with their shape.

    The eigenpairs stay available through null_bases and
    inverse_geometric_mean, so a caller can inspect the factors' null spaces
    or precondition with their geometric mean without decomposing them again.
    """

    def __init__(self, p, q, gamma):
        self._dvals, self._up = np.linalg.eigh(p)
        self._evals, self._uq = np.linalg.eigh(q)
        self._weights = 1.0 / (np.multiply.outer(self._dvals, self._evals) + gamma)
        self._cast = {}

    def null_bases(self):
        """Orthonormal bases (p x k) of the numerical null spaces of P and Q.

        An eigenvector belongs to the null space when its eigenvalue is at
        most EIG_RELATIVE_FLOOR times the largest in magnitude. The floor is
        relative to that eigenvalue alone, so rescaling a factor does not
        change its null space. A full-rank factor gives k = 0.
        """
        return _null_basis(self._dvals, self._up), _null_basis(self._evals, self._uq)

    def solve(self, r, out=None):
        """The X with P @ X @ Q + gamma * X = R, written into out if given.

        With out, X is formed in out's dtype, from the eigenvectors and
        weights rounded to it and one scratch matrix, all kept from the
        first call in that dtype, so a call allocates nothing. In float64
        it equals the X returned without out bit for bit.
        """
        if out is None:
            return self._up @ (self._weights * (self._up.T @ r @ self._uq)) @ self._uq.T
        if out.dtype not in self._cast:
            up, uq, weights = (a.astype(out.dtype) for a in (self._up, self._uq, self._weights))
            self._cast[out.dtype] = up, uq, weights, np.empty_like(out)
        up, uq, weights, scratch = self._cast[out.dtype]
        np.matmul(up.T, r, out=scratch)
        np.matmul(scratch, uq, out=out)
        out *= weights
        np.matmul(up, out, out=scratch)
        return np.matmul(scratch, uq.T, out=out)

    def inverse_geometric_mean(self):
        """(G, lmax(P) lmax(Q)), with G = (P # Q)^-1.

        P # Q = P^1/2 (P^-1/2 Q P^-1/2)^1/2 P^1/2 is the matrix geometric
        mean (Bhatia, Positive Definite Matrices, 2007, ch. 4). With
        m = P^-1/2 and C = m Q m = V diag(c) V.T, G = (m V) diag(c^-1/2) (m V).T.
        The null eigenvalues of P and of C are raised first
        (_preconditioner_eigenvalues), so G is finite, exactly symmetric and
        positive definite for singular factors too. X -> G X G inverts
        X -> (P # Q) X (P # Q). With Y = P^1/2 X P^1/2 in the eigenbasis of
        C, P X Q + Q X P scales Y_ij by c_i + c_j and 2 (P # Q) X (P # Q) by
        2 (c_i c_j)^1/2, so on symmetric X the two differ by at most the
        ratio of the arithmetic to the geometric mean of a pair of
        eigenvalues of C. lmax(P) lmax(Q) is the largest eigenvalue of
        P (x) Q.
        """
        dvals = _preconditioner_eigenvalues(self._dvals)
        m = (self._up / np.sqrt(dvals)) @ self._up.T
        root = (m @ self._uq) * np.sqrt(np.clip(self._evals, 0.0, None))
        cvals, v = np.linalg.eigh(root @ root.T)
        half = (m @ v) / np.sqrt(np.sqrt(_preconditioner_eigenvalues(cvals)))
        g = half @ half.T
        return (g + g.T) / 2.0, float(self._dvals[-1] * self._evals[-1])


def _preconditioner_eigenvalues(values):
    """Ascending PSD eigenvalues, the null ones raised for inversion.

    Eigenvalues at most EIG_RELATIVE_FLOOR times the largest are null and
    rise to the smallest of the others. P # Q is singular wherever a factor
    is, but X -> P X Q + Q X P is not zero on those directions, and a
    preconditioner that scaled them by the inverse square root of a small
    floor made conjugate gradients slower than none on factors from n < p
    samples.
    """
    null = int(np.count_nonzero(values <= EIG_RELATIVE_FLOOR * values[-1]))
    return np.maximum(values, values[min(null, values.size - 1)])


def _null_basis(values, vectors):
    magnitudes = np.abs(values)
    return vectors[:, magnitudes <= EIG_RELATIVE_FLOOR * np.max(magnitudes)]


def solve_pxq(p, q, r, gamma):
    """Solve the linear matrix equation P @ X @ Q + gamma * X = R once.

    Validates all four inputs, then solves with a :class:`PxqSolver`, whose
    docstring gives the method and the requirements on P, Q and gamma.

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
    return PxqSolver(p, q, gamma).solve(r)


def soft_threshold(a, lam, *, off_diagonal_only=False):
    """Entrywise soft thresholding sign(a) * max(|a| - lam, 0).

    With `off_diagonal_only`, diagonal entries pass through unchanged
    (requires a square input).
    """
    if not np.isfinite(lam) or lam < 0:
        raise InvalidInputError(f"threshold must be a nonnegative real, got {lam!r}")
    a = np.asarray(a, dtype=float)
    out = np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)
    if off_diagonal_only:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError("off_diagonal_only requires a square matrix")
        np.fill_diagonal(out, np.diagonal(a))
    return out


def vec(a):
    """Column-stack a matrix into a vector (Fortran order)."""
    return np.asarray(a, dtype=float).flatten(order="F")


def off_diagonal_l1(a):
    """Sum of absolute values of the off-diagonal entries of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    return float(np.sum(np.abs(a)) - np.sum(np.abs(np.diagonal(a))))
