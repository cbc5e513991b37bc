"""Sampling node potentials and forming square-root precision factors.

The observation model: injections x ~ N(0, sigma_x) enter a network with
symmetric nonsingular system matrix b, and the observed potentials solve
b @ y = x. Rows of all sample arrays are observations, columns are nodes.
"""

import math

import numpy as np

from .errors import InvalidInputError
from .linalg import (
    _classify,
    _congruence,
    _sqrt_and_inv_sqrt_pd,
    _sqrt_psd_top,
    as_symmetric,
    sqrt_psd,
)

__all__ = [
    "precision_factor",
    "precision_factor_from_covariance",
    "sample_covariance",
    "sample_potentials",
]

# Samples whose largest |entry| lies in [1 / SAMPLE_SPAN, SAMPLE_SPAN] are
# used as they are: their uncentered covariance's largest entries then lie
# within 2^+-512, far from float64's subnormals (below 2^-1022) and overflow.
SAMPLE_SPAN = 2.0**256


def sample_potentials(b, sigma_x, n, seed=0):
    """Draw n potential vectors y = b^{-1} x with x ~ N(0, sigma_x).

    Returns an (n, p) array. Deterministic for fixed inputs and seed; `seed`
    may be anything numpy's default_rng accepts (int or a sequence of ints).
    b must be nonsingular (linalg._classify), as every NetworkScenario's b1
    and b2 already are.

    Raises
    ------
    SingularMatrixError
        If b is numerically singular: its smallest |eigenvalue| is at or
        below EIG_RELATIVE_FLOOR times its largest, or float64's smallest
        normal number.
    InvalidInputError
        If an eigenvalue of b is past float64's range.
    """
    b = as_symmetric(b)
    sigma_x = as_symmetric(sigma_x)
    if sigma_x.shape != b.shape:
        raise InvalidInputError(f"sigma_x shape {sigma_x.shape} != b shape {b.shape}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n!r}")
    _classify(np.linalg.eigvalsh(b), "b", "nonsingular")
    return _draw_potentials(b, sigma_x, n, seed)


def _draw_potentials(b, sigma_x, n, seed):
    """sample_potentials for a symmetric b already known to clear the floor, and a symmetric sigma_x.

    It does not look at b's eigenvalues again: that eigvalsh call would cost
    0.57 ms per p = 117 base on one BLAS thread, and a sweep cell samples two.
    """
    root = sqrt_psd(sigma_x)
    transfer = np.linalg.solve(b, root)  # b^{-1} sigma_x^{1/2}
    z = np.random.default_rng(seed).standard_normal((int(n), b.shape[0]))
    return z @ transfer.T


def sample_covariance(samples):
    """Uncentered second-moment matrix Y.T @ Y / n of the rows of `samples`.

    It is PSD for every n, including n < p, and exactly symmetric.

    Raises
    ------
    InvalidInputError
        If `samples` is not a nonempty (n, p) array of finite entries, or
        the matrix overflows ("matrix contains non-finite entries").
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise InvalidInputError(f"expected a nonempty (n, p) array, got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise InvalidInputError("samples contain non-finite entries")
    # an overflow is reported by the error below, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        cov = samples.T @ samples / samples.shape[0]
        cov = (cov + cov.T) / 2.0
    if not np.all(np.isfinite(cov)):
        raise InvalidInputError("matrix contains non-finite entries")
    return cov


def _at_sample_scale(samples):
    """(samples / s, s), s a power of two that is 1 unless max |samples| is outside SAMPLE_SPAN.

    Outside it, s brings the largest |entry| into [0.5, 1). The uncentered
    covariance squares the samples, so it would underflow or overflow
    there, but the precision factor is proportional to the samples, and
    plugin_delta's estimate to their inverse, so each is computed from
    samples / s and scaled back exactly, as _whitened does for sigma.
    Samples that are not finite, or not a matrix, come back as they
    are, for sample_covariance to reject.
    """
    samples = np.asarray(samples, dtype=float)
    largest = max(float(samples.max(initial=0.0)), -float(samples.min(initial=0.0)))
    if 1.0 / SAMPLE_SPAN <= largest <= SAMPLE_SPAN or not math.isfinite(largest):
        return samples, 1.0
    scale = math.ldexp(1.0, math.frexp(largest)[1])
    return samples / scale, scale


def precision_factor(samples, sigma_x):
    """Square-root precision factor of one regime from raw potentials.

    precision_factor_from_covariance applied to the uncentered covariance of
    the rows, with the row count as n_used. Returns the symmetric p x p
    factor, proportional to the samples at any scale (_at_sample_scale).
    """
    samples, scale = _at_sample_scale(samples)
    factor = precision_factor_from_covariance(sample_covariance(samples), sigma_x, len(samples))
    return factor * scale


def precision_factor_from_covariance(cov_y, sigma_x, n_used=0, *, _precision=0.0):
    """Square-root precision factor from the uncentered covariance of the potentials.

    With m = sigma_x^{1/2} and s = m @ cov_y @ m the whitened covariance
    (_whitened), the factor is m^{-1} @ sqrt_psd(s) @ m^{-1}, which for a
    population cov_y equals b^{-1}, the inverse system matrix. PSD
    square roots keep it defined for every sample size. The null
    eigenvalues of s, judged on s's own scale (linalg._classify), are set
    to zero before the root is taken, so the factor has s's null space
    exactly, whether the samples were fewer than p, repeated or collinear.
    n_used counts the observations behind cov_y (0 for a population
    covariance); at 0 < n_used < p, s has rank n_used, so only its n_used
    largest eigenvalues are kept: the rest are rounding. All p eigenvalues
    decide whether s is PSD. _precision is the relative precision of
    cov_y's entries when it was read from text (matio.TEXT_PRECISION), 0
    for float64: each eigenvalue of s is then judged with the band by which
    rounding cov_y's entries can have moved it (linalg._rounding_band), so
    a null eigenvalue of the exact covariance stays null, and a small real
    one that clears its own band is kept. Returns the symmetric p x p
    factor, which is unchanged when cov_y and sigma_x are divided by one
    number. Raises what _whitened raises on a bad sigma_x or shape.
    """
    root, m_inv, cov_y, s = _whitened(cov_y, sigma_x)
    n_used = int(n_used)
    # a float64 root that keeps every eigenvalue goes through sqrt_psd, the
    # name perfbench's linalg.root span wraps
    if 0 < n_used < len(s) or _precision:
        rounded = (root, _precision * np.abs(cov_y)) if _precision else None
        whitened_root = _sqrt_psd_top(s, n_used, rounded)
    else:
        whitened_root = sqrt_psd(s)
    factor = _congruence(m_inv, whitened_root)
    return (factor + factor.T) / 2.0


def _whitened(cov_y, sigma_x):
    """(m, m^{-1}, cov_y, s): the whitening of a covariance cov_y of the potentials by sigma_x.

    m = sigma_x^{1/2}, and s = m @ cov_y @ m is the second moment of the
    whitened potentials y @ m, exactly symmetric. The precision factor,
    plugin_delta and exact_delta all start from it, so every verdict on a
    sigma_x is made here: both inputs pass as_symmetric and must agree in
    shape, and sigma_x must be positive definite (NotPsdError, then
    SingularMatrixError, naming sigma_x). Both roots come from one
    eigendecomposition, as 1-D diagonals for a diagonal sigma_x
    (linalg._sqrt_and_inv_sqrt_pd). s scales with the square of sigma_x
    and would underflow for a sigma_x below about 1e-154, but what each
    caller takes from it is unchanged when sigma_x and cov_y are divided by
    one number: a sigma_x whose largest diagonal entry is below 1 is
    therefore brought into [1, 4) first, with cov_y, by a power of four,
    which divides exactly and has an exact square root. The cov_y returned
    is the one so divided. An s with entries past float64's range is an
    InvalidInputError naming sigma_x.
    """
    cov_y = as_symmetric(cov_y)
    sigma_x = as_symmetric(sigma_x)
    if cov_y.shape != sigma_x.shape:
        raise InvalidInputError(
            f"covariance shape {cov_y.shape} != sigma_x shape {sigma_x.shape}"
        )
    _, exponent = math.frexp(np.max(np.diagonal(sigma_x)))
    if exponent < 1:
        scale = math.ldexp(1.0, 2 * ((exponent - 1) // 2))
        # a cov_y pushed past float64's range is reported below
        with np.errstate(over="ignore"):
            sigma_x, cov_y = sigma_x / scale, cov_y / scale
    root, m_inv = _sqrt_and_inv_sqrt_pd(sigma_x, "sigma_x")
    # the product is symmetric only to rounding, which grows with its entries;
    # an overflow is reported below by name, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        s = _congruence(root, cov_y)
        s = (s + s.T) / 2.0
    if not np.all(np.isfinite(s)):
        raise InvalidInputError(
            "sigma_x is too large for these potentials: the whitened covariance "
            "sigma_x^(1/2) cov_y sigma_x^(1/2) has entries past float64's range"
        )
    return root, m_inv, cov_y, s
