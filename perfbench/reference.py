"""Independent reference solves, the well-posed/unbounded classifier, and the
reference cache.

The benchmark checks the program against solutions it computes itself. The
reference solver below is a different algorithm from the library's
three-copy consensus ADMM: a two-block scaled ADMM (Boyd et al. 2011,
sections 3.1, 3.3 and 3.4.1) on the same penalized D-trace problem

    minimize over symmetric D   0.5 tr(P1 D P2 D) - <D, P1 - P2> + lam |D|_off,1

with residual-balancing rho, stopped at tight absolute and relative
tolerances and certified by the problem's optimality (KKT) conditions. Only
numpy is used here, so a defect in the library's own linear algebra cannot
leak into its reference.
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

WELL_POSED = "well-posed"
UNBOUNDED = "unbounded"

REF_TOL_ABS = 1e-12
REF_TOL_REL = 1e-11
REF_MAX_ITER = 200000
# KKT residual, relative to max(1, max |P1 - P2|), that certifies a reference.
REF_KKT_TOL = 1e-8
# Eigenvalues at or below this fraction of the largest count as the null
# space of a precision factor.
NULL_FRACTION = 1e-10


def psd_sqrt(c):
    """Symmetric PSD square root by eigendecomposition, tiny negatives clipped."""
    c = (c + c.T) / 2.0
    values, vectors = np.linalg.eigh(c)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.T
    return (root + root.T) / 2.0


def factor_from_samples(samples):
    """Square-root precision factor for identity injection covariance.

    With sigma_x = I the whitener is the identity, and the factor is the PSD
    square root of the uncentered sample second moment Y^T Y / n.
    """
    y = np.asarray(samples, dtype=float)
    return psd_sqrt(y.T @ y / y.shape[0])


def kkt_residual(delta, psi1, psi2, lam):
    """Largest violation of the optimality conditions at a symmetric delta."""
    grad = 0.5 * (psi1 @ delta @ psi2 + psi2 @ delta @ psi1) - (psi1 - psi2)
    active = delta != 0.0
    viol = np.where(active, np.abs(grad + lam * np.sign(delta)), np.maximum(np.abs(grad) - lam, 0.0))
    np.fill_diagonal(viol, np.abs(np.diagonal(grad)))
    return float(np.max(viol))


def recession_certificate(psi1, psi2, lam):
    """True when a direction proves the penalized objective unbounded below.

    A symmetric V with Q1 V Q2 = 0 (Qi the projector onto range(Pi)) lies in
    the kernel of the quadratic term, so along t V the objective is
    t (lam |V|_off,1 - <V, P1 - P2>). Candidates are -N1 P2 N1 and N2 P1 N2
    with Ni = I - Qi; either proves unboundedness when its slope is negative.
    """
    candidates = []
    for a, b, sign in ((psi1, psi2, -1.0), (psi2, psi1, 1.0)):
        values, vectors = np.linalg.eigh(a)
        null = vectors[:, values <= NULL_FRACTION * max(values[-1], 1e-300)]
        if null.shape[1] == 0:
            continue
        n_proj = null @ null.T
        candidates.append(sign * (n_proj @ b @ n_proj))
    c = psi1 - psi2
    for v in candidates:
        off = float(np.sum(np.abs(v)) - np.sum(np.abs(np.diagonal(v))))
        if float(np.sum(v * c)) > lam * off * (1.0 + 1e-6) + 1e-12:
            return True
    return False


def solve(psi1, psi2, lam):
    """Two-block ADMM reference solve; returns (delta, converged)."""
    p = psi1.shape[0]
    a, v1 = np.linalg.eigh(psi1)
    b, v2 = np.linalg.eigh(psi2)
    c = psi1 - psi2
    ab = np.multiply.outer(a, b)
    rho = 1.0
    weights = 1.0 / (ab + rho)
    z = np.zeros((p, p))
    u = np.zeros((p, p))
    off = ~np.eye(p, dtype=bool)
    for _ in range(REF_MAX_ITER):
        rhs = c + rho * (z - u)
        d = v1 @ (weights * (v1.T @ rhs @ v2)) @ v2.T
        w = d + u
        w = (w + w.T) / 2.0
        z_old = z
        z = np.where(off, np.sign(w) * np.maximum(np.abs(w) - lam / rho, 0.0), w)
        u = u + d - z
        r = np.linalg.norm(d - z)
        s = rho * np.linalg.norm(z - z_old)
        eps_pri = p * REF_TOL_ABS + REF_TOL_REL * max(np.linalg.norm(d), np.linalg.norm(z))
        eps_dual = p * REF_TOL_ABS + REF_TOL_REL * rho * np.linalg.norm(u)
        if r <= eps_pri and s <= eps_dual:
            return z, True
        if not math.isfinite(r):
            break
        if r > 10.0 * s:
            rho *= 2.0
            u /= 2.0
            weights = 1.0 / (ab + rho)
        elif s > 10.0 * r:
            rho /= 2.0
            u *= 2.0
            weights = 1.0 / (ab + rho)
    return z, False


@dataclass
class Reference:
    """The reference verdict on one problem: its class and, if well posed, its solution."""

    kind: str
    delta: np.ndarray | None = None

    @property
    def scale(self):
        return float(np.max(np.abs(self.delta)))


def classify(psi1, psi2, lam):
    """Classify one problem and, when it is well posed, solve it tightly.

    Raises RuntimeError when neither the certificate nor a certified
    solve settles the problem, so an unclassified operation never counts.
    """
    if recession_certificate(psi1, psi2, lam):
        return Reference(UNBOUNDED)
    delta, converged = solve(psi1, psi2, lam)
    kkt = kkt_residual(delta, psi1, psi2, lam)
    if not converged or kkt > REF_KKT_TOL * max(1.0, float(np.max(np.abs(psi1 - psi2)))):
        raise RuntimeError(
            f"reference solve not certified: converged={converged}, KKT residual {kkt:.3e}"
        )
    return Reference(WELL_POSED, delta)


def fingerprint(psi1, psi2, lam):
    """Content key of one problem: both factors and the penalty weight."""
    digest = hashlib.sha256()
    for array in (psi1, psi2):
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    digest.update(repr(float(lam)).encode())
    return digest.hexdigest()


def cached_reference(psi1, psi2, lam, cache_dir):
    """classify() with its result kept on disk under the problem's fingerprint."""
    path = os.path.join(cache_dir, fingerprint(psi1, psi2, lam)[:32] + ".npz")
    if os.path.exists(path):
        with np.load(path) as data:
            kind = str(data["kind"])
            delta = data["delta"] if kind == WELL_POSED else None
            return Reference(kind, delta)
    result = classify(psi1, psi2, lam)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + ".tmp.npz"
    np.savez(tmp, kind=result.kind, delta=result.delta if result.delta is not None else np.zeros(0))
    os.replace(tmp, path)
    return result
