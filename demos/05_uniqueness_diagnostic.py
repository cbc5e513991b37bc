"""
When is the penalized solution unique?
======================================

The quadratic part of the loss has Hessian (P1 x P2 + P2 x P1) / 2 in
Kronecker form. When both precision factors are positive definite the
Hessian is too, and the minimizer is unique. With rank-deficient factors
(always the case when n < p) the Hessian picks up a kernel, and uniqueness
rests on how the penalty behaves along kernel directions. The diagnostic
never forms that p^2 x p^2 matrix: it reads the kernel dimension off the
factors' ranks and the overlap of their ranges, and evaluates the two
uniqueness conditions on the recession candidates, the kernel directions
that move the linear term the most.
"""

import time

import numpy as np

from lapdiff import (
    case_laplacian,
    lattice_delta,
    load_case118,
    precision_factor,
    reduce_ground_node,
    sample_potentials,
    uniqueness_check,
)

rng = np.random.default_rng(8)
p = 6


def rotated(eigs, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    return (q * np.array(eigs)) @ q.T


# a positive definite pair: kernel dimension zero, verdict unique
pd1 = rotated(rng.uniform(0.5, 2.0, p), 21)
pd2 = rotated(rng.uniform(0.5, 2.0, p), 22)
rep = uniqueness_check(pd1, pd2, tau=1.0)
print(f"PD pair:            kernel_dim = {rep.kernel_dim}, verdict = {rep.verdict}")

# a rank-deficient pair sharing an eigenbasis: the Hessian eigenvalues are
# (a_i b_j + a_j b_i) / 2, so zeros of the factors produce a known kernel
a = (0.0, 0.0, 1.0, 1.0, 2.0, 3.0)
b = (0.0, 1.0, 1.0, 2.0, 2.0, 4.0)
low1 = rotated(a, 23)
low2 = rotated(b, 23)  # same rotation keeps the closed-form kernel count
expected = sum(
    1 for i in range(p) for j in range(p) if a[i] * b[j] + a[j] * b[i] == 0.0
)
rep = uniqueness_check(low1, low2, tau=1.0)
print(f"rank-deficient pair: kernel_dim = {rep.kernel_dim} (closed form {expected})")
print(f"                     verdict = {rep.verdict}")
print(f"                     worst inner condition value  = {rep.condition_inner:.3e}")
print(f"                     worst off-diagonal l1 of d   = {rep.condition_norm:.3f}")
print(f"                     tau = {rep.tau}")

# paper scale: the 118-bus grid (p = 117) observed n = 77 times per regime.
# Each factor has rank n, and two generic n-dimensional ranges in R^p meet
# in 2n - p dimensions, so the kernel has dimension p^2 - 2 n^2 + (2n - p)^2.
# The dense Hessian would be 13689 x 13689.
grid_b1 = reduce_ground_node(*case_laplacian(load_case118(), "dc")) / 600.0
big_p, n = grid_b1.shape[0], 77
grid_b2 = grid_b1 + lattice_delta(big_p, weight_range=(4.0, 4.0), seed=3)
sigma = np.eye(big_p)
factors = [
    precision_factor(sample_potentials(b, sigma, n, seed=seed), sigma)
    for b, seed in ((grid_b1, 50), (grid_b2, 51))
]
start = time.perf_counter()
rep = uniqueness_check(*factors, tau=1.0)
elapsed_ms = (time.perf_counter() - start) * 1000.0
expected = big_p**2 - 2 * n**2 + max(0, 2 * n - big_p) ** 2
print(f"\n118-bus grid, p = {big_p}, n = {n}:")
print(f"                     kernel_dim = {rep.kernel_dim} (closed form {expected})")
print(f"                     verdict = {rep.verdict}, checked in {elapsed_ms:.1f} ms")
