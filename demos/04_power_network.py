"""
Estimating line changes on the 118-bus test network
===================================================

Power grids obey the same conservation law: injected power maps to bus
angles through a susceptance-weighted Laplacian. This script parses the
bundled 118-bus transmission case, builds its DC Laplacian, grounds the
slack bus, overlays a sparse change, and recovers that change from angle
observations alone.
"""

import numpy as np

from lapdiff import (
    SolverConfig,
    case_laplacian,
    estimate_delta,
    lattice_delta,
    load_case118,
    precision_factor,
    reduce_ground_node,
    sample_potentials,
)
from lapdiff.experiments import support_recovered, sup_norm_error

case = load_case118()
lap, ground = case_laplacian(case, "dc")
print(f"case {case.name}: {len(case.buses)} buses, {len(case.branches)} branches")
print(f"slack bus id {case.bus_ids[ground]} grounds the Laplacian")

reduced = reduce_ground_node(lap, ground)
p = reduced.shape[0]
eigs = np.linalg.eigvalsh(reduced)
print(f"reduced Laplacian: {p}x{p}, eigenvalues {eigs[0]:.3f} .. {eigs[-1]:.1f}")

# the raw grid is stiff (condition number ~3000); scale it so the
# precision factors are order one, then overlay a strong sparse change
b1 = reduced / 600.0
delta = lattice_delta(p, weight_range=(4.0, 4.0), seed=3)
b2 = b1 + delta
sigma = np.eye(p)

n = 400
y1 = sample_potentials(b1, sigma, n, seed=40)
y2 = sample_potentials(b2, sigma, n, seed=41)
lam = 2.0 * np.sqrt(np.log(p) / n)
est = estimate_delta(
    precision_factor(y1, sigma),
    precision_factor(y2, sigma),
    SolverConfig(lam=lam, rho=0.1, max_iter=2000),
)
print(f"\nn = {n}, lambda = {lam:.3f}, stop: {est.stop} after {est.iterations} iterations")
print(f"support recovered: {support_recovered(est.delta, delta, 2.0)}")
print(f"sup-norm error: {sup_norm_error(est.delta, delta):.3f}")
