#!/usr/bin/env python3
"""Frequency-wise eigendecomposition and optimal low-rank reconstruction.

Eigendecomposing every atom of the spectral measure splits the process
into uncorrelated rank-one filtered components (the Cramer-Karhunen-Loeve
decomposition).  Truncating to the top q eigenprojectors per frequency is
the harmonic functional PCA: it minimises the mean-square reconstruction
error among all rank-q filter families, and the minimum is the sum of the
discarded eigenvalues.
"""

import numpy as np

from opspectra import (
    apply_filter,
    ckl_completeness_residual,
    ckl_decompose,
    component_transfer,
    empirical_gramian,
    gramian_inner,
    hfpca_error,
    hfpca_optimal_error,
    hfpca_projector,
    hfpca_report,
    sample_gaussian_measure,
    spectral_integral,
    synthesize_process,
)
from opspectra.synthetic import make_rng, random_povm

rng = make_rng(23)
nu = random_povm(rng, dim=4, n_atoms=6, ranks=[4, 2, 4, 3, 4, 1])
sys = ckl_decompose(nu)
print("per-atom ranks:", sys.ranks.tolist())
print("completeness residual in measure norm:",
      ckl_completeness_residual(sys))

# Components at different eigenvalue levels are uncorrelated, both in the
# model Gramian and empirically.
cross = gramian_inner(component_transfer(sys, 0), component_transfer(sys, 1), nu)
print("model cross-Gramian of components 0 and 1:", np.abs(cross).max())

w = sample_gaussian_measure(nu, n_realizations=30_000, seed=3)
u = spectral_integral(component_transfer(sys, 0), w)
v = spectral_integral(component_transfer(sys, 1), w)
print("empirical cross-covariance:", np.abs(empirical_gramian(u, v)).max())

# Error of the optimal rank-q reconstruction, for every q.
print("\nrank  optimal error   achieved error")
for q in range(1, 5):
    theta = hfpca_projector(sys, q)
    print(f"{q:4d}  {hfpca_optimal_error(sys, q):13.6f}"
          f"  {hfpca_error(nu, theta):14.6f}")

# The formula matches the Monte Carlo reconstruction error of the
# filtered process.
q = 2
theta = hfpca_projector(sys, q)
x = synthesize_process(w, 5)
y = synthesize_process(apply_filter(theta, w), 5)
mse = float(np.mean(np.sum(np.abs(x.values[:, 2] - y.values[:, 2]) ** 2, axis=1)))
print(f"\nrank-{q} Monte Carlo error at t=2: {mse:.4f}"
      f"  vs formula {hfpca_error(nu, theta):.4f}")

print("\nfull report:", hfpca_report(nu, q))
