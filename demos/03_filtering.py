#!/usr/bin/env python3
"""Operator-valued filtering: two routes, composition, and inversion.

A lag-invariant filter acts atom by atom in the spectral domain.  For a
finite impulse response filter the time-domain circular convolution and
the spectral route agree exactly on grid-supported measures.  Filters
compose pointwise, and an injective filter can be undone, even when its
atoms are only injective on the subspace the measure actually charges.
"""

import numpy as np

from opspectra import (
    FirFilter,
    apply_filter,
    apply_fir_time,
    compose_transfer,
    fir_to_transfer,
    invert_transfer,
    pushforward_povm,
    sample_gaussian_measure,
    square_integrability_check,
    synthesize_process,
)
from opspectra.synthetic import (
    make_rng,
    random_conditioned_transfer,
    random_grid_povm,
    random_povm,
    random_transfer,
)

rng = make_rng(11)
m = 16
nu = random_grid_povm(rng, dim=3, m=m)
w = sample_gaussian_measure(nu, n_realizations=16, seed=1)

# Route one: convolve the synthesised series in the time domain.
fir = FirFilter({0: np.eye(3) / 2, 1: np.eye(3) / 4, -1: np.eye(3) / 4})
time_route = apply_fir_time(fir, synthesize_process(w, m))

# Route two: multiply the per-atom samples by the frequency response.
phi = fir_to_transfer(fir, nu.freqs)
spec_route = synthesize_process(apply_filter(phi, w), m)
print("FIR two-route max error:",
      np.abs(time_route.values - spec_route.values).max())

# Composition is pointwise and coherent with the measure pushforward.
psi = random_transfer(rng, 3, 2, nu.freqs)
direct = pushforward_povm(compose_transfer(psi, phi), nu)
staged = pushforward_povm(psi, pushforward_povm(phi, nu))
print("composition coherence:",
      np.abs(direct.weights - staged.weights).max())

# Inversion on the supported subspace: the measure below has rank-1 and
# rank-2 atoms, and the filter only needs to be injective there.
nu_small = random_povm(rng, 3, 4, ranks=[1, 2, 3, 2])
theta = random_conditioned_transfer(rng, 3, nu_small.freqs, cond=100)
theta_inv = invert_transfer(theta, nu_small)
print("inverse applicable to the filtered measure:",
      bool(square_integrability_check(
          theta_inv, pushforward_povm(theta, nu_small))))

w_small = sample_gaussian_measure(nu_small, 8, seed=2)
back = apply_filter(theta_inv, apply_filter(theta, w_small))
print("sample round-trip error:",
      np.abs(back.samples - w_small.samples).max())
back_nu = pushforward_povm(theta_inv, pushforward_povm(theta, nu_small))
print("measure round-trip error:",
      np.abs(back_nu.weights - nu_small.weights).max())
