"""Test-side referees: independent formulas that the package's engines are checked against."""

import math

import numpy as np

from magnonkit.dynamics import GaussianMagnonState, _transform


def number_density_rate(state: GaussianMagnonState) -> np.ndarray:
    """Exact time derivative of the number density in the current state.

    Only the transverse exchange moves magnons: the rate at x is
    4 m sum_z J(z) Im gamma_site(x, x - z).  The diagonal part of the
    covariance gives gamma_site(x, x - z) = c(z), one FFT of n(q) divided by
    sqrt(N), and each amplitude gives phi(x) phi(x - z)^* with phi = U psi,
    so only the coupled pairs are visited, O(rN z).  Evenness of the
    coupling makes the c(z) sum vanish (any translation-invariant state is
    stationary), and the site sum vanishes identically (number
    conservation).
    """
    lattice = state.grid.lattice
    shape, axes = (lattice.size,) * lattice.dimension, tuple(range(1, lattice.dimension + 1))
    site = _transform(state.amplitudes, lattice, to_mode=False).reshape((-1,) + shape)
    uniform = _transform(state.occupations[None, :], lattice, to_mode=False).reshape(shape)
    im_c = uniform.imag / math.sqrt(lattice.n_sites)
    rate = np.zeros(shape)
    for z, j in state.couplings.exchange.items():
        pairs = site * np.roll(site, z, axis=axes).conj()
        rate += j * (np.sum(pairs.imag, axis=0) + im_c[tuple(np.mod(z, lattice.size))])
    return 4.0 * state.m * rate.reshape(-1)
