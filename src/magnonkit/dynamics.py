"""Gaussian magnon states and their exact non-interacting dynamics.

The effective large-spin model is quadratic, so a state is fully described
by the covariance gamma[x, y] = <F+(x) F-(y)> together with the quantization
parameter m < 0 that sets the mode commutator [F-(x), F+(y)] = -m delta.
Time evolution is exact: in the mode basis every covariance entry just picks
up the phase of the two mode energies involved, so diagonal (equilibrium)
covariances are fixed points and no integrator is ever involved.  The
longitudinal fluctuations commute with everything in the validated regime
and carry no dynamics, so they are not part of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import CouplingSet, MomentumGrid, coupling_matrix, exchange_gap_grid
from .spinwave import RegimeError, SpinWaveSolution, _energies

_HERMITICITY_TOL = 1e-8


@dataclass(frozen=True)
class ModeSpectrum:
    """Magnon energies eps(q) and effective angular frequencies (-m)*eps(q)."""

    eps: np.ndarray
    omega: np.ndarray


def mode_spectrum(m: float, h: float, couplings: CouplingSet, grid: MomentumGrid) -> ModeSpectrum:
    """Spectrum 2*(J3(0) - J(q) + h/(-m)) over the grid; must be positive."""
    if not -1.0 <= m < 0.0:
        raise RegimeError(f"quantization parameter must lie in [-1, 0), got {m}")
    eps = _energies(exchange_gap_grid(couplings, grid), h, m)
    if np.min(eps) <= 0.0:
        raise RegimeError(f"non-positive mode energy {np.min(eps):.6g}: no zero-mode gap")
    return ModeSpectrum(eps=eps, omega=(-m) * eps)


def _change_basis(gamma: np.ndarray, grid: MomentumGrid, to_mode: bool) -> np.ndarray:
    """Conjugate gamma by the unitary U[x, q] = exp(-i q.x)/sqrt(N).

    U is the lattice Fourier transform, so U^+ gamma U (to modes) and
    U gamma U^+ (to sites) are an inverse/forward FFT pair over the row and
    column lattice axes, O(N^2 log N) instead of two dense N^3 products.  The
    C-order reshape matches the lexicographic site and momentum order.
    """
    lattice = grid.lattice
    d, n = lattice.dimension, lattice.n_sites
    rows, cols = tuple(range(d)), tuple(range(d, 2 * d))
    row_fft, col_fft = (np.fft.ifftn, np.fft.fftn) if to_mode else (np.fft.fftn, np.fft.ifftn)
    out = row_fft(gamma.reshape((lattice.size,) * (2 * d)), axes=rows, norm="ortho")
    return col_fft(out, axes=cols, norm="ortho").reshape(n, n)


class GaussianMagnonState:
    """Immutable covariance-matrix state of the free magnon field.

    Parameters
    ----------
    m : float
        Quantization parameter (the magnetization), in [-1, 0).  Zero is
        rejected: the commutator degenerates and no dynamics exists there.
    gamma : complex array, shape (n_sites, n_sites)
        Covariance <F+ F-> in the basis named by ``basis``.
    basis : {"site", "mode"}
    grid : MomentumGrid
    couplings : CouplingSet
    h : float
        Field entering the mode energies.
    """

    def __init__(self, m, gamma, basis, grid, couplings, h):
        if m == 0.0:
            raise RegimeError("dynamics undefined at vanishing magnetization")
        if not -1.0 <= m < 0.0:
            raise ValueError(f"quantization parameter must lie in [-1, 0), got {m}")
        if basis not in ("site", "mode"):
            raise ValueError(f"basis must be 'site' or 'mode', got {basis!r}")
        gamma = np.asarray(gamma, dtype=complex)
        n = len(grid)
        if gamma.shape != (n, n):
            raise ValueError(f"gamma must be {n}x{n} for this grid, got {gamma.shape}")
        scale = 1.0 + float(np.max(np.abs(gamma)))
        if np.max(np.abs(gamma - gamma.conj().T)) > _HERMITICITY_TOL * scale:
            raise ValueError("gamma must be Hermitian")
        self.m = float(m)
        self.gamma = gamma
        self.basis = basis
        self.grid = grid
        self.couplings = couplings
        self.h = float(h)

    def _replace(self, gamma, basis) -> "GaussianMagnonState":
        """Same parameters, new covariance; gamma is Hermitian by construction.

        Skips the constructor's checks and carries over a computed spectrum.
        """
        out = object.__new__(GaussianMagnonState)
        out.__dict__.update(self.__dict__)
        out.gamma, out.basis = gamma, basis
        return out

    @cached_property
    def spectrum(self) -> ModeSpectrum:
        return mode_spectrum(self.m, self.h, self.couplings, self.grid)

    def to_mode(self) -> "GaussianMagnonState":
        if self.basis == "mode":
            return self
        return self._replace(_change_basis(self.gamma, self.grid, to_mode=True), "mode")

    def to_site(self) -> "GaussianMagnonState":
        if self.basis == "site":
            return self
        return self._replace(_change_basis(self.gamma, self.grid, to_mode=False), "site")


def equilibrium_state(solution: SpinWaveSolution, grid: MomentumGrid) -> GaussianMagnonState:
    """Mode-diagonal thermal covariance built from a solved magnetization."""
    if solution.m_star == 0.0:
        raise RegimeError("dynamics undefined at vanishing magnetization")
    gamma = np.diag(solution.occupations).astype(complex)
    return GaussianMagnonState(
        solution.m_star, gamma, "mode", grid, solution.couplings, solution.params.h
    )


def packet_state(
    m: float,
    grid: MomentumGrid,
    couplings: CouplingSet,
    h: float,
    center: int = 0,
    width: float = 1.0,
    kick_index: int = 0,
) -> GaussianMagnonState:
    """Rank-one localized packet (site Gaussian profile with a momentum kick)."""
    lattice = grid.lattice
    sites = lattice.site_vectors()
    delta = np.abs(sites - sites[center])
    delta = np.minimum(delta, lattice.size - delta)
    dist_sq = np.sum(delta.astype(float) ** 2, axis=1)
    kick = grid.points[kick_index]
    psi = np.exp(-dist_sq / (2.0 * width**2) + 1j * (sites @ kick))
    gamma = np.outer(psi, psi.conj())
    return GaussianMagnonState(m, gamma, "site", grid, couplings, h)


def evolve(state: GaussianMagnonState, t: float) -> GaussianMagnonState:
    """Propagate the covariance for time t, exactly.

    In the mode basis gamma[q, q'] acquires exp(-i*m*(eps(q) - eps(q'))*t);
    the diagonal is untouched, so mode occupations, total number and total
    energy are conserved identically.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if t == 0.0:
        return state
    mode = state.to_mode()
    phases = np.exp(-1j * state.m * state.spectrum.eps * t)
    gamma = (phases[:, None] * mode.gamma) * phases.conj()[None, :]
    out = mode._replace(gamma, "mode")
    return out.to_site() if state.basis == "site" else out


def number_density(state: GaussianMagnonState) -> np.ndarray:
    """Magnon number density <F+(x) F-(x)> at each site."""
    return np.real(np.diagonal(state.to_site().gamma)).copy()


def number_density_rate(state: GaussianMagnonState) -> np.ndarray:
    """Exact time derivative of the number density in the current state.

    Only the transverse exchange moves magnons; evenness of the coupling and
    Hermiticity of the covariance make any translation-invariant state
    stationary, and the site sum vanishes identically (number conservation).
    """
    gamma_site = state.to_site().gamma
    j_mat = coupling_matrix(state.couplings, "J", state.grid.lattice)
    return 4.0 * state.m * np.sum(j_mat * gamma_site.imag, axis=1)


def total_number(state: GaussianMagnonState) -> float:
    """Trace of the covariance (basis independent)."""
    return float(np.real(np.trace(state.gamma)))


def total_energy(state: GaussianMagnonState) -> float:
    """Sum of eps(q) times the mode occupation gamma(q, q)."""
    mode = state.to_mode()
    return float(np.real(np.sum(state.spectrum.eps * np.diagonal(mode.gamma))))
