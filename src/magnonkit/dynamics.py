"""Gaussian magnon states and their exact non-interacting dynamics.

The effective large-spin model is quadratic, so a state is fully described
by the covariance gamma[x, y] = <F+(x) F-(y)> together with the quantization
parameter m < 0 that sets the mode commutator [F-(x), F+(y)] = -m delta.
The longitudinal fluctuations commute with everything in the validated
regime and carry no dynamics, so they are not part of the state.

A state holds its covariance in the mode basis as occupations n(q) plus a
few amplitude vectors psi_r(q),

    gamma_mode = diag(n) + sum_r psi_r psi_r^+,

which is O(rN) numbers: r = 0 for a thermal state, r = 1 for a packet.
The constructor takes m, n and the psi_r themselves.
Evolution is exact: every mode picks up the phase exp(-i m eps(q) t), so n
is fixed and each psi_r is multiplied by the phases, O(rN).  The site
density is mean(n) + sum_r |U psi_r|^2 with one lattice FFT per amplitude,
O(rN log N), and the total number and energy are closed forms in the mode
basis.  The dense N x N covariance, the one object of N**2 numbers, is
built only when ``gamma`` is read (as the ``dynamics`` snapshot does).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .lattice import CouplingSet, LatticeSpec, MomentumGrid, exchange_gap_grid
from .lattice import coupling_matrix  # noqa: F401  (bench/spans.py traces it under this name)
from .spinwave import RegimeError, SpinWaveSolution, _energies


def _quantization(m) -> float:
    """The quantization parameter as a float; a ValueError unless it lies in [-1, 0) (-0.0 and NaN do not)."""
    if not -1.0 <= m < 0.0:
        raise ValueError(f"quantization parameter must lie in [-1, 0), got {m}")
    return float(m)


def mode_spectrum(m: float, h: float, couplings: CouplingSet, grid: MomentumGrid) -> np.ndarray:
    """Magnon energies eps(q) = 2*(J3(0) - J(q) + h/(-m)) over the grid; a RegimeError unless each is positive."""
    m = _quantization(m)
    eps = _energies(exchange_gap_grid(couplings, grid), h, m)
    if np.min(eps) <= 0.0:
        raise RegimeError(f"non-positive mode energy {np.min(eps):.6g}: no zero-mode gap")
    return eps


def _transform(vectors: np.ndarray, lattice: LatticeSpec, to_mode: bool) -> np.ndarray:
    """Apply U^+ (to modes) or U (to sites) to each row, U[x, q] = exp(-i q.x)/sqrt(N).

    A row is a lattice field in C order (lexicographic sites and momenta),
    so U is an orthonormal forward FFT over the lattice axes and U^+ the
    inverse one.
    """
    d, rows = lattice.dimension, len(vectors)
    fft = np.fft.ifftn if to_mode else np.fft.fftn
    out = fft(vectors.reshape((rows,) + (lattice.size,) * d), axes=tuple(range(1, d + 1)), norm="ortho")
    return out.reshape(rows, lattice.n_sites)


def _mode_to_site(gamma: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """U gamma U^+ of a dense covariance: a forward/inverse FFT pair over the row and column axes."""
    d, n = lattice.dimension, lattice.n_sites
    out = np.fft.fftn(gamma.reshape((lattice.size,) * (2 * d)), axes=tuple(range(d)), norm="ortho")
    return np.fft.ifftn(out, axes=tuple(range(d, 2 * d)), norm="ortho").reshape(n, n)


class GaussianMagnonState:
    """Immutable quasi-free magnon state, diag(n) + sum_r psi_r psi_r^+ in the mode basis.

    Parameters
    ----------
    m : float
        Quantization parameter (the magnetization), in [-1, 0).  Zero is
        refused with the rest: the commutator degenerates and no dynamics
        exists there.
    occupations : float array, shape (n_sites,)
        The diagonal part n(q) of the mode-basis covariance; non-negative.
    amplitudes : complex array, shape (r, n_sites)
        Mode-basis vectors psi_r, one per row; one vector alone is rank one,
        an empty sequence rank zero.
    grid : MomentumGrid
    couplings : CouplingSet
    h : float
        Field entering the mode energies.
    basis : {"mode", "site"}
        The basis in which :attr:`gamma` is reported.  It does not change
        how the state is stored or evolved.
    """

    def __init__(self, m, occupations, amplitudes, grid, couplings, h, basis="mode"):
        m = _quantization(m)
        if basis not in ("site", "mode"):
            raise ValueError(f"basis must be 'site' or 'mode', got {basis!r}")
        n = len(grid)
        occupations = np.asarray(occupations, dtype=float)
        if occupations.shape != (n,):
            raise ValueError(f"occupations must have {n} entries, got shape {occupations.shape}")
        if not np.all(occupations >= 0.0):
            raise ValueError("occupations must be non-negative")
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim > 2 or amplitudes.shape[-1:] not in ((n,), (0,)):
            raise ValueError(f"amplitudes must be vectors of {n} entries, got shape {amplitudes.shape}")
        self.m = m
        self.occupations = occupations
        self.amplitudes = amplitudes.reshape(-1, n)
        self.basis = basis
        self.grid = grid
        self.couplings = couplings
        self.h = float(h)

    def _replace(self, **changes) -> "GaussianMagnonState":
        """Same state with some fields replaced; no checks, a computed spectrum is kept."""
        out = object.__new__(GaussianMagnonState)
        out.__dict__.update(self.__dict__, **changes)
        return out

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Mode energies eps(q), computed once per chain of evolved and relabelled states."""
        return mode_spectrum(self.m, self.h, self.couplings, self.grid)

    @property
    def gamma(self) -> np.ndarray:
        """Dense covariance in ``basis``, built on every read (N x N complex)."""
        psi = self.amplitudes
        gamma = psi.T @ psi.conj()
        gamma[np.diag_indices_from(gamma)] += self.occupations
        return gamma if self.basis == "mode" else _mode_to_site(gamma, self.grid.lattice)

    def to_mode(self) -> "GaussianMagnonState":
        return self if self.basis == "mode" else self._replace(basis="mode")

    def to_site(self) -> "GaussianMagnonState":
        return self if self.basis == "site" else self._replace(basis="site")


def _mode_diagonal(state: GaussianMagnonState) -> np.ndarray:
    """gamma_mode(q, q) = n(q) + sum_r |psi_r(q)|^2."""
    psi = state.amplitudes
    return state.occupations + np.sum(psi.real**2 + psi.imag**2, axis=0)


def equilibrium_state(solution: SpinWaveSolution) -> GaussianMagnonState:
    """Mode-diagonal thermal state of a solved magnetization; its spectrum equals the solution's dispersion."""
    return GaussianMagnonState(
        solution.m_star, solution.occupations, (), solution.grid, solution.couplings, solution.params.h
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
    """Rank-one localized packet: a site Gaussian profile times the plane wave of a momentum kick.

    The profile is exp(-|x - center|**2 / (2 width**2)), with |x - center|
    the distance on the torus; the kick is the grid momentum of ``kick_index``.

    Raises ValueError unless ``width`` > 0 and ``2 * width**2`` is nonzero,
    since a vanishing or negative width has no Gaussian profile, and unless
    ``center`` is a site index in [0, N) and ``kick_index`` a grid index in
    [0, len(grid)).  A width whose square overflows gives the flat profile,
    the plane wave of the kick.
    """
    try:
        spread = 2.0 * width**2
    except OverflowError:
        spread = math.inf
    if not width > 0.0 or spread == 0.0:
        raise ValueError(f"packet width must be > 0 with 2*width**2 > 0, got {width}")
    lattice = grid.lattice
    if not 0 <= center < lattice.n_sites:
        raise ValueError(f"packet center {center} outside the sites [0, {lattice.n_sites})")
    if not 0 <= kick_index < len(grid):
        raise ValueError(f"packet kick_index {kick_index} outside the grid momenta [0, {len(grid)})")
    sites = lattice.site_vectors()
    delta = np.abs(sites - sites[center])
    delta = np.minimum(delta, lattice.size - delta)
    dist_sq = np.sum(delta.astype(float) ** 2, axis=1)
    kick = grid.point(kick_index)
    psi = np.exp(-dist_sq / spread + 1j * (sites @ kick))
    amplitude = _transform(psi[None, :], lattice, to_mode=True)
    return GaussianMagnonState(m, np.zeros(len(grid)), amplitude, grid, couplings, h, "site")


def evolve(state: GaussianMagnonState, t: float) -> GaussianMagnonState:
    """Propagate the state for time t, exactly.

    Mode q picks up exp(-i*m*eps(q)*t), so gamma_mode[q, q'] acquires
    exp(-i*m*(eps(q) - eps(q'))*t): the occupations stay and each amplitude
    is multiplied by the phases.  Mode occupations, total number and total
    energy are conserved.  A time whose phases m*eps(q)*t overflow is a
    ValueError, raised before any phase is formed.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if t == 0.0:
        return state
    # Python floats overflow to inf without a warning, and rounding is monotone:
    # every phase is finite exactly when the largest, formed in the same order, is
    top = abs(float(state.m)) * float(np.abs(state.spectrum).max())
    if not math.isfinite(top * abs(float(t))):
        raise ValueError(f"time {t!r}: the phases m*eps(q)*t overflow (max |m*eps(q)| = {top!r})")
    phases = np.exp(-1j * state.m * state.spectrum * t)
    return state._replace(amplitudes=state.amplitudes * phases)


def number_density(state: GaussianMagnonState) -> np.ndarray:
    """Magnon number density <F+(x) F-(x)> = mean(n) + sum_r |(U psi_r)(x)|^2 at each site."""
    site = _transform(state.amplitudes, state.grid.lattice, to_mode=False)
    return np.mean(state.occupations) + np.sum(site.real**2 + site.imag**2, axis=0)


def total_number(state: GaussianMagnonState) -> float:
    """Trace of the covariance (basis independent)."""
    return float(np.sum(_mode_diagonal(state)))


def total_energy(state: GaussianMagnonState) -> float:
    """Sum of eps(q) times the mode occupation gamma(q, q)."""
    return float(state.spectrum @ _mode_diagonal(state))
