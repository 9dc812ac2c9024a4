"""Quasi-free magnon theory: occupations, dispersion, self-consistent magnetization.

The magnetization m = <sigma3> lives in [-1, 0].  Mode occupations follow a
Bose factor whose argument couples m back to itself through the grid average
of the occupations, so m is found as a root of the defect function
``G(m) = mean_q n(q; m) - (1 + m)/2``.  G(0) = -1/2 and G(-1) >= 0 always
hold in the validated regime, so a bisection bracket exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import CouplingSet, MomentumGrid, exchange_gap_grid

#: Occupations below this are flushed to exactly zero (large-beta runs).
OCCUPATION_FLOOR = 1e-300

DEFAULT_SOLVE_TOL = 1e-12
DEFAULT_SCAN_POINTS = 4096
#: Halvings that collapse any bracket inside [-1, 0]: it is at most 1 wide and
#: doubles there are at least 2**-1074 apart (the subnormals near m = 0), so
#: 1074 halvings leave adjacent doubles and the next midpoint is an endpoint.
#: A root near -beta*h at tiny beta needs nearly all of them.
_MAX_BISECT = 1075

#: Largest scan temporary, in elements (32 MB of float64): the solver's scan
#: memory is bounded by this whatever the lattice size.
SCAN_CHUNK_ELEMENTS = 1 << 22


class RegimeError(ValueError):
    """Raised when parameters leave the validated ferromagnetic regime."""


@dataclass(frozen=True)
class ThermalParams:
    """Inverse temperature and magnetic field of one equilibrium problem."""

    beta: float
    h: float

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


def _check_m(m: float) -> float:
    if not (-1.0 <= m <= 0.0):
        raise ValueError(f"magnetization must lie in [-1, 0], got {m}")
    return float(m)


def _occupations(m, beta: float, h: float, gaps: np.ndarray) -> np.ndarray:
    """Bose occupations -m / (exp(2*beta*(h - m*gap)) - 1), stably evaluated.

    ``m`` is a scalar or a column of trial magnetizations (shape (k, 1)) and
    broadcasts against ``gaps``.  The arithmetic runs in place in one buffer,
    so a call allocates one float array of the broadcast shape plus a mask.
    """
    occ = np.multiply(m, gaps)
    np.subtract(h, occ, out=occ)
    occ *= 2.0 * beta
    bad = np.min(occ)
    if bad <= 0.0:
        at = f"m={m}, " if np.ndim(m) == 0 else ""
        raise RegimeError(
            f"outside ferromagnetic regime: exponent argument {bad:.6g} <= 0 "
            f"({at}beta={beta}, h={h})"
        )
    with np.errstate(over="ignore"):
        np.expm1(occ, out=occ)
    np.divide(-m, occ, out=occ)
    occ[occ < OCCUPATION_FLOOR] = 0.0
    return occ


def occupation(m: float, params: ThermalParams, couplings: CouplingSet, grid: MomentumGrid) -> np.ndarray:
    """Thermal occupations of the magnon modes on the whole momentum grid, in grid order.

    Vanish identically at m = 0 and decrease monotonically in beta.
    """
    m = _check_m(m)
    return _occupations(m, params.beta, params.h, exchange_gap_grid(couplings, grid))


def _energies(gaps, h: float, m: float):
    """Magnon energies 2*(gap + h/(-m)) of the given gap values."""
    return 2.0 * (gaps + h / (-m))


def _defect(m: float, beta: float, h: float, gaps: np.ndarray) -> float:
    """Defect on the full grid: the plain mean over every occupation."""
    return float(np.mean(_occupations(m, beta, h, gaps)) - 0.5 * (1.0 + m))


def selfconsistency_defect(m: float, params: ThermalParams, couplings: CouplingSet, grid: MomentumGrid) -> float:
    """Defect G(m) = mean_q n(q; m) - (1 + m)/2 whose roots are equilibria."""
    m = _check_m(m)
    return _defect(m, params.beta, params.h, exchange_gap_grid(couplings, grid))


def _scan_defect(ms: np.ndarray, beta: float, h: float, distinct: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Defect at every trial magnetization in ``ms`` from the distinct gaps.

    Occupations depend on q only through the gap, so the grid mean is the
    mean over the distinct gap values weighted by their multiplicity share;
    nothing is rounded or merged.  Rows go through in chunks of at most
    ``SCAN_CHUNK_ELEMENTS`` occupations.
    """
    rows = max(1, SCAN_CHUNK_ELEMENTS // distinct.size)
    values = np.empty_like(ms)
    for start in range(0, ms.size, rows):
        chunk = ms[start:start + rows]
        values[start:start + rows] = _occupations(chunk[:, None], beta, h, distinct) @ weights
    return values - 0.5 * (1.0 + ms)


@dataclass
class MagnetizationBounds:
    """Field-based and coupling-based upper bounds on the magnetization."""

    from_field: float
    from_coupling: float | None
    tightest: float


def _bose_bound(argument: float) -> float:
    """-1 + 2/(exp(argument) - 1), saturating at -1 for huge arguments."""
    try:
        return -1.0 + 2.0 / math.expm1(argument)
    except OverflowError:
        return -1.0


def magnetization_bound(params: ThermalParams) -> float:
    """Upper bound -1 + 2/(exp(2*beta*h) - 1) on the magnetization."""
    if params.beta * params.h <= 0.0:
        raise ValueError("bound requires beta*h > 0")
    return _bose_bound(2.0 * params.beta * params.h)


def magnetization_bounds(params: ThermalParams, gap0: float) -> MagnetizationBounds:
    """Both bound variants from the gap at q = 0; the coupling-gap variant needs gap0 > 0."""
    from_field = magnetization_bound(params)
    from_coupling = None
    if gap0 > 0.0:
        from_coupling = _bose_bound(2.0 * params.beta * gap0)
    candidates = [from_field] + ([from_coupling] if from_coupling is not None else [])
    return MagnetizationBounds(from_field, from_coupling, min(candidates))


@dataclass
class SpinWaveSolution:
    """Self-consistent magnetization together with per-mode diagnostics."""

    m_star: float
    occupations: np.ndarray
    dispersion: np.ndarray
    gap_values: np.ndarray
    residual: float
    all_roots: list[float]
    bound: float
    params: ThermalParams
    couplings: CouplingSet
    grid: MomentumGrid
    diagnostics: dict = field(default_factory=dict)


def _bisect(f, lo: float, hi: float, f_lo: float) -> float:
    """Bisection on a sign-changing bracket, run to interval collapse.

    Collapsing rather than stopping at a residual threshold makes the
    located root independent of how the bracket was found, so refining the
    scan cannot move it.  A scan bracket collapses in about 40 steps when
    its endpoints are of order one; one that reaches toward m = 0 takes up
    to about a thousand, since the doubles get denser down to 2**-1074
    there.
    """
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_magnetization(
    params: ThermalParams,
    couplings: CouplingSet,
    grid: MomentumGrid,
    tol: float = DEFAULT_SOLVE_TOL,
    scan_points: int = DEFAULT_SCAN_POINTS,
) -> SpinWaveSolution:
    """Locate the self-consistent magnetization by scan plus bisection.

    A uniform scan over [-1, 0], taken over the distinct gap values, finds
    every sign change of the defect; each bracket is bisected to interval
    collapse on the full grid, where the residual must also come out below
    tol.  All roots are reported and the one closest to -1 (the
    low-temperature branch) is selected.  Bisection is derivative-free and
    unconditionally convergent, which is all this cheap, smooth defect needs.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if scan_points < 2:
        raise ValueError(f"scan_points must be >= 2, got {scan_points}")

    gaps = exchange_gap_grid(couplings, grid)
    beta, h = params.beta, params.h
    full_evaluations = 0

    def defect(m: float) -> float:
        nonlocal full_evaluations
        full_evaluations += 1
        return _defect(m, beta, h, gaps)

    ms = np.linspace(-1.0, 0.0, scan_points)
    distinct, counts = np.unique(gaps, return_counts=True)
    values = _scan_defect(ms, beta, h, distinct, counts / gaps.size)
    if not (values[0] >= 0.0 and values[-1] < 0.0):
        raise RegimeError(
            "no self-consistent magnetization: defect endpoints "
            f"G(-1)={values[0]:.6g}, G(0)={values[-1]:.6g} do not bracket a root"
        )

    fa, fb = values[:-1], values[1:]
    crossing = ((fa < 0.0) & (fb > 0.0)) | ((fa > 0.0) & (fb < 0.0))  # fa * fb < 0 can overflow
    brackets = np.flatnonzero((fa == 0.0) | crossing)
    roots = [
        float(ms[i]) if values[i] == 0.0
        else _bisect(defect, float(ms[i]), float(ms[i + 1]), float(values[i]))
        for i in brackets
    ]
    if not roots:
        raise RegimeError("no self-consistent magnetization: no sign change located")
    bisection_steps = full_evaluations

    roots.sort()
    m_star = roots[0]
    residual = abs(defect(m_star))
    if residual > tol:
        raise RegimeError(
            f"bisection residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    occupations = _occupations(m_star, beta, h, gaps)
    eps = _energies(gaps, h, m_star)
    bounds = magnetization_bounds(params, float(gaps[0]))
    return SpinWaveSolution(
        m_star=m_star,
        occupations=occupations,
        dispersion=eps,
        gap_values=gaps,
        residual=residual,
        all_roots=roots,
        bound=bounds.from_field,
        params=params,
        couplings=couplings,
        grid=grid,
        diagnostics={
            "root_count": len(roots),
            "multiple_roots": len(roots) > 1,
            "scan_points": scan_points,
            "bound_from_field": bounds.from_field,
            "bound_from_coupling": bounds.from_coupling,
            "bound_tightest": bounds.tightest,
            "distinct_gaps": distinct.size,
            "bisection_steps": bisection_steps,
            "defect_evaluations": scan_points + full_evaluations,
        },
    )
