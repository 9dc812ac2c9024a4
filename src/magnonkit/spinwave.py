"""Quasi-free magnon theory: occupations, dispersion, self-consistent magnetization.

The magnetization m = <sigma3> lives in [-1, 0].  Mode occupations follow a
Bose factor whose argument couples m back to itself through the grid average
of the occupations, so m is a root of ``G(m) = mean_q n(q; m) - (1 + m)/2``,
evaluated over the distinct gaps weighted by their multiplicity.

The solver encloses the roots by branch and bound over cells of u = -m in
[0, 1].  With x = a + b*u (a = 2*beta*h, b = 2*beta*gap) and
B = 1/(exp(x) - 1), one gap's n = u*B and dn/du = B - t*(1 + B), t = b*u*B.
B is monotone in u, so on a cell [u0, u1] it lies between its end values
B_lo and B_hi, n between u0*B_lo and u1*B_hi, and t*(1 + B) between
b*u0*B_lo*(1 + B_lo) and b*u1*B_hi*(1 + B_hi).  Weighted and widened by an
a-priori bound on their rounding, these enclose G and G' on a row of cells
at once.  A cell whose G enclosure excludes 0 holds no root; one whose G'
enclosure excludes 0 holds at most one; any other is split.  A root is then
polished by safeguarded Newton: G and dG/dm = -(sum w (B - t*(1 + B)) + 1/2)
come from one evaluation, every value narrows the bracket, and a step that
leaves it is replaced by the bracket's midpoint in the order of doubles.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .lattice import CouplingSet, MomentumGrid, exchange_gap_grid

#: Occupations below this are flushed to exactly zero (large-beta runs).
OCCUPATION_FLOOR = 1e-300

DEFAULT_SOLVE_TOL = 1e-12
#: Depth of the finest enclosure cells, 2**-40 wide.  A cell still undecided
#: there (a tangent root, where G' vanishes too) is reported as one root.
_MAX_DEPTH = 40
#: Trials of one root's polish that may fail to halve its bracket in the order
#: of doubles; every later trial is the bracket's midpoint in that order.
_NEWTON_SLACK = 8


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
    with np.errstate(over="ignore"):  # an argument or its exponential past the float range is inf: occupation 0
        occ *= 2.0 * beta
        bad = np.min(occ)
        if bad <= 0.0:
            at = f"m={np.ravel(m)[0]}, " if np.size(m) == 1 else ""
            raise RegimeError(
                f"outside ferromagnetic regime: exponent argument {bad:.6g} <= 0 "
                f"({at}beta={beta}, h={h})"
            )
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


def _defect(ms: np.ndarray, beta: float, h: float, distinct: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Defect at each trial m of the 1-D ``ms``, as a mean over the distinct gaps weighted by their share."""
    return _occupations(ms[:, None], beta, h, distinct) @ weights - 0.5 * (1.0 + ms)


def _distinct_gaps(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct gap values and their multiplicity shares of the grid."""
    distinct, counts = np.unique(gaps, return_counts=True)
    return distinct, counts / gaps.size


def selfconsistency_defect(m: float, params: ThermalParams, couplings: CouplingSet, grid: MomentumGrid) -> float:
    """Defect G(m) = mean_q n(q; m) - (1 + m)/2 whose roots are equilibria, as the solver evaluates it."""
    m = _check_m(m)
    distinct, weights = _distinct_gaps(exchange_gap_grid(couplings, grid))
    return float(_defect(np.array([m]), params.beta, params.h, distinct, weights)[0])


def _bose_bound(argument: float) -> float:
    """-1 + 2/(exp(argument) - 1); from argument 709 on, where exp overflows, the sum rounds to -1."""
    return -1.0 + 2.0 / math.expm1(min(argument, 709.0))


def magnetization_bound(params: ThermalParams) -> float:
    """Upper bound -1 + 2/(exp(2*beta*h) - 1) on the magnetization."""
    if params.beta * params.h <= 0.0:
        raise ValueError("bound requires beta*h > 0")
    return _bose_bound(2.0 * params.beta * params.h)


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


def _order(m: float) -> int:
    """Position of a magnetization m <= 0 in the order of doubles: the bit pattern of |m|."""
    return struct.unpack("<q", struct.pack("<d", abs(m)))[0]


def _polish(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Safeguarded Newton on a bracket lo < hi <= 0 whose end values change sign, run to collapse.

    ``f(m)`` returns the defect and its slope dG/dm.  The first trial is the
    secant of the ends, each later one a Newton step from the last.  A trial
    that rounds onto an end of the bracket moves one double inward; one that
    leaves the bracket (NaN included) is replaced by the bracket's midpoint in
    the order of doubles.  Each value narrows the bracket, so the polish ends
    at a zero of the computed defect, or at a sign change between adjacent
    doubles, where it returns 0.5 * (lo + hi).  A midpoint halves the count of
    doubles in the bracket, below 2**62 in [-1, 0]; after ``_NEWTON_SLACK``
    trials that fail to halve it, every trial is a midpoint, so no root costs
    more than 62 + ``_NEWTON_SLACK`` evaluations.
    """
    x, slack, count = lo + f_lo * (hi - lo) / (f_lo - f_hi), _NEWTON_SLACK, _order(lo) - _order(hi)
    while True:
        if slack <= 0 or not lo <= x <= hi:
            x = -struct.unpack("<d", struct.pack("<q", (_order(lo) + _order(hi)) // 2))[0]
        elif x == lo or x == hi:
            x = math.nextafter(x, hi if x == lo else lo)
        g, slope = f(x)
        if g == 0.0:
            return x
        if (g > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, g
        else:
            hi = x
        was, count = count, _order(lo) - _order(hi)
        if count <= 1:
            return 0.5 * (lo + hi)
        if 2 * count > was + 1:
            slack -= 1
        x = x - g / slope if slope else math.nan


def _root_cells(beta: float, h: float, distinct: np.ndarray, weights: np.ndarray):
    """Cells (lo, hi, undecided) in m that may hold a root, in ascending order; cell and pass counts.

    The module docstring's enclosures of G = N - (1 - u)/2 and dG/du = N' + 1/2
    on all live cells (2**-depth wide) at once.  ``slack`` bounds the rounding
    of their sums and of the defect's own, relative to the terms: k eps for k
    gaps, and per term a few eps times its condition x*(1 + B) <= 1 + x (x > 750
    is below the flush floor).  Overflow's NaN or inf excludes nothing.  Runs
    still undecided at ``_MAX_DEPTH`` merge into one cell.
    """
    a, b = 2.0 * beta * h, 2.0 * beta * distinct
    slack = 2.0 * np.finfo(float).eps * (distinct.size + 16 + 8 * min(a + max(b[-1], 0.0), 750.0))
    lo, kept, cells = np.zeros(1), [], 0
    for depth in range(_MAX_DEPTH + 1):
        width, k = math.ldexp(1.0, -depth), lo.size
        hi, cells = lo + width, cells + k
        with np.errstate(over="ignore", invalid="ignore"):
            bu = b * np.concatenate((lo, hi))[:, None]
            bose = 1.0 / np.expm1(bu + a)
            b_lo, b_hi = np.minimum(bose[:k], bose[k:]), np.maximum(bose[:k], bose[k:])
            p, q = bu[:k] * b_lo * (1.0 + b_lo), bu[k:] * b_hi * (1.0 + b_hi)
            n_lo, n_hi = (lo[:, None] * b_lo) @ weights, (hi[:, None] * b_hi) @ weights
            g_err = slack * (n_hi + 1.0) + OCCUPATION_FLOOR
            d_err = slack * ((b_hi + np.abs(p) + np.abs(q)) @ weights + 1.0)
            live = ~((n_lo - 0.5 * (1.0 - lo) > g_err) | (n_hi - 0.5 * (1.0 - hi) < -g_err))
            monotone = (((b_lo - np.maximum(p, q)) @ weights + 0.5 > d_err)
                        | ((b_hi - np.minimum(p, q)) @ weights + 0.5 < -d_err))
        kept += [(-u - width, -u, False) for u in lo[live & monotone].tolist()]
        lo = lo[live & ~monotone]
        if lo.size == 0 or depth == _MAX_DEPTH:
            break
        lo = np.concatenate((lo, lo + 0.5 * width))
    runs = np.split(lo, np.flatnonzero(np.diff(lo) != width) + 1) if lo.size else []
    undecided = [(-float(r[-1]) - width, -float(r[0]), True) for r in runs]
    return sorted(kept + undecided), cells, depth + 1


def solve_magnetization(params: ThermalParams, couplings: CouplingSet, grid: MomentumGrid,
                        tol: float = DEFAULT_SOLVE_TOL) -> SpinWaveSolution:
    """Locate the self-consistent magnetization by certified enclosure plus Newton polish.

    The gaps are :func:`exchange_gap_grid`'s, the grid a regime check on the
    same pair kept.  G(-1) >= 0 > G(0) must hold; its evaluation refuses an
    exponent argument <= 0 (h = 0) as a RegimeError.  Every root lies in a
    cell of :func:`_root_cells`, at most one in a decided cell.  A cell
    gives the root at its lower end in m if G is 0 there, else
    its :func:`_polish` if its ends change sign: a zero of the computed defect
    or a sign change between adjacent doubles, in at most 62 + ``_NEWTON_SLACK``
    evaluations; an undecided one else its midpoint, counted in
    ``tangent_roots`` (``certified`` if none).  The root closest to -1 (the
    low-temperature branch) is selected; its residual must be below tol.
    ``polish_steps`` and ``defect_evaluations`` count evaluations.

    Before any enclosure, beta is refused (ValueError) unless every Bose
    argument x = 2 beta (h + u gap), u in [0, 1], stays in the float range:
    2 beta (h + sum_z |J(z)| + |J3(z)|), which bounds the largest, must be
    finite, and the smallest, 2 beta min(h, h + min gap), if positive, must
    be a normal float (>= sys.float_info.min), so that B = 1/expm1(x) is
    finite.  Past either limit the enclosures turn NaN and exclude nothing,
    so every cell would be split on every pass.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    gaps = exchange_gap_grid(couplings, grid)
    beta, h = params.beta, params.h
    distinct, weights = _distinct_gaps(gaps)
    largest = 2.0 * beta * (h + couplings.scale)
    if not math.isfinite(largest):
        raise ValueError(f"beta={beta!r} is too large: the Bose argument bound 2 beta (h + sum_z |J(z)| + "
                         f"|J3(z)|) = {largest} must be finite")
    low = min(h, h + float(distinct[0]))  # the smallest Bose argument over 2 beta; <= 0 is a RegimeError below
    if low > 0.0 and 2.0 * beta * low < sys.float_info.min:
        raise ValueError(f"beta={beta!r} is too small: the smallest Bose argument 2 beta min(h, h + min gap) = "
                         f"{2.0 * beta * low!r} is below the smallest normal float {sys.float_info.min!r}")
    evaluations, b = 0, 2.0 * beta * distinct

    def defect(m: float) -> tuple[float, float]:
        """G(m), bit-equal to _defect's, and dG/dm = -(sum w (B - b n (1 + B)) + 1/2) with B = n/(-m)."""
        nonlocal evaluations
        evaluations += 1
        ms = np.array([m])
        occ = _occupations(ms[:, None], beta, h, distinct)
        value = float((occ @ weights - 0.5 * (1.0 + ms))[0])
        with np.errstate(over="ignore", invalid="ignore"):
            bose = occ[0] / -m
            return value, -float((bose - b * occ[0] * (1.0 + bose)) @ weights) - 0.5

    ends = _defect(np.array([-1.0, 0.0]), beta, h, distinct, weights)
    if not (ends[0] >= 0.0 and ends[1] < 0.0):
        raise RegimeError(f"no self-consistent magnetization: defect endpoints G(-1)={ends[0]:.6g}, "
                          f"G(0)={ends[1]:.6g} do not bracket a root")
    spans, cells, passes = _root_cells(beta, h, distinct, weights)
    points = np.unique([m for lo, hi, _ in spans for m in (lo, hi)])
    value_at = dict(zip(points.tolist(), _defect(points, beta, h, distinct, weights).tolist()))
    roots = []
    for lo, hi, undecided in spans:
        f_lo, f_hi = value_at[lo], value_at[hi]
        if f_lo == 0.0:
            roots.append(lo)
        elif (f_lo < 0.0 < f_hi) or (f_hi < 0.0 < f_lo):
            roots.append(_polish(defect, lo, hi, f_lo, f_hi))
        elif undecided:
            roots.append(0.5 * (lo + hi))
    tangent_roots = sum(undecided for *_, undecided in spans)  # each gives one root
    polish_steps = evaluations
    m_star = roots[0]  # spans run up in m, so the roots come out sorted
    residual = abs(defect(m_star)[0])
    if residual > tol:
        raise RegimeError(f"polish residual {residual:.3e} exceeds tolerance {tol:.3e}")
    bound = magnetization_bound(params)
    bound_from_coupling = _bose_bound(2.0 * beta * gaps[0]) if gaps[0] > 0.0 else None
    return SpinWaveSolution(
        m_star, _occupations(m_star, beta, h, gaps), _energies(gaps, h, m_star), gaps, residual, roots,
        bound, params, couplings, grid,
        diagnostics={
            "bound_from_coupling": bound_from_coupling,
            "bound_tightest": bound if bound_from_coupling is None else min(bound, bound_from_coupling),
            "distinct_gaps": distinct.size,
            "cells": cells,
            "enclosure_passes": passes,
            "certified": tangent_roots == 0,
            "tangent_roots": tangent_roots,
            "polish_steps": polish_steps,
            "defect_evaluations": ends.size + points.size + evaluations,
        },
    )
