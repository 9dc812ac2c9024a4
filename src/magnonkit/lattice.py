"""Torus lattices, exchange couplings, momentum grids and regime validation.

The geometry is a periodic hypercubic torus with ``L**nu`` sites addressed
by integer vectors mod L.  Exchange couplings are keyed by displacement
vector and are even, ``J(z) == J(-z)``: the :class:`CouplingSet`
constructor fills each missing mirror, refuses a conflicting one, and
stores read-only maps.  Evenness is what makes every lattice Fourier
transform used downstream real.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

Displacement = tuple[int, ...]

#: Floating-point noise floor of the gap, relative to sum_z |J(z)| + |J3(z)|.
GAP_TOL = 1e-12

#: Largest distance, per component, of an accepted momentum from a lattice momentum 2*pi*n/L.
_ON_GRID_TOL = 1e-9

#: Terms of a coupling Fourier sum (one per displacement pair and momentum)
#: held at once, so each temporary stays at 8 MB whatever the grid size.
_FOURIER_CHUNK_ELEMENTS = 1 << 20

#: Largest lattice any engine accepts, in sites.  A solve takes about 220 bytes
#: per site (10**6 sites, 220 MB), so this keeps one under 4 GB.
MAX_SITES = 2**24


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic hypercubic lattice with ``size**dimension`` sites."""

    dimension: int
    size: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {self.dimension}")
        if self.size < 1:
            raise ValueError(f"lattice size must be >= 1, got {self.size}")
        # over the limit at size 2, such a dimension is refused at every size: it forms no per-dimension list
        if self.dimension >= MAX_SITES.bit_length():
            raise ValueError(
                f"lattice dimension {self.dimension} is over {MAX_SITES.bit_length() - 1}: a size-2 lattice "
                f"of 2**{self.dimension} sites exceeds the limit of {MAX_SITES} sites (MAX_SITES)"
            )
        if self.n_sites > MAX_SITES:
            raise ValueError(
                f"lattice of {self.size}**{self.dimension} sites exceeds the limit of "
                f"{MAX_SITES} sites (MAX_SITES)"
            )

    @property
    def n_sites(self) -> int:
        return self.size**self.dimension

    def site_vectors(self) -> np.ndarray:
        """All sites as integer vectors, lexicographic order, shape (n_sites, dimension)."""
        shape = (self.size,) * self.dimension
        vectors = np.indices(shape, dtype=np.int64).reshape(self.dimension, -1).T
        return np.ascontiguousarray(vectors)

    def site_index(self, vectors) -> np.ndarray:
        """Row of ``site_vectors`` of each integer vector, taken mod L: its digits in the site radix."""
        return (vectors % self.size) @ self.size ** np.arange(self.dimension - 1, -1, -1, dtype=np.int64)


def _as_displacement(raw) -> Displacement:
    """A displacement key as an int tuple; a plain int is a 1D displacement."""
    return tuple(int(c) for c in (raw if isinstance(raw, tuple) else (raw,)))


def _mirror(z: Displacement) -> Displacement:
    return tuple(-c for c in z)


class CouplingSet:
    """Finite-range exchange couplings plus a magnetic field.

    Parameters
    ----------
    exchange : mapping displacement -> float
        Transverse coupling J.  Even; a displacement listed without its
        mirror -z gets the mirror's value filled in, and a mirror listed with
        a different value is refused, as are two keys for one displacement
        (``1`` and ``(1,)``) with different values.  Must vanish at zero
        displacement.
    exchange_z : mapping displacement -> float
        Longitudinal coupling J3, same rules.
    h : float
        Magnetic field, >= 0.

    ``exchange`` and ``exchange_z`` are stored as read-only maps: the listed
    entries first, then the filled mirrors in listing order, with zero values
    dropped.  ``scale``, sum_z |J(z)| + |J3(z)| over the filled maps, bounds
    every term of the gap and must be finite.  Any violation is a ValueError.
    A coupling set compares by identity (it defines no ``__eq__``) and nothing
    reassigns its maps, so :func:`exchange_gap_grid` keys its cache by the set.
    """

    def __init__(self, exchange, exchange_z, h):
        filled = {}
        scale = 0.0
        for name, mapping in (("exchange", exchange), ("exchange_z", exchange_z)):
            out = filled[name] = {}
            for raw, value in mapping.items():
                z, v = _as_displacement(raw), float(value)
                if z in out and out[z] != v:
                    raise ValueError(f"{name}: displacement {z} listed twice, as {out[z]} and {v}")
                out[z] = v
            for z, v in list(out.items()):
                out.setdefault(_mirror(z), v)
            for z, v in out.items():
                scale += abs(v)
                if not math.isfinite(scale):
                    raise ValueError(f"{name}: coupling {v} at {z} makes sum |J| + |J3| non-finite")
        for name, out in filled.items():  # after the sum, so a nan is not reported as a conflict
            for z, v in out.items():
                if out[_mirror(z)] != v:
                    raise ValueError(f"{name}: displacement {z} conflicts with its mirror {_mirror(z)}")
                if v != 0.0 and not any(z):
                    raise ValueError(f"{name}: on-site coupling must vanish, got {v} at {z}")
        self.exchange, self.exchange_z = (
            MappingProxyType({z: v for z, v in out.items() if v != 0.0}) for out in filled.values()
        )
        dims = {len(z) for z in self.exchange} | {len(z) for z in self.exchange_z}
        if len(dims) > 1:
            raise ValueError(f"mixed displacement dimensions: {sorted(dims)}")
        self._dimension = dims.pop() if dims else None
        if h < 0:
            raise ValueError(f"field h must be >= 0, got {h}")
        self.h = float(h)
        self.scale = scale

    @classmethod
    def nearest_neighbor(cls, dimension, j=1.0, j3=1.0, h=0.0) -> "CouplingSet":
        """Isotropic-strength nearest-neighbor couplings on a nu-dimensional torus."""
        steps = [tuple(sign if a == axis else 0 for a in range(dimension))
                 for axis in range(dimension) for sign in (+1, -1)]
        return cls(dict.fromkeys(steps, j), dict.fromkeys(steps, j3), h)

    @property
    def dimension(self) -> int | None:
        """Displacement dimension, or None for an empty coupling set."""
        return self._dimension

    @property
    def coupling_range(self) -> int:
        """Max sup-norm of a displacement carrying a nonzero coupling."""
        norms = [max(abs(c) for c in z) for z in (*self.exchange, *self.exchange_z)]
        return max(norms, default=0)


@dataclass(frozen=True)
class MomentumGrid:
    """Every lattice momentum 2*pi*n/L, one per site n, lexicographic in n, k=0 first: a function of the lattice."""

    lattice: LatticeSpec

    @classmethod
    def from_lattice(cls, lattice: LatticeSpec) -> "MomentumGrid":
        return cls(lattice)

    @cached_property
    def points(self) -> np.ndarray:
        """Every momentum, read-only, shape (n_sites, dimension)."""
        points = 2.0 * np.pi * self.lattice.site_vectors() / self.lattice.size
        points.setflags(write=False)
        return points

    def __len__(self) -> int:
        return self.lattice.n_sites

    def point(self, index: int) -> np.ndarray:
        """The momentum of one grid index, from the index's digits in the site radix: ``points[index]``, bit for bit."""
        size, dimension = self.lattice.size, self.lattice.dimension
        if not 0 <= index < len(self):
            raise IndexError(f"grid index {index} outside [0, {len(self)})")
        digits = index // size ** np.arange(dimension - 1, -1, -1, dtype=np.int64) % size
        return 2.0 * np.pi * digits / size

    def index_of(self, k) -> int:
        """Grid index of any image of a lattice momentum 2*pi*n/L, up to ``_ON_GRID_TOL`` per component."""
        k = np.atleast_1d(np.asarray(k, dtype=float))
        size = self.lattice.size
        if k.shape != (self.lattice.dimension,):
            raise ValueError(f"momentum of shape {k.shape} on a lattice of dimension {self.lattice.dimension}")
        n = np.rint(k * (size / (2.0 * np.pi)))
        with np.errstate(invalid="ignore"):  # an infinite k gives NaN here, and is refused
            if not np.all(np.abs(k - n * (2.0 * np.pi / size)) <= _ON_GRID_TOL):
                raise ValueError(f"momentum {k} is not a lattice momentum 2*pi*n/{size} (not on the grid)")
        return int(self.lattice.site_index(np.fmod(n, size).astype(np.int64)))


def _cos_table(size: int, shift: int) -> np.ndarray:
    """cos(2*pi*j/L) in units of 2**-shift, rounded to int64, for j in [0, L).

    Entry j is taken at angle index min(j, L - j), so the table is exactly
    even.  It is built in place: one float64 L-array, and one int64 L-array
    for the result.
    """
    table = np.arange(size, dtype=np.float64)
    upper = table[size // 2 + 1:]
    np.subtract(size, upper, out=upper)  # min(j, L - j)
    table *= 2.0 * np.pi / size
    np.cos(table, out=table)
    np.ldexp(table, shift, out=table)
    np.rint(table, out=table)
    return table.astype(np.int64)


def fourier_coupling_grid(couplings: CouplingSet, grid: MomentumGrid) -> np.ndarray:
    """sum_z J(z) exp(-i k.z) of the transverse coupling at every grid momentum k.

    The sum is real, since the couplings are even.  Each momentum
    k = 2*pi*n/L is taken as its integer vector n, so the phase of
    displacement z is the integer (n.z) mod L, and each mirror pair {z, -z}
    adds 2 J(z) cos(2*pi*(n.z mod L)/L).  The pairs are grouped by weight,
    and each group's cosines are summed exactly, as integers: the L-entry
    cosine table is exactly even and held in units of 2**-shift, with the
    shift as fine as int64 allows for the largest group.  Each group sum is
    rounded once, then weighted, and the groups are added in a fixed order.
    A lattice symmetry that maps the couplings to themselves permutes the
    terms within each group, so it leaves the sum bit for bit.  The grid
    holds every lattice momentum, so each n is read off its grid index as
    the index's digits in the site radix.
    """
    if couplings.dimension not in (None, grid.lattice.dimension):
        raise ValueError(f"coupling dimension {couplings.dimension} != lattice dimension {grid.lattice.dimension}")
    mapping = couplings.exchange
    if not mapping:
        return np.zeros(len(grid))
    size = grid.lattice.size
    radix = size ** np.arange(grid.lattice.dimension - 1, -1, -1, dtype=np.int64)
    pairs = sorted({max(z, _mirror(z)) for z in mapping}, key=lambda z: (mapping[z], z))
    weights = [2.0 * mapping[z] for z in pairs]
    starts = [i for i in range(len(pairs)) if i == 0 or weights[i] != weights[i - 1]]
    largest = max(np.diff(starts + [len(pairs)]))
    shift = 62 - int(largest).bit_length()  # a group's sum stays below 2**62
    zs = np.array([[c % size for c in z] for z in pairs], dtype=np.int64)
    cos_table = _cos_table(size, shift)
    values = np.zeros(len(grid))
    rows = max(1, _FOURIER_CHUNK_ELEMENTS // len(pairs))
    for start in range(0, len(grid), rows):
        phases = zs @ (np.arange(start, min(start + rows, len(grid))) // radix[:, None] % size)
        phases %= size
        sums = np.add.reduceat(cos_table.take(phases), starts, axis=0)
        out = values[start:start + rows]
        for i, group in zip(starts, sums):
            out += weights[i] * np.ldexp(group.astype(float), -shift)
    return values


@lru_cache(maxsize=1)
def exchange_gap_grid(couplings: CouplingSet, grid: MomentumGrid) -> np.ndarray:
    """Exchange part of the magnon gap, J3(0) - J(q), at every grid momentum q, read-only.

    J3(0) is summed correctly rounded, so it does not depend on the order
    the couplings are listed in.  The last pair's grid is kept, so every
    engine of a run reads the one grid its regime check computed: the
    couplings are keyed by identity, the grid by value (its lattice).
    """
    gaps = math.fsum(couplings.exchange_z.values()) - fourier_coupling_grid(couplings, grid)
    gaps.setflags(write=False)
    return gaps


def coupling_matrix(mapping, lattice: LatticeSpec) -> np.ndarray:
    """Periodized site-to-site matrix of one coupling map on the torus.

    ``mapping`` is ``CouplingSet.exchange`` or ``CouplingSet.exchange_z``.
    Every stored displacement contributes to the pair it connects mod L, so
    displacements longer than the torus fold onto it additively.  This keeps
    the matrix exactly consistent with the grid Fourier transforms.  The
    values folded onto one displacement mod L are summed once, correctly
    rounded (``math.fsum``), so the sum does not depend on listing order and
    the matrix is exactly symmetric: the mirror class holds the same values.
    """
    n = lattice.n_sites
    mat = np.zeros((n, n))
    dims = {len(z) for z in mapping} - {lattice.dimension}
    if dims:
        raise ValueError(f"coupling dimension {dims.pop()} != lattice dimension {lattice.dimension}")
    sites = lattice.site_vectors()
    rows = np.arange(n)
    folded = {}
    for z, v in mapping.items():
        folded.setdefault(tuple(c % lattice.size for c in z), []).append(v)
    for z, values in folded.items():
        targets = lattice.site_index(sites - np.asarray(z, dtype=np.int64))
        mat[rows, targets] = math.fsum(values)
    return mat


@dataclass
class ValidationReport:
    """Outcome of the ferromagnetic-regime check on one coupling set."""

    gap_values: np.ndarray
    gap_at_zero: float
    minimum_gap: float
    minimizing_momentum: np.ndarray
    gap_ok: bool
    field_ok_strict: bool
    field_ok_relaxed: bool
    messages: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  # the messages of the failed conditions

    @property
    def passed(self) -> bool:
        """Relaxed verdict used by downstream solvers: the gap and the relaxed field condition hold."""
        return not self.failures


def validate_ferromagnetic(couplings: CouplingSet, grid: MomentumGrid) -> ValidationReport:
    """Check that the couplings put the model in the ferromagnetic regime.

    Positivity of the translation-invariant stability matrix is equivalent
    to its Fourier symbol J3(0) - J(q) being nonnegative on the grid, so no
    dense eigendecomposition is needed.  Two field verdicts are reported:
    the strict one, h > gap(0) > 0, and the relaxed one, h > max(gap(0), 0),
    which is all the solvers require (the isotropic case has gap(0) = 0).

    The gap counts as nonnegative down to ``-GAP_TOL * sum_z (|J(z)| + |J3(z)|)``,
    the scale of its rounding noise.  Every CLI command judges the regime by this verdict.
    """
    gaps = exchange_gap_grid(couplings, grid)
    gap0 = float(gaps[0])
    i_min = int(np.argmin(gaps))
    gap_min = float(gaps[i_min])
    q_min = grid.point(i_min)
    h = couplings.h

    gap_ok = gap_min >= -GAP_TOL * couplings.scale
    strict = (h > gap0) and (gap0 > 0.0)
    relaxed = h > max(gap0, 0.0)

    failures = []
    if not gap_ok:
        failures.append("gap negative: couplings are not ferromagnetic")
    if not relaxed:
        failures.append(f"field h={h:.17g} does not exceed max(gap(0), 0)={max(gap0, 0.0):.17g}")
    messages = [f"minimum gap {gap_min:.17g} at q={np.array2string(q_min, precision=6)}", *failures]
    if relaxed and not strict:
        messages.append("strict field condition h > gap(0) > 0 not met; relaxed condition holds")
    if 2 * couplings.coupling_range >= grid.lattice.size:
        messages.append(
            f"coupling range {couplings.coupling_range} >= L/2: periodic images overlap "
            "and are summed"
        )
    return ValidationReport(gap_values=gaps, gap_at_zero=gap0, minimum_gap=gap_min, minimizing_momentum=q_min,
                            gap_ok=gap_ok, field_ok_strict=strict, field_ok_relaxed=relaxed,
                            messages=messages, failures=failures)


def load_couplings_csv(path, dimension: int, h: float) -> CouplingSet:
    """Read couplings from CSV with header dz1,...,dznu,J,J3.

    One row per displacement.  Rows that disagree with an earlier entry for
    the same displacement are rejected; the :class:`CouplingSet` constructor
    fills missing mirrors, and its refusals are prefixed with the path.
    """
    expected = [f"dz{i + 1}" for i in range(dimension)] + ["J", "J3"]
    exchange: dict[Displacement, float] = {}
    exchange_z: dict[Displacement, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != expected:
            raise ValueError(f"coupling CSV header must be {','.join(expected)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != dimension + 2:
                raise ValueError(f"{path}:{lineno}: expected {dimension + 2} fields, got {len(row)}")
            z = tuple(int(c) for c in row[:dimension])
            j, j3 = float(row[dimension]), float(row[dimension + 1])
            for mapping, value in ((exchange, j), (exchange_z, j3)):
                if z in mapping and mapping[z] != value:
                    raise ValueError(f"{path}:{lineno}: inconsistent duplicate for {z}")
                mapping[z] = value
    try:
        return CouplingSet(exchange, exchange_z, h)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
