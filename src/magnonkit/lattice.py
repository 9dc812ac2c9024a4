"""Torus lattices, exchange couplings, momentum grids and regime validation.

The geometry is a periodic hypercubic torus with ``L**nu`` sites addressed
by integer vectors mod L.  Exchange couplings are keyed by displacement
vector and must be even, ``J(z) == J(-z)``, which is what makes every
lattice Fourier transform used downstream real.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

Displacement = tuple[int, ...]

#: Floating-point noise floor of the gap, relative to sum_z |J(z)| + |J3(z)|.
DEFAULT_GAP_TOL = 1e-12

#: Imaginary-residue cap of a coupling Fourier sum, relative to sum_z |J(z)|.
_IMAG_TOL = 1e-12

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
        # size >= 2 in more than log2(MAX_SITES) dimensions is over the limit: no big power
        if self.size > 1 and (self.dimension >= MAX_SITES.bit_length() or self.n_sites > MAX_SITES):
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


def _as_displacement(raw) -> Displacement:
    """A displacement key as an int tuple; a plain int is a 1D displacement."""
    return tuple(int(c) for c in (raw if isinstance(raw, tuple) else (raw,)))


def _with_mirrors(mapping, where) -> dict[Displacement, float]:
    """Copy of a displacement -> value map with each missing mirror -z set to the value at z.

    A mirror present with a different value is refused; ``where`` names the
    source in the message.
    """
    out = {_as_displacement(raw): float(value) for raw, value in mapping.items()}
    for z, v in list(out.items()):
        mirror = tuple(-c for c in z)
        if mirror not in out:
            out[mirror] = v
        elif out[mirror] != v:
            raise ValueError(f"{where}: displacement {z} conflicts with its mirror {mirror}")
    return out


class CouplingSet:
    """Finite-range exchange couplings plus a magnetic field.

    Parameters
    ----------
    exchange : mapping displacement -> float
        Transverse coupling J.  Must be even and vanish at zero displacement.
    exchange_z : mapping displacement -> float
        Longitudinal coupling J3, same requirements.
    h : float
        Magnetic field, >= 0.

    Evenness is rejected, not repaired, here; use :func:`load_couplings_csv`
    or :meth:`symmetrized` when only one representative per pair is known.
    """

    def __init__(self, exchange, exchange_z, h):
        self.exchange = self._normalize("exchange", exchange)
        self.exchange_z = self._normalize("exchange_z", exchange_z)
        dims = {len(z) for z in self.exchange} | {len(z) for z in self.exchange_z}
        if len(dims) > 1:
            raise ValueError(f"mixed displacement dimensions: {sorted(dims)}")
        self._dimension = dims.pop() if dims else None
        if h < 0:
            raise ValueError(f"field h must be >= 0, got {h}")
        self.h = float(h)

    @staticmethod
    def _normalize(name, mapping) -> dict[Displacement, float]:
        out: dict[Displacement, float] = {}
        for raw, value in mapping.items():
            z = _as_displacement(raw)
            v = float(value)
            if v == 0.0:
                continue
            if all(c == 0 for c in z):
                raise ValueError(f"{name}: on-site coupling must vanish, got {v} at {z}")
            out[z] = v
        for z, v in out.items():
            mirror = tuple(-c for c in z)
            if out.get(mirror) != v:
                raise ValueError(
                    f"{name}: evenness violated at {z}: {v} vs {out.get(mirror)} at {mirror}"
                )
        return out

    @classmethod
    def symmetrized(cls, exchange, exchange_z, h) -> "CouplingSet":
        """Build a coupling set, inserting missing mirror displacements."""
        return cls(_with_mirrors(exchange, "exchange"), _with_mirrors(exchange_z, "exchange_z"), h)

    @classmethod
    def nearest_neighbor(cls, dimension, j=1.0, j3=1.0, h=0.0) -> "CouplingSet":
        """Isotropic-strength nearest-neighbor couplings on a nu-dimensional torus."""
        exchange = {}
        exchange_z = {}
        for axis in range(dimension):
            for sign in (+1, -1):
                z = tuple(sign if a == axis else 0 for a in range(dimension))
                if j:
                    exchange[z] = float(j)
                if j3:
                    exchange_z[z] = float(j3)
        return cls(exchange, exchange_z, h)

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
    """Dual-lattice momenta 2*pi*n/L, lexicographic in n, k=0 first."""

    points: np.ndarray
    lattice: LatticeSpec

    @classmethod
    def from_lattice(cls, lattice: LatticeSpec) -> "MomentumGrid":
        points = 2.0 * np.pi * lattice.site_vectors() / lattice.size
        points.setflags(write=False)
        return cls(points, lattice)

    def __len__(self) -> int:
        return self.points.shape[0]

    def index_of(self, k) -> int:
        """Grid index of a momentum (must lie on the grid up to 1e-9)."""
        k = np.atleast_1d(np.asarray(k, dtype=float))
        deltas = np.abs(self.points - k[None, :])
        deltas = np.minimum(deltas, 2.0 * np.pi - deltas)
        hits = np.nonzero(np.all(deltas < 1e-9, axis=1))[0]
        if hits.size != 1:
            raise ValueError(f"momentum {k} not on the grid")
        return int(hits[0])


def _coupling_items(couplings: CouplingSet, which: str):
    if which == "J":
        return couplings.exchange
    if which == "J3":
        return couplings.exchange_z
    raise ValueError(f"unknown coupling kind {which!r}, expected 'J' or 'J3'")


def fourier_coupling_grid(couplings: CouplingSet, which: str, grid: MomentumGrid) -> np.ndarray:
    """sum_z J(z) exp(-i k.z) of one coupling map at every grid momentum k.

    Evenness of the map makes the transform the cosine sum; the sine sum it
    cancels is the imaginary residue, checked against 1e-12 * sum_z |J(z)|.
    """
    mapping = _coupling_items(couplings, which)
    if not mapping:
        return np.zeros(len(grid))
    zs = np.array(list(mapping.keys()), dtype=float)
    vs = np.array(list(mapping.values()))
    phases = grid.points @ zs.T
    residue = float(np.max(np.abs(np.sin(phases) @ vs)))
    cap = _IMAG_TOL * float(np.sum(np.abs(vs)))
    if residue > cap:
        raise AssertionError(f"imaginary residue {residue:.3e} exceeds {cap:.3e}")
    return np.cos(phases) @ vs


def exchange_gap_grid(couplings: CouplingSet, grid: MomentumGrid) -> np.ndarray:
    """Exchange part of the magnon gap, J3(0) - J(q), at every grid momentum q."""
    return sum(couplings.exchange_z.values()) - fourier_coupling_grid(couplings, "J", grid)


def coupling_matrix(couplings: CouplingSet, which: str, lattice: LatticeSpec) -> np.ndarray:
    """Periodized site-to-site coupling matrix on the torus.

    Every stored displacement contributes to the pair it connects mod L, so
    displacements longer than the torus fold onto it additively.  This keeps
    the matrix exactly consistent with the grid Fourier transforms.
    """
    mapping = _coupling_items(couplings, which)
    n = lattice.n_sites
    mat = np.zeros((n, n))
    if not mapping:
        return mat
    if couplings.dimension != lattice.dimension:
        raise ValueError(
            f"coupling dimension {couplings.dimension} != lattice dimension {lattice.dimension}"
        )
    sites = lattice.site_vectors()
    radix = lattice.size ** np.arange(lattice.dimension - 1, -1, -1, dtype=np.int64)
    rows = np.arange(n)
    for z, v in mapping.items():
        targets = ((sites - np.asarray(z, dtype=np.int64)) % lattice.size) @ radix
        mat[rows, targets] += v
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

    @property
    def passed(self) -> bool:
        """Relaxed verdict used by downstream solvers."""
        return self.gap_ok and self.field_ok_relaxed


def validate_ferromagnetic(
    couplings: CouplingSet, grid: MomentumGrid, tol: float = DEFAULT_GAP_TOL
) -> ValidationReport:
    """Check that the couplings put the model in the ferromagnetic regime.

    Positivity of the translation-invariant stability matrix is equivalent
    to its Fourier symbol J3(0) - J(q) being nonnegative on the grid, so no
    dense eigendecomposition is needed.  Two field verdicts are reported:
    the strict one, h > gap(0) > 0, and the relaxed one, h > max(gap(0), 0),
    which is all the solvers require (the isotropic case has gap(0) = 0).

    ``tol`` is relative: the gap counts as nonnegative down to
    ``-tol * sum_z (|J(z)| + |J3(z)|)``, the scale of its rounding noise.
    """
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    maps = (couplings.exchange, couplings.exchange_z)
    scale = sum(abs(v) for mapping in maps for v in mapping.values())
    gaps = exchange_gap_grid(couplings, grid)
    gap0 = float(gaps[0])
    i_min = int(np.argmin(gaps))
    gap_min = float(gaps[i_min])
    q_min = grid.points[i_min].copy()
    h = couplings.h

    gap_ok = gap_min >= -tol * scale
    strict = (h > gap0) and (gap0 > 0.0)
    relaxed = h > max(gap0, 0.0)

    messages = [f"minimum gap {gap_min:.17g} at q={np.array2string(q_min, precision=6)}"]
    if not gap_ok:
        messages.append("gap negative: couplings are not ferromagnetic")
    if relaxed and not strict:
        messages.append("strict field condition h > gap(0) > 0 not met; relaxed condition holds")
    if not relaxed:
        messages.append(f"field h={h:.17g} does not exceed max(gap(0), 0)={max(gap0, 0.0):.17g}")
    if 2 * couplings.coupling_range >= grid.lattice.size:
        messages.append(
            f"coupling range {couplings.coupling_range} >= L/2: periodic images overlap "
            "and are summed"
        )
    return ValidationReport(
        gap_values=gaps,
        gap_at_zero=gap0,
        minimum_gap=gap_min,
        minimizing_momentum=q_min,
        gap_ok=gap_ok,
        field_ok_strict=strict,
        field_ok_relaxed=relaxed,
        messages=messages,
    )


def load_couplings_csv(path, dimension: int, h: float) -> CouplingSet:
    """Read couplings from CSV with header dz1,...,dznu,J,J3.

    One row per displacement.  Missing mirror rows are inserted; rows that
    disagree with an earlier entry for the same displacement are rejected.
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
    return CouplingSet(_with_mirrors(exchange, path), _with_mirrors(exchange_z, path), h)

