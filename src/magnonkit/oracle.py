"""Exact Gibbs-state oracle for the rescaled Heisenberg model at finite spin.

Each site carries n = 2S+1 spin-1/2 copies but the Hamiltonian only sees the
collective (copy-summed) operators, so the per-site space block-diagonalizes
into total-spin sectors with combinatorial multiplicities.  The Gibbs trace
becomes a multiplicity-weighted sum over per-site sector assignments, which
turns an exponential 2**(n*N) problem into products of tiny spin-j blocks.
The Hamiltonian also conserves total S3, so each block is built and
diagonalized sector by sector of total magnetization: the sector blocks are
scattered straight from the hops of the mixed-radix index arithmetic on the
product basis, with a per-hop check that every hop stays in its source's
sector.  S+ is kept as its pieces between sectors; S3 is diagonal in the
product basis, so only the eigenbasis diagonals of S3 and S3^2 are kept.

Two exact Z2 symmetries of the model are used on top of that.  The global
spin flip P (index reversal in the product basis) maps sector -M onto M,
and H_-M = P H_M P + c_M, where c_M comes from the field and the
self-coupling J(0); so only the sectors with M >= 0 are diagonalized, and
sector -M < 0 takes E_M + c_M and the reversed eigenvectors of M (checked:
every flipped pair of diagonal entries differs by c_M up to rounding).  Its
S3 diagonals are those of M with S3 negated, and the S+ piece from -M-2 to
-M is the transpose of the one from M to M+2, so only the pieces from
M >= -2 are rotated and stored; a piece from M > 0 also stands for its
mirror.  (The pieces into and out of M = 0 are both rotated: ``eigh``'s
basis of that self-mirrored sector is not flip-adapted.)  And assignments
related by a lattice translation or by the inversion x -> -x are
isospectral, so one block per orbit of those 2N site permutations is
diagonalized; the other members are stored as that representative plus a
site permutation, and hold no operator copies of their own.  The Gibbs
expectations are invariant under both, so every observable is evaluated once
per orbit: momentum-space ones are the representative's value times the
orbit size (a reflected member's F+(q) is the representative's F+(-q) up to
a phase, and F+(-q) is the conjugate of F+(q)), and site-resolved ones
scatter the representative's values through the members' permutations.  The
fluctuation observables at one momentum (Wick residual, both energy-entropy
margins) share one pass per pair {q, -q} that forms each stored F+(q) piece
once.  A brute-force full-tensor path is kept for cross-validation: it
indexes the 2**(copies*sites) qubit states by bits and builds one dense
Hamiltonian from single-qubit flips, with no sectors, orbits, flips or
collective spins, and diagonalizes it unsplit.

Conventions: collective spins are Pauli sums (z eigenvalues are integers of
the same parity as n, [S+, S-] = S3), and the pair couplings are periodized
over the torus so that position-space and momentum-space formulas agree
exactly at any lattice size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import CouplingSet, LatticeSpec, MomentumGrid, coupling_matrix, exchange_gap_grid
from .sectors import check_copies, sector_decomposition
from .spinwave import RegimeError, ThermalParams, occupation

MAX_SECTOR_BLOCK_DIM = 10_000
# At the cap (n=3 on 4 sites) a full build takes about 15 s and 0.95 GB peak RSS
# (2-vCPU VM, one BLAS thread).
MAX_FULL_DIM = 2**12

_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class SpinConfig:
    """Lattice, couplings and the number of spin-1/2 copies per site.

    A config refuses a product basis (copies + 1)**sites, the sector engine's
    largest block, over ``MAX_SECTOR_BLOCK_DIM``; the base is >= 2, so a site
    count at the cap's bit length or past it is refused without the power.
    """

    copies: int
    lattice: LatticeSpec
    couplings: CouplingSet

    def __post_init__(self):
        check_copies(self.copies)
        cd = self.couplings.dimension
        if cd is not None and cd != self.lattice.dimension:
            raise ValueError(
                f"coupling dimension {cd} does not match lattice dimension "
                f"{self.lattice.dimension}"
            )
        base, n_sites = self.copies + 1, self.lattice.n_sites
        if n_sites >= MAX_SECTOR_BLOCK_DIM.bit_length() or base**n_sites > MAX_SECTOR_BLOCK_DIM:
            dim = base**n_sites if n_sites < 64 else f"{base}**{n_sites}"
            raise ValueError(f"largest sector block dimension {dim} at copies={self.copies} exceeds cap "
                             f"{MAX_SECTOR_BLOCK_DIM} (MAX_SECTOR_BLOCK_DIM)")


class _Block:
    """One invariant subspace: eigendata plus site operators in the eigenbasis.

    The eigenbasis runs sector by sector through ``energies``.  S+ is stored
    as pieces ``(rows, cols, stack, mirror)``: ``rows`` and ``cols`` slice
    the eigenbasis and ``stack[x]`` is the real matrix of S+(x) from total-S3
    sector M (``cols``) to M+2 (``rows``); every other entry is zero.  The
    spin flip maps the piece from -M-2 to -M onto the transpose of the one
    from M to M+2, so a piece whose ``mirror`` is a pair of slices (rows,
    cols) also stands for the piece ``stack[x].T`` at those slices; one with
    ``mirror`` None stands only for itself (the self-mirrored piece from -1
    to 1, the two pieces that touch M = 0, an unsplit block).  S3(x) is
    diagonal in the product basis and keeps each sector, so only the
    eigenbasis diagonals of S3(x) and S3(x)^2 are stored: ``three[k, x]`` is
    (V o V)^T s3(x)^(k+1) for the eigenvectors V, shape (2, n_sites, dim).
    ``max_sector_dim`` is the size of the largest matrix the build passed to
    ``eigh``.
    """

    def __init__(self, log_weight, energies, plus, three, max_sector_dim):
        self.log_weight = log_weight
        self.energies = energies
        self.plus = plus  # S+ pieces
        self.three = three  # diagonals of S3 and S3^2
        self.max_sector_dim = max_sector_dim

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def fluct_plus(self, coeffs: np.ndarray) -> list:
        """Pieces (rows, cols, F, mirror) of sum_x coeffs[x] * S+(x) in the eigenbasis.

        A mirrored piece's F is the transpose of the stored piece's.
        """
        return [
            (rows, cols, (coeffs @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:]), mirror)
            for rows, cols, stack, mirror in self.plus
        ]


def _symmetries(lattice: LatticeSpec) -> np.ndarray:
    """Site permutation of every translation and translated inversion, shape (2 n_sites, n_sites).

    Row t sends site x to the site at x + t and row n_sites + t sends it to
    the site at -x + t, t running over ``site_vectors`` (so row 0 is the
    identity).
    """
    sites = lattice.site_vectors()
    images = np.concatenate([sites[:, None, :] + sites[None, :, :], sites[:, None, :] - sites[None, :, :]])
    return lattice.site_index(images)


def _orbits(n_entries: int, symmetries: np.ndarray):
    """Orbit of every per-site assignment under the site permutations, in product order.

    Assignment number a has digits a_x over ``n_entries`` values, site 0 most
    significant (``itertools.product`` order).  Returns per assignment the
    number of its representative, the first assignment of its orbit, and a
    site permutation p with assignment[x] == representative[p[x]].
    """
    n_sites = symmetries.shape[1]
    codes = np.indices((n_entries,) * n_sites).reshape(n_sites, -1).T
    radix = n_entries ** np.arange(n_sites - 1, -1, -1)
    keys = codes[:, symmetries] @ radix  # keys[a, g]: number of a permuted by g
    best = keys.argmin(axis=1)
    reps = keys[np.arange(len(keys)), best]
    return reps, np.argsort(symmetries, axis=1)[best]


def _product_basis(twice_js):
    """Digits, strides, S+ amplitudes and S3 diagonals of one product basis.

    Basis index i has mixed-radix digits a_x (site 0 most significant, the
    Kronecker order).  S+(x) sends i to i + stride_x with amplitude
    sqrt((t_x - a_x)(a_x + 1)), t_x = 2 j_x, which vanishes at a_x = t_x;
    S3(x) is 2 a_x - t_x.  Index reversal i -> D-1-i sends every digit a_x
    to t_x - a_x: it flips every spin.
    """
    t = np.asarray(twice_js)[:, None]
    dims = t[:, 0] + 1
    digits = np.indices(dims).reshape(len(dims), -1)
    strides = np.cumprod([1, *dims[:0:-1]])[::-1]
    return digits, strides, np.sqrt((t - digits) * (digits + 1.0)), 2.0 * digits - t


def _hamiltonian(basis, j_mat, j3_mat, h, two_n):
    """Hamiltonian of one assignment in its product basis, by index arithmetic.

    Returns its diagonal and its off-diagonal entries as hops (dst, src,
    value), H[dst, src] = value.  S+(x) S-(y) sends i to i + stride_x -
    stride_y; x == y and the S3 products land on the diagonal.  Each hop
    changes a different pair of digits, so no two hops share an entry.
    """
    digits, strides, amp, s3 = basis
    n_sites, dim = digits.shape
    hop = np.zeros(dim)
    diag = np.zeros(dim)
    dst, src, value = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for x in range(n_sites):
        for y in range(n_sites):
            jxy = j_mat[x, y]
            if jxy != 0.0:
                coeff = (4.0 / two_n) * jxy
                lowered = np.flatnonzero(digits[y] > 0)  # S-(y) acts on these
                if x == y:
                    down = amp[y, lowered - strides[y]]
                    hop[lowered] -= coeff * (down * down)
                else:
                    lowered = lowered[amp[x, lowered] > 0.0]  # and S+(x) can raise
                    mid = lowered - strides[y]
                    dst.append(mid + strides[x])
                    src.append(lowered)
                    value.append(-(coeff * (amp[x, mid] * amp[y, mid])))
            j3xy = j3_mat[x, y]
            if j3xy != 0.0:
                diag -= (1.0 / two_n) * j3xy * s3[x] * s3[y]
        diag += h * s3[x]
    return hop + diag, tuple(np.concatenate(part) for part in (dst, src, value))


def _split_by_magnetization(diagonal, hops, magnetization, slope, tol):
    """Diagonalize the Hamiltonian sector by sector of total S3.

    Index reversal i -> D-1-i must map the sector of magnetization -M onto
    that of M, and the Hamiltonian must satisfy H_-M = P H_M P + slope * M
    for that reversal P (the spin flip: ``slope`` comes from the field and
    the self-coupling).  So only the sectors with M >= 0 are scattered,
    straight from the diagonal and the hops, each into its own square of one
    flat buffer; sectors of equal size lie side by side there and go to one
    stacked ``eigh``.  Sector -M < 0 gets the eigenvalues E_M + slope * M and
    the eigenvectors V_M[::-1] (a view).  Returns the permutation that sorts
    the product basis by magnetization, the sorted sector values and slices,
    the per-sector eigenpairs, and per product state its position in the
    sorted basis and its sector number.  Raises AssertionError if a hop
    leaves its source's sector, or if a pair of flipped diagonal entries
    differs by more than ``tol`` from slope * M.
    """
    dst, src, value = hops
    leak = magnetization[dst] != magnetization[src]
    if leak.any():
        raise AssertionError(
            f"Hamiltonian couples different total-S3 sectors "
            f"(largest entry {np.max(np.abs(value[leak])):.3e})"
        )
    if np.any(magnetization[::-1] != -magnetization):
        raise AssertionError("index reversal does not flip the total S3")
    defect = np.max(np.abs(diagonal[::-1] - diagonal - slope * magnetization))
    if not defect <= tol:
        raise AssertionError(
            f"spin flip shifts the diagonal by other than {slope:.17g} M "
            f"(largest deviation {defect:.3e}, tolerance {tol:.3e})"
        )
    order = np.argsort(magnetization, kind="stable")
    values, starts, sizes = np.unique(magnetization[order], return_index=True, return_counts=True)
    sectors = [slice(a, a + d) for a, d in zip(starts, sizes)]
    kept = np.flatnonzero(values >= 0)
    layout = kept[np.argsort(sizes[kept], kind="stable")]  # buffer order: by size, then by magnetization
    offsets = np.zeros_like(sizes)
    offsets[layout] = np.cumsum(sizes[layout] ** 2) - sizes[layout] ** 2
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    sector = np.repeat(np.arange(len(sizes)), sizes)[rank]  # per product state
    local, width = rank - starts[sector], sizes[sector]
    at = offsets[sector] + local * width  # where each state's row starts
    upper = magnetization >= 0
    moved = upper[src]  # hops inside the scattered sectors
    buffer = np.zeros(int(np.sum(sizes[kept] ** 2)))
    buffer[at[upper] + local[upper]] = diagonal[upper]
    buffer[at[dst[moved]] + local[src[moved]]] = value[moved]
    eigen = [None] * len(sectors)
    for size in np.unique(sizes[kept]):
        group = layout[sizes[layout] == size]
        start = offsets[group[0]]
        stack = buffer[start:start + len(group) * size**2].reshape(len(group), size, size)
        energies, vectors = np.linalg.eigh(stack)
        for k, e, v in zip(group, energies, vectors):
            eigen[k] = (e, v)
    last = len(sectors) - 1  # sectors k and last - k hold M and -M
    for k in kept[values[kept] > 0]:
        energies, vectors = eigen[k]
        eigen[last - k] = (energies + slope * values[k], vectors[::-1])
    return order, values, sectors, eigen, rank, sector


def _sector_blocks(config: SpinConfig):
    """The orbits under translations and inversion: (representative block, member permutations).

    Orbits run in the order of their representatives' assignment numbers,
    and row k of the permutation array belongs to the k-th member in product
    order, the representative's identity included.
    """
    n, lattice = config.copies, config.lattice
    n_sites = lattice.n_sites
    table = sector_decomposition(n)
    j_mat = coupling_matrix(config.couplings.exchange, lattice)
    j3_mat = coupling_matrix(config.couplings.exchange_z, lattice)
    symmetries = _symmetries(lattice)
    for name, mat in (("J", j_mat), ("J3", j3_mat)):
        if not np.all(mat[symmetries[:, :, None], symmetries[:, None, :]] == mat):
            raise AssertionError(
                f"coupling matrix {name} is not invariant under lattice translations and inversion"
            )
    h = config.couplings.h
    two_n = 2.0 * n
    # The spin flip P turns S+(x) S-(x) into S+(x) S-(x) - S3(x) and h S3 into
    # -h S3, so P H P = H + slope * S3 with the self-coupling J(0) = J[x, x].
    self_coupling = (4.0 / two_n) * j_mat[0, 0]
    slope = self_coupling - 2.0 * h
    eps = float(np.finfo(float).eps)

    def build(assignment):
        weight = math.prod(e.multiplicity for e in assignment)
        t = np.array([e.twice_j for e in assignment])
        basis = _product_basis(t)
        _, strides, amp, s3 = basis
        diagonal, hops = _hamiltonian(basis, j_mat, j3_mat, h, two_n)
        # a bound on the sum of |terms| of a diagonal entry (S+S- <= ((t + 1)/2)^2, |S3| <= t)
        # and on slope * M, for the rounding of the flip check
        terms = abs(self_coupling) * np.sum((t + 1.0) ** 2) / 4.0 + t @ np.abs(j3_mat) @ t / two_n
        terms += (h + abs(slope)) * t.sum()
        order, values, sectors, eigen, rank, sector = _split_by_magnetization(
            diagonal, hops, s3.sum(axis=0), slope, 4 * (n_sites + 2) ** 2 * eps * terms)
        # every S+(x) entry, written in the sorted basis: site, row, column
        site, src = np.nonzero(amp > 0.0)
        row, col = rank[src + strides[site]], rank[src]
        col_sector = sector[src]
        s3_sorted = s3[:, order]
        powers = np.stack([s3_sorted, s3_sorted**2])
        last = len(sectors) - 1  # sectors k and last - k hold M and -M
        three, plus = [None] * len(sectors), []
        for k in np.flatnonzero(values >= -2):
            if values[k] >= 0:
                vectors = eigen[k][1]
                three[k] = powers[:, :, sectors[k]] @ (vectors * vectors)
            if values[k] > 0:  # the flip negates S3(x) and keeps S3(x)^2
                three[last - k] = three[k] * np.array([-1.0, 1.0])[:, None, None]
            if k < last:  # S+ raises the total S3 by 2: from sector k to k + 1
                cols, rows = sectors[k], sectors[k + 1]
                sel = col_sector == k
                # V^T S+(x): the entry (r, c) puts amplitude times row r of V into column c
                left = np.zeros((n_sites, cols.stop - cols.start, rows.stop - rows.start))
                at = site[sel], col[sel] - cols.start
                left[at] = amp[site[sel], src[sel], None] * eigen[k + 1][1][row[sel] - rows.start]
                # the pieces that touch M = 0 are both rotated: eigh's basis of that
                # sector is not flip-adapted, so their mirrors are no plain transposes
                mirror = (sectors[last - k], sectors[last - k - 1]) if values[k] > 0 else None
                plus.append((rows, cols, left.transpose(0, 2, 1) @ eigen[k][1], mirror))
        energies = np.concatenate([e for e, _ in eigen])
        return _Block(math.log(weight), energies, plus, np.concatenate(three, axis=-1),
                      int(max(s.stop - s.start for s in sectors)))

    assignments = list(itertools.product(table.entries, repeat=n_sites))
    reps, perms = _orbits(len(table.entries), symmetries)
    return [(build(assignments[r]), perms[reps == r]) for r in np.unique(reps).tolist()]


def _full_block(config: SpinConfig) -> _Block:
    """All 2**(copies*sites) qubit states as one block, built by bit arithmetic.

    Qubit k = x*copies + i is bit n_qubits-1-k of the index, set for spin down.
    sigma+_a sigma-_b flips bits a (set) and b (clear); for a == b it projects
    onto bit a clear.  The sector engine's referee: no sectors, orbits or flips.
    """
    n, lattice = config.copies, config.lattice
    n_sites = lattice.n_sites
    n_qubits = n * n_sites
    dim = 2**n_qubits  # a small power: a SpinConfig has copies * sites <= 62
    if dim > MAX_FULL_DIM:
        raise ValueError(f"full-tensor dimension {dim} at copies={n} exceeds cap {MAX_FULL_DIM} (MAX_FULL_DIM)")
    index = np.arange(dim)
    masks = 1 << np.arange(n_qubits - 1, -1, -1)  # masks[k]: bit of qubit k
    down = (index[None, :] & masks[:, None]) != 0  # down[k, i]: qubit k of state i
    clear = n - down.reshape(n_sites, n, dim).sum(axis=1)  # spins up per site
    s3 = 2.0 * clear - n

    j_mat = coupling_matrix(config.couplings.exchange, lattice)
    j3_mat = coupling_matrix(config.couplings.exchange_z, lattice)
    two_n = 2.0 * n
    hamiltonian = np.zeros((dim, dim))
    diag = np.zeros(dim)
    for x in range(n_sites):
        for y in range(n_sites):
            if j_mat[x, y] != 0.0:
                coeff = (4.0 / two_n) * j_mat[x, y]
                if x == y:  # the a == b projectors; a == b selects no src below
                    hamiltonian[index, index] -= coeff * clear[x]
                for a, b in itertools.product(range(x * n, x * n + n), range(y * n, y * n + n)):
                    src = index[down[a] & ~down[b]]
                    hamiltonian[src ^ masks[a] ^ masks[b], src] -= coeff
            if j3_mat[x, y] != 0.0:
                diag -= (1.0 / two_n) * j3_mat[x, y] * s3[x] * s3[y]
        diag += config.couplings.h * s3[x]
    hamiltonian[index, index] += diag
    energies, vectors = np.linalg.eigh(hamiltonian)
    del hamiltonian
    # S+(x) V adds row i + mask_k of V to row i for every qubit k of x that is up in i
    t_plus = np.empty((n_sites, dim, dim))
    for x in range(n_sites):
        raised = np.zeros((dim, dim))
        for k in range(x * n + n - 1, x * n - 1, -1):
            split = (2**k, 2, dim >> (k + 1), dim)
            raised.reshape(split)[:, 0] += vectors.reshape(split)[:, 1]
        np.matmul(vectors.T, raised, out=t_plus[x])
    everything = slice(0, dim)  # one unsplit sector: S+ maps it to itself
    return _Block(0.0, energies, [(everything, everything, t_plus, None)],
                  np.stack([s3, s3**2]) @ (vectors * vectors), dim)


class GibbsEnsemble:
    """Sector-blocked (or full-tensor) Gibbs state with cached expectations.

    ``orbits`` lists (representative, member permutations): the member with
    permutation p has the representative's spectrum, and its operator at
    site x is the representative's at p[x].  ``probs[k]`` are the Gibbs
    probabilities of orbit k's representative, kept here so that ensembles can
    share orbits.  Each expectation below is evaluated on the representatives
    only, and the fluctuation observables at a momentum come from one walk
    over the orbits, cached per pair {q, -q} of grid momenta.
    """

    def __init__(self, config: SpinConfig, beta: float, orbits: list):
        self.config = config
        self.beta = float(beta)
        self.orbits = orbits
        ground = min(float(rep.energies.min()) for rep, _ in orbits)
        weights = [np.exp(rep.log_weight - self.beta * (rep.energies - ground)) for rep, _ in orbits]
        total = sum(len(perms) * float(w.sum()) for w, (_, perms) in zip(weights, orbits))
        self.probs = [w / total for w in weights]
        self.logZ = math.log(total) - self.beta * ground
        self.ground_energy = ground
        self._per_q = {}  # lower grid index of {q, -q} -> what _momentum_sums returns

    @property
    def blocks(self) -> list[_Block]:
        """One block per assignment: each representative once per orbit member (read-only)."""
        return [rep for rep, perms in self.orbits for _ in perms]

    @property
    def n_sites(self) -> int:
        return self.config.lattice.n_sites

    @property
    def copies(self) -> int:
        return self.config.copies

    def _site_sum(self, per_rep) -> np.ndarray:
        """Sum over all blocks of per-site values, from the representatives.

        ``per_rep(rep, probs)`` returns the representative's values with sites
        on the first axis; a member's value at site x is the representative's
        at perm[x].
        """
        return sum(per_rep(rep, probs)[perms].sum(axis=0)
                   for (rep, perms), probs in zip(self.orbits, self.probs))

    @cached_property
    def sigma3_site(self) -> np.ndarray:
        """Per-copy magnetization <sigma3> at each site (translation invariant)."""
        return self._site_sum(lambda rep, probs: rep.three[0] @ probs) / self.copies

    @cached_property
    def sigma3(self) -> float:
        """Site-averaged per-copy magnetization <sigma3>."""
        return float(np.mean(self.sigma3_site))

    def sigma3_site_variance(self, x: int) -> float:
        """Variance of the per-copy site average S3(x)/n (shrinks like 1/n)."""
        mom1, mom2 = self._site_sum(lambda rep, probs: (rep.three @ probs).T)[x]
        return (mom2 - mom1**2) / self.copies**2

    @cached_property
    def _two_point(self) -> np.ndarray:
        """<S+(x) S-(y)> and <S-(y) S+(x)> for all site pairs, shape (2, N, N).

        Per S+ piece, diag(S+(x) S-(y)) sums S+(x) * S+(y) over columns and
        diag(S-(y) S+(x)) sums it over rows; a mirrored piece is the stored
        one transposed, so its probabilities go on the swapped axes.  A
        member's entry (x, y) is its representative's entry (perm[x], perm[y]).
        """
        n = self.n_sites
        out = np.zeros((2, n, n))
        for (rep, perms), probs in zip(self.orbits, self.probs):
            rep_out = np.zeros((2, n, n))
            for rows, cols, stack, mirror in rep.plus:
                flat = stack.reshape(n, -1)
                by_rows, by_cols = probs[rows, None], probs[None, cols]
                if mirror is not None:
                    by_rows, by_cols = by_rows + probs[None, mirror[0]], by_cols + probs[mirror[1], None]
                for i, weights in enumerate((by_rows, by_cols)):
                    rep_out[i] += (stack * weights).reshape(n, -1) @ flat.T
            out += rep_out[:, perms[:, :, None], perms[:, None, :]].sum(axis=1)
        return out

    @property
    def two_point_pm(self) -> np.ndarray:
        """<S+(x) S-(y)> for all site pairs."""
        return self._two_point[0]

    def _fluct_coeffs(self, k: np.ndarray) -> np.ndarray:
        sites = self.config.lattice.site_vectors()
        norm = math.sqrt(self.n_sites * self.copies)
        return np.exp(1j * sites @ np.atleast_1d(np.asarray(k, dtype=float))) / norm

    def _momentum_sums(self, q):
        """Bilinear sums u^T |F+(q)|^2 v over the pieces, and <F+F+F-F->, at q.

        One walk over the orbits per pair {q, -q} of grid momenta, cached by
        and evaluated at the pair's lower grid index; q off the grid raises
        ValueError.  A translate's F+(q) is its representative's times the
        phase exp(-i q.s), a reflected member's is its representative's
        F+(-q) times a phase, and F+(-q) is the entrywise conjugate of F+(q)
        since the pieces are real; every sum here is invariant under both,
        so an orbit counts its representative's value times its size, and q
        and -q share one value.  Entry (i, j) of the 4 x 4 matrix sums
        u_i^T W v_j over the pieces, W = |F+|^2 entrywise, u over the piece's
        rows and v over its columns, both running through (1, p, E, pE) for
        the probabilities p and energies E; so <F+F-> = (p, 1),
        <F-F+> = (1, p), and the margin sums are (E, p) - (1, pE) for X = F+
        and (p, E) - (pE, 1) for X = F-.  diag(F+F+ F-F-) is the squared row
        norms of G = F+ times the piece that F+ applies first.  A mirror
        piece is its stored piece transposed, so it adds W^T at the mirror's
        slices, and the mirror of a stored pair has the product G^T, whose
        row norms are G's column norms, weighted by the probabilities of the
        sector it enters (into M = 0, G^T up to an orthogonal mixing of
        degenerate levels, which leaves those weighted norms alone).  Pairs
        whose inner piece is a mirror are exactly those mirrors, and are not
        walked.
        """
        grid = MomentumGrid.from_lattice(self.config.lattice)
        index = grid.index_of(q)
        key = min(index, grid.index_of(-grid.points[index]))
        if key not in self._per_q:
            coeffs = self._fluct_coeffs(grid.points[key])
            forms, four = np.zeros((4, 4)), 0.0
            for (rep, perms), probs in zip(self.orbits, self.probs):
                sides = np.stack([np.ones(rep.dim), probs, rep.energies, probs * rep.energies])
                pieces = rep.fluct_plus(coeffs)
                by_rows = {rows.start: f_plus for rows, _, f_plus, _ in pieces}
                # first row of the sector each piece leaves, stored or mirrored -> the rows it enters
                enters = {}
                for rows, cols, _, mirror in pieces:
                    enters[cols.start] = rows
                    if mirror is not None:
                        enters[mirror[1].start] = mirror[0]
                for rows, cols, f_plus, mirror in pieces:
                    weight = _abs2(f_plus)
                    part = sides[:, rows] @ weight @ sides[:, cols].T
                    if mirror is not None:
                        part += (sides[:, mirror[1]] @ weight @ sides[:, mirror[0]].T).T
                    forms += len(perms) * part
                    inner = by_rows.get(cols.start)
                    if inner is not None:
                        product = _abs2(f_plus @ inner)
                        value = probs[rows] @ product.sum(axis=1)
                        if mirror is not None:
                            value += probs[enters[mirror[0].start]] @ product.sum(axis=0)
                        four += len(perms) * float(value)
            self._per_q[key] = forms, four
        return self._per_q[key]


def build_gibbs(config: SpinConfig, beta: float, mode: str = "sector") -> GibbsEnsemble:
    """Diagonalize the model and assemble its Gibbs ensemble.

    ``mode="sector"`` walks the per-site total-spin assignments (fast path);
    ``mode="full"`` diagonalizes the dense Hamiltonian on all
    2**(copies*sites) qubit states, built by bit arithmetic, and is only
    meant for cross-validation at small sizes (``MAX_FULL_DIM``).
    """
    if beta < 0.0 or not math.isfinite(beta):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    if mode == "sector":
        orbits = _sector_blocks(config)
    elif mode == "full":
        orbits = [(_full_block(config), np.arange(config.lattice.n_sites)[None, :])]
    else:
        raise ValueError(f"mode must be 'sector' or 'full', got {mode!r}")
    return GibbsEnsemble(config, beta, orbits)


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > _IMAG_TOL:
        raise AssertionError(f"{what}: imaginary part {value.imag:.3e} exceeds {_IMAG_TOL}")
    return float(value.real)


def _abs2(mat: np.ndarray) -> np.ndarray:
    """Entrywise squared modulus of a complex matrix."""
    return mat.real**2 + mat.imag**2


def fluctuation_two_point(ensemble: GibbsEnsemble, q) -> float:
    """<F+(q) F-(q)> for the volume- and copy-normalized fluctuation mode."""
    sites = ensemble.config.lattice.site_vectors()
    phases = np.exp(1j * sites @ np.atleast_1d(np.asarray(q, dtype=float)))
    value = phases @ ensemble.two_point_pm @ phases.conj()
    value = value / (ensemble.n_sites * ensemble.copies)
    return _real(complex(value), "fluctuation two-point")


def commutator_expectation(ensemble: GibbsEnsemble, k, q) -> float:
    """<[F+(k), F-(q)]>; equals sigma3 for k = q and vanishes otherwise."""
    pm, mp = ensemble._two_point
    value = ensemble._fluct_coeffs(k) @ (pm - mp) @ ensemble._fluct_coeffs(q).conj()
    return _real(complex(value), "commutator expectation")


@dataclass(frozen=True)
class EnergyEntropyMargin:
    """Both sides of the equilibrium energy-entropy inequality lhs >= rhs."""

    lhs: float
    rhs: float
    x_dag_x: float
    x_x_dag: float
    trivial: bool = False


def energy_entropy_margin(ensemble: GibbsEnsemble, q, kind: str = "-") -> EnergyEntropyMargin:
    """Evaluate beta*<X*[H,X]> >= <X*X> ln(<X*X>/<XX*>) for X = F^kind(q).

    Holds for every exact Gibbs state; near-vanishing expectations make the
    inequality trivially true and are flagged instead of producing log(0).
    q must be a point of the lattice's momentum grid (ValueError otherwise).
    """
    if kind not in ("+", "-"):
        raise ValueError(f"kind must be '+' or '-', got {kind!r}")
    forms, _ = ensemble._momentum_sums(q)
    one, p, e, pe = range(4)
    if kind == "+":  # <X* X> = <F- F+>, <X X*> = <F+ F->
        xx, yy, lhs_raw = forms[one, p], forms[p, one], forms[e, p] - forms[one, pe]
    else:
        xx, yy, lhs_raw = forms[p, one], forms[one, p], forms[p, e] - forms[pe, one]
    xx, yy, lhs_raw = float(xx), float(yy), float(lhs_raw)
    lhs = ensemble.beta * lhs_raw
    if xx < 1e-300 or yy < 1e-300:
        return EnergyEntropyMargin(lhs=lhs, rhs=0.0, x_dag_x=xx, x_x_dag=yy, trivial=True)
    return EnergyEntropyMargin(lhs=lhs, rhs=xx * math.log(xx / yy), x_dag_x=xx, x_x_dag=yy)


def wick_residual(ensemble: GibbsEnsemble, q) -> float:
    """|<F+ F+ F- F-> - 2 <F+ F->^2| at momentum q.

    A quasi-free state makes this vanish; at finite copy number it measures
    the distance from Gaussianity and shrinks as copies grow.  q must be a
    point of the lattice's momentum grid (ValueError otherwise).
    """
    forms, four = ensemble._momentum_sums(q)
    two = float(forms[1, 0])  # <F+ F->, the (p, 1) form
    return abs(four - 2.0 * two**2)


@dataclass(frozen=True)
class ConvergenceRow:
    """One rung of a convergence study; its fields are the columns of ``convergence.json`` and ``.csv``, in order.

    The copy count ``n``, the oracle's magnetization ``m_n``, the exact
    two-point function ``t_n`` at q, its spin-wave prediction ``p_n`` and the
    ``discrepancy`` |t_n - p_n|.  ``rounding_floor`` is the a-priori
    rounding bound of the discrepancy: that of t_n's N^2-term phase sum,
    N^2 eps sum_xy |<S+(x) S-(y)>| / (N n); that of t_n's Gibbs weights,
    2 beta max_i |E_i| eps |t_n|, since each weight exp(-beta (E - E0))
    carries up to beta (|E| + |E0|) eps from its energies; and p_n's
    first-order rounding through m_n, |dp/dm| T eps |m_n| for the T terms
    summed into sigma3, with
    dp/dm = p (1/m + 2 beta D e^x / (e^x - 1)).  A discrepancy at or below it
    is rounding noise.  ``logZ`` and ``ground_energy`` are the ensemble's,
    ``representatives`` counts the orbits under translations and inversion
    (one block diagonalized each) and ``max_sector_dim`` is the largest
    matrix passed to ``eigh``.
    """

    n: int
    m_n: float
    t_n: float
    p_n: float
    discrepancy: float
    rounding_floor: float
    logZ: float
    ground_energy: float
    representatives: int
    max_sector_dim: int


def convergence_study(
    lattice: LatticeSpec,
    couplings: CouplingSet,
    beta: float,
    q,
    copies_list,
    gaps: np.ndarray | None = None,
) -> list[ConvergenceRow]:
    """Compare the exact fluctuation two-point function with its infinite-spin
    prediction across a ladder of copy counts.

    The prediction is the Bose occupation evaluated at the oracle's own
    magnetization, so the comparison isolates the quasi-free structure; it
    is read off the grid occupations at q, the solver's formula.  q must be
    a point of the lattice's momentum grid (ValueError otherwise), and every
    rung's ``SpinConfig`` refuses its copy count or its size before the first
    rung is built.  ``gaps`` are the grid's exchange gaps if the caller has
    them; the study computes them at most once.  A rung whose
    magnetization is positive (not ordered along -S3) is a RegimeError.
    Every rung is built by the sector engine; ``build_gibbs(..., mode="full")`` referees it.
    """
    configs = [SpinConfig(copies=int(n), lattice=lattice, couplings=couplings) for n in copies_list]
    params = ThermalParams(beta=beta, h=couplings.h)
    grid = MomentumGrid.from_lattice(lattice)
    index = grid.index_of(q)
    gaps = exchange_gap_grid(couplings, grid) if gaps is None else gaps
    gap = float(gaps[index])
    eps = float(np.finfo(float).eps)
    rows = []
    for config in configs:
        ensemble = build_gibbs(config, beta)
        m_n = ensemble.sigma3
        if m_n > 1e-9:
            raise RegimeError(f"oracle magnetization {m_n} > 0 at n={config.copies}: not ordered along -S3")
        if not m_n >= -1.0 - 1e-9:  # NaN included
            raise AssertionError(f"oracle magnetization {m_n} not >= -1")
        m_n = float(np.clip(m_n, -1.0, 0.0))
        t_n = fluctuation_two_point(ensemble, q)
        p_n = float(occupation(m_n, params, couplings, grid, gaps)[index])
        two_point = ensemble.two_point_pm
        floor = two_point.size * eps * float(np.abs(two_point).sum()) / (ensemble.n_sites * ensemble.copies)
        energy = max(float(np.abs(rep.energies).max()) for rep, _ in ensemble.orbits)
        floor += 2.0 * beta * energy * eps * abs(t_n)
        if p_n:  # p = -m / (e^x - 1) with x = 2 beta (h - m D) > 0
            x = 2.0 * beta * (couplings.h - m_n * gap)
            slope = p_n * (1.0 / m_n + 2.0 * beta * gap / -math.expm1(-x))
            terms = ensemble.n_sites * sum(rep.dim * len(perms) for rep, perms in ensemble.orbits)
            floor += abs(slope) * terms * eps * abs(m_n)
        rows.append(ConvergenceRow(
            config.copies, m_n, t_n, p_n, abs(t_n - p_n), floor, ensemble.logZ,
            ensemble.ground_energy, len(ensemble.orbits),
            max(rep.max_sector_dim for rep, _ in ensemble.orbits),
        ))
    return rows
