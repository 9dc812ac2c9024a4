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
Assignments related by a lattice translation are isospectral, so one block
per translation orbit is diagonalized; the other members are stored as that
representative plus a site permutation, and hold no operator copies of their
own.  The Gibbs expectations are translation invariant, so every observable
is evaluated once per orbit: momentum-space ones are the representative's
value times the orbit size, and site-resolved ones scatter the
representative's values through the members' permutations.  The fluctuation
observables at one momentum (Wick residual, both energy-entropy margins)
share one pass that forms each F+(q) once.  A brute-force full-tensor path
is kept for cross-validation: it indexes the 2**(copies*sites) qubit states
by bits and builds one dense Hamiltonian from single-qubit flips, with no
sectors, orbits or collective spins, and diagonalizes it unsplit.

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
from .sectors import MAX_COPIES, sector_decomposition
from .spinwave import ThermalParams, occupation

MAX_SECTOR_BLOCK_DIM = 10_000
# At the cap (n=3 on 4 sites) a full build takes about 15 s and 0.95 GB peak RSS
# (2-vCPU VM, one BLAS thread).
MAX_FULL_DIM = 2**12

_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class SpinConfig:
    """Lattice, couplings and the number of spin-1/2 copies per site."""

    copies: int
    lattice: LatticeSpec
    couplings: CouplingSet

    def __post_init__(self):
        if self.copies < 1 or self.copies % 2 == 0:
            raise ValueError(f"copies must be odd and >= 1, got {self.copies}")
        cd = self.couplings.dimension
        if cd is not None and cd != self.lattice.dimension:
            raise ValueError(
                f"coupling dimension {cd} does not match lattice dimension "
                f"{self.lattice.dimension}"
            )


def _admit(config: SpinConfig, mode: str) -> None:
    """Refuse a build over the copy cap or a matrix cap, before anything is allocated.

    The sector engine's largest block is one assignment's product basis,
    (copies + 1)**sites; the full tensor is one dense 2**(copies * sites)
    square.  Both bases are >= 2, so an exponent at the cap's bit length or
    past it is over the cap, and a huge power is never formed.
    """
    n, n_sites = config.copies, config.lattice.n_sites
    if n > MAX_COPIES:
        raise ValueError(f"copy count {n} exceeds supported maximum {MAX_COPIES} (MAX_COPIES)")
    if mode == "full":
        base, exponent, cap, what = 2, n * n_sites, MAX_FULL_DIM, "full-tensor dimension"
    else:
        base, exponent, cap, what = n + 1, n_sites, MAX_SECTOR_BLOCK_DIM, "largest sector block dimension"
    if exponent >= cap.bit_length() or base**exponent > cap:
        dim = base**exponent if exponent < 64 else f"{base}**{exponent}"
        name = "MAX_FULL_DIM" if mode == "full" else "MAX_SECTOR_BLOCK_DIM"
        raise ValueError(f"{what} {dim} at copies={n} exceeds cap {cap} ({name})")


class _Block:
    """One invariant subspace: eigendata plus site operators in the eigenbasis.

    The eigenbasis runs sector by sector through ``energies``.  S+ is stored
    as pieces ``(rows, cols, stack)``: ``rows`` and ``cols`` slice the
    eigenbasis and ``stack[x]`` is the real matrix of S+(x) from total-S3
    sector M (``cols``) to M+2 (``rows``); every other entry is zero.  S3(x)
    is diagonal in the product basis and keeps each sector, so only the
    eigenbasis diagonals of S3(x) and S3(x)^2 are stored: ``three[k, x]`` is
    (V o V)^T s3(x)^(k+1) for the eigenvectors V, shape (2, n_sites, dim).
    ``max_sector_dim`` is the size of the largest matrix the build passed to
    ``eigh``.
    """

    def __init__(self, label, log_weight, energies, plus, three, max_sector_dim):
        self.label = label
        self.log_weight = log_weight
        self.energies = energies
        self.plus = plus  # S+ pieces
        self.three = three  # diagonals of S3 and S3^2
        self.max_sector_dim = max_sector_dim

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def fluct_plus(self, coeffs: np.ndarray) -> list:
        """Pieces (rows, cols, F) of sum_x coeffs[x] * S+(x) in the eigenbasis."""
        return [
            (rows, cols, (coeffs @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:]))
            for rows, cols, stack in self.plus
        ]


def _translations(lattice: LatticeSpec) -> np.ndarray:
    """Site permutation of every lattice translation, shape (n_sites, n_sites).

    Row t sends site x to the site at x + t, t running over ``site_vectors``
    (so row 0 is the identity).
    """
    sites = lattice.site_vectors()
    radix = lattice.size ** np.arange(lattice.dimension - 1, -1, -1, dtype=np.int64)
    return ((sites[:, None, :] + sites[None, :, :]) % lattice.size) @ radix


def _orbits(n_entries: int, translations: np.ndarray):
    """Translation orbit of every per-site assignment, in product order.

    Assignment number a has digits a_x over ``n_entries`` values, site 0 most
    significant (``itertools.product`` order).  Returns per assignment the
    number of its representative, the first assignment of its orbit, and a
    site permutation p with assignment[x] == representative[p[x]].
    """
    n_sites = translations.shape[1]
    codes = np.indices((n_entries,) * n_sites).reshape(n_sites, -1).T
    radix = n_entries ** np.arange(n_sites - 1, -1, -1)
    keys = codes[:, translations] @ radix  # keys[a, t]: number of a shifted by t
    best = keys.argmin(axis=1)
    reps = keys[np.arange(len(keys)), best]
    return reps, np.argsort(translations, axis=1)[best]


def _product_basis(twice_js):
    """Digits, strides, S+ amplitudes and S3 diagonals of one product basis.

    Basis index i has mixed-radix digits a_x (site 0 most significant, the
    Kronecker order).  S+(x) sends i to i + stride_x with amplitude
    sqrt((t_x - a_x)(a_x + 1)), t_x = 2 j_x, which vanishes at a_x = t_x;
    S3(x) is 2 a_x - t_x.
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


def _split_by_magnetization(diagonal, hops, magnetization):
    """Diagonalize the Hamiltonian sector by sector of total S3.

    Each sector block is scattered straight from the diagonal and the hops
    into its own square of one flat buffer; sectors of equal size lie side
    by side there and go to one stacked ``eigh``.  Returns the permutation
    that sorts the product basis by magnetization, the sorted sector values
    and slices, and the per-sector eigenpairs.  Raises AssertionError if a
    hop leaves its source's sector.
    """
    dst, src, value = hops
    leak = magnetization[dst] != magnetization[src]
    if leak.any():
        raise AssertionError(
            f"Hamiltonian couples different total-S3 sectors "
            f"(largest entry {np.max(np.abs(value[leak])):.3e})"
        )
    order = np.argsort(magnetization, kind="stable")
    values, starts, sizes = np.unique(magnetization[order], return_index=True, return_counts=True)
    sectors = [slice(a, a + d) for a, d in zip(starts, sizes)]
    layout = np.argsort(sizes, kind="stable")  # buffer order: by size, then by magnetization
    offsets = np.empty_like(sizes)
    offsets[layout] = np.cumsum(sizes[layout] ** 2) - sizes[layout] ** 2
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    sector = np.repeat(np.arange(len(sizes)), sizes)[rank]  # per product state
    local, width = rank - starts[sector], sizes[sector]
    at = offsets[sector] + local * width  # where each state's row starts
    buffer = np.zeros(int(np.sum(sizes**2)))
    buffer[at + local] = diagonal
    buffer[at[dst] + local[src]] = value
    eigen = [None] * len(sectors)
    for size in np.unique(sizes):
        group = layout[sizes[layout] == size]
        start = offsets[group[0]]
        stack = buffer[start:start + len(group) * size**2].reshape(len(group), size, size)
        energies, vectors = np.linalg.eigh(stack)
        for k, e, v in zip(group, energies, vectors):
            eigen[k] = (e, v)
    return order, values, sectors, eigen


def _sector_blocks(config: SpinConfig):
    """The translation orbits: (representative block, member permutations).

    Orbits run in the order of their representatives' assignment numbers,
    and row k of the permutation array belongs to the k-th member in product
    order, the representative's identity included.
    """
    _admit(config, "sector")
    n, lattice = config.copies, config.lattice
    n_sites = lattice.n_sites
    table = sector_decomposition(n)
    j_mat = coupling_matrix(config.couplings, "J", lattice)
    j3_mat = coupling_matrix(config.couplings, "J3", lattice)
    translations = _translations(lattice)
    for name, mat in (("J", j_mat), ("J3", j3_mat)):
        if not np.all(mat[translations[:, :, None], translations[:, None, :]] == mat):
            raise AssertionError(
                f"coupling matrix {name} is not invariant under lattice translations"
            )
    h = config.couplings.h
    two_n = 2.0 * n

    def build(assignment):
        weight = math.prod(e.multiplicity for e in assignment)
        basis = _product_basis([e.twice_j for e in assignment])
        _, strides, amp, s3 = basis
        diagonal, hops = _hamiltonian(basis, j_mat, j3_mat, h, two_n)
        order, values, sectors, eigen = _split_by_magnetization(diagonal, hops, s3.sum(axis=0))
        rank = np.argsort(order)
        # every S+(x) entry, written in the sorted basis: site, row, column
        site, src = np.nonzero(amp > 0.0)
        row, col = rank[src + strides[site]], rank[src]
        col_sector = np.searchsorted([s.start for s in sectors], col, side="right") - 1
        s3_sorted = s3[:, order]
        powers = np.stack([s3_sorted, s3_sorted**2])
        index = {int(m): i for i, m in enumerate(values)}
        plus, three = [], []
        for m, rows, (_, vectors) in zip(values, sectors, eigen):
            three.append(powers[:, :, rows] @ (vectors * vectors))
            j = index.get(int(m) - 2)  # S+ raises the total S3 by 2
            if j is not None:
                cols, lower = sectors[j], eigen[j][1]
                sel = col_sector == j
                # V^T S+(x): the entry (r, c) puts amplitude times row r of V into column c
                left = np.zeros((n_sites, cols.stop - cols.start, rows.stop - rows.start))
                at = site[sel], col[sel] - cols.start
                left[at] = amp[site[sel], src[sel], None] * vectors[row[sel] - rows.start]
                plus.append((rows, cols, left.transpose(0, 2, 1) @ lower))
        energies = np.concatenate([e for e, _ in eigen])
        label = tuple(e.twice_j for e in assignment)
        return _Block(label, math.log(weight), energies, plus, np.concatenate(three, axis=-1),
                      int(max(s.stop - s.start for s in sectors)))

    assignments = list(itertools.product(table.entries, repeat=n_sites))
    reps, perms = _orbits(len(table.entries), translations)
    return [(build(assignments[r]), perms[reps == r]) for r in np.unique(reps).tolist()]


def _full_block(config: SpinConfig) -> _Block:
    """All 2**(copies*sites) qubit states as one block, built by bit arithmetic.

    Qubit k = x*copies + i is bit n_qubits-1-k of the index, set for spin down.
    sigma+_a sigma-_b flips bits a (set) and b (clear); for a == b it projects
    onto bit a clear.  The sector engine's referee: no sectors or orbits.
    """
    _admit(config, "full")
    n, lattice = config.copies, config.lattice
    n_sites = lattice.n_sites
    n_qubits = n * n_sites
    dim = 2**n_qubits
    index = np.arange(dim)
    masks = 1 << np.arange(n_qubits - 1, -1, -1)  # masks[k]: bit of qubit k
    down = (index[None, :] & masks[:, None]) != 0  # down[k, i]: qubit k of state i
    clear = n - down.reshape(n_sites, n, dim).sum(axis=1)  # spins up per site
    s3 = 2.0 * clear - n

    j_mat = coupling_matrix(config.couplings, "J", lattice)
    j3_mat = coupling_matrix(config.couplings, "J3", lattice)
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
    return _Block(("full",), 0.0, energies, [(everything, everything, t_plus)],
                  np.stack([s3, s3**2]) @ (vectors * vectors), dim)


class GibbsEnsemble:
    """Sector-blocked (or full-tensor) Gibbs state with cached expectations.

    ``orbits`` lists (representative, member permutations): the member with
    permutation p has the representative's spectrum, and its operator at
    site x is the representative's at p[x].  ``probs[k]`` are the Gibbs
    probabilities of orbit k's representative, kept here so that ensembles can
    share orbits.  Each expectation below is evaluated on the representatives
    only, and the fluctuation observables at a momentum come from one walk
    over the orbits, cached per grid index.
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
        self._per_q = {}  # grid index -> what _momentum_sums returns

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
        diag(S-(y) S+(x)) sums it over rows.  A member's entry (x, y) is its
        representative's entry (perm[x], perm[y]).
        """
        n = self.n_sites
        out = np.zeros((2, n, n))
        for (rep, perms), probs in zip(self.orbits, self.probs):
            rep_out = np.zeros((2, n, n))
            for rows, cols, stack in rep.plus:
                flat = stack.reshape(n, -1)
                for i, weights in enumerate((probs[rows, None], probs[None, cols])):
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

        One walk over the orbits per grid momentum, cached by grid index; q
        off the grid raises ValueError.  A translate's F+(q) is its
        representative's times the phase exp(-i q.s), and every sum here is
        invariant under a global phase of F+, so an orbit counts its
        representative's value times its size.  Entry (i, j) of the 4 x 4
        matrix sums u_i^T W v_j over the pieces, W = |F+|^2 entrywise, u over
        the piece's rows and v over its columns, both running through
        (1, p, E, pE) for the probabilities p and energies E; so
        <F+F-> = (p, 1), <F-F+> = (1, p), and the margin sums are
        (E, p) - (1, pE) for X = F+ and (p, E) - (pE, 1) for X = F-.
        diag(F+F+ F-F-) is the squared row norms of F+ times the piece that
        F+ applies first.
        """
        grid = MomentumGrid.from_lattice(self.config.lattice)
        index = grid.index_of(q)
        if index not in self._per_q:
            coeffs = self._fluct_coeffs(grid.points[index])
            forms, four = np.zeros((4, 4)), 0.0
            for (rep, perms), probs in zip(self.orbits, self.probs):
                sides = np.stack([np.ones(rep.dim), probs, rep.energies, probs * rep.energies])
                pieces = rep.fluct_plus(coeffs)
                by_rows = {rows.start: f_plus for rows, _, f_plus in pieces}
                for rows, cols, f_plus in pieces:
                    weight = f_plus.real**2 + f_plus.imag**2
                    forms += len(perms) * (sides[:, rows] @ weight @ sides[:, cols].T)
                    inner = by_rows.get(cols.start)
                    if inner is not None:
                        four += len(perms) * float(probs[rows] @ _row_norms2(f_plus @ inner))
            self._per_q[index] = forms, four
        return self._per_q[index]


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


def _row_norms2(mat: np.ndarray) -> np.ndarray:
    """Squared row norms of a C-contiguous complex matrix."""
    pairs = mat.view(float)
    return np.einsum("ij,ij->i", pairs, pairs)


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

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


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
    """One rung of a convergence study.

    ``rounding_floor`` is the a-priori rounding bound of the discrepancy: that
    of t_n's N^2-term phase sum, N^2 eps sum_xy |<S+(x) S-(y)>| / (N n), plus
    p_n's first-order rounding through m_n, |dp/dm| T eps |m_n| for the T
    terms summed into sigma3, with dp/dm = p (1/m + 2 beta D e^x / (e^x - 1)).
    A discrepancy at or below it is rounding noise.  ``logZ`` and
    ``ground_energy`` are the ensemble's, ``representatives`` counts the
    orbits diagonalized and ``max_sector_dim`` is the largest matrix passed to
    ``eigh``.
    """

    copies: int
    magnetization: float
    two_point: float
    prediction: float
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
    mode: str = "sector",
) -> list[ConvergenceRow]:
    """Compare the exact fluctuation two-point function with its infinite-spin
    prediction across a ladder of copy counts.

    The prediction is the Bose occupation evaluated at the oracle's own
    magnetization, so the comparison isolates the quasi-free structure; it
    is read off the grid occupations at q, the solver's formula.  q must be
    a point of the lattice's momentum grid (ValueError otherwise), and every
    rung is checked against the size caps before the first one is built.
    """
    configs = [SpinConfig(copies=int(n), lattice=lattice, couplings=couplings) for n in copies_list]
    for config in configs:
        _admit(config, mode)
    params = ThermalParams(beta=beta, h=couplings.h)
    grid = MomentumGrid.from_lattice(lattice)
    index = grid.index_of(q)
    gap = float(exchange_gap_grid(couplings, grid)[index])
    eps = float(np.finfo(float).eps)
    rows = []
    for config in configs:
        ensemble = build_gibbs(config, beta, mode=mode)
        m_n = ensemble.sigma3
        if not -1.0 - 1e-9 <= m_n <= 1e-9:
            raise AssertionError(f"oracle magnetization {m_n} outside [-1, 0]")
        m_n = float(np.clip(m_n, -1.0, 0.0))
        t_n = fluctuation_two_point(ensemble, q)
        p_n = float(occupation(m_n, params, couplings, grid)[index])
        two_point = ensemble.two_point_pm
        floor = two_point.size * eps * float(np.abs(two_point).sum()) / (ensemble.n_sites * ensemble.copies)
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
