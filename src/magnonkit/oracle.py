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
sector.  S+ is kept as its pieces between sectors.  Every eigenvector lies
in one sector, so the total S3 of each is its sector's M, read off the split
with no rotation; of S3 only sum_x S3(x)^2, diagonal in the product basis,
is rotated, and only its eigenbasis diagonal is kept.

A rung's blocks are built in batches.  What does not depend on the block
(the coupling matrices, their symmetry check, the orbits below, the sector
table) is computed once per rung.  A batch lays its blocks' product bases
side by side as a direct sum, with per-state strides and spins, and builds
their hops and diagonals in one pass over the site pairs; it splits them
into sectors keyed by (block, M), diagonalizes all its sectors of one size
in one stacked ``eigh``, and rotates sum_x S3(x)^2 per sector size and S+
per piece shape in one stacked product each.  A batch takes blocks,
largest first, while its summed buffer of the sectors with M >= 0 (sum of
d_M^2) stays at or below the largest block's, so no batch needs more
memory than the largest block alone; the split changes no bit of any
block.

Two exact Z2 symmetries of the model are used on top of that.  The global
spin flip P (index reversal in the product basis) maps sector -M onto M, and
H_-M = P H_M P + c_M, where c_M comes from the field and the self-coupling
J(0); so only the sectors with M >= 0 are diagonalized, and sector -M < 0
takes E_M + c_M and the reversed eigenvectors of M (checked: every flipped
pair of diagonal entries differs by c_M up to rounding).  Its S3^2 diagonal
is that of M, and the S+ piece from -M-2 to -M is the transpose of the one
from M to M+2, so only the pieces from M >= -2 are rotated and stored; a
piece from M > 0 also stands for its mirror.  (The pieces into and out of
M = 0 are both rotated: ``eigh``'s basis of that self-mirrored sector is not
flip-adapted.)  And assignments related by a lattice translation or by the
inversion x -> -x are isospectral, so one block per orbit of those 2N site
permutations is diagonalized; the other members are stored as that
representative plus a site permutation, and hold no operator copies of their
own.  The Gibbs expectations are invariant under both, so every observable
is evaluated once per orbit: the magnetization and momentum-space ones are
the representative's value times the orbit size (translations act
transitively on the sites, so <S3(x)> and <S3(x)^2> are the same at every
site; a reflected member's F+(q) is the representative's F+(-q) up to a
phase, and F+(-q) is the conjugate of F+(q)), and only the site-resolved
two-point function scatters the representative's values through the members'
permutations.  The fluctuation observables at one momentum (Wick residual,
both energy-entropy margins) share one pass per pair {q, -q} that forms each
stored F+(q) piece once.  They and :func:`fluctuation_two_point` and
:func:`commutator_expectation` measure how close the exact state comes to
the quasi-free prediction; each takes only momenta of the lattice's grid,
read by ``MomentumGrid.index_of``, and refuses any other with a ValueError.
A brute-force full-tensor path is kept for cross-validation: it indexes
the 2**(copies*sites) qubit states by bits and builds one dense Hamiltonian
from single-qubit flips, with no sectors, orbits, flips or collective
spins, and diagonalizes it unsplit.

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
    to 1, the two pieces that touch M = 0, an unsplit block).  ``three``,
    shape (2, dim), holds the eigenbasis diagonals of the total S3 and of
    sum_x S3(x)^2: row 0 is each state's sector M, row 1 is
    (V o V)^T sum_x s3(x)^2 for the eigenvectors V.  ``max_sector_dim`` is
    the size of the largest matrix the build passed to ``eigh``.
    """

    def __init__(self, log_weight, energies, plus, three, max_sector_dim):
        self.log_weight = log_weight
        self.energies = energies
        self.plus = plus  # S+ pieces
        self.three = three  # diagonals of the total S3 and of sum_x S3(x)^2
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
    """Digits, strides, S+ amplitudes and S3 diagonals of a batch of product bases.

    Row b of ``twice_js``, shape (batch, n_sites), holds t_x = 2 j_x of one
    assignment.  Their product bases lie side by side as a direct sum: state
    g of assignment b runs over ``starts[b]`` to ``starts[b + 1]`` and its
    local index i = g - starts[b] has mixed-radix digits a_x (site 0 most
    significant, the Kronecker order).  Every array is per site and state,
    shape (n_sites, states).  S+(x) sends g to g + stride_x with amplitude
    sqrt((t_x - a_x)(a_x + 1)), which vanishes at a_x = t_x; S3(x) is
    2 a_x - t_x.  Local index reversal i -> D-1-i sends every digit a_x to
    t_x - a_x: it flips every spin.  Returns (digits, strides, amplitudes,
    S3 diagonals, starts).
    """
    t = np.asarray(twice_js)
    dims = t + 1
    strides = np.ones_like(dims)
    strides[:, :-1] = np.cumprod(dims[:, :0:-1], axis=1)[:, ::-1]
    sizes = dims.prod(axis=1)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    owner = np.repeat(np.arange(len(t)), sizes)
    strides, t = strides.T[:, owner], t.T[:, owner]
    digits = (np.arange(starts[-1]) - starts[owner]) // strides % (t + 1)
    return digits, strides, np.sqrt((t - digits) * (digits + 1.0)), 2.0 * digits - t, starts


def _hamiltonian(basis, j_mat, j3_mat, h, two_n):
    """Hamiltonian of a batch of assignments in their product bases, by index arithmetic.

    Returns its diagonal and its off-diagonal entries as hops (dst, src,
    value), H[dst, src] = value.  S+(x) S-(y) sends g to g + stride_x -
    stride_y, for all site pairs x != y at once; x == y and the S3 products
    land on the diagonal.  Each hop changes a different pair of digits of
    one assignment's state, so no two hops share an entry and none leaves
    its assignment.
    """
    digits, strides, amp, s3, _ = basis
    n_sites, dim = digits.shape
    hop = np.zeros(dim)
    diag = np.zeros(dim)
    for x in range(n_sites):
        if j_mat[x, x] != 0.0:
            lowered = np.flatnonzero(digits[x] > 0)  # S-(x) acts on these
            down = amp[x, lowered - strides[x, lowered]]
            hop[lowered] -= (4.0 / two_n) * j_mat[x, x] * (down * down)
        for y in range(n_sites):
            if j3_mat[x, y] != 0.0:
                diag -= (1.0 / two_n) * j3_mat[x, y] * s3[x] * s3[y]
        diag += h * s3[x]
    xs, ys = np.nonzero((j_mat != 0.0) & ~np.eye(n_sites, dtype=bool))
    # S-(y) acts on a state and S+(x) can raise it: a digit of x is the same before and after S-(y)
    pair, src = np.nonzero((digits[ys] > 0) & (amp[xs] > 0.0))
    x, y = xs[pair], ys[pair]
    mid = src - strides[y, src]
    value = -(((4.0 / two_n) * j_mat[xs, ys])[pair] * (amp[x, mid] * amp[y, mid]))
    return hop + diag, (mid + strides[x, src], src, value)


def _runs(*keys):
    """The start of every run of equal entries (equal in every one of the aligned ``keys``), then the length."""
    change = np.ones(len(keys[0]) + 1, dtype=bool)
    change[1:-1] = False
    for key in keys:
        change[1:-1] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


def _spans(starts, sizes):
    """The indices starts[k] .. starts[k] + sizes[k] - 1 of every k, concatenated."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)


def _split_by_magnetization(diagonal, hops, magnetization, starts, slope, tol):
    """Diagonalize a batch's Hamiltonian sector by sector of (assignment, total S3).

    Assignment b owns the states ``starts[b]`` to ``starts[b + 1]``.  Local
    index reversal must map its sector of magnetization -M onto that of M,
    and the Hamiltonian must satisfy H_-M = P H_M P + slope * M for that
    reversal P (the spin flip: ``slope`` comes from the field and the
    self-coupling).  So only the sectors with M >= 0 are scattered, straight
    from the diagonal and the hops, each into its own square of one flat
    buffer; sectors of equal size, of any assignment, lie side by side
    there and go to one stacked ``eigh``.  Sector -M < 0 gets the
    eigenvalues E_M + slope * M and the eigenvectors V_M[::-1].

    Returns the permutation ``order`` that sorts each assignment's states by
    magnetization (stable, so the batch's sorted basis is every
    assignment's own in turn), per product state its position ``rank`` in
    the sorted basis and its ``sector`` number, the sectors as arrays
    (values, first state, size, mirror sector) running through each
    assignment by increasing M, the eigenvalues in the sorted basis, and per
    size of the sectors with M >= 0, in increasing order, their numbers and
    their stacked eigenvectors (views of the one buffer).
    Raises AssertionError if a hop leaves its source's sector, or if a pair
    of flipped diagonal entries differs from slope * M by more than its
    assignment's ``tol``.
    """
    dst, src, value = hops
    leak = magnetization[dst] != magnetization[src]
    if leak.any():
        raise AssertionError(
            f"Hamiltonian couples different total-S3 sectors "
            f"(largest entry {np.max(np.abs(value[leak])):.3e})"
        )
    owner = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    flipped = (starts[:-1] + starts[1:] - 1)[owner] - np.arange(len(owner))
    if np.any(magnetization[flipped] != -magnetization):
        raise AssertionError("index reversal does not flip the total S3")
    deviation = np.abs(diagonal[flipped] - diagonal - slope * magnetization)
    bad = np.flatnonzero(~(deviation <= tol[owner]))
    if len(bad):
        worst = bad[np.argmax(deviation[bad])]
        raise AssertionError(
            f"spin flip shifts the diagonal by other than {slope:.17g} M "
            f"(largest deviation {deviation[worst]:.3e}, tolerance {tol[owner[worst]]:.3e})"
        )
    order = np.lexsort((magnetization, owner))
    sorted_m = magnetization[order]
    bounds = _runs(owner, sorted_m)
    first, sizes = bounds[:-1], np.diff(bounds)
    values = sorted_m[first]
    counts = np.bincount(owner[first], minlength=len(starts) - 1)
    lowest = np.cumsum(counts) - counts  # each assignment's first sector
    mirror = (2 * lowest + counts - 1)[owner[first]] - np.arange(len(first))
    kept = np.flatnonzero(values >= 0)
    layout = kept[np.argsort(sizes[kept], kind="stable")]  # buffer order: by size, then as sorted
    offsets = np.zeros_like(sizes)
    offsets[layout] = np.cumsum(sizes[layout] ** 2) - sizes[layout] ** 2
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    sector = np.repeat(np.arange(len(sizes)), sizes)[rank]  # per product state
    local, width = rank - first[sector], sizes[sector]
    at = offsets[sector] + local * width  # where each state's row starts
    upper = magnetization >= 0
    moved = upper[src]  # hops inside the scattered sectors
    buffer = np.zeros(int(np.sum(sizes[kept] ** 2)))
    buffer[at[upper] + local[upper]] = diagonal[upper]
    buffer[at[dst[moved]] + local[src[moved]]] = value[moved]
    # each stack's eigenvectors overwrite its matrices in the buffer
    in_layout = sizes[layout]
    edges = _runs(in_layout).tolist()
    layout_energies = np.empty(int(np.sum(in_layout)))
    stacks, start, end = {}, 0, 0
    for low, high, size in zip(edges[:-1], edges[1:], in_layout[edges[:-1]].tolist()):
        stack = buffer[start:start + (high - low) * size**2].reshape(high - low, size, size)
        group_energies, stack[...] = np.linalg.eigh(stack)
        layout_energies[end:end + group_energies.size] = group_energies.ravel()
        stacks[size] = layout[low:high], stack
        start, end = start + stack.size, end + group_energies.size
    energies = np.empty(len(order))
    energies[_spans(first[layout], in_layout)] = layout_energies
    flips = np.flatnonzero(values > 0)
    energies[_spans(first[mirror[flips]], sizes[flips])] = (
        energies[_spans(first[flips], sizes[flips])] + np.repeat(slope * values[flips], sizes[flips]))
    return order, rank, sector, (values, first, sizes, mirror), energies, stacks


def _rotated_diagonals(squares, sectors, stacks):
    """Eigenbasis diagonals of the total S3 and of sum_x S3(x)^2 of a batch, shape (2, states).

    ``squares`` is sum_x S3(x)^2 in the batch's sorted basis and ``sectors``
    and ``stacks`` are what ``_split_by_magnetization`` returns.  Every
    eigenvector lies in one sector, so row 0 is its sector's M, exactly.
    Row 1 of a sector M >= 0 is (V o V)^T squares, one stacked product per
    stack; the flip keeps S3(x)^2, so sector -M takes that of M.
    """
    values, first, sizes, mirror = sectors
    three = np.empty((2, len(squares)))
    three[0] = np.repeat(values, sizes)
    for group, stack in stacks.values():
        states = _spans(first[group], sizes[group])
        three[1, states] = (squares[states].reshape(len(group), 1, -1) @ (stack * stack)).ravel()
    upper = values > 0
    three[1, _spans(first[mirror[upper]], sizes[upper])] = three[1, _spans(first[upper], sizes[upper])]
    return three


def _rotated_plus(amp, strides, rank, sector, starts, sectors, stacks):
    """S+ pieces V_k+1^T S+(x) V_k of a batch in the eigenbasis, per sector k (None if it has none).

    S+ raises the total S3 by 2, so its pieces run from each sector k with
    M >= -2 to sector k + 1 of the same assignment; a piece from M > 0 also
    stands for its mirror.  The pieces are sorted by shape (d_k+1, d_k) and
    by whether sector k is mirrored (M < 0: eigenvectors V_-M[::-1]), and
    each run of one kind is scattered and rotated at once, in one stacked
    product.  ``amp`` and ``strides`` are the product basis's, the rest what
    ``_split_by_magnetization`` returns.
    """
    values, first, sizes, mirror = sectors
    n_sites = amp.shape[0]
    owner = np.searchsorted(starts, first, side="right") - 1  # per sector
    slot = np.zeros(len(sizes), dtype=np.intp)  # a sector's place in its size's stack
    for group, _ in stacks.values():
        slot[group] = np.arange(len(group))
    top = np.zeros(len(sizes), dtype=bool)  # an assignment's last sector
    top[_runs(owner)[1:] - 1] = True
    pieces = np.flatnonzero((values >= -2) & ~top)
    key = (sizes[pieces + 1] * (sizes.max() + 1) + sizes[pieces]) * 2 + (values[pieces] < 0)
    by_key = np.argsort(key, kind="stable")
    pieces, key = pieces[by_key], key[by_key]
    d_cols, d_rows = sizes[pieces], sizes[pieces + 1]
    runs = _runs(key)
    extent = n_sites * d_cols * d_rows
    at = np.cumsum(extent) - extent
    at -= at[np.repeat(runs[:-1], np.diff(runs))]  # where each piece starts in its run
    piece_of = np.full(len(sizes), -1)
    piece_of[pieces] = np.arange(len(pieces))
    # every S+(x) entry (r, c) puts amplitude times row r of V_k+1 into row (x, c) of V_k+1^T S+(x),
    # one of the d_k+1 wide rows of its run; the entries are sorted piece by piece
    site, src = np.nonzero(amp > 0.0)
    p = piece_of[sector[src]]
    by_piece = np.argsort(p, kind="stable")[np.count_nonzero(p < 0):]
    site, src, p = site[by_piece], src[by_piece], p[by_piece]
    k, width = pieces[p], d_rows[p]
    target = at[p] // width + site * d_cols[p] + rank[src] - first[k]
    source = slot[k + 1] * width + rank[src + strides[site, src]] - first[k + 1]
    scale = amp[site, src, None]
    entries = np.searchsorted(p, runs)
    # the products below peak the batch's memory: keep only the indices they read, and no
    # gathered rows past their scatter
    del site, src, p, k, width, by_piece
    stored = [None] * len(sizes)
    heads = runs[:-1]
    for low, high, begin, end, d_c, d_r, mirrored in zip(
            heads.tolist(), runs[1:].tolist(), entries[:-1].tolist(), entries[1:].tolist(),
            d_cols[heads].tolist(), d_rows[heads].tolist(), (values[pieces[heads]] < 0).tolist()):
        k = pieces[low:high]
        rows = stacks[d_r][1].reshape(-1, d_r)[source[begin:end]]
        rows *= scale[begin:end]
        left = np.zeros((high - low, n_sites, d_c, d_r))
        left.reshape(-1, d_r)[target[begin:end]] = rows
        del rows
        right = stacks[d_c][1][slot[mirror[k]]][:, None, ::-1] if mirrored else stacks[d_c][1][slot[k]][:, None]
        for m, piece in zip(k.tolist(), left.transpose(0, 1, 3, 2) @ right):
            stored[m] = piece
    return stored


def _batches(twice_js):
    """Split the representatives into batches built together, in build order.

    Row b of ``twice_js`` is representative b's assignment.  A batch takes
    representatives in decreasing order of their buffer of sectors with
    M >= 0 (sum of d_M^2, counted from the digit sums without building the
    basis) while its summed buffer stays at or below the largest
    representative's, so a batch needs no more memory than the largest
    representative alone, and the largest is built first, before any
    other's pieces are stored.
    """
    twice_js = np.asarray(twice_js)
    totals = twice_js.sum(axis=1)
    counts = np.zeros((len(twice_js), totals.max() + 1), dtype=np.int64)
    counts[:, 0] = 1  # counts[b, s]: states of b's sites so far with digit sum s
    for t in twice_js.T:
        previous = counts.copy()
        for a in range(1, t.max() + 1):
            counts[:, a:] += previous[:, :-a] * (a <= t)[:, None]
    upper = 2 * np.arange(counts.shape[1]) >= totals[:, None]  # M = 2 s - total >= 0
    buffers = np.sum(counts**2 * upper, axis=1)
    batches, filled = [[]], 0
    for b in np.argsort(-buffers, kind="stable").tolist():
        if batches[-1] and filled + buffers[b] > buffers.max():
            batches.append([])
            filled = 0
        batches[-1].append(b)
        filled += buffers[b]
    return batches


def _sector_blocks(config: SpinConfig):
    """The orbits under translations and inversion: (representative block, member permutations).

    Orbits run in the order of their representatives' assignment numbers,
    and row k of the permutation array belongs to the k-th member in product
    order, the representative's identity included.  The couplings, the
    symmetry check, the orbits and the flip slope are the rung's, computed
    once; the representatives are then built in the batches of ``_batches``.
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

    def build(twice_js, log_weights):
        basis = _product_basis(twice_js)
        strides, amp, s3, starts = basis[1:]
        # per assignment, a bound on the sum of |terms| of a diagonal entry (S+S- <= ((t + 1)/2)^2,
        # |S3| <= t) and on slope * M, for the rounding of the flip check
        t = twice_js.astype(float)
        terms = abs(self_coupling) * np.sum((t + 1.0) ** 2, axis=1) / 4.0
        terms += np.sum(t @ np.abs(j3_mat) * t, axis=1) / two_n + (h + abs(slope)) * t.sum(axis=1)
        # the Hamiltonian and the digits live only until the split
        order, rank, sector, (values, first, sizes, mirror), energies, stacks = _split_by_magnetization(
            *_hamiltonian(basis, j_mat, j3_mat, h, two_n), s3.sum(axis=0), starts, slope,
            4 * (n_sites + 2) ** 2 * eps * terms)
        squares = np.sum(s3 * s3, axis=0)[order]
        del basis, s3
        sectors = values, first, sizes, mirror
        three = _rotated_diagonals(squares, sectors, stacks)
        stored = _rotated_plus(amp, strides, rank, sector, starts, sectors, stacks)
        blocks = []
        bounds = np.searchsorted(first, starts)  # each assignment's sectors
        for b, log_weight in enumerate(log_weights):
            low, high, begin = bounds[b], bounds[b + 1], starts[b]
            slices = [slice(f - begin, f - begin + d) for f, d in zip(first[low:high].tolist(),
                                                                        sizes[low:high].tolist())]
            plus = []
            for k in range(low, high):
                if stored[k] is not None:
                    # the pieces that touch M = 0 are both rotated: eigh's basis of that
                    # sector is not flip-adapted, so their mirrors are no plain transposes
                    image = (slices[mirror[k] - low], slices[mirror[k] - 1 - low]) if values[k] > 0 else None
                    plus.append((slices[k + 1 - low], slices[k - low], stored[k], image))
            blocks.append(_Block(log_weight, energies[begin:starts[b + 1]], plus,
                                 three[:, begin:starts[b + 1]], int(sizes[low:high].max())))
        return blocks

    reps, perms = _orbits(len(table.entries), symmetries)
    numbers = np.unique(reps)
    codes = numbers[:, None] // len(table.entries) ** np.arange(n_sites - 1, -1, -1) % len(table.entries)
    twice_js = np.array([e.twice_j for e in table.entries])[codes]
    log_weights = [math.log(math.prod(table.entries[c].multiplicity for c in row)) for row in codes.tolist()]
    blocks = [None] * len(numbers)
    for batch in _batches(twice_js):
        for b, block in zip(batch, build(twice_js[batch], [log_weights[b] for b in batch])):
            blocks[b] = block
    return [(block, perms[reps == r]) for block, r in zip(blocks, numbers.tolist())]


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
                  np.stack([s3.sum(axis=0), (s3**2).sum(axis=0)]) @ (vectors * vectors), dim)


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
        with np.errstate(over="ignore"):  # beta times a gap past the float range: a weight of exp(-inf) = 0
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

    def _orbit_sum(self, row: int) -> float:
        """Sum over all blocks of <three[row]>: each representative's value times its orbit size."""
        return sum(len(perms) * float(rep.three[row] @ probs)
                   for (rep, perms), probs in zip(self.orbits, self.probs))

    @cached_property
    def sigma3(self) -> float:
        """Per-copy magnetization <sigma3>, the same at every site: <sum_x S3(x)> / (N n)."""
        return self._orbit_sum(0) / (self.n_sites * self.copies)

    @cached_property
    def sigma3_site_variance(self) -> float:
        """Variance of the per-copy site average S3(x)/n, the same at every site (shrinks like 1/n)."""
        return self._orbit_sum(1) / (self.n_sites * self.copies**2) - self.sigma3**2

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

    def _fluct_coeffs(self, k) -> np.ndarray:
        """exp(i k.x) / sqrt(N n) per site, formed from k itself; k off the momentum grid raises ValueError."""
        MomentumGrid.from_lattice(self.config.lattice).index_of(k)
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
        key = min(index, grid.index_of(-grid.point(index)))
        if key not in self._per_q:
            coeffs = self._fluct_coeffs(grid.point(key))
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
    meant for cross-validation at small sizes (``MAX_FULL_DIM``): no
    command runs it.
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
    coeffs = ensemble._fluct_coeffs(q)
    return _real(complex(coeffs @ ensemble.two_point_pm @ coeffs.conj()), "fluctuation two-point")


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
    carries up to beta (|E| + |E0|) eps from its energies (0 at t_n = 0 and
    finite at every finite beta); and p_n's first-order rounding through
    m_n, |dp/dm| T eps |m_n| for the T = sum_reps (dim + 1) terms summed
    into sigma3 (each representative's dim terms, then one per
    representative), with dp/dm = p (1/m + 2 beta D e^x / (e^x - 1)) at
    x = 2 beta (h - m D) and the gap D at q.  A discrepancy at or below it
    is rounding noise: on cold, nearly saturated inputs |t_n - p_n| falls
    to that level (at q = 0 p_n carries the last bits of m_n magnified, and
    t_n those of its weights).  ``logZ`` and ``ground_energy`` are the
    ensemble's, ``representatives`` counts the orbits under translations
    and inversion (one block diagonalized each) and ``max_sector_dim`` is
    the largest matrix passed to ``eigh``.
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
) -> list[ConvergenceRow]:
    """Compare the exact fluctuation two-point function with its infinite-spin
    prediction across a ladder of copy counts.

    The prediction is the Bose occupation evaluated at the oracle's own
    magnetization, so the comparison isolates the quasi-free structure; it
    is read off the grid occupations at q, the solver's formula.  q must be
    a point of the lattice's momentum grid (ValueError otherwise), and every
    rung's ``SpinConfig`` refuses its copy count or its size before the first
    rung is built.  The gaps are :func:`exchange_gap_grid`'s, the
    grid a regime check on the same pair kept.  A rung whose
    magnetization is positive (not ordered along -S3; on one site, say,
    where J(+-1) folds onto the site itself and the exact state orders
    along +S3) is a RegimeError.
    Every rung is built by the sector engine; ``build_gibbs(..., mode="full")`` referees it.
    """
    configs = [SpinConfig(copies=int(n), lattice=lattice, couplings=couplings) for n in copies_list]
    params = ThermalParams(beta=beta, h=couplings.h)
    grid = MomentumGrid.from_lattice(lattice)
    index = grid.index_of(q)
    gap = float(exchange_gap_grid(couplings, grid)[index])
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
        p_n = float(occupation(m_n, params, couplings, grid)[index])
        two_point = ensemble.two_point_pm
        floor = two_point.size * eps * float(np.abs(two_point).sum()) / (ensemble.n_sites * ensemble.copies)
        energy = max(float(np.abs(rep.energies).max()) for rep, _ in ensemble.orbits)
        floor += 2.0 * eps * abs(t_n) * energy * beta  # in this order, no inf * 0
        if p_n:  # p = -m / (e^x - 1) with x = 2 beta (h - m D) > 0
            x = 2.0 * beta * (couplings.h - m_n * gap)
            slope = p_n * (1.0 / m_n + 2.0 * beta * gap / -math.expm1(-x))
            terms = sum(rep.dim + 1 for rep, _ in ensemble.orbits)
            floor += abs(slope) * terms * eps * abs(m_n)
        rows.append(ConvergenceRow(
            config.copies, m_n, t_n, p_n, abs(t_n - p_n), floor, ensemble.logZ,
            ensemble.ground_energy, len(ensemble.orbits),
            max(rep.max_sector_dim for rep, _ in ensemble.orbits),
        ))
    return rows
