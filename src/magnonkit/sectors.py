"""Permutation-symmetric decomposition of n spin-1/2 copies on one site.

A Hamiltonian built from collective (copy-summed) spin operators never mixes
total-spin sectors, so the 2**n dimensional per-site space splits into
spin-j blocks of dimension 2j+1 with combinatorial multiplicities.  Spin
operators are in Pauli units: the z component has eigenvalues -2j..2j in
steps of 2, and [S+, S-] = S3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

MAX_COPIES = 31


@dataclass(frozen=True)
class SectorEntry:
    twice_j: int
    multiplicity: int

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1


@dataclass(frozen=True)
class SectorTable:
    copies: int
    entries: tuple[SectorEntry, ...]

    def total_dimension(self) -> int:
        """Sum of multiplicity * block dimension; equals 2**copies exactly."""
        return sum(e.multiplicity * e.dim for e in self.entries)


def check_copies(copies: int) -> None:
    """Refuse (ValueError) a copy count n = 2S + 1 that is even, below 1 or above ``MAX_COPIES``."""
    if copies < 1 or copies % 2 == 0:
        raise ValueError(f"copy count must be odd and >= 1, got {copies}")
    if copies > MAX_COPIES:
        raise ValueError(f"copy count {copies} exceeds supported maximum {MAX_COPIES} (MAX_COPIES)")


def sector_decomposition(copies: int) -> SectorTable:
    """Total-spin sectors of ``copies`` spin-1/2 factors, largest j first.

    multiplicity(j) = C(n, n/2 - j) - C(n, n/2 - j - 1), exact in integers.
    The copy count must pass :func:`check_copies`.
    """
    n = int(copies)
    check_copies(n)
    entries = []
    for twice_j in range(n, 0, -2):
        k = (n - twice_j) // 2
        mult = comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)
        entries.append(SectorEntry(twice_j=twice_j, multiplicity=mult))
    table = SectorTable(copies=n, entries=tuple(entries))
    assert table.total_dimension() == 2**n
    return table

