import pytest

from magnonkit.sectors import SectorEntry, sector_decomposition


def test_single_copy():
    table = sector_decomposition(1)
    assert table.entries == (SectorEntry(twice_j=1, multiplicity=1),)
    assert table.entries[0].j == 0.5


def test_three_copies():
    table = sector_decomposition(3)
    assert [(e.j, e.multiplicity) for e in table.entries] == [(1.5, 1), (0.5, 2)]
    assert table.total_dimension() == 8


def test_five_copies():
    table = sector_decomposition(5)
    assert [(e.j, e.multiplicity) for e in table.entries] == [(2.5, 1), (1.5, 4), (0.5, 5)]
    assert 6 + 4 * 4 + 5 * 2 == 32
    assert table.total_dimension() == 32


def test_dimension_identity_up_to_cap():
    for n in range(1, 32, 2):
        assert sector_decomposition(n).total_dimension() == 2**n


def test_rejects_even_and_out_of_range():
    for bad in (0, 2, 4, -1):
        with pytest.raises(ValueError):
            sector_decomposition(bad)
    with pytest.raises(ValueError, match="maximum"):
        sector_decomposition(33)

