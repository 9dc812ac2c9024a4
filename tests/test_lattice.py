import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnonkit import lattice as lattice_module
from magnonkit.lattice import (
    MAX_SITES,
    CouplingSet,
    LatticeSpec,
    MomentumGrid,
    coupling_matrix,
    exchange_gap_grid,
    fourier_coupling_grid,
    load_couplings_csv,
    validate_ferromagnetic,
)


def nn_chain(j=1.0, j3=1.0, h=0.0):
    return CouplingSet.nearest_neighbor(1, j=j, j3=j3, h=h)


def random_even_couplings(rng, dimension, reach=2):
    """Random even coupling map on displacements up to the given sup-norm."""
    exchange = {}
    exchange_z = {}
    seen = set()
    for _ in range(6):
        z = tuple(int(c) for c in rng.integers(-reach, reach + 1, size=dimension))
        if all(c == 0 for c in z) or z in seen:
            continue
        seen.add(z)
        seen.add(tuple(-c for c in z))
        exchange[z] = float(rng.normal())
        exchange_z[z] = float(rng.normal())
    return CouplingSet(exchange, exchange_z, h=1.0)


def reference_site_vectors(lattice):
    """Site vectors by itertools.product, the lexicographic order by construction."""
    axes = [range(lattice.size)] * lattice.dimension
    return np.array(list(itertools.product(*axes)), dtype=np.int64).reshape(
        lattice.n_sites, lattice.dimension
    )


def site_index(lattice, vec) -> int:
    """Mixed-radix index of a site vector (mod-L reduced first)."""
    idx = 0
    for component in np.asarray(vec, dtype=np.int64) % lattice.size:
        idx = idx * lattice.size + int(component)
    return idx


def reference_coupling_matrix(mapping, lattice):
    """Periodized coupling matrix filled one site at a time through site_index, each pair's
    folded values summed once with math.fsum."""
    folded = {}
    sites = reference_site_vectors(lattice)
    for z, v in mapping.items():
        for x in range(lattice.n_sites):
            folded.setdefault((x, site_index(lattice, sites[x] - np.asarray(z))), []).append(v)
    mat = np.zeros((lattice.n_sites, lattice.n_sites))
    for pair, values in folded.items():
        mat[pair] = math.fsum(values)
    return mat


TWO_PI = 2 * np.longdouble("3.14159265358979323846264338327950288")


def reference_fourier(mapping, n, size) -> complex:
    """sum_z J(z) exp(-i k.z) at the lattice momentum k = 2*pi*n/L, one complex exponential per displacement.

    The phase is taken from the exact integer n.z and everything is summed in
    extended precision, so the one rounding left is the final one to double.
    """
    total = np.clongdouble(0)
    for z, v in mapping.items():
        total += np.longdouble(v) * np.exp(-1j * (TWO_PI * (int(np.dot(n, z)) % size) / size))
    return complex(total)


LATTICES = [LatticeSpec(1, 1), LatticeSpec(1, 7), LatticeSpec(2, 1), LatticeSpec(2, 5),
            LatticeSpec(3, 3), LatticeSpec(4, 2)]


class TestLatticeSpec:
    def test_site_count(self):
        assert LatticeSpec(2, 3).n_sites == 9
        assert LatticeSpec(3, 2).n_sites == 8

    def test_site_vectors_lexicographic(self):
        lat = LatticeSpec(2, 2)
        vecs = lat.site_vectors()
        assert vecs.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        for i in range(lat.n_sites):
            assert site_index(lat, vecs[i]) == i

    @pytest.mark.parametrize("lat", LATTICES, ids=str)
    def test_site_vectors_match_reference(self, lat):
        vecs = lat.site_vectors()
        assert vecs.dtype == np.int64 and vecs.flags.c_contiguous
        np.testing.assert_array_equal(vecs, reference_site_vectors(lat))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            LatticeSpec(0, 4)
        with pytest.raises(ValueError):
            LatticeSpec(1, 0)

    @pytest.mark.parametrize("dimension,size", [(1, MAX_SITES + 1), (3, 257), (25, 2), (10**9, 2), (25, 1),
                                                (10**6, 1)])
    def test_refuses_lattices_over_the_site_limit(self, dimension, size):
        # a dimension over log2(MAX_SITES) is refused at size 1 too, before the coupling CSV
        # header or the site vectors form one entry per dimension
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_SITES} sites"):
            LatticeSpec(dimension, size)

    def test_huge_dimension_refused_without_the_power(self, monkeypatch):
        # 2**(10**9) would be a 125 MB integer; the refusal must not compute it
        monkeypatch.setattr(LatticeSpec, "n_sites", property(lambda self: pytest.fail("n_sites")))
        with pytest.raises(ValueError, match="2\\*\\*1000000000 sites exceeds the limit"):
            LatticeSpec(10**9, 2)

    def test_accepts_the_site_limit(self):
        for dimension, size in ((1, MAX_SITES), (3, 256), (24, 2), (24, 1)):
            assert LatticeSpec(dimension, size).n_sites <= MAX_SITES


class TestMomentumGrid:
    def test_structure(self):
        lat = LatticeSpec(2, 3)
        grid = MomentumGrid.from_lattice(lat)
        assert len(grid) == 9
        assert np.all(grid.points[0] == 0.0)

    def test_closed_under_negation(self):
        grid = MomentumGrid.from_lattice(LatticeSpec(2, 4))
        for k in grid.points:
            grid.index_of(np.mod(-k, 2.0 * np.pi))

    def test_a_function_of_its_lattice(self):
        a, b = MomentumGrid.from_lattice(LatticeSpec(2, 4)), MomentumGrid.from_lattice(LatticeSpec(2, 4))
        assert a == b and hash(a) == hash(b) and a != MomentumGrid.from_lattice(LatticeSpec(1, 16))
        assert len(a) == 16 and not a.points.flags.writeable
        with pytest.raises(TypeError):
            MomentumGrid(a.points, a.lattice)

    @pytest.mark.parametrize("k", [0.1, 0.7, np.pi / 2 + 2e-9, np.nan, np.inf, -np.inf])
    def test_index_of_rejects_off_grid(self, k):
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 4))
        message = r"momentum \[.*\] is not a lattice momentum 2\*pi\*n/4 \(not on the grid\)"
        with pytest.raises(ValueError, match=message):
            grid.index_of([k])

    def test_index_of_a_negative_momentum(self):
        # -pi/2 is the lattice momentum 3 pi/2, grid point 3 of 4
        assert MomentumGrid.from_lattice(LatticeSpec(1, 4)).index_of([-np.pi / 2]) == 3

    @pytest.mark.parametrize("k, shape", [([np.pi / 2], (1,)), ([0.0, 0.0, 0.0], (3,)), (np.pi / 2, (1,)),
                                          ([[np.pi / 2, np.pi / 2]], (1, 2))])
    def test_index_of_refuses_a_momentum_of_another_length(self, k, shape):
        # [pi/2] on a 4 x 4 grid must not broadcast to (pi/2, pi/2), index 5
        grid = MomentumGrid.from_lattice(LatticeSpec(2, 4))
        with pytest.raises(ValueError, match=re.escape(f"momentum of shape {shape} on a lattice of dimension 2")):
            grid.index_of(k)
        assert grid.index_of([np.pi / 2, np.pi / 2]) == 5

    def test_index_of_reduces_modulo_two_pi(self):
        # each of these once gave two hits: 2 pi - |k - point| went negative
        assert MomentumGrid.from_lattice(LatticeSpec(1, 3)).index_of([-4.0 * np.pi / 3.0]) == 1
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 4))
        assert grid.index_of([-np.pi]) == grid.index_of([3.0 * np.pi]) == 2

    @pytest.mark.parametrize("dimension, size", [(1, 1), (1, 7), (2, 5), (3, 4)])
    def test_point_is_the_bits_of_points(self, dimension, size):
        grid = MomentumGrid.from_lattice(LatticeSpec(dimension, size))
        points = MomentumGrid.from_lattice(grid.lattice).points
        for index in range(len(grid)):
            point = grid.point(index)
            assert point.dtype == points.dtype and np.array_equal(point, points[index])
        assert "points" not in grid.__dict__  # one momentum forms no grid
        for index in (-1, len(grid)):
            with pytest.raises(IndexError, match=r"grid index -?\d+ outside \[0, \d+\)"):
                grid.point(index)

    @settings(max_examples=80)
    @given(
        dimension=st.integers(1, 3),
        size=st.integers(1, 6),
        point=st.integers(0, 10**6),
        turns=st.lists(st.integers(-40, 40), min_size=3, max_size=3),
        negate=st.booleans(),
        offset=st.floats(1e-6, 1.0),
    )
    def test_index_of_every_image_of_a_grid_point(self, dimension, size, point, turns, negate, offset):
        grid = MomentumGrid.from_lattice(LatticeSpec(dimension, size))
        index = point % len(grid)
        n = grid.lattice.site_vectors()[index]
        sign = -1 if negate else 1
        k = sign * grid.points[index] + 2.0 * np.pi * np.array(turns[:dimension])
        expected = site_index(grid.lattice, sign * n)
        assert grid.index_of(k) == expected
        # off the grid by a fraction of a spacing in one component: refused
        spacing = 2.0 * np.pi / size
        k[0] += offset * spacing if offset * spacing < spacing - 1e-6 else spacing / 2
        with pytest.raises(ValueError, match="not on the grid"):
            grid.index_of(k)


class TestCouplingSet:
    def test_rejects_onsite(self):
        with pytest.raises(ValueError, match="on-site"):
            CouplingSet({(0,): 1.0}, {}, 0.5)

    def test_rejects_odd_map(self):
        # a mirror listed with another value is refused, a listed zero included
        with pytest.raises(ValueError, match=r"exchange: displacement \(1,\) conflicts with its mirror"):
            CouplingSet({(1,): 1.0, (-1,): 2.0}, {}, 0.5)
        with pytest.raises(ValueError, match=r"exchange_z: displacement \(1,\) conflicts"):
            CouplingSet({}, {1: 0.0, -1: 0.5}, 0.5)

    def test_rejects_two_keys_for_one_displacement(self):
        # 1 and (1,) name the same displacement; with different values neither may win
        with pytest.raises(ValueError, match=r"exchange: displacement \(1,\) listed twice, as 1.0 and 2.0"):
            CouplingSet({1: 1.0, (1,): 2.0}, {}, 0.0)
        with pytest.raises(ValueError, match=r"exchange_z: displacement \(-2,\) listed twice"):
            CouplingSet({}, {(-2,): 0.5, -2: 0.25}, 0.0)
        assert CouplingSet({1: 1.0, (1,): 1.0}, {}, 0.0).exchange == {(1,): 1.0, (-1,): 1.0}

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError, match="field"):
            CouplingSet({}, {}, -0.1)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mixed"):
            CouplingSet({(1,): 1.0, (-1,): 1.0}, {(0, 1): 1.0, (0, -1): 1.0}, 0.0)

    def test_fills_missing_mirrors(self):
        c = CouplingSet({(1,): 2.0}, {(2,): 3.0}, 0.0)
        assert c.exchange == {(1,): 2.0, (-1,): 2.0}
        assert c.exchange_z == {(2,): 3.0, (-2,): 3.0}
        assert c.coupling_range == 2

    def test_listed_entries_come_before_the_filled_mirrors(self):
        c = CouplingSet({1: 0.5, -2: 0.25, 3: 0.125, 2: 0.25}, {}, 0.0)
        assert list(c.exchange.items()) == [((1,), 0.5), ((-2,), 0.25), ((3,), 0.125), ((2,), 0.25),
                                            ((-1,), 0.5), ((-3,), 0.125)]

    def test_maps_are_read_only(self):
        c = nn_chain()
        for mapping in (c.exchange, c.exchange_z):
            with pytest.raises(TypeError):
                mapping[(1,)] = 1.5  # J(1) != J(-1) would break evenness
            with pytest.raises(TypeError):
                del mapping[(1,)]
        assert c.exchange == c.exchange_z == {(1,): 1.0, (-1,): 1.0}

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_refuses_non_finite_couplings(self, value):
        with pytest.raises(ValueError, match=f"exchange_z: coupling {value} at \\(1,\\) makes sum"):
            CouplingSet({1: 1.0}, {1: value}, 0.5)

    def test_refuses_couplings_whose_sum_overflows(self):
        # each value is finite, but the filled mirror doubles the sum past the float range
        with pytest.raises(ValueError, match=r"exchange: coupling 1e\+308 at \(-1,\) makes sum"):
            CouplingSet({1: 1e308}, {}, 0.5)
        with pytest.raises(ValueError, match=r"exchange_z: coupling 2e\+307 at \(1,\) makes sum"):
            CouplingSet({1: 8.5e307}, {1: 2e307}, 0.5)  # the sum runs over both maps
        assert CouplingSet({1: 4e307}, {1: 4e307}, 0.5).exchange[(-1,)] == 4e307

    def test_zero_values_dropped(self):
        c = CouplingSet({(1,): 0.0, (-1,): 0.0}, {}, 0.0)
        assert c.exchange == {}
        assert c.coupling_range == 0


def chain_grid(size):
    return MomentumGrid.from_lattice(LatticeSpec(1, size))


class TestFourierCoupling:
    def test_nearest_neighbor_at_zero(self):
        assert fourier_coupling_grid(nn_chain(), chain_grid(4))[0] == 2.0

    def test_cosine_table_is_built_in_place(self):
        # a 2**20-site chain: the even table, rounded to int64, with at most one float64 and
        # one int64 L-array alive
        size, shift = 2**20, 50
        tracemalloc.start()
        try:
            table = lattice_module._cos_table(size, shift)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * size + 64 * 1024, peak
        np.testing.assert_array_equal(table[1:], table[:0:-1])  # exactly even
        for length in (1, 2, 3, 8, 9, size):
            j = np.arange(0, length, 997 if length == size else 1)
            angles = (2.0 * np.pi / length) * np.minimum(j, length - j)
            reference = np.rint(np.ldexp(np.cos(angles), shift)).astype(np.int64)
            np.testing.assert_array_equal(lattice_module._cos_table(length, shift)[j], reference)

    def test_nearest_neighbor_at_pi(self):
        # direct evaluation of 2cos(k); grid point 2 of 4 is pi
        expected = 2.0 * math.cos(math.pi)
        assert fourier_coupling_grid(nn_chain(), chain_grid(4))[2] == pytest.approx(expected, abs=1e-14)

    def test_empty_map(self):
        c = CouplingSet({}, {}, 0.0)
        np.testing.assert_array_equal(fourier_coupling_grid(c, chain_grid(5)), np.zeros(5))

    @pytest.mark.parametrize("exchange, exchange_z", [({(1, 0): 1.0}, {}), ({}, {(1, 0): 1.0})])
    def test_refuses_couplings_of_another_dimension(self, exchange, exchange_z):
        # a 2D set on a chain grid, whichever map carries it
        with pytest.raises(ValueError, match="coupling dimension 2 != lattice dimension 1"):
            fourier_coupling_grid(CouplingSet(exchange, exchange_z, 0.0), chain_grid(4))

    def test_real_on_grid_for_random_even_maps(self):
        rng = np.random.default_rng(7)
        for dimension, size in ((1, 8), (2, 5), (1, 7)):
            c = random_even_couplings(rng, dimension)
            grid = MomentumGrid.from_lattice(LatticeSpec(dimension, size))
            vals = fourier_coupling_grid(c, grid)
            reference = np.array([reference_fourier(c.exchange, n, size) for n in grid.lattice.site_vectors()])
            np.testing.assert_allclose(vals, reference.real, atol=1e-12)
            assert np.max(np.abs(reference.imag)) < 1e-12

    def test_residue_cap_scales_with_coupling_strength(self):
        # 1e4-scale couplings keep the relative accuracy of unit ones
        c = CouplingSet({1: 1e4, 2: 1e4 / 3, 3: 1e4 / 7}, {1: 1e4}, 1.0)
        grid = chain_grid(64)
        vals = fourier_coupling_grid(c, grid)
        reference = np.array([reference_fourier(c.exchange, n, 64) for n in grid.lattice.site_vectors()])
        np.testing.assert_allclose(vals, reference.real, atol=1e-8)
        assert vals[0] == pytest.approx(2e4 * (1 + 1 / 3 + 1 / 7), rel=1e-15)

    @pytest.mark.parametrize("dimension, size", [(1, 9), (2, 5), (3, 4)])
    @pytest.mark.parametrize("reach", [2, 3])
    def test_matches_reference(self, dimension, size, reach):
        # The grid form meets the direct sum within the rounding of the cosine sum:
        # 4 ulp of sum_z |J(z)|.  Integer phases make the bound independent of the
        # displacements' length.
        rng = np.random.default_rng(100 * dimension + reach)
        grid = MomentumGrid.from_lattice(LatticeSpec(dimension, size))
        for _ in range(20):
            c = random_even_couplings(rng, dimension, reach=reach)
            tol = 4.0 * np.finfo(float).eps * sum(map(abs, c.exchange.values()))
            reference = np.array([reference_fourier(c.exchange, n, size) for n in grid.lattice.site_vectors()])
            assert np.max(np.abs(fourier_coupling_grid(c, grid) - reference.real)) <= tol

    def test_chunks_leave_the_values_unchanged(self, monkeypatch):
        c = random_even_couplings(np.random.default_rng(5), 2, reach=3)
        grid = MomentumGrid.from_lattice(LatticeSpec(2, 9))
        whole = fourier_coupling_grid(c, grid)
        monkeypatch.setattr("magnonkit.lattice._FOURIER_CHUNK_ELEMENTS", 7)  # a few momenta per chunk
        np.testing.assert_array_equal(fourier_coupling_grid(c, grid), whole)

    def test_parseval_mean_is_onsite_value(self):
        rng = np.random.default_rng(3)
        c = random_even_couplings(rng, 1, reach=3)
        assert abs(np.mean(fourier_coupling_grid(c, chain_grid(16)))) < 1e-13

    @settings(max_examples=60)
    @given(
        dimension=st.integers(1, 3),
        size=st.integers(1, 6),
        couplings=st.lists(
            st.tuples(
                st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                st.floats(-2.0, 2.0, allow_subnormal=False),
            ),
            max_size=6,
        ),
    )
    def test_fft_of_the_coupling_matrix_row(self, dimension, size, couplings):
        # position-space referee: the first row of the periodized matrix holds
        # J(y) at site y, so its lattice FFT is sum_y J(y) exp(-i k.y) = J(k)
        exchange = {}  # one value per pair {z, -z}, keyed by the larger
        for z, v in couplings:
            z = tuple(z[:dimension])
            if any(z):
                exchange[max(z, tuple(-c for c in z))] = v
        c = CouplingSet(exchange, {}, 0.0)
        lattice = LatticeSpec(dimension, size)
        row = coupling_matrix(c.exchange, lattice)[0].reshape((size,) * dimension)
        fft = np.fft.fftn(row).ravel()
        grid = MomentumGrid.from_lattice(lattice)
        tol = 1e-12 * sum(map(abs, c.exchange.values()))
        np.testing.assert_allclose(fourier_coupling_grid(c, grid), fft.real, rtol=0.0, atol=tol)
        assert np.max(np.abs(fft.imag)) <= tol


class TestExchangeGap:
    def test_isotropic_at_zero(self):
        assert exchange_gap_grid(nn_chain(), chain_grid(4))[0] == 0.0

    def test_isotropic_at_pi(self):
        assert exchange_gap_grid(nn_chain(), chain_grid(4))[2] == pytest.approx(4.0, abs=1e-14)

    def test_longitudinal_only_is_constant(self):
        gaps = exchange_gap_grid(nn_chain(j=0.0, j3=1.0), chain_grid(4))
        np.testing.assert_allclose(gaps, 2.0, rtol=0.0, atol=1e-14)

    def test_bounded_by_zero_momentum_for_nonnegative_matrix(self):
        # gap(q) <= gap(0) holds whenever the position-space matrix entries
        # (sum J3 on the diagonal, -J off it) are all nonnegative.
        c = CouplingSet({(1,): -0.3, (2,): -0.1}, {(1,): 1.0}, 1.0)
        gaps = exchange_gap_grid(c, chain_grid(32))
        assert np.max(gaps) <= gaps[0] + 1e-12

    def test_the_last_grid_is_kept_read_only(self):
        # couplings keyed by identity, the grid by value: an equal grid hits, equal couplings do not
        couplings = nn_chain()
        gaps = exchange_gap_grid(couplings, chain_grid(8))
        with pytest.raises(ValueError, match="read-only"):
            gaps[0] = 1.0
        assert exchange_gap_grid(couplings, chain_grid(8)) is gaps
        assert exchange_gap_grid.cache_info().misses == 1
        again = exchange_gap_grid(nn_chain(), chain_grid(8))
        assert again is not gaps and np.array_equal(again, gaps)
        assert exchange_gap_grid.cache_info().misses == 2


def permutation_closed_couplings(values, dimension):
    """Even couplings closed under axis permutation: each value is set on every
    permutation and mirror of its displacement, unless one was set there before."""
    exchange = {}
    for z, v in values:
        z = tuple(z[:dimension])
        if any(z):
            for image in itertools.permutations(z):
                exchange.setdefault(image, v)
                exchange.setdefault(tuple(-c for c in image), v)
    return CouplingSet(exchange, exchange, 1.0)


def assert_symmetric_momenta_bit_equal(couplings, lattice):
    """Mirrored (n -> -n mod L) and axis-permuted momenta have bit-equal gaps."""
    gaps = exchange_gap_grid(couplings, MomentumGrid.from_lattice(lattice))
    bits = gaps.view(np.int64)
    n = lattice.site_vectors()
    radix = lattice.size ** np.arange(lattice.dimension - 1, -1, -1)
    np.testing.assert_array_equal(bits[(-n % lattice.size) @ radix], bits)
    for perm in itertools.permutations(range(lattice.dimension)):
        np.testing.assert_array_equal(bits[n[:, perm] @ radix], bits)


class TestSymmetricMomenta:
    """A lattice symmetry that maps the couplings to themselves leaves the gap bit for bit."""

    @pytest.mark.parametrize("dimension, size", [(2, 6), (2, 7), (3, 4), (3, 5)])
    def test_random_permutation_closed_couplings(self, dimension, size):
        rng = np.random.default_rng(10 * dimension + size)
        lattice = LatticeSpec(dimension, size)
        for _ in range(10):
            values = [(tuple(int(c) for c in rng.integers(-3, 4, size=dimension)), float(rng.normal()))
                      for _ in range(5)]
            assert_symmetric_momenta_bit_equal(permutation_closed_couplings(values, dimension), lattice)

    def test_nearest_neighbour_cube(self):
        assert_symmetric_momenta_bit_equal(CouplingSet.nearest_neighbor(3), LatticeSpec(3, 16))

    @settings(max_examples=60)
    @given(
        dimension=st.integers(2, 3),
        size=st.integers(1, 7),
        values=st.lists(
            st.tuples(
                st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                st.floats(-2.0, 2.0, allow_subnormal=False),
            ),
            max_size=6,
        ),
    )
    def test_generated_permutation_closed_couplings(self, dimension, size, values):
        assert_symmetric_momenta_bit_equal(
            permutation_closed_couplings(values, dimension), LatticeSpec(dimension, size)
        )


class TestCouplingMatrix:
    def test_images_fold_onto_small_torus(self):
        # both +1 and -1 reach the same neighbor when L = 2
        lat = LatticeSpec(1, 2)
        mat = coupling_matrix(nn_chain().exchange, lat)
        np.testing.assert_allclose(mat, [[0.0, 2.0], [2.0, 0.0]])

    def test_refuses_couplings_of_another_dimension(self):
        with pytest.raises(ValueError, match="coupling dimension 1 != lattice dimension 2"):
            coupling_matrix(nn_chain().exchange, LatticeSpec(2, 3))

    def test_matches_grid_fourier_transform(self):
        # sum_y mat[x, y] e^{-ik(x-y)} must reproduce J(k) for grid momenta
        rng = np.random.default_rng(11)
        c = random_even_couplings(rng, 1, reach=3)
        lat = LatticeSpec(1, 5)
        grid = MomentumGrid.from_lattice(lat)
        mat = coupling_matrix(c.exchange, lat)
        sites = lat.site_vectors()[:, 0]
        for k, expected in zip(grid.points, fourier_coupling_grid(c, grid)):
            direct = sum(mat[2, y] * np.exp(-1j * k[0] * (2 - sites[y])) for y in range(5))
            assert direct == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("lat", LATTICES, ids=str)
    def test_matches_reference(self, lat):
        # long displacements fold onto the torus; both maps, bit for bit
        rng = np.random.default_rng(lat.n_sites)
        c = random_even_couplings(rng, lat.dimension, reach=3)
        for mapping in (c.exchange, c.exchange_z):
            np.testing.assert_array_equal(coupling_matrix(mapping, lat),
                                          reference_coupling_matrix(mapping, lat))

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        c = random_even_couplings(rng, 2, reach=1)
        mat = coupling_matrix(c.exchange_z, LatticeSpec(2, 4))
        np.testing.assert_array_equal(mat, mat.T)

    def test_folded_example_is_exactly_symmetric(self):
        # 1, -4 and 7 fold onto one pair of a 3-site chain, and their mirrors onto the
        # mirror pair in another order; summed in listing order, m != m.T for 1 in 4 draws
        rng = np.random.default_rng(24)
        for a, b, c in rng.normal(size=(200, 3)):
            couplings = CouplingSet({(1,): a, (-4,): b, (7,): c}, {}, 0.0)
            mat = coupling_matrix(couplings.exchange, LatticeSpec(1, 3))
            np.testing.assert_array_equal(mat, mat.T)
            assert mat[0, 1] == math.fsum([a, b, c])

    @settings(max_examples=60)
    @given(
        dimension=st.integers(1, 2),
        size=st.integers(1, 4),
        entries=st.lists(
            st.tuples(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
                      st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v != 0.0)),
            min_size=1, max_size=8,
        ),
    )
    def test_folding_couplings_give_exactly_symmetric_matrices(self, dimension, size, entries):
        mapping = {}
        for z, v in entries:
            z = tuple(z[:dimension])
            if any(z) and z not in mapping and tuple(-c for c in z) not in mapping:
                mapping[z] = v
        lattice = LatticeSpec(dimension, size)
        mat = coupling_matrix(CouplingSet(mapping, {}, 0.0).exchange, lattice)
        np.testing.assert_array_equal(mat, mat.T)
        np.testing.assert_array_equal(mat, reference_coupling_matrix(CouplingSet(mapping, {}, 0.0).exchange, lattice))


class TestValidateFerromagnetic:
    def test_isotropic_passes_relaxed_only(self):
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 16))
        report = validate_ferromagnetic(nn_chain(h=1.5), grid)
        assert report.gap_ok
        assert report.field_ok_relaxed
        assert not report.field_ok_strict
        assert report.gap_at_zero == 0.0

    def test_transverse_only_fails_gap(self):
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 16))
        report = validate_ferromagnetic(nn_chain(j=1.0, j3=0.0, h=10.0), grid)
        assert not report.gap_ok
        assert report.minimum_gap == pytest.approx(-2.0, abs=1e-14)
        np.testing.assert_allclose(report.minimizing_momentum, [0.0])

    def test_longitudinal_only_passes_strict(self):
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 16))
        report = validate_ferromagnetic(nn_chain(j=0.0, j3=1.0, h=2.5), grid)
        assert report.gap_ok
        assert report.field_ok_strict
        assert report.field_ok_relaxed
        assert report.gap_at_zero == pytest.approx(2.0, abs=1e-14)

    def test_strict_implies_relaxed(self):
        rng = np.random.default_rng(19)
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 8))
        for _ in range(20):
            c = random_even_couplings(rng, 1)
            report = validate_ferromagnetic(c, grid)
            assert report.field_ok_relaxed or not report.field_ok_strict

    def test_builds_no_grid_points(self, monkeypatch):
        # on a 2**24-site chain: the minimizing momentum comes from its index, not from the
        # grid's 384 MB of points; the gap grid is stubbed by zeros made before the count
        # starts, so only validate's own allocations count
        grid = MomentumGrid.from_lattice(LatticeSpec(1, MAX_SITES))
        gaps = np.zeros(len(grid))
        monkeypatch.setattr(lattice_module, "exchange_gap_grid", lambda couplings, grid: gaps)
        tracemalloc.start()
        try:
            report = validate_ferromagnetic(nn_chain(j=0.0, j3=1.0, h=2.5), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "points" not in grid.__dict__
        assert peak < 1024 * 1024, peak
        np.testing.assert_array_equal(report.minimizing_momentum, [0.0])

    def test_invariant_under_storage_relabeling(self):
        c = CouplingSet({(1,): 0.4, (2,): 0.1}, {(1,): 0.9, (2,): 0.2}, 1.3)
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 12))
        a = validate_ferromagnetic(c, grid)
        reordered = CouplingSet(
            dict(sorted(c.exchange.items(), reverse=True)),
            dict(sorted(c.exchange_z.items(), reverse=True)),
            c.h,
        )
        b = validate_ferromagnetic(reordered, grid)
        assert a.gap_ok == b.gap_ok
        assert a.field_ok_strict == b.field_ok_strict
        np.testing.assert_array_equal(a.gap_values, b.gap_values)


class TestCouplingCsv:
    def test_loader_symmetrizes(self, tmp_path):
        # blank rows, empty fields included, are skipped
        path = tmp_path / "c.csv"
        path.write_text("dz1,J,J3\n\n1,1.0,0.5\n , ,\n")
        c = load_couplings_csv(path, 1, h=2.0)
        assert c.exchange == {(1,): 1.0, (-1,): 1.0}
        assert c.exchange_z == {(1,): 0.5, (-1,): 0.5}
        assert c.h == 2.0

    def test_loader_rejects_inconsistent_duplicates(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("dz1,J,J3\n1,1.0,0.5\n1,2.0,0.5\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_couplings_csv(path, 1, h=0.0)

    def test_loader_rejects_mirror_conflict(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("dz1,J,J3\n1,1.0,0.5\n-1,2.0,0.5\n")
        with pytest.raises(ValueError, match="mirror"):
            load_couplings_csv(path, 1, h=0.0)

    def test_loader_rejects_a_wrong_field_count(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("dz1,J,J3\n1,1.0,0.5\n2,0.5\n")
        with pytest.raises(ValueError, match="c.csv:3: expected 3 fields, got 2"):
            load_couplings_csv(path, 1, h=0.0)

    def test_loader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("dx,J,J3\n1,1.0,0.5\n")
        with pytest.raises(ValueError, match="header"):
            load_couplings_csv(path, 1, h=0.0)

    def test_round_trip(self, tmp_path):
        c = CouplingSet({(1, 0): 1.5, (0, 1): 0.25}, {(1, 1): -0.75}, 0.3)
        path = tmp_path / "c.csv"
        path.write_text(
            "dz1,dz2,J,J3\n-1,-1,0.0,-0.75\n-1,0,1.5,0.0\n0,-1,0.25,0.0\n"
            "0,1,0.25,0.0\n1,0,1.5,0.0\n1,1,0.0,-0.75\n"
        )
        back = load_couplings_csv(path, 2, h=0.3)
        assert back.exchange == c.exchange
        assert back.exchange_z == c.exchange_z
