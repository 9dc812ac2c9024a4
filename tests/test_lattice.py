import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnonkit import (
    CouplingSet,
    LatticeSpec,
    MomentumGrid,
    coupling_matrix,
    exchange_gap_grid,
    fourier_coupling_grid,
    load_couplings_csv,
    validate_ferromagnetic,
)
from magnonkit.lattice import MAX_SITES


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
    return CouplingSet.symmetrized(exchange, exchange_z, h=1.0)


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


def reference_coupling_matrix(couplings, which, lattice):
    """Periodized coupling matrix filled one site at a time through site_index."""
    mapping = couplings.exchange if which == "J" else couplings.exchange_z
    mat = np.zeros((lattice.n_sites, lattice.n_sites))
    sites = reference_site_vectors(lattice)
    for z, v in mapping.items():
        for x in range(lattice.n_sites):
            mat[x, site_index(lattice, sites[x] - np.asarray(z))] += v
    return mat


def reference_fourier(couplings, which, k) -> complex:
    """sum_z J(z) exp(-i k.z), one complex exponential per displacement."""
    mapping = couplings.exchange if which == "J" else couplings.exchange_z
    total = 0.0 + 0.0j
    for z, v in mapping.items():
        total += v * np.exp(-1j * float(np.dot(k, z)))
    return total


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

    @pytest.mark.parametrize("dimension,size", [(1, MAX_SITES + 1), (3, 257), (25, 2), (10**9, 2)])
    def test_refuses_lattices_over_the_site_limit(self, dimension, size):
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_SITES} sites"):
            LatticeSpec(dimension, size)

    def test_huge_dimension_refused_without_the_power(self, monkeypatch):
        # 2**(10**9) would be a 125 MB integer; the refusal must not compute it
        monkeypatch.setattr(LatticeSpec, "n_sites", property(lambda self: pytest.fail("n_sites")))
        with pytest.raises(ValueError, match="2\\*\\*1000000000 sites exceeds the limit"):
            LatticeSpec(10**9, 2)

    def test_accepts_the_site_limit(self):
        for dimension, size in ((1, MAX_SITES), (3, 256), (24, 2), (10**9, 1)):
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

    def test_index_of_rejects_off_grid(self):
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 4))
        with pytest.raises(ValueError):
            grid.index_of([0.1])


class TestCouplingSet:
    def test_rejects_onsite(self):
        with pytest.raises(ValueError, match="on-site"):
            CouplingSet({(0,): 1.0}, {}, 0.5)

    def test_rejects_odd_map(self):
        with pytest.raises(ValueError, match="evenness"):
            CouplingSet({(1,): 1.0}, {}, 0.5)
        with pytest.raises(ValueError, match="evenness"):
            CouplingSet({(1,): 1.0, (-1,): 2.0}, {}, 0.5)

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError, match="field"):
            CouplingSet({}, {}, -0.1)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mixed"):
            CouplingSet({(1,): 1.0, (-1,): 1.0}, {(0, 1): 1.0, (0, -1): 1.0}, 0.0)

    def test_symmetrized_fills_mirrors(self):
        c = CouplingSet.symmetrized({(1,): 2.0}, {(2,): 3.0}, 0.0)
        assert c.exchange == {(1,): 2.0, (-1,): 2.0}
        assert c.exchange_z == {(2,): 3.0, (-2,): 3.0}
        assert c.coupling_range == 2

    def test_zero_values_dropped(self):
        c = CouplingSet({(1,): 0.0, (-1,): 0.0}, {}, 0.0)
        assert c.exchange == {}
        assert c.coupling_range == 0


def chain_grid(size):
    return MomentumGrid.from_lattice(LatticeSpec(1, size))


def one_point_grid(k, lattice):
    """A grid holding the single momentum k: the grid form's view of one momentum."""
    return MomentumGrid(np.atleast_2d(np.asarray(k, dtype=float)), lattice)


class TestFourierCoupling:
    def test_nearest_neighbor_at_zero(self):
        assert fourier_coupling_grid(nn_chain(), "J", chain_grid(4))[0] == 2.0

    def test_nearest_neighbor_at_pi(self):
        # direct evaluation of 2cos(k); grid point 2 of 4 is pi
        expected = 2.0 * math.cos(math.pi)
        assert fourier_coupling_grid(nn_chain(), "J", chain_grid(4))[2] == pytest.approx(expected, abs=1e-14)

    def test_empty_map(self):
        c = CouplingSet({}, {}, 0.0)
        np.testing.assert_array_equal(fourier_coupling_grid(c, "J", chain_grid(5)), np.zeros(5))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fourier_coupling_grid(nn_chain(), "Jx", chain_grid(4))

    def test_real_on_grid_for_random_even_maps(self):
        rng = np.random.default_rng(7)
        for dimension, size in ((1, 8), (2, 5), (1, 7)):
            c = random_even_couplings(rng, dimension)
            grid = MomentumGrid.from_lattice(LatticeSpec(dimension, size))
            vals = fourier_coupling_grid(c, "J", grid)  # raises on a non-negligible residue
            reference = np.array([reference_fourier(c, "J", k) for k in grid.points])
            np.testing.assert_allclose(vals, reference.real, atol=1e-12)
            assert np.max(np.abs(reference.imag)) < 1e-12

    def test_residue_cap_scales_with_coupling_strength(self):
        # the imaginary rounding residue grows with |J|; 1e4-scale couplings must not trip it
        c = CouplingSet.symmetrized({1: 1e4, 2: 1e4 / 3, 3: 1e4 / 7}, {1: 1e4}, 1.0)
        grid = chain_grid(64)
        vals = fourier_coupling_grid(c, "J", grid)
        reference = np.array([reference_fourier(c, "J", k) for k in grid.points])
        np.testing.assert_allclose(vals, reference.real, atol=1e-8)
        assert vals[0] == pytest.approx(2e4 * (1 + 1 / 3 + 1 / 7), rel=1e-15)

    @pytest.mark.parametrize("dimension, size", [(1, 9), (2, 5), (3, 4)])
    @pytest.mark.parametrize("reach", [2, 3])
    def test_both_forms_match_reference(self, dimension, size, reach):
        # The grid form over many momenta at once and over a one-point grid per
        # momentum (different BLAS kernels) both stay within the rounding of
        # the cosine sum: with displacement components in -2..2 every product
        # k_a z_a is exact, so that is 4 ulp of sum_z |J(z)|.  Longer
        # displacements round the products, which moves a term by up to |k.z|
        # ulp of |J(z)|.
        rng = np.random.default_rng(100 * dimension + reach)
        grid = MomentumGrid.from_lattice(LatticeSpec(dimension, size))
        for _ in range(20):
            c = random_even_couplings(rng, dimension, reach=reach)
            off_grid = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(20, dimension))
            points = np.concatenate([grid.points, off_grid])
            phases = [abs(float(np.dot(k, z))) for k in points for z in c.exchange]
            conditioning = 1.0 if reach == 2 else max([1.0, *phases])
            tol = 4.0 * np.finfo(float).eps * sum(map(abs, c.exchange.values())) * conditioning
            reference = np.array([reference_fourier(c, "J", k) for k in points])
            single = np.array([fourier_coupling_grid(c, "J", one_point_grid(k, grid.lattice))[0]
                               for k in points])
            vectorized = fourier_coupling_grid(c, "J", MomentumGrid(points, grid.lattice))
            assert np.max(np.abs(single - reference.real)) <= tol
            assert np.max(np.abs(vectorized - reference.real)) <= tol

    def test_residue_guard_fires_on_an_uneven_map(self):
        c = nn_chain()
        c.exchange[(1,)] = 1.5  # no longer even: J(1) != J(-1)
        with pytest.raises(AssertionError, match="imaginary residue"):
            fourier_coupling_grid(c, "J", one_point_grid([math.pi / 2], LatticeSpec(1, 4)))
        with pytest.raises(AssertionError, match="imaginary residue"):
            fourier_coupling_grid(c, "J", chain_grid(4))

    def test_parseval_mean_is_onsite_value(self):
        rng = np.random.default_rng(3)
        c = random_even_couplings(rng, 1, reach=3)
        assert abs(np.mean(fourier_coupling_grid(c, "J", chain_grid(16)))) < 1e-13

    @settings(max_examples=60, deadline=2000, derandomize=True, database=None)
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
        c = CouplingSet.symmetrized(exchange, {}, 0.0)
        lattice = LatticeSpec(dimension, size)
        row = coupling_matrix(c, "J", lattice)[0].reshape((size,) * dimension)
        fft = np.fft.fftn(row).ravel()
        grid = MomentumGrid.from_lattice(lattice)
        tol = 1e-12 * sum(map(abs, c.exchange.values()))
        np.testing.assert_allclose(fourier_coupling_grid(c, "J", grid), fft.real, rtol=0.0, atol=tol)
        assert np.max(np.abs(fft.imag)) <= tol


class TestExchangeGap:
    def test_isotropic_at_zero(self):
        assert exchange_gap_grid(nn_chain(), chain_grid(4))[0] == 0.0

    def test_isotropic_at_pi(self):
        assert exchange_gap_grid(nn_chain(), chain_grid(4))[2] == pytest.approx(4.0, abs=1e-14)

    def test_longitudinal_only_is_constant(self):
        c = nn_chain(j=0.0, j3=1.0)
        points = np.array([[0.0], [0.7], [math.pi]])
        gaps = exchange_gap_grid(c, MomentumGrid(points, LatticeSpec(1, 4)))
        np.testing.assert_allclose(gaps, 2.0, rtol=0.0, atol=1e-14)

    def test_bounded_by_zero_momentum_for_nonnegative_matrix(self):
        # gap(q) <= gap(0) holds whenever the position-space matrix entries
        # (sum J3 on the diagonal, -J off it) are all nonnegative.
        c = CouplingSet.symmetrized({(1,): -0.3, (2,): -0.1}, {(1,): 1.0}, 1.0)
        gaps = exchange_gap_grid(c, chain_grid(32))
        assert np.max(gaps) <= gaps[0] + 1e-12


class TestCouplingMatrix:
    def test_images_fold_onto_small_torus(self):
        # both +1 and -1 reach the same neighbor when L = 2
        lat = LatticeSpec(1, 2)
        mat = coupling_matrix(nn_chain(), "J", lat)
        np.testing.assert_allclose(mat, [[0.0, 2.0], [2.0, 0.0]])

    def test_matches_grid_fourier_transform(self):
        # sum_y mat[x, y] e^{-ik(x-y)} must reproduce J(k) for grid momenta
        rng = np.random.default_rng(11)
        c = random_even_couplings(rng, 1, reach=3)
        lat = LatticeSpec(1, 5)
        grid = MomentumGrid.from_lattice(lat)
        mat = coupling_matrix(c, "J", lat)
        sites = lat.site_vectors()[:, 0]
        for k, expected in zip(grid.points, fourier_coupling_grid(c, "J", grid)):
            direct = sum(mat[2, y] * np.exp(-1j * k[0] * (2 - sites[y])) for y in range(5))
            assert direct == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("lat", LATTICES, ids=str)
    def test_matches_reference(self, lat):
        # long displacements fold onto the torus; both maps, bit for bit
        rng = np.random.default_rng(lat.n_sites)
        c = random_even_couplings(rng, lat.dimension, reach=3)
        for which in ("J", "J3"):
            np.testing.assert_array_equal(
                coupling_matrix(c, which, lat), reference_coupling_matrix(c, which, lat)
            )

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        c = random_even_couplings(rng, 2, reach=1)
        mat = coupling_matrix(c, "J3", LatticeSpec(2, 4))
        np.testing.assert_allclose(mat, mat.T, atol=0.0)


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

    def test_invariant_under_storage_relabeling(self):
        c = CouplingSet.symmetrized({(1,): 0.4, (2,): 0.1}, {(1,): 0.9, (2,): 0.2}, 1.3)
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

    def test_rejects_negative_tolerance(self):
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 4))
        with pytest.raises(ValueError):
            validate_ferromagnetic(nn_chain(h=1.0), grid, tol=-1.0)


class TestCouplingCsv:
    def test_loader_symmetrizes(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("dz1,J,J3\n1,1.0,0.5\n")
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

    def test_loader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("dx,J,J3\n1,1.0,0.5\n")
        with pytest.raises(ValueError, match="header"):
            load_couplings_csv(path, 1, h=0.0)

    def test_round_trip(self, tmp_path):
        c = CouplingSet.symmetrized({(1, 0): 1.5, (0, 1): 0.25}, {(1, 1): -0.75}, 0.3)
        path = tmp_path / "c.csv"
        path.write_text(
            "dz1,dz2,J,J3\n-1,-1,0.0,-0.75\n-1,0,1.5,0.0\n0,-1,0.25,0.0\n"
            "0,1,0.25,0.0\n1,0,1.5,0.0\n1,1,0.0,-0.75\n"
        )
        back = load_couplings_csv(path, 2, h=0.3)
        assert back.exchange == c.exchange
        assert back.exchange_z == c.exchange_z
