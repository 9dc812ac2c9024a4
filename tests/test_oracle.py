import dataclasses
import itertools
import math
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnonkit import (
    CouplingSet,
    LatticeSpec,
    MomentumGrid,
    SpinConfig,
    ThermalParams,
    build_gibbs,
    commutator_expectation,
    convergence_study,
    coupling_matrix,
    energy_entropy_margin,
    exchange_gap_grid,
    fluctuation_two_point,
    occupation,
    wick_residual,
)
from magnonkit import oracle
from magnonkit.oracle import (
    GibbsEnsemble,
    _Block,
    _hamiltonian,
    _orbits,
    _product_basis,
    _split_by_magnetization,
    _symmetries,
)
from magnonkit.sectors import sector_decomposition

CHAIN2 = LatticeSpec(1, 2)
GRID2 = MomentumGrid.from_lattice(CHAIN2)
ISO25 = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=2.5)
ANISO = CouplingSet.nearest_neighbor(1, j=0.6, j3=1.0, h=1.2)
# on a 2-site chain the second shell folds onto the site itself: S+(x) S-(x) terms
WRAPPED = CouplingSet({(1,): 0.6, (2,): 0.3}, {(1,): 0.8, (2,): 0.5}, h=1.7)
Q_PI = GRID2.points[1]
REFEREE_TOL = 1e-10


def observables(ensemble):
    """Every oracle observable of one ensemble, one flat vector per name."""
    n_sites = ensemble.n_sites
    last = n_sites - 1
    products = (
        [("+", 0), ("-", last)],
        [("-", 0), ("+", 0)],
        [("+", 0), ("+", last), ("-", 0), ("-", last)],
    )
    out = {
        "logZ": [ensemble.logZ],
        "sigma3": [ensemble.sigma3],
        "sigma3_site_variance": [ensemble.sigma3_site_variance],
        "two_point_pm": ensemble.two_point_pm.ravel(),
        "expect_product": [expect_product(ensemble, f) for f in products],
    }
    points = MomentumGrid.from_lattice(ensemble.config.lattice).points
    for i, q in enumerate(points):
        k = points[(i + 1) % len(points)]
        margins = [energy_entropy_margin(ensemble, q, kind) for kind in ("-", "+")]
        out[f"q{i}"] = [
            fluctuation_two_point(ensemble, q),
            wick_residual(ensemble, q),
            commutator_expectation(ensemble, q, q),
            commutator_expectation(ensemble, k, q),
            *(value for m in margins for value in (m.lhs, m.rhs)),
        ]
    return out


def assert_sector_matches_full(config, beta):
    sector = observables(build_gibbs(config, beta, mode="sector"))
    full = observables(build_gibbs(config, beta, mode="full"))
    for name, expected in full.items():
        np.testing.assert_allclose(sector[name], expected, rtol=0.0, atol=REFEREE_TOL, err_msg=name)


@pytest.fixture(scope="module")
def chain2_n3():
    return build_gibbs(SpinConfig(3, CHAIN2, ISO25), beta=1.0)


class TestBuildGibbs:
    def test_single_site_closed_form(self):
        # decoupled site: per-copy magnetization is -tanh(beta h) for every n
        lattice = LatticeSpec(1, 1)
        couplings = CouplingSet({}, {}, 1.3)
        for n in (1, 3, 5):
            ensemble = build_gibbs(SpinConfig(n, lattice, couplings), beta=0.7)
            assert ensemble.sigma3 == pytest.approx(-math.tanh(0.7 * 1.3), abs=1e-13)

    def test_infinite_temperature_unpolarized(self):
        ensemble = build_gibbs(SpinConfig(3, CHAIN2, ISO25), beta=0.0)
        assert abs(ensemble.sigma3) < 1e-13

    @pytest.mark.parametrize("copies,lattice", [(1, CHAIN2), (3, CHAIN2), (3, LatticeSpec(1, 3))])
    def test_sector_matches_full_tensor(self, copies, lattice):
        assert_sector_matches_full(SpinConfig(copies, lattice, ISO25), beta=1.0)

    def test_logz_recomputable_by_logsumexp(self, chain2_n3):
        terms = []
        for block in chain2_n3.blocks:
            terms.append(block.log_weight - chain2_n3.beta * block.energies)
        stacked = np.concatenate(terms)
        peak = stacked.max()
        recomputed = peak + math.log(np.sum(np.exp(stacked - peak)))
        assert recomputed == pytest.approx(chain2_n3.logZ, abs=1e-12)

    def test_ensembles_sharing_orbits_keep_their_own_probabilities(self):
        config = SpinConfig(3, CHAIN2, ISO25)
        first, alone = build_gibbs(config, beta=1.0), build_gibbs(config, beta=1.0)
        cold = GibbsEnsemble(config, 4.0, first.orbits)
        assert first.sigma3 == alone.sigma3
        assert first.logZ == alone.logZ
        np.testing.assert_array_equal(first.two_point_pm, alone.two_point_pm)
        assert wick_residual(first, Q_PI) == wick_residual(alone, Q_PI)
        assert cold.sigma3 == build_gibbs(config, beta=4.0).sigma3
        assert cold.sigma3 < first.sigma3

    def test_identity_expectation(self, chain2_n3):
        assert identity_expectation(chain2_n3) == pytest.approx(1.0, abs=1e-12)

    def test_u1_symmetry(self, chain2_n3):
        for x in range(chain2_n3.n_sites):
            assert abs(expect_product(chain2_n3, [("+", x)])) < 1e-12

    def test_rejects_even_copies(self):
        with pytest.raises(ValueError):
            SpinConfig(2, CHAIN2, ISO25)

    def test_rejects_couplings_of_another_dimension(self):
        with pytest.raises(ValueError, match="coupling dimension 1 does not match lattice dimension 2"):
            SpinConfig(1, LatticeSpec(2, 2), ISO25)

    def test_sector_cap(self):
        with pytest.raises(ValueError, match="65536"):
            SpinConfig(3, LatticeSpec(1, 8), ISO25)

    def test_full_cap(self):
        config = SpinConfig(17, LatticeSpec(1, 1), CouplingSet({}, {}, 1.0))
        with pytest.raises(ValueError, match="exceeds cap"):
            build_gibbs(config, beta=1.0, mode="full")

    def test_caps_admit_their_edge(self, monkeypatch):
        # (9 + 1)**4 = MAX_SECTOR_BLOCK_DIM, 2**(3 * 4) = MAX_FULL_DIM and 31 = MAX_COPIES
        # are admitted; the full build stops at its first coupling matrix, past its cap
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        SpinConfig(9, LatticeSpec(1, 4), ISO25)
        SpinConfig(31, LatticeSpec(1, 1), CouplingSet({}, {}, 1.0))
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "coupling_matrix", admitted)
            with pytest.raises(Admitted):
                build_gibbs(SpinConfig(3, LatticeSpec(1, 4), ISO25), beta=1.0, mode="full")
        # the copy count is the configuration's to refuse, before any cap is asked
        with pytest.raises(ValueError, match=r"copy count 33 exceeds supported maximum 31 \(MAX_COPIES\)"):
            SpinConfig(33, LatticeSpec(1, 1), CouplingSet({}, {}, 1.0))
        with pytest.raises(ValueError, match=r"largest sector block dimension 20736 at copies=11 exceeds cap "
                                             r"10000 \(MAX_SECTOR_BLOCK_DIM\)"):
            SpinConfig(11, LatticeSpec(1, 4), ISO25)
        with pytest.raises(ValueError, match=r"full-tensor dimension 8192 at copies=1 exceeds cap 4096 "
                                             r"\(MAX_FULL_DIM\)"):
            build_gibbs(SpinConfig(1, LatticeSpec(1, 13), ISO25), beta=1.0, mode="full")

    def test_cap_on_a_huge_lattice_forms_no_power(self):
        with pytest.raises(ValueError, match="4\\*\\*16777216 at copies=3 exceeds cap"):
            SpinConfig(3, LatticeSpec(3, 256), CouplingSet({}, {}, 1.0))

    def test_rejects_bad_beta_and_mode(self, chain2_n3):
        with pytest.raises(ValueError):
            build_gibbs(SpinConfig(1, CHAIN2, ISO25), beta=-1.0)
        with pytest.raises(ValueError):
            build_gibbs(SpinConfig(1, CHAIN2, ISO25), beta=1.0, mode="dense")

    def test_expect_product_pauli_algebra(self):
        # single spin-1/2 at infinite temperature: plain Pauli traces; the engine keeps
        # no dense S3, so the S3 word runs on the Kronecker reference
        config = SpinConfig(1, LatticeSpec(1, 1), CouplingSet({}, {}, 0.0))
        ensemble, reference = build_gibbs(config, beta=0.0), reference_ensemble(config, 0.0)
        for e in (ensemble, reference):
            assert expect_product(e, [("+", 0), ("-", 0)]) == pytest.approx(0.5)
            assert abs(expect_product(e, [("+", 0)])) < 1e-15
        assert expect_product(reference, [("3", 0), ("3", 0)]) == pytest.approx(1.0)
        with pytest.raises(AttributeError):
            expect_product(ensemble, [("3", 0)])


class TestSectorReferee:
    """The magnetization-split sector engine against the unsplit full tensor."""

    # the isotropic n=1 and n=3 cases run in TestBuildGibbs.test_sector_matches_full_tensor
    @pytest.mark.parametrize(
        "couplings,beta", [(ANISO, 2.0), (WRAPPED, 0.7)], ids=["anisotropic", "self-coupling"]
    )
    def test_every_observable_matches_full_tensor(self, couplings, beta):
        assert_sector_matches_full(SpinConfig(3, CHAIN2, couplings), beta)

    def test_self_coupling_case_reaches_the_diagonal(self):
        assert np.all(np.diagonal(coupling_matrix(WRAPPED.exchange, CHAIN2)) != 0.0)

    @settings(max_examples=40)
    @given(
        j=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        j3=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        h=st.floats(0.0, 3.0),
        beta=st.floats(0.0, 3.0),
        size=st.integers(1, 3),
        copies=st.sampled_from([1, 3]),
    )
    def test_random_couplings_match_full_tensor(self, j, j3, h, beta, size, copies):
        shells = [(1,), (2,)]
        couplings = CouplingSet(dict(zip(shells, j)), dict(zip(shells, j3)), h)
        assert_sector_matches_full(SpinConfig(copies, LatticeSpec(1, size), couplings), beta)


class TestMomentumRecord:
    """Wick residual and both margins share one cached pass per grid momentum."""

    @staticmethod
    def fluctuation_values(ensemble, calls, order):
        """{(grid index, call): values} of wick, margin- and margin+, called in the given order."""
        points = MomentumGrid.from_lattice(ensemble.config.lattice).points
        kinds = (lambda q: (wick_residual(ensemble, q),),
                 lambda q: dataclasses.astuple(energy_entropy_margin(ensemble, q, "-")),
                 lambda q: dataclasses.astuple(energy_entropy_margin(ensemble, q, "+")))
        return {(i, call): kinds[call](points[i]) for i in order for call in calls}

    @settings(max_examples=20)
    @given(
        j=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        j3=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        h=st.floats(0.0, 3.0),
        beta=st.floats(0.0, 3.0),
        size=st.integers(1, 3),
        copies=st.sampled_from([1, 3]),
        calls=st.permutations([0, 1, 2]),
    )
    def test_any_call_order_gives_the_same_bits(self, j, j3, h, beta, size, copies, calls):
        shells = [(1,), (2,)]
        couplings = CouplingSet(dict(zip(shells, j)), dict(zip(shells, j3)), h)
        config = SpinConfig(copies, LatticeSpec(1, size), couplings)
        grid = range(size)
        ensemble = build_gibbs(config, beta)
        first = self.fluctuation_values(ensemble, calls, grid)
        # a warm cache, then a fresh ensemble with the calls and the momenta reversed
        assert self.fluctuation_values(ensemble, (0, 1, 2), grid) == first
        assert self.fluctuation_values(build_gibbs(config, beta), calls[::-1], grid[::-1]) == first
        full = self.fluctuation_values(build_gibbs(config, beta, mode="full"), calls, grid)
        for key, values in first.items():
            np.testing.assert_allclose(values, full[key], rtol=0.0, atol=REFEREE_TOL, err_msg=str(key))
        for func in (wick_residual, energy_entropy_margin):
            with pytest.raises(ValueError, match="not on the grid"):
                func(ensemble, [0.3])


@pytest.mark.parametrize("mode", ["sector", "full"])
def test_piece_formulas_match_dense_products(mode):
    # the observables read diagonals off S+ pieces; expect_product multiplies dense matrices
    ensemble = build_gibbs(SpinConfig(3, CHAIN2, ANISO), beta=1.3, mode=mode)
    coeffs = np.exp(1j * CHAIN2.site_vectors() @ Q_PI) / math.sqrt(2 * 3)

    def expect(kinds):
        """<F^k1(q) F^k2(q) ...> expanded over sites."""
        total = 0.0
        for sites in itertools.product(range(2), repeat=len(kinds)):
            weight = math.prod(
                coeffs[x] if kind == "+" else coeffs[x].conjugate() for kind, x in zip(kinds, sites)
            )
            total += weight * expect_product(ensemble, list(zip(kinds, sites)))
        return total.real

    pm, mp = expect("+-"), expect("-+")
    assert wick_residual(ensemble, Q_PI) == pytest.approx(abs(expect("++--") - 2 * pm**2), abs=1e-12)
    assert commutator_expectation(ensemble, Q_PI, Q_PI) == pytest.approx(pm - mp, abs=1e-12)
    minus = energy_entropy_margin(ensemble, Q_PI, "-")  # X = F-, X* = F+
    plus = energy_entropy_margin(ensemble, Q_PI, "+")
    assert (minus.x_dag_x, minus.x_x_dag) == pytest.approx((pm, mp), abs=1e-12)
    assert (plus.x_dag_x, plus.x_x_dag) == pytest.approx((mp, pm), abs=1e-12)
    np.testing.assert_allclose(
        ensemble.two_point_pm,
        [[expect_product(ensemble, [("+", x), ("-", y)]) for y in range(2)] for x in range(2)],
        atol=1e-12,
    )


def hop_map(*entries):
    """Hops (dst, src, value) from (row, column, value) entries of a symmetric H."""
    pairs = [(r, c, v) for r, c, v in entries] + [(c, r, v) for r, c, v in entries]
    return tuple(np.array([pair[i] for pair in pairs], dtype=dtype)
                 for i, dtype in enumerate((np.intp, np.intp, float)))


def split_one(diagonal, hops, magnetization, slope, tol):
    """``_split_by_magnetization`` of a batch of one assignment."""
    return _split_by_magnetization(diagonal, hops, magnetization, np.array([0, len(diagonal)]), slope,
                                   np.array([tol]))


def eigenpairs(split):
    """(energies, eigenvectors) of every sector of a split, in sector order: a sector M < 0 has
    the eigenvectors V_-M[::-1] of its mirror."""
    _, _, _, (values, first, sizes, mirror), energies, stacks = split
    vectors = {k: stack[i] for group, stack in stacks.values() for i, k in enumerate(group.tolist())}
    return [(energies[f:f + d], vectors[k] if m >= 0 else vectors[mirror[k]][::-1])
            for k, (m, f, d) in enumerate(zip(values, first, sizes))]


class TestMagnetizationSplit:
    def test_refuses_a_hamiltonian_that_mixes_sectors(self):
        # a transverse field on one spin-1/2 couples S3 = -1 and S3 = +1
        with pytest.raises(AssertionError, match="different total-S3 sectors"):
            split_one(np.zeros(2), hop_map((0, 1, 1.0)), np.array([-1.0, 1.0]), 0.0, 0.0)

    def test_refuses_the_smallest_leak(self):
        # two spins-1/2, product order (-,-), (-,+), (+,-), (+,+): flip-flop plus one stray hop
        hops = hop_map((1, 2, 2.0), (0, 3, 5e-324))
        with pytest.raises(AssertionError, match=r"different total-S3 sectors \(largest entry 4.941e-324\)"):
            split_one(np.array([1.0, -1.0, -1.0, 1.0]), hops, np.array([-2.0, 0.0, 0.0, 2.0]), 0.0, 0.0)

    def test_sorts_the_basis_into_sectors(self):
        # sector -2 is sector 2 flipped, shifted by slope * 2 = 8; it reaches no eigh
        split = split_one(np.array([1.0, 4.0, -4.0, 1.0]), hop_map((0, 3, 2.0)), np.array([0.0, -2.0, 2.0, 0.0]),
                          4.0, 0.0)
        order, rank, sector, (values, first, sizes, mirror), energies, stacks = split
        np.testing.assert_array_equal(order, [1, 0, 3, 2])
        np.testing.assert_array_equal(rank[order], np.arange(4))  # rank inverts order
        np.testing.assert_array_equal(sector, [1, 0, 2, 1])  # per product state
        np.testing.assert_array_equal(values, [-2.0, 0.0, 2.0])
        np.testing.assert_array_equal(first, [0, 1, 3])
        np.testing.assert_array_equal(sizes, [1, 2, 1])
        np.testing.assert_array_equal(mirror, [2, 1, 0])
        assert sorted(stacks) == [1, 2]  # only M >= 0, one stack per size
        pairs = eigenpairs(split)
        for (sector_energies, _), expected in zip(pairs, ([4.0], [-1.0, 3.0], [-4.0])):
            np.testing.assert_allclose(sector_energies, expected, atol=1e-14)
        assert np.shares_memory(pairs[0][1], pairs[2][1])  # V_-2 is V_2 reversed, a view
        assert stacks[1][1].base is stacks[2][1].base  # every stack is a view of one buffer

    def test_only_nonnegative_sectors_reach_one_stacked_eigh(self, monkeypatch):
        # sectors M = -4, -2, 0, 2, 4 of sizes 2, 1, 2, 1, 2 with slope 1: the 2x2 blocks of
        # M = 0 and M = 4 go to one stacked eigh, the 1x1 of M = 2 to another, and the
        # negative sectors are their mirrors: H_-M = P H_M P + M
        magnetization = np.array([-4.0, -4.0, -2.0, 0.0, 0.0, 2.0, 4.0, 4.0])
        diagonal = np.array([9.0, 8.0, 5.0, 2.0, 2.0, 3.0, 4.0, 5.0])
        hops = hop_map((0, 1, 3.0), (3, 4, 1.0), (6, 7, 3.0))
        shapes = []
        eigh = np.linalg.eigh

        def recorded(stack):
            shapes.append(stack.shape)
            return eigh(stack)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        split = split_one(diagonal, hops, magnetization, 1.0, 0.0)
        assert shapes == [(1, 1, 1), (2, 2, 2)]
        np.testing.assert_array_equal(split[2], [0, 0, 1, 2, 2, 3, 4, 4])
        np.testing.assert_array_equal(split[3][0], [-4.0, -2.0, 0.0, 2.0, 4.0])
        blocks = ([[9.0, 3.0], [3.0, 8.0]], [[5.0]], [[2.0, 1.0], [1.0, 2.0]], [[3.0]], [[4.0, 3.0], [3.0, 5.0]])
        for (energies, vectors), block in zip(eigenpairs(split), blocks):
            np.testing.assert_allclose(energies, np.linalg.eigvalsh(block), atol=1e-14)
            np.testing.assert_allclose(np.array(block) @ vectors, vectors * energies, atol=1e-14)

    def test_a_batch_splits_by_assignment_and_magnetization(self, monkeypatch):
        # two assignments side by side: a spin-1/2 pair (states 0-3) and one spin-1/2 (4-5).
        # Their sectors are keyed by (assignment, M), the pair's M = 0 block and no other is
        # 2x2, and the 1x1 blocks of both assignments share one stacked eigh
        magnetization = np.array([-2.0, 0.0, 0.0, 2.0, -1.0, 1.0])
        diagonal = np.array([1.0, -1.0, -1.0, 1.0, 3.0, 3.0])
        hops = hop_map((1, 2, 2.0))
        shapes = []
        eigh = np.linalg.eigh

        def recorded(stack):
            shapes.append(stack.shape)
            return eigh(stack)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        split = _split_by_magnetization(diagonal, hops, magnetization, np.array([0, 4, 6]), 0.0, np.zeros(2))
        order, rank, sector, (values, first, sizes, mirror), energies, stacks = split
        assert shapes == [(2, 1, 1), (1, 2, 2)]
        np.testing.assert_array_equal(order, [0, 1, 2, 3, 4, 5])
        np.testing.assert_array_equal(values, [-2.0, 0.0, 2.0, -1.0, 1.0])
        np.testing.assert_array_equal(first, [0, 1, 3, 4, 5])
        np.testing.assert_array_equal(mirror, [2, 1, 0, 4, 3])  # each within its assignment
        np.testing.assert_array_equal(sector, [0, 1, 1, 2, 3, 4])
        np.testing.assert_allclose(energies, [1.0, -3.0, 1.0, 1.0, 3.0, 3.0], atol=1e-14)

    def test_the_flip_check_is_per_assignment(self):
        # each assignment reverses on its own: M = (-1, 1 | -2, 2) is flipped locally though
        # not by a reversal of the whole batch; and each assignment's diagonal is held to its
        # own tolerance, so a deviation of 1e-3 passes the first and fails the second
        magnetization = np.array([-1.0, 1.0, -2.0, 2.0])
        starts = np.array([0, 2, 4])
        no_hops = hop_map()
        _split_by_magnetization(np.zeros(4), no_hops, magnetization, starts, 0.0, np.zeros(2))
        tol = np.array([1e-2, 1e-4])
        _split_by_magnetization(np.array([0.0, 1e-3, 0.0, 0.0]), no_hops, magnetization, starts, 0.0, tol)
        with pytest.raises(AssertionError, match=r"largest deviation 1.000e-03, tolerance 1.000e-04"):
            _split_by_magnetization(np.array([0.0, 0.0, 0.0, 1e-3]), no_hops, magnetization, starts, 0.0, tol)

    def test_refuses_a_diagonal_the_flip_does_not_shift_by_slope_times_m(self):
        with pytest.raises(AssertionError, match=r"spin flip shifts the diagonal by other than 3 M"):
            split_one(np.array([1.0, 4.0, -4.0, 1.0]), hop_map((0, 3, 2.0)), np.array([0.0, -2.0, 2.0, 0.0]),
                      3.0, 1e-12)

    def test_refuses_a_basis_the_reversal_does_not_flip(self):
        with pytest.raises(AssertionError, match="index reversal does not flip the total S3"):
            split_one(np.zeros(3), hop_map((1, 2, 1.0)), np.array([-2.0, 0.0, 0.0]), 0.0, 0.0)

    def test_build_refuses_a_broken_hop_map(self, monkeypatch):
        # one stray hop between the all-down and all-up states of every assignment
        original = oracle._hamiltonian

        def broken(basis, *args):
            diagonal, (dst, src, value) = original(basis, *args)
            starts = basis[-1]
            return diagonal, (np.append(dst, starts[1:] - 1), np.append(src, starts[:-1]),
                              np.append(value, np.full(len(starts) - 1, 1e-3)))

        monkeypatch.setattr(oracle, "_hamiltonian", broken)
        with pytest.raises(AssertionError, match=r"different total-S3 sectors \(largest entry 1.000e-03\)"):
            build_gibbs(SpinConfig(3, CHAIN2, ISO25), beta=1.0)


class TestFluctuationTwoPoint:
    def test_infinite_temperature_value(self):
        ensemble = build_gibbs(SpinConfig(1, CHAIN2, ISO25), beta=0.0)
        for q in GRID2.points:
            assert fluctuation_two_point(ensemble, q) == pytest.approx(0.5, abs=1e-13)

    def test_nonnegative_and_real(self, chain2_n3):
        for q in GRID2.points:
            assert fluctuation_two_point(chain2_n3, q) >= -1e-12

    def test_brute_force_cross_check_n5(self):
        config = SpinConfig(5, CHAIN2, ISO25)
        sector = build_gibbs(config, beta=1.0, mode="sector")
        full = build_gibbs(config, beta=1.0, mode="full")  # dimension 2**10
        assert fluctuation_two_point(sector, Q_PI) == pytest.approx(
            fluctuation_two_point(full, Q_PI), abs=1e-10
        )


class TestCommutator:
    def test_off_diagonal_vanishes(self, chain2_n3):
        assert abs(commutator_expectation(chain2_n3, GRID2.points[0], Q_PI)) < 1e-12

    def test_diagonal_gives_magnetization(self, chain2_n3):
        value = commutator_expectation(chain2_n3, Q_PI, Q_PI)
        assert value == pytest.approx(chain2_n3.sigma3, abs=1e-12)

    def test_infinite_temperature_diagonal_vanishes(self):
        ensemble = build_gibbs(SpinConfig(3, CHAIN2, ISO25), beta=0.0)
        assert abs(commutator_expectation(ensemble, Q_PI, Q_PI)) < 1e-12


class TestEnergyEntropyBalance:
    def test_infinite_temperature_both_sides_vanish(self):
        ensemble = build_gibbs(SpinConfig(3, CHAIN2, ISO25), beta=0.0)
        result = energy_entropy_margin(ensemble, Q_PI, "-")
        assert abs(result.lhs) < 1e-12
        assert abs(result.rhs) < 1e-12

    def test_holds_with_margin_in_ferromagnetic_regime(self, chain2_n3):
        for q in GRID2.points:
            for kind in ("-", "+"):
                result = energy_entropy_margin(chain2_n3, q, kind)
                assert result.lhs >= result.rhs - 1e-9

    def test_roles_swap_under_adjoint(self, chain2_n3):
        minus = energy_entropy_margin(chain2_n3, Q_PI, "-")
        plus = energy_entropy_margin(chain2_n3, Q_PI, "+")
        # X <-> X* swaps the two expectations and negates the log ratio
        assert minus.x_dag_x == pytest.approx(plus.x_x_dag, abs=1e-13)
        assert minus.x_x_dag == pytest.approx(plus.x_dag_x, abs=1e-13)
        log_minus = minus.rhs / minus.x_dag_x
        log_plus = plus.rhs / plus.x_dag_x
        assert log_minus == pytest.approx(-log_plus, abs=1e-12)

    def test_rejects_unknown_kind(self, chain2_n3):
        with pytest.raises(ValueError):
            energy_entropy_margin(chain2_n3, Q_PI, "3")


class TestWickResidual:
    def test_frozen_pauli_value(self):
        # beta=0, single copy, single site: <F+F+F-F-> = 0, <F+F-> = 1/2
        ensemble = build_gibbs(
            SpinConfig(1, LatticeSpec(1, 1), CouplingSet({}, {}, 0.0)), beta=0.0
        )
        assert wick_residual(ensemble, [0.0]) == pytest.approx(0.5, abs=1e-14)

    def test_near_fock_state_is_small(self):
        ensemble = build_gibbs(SpinConfig(3, CHAIN2, ISO25), beta=8.0)
        assert wick_residual(ensemble, Q_PI) < 1e-6

    def test_decreases_with_copies(self):
        values = [
            wick_residual(build_gibbs(SpinConfig(n, CHAIN2, ISO25), beta=1.0), Q_PI)
            for n in (1, 3, 5)
        ]
        assert values[2] < values[1] < values[0]


class TestConvergenceStudy:
    def test_rows_are_consistent(self):
        rows = convergence_study(CHAIN2, ISO25, beta=1.0, q=Q_PI, copies_list=[1, 3])
        params = ThermalParams(1.0, ISO25.h)
        for row in rows:
            assert -1.0 <= row.m_n <= 0.0
            assert row.discrepancy == pytest.approx(abs(row.t_n - row.p_n))
            # the solver's grid formula at q, bit for bit
            assert row.p_n == occupation(row.m_n, params, ISO25, GRID2)[1]
            # the rounding bound of t_n's 4-term phase sum on the 2-site chain, plus that of
            # its Gibbs weights at beta = 1 from the largest |energy|, plus p_n's first-order
            # rounding through m_n: sigma3 sums each representative's d_a d_b states, one
            # representative per unordered pair of spins (d = 2j + 1), then one term per pair
            ensemble = build_gibbs(SpinConfig(row.n, CHAIN2, ISO25), beta=1.0)
            eps, m, p = np.finfo(float).eps, row.m_n, row.p_n
            gap = exchange_gap_grid(ISO25, GRID2)[1]
            x = 2.0 * (ISO25.h - m * gap)
            slope = p * (1.0 / m + 2.0 * gap * math.exp(x) / math.expm1(x))
            floor_t = 4 * eps * np.abs(ensemble.two_point_pm).sum() / (2 * row.n)
            energy = max(np.abs(rep.energies).max() for rep, _ in ensemble.orbits)
            floor_w = 2.0 * energy * eps * abs(row.t_n)
            dims = [e.dim for e in sector_decomposition(row.n).entries]
            pairs = list(itertools.combinations_with_replacement(dims, 2))
            terms = sum(a * b for a, b in pairs) + len(pairs)
            floor_p = abs(slope) * terms * eps * abs(m)
            assert row.rounding_floor == pytest.approx(floor_t + floor_w + floor_p, rel=1e-12, abs=0)
            assert row.rounding_floor < 1e-6 * row.discrepancy  # warm: far from the noise
            assert (row.logZ, row.ground_energy) == (ensemble.logZ, ensemble.ground_energy)
            assert row.representatives == len(ensemble.orbits)

    def test_off_grid_momentum_refused_before_building(self, monkeypatch):
        monkeypatch.setattr(oracle, "build_gibbs", lambda *args, **kwargs: pytest.fail("built"))
        with pytest.raises(ValueError, match="not on the grid"):
            convergence_study(CHAIN2, ISO25, beta=1.0, q=[0.3], copies_list=[1, 3])

    def test_equal_gap_momenta_give_equal_predictions(self):
        lattice = LatticeSpec(1, 4)
        grid = MomentumGrid.from_lattice(lattice)
        couplings = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=2.5)
        rows_a = convergence_study(lattice, couplings, 1.0, grid.points[1], [1, 3])
        rows_b = convergence_study(lattice, couplings, 1.0, grid.points[3], [1, 3])
        for a, b in zip(rows_a, rows_b):
            assert a.p_n == pytest.approx(b.p_n, abs=1e-14)
            assert a.t_n == pytest.approx(b.t_n, abs=1e-12)


def test_site_average_variance_shrinks():
    # expectation-value shadow of the copy-averaged operator convergence:
    # the variance decays at least as fast as 1/n
    ladder = (1, 3, 5, 7)
    variances = []
    for n in ladder:
        ensemble = build_gibbs(SpinConfig(n, CHAIN2, ISO25), beta=1.0)
        variances.append(ensemble.sigma3_site_variance)
    assert all(b < a for a, b in zip(variances, variances[1:]))
    for n, variance in zip(ladder[1:], variances[1:]):
        assert variance <= variances[0] / n


# --- the orbit engine against a Kronecker-built, one-block-per-assignment reference ---

CHAIN3 = LatticeSpec(1, 3)
CHAIN4 = LatticeSpec(1, 4)
SQUARE2 = LatticeSpec(2, 2)
SHELLS12 = CouplingSet({(1,): 0.7, (2,): -0.3}, {(1,): 0.9, (2,): 0.4}, h=1.7)
SQUARE_NN = CouplingSet(
    {(1, 0): 0.8, (0, 1): 0.8, (1, 1): 0.2}, {(1, 0): 1.0, (0, 1): 1.0, (1, 1): 0.3}, h=2.0
)
# on a 3-site chain every shell folds onto the nearest neighbours, three values per pair
FOLDED = CouplingSet({(1,): 0.7, (-4,): -0.3, (7,): 0.45}, {(1,): 0.9, (-4,): 0.4, (7,): -0.2}, h=1.7)


def collective_matrices(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raising, lowering and z matrices of one spin-j block, Pauli units.

    Basis is ordered by ascending z eigenvalue.  Matrices are real, so the
    blocked Hamiltonians stay real symmetric.
    """
    t = int(twice_j)
    if t < 1:
        raise ValueError(f"twice_j must be >= 1, got {twice_j}")
    a = np.arange(t)
    raise_amp = np.sqrt((t - a) * (a + 1.0))
    s_plus = np.diag(raise_amp, -1)
    s_minus = s_plus.T.copy()
    s_three = np.diag(2.0 * np.arange(t + 1) - t)
    return s_plus, s_minus, s_three


@pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 8])
def test_collective_matrix_algebra(twice_j):
    s_plus, s_minus, s_three = collective_matrices(twice_j)
    # Pauli-sum units: [S+, S-] = S3 and [S3, S+] = 2 S+
    np.testing.assert_allclose(s_plus @ s_minus - s_minus @ s_plus, s_three, atol=1e-12)
    np.testing.assert_allclose(
        s_three @ s_plus - s_plus @ s_three, 2.0 * s_plus, atol=1e-12
    )
    np.testing.assert_array_equal(s_minus, s_plus.T)
    eigenvalues = np.diagonal(s_three)
    assert eigenvalues[0] == -twice_j and eigenvalues[-1] == twice_j


def test_spin_half_matches_pauli():
    s_plus, s_minus, s_three = collective_matrices(1)
    np.testing.assert_array_equal(s_plus, [[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(s_three, [[-1.0, 0.0], [0.0, 1.0]])


def kron_operators(twice_js):
    """Dense S+(x) and the S3(x) diagonals of one assignment, by Kronecker products."""
    dims = [t + 1 for t in twice_js]

    def embed(site, mat):
        return reduce(np.kron, [mat if z == site else np.eye(d) for z, d in enumerate(dims)])

    mats = [collective_matrices(t) for t in twice_js]
    return [embed(x, m[0]) for x, m in enumerate(mats)], [
        np.diagonal(embed(x, m[2])).copy() for x, m in enumerate(mats)
    ]


def kron_hamiltonian(twice_js, j_mat, j3_mat, h, two_n):
    """Reference Hamiltonian: each transverse term S+(x) S-(y) a Kronecker product."""
    dims = [t + 1 for t in twice_js]
    site_plus = [collective_matrices(t)[0] for t in twice_js]
    _, s3 = kron_operators(twice_js)
    hamiltonian = np.zeros((math.prod(dims),) * 2)
    diag = np.zeros(hamiltonian.shape[0])
    for x in range(len(dims)):
        for y in range(len(dims)):
            if j_mat[x, y] != 0.0:
                if x == y:
                    factors = {x: site_plus[x] @ site_plus[x].T}
                else:
                    factors = {x: site_plus[x], y: site_plus[y].T}
                term = reduce(np.kron, [factors.get(z, np.eye(d)) for z, d in enumerate(dims)])
                hamiltonian -= (4.0 / two_n) * j_mat[x, y] * term
            if j3_mat[x, y] != 0.0:
                diag -= (1.0 / two_n) * j3_mat[x, y] * s3[x] * s3[y]
        diag += h * s3[x]
    hamiltonian[np.diag_indices_from(hamiltonian)] += diag
    return hamiltonian


def coupling_pair(config):
    couplings = config.couplings
    return tuple(coupling_matrix(m, config.lattice) for m in (couplings.exchange, couplings.exchange_z))


def reference_ensemble(config, beta):
    """Every assignment diagonalized on its own (unsplit, each its own orbit), in product order.

    Each block also carries its dense eigenbasis S3 stack as ``s3_rotated``, and its
    diagonals are read off the site sums of that stack and of its square.
    """
    j_mat, j3_mat = coupling_pair(config)
    blocks = []
    for assignment in itertools.product(sector_decomposition(config.copies).entries,
                                        repeat=config.lattice.n_sites):
        twice_js = [e.twice_j for e in assignment]
        s_plus, s3 = kron_operators(twice_js)
        hamiltonian = kron_hamiltonian(twice_js, j_mat, j3_mat, config.couplings.h, 2.0 * config.copies)
        energies, vectors = np.linalg.eigh(hamiltonian)
        everything = slice(0, len(energies))
        plus = np.stack([vectors.T @ sp @ vectors for sp in s_plus])
        three = np.stack([vectors.T @ (d[:, None] * vectors) for d in s3])
        diagonals = np.stack([np.diagonal(m.sum(axis=0)) for m in (three, three @ three)])
        weight = math.log(math.prod(e.multiplicity for e in assignment))
        block = _Block(weight, energies, [(everything, everything, plus, None)], diagonals, len(energies))
        block.s3_rotated = three
        blocks.append(block)
    identity = np.arange(config.lattice.n_sites)[None, :]
    return GibbsEnsemble(config, beta, [(block, identity) for block in blocks])


def site_operator(block, kind, x):
    """Dense eigenbasis matrix of S+(x), S-(x) or S3(x); S3 only on reference blocks."""
    if kind == "3":
        return block.s3_rotated[x]
    plus = np.zeros((block.dim, block.dim))
    for rows, cols, stack, mirror in block.plus:
        plus[rows, cols] = stack[x]
        if mirror is not None:
            plus[mirror] = stack[x].T
    return {"+": plus, "-": plus.T}[kind]


def block_word(block, probs, factors):
    """<product of site operators> weighted by one block's Gibbs probabilities."""
    product = reduce(np.matmul, [site_operator(block, kind, x) for kind, x in factors], np.eye(block.dim))
    return float(probs @ np.diagonal(product))


def expect_product(ensemble, factors):
    """Expectation of an ordered product of collective site operators.

    ``factors`` is a sequence of (kind, site) with kind in {"+", "-", "3"}; the
    member with permutation p reads its representative's operator at site p[x].
    """
    return sum(block_word(rep, probs, [(kind, perm[x]) for kind, x in factors])
               for (rep, perms), probs in zip(ensemble.orbits, ensemble.probs) for perm in perms)


def identity_expectation(ensemble):
    return float(sum(len(perms) * probs.sum() for (_, perms), probs in zip(ensemble.orbits, ensemble.probs)))


def piece_bytes(twice_js, n_sites):
    """float64 bytes of one block's stored S+ pieces (d_M+2 x d_M per site, M >= -2; the
    others are their mirrors' transposes) and its two S3 diagonals."""
    s3 = _product_basis([twice_js])[3]
    values, sizes = np.unique(s3.sum(axis=0), return_counts=True)  # M runs in steps of 2
    stored = values[:-1] >= -2
    return 8 * (n_sites * int(np.sum((sizes[1:] * sizes[:-1])[stored])) + 2 * int(np.sum(sizes)))


def assignment_labels(config):
    """Every per-site assignment as its 2j values, in product order."""
    spins = [e.twice_j for e in sector_decomposition(config.copies).entries]
    return list(itertools.product(spins, repeat=config.lattice.n_sites))


def rep_labels(ensemble):
    """The label of each orbit's representative: orbits run in the order of their
    representatives, the first assignment of each orbit in product order."""
    labels = assignment_labels(ensemble.config)
    entries = len(sector_decomposition(ensemble.copies).entries)
    reps, _ = _orbits(entries, _symmetries(ensemble.config.lattice))
    return [labels[r] for r in np.unique(reps)]


def members(ensemble):
    """(representative, permutation, assignment label) of every orbit member."""
    return [(rep, perm, tuple(label[p] for p in perm))
            for label, (rep, perms) in zip(rep_labels(ensemble), ensemble.orbits) for perm in perms]


def probs_by_label(ensemble, labels):
    """(representative, its Gibbs probabilities) by the representative's label."""
    return {label: (rep, probs) for label, (rep, _), probs in zip(labels, ensemble.orbits, ensemble.probs)}


def block_two_point(block, probs):
    """<S+(x) S-(y)> weighted by one block's Gibbs probabilities."""
    return sum(np.einsum("xab,yab,a->xy", stack, stack, probs[rows])
               + (0.0 if mirror is None else np.einsum("xba,yba,a->xy", stack, stack, probs[mirror[0]]))
               for rows, _, stack, mirror in block.plus)


HAMILTONIAN_CASES = {
    "chain3": (SpinConfig(7, CHAIN3, ISO25), (1, 3, 5, 7)),
    "chain4-shells12": (SpinConfig(3, CHAIN4, SHELLS12), (1, 3)),
    "square2x2": (SpinConfig(3, SQUARE2, SQUARE_NN), (1, 3)),
    "self-coupling": (SpinConfig(7, CHAIN2, WRAPPED), (1, 3, 5, 7)),
}


@pytest.mark.parametrize("case", HAMILTONIAN_CASES)
def test_index_arithmetic_hamiltonian_matches_kronecker(case):
    # six assignments side by side in one batch: the direct sum of their Kronecker Hamiltonians
    config, spins = HAMILTONIAN_CASES[case]
    j_mat, j3_mat = coupling_pair(config)
    two_n = 2.0 * config.copies
    rng = np.random.default_rng(7)
    batch = rng.choice(spins, size=(6, config.lattice.n_sites))
    basis = _product_basis(batch)
    diagonal, (dst, src, value) = _hamiltonian(basis, j_mat, j3_mat, config.couplings.h, two_n)
    starts = basis[-1]
    np.testing.assert_array_equal(starts, np.r_[0, np.cumsum(np.prod(batch + 1, axis=1))])
    assert not np.any(dst == src)
    assert len(set(zip(dst.tolist(), src.tolist()))) == len(dst)  # no entry hit twice
    owner = np.searchsorted(starts, np.arange(starts[-1]), side="right") - 1
    np.testing.assert_array_equal(owner[dst], owner[src])  # no hop leaves its assignment
    for b, twice_js in enumerate(batch.tolist()):
        expected = kron_hamiltonian(twice_js, j_mat, j3_mat, config.couplings.h, two_n)
        start, own = starts[b], owner[src] == b
        got = np.diag(diagonal[start:starts[b + 1]])
        np.add.at(got, (dst[own] - start, src[own] - start), value[own])
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14 * scale, err_msg=str(twice_js))


@pytest.mark.parametrize("copies", [1, 3])
@pytest.mark.parametrize("lattice, couplings", [(CHAIN2, WRAPPED), (CHAIN3, SHELLS12)],
                         ids=["chain2-self-coupling", "chain3-shells12"])
def test_full_block_spectrum_matches_qubit_kronecker(copies, lattice, couplings):
    # every qubit a spin-1/2 site of its own, coupled through its site's couplings;
    # on the 2-site chain the second shell also couples copies of one site
    config = SpinConfig(copies, lattice, couplings)
    j_mat, j3_mat = coupling_pair(config)
    blow_up = np.ones((copies, copies))
    hamiltonian = kron_hamiltonian([1] * (copies * lattice.n_sites), np.kron(j_mat, blow_up),
                                   np.kron(j3_mat, blow_up), couplings.h, 2.0 * copies)
    np.testing.assert_allclose(oracle._full_block(config).energies, np.linalg.eigvalsh(hamiltonian),
                               rtol=0.0, atol=1e-12)


ORBIT_CASES = {
    "chain3-n5": (SpinConfig(5, CHAIN3, ISO25), 0.8),
    "chain3-folded-n5": (SpinConfig(5, CHAIN3, FOLDED), 0.6),
    "chain4-shells12-n3": (SpinConfig(3, CHAIN4, SHELLS12), 0.9),
    "square2x2-n3": (SpinConfig(3, SQUARE2, SQUARE_NN), 0.7),
}


class TestOrbits:
    @pytest.mark.parametrize("case", ORBIT_CASES)
    def test_every_block_has_the_spectrum_of_its_assignment(self, case):
        config, beta = ORBIT_CASES[case]
        j_mat, j3_mat = coupling_pair(config)
        for rep, _, label in members(build_gibbs(config, beta)):
            hamiltonian = kron_hamiltonian(label, j_mat, j3_mat, config.couplings.h,
                                           2.0 * config.copies)
            np.testing.assert_allclose(np.sort(rep.energies), np.linalg.eigvalsh(hamiltonian),
                                       rtol=0.0, atol=1e-12, err_msg=str(label))

    @pytest.mark.parametrize("case", ORBIT_CASES)
    def test_magnetization_row_is_each_sectors_m(self, case):
        # row 0 is read off the split, not rotated: each eigenvector's sector M, bit for bit
        config, beta = ORBIT_CASES[case]
        ensemble = build_gibbs(config, beta)
        for label, (rep, _) in zip(rep_labels(ensemble), ensemble.orbits):
            magnetization = np.sort(_product_basis([label])[3].sum(axis=0))
            assert rep.three.shape == (2, rep.dim)
            assert np.array_equal(rep.three[0], magnetization), label

    # on the 3-site chain inversion joins translation orbits, so reflected members are read too
    @pytest.mark.parametrize("case", ["chain3-folded-n5", "chain4-shells12-n3", "square2x2-n3"])
    def test_matches_the_no_orbit_reference(self, case):
        config, beta = ORBIT_CASES[case]
        engine = build_gibbs(config, beta)
        reference = reference_ensemble(config, beta)
        n_sites = config.lattice.n_sites
        word = [("+", 0), ("+", 1), ("-", n_sites - 1), ("-", 0)]
        pairs = [
            ("logZ", engine.logZ, reference.logZ),
            ("identity", identity_expectation(engine), identity_expectation(reference)),
            ("sigma3", engine.sigma3, reference.sigma3),
            ("two_point_pm", engine.two_point_pm, reference.two_point_pm),
            ("sigma3_site_variance", engine.sigma3_site_variance, reference.sigma3_site_variance),
            ("expect_product", expect_product(engine, word), expect_product(reference, word)),
        ]
        points = MomentumGrid.from_lattice(config.lattice).points
        for i, q in enumerate(points):
            k = points[(i + 1) % len(points)]
            for kind in ("-", "+"):
                got, expected = (energy_entropy_margin(e, q, kind) for e in (engine, reference))
                pairs.append((f"margin{kind} q{i}",
                              [got.lhs, got.rhs, got.x_dag_x, got.x_x_dag],
                              [expected.lhs, expected.rhs, expected.x_dag_x, expected.x_x_dag]))
            for name, func, args in (
                ("two-point", fluctuation_two_point, (q,)),
                ("wick", wick_residual, (q,)),
                ("commutator k=q", commutator_expectation, (q, q)),
                ("commutator k!=q", commutator_expectation, (k, q)),
            ):
                pairs.append((f"{name} q{i}", func(engine, *args), func(reference, *args)))
        for name, got, expected in pairs:
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-10, err_msg=name)
        # member by member, each read through its permutation, so a wrong permutation
        # shows even where the orbit sum would hide it
        by_label = probs_by_label(reference, assignment_labels(config))
        rep_probs = {id(rep): probs for (rep, _), probs in zip(engine.orbits, engine.probs)}
        visited = members(engine)
        assert sorted(label for _, _, label in visited) == sorted(by_label)
        for rep, perm, label in visited:
            np.testing.assert_allclose(block_two_point(rep, rep_probs[id(rep)])[np.ix_(perm, perm)],
                                       block_two_point(*by_label[label]), rtol=0.0, atol=1e-10,
                                       err_msg=str(label))
        moved = (m for m in visited if np.any(m[1] != np.arange(n_sites)))  # not the representative
        rep, perm, label = max(moved, key=lambda m: m[0].dim)
        assert block_word(rep, rep_probs[id(rep)], [(kind, perm[x]) for kind, x in word]) == pytest.approx(
            block_word(*by_label[label], word), rel=0.0, abs=1e-10)

    def test_refuses_momenta_off_the_grid(self):
        ensemble = build_gibbs(SpinConfig(3, CHAIN4, SHELLS12), beta=0.9)
        for func in (wick_residual, energy_entropy_margin):
            with pytest.raises(ValueError, match="not on the grid"):
                func(ensemble, [0.3])

    def test_members_hold_no_piece_copies(self):
        # tracemalloc peak of the build: the representatives' pieces (from their sector
        # sizes), the sector buffer of the largest block, and slack smaller than both the
        # pieces a permuted copy per member would add and one dense H of the largest block
        config, beta = ORBIT_CASES["chain4-shells12-n3"]
        n_sites = config.lattice.n_sites
        ensemble = build_gibbs(config, beta)
        tracemalloc.start()
        try:
            ensemble = build_gibbs(config, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes = {label: len(perms) for label, (_, perms) in zip(rep_labels(ensemble), ensemble.orbits)}
        assert sorted(sizes.values()) == [1, 1, 2, 4, 4, 4]
        pieces = {label: piece_bytes(label, n_sites) for label in sizes}
        largest = max(sizes, key=lambda label: math.prod(t + 1 for t in label))
        s3 = _product_basis([largest])[3]
        values, counts = np.unique(s3.sum(axis=0), return_counts=True)
        buffer = 8 * int(np.sum(counts[values >= 0] ** 2))  # only sectors M >= 0 are scattered
        slack = 128 * 1024
        bound = sum(pieces.values()) + buffer + slack
        member_copies = sum((size - 1) * pieces[label] for label, size in sizes.items())
        dense_h = 8 * max(b.dim for b in ensemble.blocks) ** 2
        assert sum(pieces.values()) + member_copies > bound
        assert sum(pieces.values()) + dense_h > bound
        assert peak <= bound, (peak, bound)

    def test_every_assignment_in_exactly_one_orbit(self):
        ensemble = build_gibbs(SpinConfig(7, CHAIN3, ISO25), beta=1.0)
        spins = [e.twice_j for e in sector_decomposition(7).entries]
        labels = [label for _, _, label in members(ensemble)]
        assert sorted(labels) == sorted(itertools.product(spins, repeat=3))
        dims = [math.prod(t + 1 for t in label) for label in labels]
        assert [rep.dim for rep, _, _ in members(ensemble)] == dims
        # the per-assignment view: one block per member, at its assignment's dimension
        assert [b.dim for b in ensemble.blocks] == dims

    def test_orbit_members_share_the_representative_spectrum(self):
        ensemble = build_gibbs(SpinConfig(5, CHAIN3, ISO25), beta=1.0)
        orbit = {rep_label: [label for r, _, label in members(ensemble) if r is rep]
                 for rep_label, (rep, _) in zip(rep_labels(ensemble), ensemble.orbits)}
        # (5, 3, 1) represents its orbit: its translates (3, 1, 5) and (1, 5, 3), and the
        # mirror images (5, 1, 3), (1, 3, 5) and (3, 5, 1) of all three
        assert orbit[(5, 3, 1)] == [(5, 3, 1), (5, 1, 3), (3, 5, 1), (3, 1, 5), (1, 5, 3), (1, 3, 5)]
        assert orbit[(5, 5, 3)] == [(5, 5, 3), (5, 3, 5), (3, 5, 5)]
        assert len(orbit) == 10  # bracelets of 3 beads in 3 colours

    @pytest.mark.parametrize("which", ["J", "J3"])
    @pytest.mark.parametrize("symmetry", ["translation", "inversion"])
    def test_refuses_couplings_that_break_a_symmetry(self, which, symmetry, monkeypatch):
        # a symmetric bump on one bond breaks translations; a circulant with J(1) != J(-1)
        # keeps them and breaks only the inversion
        original = oracle.coupling_matrix
        target = ISO25.exchange if which == "J" else ISO25.exchange_z

        def broken(mapping, lattice):
            mat = original(mapping, lattice)
            if mapping is target and symmetry == "translation":
                mat[0, 1] = mat[1, 0] = mat[0, 1] + 0.25
            elif mapping is target:
                mat += 0.25 * np.roll(np.eye(lattice.n_sites), 1, axis=1)
            return mat

        monkeypatch.setattr(oracle, "coupling_matrix", broken)
        with pytest.raises(AssertionError, match=f"{which} is not invariant under lattice translations and inversion"):
            build_gibbs(SpinConfig(3, CHAIN3, ISO25), beta=1.0)


def bracelets(beads, colours):
    """Strings of beads up to rotation and reflection, by the closed necklace formula."""
    necklaces = sum(phi(d) * colours ** (beads // d) for d in range(1, beads + 1) if beads % d == 0) // beads
    if beads % 2:
        return (necklaces + colours ** ((beads + 1) // 2)) // 2
    return (2 * necklaces + (colours + 1) * colours ** (beads // 2)) // 4


def phi(d):
    return sum(math.gcd(k, d) == 1 for k in range(1, d + 1))


def burnside(lattice, colours):
    """Orbits of colourings under x -> +-x + t on a torus: the mean number of colourings
    each distinct site permutation fixes, colours ** (its cycles)."""
    size, dim = lattice.size, lattice.dimension
    sites = list(itertools.product(range(size), repeat=dim))
    perms = {tuple(sites.index(tuple((s * c + u) % size for c, u in zip(x, t))) for x in sites)
             for s in (1, -1) for t in sites}

    def cycles(perm):
        seen, count = set(), 0
        for start in range(len(perm)):
            count += start not in seen
            while start not in seen:
                seen.add(start)
                start = perm[start]
        return count

    total = sum(colours ** cycles(perm) for perm in perms)
    assert total % len(perms) == 0
    return total // len(perms)


class TestOrbitCounts:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
    def test_chains_have_one_orbit_per_bracelet(self, size):
        for colours in range(1, 5):
            if colours**size <= 5000:
                reps, _ = _orbits(colours, _symmetries(LatticeSpec(1, size)))
                assert len(np.unique(reps)) == bracelets(size, colours) == burnside(LatticeSpec(1, size), colours)

    @pytest.mark.parametrize("lattice, colours", [(SQUARE2, 3), (SQUARE2, 4), (LatticeSpec(2, 3), 2),
                                                  (LatticeSpec(3, 2), 2)],
                             ids=["2x2-3", "2x2-4", "3x3-2", "2x2x2-2"])
    def test_tori_match_burnside(self, lattice, colours):
        reps, _ = _orbits(colours, _symmetries(lattice))
        assert len(np.unique(reps)) == burnside(lattice, colours)

    def test_ladder_representatives(self):
        # the 3-site ladder n = 1, 3, 5, 7: 1, 4, 11, 24 translation orbits become 1, 4, 10, 20
        rows = convergence_study(CHAIN3, ISO25, beta=1.0, q=MomentumGrid.from_lattice(CHAIN3).points[1],
                                 copies_list=[1, 3, 5, 7])
        assert [row.representatives for row in rows] == [1, 4, 10, 20]


def flip_slope(config):
    """P H P - H = slope * S3 for the spin flip P: S+(x) S-(x) -> S+(x) S-(x) - S3(x), h -> -h."""
    j_mat, _ = coupling_pair(config)
    return (2.0 / config.copies) * j_mat[0, 0] - 2.0 * config.couplings.h


FLIP_CASES = {
    "self-coupling-n5": (SpinConfig(5, CHAIN2, WRAPPED), [(5, 3), (3, 1), (5, 5), (1, 1)]),
    "chain3-folded-n3": (SpinConfig(3, CHAIN3, FOLDED), [(3, 1, 1), (3, 3, 1), (3, 3, 3)]),
    "square2x2-n3": (SpinConfig(3, SQUARE2, SQUARE_NN), [(3, 1, 3, 1), (3, 3, 1, 1), (1, 1, 1, 1)]),
}


class TestSpinFlip:
    @pytest.mark.parametrize("case", FLIP_CASES)
    def test_mirrored_eigenpairs_solve_their_own_sector(self, case):
        # sector -M < 0 is never diagonalized; its eigenpairs, taken from sector M, must
        # diagonalize the Kronecker Hamiltonian's block of sector -M directly.  The case's
        # assignments are split as one batch.
        config, labels = FLIP_CASES[case]
        j_mat, j3_mat = coupling_pair(config)
        two_n = 2.0 * config.copies
        basis = _product_basis(labels)
        starts = basis[-1]
        split = _split_by_magnetization(*_hamiltonian(basis, j_mat, j3_mat, config.couplings.h, two_n),
                                        basis[3].sum(axis=0), starts, flip_slope(config),
                                        np.full(len(labels), 1e-12))
        order, _, _, (values, first, sizes, _), _, _ = split
        pairs = eigenpairs(split)
        for b, label in enumerate(labels):
            hamiltonian = kron_hamiltonian(label, j_mat, j3_mat, config.couplings.h, two_n)
            scale = np.max(np.abs(hamiltonian))
            own = np.flatnonzero((first >= starts[b]) & (first < starts[b + 1]))
            assert values[own[0]] < 0
            for k in own[values[own] < 0]:
                energies, vectors = pairs[k]
                states = order[first[k]:first[k] + sizes[k]] - starts[b]
                block = hamiltonian[np.ix_(states, states)]
                m = values[k]
                np.testing.assert_allclose(energies, np.linalg.eigvalsh(block), rtol=0.0,
                                           atol=1e-12 * scale, err_msg=f"{label} M={m}")
                np.testing.assert_allclose(block @ vectors, vectors * energies, rtol=0.0,
                                           atol=1e-12 * scale, err_msg=f"{label} M={m}")
                np.testing.assert_allclose(vectors.T @ vectors, np.eye(len(energies)), atol=1e-13)

    def test_the_self_coupling_moves_the_shift(self):
        # with J(0) left out of the slope the flipped diagonals miss by (2/n) J(0) M
        config = SpinConfig(5, CHAIN2, WRAPPED)
        j_mat, j3_mat = coupling_pair(config)
        basis = _product_basis([(5, 3)])
        diagonal, hops = _hamiltonian(basis, j_mat, j3_mat, config.couplings.h, 10.0)
        with pytest.raises(AssertionError, match="spin flip shifts the diagonal"):
            split_one(diagonal, hops, basis[3].sum(axis=0), -2.0 * config.couplings.h, 1e-9)

    def test_mirrored_pieces_are_stored_once(self):
        # 3-site chain, assignment (3, 3, 3): magnetizations -9..9, pieces stored from M = -1 up,
        # each with M > 0 also standing for its mirror from -M-2 to -M
        ensemble = build_gibbs(SpinConfig(3, CHAIN3, ISO25), beta=1.0)
        rep = next(rep for rep, _ in ensemble.orbits if rep.dim == 64)
        assert len(rep.plus) == 5
        assert [mirror is None for *_, mirror in rep.plus] == [True, False, False, False, False]
        sizes = [(rows.stop - rows.start, cols.stop - cols.start) for rows, cols, *_ in rep.plus]
        assert sizes == [(12, 12), (10, 12), (6, 10), (3, 6), (1, 3)]
        for rows, cols, stack, mirror in rep.plus[1:]:
            assert (mirror[0].stop - mirror[0].start, mirror[1].stop - mirror[1].start) == stack.shape[:0:-1]

    @pytest.mark.parametrize("lattice, couplings, copies", [(CHAIN3, FOLDED, 3), (CHAIN4, SHELLS12, 1),
                                                            (SQUARE2, SQUARE_NN, 1)],
                             ids=["chain3-folded", "chain4", "square2x2"])
    def test_momentum_sums_are_even_in_q(self, lattice, couplings, copies):
        # {q, -q} share one cached walk, computed at the pair's lower grid index whichever comes first
        config = SpinConfig(copies, lattice, couplings)
        for q in MomentumGrid.from_lattice(lattice).points:
            forward, backward = build_gibbs(config, 0.8), build_gibbs(config, 0.8)
            forms, four = forward._momentum_sums(q)
            assert forward._momentum_sums(-q) is forward._momentum_sums(np.mod(-q, 2.0 * np.pi))
            for sums in (forward._momentum_sums(-q), backward._momentum_sums(-q), backward._momentum_sums(q)):
                np.testing.assert_array_equal(sums[0], forms)
                assert sums[1] == four


class TestSectorsAgainstFullTensor:
    """The orbit and flip engine against the unsplit full tensor, on lattices where inversion
    joins translation orbits (3-site chain), where the totals are even (4 sites, M = 0 present)
    and in two dimensions."""

    @pytest.mark.parametrize("copies", [1, 3])
    def test_folded_three_site_chain(self, copies):
        assert_sector_matches_full(SpinConfig(copies, CHAIN3, FOLDED), beta=0.9)

    @pytest.mark.parametrize("lattice, couplings", [(CHAIN4, SHELLS12), (SQUARE2, SQUARE_NN)],
                             ids=["chain4", "square2x2"])
    def test_four_sites(self, lattice, couplings):
        assert_sector_matches_full(SpinConfig(1, lattice, couplings), beta=1.1)


def rep_twice_js(config):
    """Each orbit representative's assignment as its 2j values, in the engine's orbit order."""
    labels = assignment_labels(config)
    reps, _ = _orbits(len(sector_decomposition(config.copies).entries), _symmetries(config.lattice))
    return np.array([labels[r] for r in np.unique(reps)])


def orbit_bits(orbits):
    """Everything a build stores per orbit, as comparable values."""
    def span(piece_slice):
        return piece_slice.start, piece_slice.stop

    return [(rep.log_weight, rep.max_sector_dim, rep.energies, rep.three, perms,
             [(span(rows), span(cols), stack, None if mirror is None else tuple(map(span, mirror)))
              for rows, cols, stack, mirror in rep.plus])
            for rep, perms in orbits]


def assert_same_bits(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g[:2] == e[:2]
        for a, b in zip(g[2:5], e[2:5]):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert len(g[5]) == len(e[5])
        for (*g_slices, g_stack, g_mirror), (*e_slices, e_stack, e_mirror) in zip(g[5], e[5]):
            assert g_slices == e_slices and g_mirror == e_mirror
            assert g_stack.shape == e_stack.shape and np.array_equal(g_stack, e_stack)


def shell_couplings(dimension):
    """Even couplings on the first shells of a chain or of a 2x2 torus, and a field."""
    shells = [(1,), (2,)] if dimension == 1 else [(1, 0), (0, 1), (1, 1)]
    maps = st.lists(st.floats(-1.5, 1.5), min_size=len(shells), max_size=len(shells)).map(
        lambda values: dict(zip(shells, values)))
    return st.builds(CouplingSet, maps, maps, st.floats(0.0, 3.0))


class TestBatches:
    """Representatives are built in batches; a block does not depend on its batch."""

    @pytest.mark.parametrize("copies", [1, 3, 5])
    @pytest.mark.parametrize("lattice", [LatticeSpec(1, 2), CHAIN3, CHAIN4, SQUARE2],
                             ids=["chain2", "chain3", "chain4", "square2x2"])
    @settings(max_examples=3)
    @given(data=st.data())
    def test_every_split_builds_the_same_bits(self, lattice, copies, data):
        config = SpinConfig(copies, lattice, data.draw(shell_couplings(lattice.dimension)))
        split_by_rule = oracle._sector_blocks(config)
        splits = {"one batch": lambda twice_js: [list(range(len(twice_js)))],
                  "one per representative": lambda twice_js: [[b] for b in range(len(twice_js))]}
        for name, split in splits.items():
            with mock.patch.object(oracle, "_batches", split):
                assert_same_bits(orbit_bits(oracle._sector_blocks(config)), orbit_bits(split_by_rule))

    @pytest.mark.parametrize("config, count", [(SpinConfig(7, CHAIN3, ISO25), 4), (SpinConfig(9, CHAIN4, ISO25), 8)],
                             ids=["chain3-n7", "chain4-n9"])
    def test_batch_split_of_the_cliff_rungs(self, config, count):
        twice_js = rep_twice_js(config)
        batches = oracle._batches(twice_js)
        assert len(batches) == count
        assert sorted(b for batch in batches for b in batch) == list(range(len(twice_js)))
        # every batch's buffer of sectors M >= 0 stays within the largest representative's
        buffers = []
        for row in twice_js:
            magnetization = _product_basis([row])[3].sum(axis=0)
            values, counts = np.unique(magnetization, return_counts=True)
            buffers.append(int(np.sum(counts[values >= 0] ** 2)))
        assert all(sum(buffers[b] for b in batch) <= max(buffers) for batch in batches)
        assert batches[0] == [int(np.argmax(buffers))]  # the largest is built first, alone

    def test_ladder_batch_counts(self):
        counts = [len(oracle._batches(rep_twice_js(SpinConfig(n, CHAIN3, ISO25)))) for n in (1, 3, 5, 7)]
        assert counts == [1, 2, 3, 4]
