import dataclasses
import itertools
import math
import tracemalloc
from functools import reduce

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
    _product_basis,
    _split_by_magnetization,
)
from magnonkit.sectors import sector_decomposition

CHAIN2 = LatticeSpec(1, 2)
GRID2 = MomentumGrid.from_lattice(CHAIN2)
ISO25 = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=2.5)
ANISO = CouplingSet.nearest_neighbor(1, j=0.6, j3=1.0, h=1.2)
# on a 2-site chain the second shell folds onto the site itself: S+(x) S-(x) terms
WRAPPED = CouplingSet.symmetrized({(1,): 0.6, (2,): 0.3}, {(1,): 0.8, (2,): 0.5}, h=1.7)
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
        "sigma3_site": ensemble.sigma3_site,
        "sigma3_site_variance": [ensemble.sigma3_site_variance(x) for x in range(n_sites)],
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

    def test_translation_invariance(self, chain2_n3):
        values = chain2_n3.sigma3_site
        assert np.max(np.abs(values - values[0])) < 1e-12

    def test_rejects_even_copies(self):
        with pytest.raises(ValueError):
            SpinConfig(2, CHAIN2, ISO25)

    def test_sector_cap(self):
        config = SpinConfig(3, LatticeSpec(1, 8), ISO25)
        with pytest.raises(ValueError, match="65536"):
            build_gibbs(config, beta=1.0, mode="sector")

    def test_full_cap(self):
        config = SpinConfig(17, LatticeSpec(1, 1), CouplingSet({}, {}, 1.0))
        with pytest.raises(ValueError, match="exceeds cap"):
            build_gibbs(config, beta=1.0, mode="full")

    def test_caps_admit_their_edge(self):
        # (9 + 1)**4 = MAX_SECTOR_BLOCK_DIM, 2**(3 * 4) = MAX_FULL_DIM and 31 = MAX_COPIES
        # are admitted
        oracle._admit(SpinConfig(9, LatticeSpec(1, 4), ISO25), "sector")
        oracle._admit(SpinConfig(3, LatticeSpec(1, 4), ISO25), "full")
        oracle._admit(SpinConfig(31, LatticeSpec(1, 1), CouplingSet({}, {}, 1.0)), "sector")
        for mode in ("sector", "full"):
            with pytest.raises(ValueError, match=r"copy count 33 exceeds supported maximum 31 \(MAX_COPIES\)"):
                oracle._admit(SpinConfig(33, LatticeSpec(1, 1), CouplingSet({}, {}, 1.0)), mode)
        with pytest.raises(ValueError, match="dimension 20736 at copies=11 exceeds cap 10000"):
            oracle._admit(SpinConfig(11, LatticeSpec(1, 4), ISO25), "sector")
        with pytest.raises(ValueError, match="dimension 8192 at copies=1 exceeds cap 4096"):
            oracle._admit(SpinConfig(1, LatticeSpec(1, 13), ISO25), "full")

    def test_cap_on_a_huge_lattice_forms_no_power(self):
        config = SpinConfig(3, LatticeSpec(3, 256), CouplingSet({}, {}, 1.0))
        with pytest.raises(ValueError, match="4\\*\\*16777216 at copies=3 exceeds cap"):
            oracle._admit(config, "sector")
        with pytest.raises(ValueError, match="2\\*\\*50331648 at copies=3 exceeds cap"):
            oracle._admit(config, "full")

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
        assert np.all(np.diagonal(coupling_matrix(WRAPPED, "J", CHAIN2)) != 0.0)

    @settings(max_examples=40, deadline=2000, derandomize=True, database=None)
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
        couplings = CouplingSet.symmetrized(dict(zip(shells, j)), dict(zip(shells, j3)), h)
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

    @settings(max_examples=20, deadline=3000, derandomize=True, database=None)
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
        couplings = CouplingSet.symmetrized(dict(zip(shells, j)), dict(zip(shells, j3)), h)
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
    return tuple(np.array(column) for column in zip(*pairs))


class TestMagnetizationSplit:
    def test_refuses_a_hamiltonian_that_mixes_sectors(self):
        # a transverse field on one spin-1/2 couples S3 = -1 and S3 = +1
        with pytest.raises(AssertionError, match="different total-S3 sectors"):
            _split_by_magnetization(np.zeros(2), hop_map((0, 1, 1.0)), np.array([-1.0, 1.0]))

    def test_refuses_the_smallest_leak(self):
        # two spins-1/2, product order (-,-), (-,+), (+,-), (+,+): flip-flop plus one stray hop
        hops = hop_map((1, 2, 2.0), (0, 3, 5e-324))
        with pytest.raises(AssertionError, match=r"different total-S3 sectors \(largest entry 4.941e-324\)"):
            _split_by_magnetization(np.array([1.0, -1.0, -1.0, 1.0]), hops, np.array([-2.0, 0.0, 0.0, 2.0]))

    def test_sorts_the_basis_into_sectors(self):
        order, values, sectors, eigen = _split_by_magnetization(
            np.array([1.0, 4.0, -4.0, 1.0]), hop_map((0, 3, 2.0)), np.array([0.0, -2.0, 2.0, 0.0])
        )
        np.testing.assert_array_equal(order, [1, 0, 3, 2])
        np.testing.assert_array_equal(values, [-2.0, 0.0, 2.0])
        assert [(s.start, s.stop) for s in sectors] == [(0, 1), (1, 3), (3, 4)]
        for (energies, _), expected in zip(eigen, ([4.0], [-1.0, 3.0], [-4.0])):
            np.testing.assert_allclose(energies, expected, atol=1e-14)

    def test_equal_sizes_share_one_stack_in_magnetization_order(self):
        # sectors of sizes 1, 2, 1, 2: the two 2x2 blocks go to one stacked eigh
        magnetization = np.array([-4.0, -2.0, -2.0, 0.0, 2.0, 2.0])
        hops = hop_map((1, 2, 1.0), (4, 5, 3.0))
        _, values, _, eigen = _split_by_magnetization(np.arange(6.0), hops, magnetization)
        np.testing.assert_array_equal(values, [-4.0, -2.0, 0.0, 2.0])
        for (energies, _), block in zip(eigen, ([[0.0]], [[1.0, 1.0], [1.0, 2.0]], [[3.0]],
                                                [[4.0, 3.0], [3.0, 5.0]])):
            np.testing.assert_allclose(energies, np.linalg.eigvalsh(block), atol=1e-14)

    def test_build_refuses_a_broken_hop_map(self, monkeypatch):
        # one stray hop between the all-down and all-up states of every assignment
        original = oracle._hamiltonian

        def broken(basis, *args):
            diagonal, (dst, src, value) = original(basis, *args)
            last = len(diagonal) - 1
            return diagonal, (np.append(dst, last), np.append(src, 0), np.append(value, 1e-3))

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
            assert -1.0 <= row.magnetization <= 0.0
            assert row.discrepancy == pytest.approx(abs(row.two_point - row.prediction))
            # the solver's grid formula at q, bit for bit
            assert row.prediction == occupation(row.magnetization, params, ISO25, GRID2)[1]
            # the rounding bound of t_n's 4-term phase sum on the 2-site chain, plus p_n's
            # first-order rounding through m_n: sigma3 sums the 2 sites' values over the
            # (sum_j (2j + 1))**2 = ((n + 1)(n + 3)/4)**2 states of the per-site spin assignments
            ensemble = build_gibbs(SpinConfig(row.copies, CHAIN2, ISO25), beta=1.0)
            eps, m, p = np.finfo(float).eps, row.magnetization, row.prediction
            gap = exchange_gap_grid(ISO25, GRID2)[1]
            x = 2.0 * (ISO25.h - m * gap)
            slope = p * (1.0 / m + 2.0 * gap * math.exp(x) / math.expm1(x))
            floor_t = 4 * eps * np.abs(ensemble.two_point_pm).sum() / (2 * row.copies)
            terms = 2 * ((row.copies + 1) * (row.copies + 3) // 4) ** 2
            assert row.rounding_floor == pytest.approx(floor_t + abs(slope) * terms * eps * abs(m), rel=1e-12, abs=0)
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
            assert a.prediction == pytest.approx(b.prediction, abs=1e-14)
            assert a.two_point == pytest.approx(b.two_point, abs=1e-12)


def test_site_average_variance_shrinks():
    # expectation-value shadow of the copy-averaged operator convergence:
    # the variance decays at least as fast as 1/n
    ladder = (1, 3, 5, 7)
    variances = []
    for n in ladder:
        ensemble = build_gibbs(SpinConfig(n, CHAIN2, ISO25), beta=1.0)
        variances.append(ensemble.sigma3_site_variance(0))
    assert all(b < a for a, b in zip(variances, variances[1:]))
    for n, variance in zip(ladder[1:], variances[1:]):
        assert variance <= variances[0] / n


# --- the orbit engine against a Kronecker-built, one-block-per-assignment reference ---

CHAIN3 = LatticeSpec(1, 3)
CHAIN4 = LatticeSpec(1, 4)
SQUARE2 = LatticeSpec(2, 2)
SHELLS12 = CouplingSet.symmetrized({(1,): 0.7, (2,): -0.3}, {(1,): 0.9, (2,): 0.4}, h=1.7)
SQUARE_NN = CouplingSet.symmetrized(
    {(1, 0): 0.8, (0, 1): 0.8, (1, 1): 0.2}, {(1, 0): 1.0, (0, 1): 1.0, (1, 1): 0.3}, h=2.0
)


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
    return tuple(coupling_matrix(config.couplings, w, config.lattice) for w in ("J", "J3"))


def reference_ensemble(config, beta):
    """Every assignment diagonalized on its own (unsplit, each its own orbit), in product order.

    Each block also carries its dense eigenbasis S3 stack as ``s3_rotated``, and its
    S3 diagonals are read off that stack and its square.
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
        diagonals = np.stack([np.diagonal(m, axis1=1, axis2=2) for m in (three, three @ three)])
        weight = math.log(math.prod(e.multiplicity for e in assignment))
        block = _Block(tuple(twice_js), weight, energies, [(everything, everything, plus)], diagonals,
                       len(energies))
        block.s3_rotated = three
        blocks.append(block)
    identity = np.arange(config.lattice.n_sites)[None, :]
    return GibbsEnsemble(config, beta, [(block, identity) for block in blocks])


def site_operator(block, kind, x):
    """Dense eigenbasis matrix of S+(x), S-(x) or S3(x); S3 only on reference blocks."""
    if kind == "3":
        return block.s3_rotated[x]
    plus = np.zeros((block.dim, block.dim))
    for rows, cols, stack in block.plus:
        plus[rows, cols] = stack[x]
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
    """float64 bytes of one block's S+ pieces (d_M+2 x d_M per site) and S3 diagonals."""
    _, _, _, s3 = _product_basis(twice_js)
    _, sizes = np.unique(s3.sum(axis=0), return_counts=True)  # M runs in steps of 2
    return 8 * n_sites * int(np.sum(sizes[1:] * sizes[:-1]) + 2 * np.sum(sizes))


def members(ensemble):
    """(representative, permutation, assignment label) of every orbit member."""
    return [(rep, perm, tuple(rep.label[p] for p in perm))
            for rep, perms in ensemble.orbits for perm in perms]


def probs_by_label(ensemble):
    """(representative, its Gibbs probabilities) by the representative's label."""
    return {rep.label: (rep, probs) for (rep, _), probs in zip(ensemble.orbits, ensemble.probs)}


def block_moments(block, probs):
    """<S3(x)>, <S3(x)^2> and <S+(x) S-(y)> weighted by one block's Gibbs probabilities."""
    s3, s3_squared = block.three @ probs
    pm = sum(np.einsum("xab,yab,a->xy", stack, stack, probs[rows])
             for rows, _, stack in block.plus)
    return s3, s3_squared, pm


HAMILTONIAN_CASES = {
    "chain3": (SpinConfig(7, CHAIN3, ISO25), (1, 3, 5, 7)),
    "chain4-shells12": (SpinConfig(3, CHAIN4, SHELLS12), (1, 3)),
    "square2x2": (SpinConfig(3, SQUARE2, SQUARE_NN), (1, 3)),
    "self-coupling": (SpinConfig(7, CHAIN2, WRAPPED), (1, 3, 5, 7)),
}


@pytest.mark.parametrize("case", HAMILTONIAN_CASES)
def test_index_arithmetic_hamiltonian_matches_kronecker(case):
    config, spins = HAMILTONIAN_CASES[case]
    j_mat, j3_mat = coupling_pair(config)
    two_n = 2.0 * config.copies
    rng = np.random.default_rng(7)
    for _ in range(6):
        twice_js = [int(t) for t in rng.choice(spins, size=config.lattice.n_sites)]
        expected = kron_hamiltonian(twice_js, j_mat, j3_mat, config.couplings.h, two_n)
        diagonal, (dst, src, value) = _hamiltonian(_product_basis(twice_js), j_mat, j3_mat,
                                                   config.couplings.h, two_n)
        got = np.diag(diagonal)
        np.add.at(got, (dst, src), value)
        assert not np.any(dst == src)
        assert len(set(zip(dst.tolist(), src.tolist()))) == len(dst)  # no entry hit twice
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
    "chain4-shells12-n3": (SpinConfig(3, CHAIN4, SHELLS12), 0.9),
    "square2x2-n3": (SpinConfig(3, SQUARE2, SQUARE_NN), 0.7),
}


class TestTranslationOrbits:
    @pytest.mark.parametrize("case", ORBIT_CASES)
    def test_every_block_has_the_spectrum_of_its_assignment(self, case):
        config, beta = ORBIT_CASES[case]
        j_mat, j3_mat = coupling_pair(config)
        for rep, _, label in members(build_gibbs(config, beta)):
            hamiltonian = kron_hamiltonian(label, j_mat, j3_mat, config.couplings.h,
                                           2.0 * config.copies)
            np.testing.assert_allclose(np.sort(rep.energies), np.linalg.eigvalsh(hamiltonian),
                                       rtol=0.0, atol=1e-12, err_msg=str(label))

    @pytest.mark.parametrize("case", ["chain4-shells12-n3", "square2x2-n3"])
    def test_matches_the_no_orbit_reference(self, case):
        config, beta = ORBIT_CASES[case]
        engine = build_gibbs(config, beta)
        reference = reference_ensemble(config, beta)
        n_sites = config.lattice.n_sites
        word = [("+", 0), ("+", 1), ("-", n_sites - 1), ("-", 0)]
        pairs = [
            ("logZ", engine.logZ, reference.logZ),
            ("identity", identity_expectation(engine), identity_expectation(reference)),
            ("sigma3_site", engine.sigma3_site, reference.sigma3_site),
            ("two_point_pm", engine.two_point_pm, reference.two_point_pm),
            ("sigma3_site_variance",
             [engine.sigma3_site_variance(x) for x in range(n_sites)],
             [reference.sigma3_site_variance(x) for x in range(n_sites)]),
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
        by_label = probs_by_label(reference)
        rep_probs = {label: probs for label, (_, probs) in probs_by_label(engine).items()}
        visited = members(engine)
        assert sorted(label for _, _, label in visited) == sorted(by_label)
        for rep, perm, label in visited:
            s3, s3_squared, pm = block_moments(rep, rep_probs[rep.label])
            for got, expected in zip((s3[perm], s3_squared[perm], pm[np.ix_(perm, perm)]),
                                     block_moments(*by_label[label])):
                np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-10, err_msg=str(label))
        rep, perm, label = max((m for m in visited if m[2] != m[0].label), key=lambda m: m[0].dim)
        assert block_word(rep, rep_probs[rep.label], [(kind, perm[x]) for kind, x in word]) == pytest.approx(
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
        sizes = {rep.label: len(perms) for rep, perms in ensemble.orbits}
        assert sorted(sizes.values()) == [1, 1, 2, 4, 4, 4]
        pieces = {label: piece_bytes(label, n_sites) for label in sizes}
        largest = max(sizes, key=lambda label: math.prod(t + 1 for t in label))
        _, _, _, s3 = _product_basis(largest)
        buffer = 8 * int(np.sum(np.unique(s3.sum(axis=0), return_counts=True)[1] ** 2))
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
        orbit = {rep.label: [label for r, _, label in members(ensemble) if r is rep]
                 for rep, _ in ensemble.orbits}
        # (5, 3, 1) represents its orbit; (3, 1, 5) and (1, 5, 3) are its translates
        assert orbit[(5, 3, 1)] == [(5, 3, 1), (3, 1, 5), (1, 5, 3)]
        # the mirror image (1, 3, 5) is no translate of it
        assert orbit[(5, 1, 3)] == [(5, 1, 3), (3, 5, 1), (1, 3, 5)]

    @pytest.mark.parametrize("which", ["J", "J3"])
    def test_refuses_couplings_that_break_translation(self, which, monkeypatch):
        original = oracle.coupling_matrix

        def broken(couplings, kind, lattice):
            mat = original(couplings, kind, lattice)
            if kind == which:
                mat[0, 1] = mat[1, 0] = mat[0, 1] + 0.25
            return mat

        monkeypatch.setattr(oracle, "coupling_matrix", broken)
        with pytest.raises(AssertionError, match=f"{which} is not invariant under lattice translations"):
            build_gibbs(SpinConfig(3, CHAIN3, ISO25), beta=1.0)
