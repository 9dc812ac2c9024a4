import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnonkit import (
    CouplingSet,
    GaussianMagnonState,
    LatticeSpec,
    MomentumGrid,
    RegimeError,
    ThermalParams,
    equilibrium_state,
    evolve,
    exchange_gap_grid,
    mode_spectrum,
    number_density,
    number_density_rate,
    packet_state,
    solve_magnetization,
    total_energy,
    total_number,
)
from magnonkit import dynamics
from magnonkit.lattice import coupling_matrix

LAT8 = LatticeSpec(1, 8)
GRID8 = MomentumGrid.from_lattice(LAT8)
ISO = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=0.5)


def dense_mode_to_site(grid):
    """Reference unitary U[x, q] = exp(-i q.x)/sqrt(N), built densely."""
    sites = grid.lattice.site_vectors()
    return np.exp(-1j * sites @ grid.points.T) / math.sqrt(len(grid))


def state_from_covariance(m, gamma, basis, grid, couplings, h):
    """The state of a dense Hermitian PSD covariance given in ``basis``: n = 0 plus amplitudes.

    The covariance is taken to the mode basis with the dense U and factored
    by ``eigh`` into psi_r = sqrt(lambda_r) v_r for each positive eigenvalue.
    """
    gamma = np.asarray(gamma, dtype=complex)
    if basis == "site":
        u = dense_mode_to_site(grid)
        gamma = u.conj().T @ gamma @ u
    eigenvalues, vectors = np.linalg.eigh(gamma)
    keep = eigenvalues > 0.0
    amplitudes = (vectors[:, keep] * np.sqrt(eigenvalues[keep])).T
    return GaussianMagnonState(m, np.zeros(len(grid)), amplitudes, grid, couplings, h, basis)


def mode_state(diag, m=-0.8, off=()):
    gamma = np.diag(np.asarray(diag, dtype=complex))
    for i, j, v in off:
        gamma[i, j] = v
        gamma[j, i] = np.conj(v)
    return state_from_covariance(m, gamma, "mode", GRID8, ISO, 0.5)


def random_state(rng, size=8, grid=GRID8, couplings=ISO):
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    gamma = a @ a.conj().T / size
    m = float(rng.uniform(-1.0, -0.1))
    return state_from_covariance(m, gamma, "site", grid, couplings, 0.5)


@pytest.fixture(scope="module")
def equilibrium():
    solution = solve_magnetization(ThermalParams(2.0, 0.5), ISO, GRID8)
    return solution, equilibrium_state(solution)


class TestState:
    def test_rejects_zero_magnetization(self):
        # zero, signed or not, is outside [-1, 0) like any other bad m: a ValueError, not a regime failure
        for zero in (0.0, -0.0):
            with pytest.raises(ValueError, match="quantization parameter must lie in") as raised:
                GaussianMagnonState(zero, np.zeros(8), (), GRID8, ISO, 0.5)
            assert not isinstance(raised.value, RegimeError)

    def test_rejects_out_of_range_m(self):
        for bad in (0.2, -1.5):
            with pytest.raises(ValueError, match="quantization parameter"):
                GaussianMagnonState(bad, np.zeros(8), (), GRID8, ISO, 0.5)

    def test_constructor_checks_what_internal_states_skip(self, monkeypatch):
        # to_mode, to_site and evolve build their states without the constructor's checks
        state = random_state(np.random.default_rng(3))
        with pytest.raises(ValueError, match="non-negative"):
            GaussianMagnonState(state.m, -np.ones(8), state.amplitudes, GRID8, ISO, 0.5)

        def checked(*args, **kwargs):
            raise AssertionError("the constructor ran")

        monkeypatch.setattr(GaussianMagnonState, "__init__", checked)
        evolved = evolve(state.to_mode(), 1.3).to_site()
        assert evolved.basis == "site" and evolved.m == state.m
        assert abs(total_number(evolved) - total_number(state)) < 1e-12

    def test_spectrum_is_computed_once_per_state_chain(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return mode_spectrum(*args)

        monkeypatch.setattr(dynamics, "mode_spectrum", counted)
        state = random_state(np.random.default_rng(4)).to_mode()
        energy = total_energy(state)
        for t in (0.5, 1.5, 7.0):
            evolved = evolve(state, t)
            assert total_energy(evolved) == pytest.approx(energy, abs=1e-12)
            assert evolved.to_site().spectrum is state.spectrum
        assert len(calls) == 1

    def test_rejects_wrong_shape_and_basis(self):
        with pytest.raises(ValueError, match="occupations"):
            GaussianMagnonState(-0.5, np.zeros((8, 8)), (), GRID8, ISO, 0.5)
        with pytest.raises(ValueError, match="basis"):
            GaussianMagnonState(-0.5, np.zeros(8), (), GRID8, ISO, 0.5, "fourier")

    def test_basis_round_trip(self):
        rng = np.random.default_rng(1)
        state = random_state(rng)
        back = state.to_mode().to_site()
        assert np.max(np.abs(back.gamma - state.gamma)) < 1e-13

    def test_mode_spectrum_positive(self):
        eps = mode_spectrum(-0.6, 0.5, ISO, GRID8)
        assert np.all(eps > 0.0)
        np.testing.assert_allclose(eps, 2.0 * (exchange_gap_grid(ISO, GRID8) + 0.5 / 0.6), rtol=1e-15)

    def test_mode_spectrum_requires_gap(self):
        gapless = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=0.0)
        with pytest.raises(RegimeError):
            mode_spectrum(-0.6, 0.0, gapless, GRID8)


class TestBasisChange:
    LATTICES = [LatticeSpec(1, 8), LatticeSpec(2, 4), LatticeSpec(3, 3)]

    @pytest.mark.parametrize("lattice", LATTICES, ids=lambda lat: f"{lat.dimension}d")
    def test_matches_dense_fourier_transform(self, lattice):
        grid = MomentumGrid.from_lattice(lattice)
        couplings = CouplingSet.nearest_neighbor(lattice.dimension, j=1.0, j3=1.0, h=0.5)
        n = lattice.n_sites
        u = dense_mode_to_site(grid)
        rng = np.random.default_rng(10 + lattice.dimension)
        site = random_state(rng, n, grid, couplings)
        scale = float(np.max(np.abs(site.gamma)))
        expected_mode = u.conj().T @ site.gamma @ u
        assert np.max(np.abs(site.to_mode().gamma - expected_mode)) <= 1e-12 * scale
        mode = state_from_covariance(site.m, site.gamma, "mode", grid, couplings, 0.5)
        expected_site = u @ mode.gamma @ u.conj().T
        assert np.max(np.abs(mode.to_site().gamma - expected_site)) <= 1e-12 * scale

    def test_two_dimensional_round_trip_and_conservation(self):
        lattice = LatticeSpec(2, 4)
        grid = MomentumGrid.from_lattice(lattice)
        couplings = CouplingSet(
            {(1, 0): 1.0, (0, 1): 0.7, (1, 1): 0.2}, {(1, 0): 1.0, (0, 1): 1.0}, 0.5
        )
        rng = np.random.default_rng(12)
        for _ in range(10):
            state = random_state(rng, lattice.n_sites, grid, couplings)
            back = state.to_mode().to_site()
            assert np.max(np.abs(back.gamma - state.gamma)) < 1e-13
            evolved = evolve(state, float(rng.uniform(-10.0, 10.0)))
            assert evolved.basis == "site"
            assert abs(total_number(evolved) - total_number(state)) < 1e-12
            assert abs(total_energy(evolved) - total_energy(state)) < 1e-12
            assert abs(np.sum(number_density_rate(evolved))) < 1e-12


class TestEquilibriumState:
    def test_mode_diagonal(self, equilibrium):
        solution, state = equilibrium
        assert state.basis == "mode"
        np.testing.assert_allclose(np.diagonal(state.gamma).real, solution.occupations)

    @pytest.mark.parametrize("beta, h", [(2.0, 0.5), (0.3, 0.05), (700.0, 0.5)])
    def test_spectrum_is_the_solution_dispersion(self, beta, h):
        # the same kept gaps, h and m* as the solver's: bit-equal, and no second gap grid is computed
        couplings = CouplingSet({1: 1.0, 2: 0.25}, {1: 1.0, 2: 0.25}, h)
        solution = solve_magnetization(ThermalParams(beta, h), couplings, GRID8)
        state = equilibrium_state(solution)
        assert np.array_equal(state.spectrum, solution.dispersion)
        assert exchange_gap_grid.cache_info().misses == 1

    def test_zero_occupations_give_zero_state(self):
        # cold enough that every occupation flushes to exactly zero
        fock = solve_magnetization(ThermalParams(700.0, 0.5), ISO, GRID8)
        assert np.all(fock.occupations == 0.0)
        state = equilibrium_state(fock)
        assert np.max(np.abs(state.gamma)) == 0.0

    def test_single_mode_site_covariance(self):
        # rank-one Fourier transform of one excited mode
        state = GaussianMagnonState(-0.8, np.eye(8)[2], (), GRID8, ISO, 0.5, "site")
        q0 = GRID8.points[2][0]
        x = LAT8.site_vectors()[:, 0].astype(float)
        expected = np.exp(-1j * q0 * (x[:, None] - x[None, :])) / 8.0
        assert np.max(np.abs(state.gamma - expected)) < 1e-14

    def test_flat_spectrum_gives_identity(self):
        state = mode_state([0.3] * 8).to_site()
        np.testing.assert_allclose(state.gamma, 0.3 * np.eye(8), atol=1e-14)


class TestEvolve:
    def test_equilibrium_is_stationary(self, equilibrium):
        _, state = equilibrium
        for t in (0.1, 1.7, -3.4):
            evolved = evolve(state, t)
            assert np.max(np.abs(evolved.gamma - state.gamma)) < 1e-14

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(2)
        state = random_state(rng)
        evolved = evolve(state, 0.0)
        np.testing.assert_array_equal(evolved.gamma, state.gamma)

    def test_two_mode_recurrence(self):
        state = mode_state([0.0, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0], off=[(1, 3, 0.4 + 0.1j)])
        eps = state.spectrum
        period = 2.0 * math.pi / (abs(state.m) * abs(eps[1] - eps[3]))
        evolved = evolve(state, period)
        assert np.max(np.abs(evolved.gamma - state.gamma)) < 1e-10

    def test_conserves_number_and_energy(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            state = random_state(rng)
            t = float(rng.uniform(-10.0, 10.0))
            evolved = evolve(state, t)
            assert abs(total_number(evolved) - total_number(state)) < 1e-12
            assert abs(total_energy(evolved) - total_energy(state)) < 1e-12

    def test_preserves_hermiticity_and_positivity(self):
        rng = np.random.default_rng(4)
        state = random_state(rng)
        evolved = evolve(state, 2.3)
        gamma = evolved.to_site().gamma
        assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(gamma)) > -1e-12

    def test_rejects_non_finite_time(self):
        rng = np.random.default_rng(5)
        state = random_state(rng)
        with pytest.raises(ValueError):
            evolve(state, math.inf)

    def test_rejects_overflowing_phases_before_forming_them(self):
        # numpy warnings are errors here: a phase m*eps(q)*t formed past the float range would
        # raise RuntimeWarning instead of the ValueError; one just inside it evolves
        state = random_state(np.random.default_rng(6))
        limit = np.finfo(float).max / (abs(state.m) * state.spectrum.max())
        for t in (2.0 * limit, -2.0 * limit):
            with pytest.raises(ValueError, match="phases m\\*eps\\(q\\)\\*t overflow"):
                evolve(state, t)
        for t in (0.5 * limit, -0.5 * limit):
            assert np.isfinite(evolve(state, t).amplitudes).all()


class TestNumberDensity:
    def test_zero_state(self):
        state = mode_state([0.0] * 8)
        np.testing.assert_array_equal(number_density(state), np.zeros(8))

    def test_single_mode_is_uniform(self):
        state = mode_state([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(number_density(state), np.full(8, 1.0 / 8.0), atol=1e-14)

    def test_equilibrium_matches_mean_occupation(self, equilibrium):
        solution, state = equilibrium
        np.testing.assert_allclose(
            number_density(state), np.full(8, float(np.mean(solution.occupations))), atol=1e-14
        )


class TestNumberDensityRate:
    def test_translation_invariant_states_are_stationary(self, equilibrium):
        _, state = equilibrium
        assert np.max(np.abs(number_density_rate(state))) < 1e-14
        # any mode-diagonal covariance is translation invariant in x space
        diag_state = mode_state([0.5, 0.1, 0.9, 0.0, 0.3, 0.3, 0.0, 0.2])
        assert np.max(np.abs(number_density_rate(diag_state))) < 1e-14

    def test_reads_no_dense_covariance(self, monkeypatch):
        state = packet_state(-0.8, GRID8, ISO, 0.5, center=3, width=1.2, kick_index=2)
        expected = number_density_rate(state)

        def dense(*args, **kwargs):
            raise AssertionError("a dense N x N object was built")

        monkeypatch.setattr(dynamics.GaussianMagnonState, "gamma", property(dense))
        monkeypatch.setattr(dynamics, "coupling_matrix", dense)
        np.testing.assert_array_equal(number_density_rate(state), expected)

    def test_total_rate_vanishes(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            state = random_state(rng)
            assert abs(np.sum(number_density_rate(state))) < 1e-12

    def test_matches_finite_difference_of_exact_flow(self):
        state = packet_state(-0.8, GRID8, ISO, 0.5, center=3, width=1.2, kick_index=2)
        rate = number_density_rate(state)
        errors = []
        for dt in (1e-2, 1e-3, 1e-4):
            forward = number_density(evolve(state, dt))
            backward = number_density(evolve(state, -dt))
            errors.append(np.max(np.abs((forward - backward) / (2.0 * dt) - rate)))
        order_a = math.log10(errors[0] / errors[1])
        order_b = math.log10(errors[1] / errors[2])
        assert order_a >= 1.9
        assert order_b >= 1.9
        assert errors[2] < 1e-6


class TestPacketState:
    def test_is_valid_rank_one(self):
        state = packet_state(-0.5, GRID8, ISO, 0.5, center=2, width=1.0, kick_index=1)
        gamma = state.gamma
        assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-14
        eigenvalues = np.linalg.eigvalsh(gamma)
        assert np.min(eigenvalues) > -1e-12
        assert np.sum(eigenvalues > 1e-9) == 1

    @pytest.mark.parametrize("width", [0.0, -3.0, 1e-320, math.nan])
    def test_width_not_positive_refused_before_any_fft(self, width, monkeypatch):
        monkeypatch.setattr(dynamics, "_transform", lambda *args, **kwargs: pytest.fail("an FFT ran"))
        with pytest.raises(ValueError, match="width"):
            packet_state(-0.5, GRID8, ISO, 0.5, width=width)

    @pytest.mark.parametrize("bad, match", [
        (dict(center=-1), r"packet center -1 outside the sites \[0, 8\)"),
        (dict(center=8), r"packet center 8 outside the sites \[0, 8\)"),
        (dict(kick_index=-1), r"packet kick_index -1 outside the grid momenta \[0, 8\)"),
        (dict(kick_index=8), r"packet kick_index 8 outside the grid momenta \[0, 8\)"),
    ], ids=["center-below", "center-above", "kick-below", "kick-above"])
    def test_center_and_kick_outside_their_ranges_refused(self, bad, match):
        # numpy indexing would take -1 as the last site or momentum
        with pytest.raises(ValueError, match=match):
            packet_state(-0.5, GRID8, ISO, 0.5, **bad)

    def test_tiny_width_is_a_one_site_packet(self):
        # 2 * width**2 is still positive: the profile is 1 at the center, 0 elsewhere
        state = packet_state(-0.5, GRID8, ISO, 0.5, center=2, width=1e-150)
        np.testing.assert_allclose(number_density(state), np.eye(8)[2], rtol=0.0, atol=1e-15)


# --- dense referee --------------------------------------------------------------
#
# Evolves the full N x N mode-basis covariance with the phase matrix and
# conjugates it to sites with the dense U; it shares only the Fourier
# convention U[x, q] = exp(-i q.x)/sqrt(N) with the amplitude engine.


def dense_reference(m, gamma_mode, grid, couplings, h, t):
    """Density, number, energy and density rate of the dense covariance at time t."""
    eps = mode_spectrum(m, h, couplings, grid)
    phases = np.exp(-1j * m * eps * t)
    evolved = phases[:, None] * gamma_mode * phases.conj()[None, :]
    u = dense_mode_to_site(grid)
    site = u @ evolved @ u.conj().T
    j_mat = coupling_matrix(couplings.exchange, grid.lattice)
    return {
        "density": np.real(np.diagonal(site)),
        "number": float(np.real(np.trace(evolved))),
        "energy": float(np.real(np.sum(eps * np.diagonal(evolved)))),
        "rate": 4.0 * m * np.sum(j_mat * site.imag, axis=1),
    }


def structured_values(state, t):
    evolved = evolve(state, t)
    return {
        "density": number_density(evolved),
        "number": total_number(evolved),
        "energy": total_energy(evolved),
        "rate": number_density_rate(evolved),
    }


def assert_matches_reference(state, gamma_mode, t):
    expected = dense_reference(state.m, gamma_mode, state.grid, state.couplings, state.h, t)
    got = structured_values(state, t)
    scale = 1.0 + expected["number"]
    eps_max = float(np.max(state.spectrum))
    j_sum = float(np.sum(np.abs(list(state.couplings.exchange.values()))))
    tol = {"density": 1.0, "number": 1.0, "energy": eps_max, "rate": 4.0 * j_sum}
    for key, factor in tol.items():
        error = float(np.max(np.abs(np.asarray(got[key]) - expected[key])))
        assert error <= 1e-12 * scale * factor, (key, error, scale)


STRUCTURED_LATTICES = {
    "1d": (LatticeSpec(1, 8), CouplingSet({(1,): 1.0, (2,): 0.3}, {(1,): 1.0, (2,): 0.4}, 0.5)),
    "2d": (LatticeSpec(2, 4), CouplingSet(
        {(1, 0): 1.0, (0, 1): 0.7, (1, 1): 0.2}, {(1, 0): 1.0, (0, 1): 1.0}, 0.5)),
    "3d": (LatticeSpec(3, 3), CouplingSet.nearest_neighbor(3, j=1.0, j3=1.0, h=0.5)),
}


def random_modes(rng, n, rank):
    occupations = rng.exponential(size=n) * (rng.random(n) < 0.7)
    amplitudes = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
    return occupations, amplitudes


def dense_mode_covariance(occupations, amplitudes):
    return np.diag(occupations).astype(complex) + sum(
        (np.outer(psi, psi.conj()) for psi in amplitudes), np.zeros((len(occupations),) * 2)
    )


class TestStructuredAgainstDense:
    @pytest.mark.parametrize("which", STRUCTURED_LATTICES)
    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_mode_amplitude_states(self, which, rank):
        lattice, couplings = STRUCTURED_LATTICES[which]
        grid = MomentumGrid.from_lattice(lattice)
        rng = np.random.default_rng(100 * lattice.dimension + rank)
        occupations, amplitudes = random_modes(rng, lattice.n_sites, rank)
        state = GaussianMagnonState(-0.7, occupations, amplitudes, grid, couplings, 0.5)
        gamma_mode = dense_mode_covariance(occupations, amplitudes)
        assert np.max(np.abs(state.gamma - gamma_mode)) <= 1e-14 * (1.0 + np.max(np.abs(gamma_mode)))
        for t in (0.0, 0.37, -5.0, 41.0):
            assert_matches_reference(state, gamma_mode, t)

    @pytest.mark.parametrize("which", STRUCTURED_LATTICES)
    def test_dense_constructor_and_packet(self, which):
        lattice, couplings = STRUCTURED_LATTICES[which]
        grid = MomentumGrid.from_lattice(lattice)
        n = lattice.n_sites
        u = dense_mode_to_site(grid)
        site = random_state(np.random.default_rng(7), n, grid, couplings)
        dense_site = site.gamma
        packet = packet_state(-0.6, grid, couplings, 0.5, center=n // 3, width=1.3, kick_index=1)
        packet_site = packet.gamma
        for state, gamma_site in ((site, dense_site), (packet, packet_site)):
            for t in (0.0, 0.9, 13.0):
                assert_matches_reference(state, u.conj().T @ gamma_site @ u, t)

    @settings(max_examples=40)
    @given(
        which=st.sampled_from(sorted(STRUCTURED_LATTICES)),
        rank=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        m=st.floats(-1.0, -0.05),
        t=st.floats(-60.0, 60.0),
    )
    def test_random_rank_occupations_and_times(self, which, rank, seed, m, t):
        lattice, couplings = STRUCTURED_LATTICES[which]
        grid = MomentumGrid.from_lattice(lattice)
        occupations, amplitudes = random_modes(np.random.default_rng(seed), lattice.n_sites, rank)
        state = GaussianMagnonState(m, occupations, amplitudes, grid, couplings, 0.5)
        assert_matches_reference(state, dense_mode_covariance(occupations, amplitudes), t)
        # number and energy are conserved, at the tolerance scale of the reference check
        evolved, scale = evolve(state, t), 1.0 + total_number(state)
        assert abs(total_number(evolved) - total_number(state)) <= 1e-12 * scale
        eps_max = float(np.max(state.spectrum))
        assert abs(total_energy(evolved) - total_energy(state)) <= 1e-12 * scale * eps_max


class TestAmplitudeForm:
    def test_dense_constructor_reproduces_its_covariance(self):
        # the tests' dense factoring, state_from_covariance, in either basis
        rng = np.random.default_rng(8)
        for basis in ("site", "mode"):
            a = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
            gamma = a @ a.conj().T
            state = state_from_covariance(-0.5, gamma, basis, GRID8, ISO, 0.5)
            assert state.amplitudes.shape[0] <= 8
            assert np.max(np.abs(state.gamma - gamma)) <= 1e-13 * np.max(np.abs(gamma))

    @settings(max_examples=30)
    @given(
        which=st.sampled_from(sorted(STRUCTURED_LATTICES)),
        rank=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gamma_is_the_factored_covariance_in_both_bases(self, which, rank, seed):
        lattice, couplings = STRUCTURED_LATTICES[which]
        grid = MomentumGrid.from_lattice(lattice)
        occupations, amplitudes = random_modes(np.random.default_rng(seed), lattice.n_sites, rank)
        state = GaussianMagnonState(-0.7, occupations, amplitudes, grid, couplings, 0.5)
        gamma_mode = dense_mode_covariance(occupations, amplitudes)
        u = dense_mode_to_site(grid)
        scale = 1.0 + float(np.max(np.abs(gamma_mode)))
        assert np.max(np.abs(state.gamma - gamma_mode)) <= 1e-12 * scale
        assert np.max(np.abs(state.to_site().gamma - u @ gamma_mode @ u.conj().T)) <= 1e-12 * scale

    def test_constructor_checks_shapes_and_signs(self):
        ok = np.zeros(8)
        with pytest.raises(ValueError, match="occupations"):
            GaussianMagnonState(-0.5, np.zeros(4), (), GRID8, ISO, 0.5)
        with pytest.raises(ValueError, match="non-negative"):
            GaussianMagnonState(-0.5, -np.ones(8), (), GRID8, ISO, 0.5)
        with pytest.raises(ValueError, match="amplitudes"):
            GaussianMagnonState(-0.5, ok, np.ones((2, 4)), GRID8, ISO, 0.5)
        with pytest.raises(ValueError, match="quantization parameter must lie in"):
            GaussianMagnonState(0.0, ok, (), GRID8, ISO, 0.5)
        rank_one = GaussianMagnonState(-0.5, ok, np.ones(8), GRID8, ISO, 0.5)
        assert rank_one.amplitudes.shape == (1, 8)

    def test_ranks_of_the_cli_states(self, equilibrium):
        _, state = equilibrium
        assert state.amplitudes.shape == (0, 8)
        packet = packet_state(-0.5, GRID8, ISO, 0.5, center=2, width=1.0, kick_index=1)
        assert packet.amplitudes.shape == (1, 8)
        assert np.all(packet.occupations == 0.0)

    def test_large_packet_needs_no_dense_covariance(self):
        # the dense N x N covariance of this packet would take 268 MB
        lattice = LatticeSpec(1, 4096)
        grid = MomentumGrid.from_lattice(lattice)
        state = packet_state(-0.8, grid, ISO, 0.5, center=100, width=20.0, kick_index=7)
        tracemalloc.start()
        try:
            density = number_density(evolve(state, 3.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, peak
        assert abs(np.sum(density) - total_number(state)) <= 1e-10 * total_number(state)
