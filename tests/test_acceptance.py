"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Criteria run at their stated tolerances against desk-scale instances; the
exact-diagonalization cross-checks use the sector-blocked fast path with the
brute-force full-tensor path as referee.
"""

import math
import time

import numpy as np
import pytest

from magnonkit import (
    CouplingSet,
    LatticeSpec,
    MomentumGrid,
    ThermalParams,
    build_gibbs,
    commutator_expectation,
    convergence_study,
    energy_entropy_margin,
    equilibrium_state,
    evolve,
    fluctuation_two_point,
    magnetization_bound,
    number_density,
    number_density_rate,
    packet_state,
    sector_decomposition,
    solve_magnetization,
    total_energy,
    total_number,
    validate_ferromagnetic,
    wick_residual,
)
from magnonkit.oracle import SpinConfig
from test_dynamics import state_from_covariance
from test_oracle import expect_product

CHAIN2 = LatticeSpec(1, 2)
GRID2 = MomentumGrid.from_lattice(CHAIN2)
CHAIN3 = LatticeSpec(1, 3)
GRID3 = MomentumGrid.from_lattice(CHAIN3)

ISO25 = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=2.5)  # criterion-1 instance
ANISO = CouplingSet.nearest_neighbor(1, j=0.0, j3=1.0, h=2.5)  # gap(0) = 2 > 0
ISO_COLD = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=0.5)
LADDER = (1, 3, 5, 7)


@pytest.fixture(scope="module")
def sector_ladder():
    return {n: build_gibbs(SpinConfig(n, CHAIN2, ISO25), beta=1.0) for n in LADDER}


@pytest.fixture(scope="module")
def full_pair():
    return {n: build_gibbs(SpinConfig(n, CHAIN2, ISO25), beta=1.0, mode="full") for n in (1, 3)}


@pytest.fixture(scope="module")
def ensemble_matrix(sector_ladder, full_pair):
    """Every ensemble exercised by the acceptance run."""
    matrix = dict(sector_ladder)
    extras = {
        "full-1": full_pair[1],
        "full-3": full_pair[3],
        "aniso": build_gibbs(SpinConfig(3, CHAIN2, ANISO), beta=2.0),
        "beta0": build_gibbs(SpinConfig(3, CHAIN2, ISO25), beta=0.0),
        "chain3": build_gibbs(SpinConfig(3, CHAIN3, ISO25), beta=1.0),
    }
    matrix.update(extras)
    return matrix


def _grid_of(ensemble):
    return MomentumGrid.from_lattice(ensemble.config.lattice)


def test_criterion_01_commutator_limit(sector_ladder):
    start = time.monotonic()
    worst_off = 0.0
    worst_diag = 0.0
    for n, ensemble in sector_ladder.items():
        sigma3 = ensemble.sigma3
        for k in GRID2.points:
            for q in GRID2.points:
                value = commutator_expectation(ensemble, k, q)
                if np.allclose(k, q):
                    worst_diag = max(worst_diag, abs(value - sigma3))
                else:
                    worst_off = max(worst_off, abs(value))
    elapsed = time.monotonic() - start
    assert worst_off <= 1e-12
    assert worst_diag <= 1e-12
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 01 commutator-limit: PASS "
          f"(|off-diag| <= {worst_off:.2e}, |diag - sigma3| <= {worst_diag:.2e}, {elapsed:.2f}s)")


def test_criterion_02_u1_symmetry(ensemble_matrix):
    worst = 0.0
    for ensemble in ensemble_matrix.values():
        for x in range(ensemble.n_sites):
            worst = max(worst, abs(expect_product(ensemble, [("+", x)])))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 02 u1-symmetry: PASS (max |<S+>(x)| = {worst:.2e} over "
          f"{len(ensemble_matrix)} ensembles)")


def test_criterion_03_convergence_to_quasi_free(sector_ladder, full_pair):
    start = time.monotonic()
    q_pi = GRID2.points[1]
    rows = convergence_study(CHAIN2, ISO25, beta=1.0, q=q_pi, copies_list=LADDER)
    discs = [row.discrepancy for row in rows]
    assert all(b < a for a, b in zip(discs, discs[1:])), discs
    assert discs[-1] < 0.5 * discs[0]
    for n in (1, 3):
        sector = sector_ladder[n]
        full = full_pair[n]
        assert sector.sigma3 == pytest.approx(full.sigma3, abs=1e-10)
        assert fluctuation_two_point(sector, q_pi) == pytest.approx(
            fluctuation_two_point(full, q_pi), abs=1e-10
        )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 03 quasi-free convergence: PASS "
          f"(discrepancies {', '.join('%.3e' % d for d in discs)}; {elapsed:.2f}s)")


def test_criterion_04_wick_residual_decreases(sector_ladder):
    q_pi = GRID2.points[1]
    residuals = [wick_residual(sector_ladder[n], q_pi) for n in LADDER]
    assert all(b < a for a, b in zip(residuals, residuals[1:])), residuals
    print(f"\nACCEPTANCE 04 wick-residual: PASS "
          f"(residuals {', '.join('%.3e' % r for r in residuals)})")


def test_criterion_05_energy_entropy_balance(ensemble_matrix):
    worst = math.inf
    checks = 0
    for ensemble in ensemble_matrix.values():
        for q in _grid_of(ensemble).points:
            for kind in ("-", "+"):
                result = energy_entropy_margin(ensemble, q, kind)
                assert result.lhs >= result.rhs - 1e-9, (kind, q, result)
                worst = min(worst, result.lhs - result.rhs)
                checks += 1
    print(f"\nACCEPTANCE 05 energy-entropy balance: PASS "
          f"({checks} inequalities, min margin {worst:.2e})")


def _dense_scan_oracle(beta, h, size, points=1_000_001):
    """Independent magnetization root: brute Bose sums on a dense scan."""
    qs = 2.0 * np.pi * np.arange(size) / size
    gaps = 2.0 - 2.0 * np.cos(qs)

    def defect_many(ms):
        args = 2.0 * beta * (h - np.outer(ms, gaps))
        return ((-ms)[:, None] / np.expm1(args)).mean(axis=1) - 0.5 * (1.0 + ms)

    def defect_one(m):
        total = sum((-m) / math.expm1(2.0 * beta * (h - m * g)) for g in gaps)
        return total / size - 0.5 * (1.0 + m)

    ms = np.linspace(-1.0, 0.0, points)
    bracket = None
    chunk = 100_000
    for lo_idx in range(0, points - 1, chunk):
        hi_idx = min(lo_idx + chunk + 1, points)
        values = defect_many(ms[lo_idx:hi_idx])
        flips = np.nonzero(np.sign(values[:-1]) != np.sign(values[1:]))[0]
        if flips.size:
            bracket = (float(ms[lo_idx + flips[0]]), float(ms[lo_idx + flips[0] + 1]))
            break
    assert bracket is not None
    lo, hi = bracket
    f_lo = defect_one(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = defect_one(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_06_selfconsistency_solver():
    start = time.monotonic()
    lattice = LatticeSpec(1, 64)
    grid = MomentumGrid.from_lattice(lattice)
    solution = solve_magnetization(ThermalParams(2.0, 0.5), ISO_COLD, grid)
    assert solution.residual <= 1e-10
    oracle_root = _dense_scan_oracle(2.0, 0.5, 64)
    assert abs(solution.m_star - oracle_root) <= 1e-10
    assert solution.m_star <= magnetization_bound(ThermalParams(2.0, 0.5)) + 1e-9
    stars = [
        solve_magnetization(ThermalParams(beta, 0.5), ISO_COLD, grid).m_star
        for beta in (1.0, 2.0, 4.0, 8.0)
    ]
    assert all(b < a for a, b in zip(stars, stars[1:])), stars
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 06 self-consistency solver: PASS "
          f"(m* = {solution.m_star:.12f}, |m* - oracle| = {abs(solution.m_star - oracle_root):.2e}, "
          f"{elapsed:.2f}s)")


def test_criterion_07_low_temperature_bound():
    lattice = LatticeSpec(1, 16)
    grid = MomentumGrid.from_lattice(lattice)
    gap0 = 2.0
    m_cold = None
    for beta in (2.0, 4.0, 8.0):
        solution = solve_magnetization(ThermalParams(beta, 2.5), ANISO, grid)
        coupling_bound = -1.0 + 2.0 / math.expm1(2.0 * beta * gap0)
        assert solution.m_star <= coupling_bound + 1e-9, (beta, solution.m_star, coupling_bound)
        m_cold = solution.m_star
    assert abs(m_cold - (-1.0)) <= 1e-6
    print(f"\nACCEPTANCE 07 low-temperature bound: PASS "
          f"(beta=8 magnetization {m_cold:.12f})")


def test_criterion_08_dynamics_conservation():
    lattice = LatticeSpec(1, 16)
    grid = MomentumGrid.from_lattice(lattice)
    couplings = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=0.5)
    rng = np.random.default_rng(2024)
    worst_number = 0.0
    worst_energy = 0.0
    for _ in range(100):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        gamma = a @ a.conj().T / 16.0
        state = state_from_covariance(
            float(rng.uniform(-1.0, -0.1)), gamma, "site", grid, couplings, 0.5
        )
        evolved = evolve(state, float(rng.uniform(-10.0, 10.0)))
        worst_number = max(worst_number, abs(total_number(evolved) - total_number(state)))
        worst_energy = max(worst_energy, abs(total_energy(evolved) - total_energy(state)))
    assert worst_number <= 1e-12
    assert worst_energy <= 1e-12

    packet = packet_state(-0.8, grid, couplings, 0.5, center=5, width=1.5, kick_index=3)
    rate = number_density_rate(packet)
    errors = []
    for dt in (1e-2, 1e-3, 1e-4):
        forward = number_density(evolve(packet, dt))
        backward = number_density(evolve(packet, -dt))
        errors.append(np.max(np.abs((forward - backward) / (2.0 * dt) - rate)))
    orders = [math.log10(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, (errors, orders)

    solution = solve_magnetization(ThermalParams(2.0, 0.5), couplings, grid)
    state = equilibrium_state(solution)
    drift = max(
        float(np.max(np.abs(evolve(state, t).gamma - state.gamma))) for t in (0.3, 2.0, 17.0)
    )
    assert drift <= 1e-14
    print(f"\nACCEPTANCE 08 dynamics conservation: PASS "
          f"(dN <= {worst_number:.2e}, dE <= {worst_energy:.2e}, "
          f"orders {orders[0]:.2f}/{orders[1]:.2f}, stationarity {drift:.2e})")


def test_criterion_09_sector_engine(sector_ladder, full_pair, ensemble_matrix):
    for n in range(1, 32, 2):
        assert sector_decomposition(n).total_dimension() == 2**n

    pairs = [(sector_ladder[1], full_pair[1]), (sector_ladder[3], full_pair[3])]
    chain3_full = build_gibbs(SpinConfig(3, CHAIN3, ISO25), beta=1.0, mode="full")
    pairs.append((ensemble_matrix["chain3"], chain3_full))
    worst = 0.0
    for sector, full in pairs:
        worst = max(worst, abs(sector.logZ - full.logZ))
        worst = max(worst, abs(sector.sigma3 - full.sigma3))
        for q in _grid_of(sector).points:
            worst = max(
                worst, abs(fluctuation_two_point(sector, q) - fluctuation_two_point(full, q))
            )
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 09 sector engine: PASS "
          f"(dimension identity exact to n=31; sector vs full agreement {worst:.2e})")


def test_criterion_10_regime_validation():
    grid = MomentumGrid.from_lattice(LatticeSpec(1, 16))

    antiferro = CouplingSet.nearest_neighbor(1, j=1.0, j3=0.0, h=10.0)
    report = validate_ferromagnetic(antiferro, grid)
    assert not report.passed
    assert not report.gap_ok
    np.testing.assert_allclose(report.minimizing_momentum, [0.0])
    assert any("minimum gap" in message for message in report.messages)

    isotropic = validate_ferromagnetic(CouplingSet.nearest_neighbor(1, 1.0, 1.0, 1.5), grid)
    assert isotropic.passed
    assert isotropic.field_ok_relaxed and not isotropic.field_ok_strict

    strict = validate_ferromagnetic(ANISO, grid)
    assert strict.passed and strict.field_ok_strict
    print("\nACCEPTANCE 10 regime validation: PASS "
          "(antiferro-like rejected at q=0, isotropic relaxed-only, anisotropic strict)")
