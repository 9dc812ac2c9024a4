import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnonkit import spinwave
from magnonkit.dynamics import mode_spectrum
from magnonkit.lattice import CouplingSet, LatticeSpec, MomentumGrid, exchange_gap_grid, validate_ferromagnetic
from magnonkit.spinwave import (
    RegimeError,
    ThermalParams,
    magnetization_bound,
    occupation,
    selfconsistency_defect,
    solve_magnetization,
)
from magnonkit.cli import main

ISO = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=0.5)
ANISO = CouplingSet.nearest_neighbor(1, j=0.0, j3=1.0, h=2.5)


def grid_for(size, dimension=1):
    return MomentumGrid.from_lattice(LatticeSpec(dimension, size))


def brute_force_defect(m, beta, h, size):
    """Independent evaluation of the defect for the isotropic nn chain, at one m or an array of them."""
    m = np.asarray(m, dtype=float)
    total = np.zeros_like(m)
    for j in range(size):
        q = 2.0 * math.pi * j / size
        gap = 2.0 - 2.0 * math.cos(q)
        total += (-m) / np.expm1(2.0 * beta * (h - m * gap))
    return total / size - 0.5 * (1.0 + m)


def reference_occupations(ms, beta, h, gaps):
    """Bose occupations of every trial magnetization (rows) at every gap (columns)."""
    ms = np.atleast_1d(np.asarray(ms, dtype=float))
    args = 2.0 * beta * (h - np.outer(ms, gaps))
    with np.errstate(over="ignore"):
        occ = (-ms)[:, None] / np.expm1(args)
    occ[occ < 1e-300] = 0.0
    return occ


def reference_defect(ms, beta, h, gaps):
    """Full-grid defect: the plain mean over every grid occupation."""
    ms = np.atleast_1d(np.asarray(ms, dtype=float))
    return reference_occupations(ms, beta, h, gaps).mean(axis=1) - 0.5 * (1.0 + ms)


def distinct_gap_defect(ms, beta, h, gaps):
    """The defect as a mean over the distinct gaps, each weighted by its share of the grid."""
    distinct, counts = np.unique(gaps, return_counts=True)
    ms = np.atleast_1d(np.asarray(ms, dtype=float))
    return reference_occupations(ms, beta, h, distinct) @ (counts / gaps.size) - 0.5 * (1.0 + ms)


def reference_roots(beta, h, gaps, defect=reference_defect, scan_points=4096):
    """Every root from a dense scan of ``defect``, each bracket bisected to collapse."""
    ms = np.linspace(-1.0, 0.0, scan_points)
    values = defect(ms, beta, h, gaps)
    roots = []
    for i in range(scan_points - 1):
        lo, hi, f_lo = float(ms[i]), float(ms[i + 1]), float(values[i])
        if f_lo == 0.0:
            roots.append(lo)
            continue
        if f_lo * float(values[i + 1]) >= 0.0:
            continue
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            f_mid = float(defect(mid, beta, h, gaps)[0])
            if f_mid == 0.0:
                break
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        roots.append(mid)
    return sorted(roots)


class TestOccupation:
    def test_zero_magnetization_gives_exactly_zero(self):
        p = ThermalParams(beta=1.7, h=0.9)
        np.testing.assert_array_equal(occupation(0.0, p, ISO, grid_for(4)), np.zeros(4))

    def test_closed_form_at_full_polarization(self):
        # gap vanishes at q = 0 for the isotropic chain, so n = 1/(e^2 - 1)
        p = ThermalParams(beta=1.0, h=1.0)
        value = occupation(-1.0, p, ISO, grid_for(4))[0]
        assert value == pytest.approx(0.15651764274966565, abs=1e-15)
        assert value == pytest.approx(1.0 / math.expm1(2.0), abs=1e-15)

    def test_ground_state_limit_vanishes(self):
        p = ThermalParams(beta=500.0, h=1.0)
        assert occupation(-1.0, p, ISO, grid_for(2))[1] == 0.0  # q = pi

    def test_monotone_decreasing_in_beta(self):
        rng = np.random.default_rng(23)
        grid = grid_for(16)
        for _ in range(25):
            m = float(rng.uniform(-1.0, -0.05))
            beta = float(rng.uniform(0.2, 4.0))
            lo = occupation(m, ThermalParams(beta, 0.8), ISO, grid)
            hi = occupation(m, ThermalParams(beta * (1.0 + rng.uniform(0.1, 2.0)), 0.8), ISO, grid)
            assert np.all(hi < lo)

    def test_depends_on_q_only_through_gap(self):
        grid = grid_for(4)  # points 1 and 3 are pi/2 and 3pi/2, of equal gap
        gaps = exchange_gap_grid(ISO, grid)
        assert gaps[1] == pytest.approx(gaps[3], abs=1e-14)
        occ = occupation(-0.7, ThermalParams(2.0, 0.5), ISO, grid)
        assert occ[1] == pytest.approx(occ[3], abs=1e-14)

    def test_bounded_by_field_occupation(self):
        rng = np.random.default_rng(4)
        grid = grid_for(32)
        for _ in range(20):
            beta = float(rng.uniform(0.3, 3.0))
            h = float(rng.uniform(0.2, 2.0))
            m = float(rng.uniform(-1.0, 0.0))
            occ = occupation(m, ThermalParams(beta, h), ISO, grid)
            assert np.all(occ <= 1.0 / math.expm1(2.0 * beta * h) + 1e-12)
            assert np.all(occ >= 0.0)

    def test_outside_regime_rejected(self):
        p = ThermalParams(beta=1.0, h=0.0)
        with pytest.raises(RegimeError, match="outside ferromagnetic regime"):
            occupation(-0.5, p, ISO, grid_for(4))  # gap(0)=0 and h=0

    def test_rejects_magnetization_outside_range(self):
        p = ThermalParams(1.0, 1.0)
        with pytest.raises(ValueError):
            occupation(0.5, p, ISO, grid_for(4))
        with pytest.raises(ValueError):
            occupation(-1.5, p, ISO, grid_for(4))


class TestDispersion:
    """The magnon energies eps(q) = 2*(gap(q) + h/(-m)) of the grid form."""

    def test_gapless_exchange_case(self):
        assert mode_spectrum(-1.0, 1.0, ISO, grid_for(4))[0] == pytest.approx(2.0, abs=1e-14)

    def test_band_top_of_isotropic_chain(self):
        assert mode_spectrum(-1.0, 0.5, ISO, grid_for(4))[2] == pytest.approx(9.0, abs=1e-13)

    def test_identity_at_full_polarization(self):
        # eps(q) - 2h = 2*gap(q) when m = -1
        grid = grid_for(16)
        lhs = mode_spectrum(-1.0, 0.7, ISO, grid) - 2.0 * 0.7
        np.testing.assert_allclose(lhs, 2.0 * exchange_gap_grid(ISO, grid), rtol=0.0, atol=1e-13)

    def test_zero_mode_gap(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = float(rng.uniform(0.01, 3.0))
            m = float(rng.uniform(-1.0, -0.01))
            assert mode_spectrum(m, h, ISO, grid_for(4))[0] > 0.0

    def test_undefined_at_zero_magnetization(self):
        # a bad argument like any other m outside [-1, 0), not a regime failure
        for m in (0.0, -0.0, 0.5):
            with pytest.raises(ValueError, match="must lie in \\[-1, 0\\)") as raised:
                mode_spectrum(m, 1.0, ISO, grid_for(4))
            assert not isinstance(raised.value, RegimeError)


class TestSharedBoseFormula:
    """occupation and the defect equal the rank-2 formula bit for bit."""

    # beta = 350 puts the q = 0 occupation near e^-700, below the flush floor
    CASES = [(-0.9, 2.0, 0.5), (-1.0, 16.0, 0.5), (-0.3, 0.2, 0.05), (0.0, 1.0, 0.5), (-1.0, 350.0, 1.0)]

    @pytest.mark.parametrize("m,beta,h", CASES)
    def test_grid_forms(self, m, beta, h):
        grid = grid_for(16)
        p = ThermalParams(beta, h)
        gaps = exchange_gap_grid(ISO, grid)
        expected = reference_occupations(m, beta, h, gaps)[0]
        np.testing.assert_array_equal(occupation(m, p, ISO, grid), expected)
        value = selfconsistency_defect(m, p, ISO, grid)
        assert value == distinct_gap_defect(m, beta, h, gaps)[0]
        # the plain full-grid mean sums the same terms in another order
        bound = gaps.size * np.finfo(float).eps * (np.mean(np.abs(expected)) + abs(1.0 + m) / 2.0)
        assert abs(value - float(reference_defect(m, beta, h, gaps)[0])) <= bound


class TestSelfConsistencyDefect:
    def test_zero_magnetization_value(self):
        assert selfconsistency_defect(0.0, ThermalParams(2.0, 0.5), ISO, grid_for(8)) == -0.5

    def test_full_polarization_cold_limit(self):
        value = selfconsistency_defect(-1.0, ThermalParams(16.0, 0.5), ISO, grid_for(8))
        assert 0.0 < value < 1e-6

    def test_frozen_brute_force_value(self):
        value = selfconsistency_defect(-0.9, ThermalParams(2.0, 0.5), ISO, grid_for(8))
        assert value == pytest.approx(-0.028611084733653022, abs=1e-15)
        assert value == pytest.approx(brute_force_defect(-0.9, 2.0, 0.5, 8), abs=1e-15)


class TestSolveMagnetization:
    def test_endpoints_guarantee_a_root(self):
        grid = grid_for(8)
        p = ThermalParams(2.0, 0.5)
        assert selfconsistency_defect(0.0, p, ISO, grid) < 0.0
        assert selfconsistency_defect(-1.0, p, ISO, grid) > 0.0
        solution = solve_magnetization(p, ISO, grid)
        assert -1.0 <= solution.m_star <= 0.0

    def test_matches_dense_scan_oracle(self):
        grid = grid_for(8)
        p = ThermalParams(2.0, 0.5)
        solution = solve_magnetization(p, ISO, grid)
        # independent oracle: dense scan of the brute-force defect + bisection
        ms = np.linspace(-1.0, 0.0, 200_001)
        values = brute_force_defect(ms, 2.0, 0.5, 8)
        idx = int(np.nonzero(np.sign(values[:-1]) != np.sign(values[1:]))[0][0])
        lo, hi = float(ms[idx]), float(ms[idx + 1])
        f_lo = brute_force_defect(lo, 2.0, 0.5, 8)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            f_mid = brute_force_defect(mid, 2.0, 0.5, 8)
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        assert solution.m_star == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert solution.residual <= 1e-12

    def test_monotone_in_beta(self):
        grid = grid_for(64)
        stars = [solve_magnetization(ThermalParams(b, 0.5), ISO, grid).m_star for b in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(stars, stars[1:]))

    def test_cold_asymptote_with_coupling_gap(self):
        # gap(0) = 2 > 0 here, so m approaches -1 + 2 exp(-2 beta gap(0)) from below
        grid = grid_for(16)
        for beta in (2.0, 4.0):
            solution = solve_magnetization(ThermalParams(beta, 2.5), ANISO, grid)
            assert solution.m_star <= -1.0 + 2.0 * math.exp(-4.0 * beta) + 1e-9

    def test_solution_invariants(self):
        grid = grid_for(32)
        p = ThermalParams(1.5, 0.8)
        solution = solve_magnetization(p, ISO, grid)
        assert -1.0 <= solution.m_star <= 0.0
        assert solution.residual <= 1e-12
        assert solution.m_star <= solution.bound + 1e-9
        limit = 1.0 / math.expm1(2.0 * p.beta * p.h)
        assert np.all(solution.occupations <= limit + 1e-12)
        assert np.all(solution.occupations >= 0.0)
        assert np.all(solution.dispersion > 0.0)
        assert solution.all_roots == [solution.m_star]

    def test_rejects_bad_arguments(self):
        grid = grid_for(8)
        p = ThermalParams(1.0, 0.5)
        with pytest.raises(ValueError):
            solve_magnetization(p, ISO, grid, tol=0.0)

    def test_two_dimensional_lattice(self):
        couplings = CouplingSet.nearest_neighbor(2, j=1.0, j3=1.0, h=0.5)
        grid = grid_for(8, dimension=2)
        solution = solve_magnetization(ThermalParams(2.0, 0.5), couplings, grid)
        assert -1.0 < solution.m_star < 0.0
        assert solution.residual <= 1e-12
        assert len(solution.occupations) == 64
        # square-lattice gap peaks at q = (pi, pi): gap = 4 - 2cos - 2cos = 8
        top = grid.index_of([math.pi, math.pi])
        assert solution.gap_values[top] == pytest.approx(8.0, abs=1e-13)

    @pytest.mark.parametrize("beta", [1e-100, 1e-200, 1e-300])
    def test_tiny_beta_polishes_to_the_hot_root_in_a_few_steps(self, beta):
        # the root sits near -beta*h, about 1e-300 from m = 0 at the smallest beta: halving the
        # bracket's value would take about a thousand steps, halving it in the order of doubles
        # at most 62
        solution = solve_magnetization(ThermalParams(beta, 0.5), ISO, grid_for(8))
        assert solution.m_star == pytest.approx(-0.5 * beta, rel=1e-15)
        assert solution.residual == 0.0
        assert solution.all_roots == [solution.m_star]
        assert solution.diagnostics["polish_steps"] <= 12

    def test_cold_root_at_full_polarization(self):
        # G(-1) = mean n is about 1e-31, so the root lies within half an ulp of -1: the secant of
        # the cell's ends rounds onto -1, and one step to the neighbouring double changes sign
        p = ThermalParams(8.0, 2.5)
        solution = solve_magnetization(p, ANISO, grid_for(8))
        assert solution.m_star == -1.0
        assert 0.0 < selfconsistency_defect(-1.0, p, ANISO, grid_for(8)) < 1e-30
        assert selfconsistency_defect(math.nextafter(-1.0, 0.0), p, ANISO, grid_for(8)) < 0.0
        assert solution.diagnostics["polish_steps"] == 1


class TestPolish:
    """The safeguarded Newton polish on defects whose slope misleads every step."""

    BOUND = 62 + spinwave._NEWTON_SLACK

    @pytest.mark.parametrize("root", [-1.0, -0.3, -1e-300, -5e-324])
    @pytest.mark.parametrize("slope", [1e-300, -1e300], ids=["leaves", "creeps"])
    def test_misled_steps_still_end_at_an_adjacent_sign_change(self, root, slope):
        # a slope of 1e-300 sends every Newton step out of the bracket, one of -1e300 rounds every
        # step onto the last trial; G(-1) > 0 > G(0) as in the solver, and a root at -1.0 lies
        # between -1 and its neighbouring double.  The roots at -0.3 and -1e-300 lie far from the
        # secant in the order of doubles: leaving steps cost 63 trials there, creeping ones up to
        # 69, near the bound
        offset = 1e-300 if root == -1.0 else 0.0
        trials = []

        def defect(m):
            trials.append(m)
            return root - m + offset, slope

        found = spinwave._polish(defect, -1.0, 0.0, defect(-1.0)[0], defect(0.0)[0])
        del trials[:2]
        assert len(trials) <= self.BOUND
        below, above = math.nextafter(found, -1.0), math.nextafter(found, 0.0)
        values = [defect(m)[0] for m in (below, found, above)]
        assert values[1] == 0.0 or (values[0] > 0.0) != (values[2] > 0.0)
        assert abs(found - root) <= np.spacing(abs(root))


def shell_couplings(dimension, j, j3):
    """Even couplings on shells 1 and 2 (next-nearest: distance 2 in 1D, diagonals in 2D)."""
    units = [tuple(int(a == axis) for a in range(dimension)) for axis in range(dimension)]
    if dimension == 1:
        shells = [[(1,)], [(2,)]]
    else:
        shells = [units, [(1, 1), (1, -1)]]
    exchange, exchange_z = {}, {}
    for zs, jv, j3v in zip(shells, j, j3):
        for z in zs:
            exchange[z] = jv
            exchange_z[z] = j3v
    return CouplingSet(exchange, exchange_z, h=0.0)


class TestGapCompressedScan:
    @settings(max_examples=40)
    @given(
        dimension=st.sampled_from([1, 2]),
        size=st.integers(2, 24),
        j=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
        anisotropy=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
        beta=st.floats(0.2, 8.0),
        h_excess=st.floats(0.02, 2.0),
    )
    def test_roots_bracket_and_match_full_grid_reference(
        self, dimension, size, j, anisotropy, beta, h_excess
    ):
        size = size if dimension == 1 else 2 + size % 7
        j3 = tuple(a + b for a, b in zip(j, anisotropy))
        probe = shell_couplings(dimension, j, j3)
        grid = grid_for(size, dimension)
        gaps = exchange_gap_grid(probe, grid)
        h = max(float(gaps[0]), 0.0) + h_excess
        couplings = CouplingSet(probe.exchange, probe.exchange_z, h)
        assume(validate_ferromagnetic(couplings, grid).passed)
        p = ThermalParams(beta, h)

        solution = solve_magnetization(p, couplings, grid)
        assert solution.residual == abs(selfconsistency_defect(solution.m_star, p, couplings, grid))
        for r in solution.all_roots:
            value = selfconsistency_defect(r, p, couplings, grid)
            if value == 0.0:
                continue
            # the polish ends at a sign change between adjacent doubles
            sides = [selfconsistency_defect(math.nextafter(r, end), p, couplings, grid) for end in (-1.0, 0.0)]
            assert any(side != 0.0 and (side > 0.0) != (value > 0.0) for side in sides), (r, value, sides)
            below = selfconsistency_defect(max(r - 1e-9, -1.0), p, couplings, grid)
            above = selfconsistency_defect(min(r + 1e-9, 0.0), p, couplings, grid)
            assert (below > 0.0) != (above > 0.0), (r, below, above)
        expected = reference_roots(beta, h, gaps)[0]
        assert abs(solution.m_star - expected) <= 4 * np.spacing(abs(expected))

    def test_diagnostics_count_the_work(self):
        solution = solve_magnetization(ThermalParams(2.0, 0.5), ISO, grid_for(8))
        diag = solution.diagnostics
        # gaps 2 - 2cos(2 pi j / 8): 0, 2 - sqrt 2, 2, 2 + sqrt 2, 4, each of q and -q bit-equal
        assert diag["distinct_gaps"] == np.unique(solution.gap_values).size == 5
        # [0, 1] in u = -m is split once: the half without the root is dropped, the other kept
        assert (diag["cells"], diag["enclosure_passes"]) == (3, 2)
        assert diag["certified"] is True and diag["tangent_roots"] == 0
        # the secant of the cell's ends and three Newton steps; bisection took 40-60 halvings
        assert diag["polish_steps"] == 4
        # the endpoints m = -1 and 0, the kept cell's two ends, the polish and the residual
        assert diag["defect_evaluations"] == 2 + 2 + diag["polish_steps"] + 1

    def test_solve_memory_stays_within_a_few_grid_arrays(self):
        # the enclosure holds a few rows over the distinct gaps per live cell, never a
        # trial-m by gap matrix
        grid = grid_for(8192)
        exchange_gap_grid(ISO, grid)  # computed before tracing, as a run's regime check computes it
        tracemalloc.start()
        try:
            solution = solve_magnetization(ThermalParams(2.0, 0.5), ISO, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        distinct = solution.diagnostics["distinct_gaps"]
        assert distinct == 4097  # a 4096 x 4097 scan matrix would take 134 MB
        assert peak < 64 * 8 * distinct

    def test_cli_artifact_reproducible_with_diagnostics(self, tmp_path):
        (tmp_path / "c.csv").write_text("dz1,dz2,J,J3\n1,0,1.0,1.0\n0,1,1.0,1.0\n")
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"lattice.dimension = 2\nlattice.size = 12\ncouplings.path = {tmp_path / 'c.csv'}\n"
            "field.h = 0.05\nthermal.beta = 0.7\n"
        )
        blobs = []
        for run in ("a", "b"):
            assert main(["solve", "--config", str(conf), "--out", str(tmp_path / run)]) == 0
            blobs.append((tmp_path / run / "solution.json").read_bytes())
        assert blobs[0] == blobs[1]
        diag = json.loads(blobs[0])["diagnostics"]
        assert list(diag)[-7:] == ["distinct_gaps", "cells", "enclosure_passes", "certified",
                                   "tangent_roots", "polish_steps", "defect_evaluations"]
        assert 0 < diag["distinct_gaps"] < 144
        assert diag["certified"] is True and diag["tangent_roots"] == 0
        # the endpoints, at most two ends per examined cell, the polish and the residual
        assert diag["defect_evaluations"] <= 2 + 2 * diag["cells"] + diag["polish_steps"] + 1


class TestCertifiedEnclosure:
    @settings(max_examples=40)
    @given(
        dimension=st.integers(1, 3),
        size=st.integers(2, 8),
        j=st.floats(0.0, 1.5),
        anisotropy=st.sampled_from([0.0, 0.05, 0.2]),
        log_beta=st.floats(-1.5, 1.5),
        log_h=st.floats(-3.0, 0.5),
    )
    def test_roots_match_the_dense_scan(self, dimension, size, j, anisotropy, log_beta, log_h):
        probe = CouplingSet.nearest_neighbor(dimension, j=j, j3=j + anisotropy)
        grid = grid_for(size, dimension)
        gaps = exchange_gap_grid(probe, grid)
        beta, h = 10.0**log_beta, max(float(gaps[0]), 0.0) + 10.0**log_h
        couplings = CouplingSet(probe.exchange, probe.exchange_z, h)
        p = ThermalParams(beta, h)

        solution = solve_magnetization(p, couplings, grid)
        assert solution.diagnostics["certified"] is True
        assert solution.diagnostics["polish_steps"] <= (62 + spinwave._NEWTON_SLACK) * len(solution.all_roots)
        assert solution.diagnostics["tangent_roots"] == 0
        expected = reference_roots(beta, h, gaps, distinct_gap_defect)
        assert len(solution.all_roots) == len(expected)
        for root, ref in zip(solution.all_roots, expected):
            # both are sign changes of the same computed defect, a difference of terms of
            # order 1/2 resolved to about eps: one ulp apart, or within the band where
            # |G| < 2 eps when G is that flat there
            lo, hi = max(ref - 1e-7, -1.0), min(ref + 1e-7, 0.0)
            slope = abs(selfconsistency_defect(hi, p, couplings, grid)
                        - selfconsistency_defect(lo, p, couplings, grid)) / (hi - lo)
            band = 2.0 * np.finfo(float).eps / slope
            assert abs(root - ref) <= max(np.spacing(abs(ref)), band), (root, ref)

    def test_zero_field_refused(self):
        # the exponent argument 2 beta (h - m gap) vanishes at m = 0
        with pytest.raises(RegimeError, match="outside ferromagnetic regime"):
            solve_magnetization(ThermalParams(1.0, 0.0), ISO, grid_for(8))

    @pytest.mark.parametrize("beta, limit", [
        (1e308, r"too large: the Bose argument bound 2 beta \(h \+ sum_z \|J\(z\)\| \+ \|J3\(z\)\|\) = inf"),
        (9e307, "too large"),
        (5e307, "too large"),  # 2 beta h is finite, 2 beta (h + 4) is not
        (1e-310, r"too small: .* = 1e-310 is below the smallest normal float 2.2250738585072014e-308"),
        (5e-324, "too small"),
    ], ids=["1e308", "9e307", "5e307", "1e-310", "5e-324"])
    def test_beta_past_the_float_range_is_refused_before_the_enclosure(self, beta, limit, monkeypatch):
        def no_enclosure(*args):
            raise AssertionError("the enclosure started")

        monkeypatch.setattr(spinwave, "_root_cells", no_enclosure)
        with pytest.raises(ValueError, match=limit) as refusal:
            solve_magnetization(ThermalParams(beta, 0.5), ISO, grid_for(8))
        assert not isinstance(refusal.value, RegimeError)  # exit 2, not a verdict

    @pytest.mark.parametrize("beta", [1e307, 2.3e-308])
    def test_beta_at_the_float_range_limits_solves(self, beta):
        # 2 beta (h + 4) = 9e307 and 2 beta h = 2.3e-308, a normal float, are still accepted
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve_magnetization(ThermalParams(beta, 0.5), ISO, grid_for(8))
        assert solution.diagnostics["certified"] and solution.residual == 0.0

    def test_undecided_cells_at_the_depth_cap_still_give_the_root(self, monkeypatch):
        grid = grid_for(8)
        p = ThermalParams(2.0, 0.5)
        certified = solve_magnetization(p, ISO, grid)
        monkeypatch.setattr(spinwave, "_MAX_DEPTH", 0)
        capped = solve_magnetization(p, ISO, grid)
        # the one cell [-1, 0] is undecided; its ends change sign, so it is polished
        assert capped.diagnostics["certified"] is False
        assert capped.diagnostics["tangent_roots"] == 1
        assert capped.diagnostics["enclosure_passes"] == 1
        assert abs(capped.m_star - certified.m_star) <= np.spacing(abs(certified.m_star))


class TestMagnetizationBound:
    def test_frozen_value(self):
        bound = magnetization_bound(ThermalParams(2.0, 0.5))
        assert bound == pytest.approx(-0.68696471450066876, abs=1e-15)

    def test_cold_limit_reaches_minus_one(self):
        assert magnetization_bound(ThermalParams(400.0, 1.0)) == -1.0

    def test_zero_crossing_field(self):
        h = math.log(math.sqrt(3.0))  # e^{2 beta h} = 3
        assert magnetization_bound(ThermalParams(1.0, h)) == pytest.approx(0.0, abs=1e-14)

    def test_requires_positive_beta_h(self):
        with pytest.raises(ValueError):
            magnetization_bound(ThermalParams(1.0, 0.0))

    def test_variants(self):
        gap0 = exchange_gap_grid(ANISO, grid_for(8))[0]
        assert gap0 == 2.0
        solution = solve_magnetization(ThermalParams(2.0, 2.5), ANISO, grid_for(8))
        info = solution.diagnostics
        assert solution.bound == magnetization_bound(ThermalParams(2.0, 2.5))
        assert info["bound_from_coupling"] == -1.0 + 2.0 / math.expm1(8.0)
        assert "bound_tightest" not in info  # the smaller of the two, each stated once
        iso = solve_magnetization(ThermalParams(2.0, 0.5), ISO, grid_for(8))
        assert iso.diagnostics["bound_from_coupling"] is None  # gap(0) = 0 for the isotropic chain


class TestThermalParams:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            ThermalParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ThermalParams(math.inf, 1.0)
