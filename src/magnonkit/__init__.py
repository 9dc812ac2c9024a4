"""Magnon theory of Heisenberg ferromagnets, with an exact finite-spin oracle.

The package splits into lattice/coupling bookkeeping (:mod:`magnonkit.lattice`),
the self-consistent spin-wave theory (:mod:`magnonkit.spinwave`), an exact
sector-blocked Gibbs calculator used to validate it (:mod:`magnonkit.oracle`),
exact Gaussian magnon dynamics (:mod:`magnonkit.dynamics`) and a command-line
front end (:mod:`magnonkit.cli`).
"""

from .lattice import (
    CouplingSet,
    LatticeSpec,
    MomentumGrid,
    ValidationReport,
    coupling_matrix,
    exchange_gap_grid,
    fourier_coupling_grid,
    load_couplings_csv,
    validate_ferromagnetic,
)
from .sectors import SectorEntry, SectorTable, sector_decomposition
from .spinwave import (
    MagnetizationBounds,
    RegimeError,
    SpinWaveSolution,
    ThermalParams,
    magnetization_bound,
    magnetization_bounds,
    occupation,
    selfconsistency_defect,
    solve_magnetization,
)
from .oracle import (
    ConvergenceRow,
    EnergyEntropyMargin,
    GibbsEnsemble,
    SpinConfig,
    build_gibbs,
    commutator_expectation,
    convergence_study,
    energy_entropy_margin,
    fluctuation_two_point,
    wick_residual,
)
from .dynamics import (
    GaussianMagnonState,
    equilibrium_state,
    evolve,
    mode_spectrum,
    number_density,
    number_density_rate,
    packet_state,
    total_energy,
    total_number,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingSet",
    "LatticeSpec",
    "MomentumGrid",
    "ValidationReport",
    "coupling_matrix",
    "exchange_gap_grid",
    "fourier_coupling_grid",
    "load_couplings_csv",
    "validate_ferromagnetic",
    "SectorEntry",
    "SectorTable",
    "sector_decomposition",
    "MagnetizationBounds",
    "RegimeError",
    "SpinWaveSolution",
    "ThermalParams",
    "magnetization_bound",
    "magnetization_bounds",
    "occupation",
    "selfconsistency_defect",
    "solve_magnetization",
    "ConvergenceRow",
    "EnergyEntropyMargin",
    "GibbsEnsemble",
    "SpinConfig",
    "build_gibbs",
    "commutator_expectation",
    "convergence_study",
    "energy_entropy_margin",
    "fluctuation_two_point",
    "wick_residual",
    "GaussianMagnonState",
    "equilibrium_state",
    "evolve",
    "mode_spectrum",
    "number_density",
    "number_density_rate",
    "packet_state",
    "total_energy",
    "total_number",
    "__version__",
]
