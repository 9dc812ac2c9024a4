"""Magnon theory of Heisenberg ferromagnets, with an exact finite-spin oracle.

The package splits into lattice/coupling bookkeeping (:mod:`magnonkit.lattice`),
the self-consistent spin-wave theory (:mod:`magnonkit.spinwave`), an exact
sector-blocked Gibbs calculator used to validate it (:mod:`magnonkit.oracle`),
exact Gaussian magnon dynamics (:mod:`magnonkit.dynamics`) and a command-line
front end (:mod:`magnonkit.cli`). The root exports the names of the README's
library example; every other name is imported from its module.
"""

from .lattice import CouplingSet, LatticeSpec, MomentumGrid
from .spinwave import ThermalParams, solve_magnetization
from .dynamics import equilibrium_state, evolve, number_density

__version__ = "0.1.0"

__all__ = [
    "CouplingSet",
    "LatticeSpec",
    "MomentumGrid",
    "ThermalParams",
    "solve_magnetization",
    "equilibrium_state",
    "evolve",
    "number_density",
    "__version__",
]
