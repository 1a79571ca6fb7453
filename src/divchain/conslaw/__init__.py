"""Conservation-law harness: fluxes, solver, and structure diagnostics."""

from .diagnostics import (KineticMeasure, accumulated_interface_W, entropy_residual,
                          interface_W, kato_check, kinetic_identity_residual,
                          kinetic_measure, space_time_bumps)
from .flux import EntropyPair, FluxSpec, chi
from .solver import GridState, Trajectory, fv_solve

__all__ = [
    "KineticMeasure", "accumulated_interface_W", "entropy_residual", "interface_W",
    "kato_check", "kinetic_identity_residual", "kinetic_measure",
    "space_time_bumps", "EntropyPair", "FluxSpec", "chi", "GridState", "Trajectory",
    "fv_solve",
]
