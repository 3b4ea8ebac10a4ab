"""Steady-state transport for a quantum dot coupled to a mechanical resonator.

Builds the two-block master equation for the dot-resonator system in
the polaron frame, solves for the non-equilibrium steady state, and
derives transport, thermodynamic and phase-space observables, including
the torotropy self-oscillation measure.
"""

from .model import LeadParams, ModelConfig, SystemParams, angular_ghz, ghz_from_mk, mk_from_ghz
from .redfield import (
    BlockDensityMatrix,
    DegenerateSteadyStateError,
    Liouvillian,
    RedfieldTensors,
    Solution,
    SteadyStateError,
    assemble_liouvillian,
    build_tensors,
    solve,
    steady_state,
    to_lab_frame,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDensityMatrix",
    "DegenerateSteadyStateError",
    "LeadParams",
    "Liouvillian",
    "ModelConfig",
    "RedfieldTensors",
    "Solution",
    "SteadyStateError",
    "SystemParams",
    "angular_ghz",
    "assemble_liouvillian",
    "build_tensors",
    "ghz_from_mk",
    "mk_from_ghz",
    "solve",
    "steady_state",
    "to_lab_frame",
    "__version__",
]
