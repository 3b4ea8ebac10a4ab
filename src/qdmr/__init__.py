"""Steady-state transport for a quantum dot coupled to a mechanical resonator.

Builds the two-block master equation for the dot-resonator system in
the polaron frame, solves for the non-equilibrium steady state, and
derives transport, thermodynamic and phase-space observables, including
the torotropy self-oscillation measure.
"""

from .model import LeadParams, ModelConfig, SystemParams, angular_ghz, ghz_from_mk
from .redfield import (
    BlockDensityMatrix,
    RedfieldTensors,
    SteadyStateError,
    build_tensors,
    krylov_steady_state,
    steady_state,
    to_lab_frame,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDensityMatrix",
    "LeadParams",
    "ModelConfig",
    "RedfieldTensors",
    "SteadyStateError",
    "SystemParams",
    "angular_ghz",
    "build_tensors",
    "ghz_from_mk",
    "krylov_steady_state",
    "steady_state",
    "to_lab_frame",
    "__version__",
]
