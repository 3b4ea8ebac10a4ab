"""Steady-state transport and thermodynamic quantities.

Sign convention: every flow is positive when directed toward the lead
it is labeled with.  The total power absorbed from the bias is
P = sum_nu mu_nu * I_nu, so the first law in the stationary state reads

    sum_nu (J_el_nu + J_mec_nu) + P = 0

which is reported as ``first_law_residual`` (it should vanish to solver
precision; it is a wiring check, not a physical output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelConfig
from .redfield import BlockDensityMatrix, FrameError, RedfieldTensors


def phonon_number(state: BlockDensityMatrix) -> float:
    """Mean phonon number; lab frame only (the polaron frame miscounts quanta)."""
    if state.frame != "lab":
        raise FrameError("phonon_number requires a lab-frame state")
    idx = np.arange(state.n_cut)
    return float(
        (idx * np.diagonal(state.rho0).real).sum() + (idx * np.diagonal(state.rho1).real).sum()
    )


def particle_current(tensors: RedfieldTensors, state: BlockDensityMatrix) -> float:
    """Particle current into the lead described by ``tensors`` (polaron state)."""
    m_in, m_out = tensors.current_matrices()
    val = np.sum(m_out * state.rho1) - np.sum(m_in * state.rho0)
    return float(val.real)


def electrical_heat(config: ModelConfig, lead_label: str, current: float) -> float:
    """Heat carried into the lead by the particle flow at its own potential."""
    lead = config.lead_L if lead_label == "L" else config.lead_R
    return (config.system.mu - lead.chem_potential) * current


def mechanical_heat(
    config: ModelConfig,
    tensors: RedfieldTensors,
    state: BlockDensityMatrix,
    current: float,
) -> float:
    """Lead-resolved phonon-mediated heat flow (positive toward the lead)."""
    omega = config.system.omega
    lam = config.system.lam
    q_in, q_out = tensors.fock_weighted_matrices()
    pumped = np.sum(q_in * state.rho0).real - np.sum(q_out * state.rho1).real
    return -(omega * float(pumped) + omega * lam**2 * current)


def total_power(config: ModelConfig, current_l: float, current_r: float) -> float:
    return (
        config.lead_L.chem_potential * current_l + config.lead_R.chem_potential * current_r
    )


def zeta_witness(current_r: float, phonon_number_lab: float, omega: float) -> float:
    """Dimensionless self-oscillation witness |I_R| * <N_ph> / omega."""
    return abs(current_r) * phonon_number_lab / omega


def classify_mode(
    heat_l_total: float,
    heat_r_total: float,
    power: float,
    tol: float,
) -> str:
    """Thermodynamic operating mode, assuming the left lead is the hot one.

    Quantities smaller than ``tol`` in magnitude are treated as exactly
    zero before the sign pattern is matched.
    """

    def sgn(x: float) -> int:
        if abs(x) < tol:
            return 0
        return 1 if x > 0 else -1

    sl, sr, sp = sgn(heat_l_total), sgn(heat_r_total), sgn(power)
    if sl == 0 and sr == 0 and sp == 0:
        return "blockade"
    if sl > 0 and sr > 0:
        return "heater"
    if sl < 0 and sr > 0 and sp > 0:
        return "engine"
    if sl < 0 and sr > 0 and sp < 0:
        return "accelerator"
    if sl > 0 and sr < 0 and sp < 0:
        return "refrigerator"
    return "unclassified"


def default_mode_tol(config: ModelConfig) -> float:
    gbar = 0.5 * (config.lead_L.gamma_rate + config.lead_R.gamma_rate)
    return 1e-6 * config.system.omega * gbar


def eta_converter(torotropy_value: float, current_r: float, omega: float) -> float | None:
    """Current-to-oscillation conversion figure omega * T_Q / |I_R|; None at zero current."""
    if current_r == 0.0:
        return None
    return omega * torotropy_value / abs(current_r)


def eta_heater(heat_hot: float, power: float, t_hot: float, t_cold: float) -> float | None:
    """Useful-heating efficiency (1 - t_cold/t_hot) * |J_hot| / |P|; None at zero power."""
    if power == 0.0:
        return None
    return (1.0 - t_cold / t_hot) * abs(heat_hot) / abs(power)


@dataclass(frozen=True)
class ThermoReport:
    """All scalar steady-state outputs for one operating point."""

    occupation: float
    phonon_number: float
    current_l: float
    current_r: float
    heat_el_l: float
    heat_el_r: float
    heat_mec_l: float
    heat_mec_r: float
    power: float
    zeta: float
    mode: str
    first_law_residual: float
    eta_converter: float | None
    eta_heater: float | None

    @property
    def heat_total_l(self) -> float:
        return self.heat_el_l + self.heat_mec_l

    @property
    def heat_total_r(self) -> float:
        return self.heat_el_r + self.heat_mec_r


def build_report(
    config: ModelConfig,
    polaron_state: BlockDensityMatrix,
    lab_state: BlockDensityMatrix | None,
    tensors_l: RedfieldTensors,
    tensors_r: RedfieldTensors,
    *,
    torotropy_value: float | None = None,
) -> ThermoReport:
    """Assemble the full scalar report from a solved stationary state.

    ``lab_state`` may be None (degenerate phonon sector at lam = 0);
    phonon-basis quantities are then reported as nan.
    """
    i_l = particle_current(tensors_l, polaron_state)
    i_r = particle_current(tensors_r, polaron_state)
    jel_l = electrical_heat(config, "L", i_l)
    jel_r = electrical_heat(config, "R", i_r)
    jmec_l = mechanical_heat(config, tensors_l, polaron_state, i_l)
    jmec_r = mechanical_heat(config, tensors_r, polaron_state, i_r)
    power = total_power(config, i_l, i_r)
    first_law = jel_l + jel_r + jmec_l + jmec_r + power

    if lab_state is not None:
        n_ph = phonon_number(lab_state)
        zeta = zeta_witness(i_r, n_ph, config.system.omega)
    else:
        n_ph = float("nan")
        zeta = float("nan")

    mode = classify_mode(jel_l + jmec_l, jel_r + jmec_r, power, default_mode_tol(config))

    eta_c = None if torotropy_value is None else eta_converter(torotropy_value, i_r, config.system.omega)
    eta_h = None
    if mode == "heater":
        eta_h = eta_heater(jel_l + jmec_l, power, config.lead_L.temperature, config.lead_R.temperature)

    return ThermoReport(
        occupation=polaron_state.occupation,
        phonon_number=n_ph,
        current_l=i_l,
        current_r=i_r,
        heat_el_l=jel_l,
        heat_el_r=jel_r,
        heat_mec_l=jmec_l,
        heat_mec_r=jmec_r,
        power=power,
        zeta=zeta,
        mode=mode,
        first_law_residual=first_law,
        eta_converter=eta_c,
        eta_heater=eta_h,
    )
