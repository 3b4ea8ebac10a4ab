"""Parameter containers and unit conventions.

All energies, frequencies and temperatures are stored as angular
frequencies in units of 10**9 rad/s, written "GHz" throughout.  A value
quoted in cycles ("X/(2pi) = n GHz") must be multiplied by 2*pi before
it is stored; see :func:`angular_ghz`.  Temperatures quoted in mK
convert through k_B/hbar, see :func:`ghz_from_mk` (100 mK ~ 13.09 GHz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

# k_B / hbar expressed in (10^9 rad/s) per mK
KB_OVER_HBAR_GHZ_PER_MK = 1.380649e-23 / 1.054571817e-34 / 1e12


def angular_ghz(cycles_ghz: float) -> float:
    """Convert a value quoted as 'X/(2pi) = n GHz' to stored angular units."""
    return 2.0 * math.pi * cycles_ghz


def ghz_from_mk(temperature_mk: float) -> float:
    """Temperature in mK to angular-frequency units (10^9 rad/s)."""
    return KB_OVER_HBAR_GHZ_PER_MK * temperature_mk


@dataclass(frozen=True)
class LeadParams:
    """One fermionic reservoir with a Lorentzian tunneling window.

    Parameters
    ----------
    label : str
        'L' or 'R'.
    gamma_rate : float
        Bare tunneling rate (peak of the Lorentzian), angular GHz.
    delta : float
        Half-width of the Lorentzian energy window, GHz.
    gamma_center : float
        Center of the Lorentzian window, GHz.
    temperature : float
        Lead temperature, GHz.
    chem_potential : float
        Lead chemical potential, GHz.
    """

    label: str
    gamma_rate: float
    delta: float
    gamma_center: float
    temperature: float
    chem_potential: float


@dataclass(frozen=True)
class SystemParams:
    """Dot level, resonator frequency and electromechanical coupling.

    ``mu_tilde`` is the coupling-renormalized dot level; the bare level
    is recovered as ``mu = mu_tilde + omega * lam**2``.  ``n_cut`` is
    the Fock-space truncation of the resonator.
    """

    omega: float
    lam: float
    mu_tilde: float
    n_cut: int

    @property
    def mu(self) -> float:
        return self.mu_tilde + self.omega * self.lam**2


@dataclass(frozen=True)
class ModelConfig:
    system: SystemParams
    lead_L: LeadParams
    lead_R: LeadParams

    def __post_init__(self) -> None:
        for section in ("system", "lead_L", "lead_R"):
            params = getattr(self, section)
            for f in fields(params):
                value = getattr(params, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{section}.{f.name} must be finite, got {value!r}")
        s = self.system
        if not (s.omega > 0):
            raise ValueError("omega must be positive")
        if s.lam < 0:
            raise ValueError("lam must be non-negative")
        if s.n_cut < 2:
            raise ValueError("n_cut must be at least 2")
        for lead in (self.lead_L, self.lead_R):
            if lead.label not in ("L", "R"):
                raise ValueError(f"lead label must be 'L' or 'R', got {lead.label!r}")
            if not (lead.gamma_rate > 0 and lead.delta > 0 and lead.temperature > 0):
                raise ValueError(f"lead {lead.label}: gamma_rate, delta, temperature must be positive")
        if self.lead_L.label == self.lead_R.label:
            raise ValueError("lead labels must differ")

    @property
    def leads(self) -> tuple[LeadParams, LeadParams]:
        return (self.lead_L, self.lead_R)

    def with_bias(self, delta_mu: float) -> "ModelConfig":
        """New config with the bias split symmetrically: mu_L = +delta_mu/2, mu_R = -delta_mu/2."""
        return replace(
            self,
            lead_L=replace(self.lead_L, chem_potential=+0.5 * delta_mu),
            lead_R=replace(self.lead_R, chem_potential=-0.5 * delta_mu),
        )


def validate_regime(config: ModelConfig) -> list[str]:
    """Check the weak-coupling / wide-window conditions the master equation assumes.

    Returns a list of warning strings, one per violated condition; an
    empty list means every condition holds with these margins: tunneling
    much slower than thermal fluctuations (gamma_rate < 0.25 * temperature),
    much slower than the resonator (gamma_rate < 0.25 * omega), and a
    tunneling window much wider than the rate (delta > 5 * gamma_rate).
    Violations are advisory only; results degrade gracefully.
    """
    warnings = []
    omega = config.system.omega
    for lead in config.leads:
        g = lead.gamma_rate
        if g >= 0.25 * lead.temperature:
            warnings.append(
                f"lead {lead.label}: gamma_rate={g:.4g} not small vs temperature={lead.temperature:.4g}"
            )
        if g >= 0.25 * omega:
            warnings.append(f"lead {lead.label}: gamma_rate={g:.4g} not small vs omega={omega:.4g}")
        if lead.delta <= 5.0 * g:
            warnings.append(f"lead {lead.label}: window delta={lead.delta:.4g} not wide vs gamma_rate={g:.4g}")
    return warnings
