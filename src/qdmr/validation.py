"""Built-in validation suites with anchored reference parameters.

The reference operating point is the experimentally motivated set used
throughout: both leads tunnel-coupled at 2*pi*0.2 GHz through 10 GHz
Lorentzian windows centered at -/+10 GHz, a 2*pi*1 GHz resonator, the
left lead at 100 mK, and a coupling of 0.7 unless stated otherwise.
Each suite returns a machine-readable report dict with per-check gates.
"""

from __future__ import annotations

import numpy as np

from . import leads, observables, phasespace, redfield
from .model import LeadParams, ModelConfig, SystemParams, angular_ghz, ghz_from_mk


def reference_config(
    *,
    delta_mu: float = 0.0,
    mu_tilde: float = 0.0,
    lam: float = 0.7,
    delta_t_mk: float = 0.0,
    n_cut: int = 30,
    gamma_cycles: float = 0.2,
) -> ModelConfig:
    """The anchored two-lead configuration (temperatures given via ``delta_t_mk``)."""
    g = angular_ghz(gamma_cycles)
    return ModelConfig(
        system=SystemParams(omega=angular_ghz(1.0), lam=lam, mu_tilde=mu_tilde, n_cut=n_cut),
        lead_L=LeadParams(
            label="L", gamma_rate=g, delta=10.0, gamma_center=-10.0,
            temperature=ghz_from_mk(100.0), chem_potential=+0.5 * delta_mu,
        ),
        lead_R=LeadParams(
            label="R", gamma_rate=g, delta=10.0, gamma_center=+10.0,
            temperature=ghz_from_mk(100.0 - delta_t_mk), chem_potential=-0.5 * delta_mu,
        ),
    )


def two_state_current(config: ModelConfig) -> float:
    """Closed-form uncoupled-resonator current into the right lead.

    At lam = 0 the resonator decouples and the dot follows a classical
    two-state rate equation; the current takes the series-conductance
    form with every rate evaluated at the dot level.
    """
    mu_t = config.system.mu_tilde
    g_l = leads.tunneling_rate(mu_t, config.lead_L)
    g_r = leads.tunneling_rate(mu_t, config.lead_R)
    f_l = leads.fermi(mu_t, config.lead_L.chem_potential, config.lead_L.temperature)
    f_r = leads.fermi(mu_t, config.lead_R.chem_potential, config.lead_R.temperature)
    return g_l * g_r / (g_l + g_r) * (f_l - f_r)


def _check(name: str, value: float, gate: float) -> dict:
    return {"name": name, "value": value, "gate": gate, "passed": bool(value <= gate)}


def _finish(suite: str, checks: list[dict]) -> dict:
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}


def validate_oracle() -> dict:
    """Uncoupled limit against the closed-form rate-equation current."""
    checks = []
    for mu_tilde in np.linspace(-60.0, 60.0, 21):
        config = reference_config(delta_mu=-50.0, mu_tilde=float(mu_tilde), lam=0.0, n_cut=6)
        sol = redfield.solve(config, allow_degenerate=True)
        i_r = observables.particle_current(sol.tensors[1], sol.polaron)
        expected = two_state_current(config)
        rel = abs(i_r - expected) / abs(expected)
        checks.append(_check(f"current_mu_tilde_{mu_tilde:+.0f}", rel, 1e-8))
    return _finish("oracle", checks)


def validate_conservation() -> dict:
    """Particle and energy closure on a small bias/level grid."""
    checks = []
    for mu_tilde in (-30.0, 0.0, 30.0):
        for delta_mu in (-50.0, 0.0, 50.0):
            config = reference_config(
                delta_mu=delta_mu, mu_tilde=mu_tilde, delta_t_mk=40.0, n_cut=20
            )
            sol = redfield.solve(config)
            report = observables.build_report(config, sol.polaron, None, *sol.tensors)
            tag = f"mu{mu_tilde:+.0f}_dmu{delta_mu:+.0f}"
            i_scale = max(abs(report.current_l), abs(report.current_r))
            checks.append(
                _check(f"particle_{tag}", abs(report.current_l + report.current_r) / i_scale, 1e-8)
            )
            e_scale = max(
                abs(report.heat_el_l), abs(report.heat_el_r),
                abs(report.heat_mec_l), abs(report.heat_mec_r), abs(report.power),
            )
            checks.append(
                _check(f"first_law_{tag}", abs(report.first_law_residual) / e_scale, 1e-8)
            )
    return _finish("conservation", checks)


def validate_markov() -> dict:
    """Bath memory must be short: both correlators decay below 1% in-window."""
    config = reference_config(delta_mu=-40.0, delta_t_mk=40.0)
    checks = []
    for lead in config.leads:
        trace = leads.bath_correlation(lead)
        ok = trace.converged
        checks.append(
            {
                "name": f"decay_lead_{lead.label}",
                "value": trace.decay_time if ok else float("nan"),
                "gate": float(trace.times[-1]),
                "passed": bool(ok),
            }
        )
    return _finish("markov", checks)


def validate_truncation() -> dict:
    """Observable drift when the Fock cutoff rises from 30 to 40.

    Evaluated at the edge of the reference bias cut, where the resonator
    stays near thermal occupancy and the cutoff actually converges.  The
    residual current drift there is set by the thermal Fock tail (a few
    1e-5 relative); the gate allows that with a modest margin.  Inside a
    self-oscillation window no fixed desk-scale cutoff converges to this
    precision; the sweep layer reports those points through its adaptive
    cutoff diagnostics instead.
    """
    results = {}
    for n in (30, 40):
        config = reference_config(delta_mu=-50.0, mu_tilde=-60.0, n_cut=n)
        sol = redfield.solve(config)
        i_r = observables.particle_current(sol.tensors[1], sol.polaron)
        tq = phasespace.torotropy(sol.lab, config.system.lam)
        results[n] = (i_r, tq.value, sol.lab.fock_tail)
    d_current = abs(results[40][0] - results[30][0]) / abs(results[40][0])
    tq_scale = max(abs(results[40][1]), abs(results[30][1]), 1e-12)
    d_tq = abs(results[40][1] - results[30][1]) / tq_scale
    checks = [
        _check("current_drift_rel", d_current, 1e-4),
        _check("torotropy_drift_rel", d_tq, 0.01),
        _check("fock_tail_at_40", results[40][2], 1e-6),
    ]
    return _finish("truncation", checks)


SUITES = {
    "oracle": validate_oracle,
    "conservation": validate_conservation,
    "markov": validate_markov,
    "truncation": validate_truncation,
}
