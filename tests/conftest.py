"""Shared fixtures: configuration builders and cached grid solves."""

from __future__ import annotations

import numpy as np
import pytest

from qdmr.model import LeadParams, ModelConfig, SystemParams, angular_ghz, ghz_from_mk
from qdmr.observables import build_report
from qdmr.phasespace import reduce_resonator, torotropy
from qdmr.redfield import solve


def make_config(
    *,
    mu_tilde: float = 0.0,
    delta_mu: float = 0.0,
    lam: float = 0.7,
    t_left_mk: float = 100.0,
    t_right_mk: float = 100.0,
    n_cut: int = 30,
    gamma_cycles: float = 0.2,
    omega_cycles: float = 1.0,
    delta: float = 10.0,
    gamma_center: float = 10.0,
) -> ModelConfig:
    """Experimentally motivated lead/resonator parameter set."""
    gamma = angular_ghz(gamma_cycles)
    system = SystemParams(
        omega=angular_ghz(omega_cycles), lam=lam, mu_tilde=mu_tilde, n_cut=n_cut
    )
    lead_l = LeadParams(
        label="L",
        gamma_rate=gamma,
        delta=delta,
        gamma_center=-gamma_center,
        temperature=ghz_from_mk(t_left_mk),
        chem_potential=+0.5 * delta_mu,
    )
    lead_r = LeadParams(
        label="R",
        gamma_rate=gamma,
        delta=delta,
        gamma_center=+gamma_center,
        temperature=ghz_from_mk(t_right_mk),
        chem_potential=-0.5 * delta_mu,
    )
    return ModelConfig(system=system, lead_L=lead_l, lead_R=lead_r)


def solve_point(config: ModelConfig, *, allow_degenerate: bool = False):
    """One full solve: (tensors_l, tensors_r, polaron, lab, info); lab is None when degenerate."""
    sol = solve(config, allow_degenerate=allow_degenerate)
    return (*sol.tensors, sol.polaron, sol.lab, sol.info)


def polaron_coherence(state) -> float:
    """|tr(rho_qmr b)| of the polaron-frame reduced resonator state."""
    rho = state.rho0 + state.rho1
    k = np.arange(1, rho.shape[0])
    return abs(complex(np.sum(np.sqrt(k) * np.diagonal(rho, -1))))


@pytest.fixture(scope="session")
def bias_grid_rows():
    """9x9 (mu_tilde, delta_mu) grid at lam=0.7, 40 mK bias, cutoff 30.

    Shared by the conservation and barycenter acceptance checks; each row
    carries the full thermodynamic report, the polaron coherence and the
    lab-frame Fock tail (the weight in the top tenth of the cutoff).  The
    coherence is a truncation residue: it shrinks with the cutoff where
    the tail is small, but in the wall-bound corner of the grid, where
    the state presses against the cutoff, it grows with N.
    """
    rows = []
    for mu_t in np.linspace(-60.0, 60.0, 9):
        for dmu in np.linspace(-150.0, 150.0, 9):
            config = make_config(
                mu_tilde=float(mu_t), delta_mu=float(dmu), t_right_mk=60.0
            )
            tl, tr, state, lab, info = solve_point(config)
            report = build_report(config, state, lab, tl, tr)
            rows.append(
                {
                    "mu_tilde": float(mu_t),
                    "delta_mu": float(dmu),
                    "report": report,
                    "coherence": polaron_coherence(state),
                    "tail": lab.fock_tail,
                    "occupation": state.occupation,
                    "residual": info.residual,
                }
            )
    return rows


@pytest.fixture(scope="session")
def so_cut_rows():
    """61-point mu_tilde cut at delta_mu=-50, equal temperatures, cutoff 30.

    The self-oscillation window of this cut drives the switching-effect,
    ergotropy-witness, and truncation acceptance checks.
    """
    rows = []
    for mu_t in np.linspace(-60.0, 60.0, 61):
        config = make_config(mu_tilde=float(mu_t), delta_mu=-50.0)
        tl, tr, state, lab, info = solve_point(config)
        rho, _ = reduce_resonator(lab)
        result = torotropy(lab, config.system.lam)
        report = build_report(
            config, state, lab, tl, tr, torotropy_value=result.value
        )
        rows.append(
            {
                "mu_tilde": float(mu_t),
                "report": report,
                "torotropy": result.value,
                "rho_qmr": rho,
            }
        )
    return rows
