"""Shared fixtures: configuration builders and cached grid solves."""

from __future__ import annotations

import numpy as np
import pytest

from qdmr.model import LeadParams, ModelConfig, SystemParams, angular_ghz, ghz_from_mk
from qdmr.redfield import _row_blocks, build_tensors
from qdmr.sweep import evaluate_point


# the mu_tilde of the seed-1 adaptive-eq benchmark points (delta_mu = 0, lam = 0.7)
ADAPTIVE_EQ_MU = (
    -57.80560420424292, -34.42304671109599, -11.040489217949059,
    12.342068275197867, 35.7246257683448, 59.107183261491734,
)


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


def solve_point(config: ModelConfig):
    """One solve, for tests of a single layer: (tensors_l, tensors_r, polaron, lab);
    lab is None at lam = 0.  Tests of the program's outputs use ``evaluate_point``."""
    point = evaluate_point(config, ())
    return (*build_tensors(config), point.polaron_state, point.lab_state)


def generator_matrix(liou) -> np.ndarray:
    """The dense generator, read through the row-block pass that fills the solve's LU buffer."""
    dim = 2 * liou.n_cut**2
    out = np.empty((dim, dim), dtype=complex)
    for start, block in _row_blocks(liou):
        out[start : start + len(block)] = block
    return out


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
            config = make_config(mu_tilde=float(mu_t), delta_mu=float(dmu), t_right_mk=60.0)
            point = evaluate_point(config, ("transport", "thermo"))
            rows.append({
                "mu_tilde": float(mu_t),
                "delta_mu": float(dmu),
                "report": point.report,
                "coherence": polaron_coherence(point.polaron_state),
                "tail": point.lab_state.fock_tail,
            })
    return rows


@pytest.fixture(scope="session")
def so_cut_rows():
    """61-point mu_tilde cut at delta_mu=-50, equal temperatures, cutoff 30,
    as (mu_tilde, evaluated point) pairs.

    The self-oscillation window of this cut drives the switching-effect
    and ergotropy-witness acceptance checks.
    """
    return [
        (float(mu_t), evaluate_point(make_config(mu_tilde=float(mu_t), delta_mu=-50.0)))
        for mu_t in np.linspace(-60.0, 60.0, 61)
    ]
