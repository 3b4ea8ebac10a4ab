"""Currents, heat flows, power, mode classification, and efficiencies."""

import numpy as np
import pytest

from qdmr.observables import (
    build_report,
    classify_mode,
    default_mode_tol,
    electrical_heat,
    eta_converter,
    eta_heater,
    mechanical_heat,
    particle_current,
    phonon_number,
    total_power,
    zeta_witness,
)
from qdmr.redfield import FrameError

from conftest import make_config, solve_point
from oracles import rate_equation_current


class TestParticleCurrent:
    def test_zero_coupling_matches_rate_equation(self):
        config = make_config(lam=0.0, mu_tilde=4.0, delta_mu=18.0, n_cut=6)
        tensors_l, tensors_r, state, _ = solve_point(config)
        expected = rate_equation_current(
            config.system.mu_tilde, config.lead_L, config.lead_R
        )
        assert particle_current(tensors_r, state) == pytest.approx(
            expected, rel=1e-10
        )
        assert particle_current(tensors_l, state) == pytest.approx(
            -expected, rel=1e-10
        )

    def test_currents_balance_at_finite_coupling(self):
        config = make_config(mu_tilde=-5.0, delta_mu=30.0, lam=0.7, n_cut=20)
        tensors_l, tensors_r, state, _ = solve_point(config)
        i_l = particle_current(tensors_l, state)
        i_r = particle_current(tensors_r, state)
        assert i_l + i_r == pytest.approx(0.0, abs=1e-12 * max(abs(i_r), 1.0))
        assert i_r != 0.0

    def test_no_current_without_bias_or_temperature_difference(self):
        config = make_config(mu_tilde=2.0, lam=0.7, n_cut=16)
        tensors_l, tensors_r, state, _ = solve_point(config)
        assert abs(particle_current(tensors_r, state)) < 1e-13


class TestHeatAndPower:
    def test_electrical_heat_formula(self):
        config = make_config(mu_tilde=3.0, delta_mu=20.0, lam=0.5)
        assert electrical_heat(config, "L", 0.25) == pytest.approx(
            (config.system.mu - 10.0) * 0.25, rel=1e-14
        )
        assert electrical_heat(config, "R", -0.25) == pytest.approx(
            (config.system.mu + 10.0) * -0.25, rel=1e-14
        )

    def test_mechanical_heat_vanishes_identically_at_zero_coupling(self):
        config = make_config(lam=0.0, mu_tilde=1.0, delta_mu=22.0, n_cut=6)
        tensors_l, tensors_r, state, _ = solve_point(config)
        i_l = particle_current(tensors_l, state)
        i_r = particle_current(tensors_r, state)
        assert mechanical_heat(config, tensors_l, state, i_l) == 0.0
        assert mechanical_heat(config, tensors_r, state, i_r) == 0.0

    def test_power_is_bias_times_current(self):
        config = make_config(delta_mu=40.0)
        assert total_power(config, 0.3, -0.3) == pytest.approx(
            40.0 * 0.3, rel=1e-14
        )

    def test_first_law_closes_at_strong_coupling(self):
        config = make_config(mu_tilde=-10.0, delta_mu=50.0, lam=0.7, n_cut=30)
        tensors_l, tensors_r, state, _ = solve_point(config)
        i_l = particle_current(tensors_l, state)
        i_r = particle_current(tensors_r, state)
        balance = (
            electrical_heat(config, "L", i_l)
            + electrical_heat(config, "R", i_r)
            + mechanical_heat(config, tensors_l, state, i_l)
            + mechanical_heat(config, tensors_r, state, i_r)
            + total_power(config, i_l, i_r)
        )
        scale = max(abs(total_power(config, i_l, i_r)), 1e-12)
        assert abs(balance) < 1e-10 * scale


class TestPhononNumber:
    def test_requires_lab_frame(self):
        config = make_config(lam=0.7, n_cut=12)
        _, _, state, lab = solve_point(config)
        with pytest.raises(FrameError):
            phonon_number(state)
        assert phonon_number(lab) >= 0.0

    def test_zeta_witness_formula(self):
        assert zeta_witness(-0.25, 3.0, 6.0) == pytest.approx(0.125, rel=1e-14)


class TestModeClassification:
    TOL = 1e-9

    def test_blockade_when_everything_is_tiny(self):
        assert classify_mode(1e-12, -1e-12, 1e-13, self.TOL) == "blockade"

    def test_heater(self):
        assert classify_mode(0.5, 0.7, -1.2, self.TOL) == "heater"
        assert classify_mode(0.5, 0.7, 1.2, self.TOL) == "heater"

    def test_engine(self):
        assert classify_mode(-1.0, 0.6, 0.4, self.TOL) == "engine"

    def test_accelerator(self):
        assert classify_mode(-1.0, 1.4, -0.4, self.TOL) == "accelerator"

    def test_refrigerator(self):
        assert classify_mode(0.3, -0.5, -0.2, self.TOL) == "refrigerator"

    def test_unclassified_pattern(self):
        assert classify_mode(-0.3, -0.5, 0.8, self.TOL) == "unclassified"

    def test_default_tolerance_scale(self):
        config = make_config()
        gbar = 0.5 * (config.lead_L.gamma_rate + config.lead_R.gamma_rate)
        assert default_mode_tol(config) == pytest.approx(
            1e-6 * config.system.omega * gbar, rel=1e-14
        )


class TestEfficiencies:
    def test_eta_converter(self):
        assert eta_converter(0.5, -0.2, 6.0) == pytest.approx(15.0, rel=1e-14)
        assert eta_converter(0.5, 0.0, 6.0) is None

    def test_eta_heater_default_reference_limit(self):
        val = eta_heater(2.0, -0.8, 13.0, 7.8)
        assert val == pytest.approx((1.0 - 7.8 / 13.0) * 2.0 / 0.8, rel=1e-14)

    def test_eta_heater_is_none_at_zero_power(self):
        assert eta_heater(2.0, 0.0, 13.0, 7.8) is None


class TestBuildReport:
    def test_full_report_is_consistent(self):
        config = make_config(
            mu_tilde=-5.0, delta_mu=60.0, lam=0.7, t_right_mk=60.0, n_cut=30
        )
        tensors_l, tensors_r, state, lab = solve_point(config)
        report = build_report(config, state, lab, tensors_l, tensors_r)
        assert report.current_l == pytest.approx(-report.current_r, abs=1e-12)
        assert report.heat_total_l == report.heat_el_l + report.heat_mec_l
        assert abs(report.first_law_residual) < 1e-10 * max(abs(report.power), 1e-12)
        assert report.zeta == pytest.approx(
            abs(report.current_r) * report.phonon_number / config.system.omega,
            rel=1e-12,
        )
        assert report.mode in {
            "blockade",
            "heater",
            "engine",
            "accelerator",
            "refrigerator",
            "unclassified",
        }
        assert report.eta_converter is None

    def test_report_with_torotropy_fills_converter_metric(self):
        config = make_config(mu_tilde=-5.0, delta_mu=60.0, lam=0.7, n_cut=20)
        tensors_l, tensors_r, state, lab = solve_point(config)
        report = build_report(
            config, state, lab, tensors_l, tensors_r, torotropy_value=0.4
        )
        assert report.eta_converter == pytest.approx(
            config.system.omega * 0.4 / abs(report.current_r), rel=1e-12
        )

    def test_report_without_lab_state_uses_nan(self):
        config = make_config(lam=0.0, mu_tilde=2.0, delta_mu=16.0, n_cut=6)
        tensors_l, tensors_r, state, _ = solve_point(config)
        report = build_report(config, state, None, tensors_l, tensors_r)
        assert np.isnan(report.phonon_number)
        assert np.isnan(report.zeta)
        assert report.heat_mec_l == 0.0
