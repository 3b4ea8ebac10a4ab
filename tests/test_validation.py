"""Built-in validation suites must pass at the anchored parameters."""

from dataclasses import replace

import pytest

from qdmr import leads, validation


class TestSuites:
    def test_registry_is_complete(self):
        assert set(validation.SUITES) == {
            "oracle",
            "conservation",
            "markov",
            "truncation",
        }

    def test_oracle_suite(self):
        report = validation.validate_oracle()
        assert report["passed"]
        assert len(report["checks"]) == 21
        worst = max(c["value"] for c in report["checks"])
        assert worst < 1e-8

    def test_conservation_suite(self):
        report = validation.validate_conservation()
        assert report["passed"]
        assert len(report["checks"]) == 18
        assert all(c["value"] < 1e-8 for c in report["checks"])

    def test_markov_suite(self):
        report = validation.validate_markov()
        assert report["passed"]
        for check in report["checks"]:
            assert check["value"] < check["gate"]
        by_name = {c["name"]: c for c in report["checks"]}
        for label in ("L", "R"):
            assert by_name[f"sum_rule_lead_{label}"]["gate"] == 1e-10

    def test_sum_rule_gate_catches_a_broken_correlator(self):
        lead = validation.reference_config().lead_L
        trace = leads.bath_correlation(lead)
        assert validation.sum_rule_residual(lead, trace) <= 1e-14
        broken = replace(trace, c_in=1.001 * trace.c_in)
        assert validation.sum_rule_residual(lead, broken) > 1e-4

    def test_truncation_suite(self):
        report = validation.validate_truncation()
        assert report["passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["current_drift_rel"]["value"] < 1e-4
        assert by_name["torotropy_drift_rel"]["value"] < 0.01
        assert by_name["fock_tail_at_40"]["value"] < 1e-6

    def test_reports_are_json_shaped(self):
        report = validation.validate_oracle()
        assert {"suite", "passed", "checks"} <= set(report)
        for check in report["checks"]:
            assert {"name", "value", "gate", "passed"} <= set(check)


class TestReferenceConfig:
    def test_reference_defaults(self):
        config = validation.reference_config()
        assert config.system.lam == 0.7
        assert config.lead_L.temperature == pytest.approx(13.0920339, abs=1e-6)
        assert config.lead_L.chem_potential - config.lead_R.chem_potential == 0.0

    def test_temperature_difference_lowers_right_lead(self):
        config = validation.reference_config(delta_t_mk=40.0)
        assert config.lead_R.temperature < config.lead_L.temperature
