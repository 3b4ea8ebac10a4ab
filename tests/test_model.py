"""Parameter containers, unit conversions, and regime validation."""

import math
from dataclasses import replace

import pytest

from conftest import make_config
from qdmr.model import (
    LeadParams,
    ModelConfig,
    SystemParams,
    angular_ghz,
    ghz_from_mk,
    validate_regime,
)


class TestUnits:
    def test_angular_conversion(self):
        assert angular_ghz(1.0) == 2.0 * math.pi
        assert angular_ghz(0.2) == pytest.approx(1.2566370614359172, rel=1e-15)

    def test_temperature_anchor_100mk(self):
        # three significant figures: 13.09 GHz
        assert round(ghz_from_mk(100.0), 2) == 13.09
        assert ghz_from_mk(100.0) == pytest.approx(13.0920339, rel=1e-7)

    def test_temperature_anchor_60mk(self):
        # three significant figures: 7.86 GHz
        assert round(ghz_from_mk(60.0), 2) == 7.86


class TestContainers:
    def test_chemical_potential_shift(self):
        system = SystemParams(omega=2.0, lam=0.5, mu_tilde=3.0, n_cut=8)
        assert system.mu == pytest.approx(3.0 + 2.0 * 0.25)

    def test_bias_split_is_symmetric(self):
        config = make_config().with_bias(-50.0)
        assert config.lead_L.chem_potential == -25.0
        assert config.lead_R.chem_potential == +25.0
        assert config.lead_L.chem_potential - config.lead_R.chem_potential == -50.0

    def test_leads_property_order(self):
        config = make_config()
        assert [lead.label for lead in config.leads] == ["L", "R"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega": 0.0, "lam": 0.5, "mu_tilde": 0.0, "n_cut": 8},
            {"omega": 1.0, "lam": -0.1, "mu_tilde": 0.0, "n_cut": 8},
            {"omega": 1.0, "lam": 0.5, "mu_tilde": 0.0, "n_cut": 1},
        ],
    )
    def test_system_rejects_bad_values(self, kwargs):
        good = make_config()
        with pytest.raises(ValueError):
            ModelConfig(
                system=SystemParams(**kwargs),
                lead_L=good.lead_L,
                lead_R=good.lead_R,
            )

    def test_lead_rejects_nonpositive_scales(self):
        for field, value in [
            ("gamma_rate", 0.0),
            ("delta", -1.0),
            ("temperature", 0.0),
        ]:
            kwargs = dict(
                label="L",
                gamma_rate=1.0,
                delta=10.0,
                gamma_center=0.0,
                temperature=13.0,
                chem_potential=0.0,
            )
            kwargs[field] = value
            good = make_config()
            with pytest.raises(ValueError):
                ModelConfig(
                    system=good.system,
                    lead_L=LeadParams(**kwargs),
                    lead_R=good.lead_R,
                )

    def test_config_rejects_duplicate_labels(self):
        good = make_config()
        with pytest.raises(ValueError):
            ModelConfig(
                system=good.system,
                lead_L=good.lead_L,
                lead_R=good.lead_L,
            )


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "section, key",
        [("system", key) for key in ("omega", "lam", "mu_tilde")]
        + [
            (lead, key)
            for lead in ("lead_L", "lead_R")
            for key in ("gamma_rate", "delta", "gamma_center", "temperature", "chem_potential")
        ],
    )
    def test_config_rejects_non_finite_values(self, section, key, value):
        good = make_config()
        params = replace(getattr(good, section), **{key: value})
        with pytest.raises(ValueError, match=f"{section}.{key} must be finite"):
            replace(good, **{section: params})


class TestRegimeValidation:
    def test_reference_point_is_clean(self):
        assert validate_regime(make_config()) == []

    def test_strong_tunneling_warns(self):
        config = make_config(gamma_cycles=1.5)
        warnings = validate_regime(config)
        assert any("gamma_rate" in w and "omega" in w for w in warnings)

    def test_warnings_are_strings(self):
        for message in validate_regime(make_config(gamma_cycles=5.0, delta=0.01)):
            assert isinstance(message, str) and message
