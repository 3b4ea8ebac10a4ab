"""Reservoir occupations, tunneling windows, and bath-memory diagnostics."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import digamma

from qdmr.leads import _digamma_difference, bath_correlation, fermi, rate_in, rate_out, tunneling_rate
from qdmr.model import LeadParams
from qdmr.validation import reference_config

from conftest import make_config
from oracles import (
    bath_correlation_all_poles, bath_correlation_quad, bath_correlation_zero_time, digamma_difference_exact,
    fermi_ref, lorentz_ref,
)


class TestFermi:
    @pytest.mark.parametrize("energy", [-40.0, -2.0, 0.0, 2.0, 40.0])
    def test_matches_reference(self, energy):
        assert fermi(energy, 1.5, 13.0) == pytest.approx(
            fermi_ref(energy, 1.5, 13.0), rel=1e-14
        )

    def test_overflow_clamps_to_exact_limits(self):
        assert fermi(1.0e6, 0.0, 1.0) == 0.0
        assert fermi(-1.0e6, 0.0, 1.0) == 1.0

    def test_half_filling_at_chemical_potential(self):
        assert fermi(3.7, 3.7, 8.0) == pytest.approx(0.5, rel=1e-15)

    def test_vectorized(self):
        e = np.linspace(-30.0, 30.0, 7)
        np.testing.assert_allclose(
            fermi(e, 2.0, 13.0), [fermi_ref(x, 2.0, 13.0) for x in e], rtol=1e-14
        )


class TestTunnelingWindow:
    def test_peak_value_at_center(self):
        lead = make_config().lead_L
        assert tunneling_rate(lead.gamma_center, lead) == pytest.approx(
            lead.gamma_rate, rel=1e-15
        )

    def test_half_maximum_at_half_width(self):
        lead = make_config().lead_L
        val = tunneling_rate(lead.gamma_center + lead.delta, lead)
        assert val == pytest.approx(0.5 * lead.gamma_rate, rel=1e-15)

    def test_matches_reference_formula(self):
        lead = make_config(delta_mu=30.0).lead_R
        e = np.linspace(-80.0, 80.0, 11)
        ref = [
            lorentz_ref(x, lead.gamma_rate, lead.delta, lead.gamma_center) for x in e
        ]
        np.testing.assert_allclose(tunneling_rate(e, lead), ref, rtol=1e-14)


class TestDirectionalRates:
    def test_in_plus_out_equals_window(self):
        lead = make_config(delta_mu=12.0, t_left_mk=80.0).lead_L
        e = np.linspace(-50.0, 50.0, 101)
        np.testing.assert_allclose(
            rate_in(e, lead) + rate_out(e, lead), tunneling_rate(e, lead), rtol=1e-14
        )

    def test_in_rate_vanishes_far_above_chemical_potential(self):
        lead = make_config().lead_L
        assert rate_in(lead.chem_potential + 1.0e5, lead) == 0.0


def _cold_lead():
    # delta > pi*T: the Lorentzian pole lies beyond the first Matsubara
    # poles and Re z2 = 1/2 - delta/(2 pi T) < 0 in the s = 0 digamma sum
    lead = make_config(t_left_mk=10.0).lead_L
    assert lead.delta > np.pi * lead.temperature
    return lead


def _centered_lead():
    lead = make_config(delta_mu=-20.0).lead_L
    assert lead.chem_potential == lead.gamma_center
    return lead


def _cold_far_lead(delta_mu):
    # lead R at 10 mK with mu_R = -delta_mu/2 = -/+150: outside the validated
    # ranges; the first grid time has 318 live poles, more than the
    # max(256, 16 max|z|) = 312 (delta_mu = 300) and 273 (delta_mu = -300)
    # poles the oracle sums directly before its Euler-Maclaurin tail
    return lambda: reference_config(delta_mu=delta_mu, delta_t_mk=90.0).lead_R


CORRELATION_CASES = {
    "reference_L": lambda: make_config(delta_mu=-40.0, t_right_mk=60.0).lead_L,
    "reference_R": lambda: make_config(delta_mu=-40.0, t_right_mk=60.0).lead_R,
    "cold_delta_above_pi_T": _cold_lead,
    "mu_at_window_center": _centered_lead,
    "10mK_mu_minus_150": _cold_far_lead(300.0),
    "10mK_mu_plus_150": _cold_far_lead(-300.0),
}


# the corners of the property tests' ranges, delta_t_mk in [0, 60] and
# delta_mu in [-150, 150] (lead L stays at 100 mK, lead R cools to 40 mK),
# and the two 10 mK leads outside them
ALL_POLES_CASES = {
    "reference_L": lambda: make_config(delta_mu=-40.0, t_right_mk=60.0).lead_L,
    "reference_R": lambda: make_config(delta_mu=-40.0, t_right_mk=60.0).lead_R,
    "hottest_mu_plus_75": lambda: reference_config(delta_mu=150.0).lead_L,
    "hottest_mu_minus_75": lambda: reference_config(delta_mu=-150.0).lead_L,
    "coldest_mu_plus_75": lambda: reference_config(delta_mu=-150.0, delta_t_mk=60.0).lead_R,
    "coldest_mu_minus_75": lambda: reference_config(delta_mu=150.0, delta_t_mk=60.0).lead_R,
    "10mK_mu_minus_150": _cold_far_lead(300.0),
    "10mK_mu_plus_150": _cold_far_lead(-300.0),
}


def _assert_matches_all_poles(trace, ref):
    for kind in ("c_out", "c_in"):
        got = getattr(trace, kind)
        err = np.abs(got - ref[kind]).max()
        assert err <= 1e-14 * abs(got[0]), (kind, err / abs(got[0]))


class TestLivePoles:
    """Skipping the pole terms below e^-50 changes nothing beyond rounding:
    the all-poles sum of the oracle agrees, with the same memory time."""

    @pytest.mark.parametrize("case", sorted(ALL_POLES_CASES))
    def test_matches_the_all_poles_sum(self, case):
        lead = ALL_POLES_CASES[case]()
        trace = bath_correlation(lead)
        ref = bath_correlation_all_poles(lead)
        _assert_matches_all_poles(trace, ref)
        assert trace.converged == ref["converged"]
        np.testing.assert_equal(trace.decay_time, ref["decay_time"])  # nan when not converged

    def test_default_grid_builds_no_times_x_poles_array(self):
        # 801 times x 256 poles of float64 is 1.6 MB; the live terms stay
        # far below, also on the leads whose first time has 318 live poles
        bath_correlation(make_config().lead_L)  # imports and caches outside the measurement
        for lead in (make_config().lead_L, _cold_far_lead(300.0)(), _cold_far_lead(-300.0)()):
            tracemalloc.start()
            try:
                bath_correlation(lead)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (lead, peak)


def _grid_lead(delta_over_h, offset_over_h):
    # delta / (2 pi T) and (mu - c) / (2 pi T) as given, at delta = 10 GHz
    temperature = 10.0 / (2.0 * np.pi * delta_over_h)
    return LeadParams(
        label="L", gamma_rate=1.0, delta=10.0, gamma_center=0.0,
        temperature=temperature, chem_potential=2.0 * np.pi * temperature * offset_over_h,
    )


# delta / (2 pi T) in [1e-3, 300] and (mu - c) / (2 pi T) in [-400, 400]
GRID_LEADS = [
    _grid_lead(a, y)
    for a in np.geomspace(1e-3, 300.0, 12)
    for y in np.concatenate([-np.geomspace(1e-3, 400.0, 6), [0.0], np.geomspace(1e-3, 400.0, 6)])
]


class TestDigammaDifference:
    """The s = 0 term's psi(z2) - psi(z1), formed as one difference with no
    SciPy.  It enters both C(0) as gamma*delta/(4 pi) times the difference,
    so each error is gated in units of |C(0)|.  SciPy's two values each
    carry about eps |psi| and cancel where a |C(0)| is small, so SciPy's
    difference is gated in units of the larger |C(0)|; the 40-digit value
    is gated in units of each |C(0)|, as the all-poles sum is, and
    TestLivePoles stays the binding gate at the leads of its cases."""

    @staticmethod
    def _errors(lead):
        """The C(0) errors against SciPy's and the 40-digit difference, and (|C_out(0)|, |C_in(0)|)."""
        h = 2.0 * np.pi * lead.temperature
        y = (lead.chem_potential - lead.gamma_center) / h
        z1, z2 = complex(0.5 + lead.delta / h, y), complex(0.5 - lead.delta / h, y)
        got = _digamma_difference(z1, z2)
        scale = lead.gamma_rate * lead.delta / (4.0 * np.pi)
        trace = bath_correlation(lead)
        return (
            scale * abs(got - complex(digamma(z2) - digamma(z1))),
            scale * abs(got - digamma_difference_exact(z1, z2)),
            (abs(trace.c_out[0]), abs(trace.c_in[0])),
        )

    @pytest.mark.parametrize("case", sorted(set(ALL_POLES_CASES) | set(CORRELATION_CASES)))
    def test_matches_scipy_and_the_40_digit_value_at_the_leads(self, case):
        # the cold lead and both 10 mK leads have Re z2 < 0, where SciPy reflects
        scipy_err, exact_err, c0 = self._errors({**ALL_POLES_CASES, **CORRELATION_CASES}[case]())
        assert scipy_err <= 1e-14 * max(c0), scipy_err / max(c0)
        assert exact_err <= 1e-14 * min(c0), exact_err / min(c0)

    def test_matches_scipy_and_the_40_digit_value_on_the_grid(self):
        worst_scipy = worst_exact = 0.0
        for lead in GRID_LEADS:
            scipy_err, exact_err, c0 = self._errors(lead)
            worst_scipy = max(worst_scipy, scipy_err / max(c0))
            worst_exact = max(worst_exact, exact_err / min(c0))
        assert worst_scipy <= 1e-14, worst_scipy
        assert worst_exact <= 1e-14, worst_exact


class TestBathCorrelation:
    def test_zero_time_values_match_quadrature(self):
        # The pole sum is exact at s = 0 (a digamma difference), and the
        # quadrature reference integrates the full 1/E^2 tails, so the
        # two agree to the quadrature's accuracy; C(0) is real.
        lead = make_config().lead_L
        trace = bath_correlation(lead)
        for kind, arr in (("out", trace.c_out), ("in", trace.c_in)):
            ref = bath_correlation_zero_time(lead, kind)
            assert arr[0].real == pytest.approx(ref, rel=1e-10)
            assert abs(arr[0].imag) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("case", sorted(CORRELATION_CASES))
    def test_matches_fourier_quadrature(self, case):
        lead = CORRELATION_CASES[case]()
        trace = bath_correlation(lead)
        idx = np.arange(1, trace.times.size, 40)  # every 40th point
        for kind, arr in (("out", trace.c_out), ("in", trace.c_in)):
            ref = np.array([bath_correlation_quad(lead, kind, s) for s in trace.times[idx]])
            err = np.abs(arr[idx] - ref).max()
            assert err <= 1e-9 * abs(arr[0]), (kind, err / abs(arr[0]))

    @pytest.mark.parametrize("case", sorted(CORRELATION_CASES))
    def test_sum_rule_holds_to_rounding(self, case):
        lead = CORRELATION_CASES[case]()
        trace = bath_correlation(lead)
        total = 0.5 * lead.gamma_rate * lead.delta
        assert abs((trace.c_in[0] + trace.c_out[0]).real - total) <= 1e-14 * total

    def test_memory_time_is_short_at_reference_point(self):
        trace = bath_correlation(make_config().lead_L)
        assert trace.converged
        assert 0.0 < trace.decay_time < 1.0

    def test_envelope_respects_threshold_past_decay_time(self):
        trace = bath_correlation(make_config().lead_R)
        env = np.maximum(
            np.abs(trace.c_out) / abs(trace.c_out[0]),
            np.abs(trace.c_in) / abs(trace.c_in[0]),
        )
        past = trace.times >= trace.decay_time
        assert np.all(env[past] < trace.threshold)
