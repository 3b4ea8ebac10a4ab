"""Reservoir occupations, tunneling windows, and bath-memory diagnostics."""

import tracemalloc

import numpy as np
import pytest

from qdmr.leads import TERM_BLOCK, bath_correlation, fermi, rate_in, rate_out, tunneling_rate
from qdmr.validation import reference_config

from conftest import make_config
from oracles import (
    bath_correlation_all_poles, bath_correlation_quad, bath_correlation_zero_time, fermi_ref, lorentz_ref,
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


# times short enough that the Matsubara tail past the directly summed
# poles carries weight
FINE_GRID = np.array([0.0, 1e-6, 1e-4, 3e-3, 0.05, 0.4, 1.3])

CORRELATION_CASES = {
    "reference_L": (lambda: make_config(delta_mu=-40.0, t_right_mk=60.0).lead_L, None),
    "reference_R": (lambda: make_config(delta_mu=-40.0, t_right_mk=60.0).lead_R, None),
    "cold_delta_above_pi_T": (_cold_lead, None),
    "mu_at_window_center": (_centered_lead, None),
    "custom_grid_with_1e-6_ns": (lambda: make_config(delta_mu=-40.0).lead_R, FINE_GRID),
    "cold_custom_grid_with_1e-6_ns": (_cold_lead, FINE_GRID),
}


# the 2^17 times at 1e-6 ns spacing of the memory test below
LONG_FINE_GRID = np.linspace(0.0, 2**17 * 1e-6, 2**17 + 1)

# unsorted and non-uniform, with negative times and a repeated 0; some
# times sit near where a pole's term drops below e^-50 at the reference
# temperature (s*nu = 50 for nu = 2pi*T*(k + 1/2), k = 0, 16, 32)
MIXED_GRID = np.array(
    [0.7, -0.03, 0.0, 2.5, 1e-5, -1.1, 0.0, 0.004, 0.31, -0.0007, 1.2154, 0.0368, -0.0187, 0.0186, 5.0]
)

# property tests: delta_t_mk in [0, 60] and delta_mu in [-150, 150]; lead L
# stays at 100 mK, lead R cools to 40 mK
ALL_POLES_CASES = {
    "reference_L": (lambda: make_config(delta_mu=-40.0, t_right_mk=60.0).lead_L, None),
    "reference_R": (lambda: make_config(delta_mu=-40.0, t_right_mk=60.0).lead_R, None),
    "mixed_grid": (lambda: make_config(delta_mu=-40.0).lead_L, MIXED_GRID),
    "cold_mixed_grid": (_cold_lead, MIXED_GRID),
    "long_fine_grid_subsample": (lambda: make_config().lead_L, LONG_FINE_GRID[:: 2**5]),
    "hottest_mu_plus_75": (lambda: reference_config(delta_mu=150.0).lead_L, None),
    "hottest_mu_minus_75": (lambda: reference_config(delta_mu=-150.0).lead_L, None),
    "coldest_mu_plus_75": (lambda: reference_config(delta_mu=-150.0, delta_t_mk=60.0).lead_R, None),
    "coldest_mu_minus_75": (lambda: reference_config(delta_mu=150.0, delta_t_mk=60.0).lead_R, None),
}


def _assert_matches_all_poles(trace, ref, index=slice(None)):
    zero = np.flatnonzero(trace.times == 0.0)[0]
    for kind in ("c_out", "c_in"):
        got = getattr(trace, kind)
        err = np.abs(got[index] - ref[kind]).max()
        assert err <= 1e-14 * abs(got[zero]), (kind, err / abs(got[zero]))


class TestLivePoles:
    """Skipping the pole terms below e^-50 changes nothing beyond rounding:
    the all-poles sum of the oracle agrees, with the same memory time."""

    @pytest.mark.parametrize("case", sorted(ALL_POLES_CASES))
    def test_matches_the_all_poles_sum(self, case):
        make_lead, times = ALL_POLES_CASES[case]
        lead = make_lead()
        trace = bath_correlation(lead, times)
        ref = bath_correlation_all_poles(lead, times)
        _assert_matches_all_poles(trace, ref)
        assert trace.converged == ref["converged"]
        np.testing.assert_equal(trace.decay_time, ref["decay_time"])  # nan when not converged

    def test_long_fine_grid_matches_the_all_poles_sum_at_a_subsample(self):
        # about 3M live terms: many passes of TERM_BLOCK terms each
        lead = make_config().lead_L
        trace = bath_correlation(lead, LONG_FINE_GRID)
        ref = bath_correlation_all_poles(lead, LONG_FINE_GRID[:: 2**5])
        _assert_matches_all_poles(trace, ref, slice(None, None, 2**5))

    def test_blocking_over_times_changes_no_bit(self):
        # each time's terms are summed in pole order, so calls on pieces of
        # the grid, split inside a pass of the whole call, give the same bits
        lead = make_config().lead_L
        h = 2.0 * np.pi * lead.temperature
        s = LONG_FINE_GRID[1:]
        assert np.minimum(256, np.floor(50.0 / (h * s) + 0.5)).sum() > 10 * TERM_BLOCK
        whole = bath_correlation(lead, LONG_FINE_GRID)
        # the first pass holds TERM_BLOCK / 256 > 100 times of 256 live poles
        pieces = [bath_correlation(lead, LONG_FINE_GRID[i:j]) for i, j in ((0, 100), (100, 70001), (70001, None))]
        for kind in ("c_out", "c_in"):
            np.testing.assert_array_equal(getattr(whole, kind), np.concatenate([getattr(p, kind) for p in pieces]))

    def test_default_grid_builds_no_times_x_poles_array(self):
        # 801 times x 256 poles of float64 is 1.6 MB; the live blocks stay
        # far below
        lead = make_config().lead_L
        bath_correlation(lead)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            bath_correlation(lead)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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
        make_lead, times = CORRELATION_CASES[case]
        lead = make_lead()
        trace = bath_correlation(lead, times)
        if times is None:  # every 40th point of the default grid
            idx = np.arange(1, trace.times.size, 40)
        else:
            idx = np.arange(1, times.size)
        for kind, arr in (("out", trace.c_out), ("in", trace.c_in)):
            ref = np.array([bath_correlation_quad(lead, kind, s) for s in trace.times[idx]])
            err = np.abs(arr[idx] - ref).max()
            assert err <= 1e-9 * abs(arr[0]), (kind, err / abs(arr[0]))

    @pytest.mark.parametrize("case", sorted(CORRELATION_CASES))
    def test_sum_rule_holds_to_rounding(self, case):
        make_lead, times = CORRELATION_CASES[case]
        lead = make_lead()
        trace = bath_correlation(lead, times)
        total = 0.5 * lead.gamma_rate * lead.delta
        assert abs((trace.c_in[0] + trace.c_out[0]).real - total) <= 1e-14 * total

    def test_negative_times_are_conjugates(self):
        lead = make_config(delta_mu=-40.0).lead_L
        times = np.array([0.03, 0.2, 0.9])
        fwd = bath_correlation(lead, times)
        back = bath_correlation(lead, -times)
        np.testing.assert_array_equal(back.c_out, np.conj(fwd.c_out))
        np.testing.assert_array_equal(back.c_in, np.conj(fwd.c_in))

    def test_memory_bounded_on_long_fine_grids(self):
        # 2^17 times at 1e-6 ns spacing: one times x poles array would
        # take 256 MB; chunked, the peak stays near the output vectors
        lead = make_config().lead_L
        times = np.linspace(0.0, 2**17 * 1e-6, 2**17 + 1)
        tracemalloc.start()
        try:
            fine = bath_correlation(lead, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        coarse = bath_correlation(lead, times[:: 2**12])
        np.testing.assert_allclose(fine.c_out[:: 2**12], coarse.c_out, rtol=0, atol=1e-14)
        np.testing.assert_allclose(fine.c_in[:: 2**12], coarse.c_in, rtol=0, atol=1e-14)

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

    def test_custom_time_grid_is_respected(self):
        times = np.linspace(0.0, 3.0, 91)
        trace = bath_correlation(make_config().lead_L, times)
        np.testing.assert_array_equal(trace.times, times)
        assert trace.c_out.shape == times.shape
