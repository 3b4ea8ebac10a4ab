"""Husimi function, radial profiles, torotropy, and ergotropy."""

import math

import numpy as np
import pytest

from qdmr.phasespace import (
    EntropyDegenerateError,
    InvalidStateError,
    RadialProfile,
    barycenter,
    default_angles,
    ergotropy,
    husimi,
    profile_contribution,
    radial_profile,
    reduce_resonator,
    torotropy,
)
from qdmr.phonon import coherent_overlap
from qdmr.redfield import BlockDensityMatrix, FrameError

from conftest import make_config, solve_point
from oracles import (
    coherent_vector,
    husimi_coherent,
    husimi_einsum,
    husimi_fock,
    husimi_thermal,
    passive_energy_brute,
    rearrangement_gap_ref,
    thermal_matrix,
)

OMEGA = 2.0 * math.pi


def lab_state(rho: np.ndarray) -> BlockDensityMatrix:
    n = rho.shape[0]
    return BlockDensityMatrix(
        rho0=rho.astype(complex), rho1=np.zeros((n, n), dtype=complex), frame="lab"
    )


def fock_matrix(m: int, n_cut: int) -> np.ndarray:
    rho = np.zeros((n_cut, n_cut))
    rho[m, m] = 1.0
    return rho


def coherent_matrix(beta: complex, n_cut: int) -> np.ndarray:
    c = coherent_vector(beta, n_cut)
    return np.outer(c, c.conj())


class TestReduceResonator:
    def test_requires_lab_frame(self):
        _, _, state, _ = solve_point(make_config(lam=0.7, n_cut=12))
        with pytest.raises(FrameError):
            reduce_resonator(state)

    def test_reduction_of_solved_state(self):
        # the lab-frame trace misses unity only by the truncation tail
        _, _, _, lab = solve_point(make_config(lam=0.7, delta_mu=30.0, n_cut=20))
        rho, min_eig = reduce_resonator(lab)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-4)
        np.testing.assert_allclose(rho, rho.conj().T, atol=0)
        assert min_eig > -1e-6

    def test_small_negative_eigenvalue_is_clipped(self):
        rho = np.diag([0.8, 0.2 + 5e-5, -5e-5])
        state = lab_state(rho)
        cleaned, min_eig = reduce_resonator(state)
        assert min_eig == pytest.approx(-5e-5, rel=1e-10)
        assert np.linalg.eigvalsh(cleaned)[0] >= 0.0
        assert np.trace(cleaned).real == pytest.approx(1.0, abs=1e-14)

    def test_large_negative_eigenvalue_raises(self):
        rho = np.diag([0.8, 0.2 + 2e-4, -2e-4])
        with pytest.raises(InvalidStateError):
            reduce_resonator(lab_state(rho))


class TestHusimi:
    def test_vacuum_peak_value(self):
        rho = fock_matrix(0, 8)
        assert husimi(rho, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_fock_state_closed_form(self, m):
        rho = fock_matrix(m, 20)
        for alpha in (0.3, 1.0 + 0.5j, -1.7j):
            assert husimi(rho, alpha) == pytest.approx(
                husimi_fock(m, alpha), rel=1e-12
            )

    def test_coherent_state_closed_form(self):
        beta = 1.2 - 0.4j
        rho = coherent_matrix(beta, 40)
        for alpha in (0.0, beta, beta + 1.0, -0.5j):
            assert husimi(rho, alpha) == pytest.approx(
                husimi_coherent(beta, alpha), rel=1e-10
            )

    def test_thermal_state_closed_form(self):
        rho = thermal_matrix(0.8, 60)
        for alpha in (0.0, 0.9, 1.5j):
            assert husimi(rho, alpha) == pytest.approx(
                husimi_thermal(0.8, alpha), rel=1e-10
            )

    def test_vectorized_grid_normalizes_to_one(self):
        rho = thermal_matrix(0.5, 40)
        xs = np.linspace(-6.0, 6.0, 241)
        grid = xs[:, None] + 1j * xs[None, :]
        q = husimi(rho, grid)
        assert q.shape == grid.shape
        integral = q.sum() * (xs[1] - xs[0]) ** 2
        assert integral == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("shape", [(), (7,), (9, 11)])
    def test_blas_form_matches_the_einsum_contraction(self, shape):
        # the two contractions sum in different orders; each is within the
        # 2n-term rounding bound n*eps of the absolute-value form
        _, _, _, lab = solve_point(make_config(lam=1.4, delta_mu=-50.0, n_cut=20))
        rho, _ = reduce_resonator(lab)
        rng = np.random.default_rng(7)
        alpha = rng.uniform(-4.0, 4.0, shape) + 1j * rng.uniform(-4.0, 4.0, shape)
        alpha = complex(alpha) if shape == () else alpha
        q = husimi(rho, alpha)
        assert isinstance(q, float) == (shape == ())
        c = coherent_overlap(alpha, rho.shape[0])
        bound = 2 * rho.shape[0] * np.finfo(float).eps * husimi_einsum(np.abs(rho), np.abs(c))
        assert np.all(np.abs(q - husimi_einsum(rho, c)) <= bound)


class TestBarycenter:
    def test_vacuum_is_centered(self):
        assert barycenter(fock_matrix(0, 6)) == 0.0

    def test_coherent_state_returns_amplitude(self):
        beta = 0.9 - 0.3j
        assert barycenter(coherent_matrix(beta, 50)) == pytest.approx(beta, rel=1e-10)

    def test_matches_lowering_operator_trace(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        b = np.diag(np.sqrt(np.arange(1, 12)), k=1)
        assert barycenter(rho) == pytest.approx(np.trace(rho @ b), rel=1e-12)


class TestRadialProfile:
    def test_profile_integrates_to_one(self):
        prof = radial_profile(thermal_matrix(1.0, 40), 0.0, 0.7)
        assert prof.values.sum() * prof.dr == pytest.approx(1.0, abs=1e-9)

    def test_fock_one_peaks_near_unit_radius(self):
        prof = radial_profile(fock_matrix(1, 20), 0.0, 0.0)
        peak_r = prof.radii[np.argmax(prof.values)]
        assert peak_r == pytest.approx(1.0, abs=0.05)

    def test_rotational_symmetry_of_fock_states(self):
        rho = fock_matrix(2, 20)
        base = radial_profile(rho, 0.0, 0.0)
        for phi in (0.9, 2.5, 4.4):
            other = radial_profile(rho, 0.0, phi)
            np.testing.assert_allclose(other.values, base.values, atol=1e-10)

    def test_auto_extent_reaches_the_tail(self):
        rho = thermal_matrix(2.0, 60)
        prof = radial_profile(rho, 0.0, 0.0)
        assert husimi(rho, prof.radii[-1]) < 1e-9

    def test_zero_ray_raises(self):
        rho = fock_matrix(0, 8)
        with pytest.raises(InvalidStateError):
            radial_profile(rho, 30.0, 0.0)


class TestProfileContribution:
    def test_monotone_profile_has_exactly_zero_gap(self):
        prof = radial_profile(thermal_matrix(1.5, 40), 0.0, 1.1)
        gap, entropy = profile_contribution(prof)
        assert gap == 0.0
        assert entropy > 0.0

    def test_gap_matches_loop_reference(self):
        prof = radial_profile(fock_matrix(2, 20), 0.0, 0.3)
        gap, _ = profile_contribution(prof)
        ref = rearrangement_gap_ref(prof.radii, prof.values, prof.dr)
        assert gap == pytest.approx(ref, rel=1e-12)
        assert gap > 0.0

    def test_degenerate_entropy_raises(self):
        # one huge bin: normalized value 1/dr >> 1, entropy goes negative
        radii = np.arange(0.0, 0.1, 0.02)
        values = np.zeros_like(radii)
        values[2] = 1.0 / 0.02
        prof = RadialProfile(
            phi=0.0, radii=radii, values=values, dr=0.02
        )
        with pytest.raises(EntropyDegenerateError):
            profile_contribution(prof)


class TestTorotropy:
    def test_default_angle_fan_widens_at_strong_coupling(self):
        assert len(default_angles(0.7)) == 4
        assert len(default_angles(1.3)) == 16

    @pytest.mark.parametrize(
        "rho_builder",
        [
            lambda: fock_matrix(0, 12),
            lambda: thermal_matrix(0.1, 30),
            lambda: thermal_matrix(1.0, 40),
            lambda: thermal_matrix(5.0, 60),
        ],
        ids=["vacuum", "thermal-0.1", "thermal-1", "thermal-5"],
    )
    def test_passive_states_score_exactly_zero(self, rho_builder):
        res = torotropy(lab_state(rho_builder()), 0.7)
        assert res.value == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_fock_states_score_positive(self, m):
        res = torotropy(lab_state(fock_matrix(m, 25)), 0.7)
        assert res.value > 0.5

    def test_fock_contributions_are_angle_independent(self):
        res = torotropy(lab_state(fock_matrix(2, 25)), 0.7)
        contribs = [c for _, c, _ in res.per_angle]
        assert max(contribs) - min(contribs) < 1e-8

    def test_frozen_fock_two_value(self):
        res = torotropy(lab_state(fock_matrix(2, 25)), 0.7)
        assert res.value == pytest.approx(1.0843784342106568, rel=1e-10)

    def test_statistical_mixture_of_opposite_coherent_states_scores_zero(self):
        # a classical blob pair: every centered ray profile is monotone,
        # so the minimum over angles is exactly zero
        mix = 0.5 * (coherent_matrix(2.0, 40) + coherent_matrix(-2.0, 40))
        res = torotropy(lab_state(mix.real), 0.7)
        assert res.value == 0.0

    def test_even_superposition_of_opposite_coherent_states_scores_positive(self):
        c1 = coherent_vector(2.0, 40)
        c2 = coherent_vector(-2.0, 40)
        psi = c1 + c2
        psi /= np.linalg.norm(psi)
        cat = np.outer(psi, psi.conj()).real
        res = torotropy(lab_state(cat), 0.7)
        assert res.value > 0.1

    def test_value_is_stable_under_step_refinement(self):
        state = lab_state(fock_matrix(2, 25))
        coarse = torotropy(state, 0.7, dr=0.02).value
        fine = torotropy(state, 0.7, dr=0.01).value
        assert abs(fine - coarse) / coarse < 0.01

    def test_anchor_and_barycenter_are_reported(self):
        config = make_config(mu_tilde=-5.0, delta_mu=60.0, lam=0.7, n_cut=30)
        _, _, _, lab = solve_point(config)
        res = torotropy(lab, config.system.lam)
        assert res.anchor == pytest.approx(
            -config.system.lam * lab.occupation, rel=1e-12
        )
        rho, _ = reduce_resonator(lab)
        assert res.barycenter == pytest.approx(barycenter(rho), rel=1e-12)


class TestErgotropy:
    def test_thermal_states_are_passive(self):
        assert ergotropy(thermal_matrix(1.3, 40), OMEGA) == 0.0

    def test_fock_one_yields_one_quantum(self):
        assert ergotropy(fock_matrix(1, 12), OMEGA) == pytest.approx(
            OMEGA, rel=1e-12
        )

    def test_coherent_state_yields_full_displacement_energy(self):
        beta = 1.1
        val = ergotropy(coherent_matrix(beta, 50), OMEGA)
        assert val == pytest.approx(OMEGA * beta**2, rel=1e-8)

    def test_matches_permutation_brute_force(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        energy = OMEGA * float(np.sum(np.arange(5) * np.diagonal(rho).real))
        expected = energy - passive_energy_brute(rho, OMEGA)
        assert ergotropy(rho, OMEGA) == pytest.approx(expected, rel=1e-12)
