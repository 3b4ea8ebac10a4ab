"""Transition tensors, generator assembly, and the steady-state solver."""

import numpy as np
import pytest

from qdmr.redfield import (
    BlockDensityMatrix,
    DegenerateSteadyStateError,
    FrameError,
    assemble_liouvillian,
    build_tensors,
    load_state,
    save_state,
    steady_state,
    to_lab_frame,
)

from conftest import make_config
from oracles import (
    fermi_ref,
    liouvillian_matrix_ref,
    lorentz_ref,
    master_rhs_ref,
    steady_state_expm,
    tensors_dense_ref,
)

ASYM = dict(
    mu_tilde=3.0, delta_mu=14.0, lam=0.9, t_left_mk=90.0, t_right_mk=55.0, n_cut=6
)


def _random_hermitian_pair(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T, b + b.conj().T


class TestTensors:
    @pytest.mark.parametrize("side", ["lead_L", "lead_R"])
    def test_dense_blocks_match_literal_loops(self, side):
        config = make_config(**ASYM)
        lead = getattr(config, side)
        tensors = build_tensors(config, lead)
        ref = tensors_dense_ref(
            config.system.mu_tilde, config.system.omega, lead, tensors.displacement
        )
        for name in ("r00", "r01", "r11", "r10"):
            np.testing.assert_allclose(tensors.dense()[name], ref[name], atol=1e-13)

    def test_current_matrices_are_diagonal_tensor_sums(self):
        config = make_config(**ASYM)
        tensors = build_tensors(config, config.lead_L)
        dense = tensors.dense()
        m_in, m_out = tensors.current_matrices()
        np.testing.assert_allclose(
            m_in, np.einsum("jjkl->kl", dense["r01"]), atol=1e-13
        )
        np.testing.assert_allclose(
            m_out, np.einsum("jjkl->kl", dense["r10"]), atol=1e-13
        )

    def test_fock_weighted_matrices_match_dense_sums(self):
        config = make_config(**ASYM)
        tensors = build_tensors(config, config.lead_R)
        dense = tensors.dense()
        j = np.arange(config.system.n_cut, dtype=float)
        q_in, q_out = tensors.fock_weighted_matrices()
        np.testing.assert_allclose(
            q_in,
            np.einsum("j,jjkl->kl", j, dense["r01"] - dense["r00"]),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            q_out,
            np.einsum("j,jjkl->kl", j, dense["r11"] - dense["r10"]),
            atol=1e-13,
        )

    def test_fock_weighted_matrices_vanish_without_coupling(self):
        config = make_config(lam=0.0, n_cut=8)
        for lead in config.leads:
            q_in, q_out = build_tensors(config, lead).fock_weighted_matrices()
            assert np.abs(q_in).max() == 0.0
            assert np.abs(q_out).max() == 0.0


class TestLiouvillian:
    def test_matrix_matches_column_by_column_reference(self):
        config = make_config(**ASYM)
        tensors = tuple(build_tensors(config, lead) for lead in config.leads)
        liou = assemble_liouvillian(config, tensors)
        dense = [
            tensors_dense_ref(
                config.system.mu_tilde, config.system.omega, lead, t.displacement
            )
            for lead, t in zip(config.leads, tensors)
        ]
        ref = liouvillian_matrix_ref(config.system.omega, dense, config.system.n_cut)
        np.testing.assert_allclose(liou.matrix, ref, atol=1e-13)

    def test_apply_matches_elementwise_reference(self):
        config = make_config(**ASYM)
        tensors = tuple(build_tensors(config, lead) for lead in config.leads)
        liou = assemble_liouvillian(config, tensors)
        dense = [
            tensors_dense_ref(
                config.system.mu_tilde, config.system.omega, lead, t.displacement
            )
            for lead, t in zip(config.leads, tensors)
        ]
        rho0, rho1 = _random_hermitian_pair(config.system.n_cut, seed=7)
        d0, d1 = liou.apply(rho0, rho1)
        r0, r1 = master_rhs_ref(config.system.omega, dense, rho0, rho1)
        np.testing.assert_allclose(d0, r0, atol=1e-12)
        np.testing.assert_allclose(d1, r1, atol=1e-12)

    def test_apply_agrees_with_matrix_action(self):
        config = make_config(**ASYM)
        liou = assemble_liouvillian(
            config, tuple(build_tensors(config, lead) for lead in config.leads)
        )
        n = config.system.n_cut
        rho0, rho1 = _random_hermitian_pair(n, seed=11)
        vec = np.concatenate([rho0.ravel(), rho1.ravel()])
        out = liou.matrix @ vec
        d0, d1 = liou.apply(rho0, rho1)
        np.testing.assert_allclose(np.concatenate([d0.ravel(), d1.ravel()]), out, atol=0)

    def test_generator_preserves_trace(self):
        config = make_config(**ASYM)
        liou = assemble_liouvillian(
            config, tuple(build_tensors(config, lead) for lead in config.leads)
        )
        residual = np.abs(liou.trace_vector @ liou.matrix).max()
        assert residual < 1e-12

    def test_generator_preserves_hermiticity(self):
        config = make_config(**ASYM)
        liou = assemble_liouvillian(
            config, tuple(build_tensors(config, lead) for lead in config.leads)
        )
        rho0, rho1 = _random_hermitian_pair(config.system.n_cut, seed=23)
        d0, d1 = liou.apply(rho0, rho1)
        np.testing.assert_allclose(d0, d0.conj().T, atol=1e-12)
        np.testing.assert_allclose(d1, d1.conj().T, atol=1e-12)


class TestSteadyState:
    def test_matches_long_time_propagation(self):
        config = make_config(**ASYM)
        tensors = tuple(build_tensors(config, lead) for lead in config.leads)
        liou = assemble_liouvillian(config, tensors)
        state, info = steady_state(liou)
        dense = [
            tensors_dense_ref(
                config.system.mu_tilde, config.system.omega, lead, t.displacement
            )
            for lead, t in zip(config.leads, tensors)
        ]
        ref_mat = liouvillian_matrix_ref(
            config.system.omega, dense, config.system.n_cut
        )
        rho0_ref, rho1_ref = steady_state_expm(ref_mat, config.system.n_cut)
        np.testing.assert_allclose(state.rho0, rho0_ref, atol=1e-9)
        np.testing.assert_allclose(state.rho1, rho1_ref, atol=1e-9)
        assert info.method == "lu"
        assert state.trace == pytest.approx(1.0, abs=1e-12)

    def test_result_is_pivot_independent(self):
        config = make_config(**ASYM)
        liou = assemble_liouvillian(
            config, tuple(build_tensors(config, lead) for lead in config.leads)
        )
        base, info = steady_state(liou)
        population = np.flatnonzero(liou.trace_vector)
        other_row = int(population[population != info.norm_row][-1])
        alt, _ = steady_state(liou, norm_row=other_row)
        np.testing.assert_allclose(alt.rho0, base.rho0, atol=1e-10)
        np.testing.assert_allclose(alt.rho1, base.rho1, atol=1e-10)

    def test_coherence_pivot_is_rejected(self):
        config = make_config(**ASYM)
        liou = assemble_liouvillian(
            config, tuple(build_tensors(config, lead) for lead in config.leads)
        )
        with pytest.raises(ValueError):
            steady_state(liou, norm_row=1)  # element (0, 1) of rho0

    def test_blocks_are_physical(self):
        config = make_config(**ASYM)
        liou = assemble_liouvillian(
            config, tuple(build_tensors(config, lead) for lead in config.leads)
        )
        state, info = steady_state(liou)
        np.testing.assert_allclose(state.rho0, state.rho0.conj().T, atol=0)
        np.testing.assert_allclose(state.rho1, state.rho1.conj().T, atol=0)
        assert min(info.min_eig) > -1e-12

    def test_zero_coupling_kernel_is_degenerate(self):
        config = make_config(lam=0.0, n_cut=6, delta_mu=10.0)
        liou = assemble_liouvillian(
            config, tuple(build_tensors(config, lead) for lead in config.leads)
        )
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liou)

    def test_zero_coupling_occupation_with_degenerate_accepted(self):
        config = make_config(lam=0.0, n_cut=6, delta_mu=10.0)
        liou = assemble_liouvillian(
            config, tuple(build_tensors(config, lead) for lead in config.leads)
        )
        state, info = steady_state(liou, allow_degenerate=True)
        assert info.degenerate
        assert info.method == "decoupled"
        flat = np.eye(config.system.n_cut) / config.system.n_cut
        np.testing.assert_allclose(state.rho1, state.occupation * flat, atol=1e-15)
        np.testing.assert_allclose(state.rho0, (1.0 - state.occupation) * flat, atol=1e-15)
        # dot occupation is the window-weighted mean of the two lead
        # occupations at the dot level, independent of the phonon sector
        mu = config.system.mu_tilde
        g = [
            lorentz_ref(mu, lead.gamma_rate, lead.delta, lead.gamma_center)
            for lead in config.leads
        ]
        f = [
            fermi_ref(mu, lead.chem_potential, lead.temperature)
            for lead in config.leads
        ]
        expected = (g[0] * f[0] + g[1] * f[1]) / (g[0] + g[1])
        assert state.occupation == pytest.approx(expected, rel=1e-10)


class TestFramesAndSerialization:
    def test_lab_frame_transform_and_guard(self):
        config = make_config(**ASYM)
        tensors = tuple(build_tensors(config, lead) for lead in config.leads)
        liou = assemble_liouvillian(config, tensors)
        state, _ = steady_state(liou)
        d = tensors[0].displacement
        lab = to_lab_frame(state, d)
        assert lab.frame == "lab"
        np.testing.assert_array_equal(lab.rho0, state.rho0)
        np.testing.assert_array_equal(lab.rho1, d.T @ state.rho1 @ d)
        with pytest.raises(FrameError):
            to_lab_frame(lab, d)

    def test_lab_frame_trace_converges_with_truncation(self):
        # the transform is trace preserving only in the untruncated
        # space; the deficit must die off quickly as the cutoff grows
        deficits = []
        for n in (20, 30):
            config = make_config(mu_tilde=3.0, delta_mu=14.0, lam=0.9, n_cut=n)
            tensors = tuple(build_tensors(config, lead) for lead in config.leads)
            state, _ = steady_state(assemble_liouvillian(config, tensors))
            lab = to_lab_frame(state, tensors[0].displacement)
            deficits.append(abs(lab.trace - 1.0))
        assert deficits[1] < 1e-6
        assert deficits[1] < 0.1 * deficits[0]

    def test_save_load_round_trip(self, tmp_path):
        config = make_config(**ASYM)
        liou = assemble_liouvillian(
            config, tuple(build_tensors(config, lead) for lead in config.leads)
        )
        state, _ = steady_state(liou)
        path = tmp_path / "state.bin"
        save_state(path, state, config.config_hash())
        loaded, digest = load_state(path)
        assert digest == config.config_hash()
        assert loaded.frame == "polaron"
        np.testing.assert_array_equal(loaded.rho0, state.rho0)
        np.testing.assert_array_equal(loaded.rho1, state.rho1)

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTADUMP" + bytes(64))
        with pytest.raises(ValueError):
            load_state(path)

    def test_save_rejects_short_hash(self, tmp_path):
        state = BlockDensityMatrix(
            rho0=np.eye(2, dtype=complex) / 2.0,
            rho1=np.zeros((2, 2), dtype=complex),
            frame="polaron",
        )
        with pytest.raises(ValueError):
            save_state(tmp_path / "state.bin", state, b"short")
