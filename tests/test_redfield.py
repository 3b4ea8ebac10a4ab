"""Transition tensors, generator assembly, and the steady-state solver."""

import contextlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qdmr import redfield
from qdmr.redfield import (
    FrameError,
    SteadyStateError,
    _act,
    _bordered_system,
    _row_blocks,
    assemble_liouvillian,
    build_tensors,
    krylov_steady_state,
    steady_state,
    to_lab_frame,
)

from qdmr.sweep import evaluate_point

from conftest import ADAPTIVE_EQ_MU, generator_matrix, make_config
from oracles import (
    fermi_ref,
    liouvillian_dense,
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


def _held_arrays(liou):
    """Every array the generator holds: the leads' tensors' and its coherent part."""
    return [a for t in liou.tensors for a in vars(t).values()] + [liou.coherent]


def _apply(liou, rho0, rho1):
    """Time derivative of both blocks: the generator on the stacked row-major vector."""
    n = liou.n_cut
    y = generator_matrix(liou) @ np.concatenate([rho0.ravel(), rho1.ravel()])
    return y[: n * n].reshape(n, n), y[n * n :].reshape(n, n)


def _dense_ref(config, lead, tensors):
    return tensors_dense_ref(
        config.system.mu_tilde, config.system.omega, lead, tensors.displacement
    )


def _dense_from_factors(t):
    """The four rank-4 tensors (index order [j, m, k, l]) built from one lead's factors."""
    d = t.displacement
    eye = np.eye(len(d))
    return {
        "r00": 0.5 * (np.einsum("kj,ml->jmkl", t.w_in, eye) + np.einsum("lm,kj->jmkl", t.w_in, eye)),
        "r01": 0.5 * (np.einsum("jk,ml->jmkl", t.v_in, d) + np.einsum("jk,ml->jmkl", d, t.v_in)),
        "r11": 0.5 * (np.einsum("kj,ml->jmkl", t.w_out, eye) + np.einsum("lm,kj->jmkl", t.w_out, eye)),
        "r10": 0.5 * (np.einsum("jk,lm->jmkl", t.v_out, d) + np.einsum("kj,ml->jmkl", d, t.v_out)),
    }


class TestTensors:
    @pytest.mark.parametrize("side", ["lead_L", "lead_R"])
    def test_dense_blocks_match_literal_loops(self, side):
        config = make_config(**ASYM)
        lead = getattr(config, side)
        tensors = build_tensors(config)[("lead_L", "lead_R").index(side)]
        ref = _dense_ref(config, lead, tensors)
        dense = _dense_from_factors(tensors)
        for name in ("r00", "r01", "r11", "r10"):
            np.testing.assert_allclose(dense[name], ref[name], atol=1e-13)

    def test_current_matrices_are_diagonal_tensor_sums(self):
        config = make_config(**ASYM)
        tensors, _ = build_tensors(config)
        dense = _dense_ref(config, config.lead_L, tensors)
        m_in, m_out = tensors.current_matrices()
        np.testing.assert_allclose(
            m_in, np.einsum("jjkl->kl", dense["r01"]), atol=1e-13
        )
        np.testing.assert_allclose(
            m_out, np.einsum("jjkl->kl", dense["r10"]), atol=1e-13
        )

    def test_fock_weighted_matrices_match_dense_sums(self):
        config = make_config(**ASYM)
        _, tensors = build_tensors(config)
        dense = _dense_ref(config, config.lead_R, tensors)
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
        for tensors in build_tensors(config):
            q_in, q_out = tensors.fock_weighted_matrices()
            assert np.abs(q_in).max() == 0.0
            assert np.abs(q_out).max() == 0.0


class TestLiouvillian:
    def test_matrix_matches_column_by_column_reference(self):
        config = make_config(**ASYM)
        tensors = build_tensors(config)
        liou = assemble_liouvillian(config, tensors)
        dense = [
            tensors_dense_ref(
                config.system.mu_tilde, config.system.omega, lead, t.displacement
            )
            for lead, t in zip(config.leads, tensors)
        ]
        ref = liouvillian_matrix_ref(config.system.omega, dense, config.system.n_cut)
        np.testing.assert_allclose(generator_matrix(liou), ref, atol=1e-13)

    def test_apply_matches_elementwise_reference(self):
        config = make_config(**ASYM)
        tensors = build_tensors(config)
        liou = assemble_liouvillian(config, tensors)
        dense = [
            tensors_dense_ref(
                config.system.mu_tilde, config.system.omega, lead, t.displacement
            )
            for lead, t in zip(config.leads, tensors)
        ]
        rho0, rho1 = _random_hermitian_pair(config.system.n_cut, seed=7)
        d0, d1 = _apply(liou, rho0, rho1)
        r0, r1 = master_rhs_ref(config.system.omega, dense, rho0, rho1)
        np.testing.assert_allclose(d0, r0, atol=1e-12)
        np.testing.assert_allclose(d1, r1, atol=1e-12)

    @pytest.mark.parametrize("n_cut", [12, 20, 40])
    def test_generator_holds_no_n4_arrays(self, n_cut):
        # references to the leads' tensors (80 N^2 bytes, counting the shared
        # D twice) and the coherent part (16 N^2) of its own, where one
        # lead-summed N^2 x N^2 gain block alone takes 8 N^4
        config = make_config(mu_tilde=0.0, delta_mu=-50.0, n_cut=n_cut)
        tensors = build_tensors(config)
        liou = assemble_liouvillian(config, tensors)
        assert liou._fields == ("tensors", "coherent", "n_cut")
        assert all(held is given for held, given in zip(liou.tensors, tensors, strict=True))
        assert liou.coherent.nbytes == 16 * n_cut**2
        assert sum(a.nbytes for a in _held_arrays(liou)) <= 100 * n_cut**2

    @pytest.mark.parametrize("n_cut", [2, 7, 12])
    def test_each_run_is_the_n_rows_of_one_block_and_fock_index(self, n_cut):
        config = make_config(mu_tilde=0.0, delta_mu=-50.0, n_cut=n_cut)
        liou = assemble_liouvillian(
            config, build_tensors(config)
        )
        n = n_cut
        runs = list(_row_blocks(liou))
        assert [start for start, _ in runs] == [half * n * n + j * n for half in (0, 1) for j in range(n)]
        buffer = runs[0][1]
        assert buffer.shape == (n, 2 * n * n)
        assert all(rows is buffer for _, rows in runs)

    @pytest.mark.parametrize(
        "lam, mu_tilde, delta_mu",
        [(1e-10, 0.0, -50.0), (0.7, ADAPTIVE_EQ_MU[3], 0.0), (1.4, 0.0, -50.0)],
        ids=["lam_1e-10", "adaptive_eq", "lam_1.4"],
    )
    def test_tiny_coupling_scales_the_sums_and_matches_the_dense_oracle(self, lam, mu_tilde, delta_mu):
        # lam = 1e-10 leaves gain products deep in the subnormal range,
        # where the scaling of each lead's sum by 0.5 rounds: the rows
        # match only if they halve that sum, as the Kronecker assembly does;
        # the adaptive ladder's LU confirm reads the rows at the other two
        config = make_config(lam=lam, mu_tilde=mu_tilde, delta_mu=delta_mu, n_cut=20)
        tensors = build_tensors(config)
        liou = assemble_liouvillian(config, tensors)
        assert generator_matrix(liou).tobytes() == liouvillian_dense(config, tensors).tobytes()

    def test_generator_preserves_trace(self):
        config = make_config(**ASYM)
        liou = assemble_liouvillian(
            config, build_tensors(config)
        )
        residual = np.abs(liou.trace_vector @ generator_matrix(liou)).max()
        assert residual < 1e-12

    def test_generator_preserves_hermiticity(self):
        config = make_config(**ASYM)
        liou = assemble_liouvillian(
            config, build_tensors(config)
        )
        rho0, rho1 = _random_hermitian_pair(config.system.n_cut, seed=23)
        d0, d1 = _apply(liou, rho0, rho1)
        np.testing.assert_allclose(d0, d0.conj().T, atol=1e-12)
        np.testing.assert_allclose(d1, d1.conj().T, atol=1e-12)


class TestMatrixFreeAction:
    @pytest.mark.parametrize("n_cut", [2, 3, 7, 12])
    @pytest.mark.parametrize("lam", [1e-10, 0.05, 0.7, 1.4])
    @pytest.mark.parametrize("mu_tilde", [0.0, -60.0, 35.0])
    def test_matches_the_generator_rows_and_the_dense_oracle(self, n_cut, lam, mu_tilde):
        config = make_config(mu_tilde=mu_tilde, delta_mu=-50.0, lam=lam, n_cut=n_cut)
        tensors = build_tensors(config)
        rng = np.random.default_rng(n_cut)
        x = rng.standard_normal(2 * n_cut**2) + 1j * rng.standard_normal(2 * n_cut**2)
        y = _act(_bordered_system(config, tensors).f, x)
        rows = generator_matrix(assemble_liouvillian(config, tensors)) @ x
        dense = liouvillian_dense(config, tensors) @ x
        for ref in (rows, dense):
            assert np.abs(y - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n_cut", [2, 6])
    def test_decoupled_state_reads_the_total_dot_rates_off_the_generator_diagonal(self, n_cut):
        # at lam = 0 there is no solve: the lead-summed W_in[0, 0] and W_out[0, 0]
        # have the bits of the diagonal of population (0, 0) of each block's rows
        config = make_config(lam=0.0, n_cut=n_cut, delta_mu=10.0)
        tensors = build_tensors(config)
        state, info = krylov_steady_state(config, tensors)
        assert info.method == "decoupled"
        diag = np.diagonal(generator_matrix(assemble_liouvillian(config, tensors)))
        gamma_in, gamma_out = -diag[0].real, -diag[n_cut**2].real
        p1 = gamma_in / (gamma_in + gamma_out)
        flat = np.eye(n_cut, dtype=complex).reshape(-1) / n_cut
        x = np.concatenate([(1.0 - p1) * flat, p1 * flat])
        expected, _ = redfield._finish(x, _bordered_system(config, tensors), "decoupled")
        assert state.rho0.tobytes() == expected.rho0.tobytes()
        assert state.rho1.tobytes() == expected.rho1.tobytes()


class TestSteadyState:
    def test_matches_long_time_propagation(self):
        config = make_config(**ASYM)
        tensors = build_tensors(config)
        state, info = steady_state(config, tensors)
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
        # bordering another population row with the trace gives the same state
        config = make_config(**ASYM)
        tensors = build_tensors(config)
        liou = assemble_liouvillian(config, tensors)
        base, info = steady_state(config, tensors)
        t = liou.trace_vector
        population = np.flatnonzero(t)
        other_row = int(population[population != info.norm_row][-1])
        bordered = generator_matrix(liou)
        bordered[other_row] = t
        x = np.linalg.solve(bordered, np.eye(t.size)[other_row])
        n = config.system.n_cut
        np.testing.assert_allclose(x[: n * n].reshape(n, n), base.rho0, atol=1e-10)
        np.testing.assert_allclose(x[n * n :].reshape(n, n), base.rho1, atol=1e-10)

    def test_blocks_are_physical(self):
        config = make_config(**ASYM)
        state, info = steady_state(config, build_tensors(config))
        np.testing.assert_allclose(state.rho0, state.rho0.conj().T, atol=0)
        np.testing.assert_allclose(state.rho1, state.rho1.conj().T, atol=0)
        assert min(info.min_eig) > -1e-12

    def test_refuses_a_decoupled_generator(self):
        config = make_config(lam=0.0, n_cut=6)
        with pytest.raises(ValueError, match="decoupled"):
            steady_state(config, build_tensors(config))

    def test_zero_coupling_occupation_with_degenerate_accepted(self):
        config = make_config(lam=0.0, n_cut=6, delta_mu=10.0)
        state, info = krylov_steady_state(config, build_tensors(config))
        assert info.method == "decoupled"
        assert evaluate_point(config, ()).lab_state is None
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

    def test_a_non_finite_raw_vector_raises_before_the_finish_divides(self):
        # at lam = 30 D is below 1e-174, every rate is zero and the LU's raw
        # vector is NaN; dividing it by its trace would warn, then fail the gate on nan
        config = make_config(lam=30.0, n_cut=10)
        with pytest.raises(SteadyStateError, match="the lu solve's raw vector is not finite"):
            steady_state(config, build_tensors(config))

    def test_gmres_names_a_non_finite_arnoldi_vector(self):
        # at the same point the singular Pauli preconditioner gives NaN
        config = make_config(lam=30.0, n_cut=10)
        with pytest.raises(SteadyStateError, match="GMRES Arnoldi vector 1 is not finite"):
            krylov_steady_state(config, build_tensors(config))

    def test_rows_are_built_by_the_fill_and_the_two_refinements_only(self, monkeypatch):
        passes = []
        row_blocks = redfield._row_blocks

        def counted(liou):
            passes.append(liou.n_cut)
            return row_blocks(liou)

        monkeypatch.setattr(redfield, "_row_blocks", counted)
        config = make_config(n_cut=6)
        steady_state(config, build_tensors(config))
        assert passes == [6, 6, 6]
        passes.clear()
        evaluate_point(config, ())
        assert passes == []

    def test_solve_holds_one_generator_copy(self):
        n = 30
        config = make_config(mu_tilde=0.0, delta_mu=-50.0, n_cut=n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate_point(config, (), solve=steady_state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the buffer LAPACK factorises in place is the one copy (1x); the
        # factored generator and one row block with its per-pass temporaries
        # add a few percent, where lead-summed N^2 x N^2 gain blocks would add 0.25x
        one_copy = 16 * (2 * n * n) ** 2
        assert peak - before <= 1.5 * one_copy
        assert peak - before <= 1.1 * one_copy

    def test_default_solve_holds_no_generator_sized_array(self):
        # a point evaluated by the matrix-free solve peaks at its GMRES basis,
        # GMRES_MAX_ITER + 1 complex vectors of 2 N^2 (3232 N^2 bytes), and
        # O(N^2) more: 3960 N^2 bytes at N = 30, 7% of one dense copy
        n = 30
        config = make_config(mu_tilde=0.0, delta_mu=-50.0, n_cut=n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert evaluate_point(config, ()).method == "gmres"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.5 * 16 * 2 * n * n * (redfield.GMRES_MAX_ITER + 1)

    @pytest.mark.parametrize("n_cut", [12, 20])
    def test_solve_holds_one_generator_copy_beyond_the_matrix(self, n_cut):
        config = make_config(mu_tilde=0.0, delta_mu=-50.0, n_cut=n_cut)
        tensors = build_tensors(config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            steady_state(config, tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the buffer LAPACK factorises in place (one dense copy) and O(N^3)
        # per pass: one half's tiles and one run of N rows with its
        # temporaries (measured: 101 N^3 bytes at N = 20, 116 N^3 at N = 12);
        # a run held over from the pass before, 32 N^3 more, would pass 120 N^3 at both
        assert peak - before <= 16 * (2 * n_cut * n_cut) ** 2 + 120 * n_cut**3

    @pytest.mark.parametrize(
        "lam, solve_fails, error",
        [(0.7, False, None), (1e-10, False, SteadyStateError), (0.7, True, MemoryError)],
        ids=["returns", "gate_raises", "solver_raises"],  # lam = 1e-10 fails the positivity gate
    )
    def test_matrix_is_restored(self, lam, solve_fails, error, monkeypatch):
        # the generator's arrays, the leads' tensors and its coherent part,
        # and so every row it builds, are the same after a solve that returns or raises
        config = make_config(lam=lam, mu_tilde=0.0, delta_mu=-50.0, n_cut=20)
        tensors = build_tensors(config)
        liou = assemble_liouvillian(config, tensors)
        monkeypatch.setattr(redfield, "assemble_liouvillian", lambda *args: liou)  # the solve's generator
        arrays = _held_arrays(liou)
        before = [a.tobytes() for a in arrays]
        matrix = generator_matrix(liou).tobytes()
        if solve_fails:
            def out_of_memory(*args, **kwargs):
                raise MemoryError

            monkeypatch.setattr(scipy.linalg, "lu_solve", out_of_memory)
        with pytest.raises(error) if error else contextlib.nullcontext():
            steady_state(config, tensors)
        assert [a.tobytes() for a in arrays] == before
        assert generator_matrix(liou).tobytes() == matrix


class TestFramesAndSerialization:
    def test_lab_frame_transform_and_guard(self):
        config = make_config(**ASYM)
        tensors = build_tensors(config)
        state, _ = steady_state(config, tensors)
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
            tensors = build_tensors(config)
            state, _ = steady_state(config, tensors)
            lab = to_lab_frame(state, tensors[0].displacement)
            deficits.append(abs(lab.trace - 1.0))
        assert deficits[1] < 1e-6
        assert deficits[1] < 0.1 * deficits[0]
