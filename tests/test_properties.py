"""Property tests: the solve and report invariants over the validated ranges.

Examples are drawn deterministically (``derandomize=True``) so the suite
gives the same verdict on every run.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdmr.redfield import (
    MIN_EIG_FLOOR,
    SteadyStateError,
    _act,
    _bordered_system,
    assemble_liouvillian,
    build_tensors,
    krylov_steady_state,
    steady_state,
)
from qdmr.sweep import evaluate_point
from qdmr.validation import reference_config, two_state_current

from conftest import ADAPTIVE_EQ_MU, generator_matrix
from oracles import liouvillian_dense, population_dominance, steady_state_bordered_lu

REL_TOL = 1e-8  # conservation, first law and the lam = 0 current, relative to their flow scale
SCALE_FLOOR = 1e-6  # rad/ns: flows below this count as zero when scaling a check


def _scaled(residual: float, *flows: float) -> float:
    return abs(residual) / max([abs(f) for f in flows] + [SCALE_FLOOR])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    mu_tilde=st.floats(-60.0, 60.0),
    delta_mu=st.floats(-150.0, 150.0),
    delta_t_mk=st.floats(0.0, 60.0),
    lam=st.one_of(st.just(0.0), st.floats(0.05, 1.4)),
    n_cut=st.integers(6, 10),
)
# corners: decoupled at equilibrium (zero current), strongest coupling at the smallest cutoff
@example(mu_tilde=0.0, delta_mu=0.0, delta_t_mk=0.0, lam=0.0, n_cut=6)
@example(mu_tilde=0.0, delta_mu=-50.0, delta_t_mk=0.0, lam=1.4, n_cut=6)
def test_solve_and_report_invariants(mu_tilde, delta_mu, delta_t_mk, lam, n_cut):
    config = reference_config(
        mu_tilde=mu_tilde, delta_mu=delta_mu, delta_t_mk=delta_t_mk, lam=lam, n_cut=n_cut
    )
    point = evaluate_point(config, ())
    assert (point.lab_state is None) == (lam == 0.0) == (point.status == "degenerate")
    assert abs(point.polaron_state.trace - 1.0) <= 1e-12
    for state in (point.polaron_state, point.lab_state):
        if state is not None:
            for block in (state.rho0, state.rho1):
                np.testing.assert_allclose(block, block.conj().T, rtol=0, atol=1e-14)
    assert point.min_eig >= MIN_EIG_FLOOR

    r = point.report
    assert _scaled(r.current_l + r.current_r, r.current_l, r.current_r) <= REL_TOL
    energies = (r.heat_el_l, r.heat_el_r, r.heat_mec_l, r.heat_mec_r, r.power)
    assert _scaled(r.first_law_residual, *energies) <= REL_TOL
    if lam == 0.0:
        expected = two_state_current(config)
        assert _scaled(r.current_r - expected, expected) <= REL_TOL


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    mu_tilde=st.floats(-60.0, 60.0),
    delta_mu=st.floats(-150.0, 150.0),
    delta_t_mk=st.floats(0.0, 60.0),
    lam=st.one_of(st.just(0.0), st.floats(0.05, 1.4)),
    n_cut=st.integers(6, 10),
)
@example(mu_tilde=0.0, delta_mu=-50.0, delta_t_mk=0.0, lam=1.4, n_cut=7)
def test_rows_and_solve_match_the_dense_oracle(mu_tilde, delta_mu, delta_t_mk, lam, n_cut):
    """The generator's rows and its stationary state are bit for bit those of
    the dense Kronecker matrix and its bordered LU solve, bordered at the
    row the solve picked; that row is the oracle's own or ties with it."""
    config = reference_config(
        mu_tilde=mu_tilde, delta_mu=delta_mu, delta_t_mk=delta_t_mk, lam=lam, n_cut=n_cut
    )
    tensors = build_tensors(config)
    liou = assemble_liouvillian(config, tensors)
    dense = liouvillian_dense(config, tensors)
    assert generator_matrix(liou).tobytes() == dense.tobytes()
    if lam == 0.0:
        return
    state, info = steady_state(config, tensors)
    rows, dominance = population_dominance(dense, n_cut)
    if info.norm_row != rows[np.argmin(dominance)]:
        # the border rule reads its row sums off the factors, which round
        # apart from the dense rows' at a tie between two population rows
        assert info.norm_row in rows
        tie = dominance[rows == info.norm_row][0] - dominance.min()
        assert tie <= 8 * np.finfo(float).eps * np.abs(dominance).max()
    rho0, rho1, _, residual = steady_state_bordered_lu(dense, n_cut, row=info.norm_row)
    assert state.rho0.tobytes() == rho0.tobytes()
    assert state.rho1.tobytes() == rho1.tobytes()
    system = _bordered_system(config, tensors)
    coords = np.concatenate([(rho0.real + rho0.imag).ravel(), (rho1.real + rho1.imag).ravel()])
    assert info.residual == float(np.abs(_act(system.f, coords)).max())
    assert residual <= system.gate


PROBE_TOL = 1e-12  # largest entry difference between the matrix-free and the LU state, N <= 12


def _max_state_diff(a, b) -> float:
    return float(max(np.abs(a.rho0 - b.rho0).max(), np.abs(a.rho1 - b.rho1).max()))


def _both_solves(config):
    tensors = build_tensors(config)
    return krylov_steady_state(config, tensors), steady_state(config, tensors)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    mu_tilde=st.floats(-60.0, 60.0),
    delta_mu=st.floats(-150.0, 150.0),
    delta_t_mk=st.floats(0.0, 60.0),
    lam=st.floats(0.05, 1.4),
    n_cut=st.integers(6, 12),
)
@example(mu_tilde=0.0, delta_mu=-50.0, delta_t_mk=0.0, lam=1.4, n_cut=12)
@example(mu_tilde=0.0, delta_mu=-50.0, delta_t_mk=0.0, lam=0.05, n_cut=12)
def test_matrix_free_solve_matches_the_lu_solve(mu_tilde, delta_mu, delta_t_mk, lam, n_cut):
    config = reference_config(
        mu_tilde=mu_tilde, delta_mu=delta_mu, delta_t_mk=delta_t_mk, lam=lam, n_cut=n_cut
    )
    (state, info), (lu_state, _) = _both_solves(config)
    assert info.method == "gmres"
    assert _max_state_diff(state, lu_state) <= PROBE_TOL
    assert abs(state.trace - 1.0) <= 1e-12


# mu_tilde = 0 points where a rho0 and a rho1 population row tie in dominance;
# a border rule on the built rows picked rows 558, 189 and 64, one on the
# factors 1458, 589 and 28
@pytest.mark.parametrize("lam, delta_mu, n_cut", [(0.7, -50.0, 30), (1.05, 0.0, 20), (0.05, 0.0, 6)])
def test_both_solves_border_one_row_where_populations_tie(lam, delta_mu, n_cut):
    (state, info), (lu_state, lu_info) = _both_solves(
        reference_config(mu_tilde=0.0, delta_mu=delta_mu, lam=lam, n_cut=n_cut)
    )
    assert info.norm_row == lu_info.norm_row
    assert _max_state_diff(state, lu_state) <= PROBE_TOL


@pytest.mark.parametrize("mu_tilde", ADAPTIVE_EQ_MU)
def test_matrix_free_solve_matches_the_lu_solve_at_the_adaptive_benchmark_points(mu_tilde):
    (state, _), (lu_state, _) = _both_solves(reference_config(mu_tilde=mu_tilde, delta_mu=0.0, lam=0.7, n_cut=20))
    assert _max_state_diff(state, lu_state) <= 1e-15


@pytest.mark.parametrize("lam", [1e-12, 1e-10, 1e-9, 1e-8])
def test_matrix_free_solve_fails_where_the_lu_solve_fails(lam):
    # the numerically degenerate couplings of
    # test_config_sweep.py::TestRunPoint::test_numerically_degenerate_coupling_fails_positivity_gate
    config = reference_config(mu_tilde=0.0, delta_mu=-50.0, lam=lam, n_cut=20)
    tensors = build_tensors(config)
    with pytest.raises(SteadyStateError):
        steady_state(config, tensors)
    with pytest.raises(SteadyStateError):
        krylov_steady_state(config, tensors)
