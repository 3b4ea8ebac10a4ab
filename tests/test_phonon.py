"""Fock-space displacement and coherent-overlap algebra."""

import numpy as np
import pytest

from qdmr.phonon import coherent_overlap, displacement_matrix

from oracles import coherent_vector, displacement_expm, displacement_special

# from the smallest couplings a point may take to past the self-oscillation window
SPECIAL_LAMS = [1e-10, 1e-7, 1e-3, 0.05, 0.35, 0.69, 0.7, 1.4, 3.0, -0.7]


class TestDisplacementMatrix:
    def test_zero_coupling_is_identity(self):
        assert np.array_equal(displacement_matrix(0.0, 9), np.eye(9))

    @pytest.mark.parametrize("lam", [0.3, 0.7, 1.3])
    def test_matches_padded_matrix_exponential(self, lam):
        ours = displacement_matrix(lam, 12)
        ref = displacement_expm(lam, 12)
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_frozen_elements(self):
        d = displacement_matrix(0.7, 6)
        assert d[0, 0] == pytest.approx(0.7827045382418682, rel=1e-13)
        assert d[1, 0] == pytest.approx(0.5478931767693077, rel=1e-13)
        assert d[1, 1] == pytest.approx(0.3991793145033528, rel=1e-13)
        assert d[2, 0] == pytest.approx(0.2711932864615921, rel=1e-13)
        assert d[0, 1] == pytest.approx(-0.5478931767693077, rel=1e-13)

    def test_negative_coupling_transposes(self):
        d = displacement_matrix(0.7, 10)
        np.testing.assert_array_equal(displacement_matrix(-0.7, 10), d.T)

    def test_approximately_unitary_away_from_corner(self):
        d = displacement_matrix(0.7, 30)
        gram = d.T @ d
        np.testing.assert_allclose(gram[:15, :15], np.eye(15), atol=1e-10)

    @pytest.mark.parametrize("lam", SPECIAL_LAMS)
    def test_bit_for_bit_scipy_special_up_to_n_40(self, lam):
        # log(k!), binom(lo + diff, lo) and the Laguerre recurrence follow the
        # arithmetic of SciPy's gammaln, binom and integer-order eval_genlaguerre
        for n in range(1, 41):
            assert displacement_matrix(lam, n).tobytes() == displacement_special(lam, n).tobytes(), n

    @pytest.mark.parametrize("lam", SPECIAL_LAMS)
    def test_within_2e_15_of_scipy_special_beyond_n_40(self, lam):
        # there SciPy's binom reaches min(lo, diff) >= 20 and takes a beta function
        for n in range(41, 81):
            ours, ref = displacement_matrix(lam, n), displacement_special(lam, n)
            nonzero = ref != 0.0
            assert np.array_equal(ours == 0.0, ~nonzero)
            assert np.max(np.abs(ours[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])) <= 2e-15, n

    def test_rejects_empty_space(self):
        with pytest.raises(ValueError):
            displacement_matrix(0.5, 0)


class TestCoherentOverlap:
    @pytest.mark.parametrize("alpha", [0.0, 0.8, -1.2 + 0.5j, 2.0j])
    def test_matches_reference_vector(self, alpha):
        ours = coherent_overlap(alpha, 25)
        np.testing.assert_allclose(ours, coherent_vector(alpha, 25), atol=1e-13)

    def test_vacuum_overlap(self):
        c = coherent_overlap(0.0, 6)
        np.testing.assert_array_equal(c, np.eye(6)[0])

    def test_normalized_when_truncation_is_wide(self):
        c = coherent_overlap(1.5 + 0.5j, 60)
        assert np.vdot(c, c).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_real_alpha_stays_real_and_matches_the_complex_path(self, shape):
        alpha = np.random.default_rng(2).uniform(-6.0, 6.0, shape)
        alpha = float(alpha) if shape == () else alpha
        real = coherent_overlap(alpha, 40)
        assert real.dtype == np.float64
        np.testing.assert_allclose(real, coherent_overlap(np.asarray(alpha, dtype=complex), 40), rtol=0, atol=1e-13)

    def test_vectorized_shape_and_values(self):
        grid = np.array([[0.3, 1.0 + 1.0j], [-0.5j, 2.0]])
        block = coherent_overlap(grid, 12)
        assert block.shape == (2, 2, 12)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(
                    block[i, j], coherent_overlap(grid[i, j], 12), atol=0
                )
