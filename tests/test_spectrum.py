import numpy as np
import pytest

from wente_index.assembly import assemble
from wente_index.basis import enumerate_basis
from wente_index.spectrum import eigen_symmetric
from wente_index.surface import build_surface, catalog_surface, lattice


class TestEigenSymmetric:
    def test_diagonal(self):
        est = eigen_symmetric(np.diag([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(est.eigenvalues, [-1.0, 0.0, 2.0], atol=1e-15)
        assert est.negative_count == 1
        assert est.uncertain_count == 1  # the exact zero sits in the band

    def test_two_by_two_exchange(self):
        est = eigen_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(est.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_three_by_three_closed_form(self):
        # block diag(2, [[3,4],[4,9]]); the block has eigenvalues 1 and 11
        mat = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 4.0], [0.0, 4.0, 9.0]])
        est = eigen_symmetric(mat)
        np.testing.assert_allclose(est.eigenvalues, [1.0, 2.0, 11.0], atol=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eigen_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_asymmetry_within_rounding(self):
        # not equal bit for bit, so the tolerance decides: 1e-16 of the scale passes, 1e-10 does not
        mat = np.array([[2.0, 1.0], [1.0 + 2e-16, 3.0]])
        assert eigen_symmetric(mat).m == 2
        mat[1, 0] = 1.0 + 3e-10
        with pytest.raises(ValueError, match="not symmetric"):
            eigen_symmetric(mat)

    @pytest.mark.parametrize(
        "ell,n,m", [(3, 2, 1013), (3, 2, 2113), (7, 6, 1013), (7, 6, 2113), (4, 3, 1089), (4, 3, 2025)]
    )
    def test_residual_bound_is_k_eps_frobenius_of_the_worst_half(self, ell, n, m):
        # bit for bit the largest k eps ||H||_F over the k x k halves solved
        matrix = assemble(catalog_surface(ell, n), m)
        eps = np.finfo(float).eps
        worst = max(len(half) * eps * float(np.sqrt(np.sum(half * half))) for stack in matrix.stacks for half in stack)
        assert eigen_symmetric(matrix).residual_bound == worst

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigen_symmetric(np.zeros((2, 3)))

    def test_residual_and_spectral_invariants(self, rng):
        mat = rng.standard_normal((60, 60))
        mat = mat + mat.T
        est = eigen_symmetric(mat)
        norm = est.norm
        assert est.residual_bound <= 1e-10 * norm
        # the trace and the Frobenius norm are those of the spectrum
        assert np.sum(est.eigenvalues) == pytest.approx(np.trace(mat), abs=1e-10 * 60 * norm)
        assert np.sum(est.eigenvalues**2) == pytest.approx(np.sum(mat * mat), rel=1e-12)
        assert est.norm == pytest.approx(np.linalg.norm(mat, 2), rel=1e-12)

    def test_accepts_galerkin_matrix(self, w32, fast_cfg):
        mat = assemble(w32, 13, fast_cfg)
        est = eigen_symmetric(mat)
        assert est.m == 13
        assert est.negative_count == 8

    def test_deterministic(self, rng):
        mat = rng.standard_normal((30, 30))
        mat = mat + mat.T
        est1 = eigen_symmetric(mat)
        est2 = eigen_symmetric(mat)
        assert np.array_equal(est1.eigenvalues, est2.eigenvalues)
        assert est1.residual_bound == est2.residual_bound


class TestCounting:
    def test_explicit_tolerance(self):
        est = eigen_symmetric(np.diag([-1e-3, -1e-9, 1e-9, 5.0]), zero_tol=1e-6)
        assert (est.negative_count, est.uncertain_count) == (1, 2)
        assert est.zero_tol == 1e-6
        assert est.first_positive_six == (5.0,)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_rejects_band_that_moves_the_threshold(self, tol):
        with pytest.raises(ValueError, match="zero_tol"):
            eigen_symmetric(np.diag([-1e-3, 5.0]), zero_tol=tol)

    def test_zero_band_is_allowed(self):
        est = eigen_symmetric(np.diag([-1e-3, 0.0, 5.0]), zero_tol=0.0)
        assert (est.negative_count, est.uncertain_count) == (1, 1)

    def test_band_never_falls_below_the_error_bound(self):
        # -1e-15 is within 2 eps ||A||_F of zero, so its sign is not known
        est = eigen_symmetric(np.diag([-1e-15, 5.0]), zero_tol=0.0)
        assert (est.negative_count, est.uncertain_count) == (0, 1)
        assert est.zero_tol == est.residual_bound == 2 * np.finfo(float).eps * 5.0

    def test_all_positive(self):
        est = eigen_symmetric(np.diag([0.5, 1.0, 2.0]), 1e-9)
        assert (est.negative_count, est.uncertain_count) == (0, 0)

    def test_default_band_scales_with_norm(self):
        est = eigen_symmetric(np.diag([-5.0, 1e-8, 1e6]))
        # 1e-8 is far inside the relative band of a matrix with norm 1e6
        assert est.uncertain_count == 1
        assert est.negative_count == 1

    def test_h_rescaling_preserves_count_and_scales_eigenvalues(self, fast_cfg):
        half = build_surface(3, 2, 0.5)
        four = build_surface(3, 2, 2.0)
        est_half = eigen_symmetric(assemble(half, 13, fast_cfg))
        est_four = eigen_symmetric(assemble(four, 13, fast_cfg))
        assert est_half.negative_count == est_four.negative_count
        np.testing.assert_allclose(
            est_four.eigenvalues, 4.0 * est_half.eigenvalues, rtol=1e-9
        )


class TestNullityDiagnostic:
    """first_positive_six, the values that approach the six-dimensional kernel."""

    def test_reports_first_six_after_negative_block(self, w32, fast_cfg):
        est = eigen_symmetric(assemble(w32, 41, fast_cfg))
        six = est.first_positive_six
        assert len(six) == 6
        start = est.negative_count + est.uncertain_count
        np.testing.assert_allclose(six, est.eigenvalues[start : start + 6], rtol=0)

    def test_zero_potential_shows_laplacian_spectrum(self, w32):
        alphas = enumerate_basis(lattice(w32), 13).alpha
        est = eigen_symmetric(np.diag(alphas))
        six = est.first_positive_six
        expected = np.sort(alphas)[1:7]  # constant excluded: it is the zero mode
        np.testing.assert_allclose(six, expected, rtol=1e-14)

    def test_short_spectrum_gives_fewer_than_six(self):
        est = eigen_symmetric(np.diag([-1.0, 1.0, 2.0]))
        assert est.first_positive_six == (1.0, 2.0)
        assert eigen_symmetric(np.diag([-1.0, -2.0])).first_positive_six == ()


class TestMonotonicity:
    def test_nested_truncations_only_decrease(self, w43, fast_cfg):
        previous = None
        for m in (9, 25, 49):
            values = eigen_symmetric(assemble(w43, m, fast_cfg)).eigenvalues
            if previous is not None:
                worst = float(np.max(values[: len(previous)] - previous))
                assert worst <= 1e-9
            previous = values
