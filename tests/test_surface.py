import math

import numpy as np
import pytest

from wente_index.reference import REFERENCE_GEOMETRY, geometry_row
from wente_index.surface import (
    CATALOG,
    THETA_BAR_DEGREES,
    ParameterError,
    build_surface,
    catalog_surface,
    lattice,
    potential,
    potential_extrema,
    potential_grid,
)


class TestBuildSurface:
    def test_table_values_3_2(self, w32):
        assert w32.x_period == pytest.approx(2.56, abs=0.01)
        assert w32.y_period == pytest.approx(4.21, abs=0.01)

    def test_table_values_4_3(self, w43):
        assert w43.x_period == pytest.approx(3.28, abs=0.01)
        assert w43.y_period == pytest.approx(6.34, abs=0.01)

    def test_periods_for_all_catalog_rows(self):
        for ref in REFERENCE_GEOMETRY:
            ell, n = map(int, ref.surface.split("/"))
            p = catalog_surface(ell, n)
            assert p.x_period == pytest.approx(ref.x_period, abs=0.01), ref.surface
            assert p.y_period == pytest.approx(ref.y_period, abs=ref.y_tolerance), ref.surface

    def test_periods_scale_inverse_sqrt_mean_curvature(self):
        base = build_surface(3, 2, H=0.5)
        scaled = build_surface(3, 2, H=2.0)
        assert scaled.x_period == pytest.approx(base.x_period / 2.0, rel=1e-13)
        assert scaled.y_period == pytest.approx(base.y_period / 2.0, rel=1e-13)

    def test_modulus_is_exact_sine(self, w32):
        assert w32.k == math.sin(math.radians(17.7324))
        assert w32.k_bar == math.sin(math.radians(THETA_BAR_DEGREES))

    def test_admissibility_constraint(self, w32):
        # theta + thetabar < 90 degrees forces gamma * gammabar < 1
        assert w32.theta_degrees + THETA_BAR_DEGREES < 90.0
        assert w32.gamma * w32.gamma_bar < 1.0

    @pytest.mark.parametrize(
        "ell,n,theta",
        [
            (9, 9, 10.0),  # not reduced
            (5, 2, 10.0),  # ratio above 2
            (3, 4, 10.0),  # ratio below 1
            (3, 2, 25.0),  # theta too large
            (3, 2, 0.0),  # theta at boundary
            (3, 2, -1.0),
        ],
    )
    def test_parameter_errors(self, ell, n, theta):
        with pytest.raises(ParameterError):
            build_surface(ell, n, 0.5, theta)

    def test_nonpositive_mean_curvature(self):
        with pytest.raises(ParameterError):
            build_surface(3, 2, 0.0, 17.7324)

    @pytest.mark.parametrize("big_h", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_curvature(self, big_h):
        with pytest.raises(ParameterError):
            build_surface(3, 2, big_h, 17.7324)

    def test_unknown_surface_without_theta(self):
        with pytest.raises(ParameterError):
            build_surface(15, 8, 0.5, None)


class TestPotential:
    def test_maximum_at_origin_3_2(self, w32):
        assert potential(w32, 0.0, 0.0) == pytest.approx(123.447, abs=1e-3)

    def test_minimum_on_zero_line(self, w32):
        from wente_index.elliptic import complete_K

        x_zero = complete_K(w32.k) / w32.alpha
        assert potential(w32, x_zero, 0.37) == pytest.approx(4.0 * w32.H, abs=1e-10)

    def test_always_at_least_4h(self, w32, rng):
        x = rng.uniform(-10, 10, size=200)
        y = rng.uniform(-10, 10, size=200)
        assert np.all(potential(w32, x, y) >= 4.0 * w32.H - 1e-12)

    def test_even_in_both_arguments(self, w32, rng):
        x = rng.uniform(-5, 5, size=50)
        y = rng.uniform(-5, 5, size=50)
        np.testing.assert_allclose(potential(w32, -x, y), potential(w32, x, y), rtol=1e-12)
        np.testing.assert_allclose(potential(w32, x, -y), potential(w32, x, y), rtol=1e-12)

    @pytest.mark.parametrize("surface", ["w32", "w43"])
    def test_lattice_periodicity(self, surface, rng, request):
        p = request.getfixturevalue(surface)
        lat = lattice(p)
        x = rng.uniform(0, 5, size=40)
        y = rng.uniform(0, 5, size=40)
        base = potential(p, x, y)
        np.testing.assert_allclose(potential(p, x + lat.a1, y + lat.a2), base, rtol=1e-10)
        np.testing.assert_allclose(potential(p, x + lat.b1, y + lat.b2), base, rtol=1e-10)

    @pytest.mark.parametrize("surface", ["w32", "w43"])
    def test_half_period_reflections(self, surface, rng, request):
        p = request.getfixturevalue(surface)
        x = rng.uniform(0, 4, size=40)
        y = rng.uniform(0, 4, size=40)
        base = potential(p, x, y)
        np.testing.assert_allclose(potential(p, p.x_period / 2 - x, y), base, rtol=1e-10)
        np.testing.assert_allclose(potential(p, x, p.y_period / 2 - y), base, rtol=1e-10)


class TestExtrema:
    def test_closed_forms_4_3(self, w43):
        v_min, v_max = potential_extrema(w43)
        assert v_min == 2.0
        assert v_max == pytest.approx(33.0184, abs=1e-3)

    def test_closed_forms_13_7(self):
        p = catalog_surface(13, 7)
        v_min, v_max = potential_extrema(p)
        assert v_min == 2.0
        assert v_max == pytest.approx(21012.8, rel=1e-3)

    def test_v_min_is_4h_for_any_h(self):
        for big_h in (0.25, 0.5, 3.0):
            p = build_surface(3, 2, big_h)
            assert potential_extrema(p)[0] == 4.0 * big_h

    def test_grid_extrema_match_closed_form(self, w32):
        v_min, v_max = potential_extrema(w32)
        x = np.arange(1024) * (w32.n * w32.x_period / 1024)
        y = np.arange(1024) * (w32.y_period / 1024)
        grid = potential_grid(w32, x, y)
        assert float(grid.max()) == pytest.approx(v_max, rel=1e-8)
        assert float(grid.min()) == pytest.approx(v_min, abs=5e-3)
        assert float(grid.min()) >= v_min

    def test_v_max_for_all_catalog_rows(self):
        for ref in REFERENCE_GEOMETRY:
            ell, n = map(int, ref.surface.split("/"))
            _, v_max = potential_extrema(catalog_surface(ell, n))
            assert v_max == pytest.approx(ref.v_max, rel=1e-3), ref.surface


class TestLattice:
    def test_odd_parity_rectangular(self, w32):
        lat = lattice(w32)
        assert lat.parity == "odd"
        assert (lat.a1, lat.a2) == (2 * w32.x_period, 0.0)
        assert (lat.b1, lat.b2) == (0.0, w32.y_period)

    def test_even_parity_sheared(self, w43):
        lat = lattice(w43)
        assert lat.parity == "even"
        assert lat.a1 == pytest.approx(3 * w43.x_period / 2, rel=1e-15)
        assert lat.a2 == pytest.approx(w43.y_period / 2, rel=1e-15)
        assert (lat.b1, lat.b2) == (0.0, w43.y_period)

    def test_positive_cell_area_all_rows(self):
        for ell, n, _ in CATALOG:
            assert lattice(catalog_surface(ell, n)).cell_area > 0.0


class TestCatalog:
    def test_catalog_order_and_thetas_match_reference(self):
        # CATALOG is built from the reference geometry table, the angles' only source
        expected = tuple(
            (*map(int, ref.surface.split("/")), ref.theta_degrees) for ref in REFERENCE_GEOMETRY
        )
        assert CATALOG == expected

    def test_catalog_theta_values_match_reference(self):
        for ref in REFERENCE_GEOMETRY:
            ell, n = map(int, ref.surface.split("/"))
            assert catalog_surface(ell, n).theta_degrees == ref.theta_degrees
