import math

import numpy as np
import pytest

from wente_index.elliptic import complete_K, jacobi_cn

THETA = 17.7324
THETA_BAR = 65.354955354

# Frozen oracle values.  K values come from 200-node Gauss-Legendre
# quadrature of the defining integral (reproduced by k_quadrature_oracle
# below); the cn value comes from RK4 integration of the defining ODE
# system (cn_ode_oracle).
K_ORACLE = {
    THETA: 1.609257314410006,
    THETA_BAR: 2.321049732532162,
}
K06_ORACLE = 1.7507538029157526
CN_07_06_ORACLE = 0.7766623641084601


def k_quadrature_oracle(k: float, nodes: int = 200) -> float:
    """Integral from 0 to pi/2 of (1 - k^2 sin^2 phi)^(-1/2), Gauss-Legendre."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    phi = 0.25 * math.pi * (t + 1.0)
    vals = 1.0 / np.sqrt(1.0 - (k * np.sin(phi)) ** 2)
    return 0.25 * math.pi * float(np.dot(w, vals))


def cn_ode_oracle(u: float, k: float, steps: int = 70000) -> float:
    """RK4 on sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn from (0, 1, 1)."""
    h = u / steps
    y = (0.0, 1.0, 1.0)

    def f(y):
        s, c, d = y
        return (c * d, -s * d, -k * k * s * c)

    for _ in range(steps):
        k1 = f(y)
        k2 = f(tuple(y[i] + 0.5 * h * k1[i] for i in range(3)))
        k3 = f(tuple(y[i] + 0.5 * h * k2[i] for i in range(3)))
        k4 = f(tuple(y[i] + h * k3[i] for i in range(3)))
        y = tuple(y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(3))
    return y[1]


class TestModulus:
    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            complete_K(bad)
        with pytest.raises(ValueError):
            jacobi_cn(0.3, bad)


class TestCompleteK:
    def test_degenerate_modulus(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    @pytest.mark.parametrize("theta", [THETA, THETA_BAR])
    def test_frozen_oracle_values(self, theta):
        k = math.sin(math.radians(theta))
        assert complete_K(k) == pytest.approx(K_ORACLE[theta], rel=1e-14)

    @pytest.mark.parametrize("theta", [THETA, THETA_BAR])
    def test_oracle_reproduces_frozen_value(self, theta):
        k = math.sin(math.radians(theta))
        assert k_quadrature_oracle(k) == pytest.approx(K_ORACLE[theta], rel=1e-14)

    def test_against_quadrature_on_a_grid(self):
        for k in np.linspace(0.05, 0.95, 10):
            assert complete_K(float(k)) == pytest.approx(
                k_quadrature_oracle(float(k)), rel=1e-13
            )

    def test_strictly_increasing(self):
        ks = np.linspace(0.0, 0.99, 40)
        values = [complete_K(float(k)) for k in ks]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            complete_K(1.0)


class TestJacobiCn:
    def test_value_at_zero(self):
        for k in (0.0, 0.3, 0.6, 0.9):
            assert jacobi_cn(0.0, k) == 1.0

    def test_quarter_period_zero(self):
        for k in (0.2, 0.6, 0.908953):
            assert abs(jacobi_cn(complete_K(k), k)) < 1e-12

    def test_degenerate_modulus_is_cosine(self):
        assert jacobi_cn(1.0, 0.0) == pytest.approx(math.cos(1.0), abs=1e-15)

    def test_frozen_ode_oracle_value(self):
        assert jacobi_cn(0.7, 0.6) == pytest.approx(CN_07_06_ORACLE, abs=1e-12)

    def test_oracle_reproduces_frozen_value(self):
        assert cn_ode_oracle(0.7, 0.6) == pytest.approx(CN_07_06_ORACLE, abs=1e-12)

    def test_against_ode_oracle_elsewhere(self):
        assert jacobi_cn(2.3, 0.85) == pytest.approx(cn_ode_oracle(2.3, 0.85), abs=1e-11)

    def test_periodicity(self, rng):
        for k in (0.15, 0.6, 0.9089):
            period = 4.0 * complete_K(k)
            u = rng.uniform(-20.0, 20.0, size=50)
            np.testing.assert_allclose(jacobi_cn(u + period, k), jacobi_cn(u, k), atol=1e-11)

    def test_evenness_exact(self, rng):
        u = rng.uniform(0.0, 15.0, size=100)
        k = 0.71
        assert np.array_equal(jacobi_cn(-u, k), jacobi_cn(u, k))

    def test_bounded_by_one(self, rng):
        u = rng.uniform(-40.0, 40.0, size=200)
        for k in (0.1, 0.5, 0.95):
            assert np.all(jacobi_cn(u, k) ** 2 <= 1.0 + 1e-15)

    def test_half_period_sign_flip(self):
        k = 0.6
        two_k = 2.0 * complete_K(k)
        for u in (0.1, 0.4, 1.1):
            assert jacobi_cn(u + two_k, k) == pytest.approx(-jacobi_cn(u, k), abs=1e-12)

    def test_accuracy_over_eight_quarter_periods(self):
        k = 0.9089535101982177
        big_k = complete_K(k)
        u = np.linspace(-8.0 * big_k, 8.0 * big_k, 257)
        reduced = jacobi_cn(u, k)
        # against the oracle at a few points of the sweep
        for idx in (3, 64, 130, 200, 255):
            assert reduced[idx] == pytest.approx(cn_ode_oracle(float(u[idx]), k), abs=1e-11)

    def test_scalar_and_array_agree(self):
        u = np.array([0.3, 1.7, 5.0])
        k = 0.4
        arr = jacobi_cn(u, k)
        assert arr.shape == (3,)
        for i, ui in enumerate(u):
            assert arr[i] == jacobi_cn(float(ui), k)
