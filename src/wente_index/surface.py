"""Surface parameters, lattice, and stability potential for the tori W_{l/n}.

Each symmetric Wente torus is labelled by a reduced fraction l/n in (1, 2).
Given that label and the rotational-period angle theta (data, four printed
decimals), every other quantity is derived in closed form: the elliptic
moduli k = sin(theta), kbar = sin(thetabar), the amplitudes gamma, gammabar,
the frequency scalings alpha, alphabar, the fundamental periods of the two
planar curvature-line families, and the conformal lattice of the torus.

The second-variation (Jacobi) operator of the surface is -Laplacian - V with

    V(x, y) = 4 H cosh(4 arctanh(f(x) g(y))),
    f(x) = gamma cn_k(alpha x),   g(y) = gammabar cn_kbar(alphabar y).

The translational period problem forces thetabar = 65.354955354 degrees for
every surface; theta alone varies with l/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_K, jacobi_cn
from .reference import REFERENCE_GEOMETRY

__all__ = [
    "THETA_BAR_DEGREES",
    "THETA_MAX_DEGREES",
    "CATALOG",
    "ParameterError",
    "SurfaceParams",
    "Lattice",
    "build_surface",
    "catalog_surface",
    "potential",
    "potential_extrema",
    "lattice",
]

THETA_BAR_DEGREES = 65.354955354
THETA_MAX_DEGREES = 24.645044646  # theta + thetabar must stay below 90 degrees

# Rotational-period angles theta (degrees) for the 19 catalogued surfaces, as
# (l, n, theta) read from the reference geometry table, their only source.
# theta is ingested data: the period problem that determines it is solved
# upstream of this library and known to four decimals.
CATALOG: tuple[tuple[int, int, float], ...] = tuple(
    (*map(int, row.surface.split("/")), row.theta_degrees) for row in REFERENCE_GEOMETRY
)


class ParameterError(ValueError):
    """Raised for input outside the admissible range."""


@dataclass(frozen=True)
class SurfaceParams:
    """All derived constants of one torus W_{l/n} at mean curvature H."""

    ell: int
    n: int
    H: float
    theta_degrees: float
    k: float
    k_bar: float
    gamma: float
    gamma_bar: float
    alpha: float
    alpha_bar: float
    x_period: float
    y_period: float

    @property
    def label(self) -> str:
        return f"{self.ell}/{self.n}"

    @property
    def parity(self) -> str:
        return "odd" if self.ell % 2 == 1 else "even"


@dataclass(frozen=True)
class Lattice:
    """Conformal lattice of the torus on the rectangle width x height.

    For odd l the lattice is the rectangle's own; for even l it is also
    generated by (width / 2, height / 2), which halves the cell.
    """

    width: float
    height: float
    parity: str

    @property
    def cell_area(self) -> float:
        area = self.width * self.height
        return area if self.parity == "odd" else 0.5 * area


def _validate_label(ell: int, n: int) -> None:
    if ell <= 0 or n <= 0:
        raise ParameterError(f"l and n must be positive, got {ell}/{n}")
    if math.gcd(ell, n) != 1:
        raise ParameterError(f"{ell}/{n} is not a reduced fraction")
    if not (n < ell < 2 * n):
        raise ParameterError(f"l/n must lie strictly between 1 and 2, got {ell}/{n}")


def build_surface(ell: int, n: int, H: float = 0.5, theta_degrees: float | None = None) -> SurfaceParams:
    """Construct SurfaceParams for W_{l/n}.

    theta_degrees defaults to the catalogued value for (l, n); an explicit
    value lets callers study surfaces outside the catalog.  Angles are
    converted to radians exactly once, here.
    """
    _validate_label(ell, n)
    if not (math.isfinite(H) and H > 0.0):
        raise ParameterError(f"mean curvature must be positive and finite, got {H}")
    if theta_degrees is None:
        theta_degrees = {(row_ell, row_n): theta for row_ell, row_n, theta in CATALOG}.get((ell, n))
    if theta_degrees is None:
        raise ParameterError(f"{ell}/{n} is not in the catalog and no theta was given")
    if not (0.0 < theta_degrees < THETA_MAX_DEGREES):
        raise ParameterError(
            f"theta must lie in (0, {THETA_MAX_DEGREES}) degrees, got {theta_degrees}"
        )

    th = math.radians(theta_degrees)
    thb = math.radians(THETA_BAR_DEGREES)
    k = math.sin(th)
    k_bar = math.sin(thb)
    gamma = math.sqrt(math.tan(th))
    gamma_bar = math.sqrt(math.tan(thb))
    denom = math.sin(2.0 * (th + thb))
    alpha = math.sqrt(4.0 * H * math.sin(2.0 * thb) / denom)
    alpha_bar = math.sqrt(4.0 * H * math.sin(2.0 * th) / denom)
    # f(x) = gamma cn_k(alpha x) repeats when alpha x advances by 4K(k).
    x_period = 4.0 * complete_K(k) / alpha
    y_period = 4.0 * complete_K(k_bar) / alpha_bar
    constants = {"alpha": alpha, "alpha_bar": alpha_bar, "x_period": x_period, "y_period": y_period}
    if not all(math.isfinite(v) and v > 0.0 for v in constants.values()):
        shown = ", ".join(f"{name}={value:g}" for name, value in constants.items())
        raise ParameterError(f"H={H:g}, theta={theta_degrees:g} give no finite positive periods: {shown}")
    return SurfaceParams(
        ell=ell,
        n=n,
        H=H,
        theta_degrees=theta_degrees,
        k=k,
        k_bar=k_bar,
        gamma=gamma,
        gamma_bar=gamma_bar,
        alpha=alpha,
        alpha_bar=alpha_bar,
        x_period=x_period,
        y_period=y_period,
    )


def catalog_surface(ell: int, n: int, H: float = 0.5) -> SurfaceParams:
    """Build a catalogued surface by its label."""
    return build_surface(ell, n, H)


def potential(p: SurfaceParams, x, y):
    """Potential V(x, y) = 4 H cosh(4 arctanh(f(x) g(y))), vectorized.

    gamma * gamma_bar < 1 for every admissible theta, so |f g| < 1 and the
    arctanh is always finite.  Broadcasts x against y like numpy does.
    """
    f = p.gamma * jacobi_cn(np.asarray(x, dtype=float) * p.alpha, p.k)
    g = p.gamma_bar * jacobi_cn(np.asarray(y, dtype=float) * p.alpha_bar, p.k_bar)
    t = np.asarray(f * g)
    np.arctanh(t, out=t)
    t *= 4.0
    np.cosh(t, out=t)
    t *= 4.0 * p.H
    return float(t) if t.ndim == 0 else t


def potential_grid(p: SurfaceParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """V sampled on the tensor grid x (outer) by y."""
    return potential(p, x[:, None], y[None, :])


def potential_extrema(p: SurfaceParams) -> tuple[float, float]:
    """(V_min, V_max) in closed form.

    cosh is minimal where f g vanishes (V_min = 4H, attained on the zero
    lines of either cn) and maximal at the origin where both cn equal 1.
    """
    v_min = 4.0 * p.H
    v_max = 4.0 * p.H * math.cosh(4.0 * math.atanh(p.gamma * p.gamma_bar))
    return v_min, v_max


def lattice(p: SurfaceParams) -> Lattice:
    """Conformal lattice of W_{l/n} on the rectangle (n x_period, y_period), shaped by the parity of l."""
    return Lattice(width=p.n * p.x_period, height=p.y_period, parity=p.parity)
