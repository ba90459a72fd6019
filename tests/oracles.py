"""Independent checks of the assembly that the library itself does not need.

b_entry_quadrature applies the periodic trapezoid rule to one entry, with
the cell samples tiled over a fundamental domain of the torus.  There it is
the same discrete Fourier transform as the coefficient table, so it checks
the gather, not aliasing.  sine_channel_max measures the sine-coupled
coefficients of V, which vanish for an even potential.  cos_coefficient
reads the coefficient table by the lattice rule alone.  sector_positions
partitions a basis into the symmetry sectors of A_m one function at a time.
shell_waves walks the enumeration shells one at a time.
"""

import numpy as np

from wente_index.assembly import NyquistError, PotentialField
from wente_index.basis import Basis
from wente_index.surface import lattice


def _transform_vectors(n: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    angles = 2.0 * np.pi * np.outer(np.arange(n), np.arange(kmax + 1)) / n
    return np.cos(angles), np.sin(angles)


def sine_channel_max(fld: PotentialField, pmax: int | None = None, qmax: int | None = None) -> float:
    """Largest |sine-coupled coefficient|; a symmetry diagnostic, ~0 for even V."""
    if fld.grid is None:
        raise ValueError("field was loaded without grid samples")
    pmax = fld.coeffs.shape[0] - 1 if pmax is None else pmax
    qmax = fld.coeffs.shape[1] - 1 if qmax is None else qmax
    cx, sx = _transform_vectors(fld.nx, pmax)
    cy, sy = _transform_vectors(fld.ny, qmax)
    scale = 1.0 / (fld.nx * fld.ny)
    worst = 0.0
    for left in (cx, sx):
        for right in (cy, sy):
            if left is cx and right is cy:
                continue
            worst = max(worst, float(np.max(np.abs(left.T @ fld.grid @ right))) * scale)
    return worst


def b_entry_quadrature(fld: PotentialField, basis: Basis, i: int, j: int) -> float:
    """b_ij at positions i, j by the periodic trapezoid rule on the field's grid.

    The cell samples are tiled over the lattice rectangle [0, a1) x [0, b2),
    a fundamental domain of the torus for either parity.
    """
    if fld.grid is None:
        raise ValueError("field was loaded without grid samples; resample to use quadrature")
    p = fld.surface
    # wave w has frequency w / (n x_period) in x and the cell grid's Nyquist
    # frequency is nx / x_period, so x resolves waves below n nx (y below ny)
    reach_x = int(abs(basis.wave_x[i]) + abs(basis.wave_x[j]))
    reach_y = int(abs(basis.wave_y[i]) + abs(basis.wave_y[j]))
    if reach_x >= p.n * fld.nx or reach_y >= fld.ny:
        raise NyquistError(
            f"cell grid {fld.nx}x{fld.ny} cannot resolve combined wave ({reach_x}, {reach_y})"
        )
    lat = lattice(p)
    tiles = round(2.0 * lat.a1 / p.x_period), round(2.0 * lat.b2 / p.y_period)
    dx, dy = 0.5 * p.x_period / fld.nx, 0.5 * p.y_period / fld.ny
    x = (np.arange(tiles[0] * fld.nx) * dx)[:, None]
    y = (np.arange(tiles[1] * fld.ny) * dy)[None, :]
    integrand = np.tile(fld.grid, tiles) * basis.values(i, x, y) * basis.values(j, x, y)
    return float(integrand.sum()) * dx * dy


def cos_coefficient(fld: PotentialField, wave_x: np.ndarray, wave_y: np.ndarray) -> np.ndarray:
    """(1/area) integral of V cos(2 pi (wave_x x / (n x_period) + wave_y y / y_period)), elementwise.

    The cell frequency (P, Q) sits at the wave (2n P, 2 Q); every other wave
    reads exact 0.0.  A wave beyond the stored table raises IndexError.
    """
    step, ax, ay = 2 * fld.surface.n, np.abs(wave_x), np.abs(wave_y)
    on = (ax % step == 0) & (ay % 2 == 0)
    return np.where(on, fld.coeffs[np.where(on, ax // step, 0), np.where(on, ay // 2, 0)], 0.0)


def sector_positions(basis: Basis, n: int) -> list[np.ndarray]:
    """Positions of each symmetry sector, ascending within one, sectors in ascending class.

    A sector holds the functions of one phase whose waves agree modulo the
    lattice (2n, 2) up to sign.  b_ij needs a coefficient of V at w_i - w_j
    or w_i + w_j, zero off that lattice, so no entry couples two sectors.
    """
    sectors: dict[tuple, list[int]] = {}
    waves = zip(basis.wave_x.tolist(), basis.wave_y.tolist(), basis.sine.tolist())
    for pos, (a, b, sine) in enumerate(waves):
        sectors.setdefault((min(a % (2 * n), -a % (2 * n)), b % 2, sine), []).append(pos)
    return [np.array(sectors[cls]) for cls in sorted(sectors)]


def shell_waves(parity: str, shells: int) -> np.ndarray:
    """Wave pairs (a, b) of the first `shells` shells, one row each, one shell at a time.

    Shell s > 0 of radius r (s odd parity, 2s even) is (r, 0), then each
    interior a descending with b = r - a and then its negative, then (0, r).
    """
    rows = [np.zeros((1, 2), dtype=np.int64)]
    for shell in range(1, shells):
        radius = shell if parity == "odd" else 2 * shell
        a = np.arange(radius - 1, 0, -1)
        b = np.stack([radius - a, a - radius], axis=1).ravel()
        rows.append(np.concatenate([[[radius, 0]], np.stack([np.repeat(a, 2), b], axis=1), [[0, radius]]]))
    return np.concatenate(rows)
