"""Independent checks of the assembly that the library itself does not need.

b_entry_quadrature applies the periodic trapezoid rule to one entry, with
the cell samples tiled over a fundamental domain of the torus.  There it is
the same discrete Fourier transform as the coefficient table, so it checks
the gather, not aliasing.  cell_grid samples V on a field's period cell
grid.  sine_channel_max measures the sine-coupled coefficients of V, which
vanish for an even potential.  cos_coefficient reads the coefficient table
by the lattice rule alone.  basis_values evaluates one basis function
pointwise.  sector_positions partitions a basis into the symmetry sectors
of A_m one function at a time.  shell_waves walks the enumeration shells
one at a time.  mode_box_stream enumerates the eigenvalues over lattice
modes (m1, m2) in a box sized by the singular values of the frequency map.
"""

import math

import numpy as np

from wente_index.assembly import NyquistError, PotentialField
from wente_index.basis import Basis
from wente_index.surface import Lattice, lattice, potential_grid


def _transform_vectors(n: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    angles = 2.0 * np.pi * np.outer(np.arange(n), np.arange(kmax + 1)) / n
    return np.cos(angles), np.sin(angles)


def cell_grid(fld: PotentialField) -> np.ndarray:
    """V at the field's nx x ny samples of its period cell [0, x_period / 2) x [0, y_period / 2)."""
    p = fld.surface
    x = np.arange(fld.nx) * (0.5 * p.x_period / fld.nx)
    y = np.arange(fld.ny) * (0.5 * p.y_period / fld.ny)
    return potential_grid(p, x, y)


def sine_channel_max(fld: PotentialField, pmax: int | None = None, qmax: int | None = None) -> float:
    """Largest |sine-coupled coefficient|; a symmetry diagnostic, ~0 for even V."""
    grid = cell_grid(fld)
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
            worst = max(worst, float(np.max(np.abs(left.T @ grid @ right))) * scale)
    return worst


def basis_values(lat: Lattice, basis: Basis, i: int, x, y):
    """The function at position i of a basis of lattice lat on broadcastable coordinates."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    arg = 2.0 * np.pi * (basis.wave_x[i] * x / lat.width + basis.wave_y[i] * y / lat.height)
    return basis.norm[i] * (np.sin(arg) if basis.sine[i] else np.cos(arg))


def b_entry_quadrature(fld: PotentialField, basis: Basis, i: int, j: int, grid=None) -> float:
    """b_ij at positions i, j by the periodic trapezoid rule on the field's grid.

    The cell samples (cell_grid unless given) are tiled over the rectangle
    [0, cell_area / height) x [0, height), a fundamental domain of the torus
    for either parity.
    """
    grid = cell_grid(fld) if grid is None else grid
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
    tiles = round(2.0 * lat.cell_area / lat.height / p.x_period), round(2.0 * lat.height / p.y_period)
    dx, dy = 0.5 * p.x_period / fld.nx, 0.5 * p.y_period / fld.ny
    x = (np.arange(tiles[0] * fld.nx) * dx)[:, None]
    y = (np.arange(tiles[1] * fld.ny) * dy)[None, :]
    integrand = np.tile(grid, tiles) * basis_values(lat, basis, i, x, y) * basis_values(lat, basis, j, x, y)
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


def mode_box_stream(lat: Lattice, limit: float) -> np.ndarray:
    """Every eigenvalue < limit, one per eigenfunction, ascending, over lattice modes (m1, m2).

    The lattice is spanned by (a1, a2), (b1, b2): (width, 0), (0, height)
    for odd parity, (width / 2, height / 2), (0, height) for even.  Mode
    (m1, m2) has the frequency (2 pi / D) (m2 b2 - m1 a2, m1 a1 - m2 b1),
    D = a1 b2 - a2 b1; every mode below the limit lies in the box
    |m1|, m2 <= sqrt(limit) D / (2 pi sigma_min) of the frequency map.
    """
    half = 0.5 if lat.parity == "even" else 1.0
    a1, a2, b1, b2 = half * lat.width, (1.0 - half) * lat.height, 0.0, lat.height
    d = a1 * b2 - a2 * b1
    sigma_min = np.linalg.svd(np.array([[-a2, b2], [a1, -b1]]), compute_uv=False)[-1]
    r = int(math.sqrt(limit) * d / (2.0 * math.pi * sigma_min)) + 1
    m1, m2 = np.meshgrid(np.arange(-r, r + 1), np.arange(0, r + 1), indexing="ij")
    keep = (m2 > 0) | ((m2 == 0) & (m1 > 0))
    m1, m2 = m1[keep], m2[keep]
    fx = 2.0 * np.pi * (m2 * b2 - m1 * a2) / d
    fy = 2.0 * np.pi * (m1 * a1 - m2 * b1) / d
    alpha = fx * fx + fy * fy
    return np.concatenate([[0.0], np.repeat(np.sort(alpha[alpha < limit]), 2)])
