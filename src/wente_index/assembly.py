"""Assembly of the truncated stability operator A_m = (alpha_i d_ij - b_ij).

b_ij integrates V u_i u_j over the torus.  V has x-period x_period/2 and
y-period y_period/2 (cn flips sign over a half period and V is even in it),
so everything assembly needs is the cosine-coefficient table of V on its own
period cell [0, x_period/2) x [0, y_period/2); the table does not depend on
the lattice parity of the torus.

One vectorized gather reads the Basis arrays and that table: b_matrix
returns b_ij and stability_matrix the form, on any basis[pos] (published
index i is position i - 1).  assemble is the only code that enumerates
the basis and samples V for the index computations; subspace restrictions
and the greedy search are principal submatrices of the matrix it returns.

b_entry_quadrature applies the periodic trapezoid rule to one entry, with
the cell samples tiled over a fundamental domain of the torus.  There it is
the same discrete Fourier transform as the table, so it checks the gather,
not aliasing; it is kept as the test oracle.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import Basis, _physical_memory, enumerate_basis
from .surface import ParameterError, SurfaceParams, build_surface, lattice, potential_grid

__all__ = [
    "AssemblyConfig",
    "PotentialField",
    "GalerkinMatrix",
    "CoefficientRangeError",
    "NyquistError",
    "sample_potential",
    "cached_sample_potential",
    "potential_field",
    "b_entry_quadrature",
    "b_matrix",
    "stability_matrix",
    "assemble",
    "field_cache_key",
    "write_field_cache",
    "read_field_cache",
]

# Samples per period cell; resolves every catalogued potential (and theta up
# to 24.5 degrees) to about 1e-11 relative.
DEFAULT_GRID = 256
# Peak memory of a report at size m, in dense m x m float64 matrices: a report
# at m = 2113 peaks about five above its baseline (the matrix, eigenvectors,
# residual product and temporaries); one more is headroom.
DENSE_PEAK_MATRICES = 6


class CoefficientRangeError(ValueError):
    """A requested Fourier coefficient lies outside the stored table."""


class NyquistError(ValueError):
    """The sampling grid cannot resolve the requested mode frequencies."""


@dataclass(frozen=True)
class AssemblyConfig:
    nx: int = DEFAULT_GRID
    ny: int = DEFAULT_GRID
    cache_dir: "str | Path | None" = None


@dataclass(frozen=True)
class PotentialField:
    """V sampled on its period cell plus its cosine coefficients.

    coeffs[P, Q] approximates the cell average of
    V cos(2 pi P x / (x_period / 2)) cos(2 pi Q y / (y_period / 2)).
    grid holds the nx x ny cell samples (None when loaded from the cache).
    """

    surface: SurfaceParams
    nx: int
    ny: int
    coeffs: np.ndarray
    grid: np.ndarray | None = field(default=None, repr=False)

    @property
    def area(self) -> float:
        """Area of the torus, the domain every b_ij integrates over."""
        return abs(lattice(self.surface).cell_area)

    def cos_coefficient(self, wave_x, wave_y) -> np.ndarray:
        """(1/area) integral of V cos(2 pi (wave_x x / (n x_period) + wave_y y / y_period)).

        Elementwise over integer arrays (or scalars) of equal shape.  Wave
        integers are measured against (n x_period, y_period) as in the basis
        enumeration, so the cell frequencies (P, Q) sit at the waves
        (2n P, 2 Q); every other coefficient is structurally zero and
        returned as exact 0.0.  An on-lattice coefficient beyond the stored
        table raises CoefficientRangeError.
        """
        a = np.abs(np.asarray(wave_x, dtype=np.int64))
        b = np.abs(np.asarray(wave_y, dtype=np.int64))
        step = 2 * self.surface.n
        rows, cols = a.max() // step + 1, b.max() // 2 + 1
        # lookup table by wave integer: exact zeros off the lattice, NaN on
        # lattice waves whose coefficient lies beyond the stored table
        pdim, qdim = self.coeffs.shape
        padded = np.full((max(rows, pdim), max(cols, qdim)), np.nan)
        padded[:pdim, :qdim] = self.coeffs
        table = np.zeros((a.max() + 1, b.max() + 1))
        table[::step, ::2] = padded[:rows, :cols]
        values = table[a, b]
        missing = np.isnan(values)
        if missing.any():
            k = np.flatnonzero(missing)[0]
            raise CoefficientRangeError(
                f"coefficient ({a.flat[k]}, {b.flat[k]}) outside stored range {self.coeffs.shape}"
            )
        return values

    def sine_channel_max(self, pmax: int | None = None, qmax: int | None = None) -> float:
        """Largest |sine-coupled coefficient|; a symmetry diagnostic, ~0 for even V."""
        if self.grid is None:
            raise ValueError("field was loaded without grid samples")
        pmax = self.coeffs.shape[0] - 1 if pmax is None else pmax
        qmax = self.coeffs.shape[1] - 1 if qmax is None else qmax
        cx, sx = _transform_vectors(self.nx, pmax)
        cy, sy = _transform_vectors(self.ny, qmax)
        scale = 1.0 / (self.nx * self.ny)
        worst = 0.0
        for left in (cx, sx):
            for right in (cy, sy):
                if left is cx and right is cy:
                    continue
                worst = max(worst, float(np.max(np.abs(left.T @ self.grid @ right))) * scale)
        return worst


def _transform_vectors(n: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    angles = 2.0 * np.pi * np.outer(np.arange(n), np.arange(kmax + 1)) / n
    return np.cos(angles), np.sin(angles)


def sample_potential(p: SurfaceParams, nx: int, ny: int, pmax: int, qmax: int) -> PotentialField:
    """Sample V on its period cell and tabulate cosine coefficients.

    nx, ny must be powers of two, at least 64.  The stored table covers
    cell frequencies up to (pmax, qmax); a frequency at or above the
    Nyquist index of the grid raises NyquistError.
    """
    for label, n in (("nx", nx), ("ny", ny)):
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"{label} must be a power of two >= 64, got {n}")
    if pmax >= nx // 2 or qmax >= ny // 2:
        # smallest power of two whose Nyquist index exceeds both frequencies
        need = max(64, 1 << (2 * max(pmax, qmax) + 1).bit_length())
        raise NyquistError(
            f"cell grid {nx}x{ny} cannot resolve cell frequency ({pmax}, {qmax}); "
            f"use --grid {need} or finer"
        )
    x = np.arange(nx) * (0.5 * p.x_period / nx)
    y = np.arange(ny) * (0.5 * p.y_period / ny)
    grid = potential_grid(p, x, y)
    cx, _ = _transform_vectors(nx, pmax)
    cy, _ = _transform_vectors(ny, qmax)
    coeffs = (cx.T @ grid @ cy) / (nx * ny)
    return PotentialField(surface=p, nx=nx, ny=ny, coeffs=coeffs, grid=grid)


def potential_field(p: SurfaceParams, basis: Basis, cfg: AssemblyConfig) -> PotentialField:
    """V on the configured grid, with a table covering every product of the functions.

    A product reaches the sum of two wave pairs; the wave (2n P, 2 Q) is
    the cell frequency (P, Q).
    """
    reach_x = 2 * int(np.abs(basis.wave_x).max())
    reach_y = 2 * int(np.abs(basis.wave_y).max())
    return cached_sample_potential(
        p, cfg.nx, cfg.ny, cfg.cache_dir, reach_x // (2 * p.n), reach_y // 2
    )


def b_entry_quadrature(fld: PotentialField, basis: Basis, i: int, j: int) -> float:
    """b_ij at positions i, j by the periodic trapezoid rule on the field's grid (test oracle).

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


def _phase_blocks(fld: PotentialField, basis: Basis):
    """Yield (positions, b block) for the sine and then the cosine functions.

    A same-phase pair reduces to the cosine coefficients at the wave
    difference and the wave sum: b_ij = n_i n_j area * 0.5 * (C[w_i - w_j]
    - C[w_i + w_j]) for sines and with + for cosines.  Working one block at
    a time keeps temporaries at the size of one block.
    """
    for sine in (True, False):
        idx = np.flatnonzero(basis.sine == sine)
        if idx.size == 0:
            continue
        wx, wy, norm = basis.wave_x[idx], basis.wave_y[idx], basis.norm[idx]
        diff = fld.cos_coefficient(wx[:, None] - wx, wy[:, None] - wy)
        total = fld.cos_coefficient(wx[:, None] + wx, wy[:, None] + wy)
        value = 0.5 * (diff - total) if sine else 0.5 * (diff + total)
        yield np.ix_(idx, idx), np.outer(norm, norm) * fld.area * value


def b_matrix(fld: PotentialField, basis: Basis) -> np.ndarray:
    """b_ij = integral of V u_i u_j for every pair of functions of the basis.

    sin(A)cos(B) expands into pure sines, which integrate to zero against
    the even potential, so mixed-phase entries are exact zeros.
    """
    b = np.zeros((len(basis), len(basis)))
    for block, values in _phase_blocks(fld, basis):
        b[block] = values
    return b


def stability_matrix(fld: PotentialField, basis: Basis) -> np.ndarray:
    """alpha_i delta_ij - b_ij restricted to the span of the basis.

    Symmetric bit for bit, since b_ij and b_ji are computed by the same
    operations.  Mixed-phase entries are +0.0 and every other off-diagonal
    entry is exactly -b_ij.
    """
    a = np.zeros((len(basis), len(basis)))
    for block, values in _phase_blocks(fld, basis):
        a[block] = -values
    a[np.diag_indices_from(a)] += basis.alpha
    return a


@dataclass(frozen=True)
class GalerkinMatrix:
    m: int
    entries: np.ndarray
    surface: SurfaceParams
    provenance: dict


def assemble(
    p: SurfaceParams,
    m: int,
    cfg: AssemblyConfig | None = None,
    fld: PotentialField | None = None,
) -> GalerkinMatrix:
    """Assemble the symmetric m x m truncation of -Laplacian - V.

    A prebuilt field may be passed to reuse one potential pass across calls;
    otherwise one covering the basis is sampled, or read from the cache.
    An m whose dense matrices would not fit in physical memory raises
    ParameterError before any work is done.
    """
    need = DENSE_PEAK_MATRICES * 8 * m * m
    have = _physical_memory()
    if need > have:
        raise ParameterError(
            f"m = {m} needs about {need / 2**30:.1f} GiB for dense assembly and eigensolve; "
            f"this machine has {have / 2**30:.1f} GiB"
        )
    basis = enumerate_basis(lattice(p), m)
    if fld is None:
        fld = potential_field(p, basis, cfg or AssemblyConfig())
    provenance = {
        "surface": p.label,
        "H": p.H,
        "theta_degrees": p.theta_degrees,
        "m": m,
        "nx": fld.nx,
        "ny": fld.ny,
    }
    return GalerkinMatrix(
        m=m, entries=stability_matrix(fld, basis), surface=p, provenance=provenance
    )


# --- potential-field cache -------------------------------------------------
#
# Binary layout: magic, version, the key (l, n, H, theta, nx, ny), the
# coefficient table shape, then the raw float64 coefficients.  Version 2
# holds period-cell tables; files of any other version are a miss.
# Raw bytes round-trip bit for bit, so a cache hit reproduces the assembly
# exactly.  The transform's low bits depend on the table extent, so the
# file name carries the table shape and only an exact match is a hit.

_CACHE_MAGIC = b"WNTPOT"
_CACHE_VERSION = 2
_HEADER = struct.Struct("<6sH i i d d i i i i")


def field_cache_key(p: SurfaceParams, nx: int, ny: int) -> tuple:
    return (p.ell, p.n, p.H, p.theta_degrees, nx, ny)


def write_field_cache(fld: PotentialField, path: "str | Path") -> None:
    """Write atomically: readers see the old file or the complete new one."""
    p = fld.surface
    header = _HEADER.pack(
        _CACHE_MAGIC,
        _CACHE_VERSION,
        p.ell,
        p.n,
        p.H,
        p.theta_degrees,
        fld.nx,
        fld.ny,
        fld.coeffs.shape[0],
        fld.coeffs.shape[1],
    )
    payload = np.ascontiguousarray(fld.coeffs, dtype="<f8").tobytes()
    path = Path(path)
    # the temporary name ends in .tmp, so cache listings never see it
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header + payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_field_cache(path: "str | Path") -> PotentialField:
    """Load a cached coefficient table; grid samples are not stored."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated cache file")
    magic, version, ell, n, big_h, theta, nx, ny, pdim, qdim = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    if magic != _CACHE_MAGIC:
        raise ValueError(f"{path}: not a potential cache file")
    if version != _CACHE_VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    expected = _HEADER.size + 8 * pdim * qdim
    if len(raw) != expected:
        raise ValueError(f"{path}: cache payload size mismatch")
    coeffs = np.frombuffer(raw[_HEADER.size :], dtype="<f8").reshape(pdim, qdim).copy()
    return PotentialField(surface=build_surface(ell, n, big_h, theta), nx=nx, ny=ny, coeffs=coeffs)


def cached_sample_potential(
    p: SurfaceParams,
    nx: int,
    ny: int,
    cache_dir: "str | Path | None",
    pmax: int,
    qmax: int,
) -> PotentialField:
    """sample_potential with a directory-backed cache of coefficient tables.

    A missing or unreadable file is a miss: the table is sampled again and
    the file rewritten.
    """
    if cache_dir is None:
        return sample_potential(p, nx, ny, pmax, qmax)
    key = field_cache_key(p, nx, ny)
    shape = (pmax + 1, qmax + 1)
    name = "pot_{}_{}_H{}_t{}_{}x{}_c{}x{}.wntpot".format(*key, *shape)
    path = Path(cache_dir) / name
    try:
        fld = read_field_cache(path)
    except (OSError, ValueError):
        fld = None
    if fld is not None and field_cache_key(fld.surface, fld.nx, fld.ny) == key and fld.coeffs.shape == shape:
        return fld
    fld = sample_potential(p, nx, ny, pmax, qmax)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_field_cache(fld, path)
    return fld
