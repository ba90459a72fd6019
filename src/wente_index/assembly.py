"""Assembly of the truncated stability operator A_m = (alpha_i d_ij - b_ij).

b_ij integrates V u_i u_j over a fundamental rectangle of the torus:
[0, n x_period) x [0, y_period) for odd l, and [0, n x_period / 2) x
[0, y_period) for even l (an equivalent fundamental domain on which every
integrand is a finite trigonometric sum, so nothing is lost by the change).

One vectorized gather produces the entries for any sequence of basis
functions from a single cosine-coefficient table of V: b_matrix returns
b_ij, stability_matrix the restricted form, and the full matrix, subspace
restrictions and the greedy search all come from it.

b_entry_quadrature applies the periodic trapezoid rule to one entry on the
same grid.  There it is the same discrete Fourier transform as the table,
so it checks the gather, not aliasing; it is kept as the test oracle.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .basis import BasisFunction, enumerate_basis
from .surface import SurfaceParams, build_surface, lattice, potential_extrema, potential_grid

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

DEFAULT_GRID = 1024
# Sharply peaked potentials (V_max in the thousands) get a denser grid so
# that coefficient aliasing stays below the acceptance tolerances.
ESCALATION_VMAX = 1.0e3
ESCALATED_GRID = 4096
DEFAULT_MAX_WAVE = 64


class CoefficientRangeError(ValueError):
    """A requested Fourier coefficient lies outside the stored table."""


class NyquistError(ValueError):
    """The sampling grid cannot resolve the requested mode frequencies."""


@dataclass(frozen=True)
class AssemblyConfig:
    nx: int | None = None
    ny: int | None = None
    cache_dir: "str | Path | None" = None

    def grids_for(self, p: SurfaceParams) -> tuple[int, int]:
        if self.nx is not None and self.ny is not None:
            return self.nx, self.ny
        _, v_max = potential_extrema(p)
        auto = ESCALATED_GRID if v_max > ESCALATION_VMAX else DEFAULT_GRID
        return self.nx or auto, self.ny or auto


@dataclass(frozen=True)
class PotentialField:
    """V sampled on the fundamental rectangle plus its cosine coefficients.

    coeffs[P, Q] approximates (1/area) * integral of
    V cos(2 pi P x / width) cos(2 pi Q y / height) over the rectangle,
    indexed by the rectangle's own integer frequencies.
    """

    surface: SurfaceParams
    nx: int
    ny: int
    width: float
    height: float
    coeffs: np.ndarray
    grid: np.ndarray | None = field(default=None, repr=False)

    @property
    def parity(self) -> str:
        return "odd" if self.surface.ell % 2 == 1 else "even"

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (self.width / self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * (self.height / self.ny)

    @property
    def area(self) -> float:
        return self.width * self.height

    def cos_coefficient(self, wave_x, wave_y) -> np.ndarray:
        """(1/area) integral of V cos(2 pi (wave_x x / (n x_period) + wave_y y / y_period)).

        Elementwise over integer arrays (or scalars) of equal shape.  Wave
        integers are measured against (n x_period, y_period) as in the basis
        enumeration.  The potential has x-period x_period/2 and y-period
        y_period/2 (cn flips sign over a half period and V is even in it),
        so its spectrum lives on wave multiples of (2n, 2); every other
        coefficient is structurally zero and returned as exact 0.0.  An
        on-lattice coefficient beyond the stored table raises
        CoefficientRangeError.
        """
        a = np.abs(np.asarray(wave_x, dtype=np.int64))
        b = np.abs(np.asarray(wave_y, dtype=np.int64))
        # lookup table by wave integer: exact zeros off the lattice, NaN on
        # lattice waves whose coefficient lies beyond the stored table
        rows = np.arange(0, a.max() + 1, 2 * self.surface.n)
        cols = np.arange(0, b.max() + 1, 2)
        stored = rows // 2 if self.parity == "even" else rows
        pdim, qdim = self.coeffs.shape
        padded = np.full((pdim + 1, qdim + 1), np.nan)
        padded[:pdim, :qdim] = self.coeffs
        table = np.zeros((a.max() + 1, b.max() + 1))
        table[np.ix_(rows, cols)] = padded[np.ix_(np.minimum(stored, pdim), np.minimum(cols, qdim))]
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


def _rectangle(p: SurfaceParams) -> tuple[float, float]:
    width = p.n * p.x_period
    if p.ell % 2 == 0:
        width *= 0.5
    return width, p.y_period


def _table_shape(nx: int, ny: int, max_wave_x: int, max_wave_y: int) -> tuple[int, int]:
    """Shape of the stored coefficient table: the requested extent, capped below Nyquist."""
    return min(max_wave_x, nx // 2 - 1) + 1, min(max_wave_y, ny // 2 - 1) + 1


def sample_potential(
    p: SurfaceParams,
    nx: int = DEFAULT_GRID,
    ny: int = DEFAULT_GRID,
    max_wave_x: int = DEFAULT_MAX_WAVE,
    max_wave_y: int = DEFAULT_MAX_WAVE,
) -> PotentialField:
    """Sample V on the fundamental rectangle and tabulate cosine coefficients.

    nx, ny must be powers of two, at least 64.  The stored table covers
    rectangle frequencies up to (max_wave_x, max_wave_y), capped below the
    Nyquist index of the grid.
    """
    for label, n in (("nx", nx), ("ny", ny)):
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"{label} must be a power of two >= 64, got {n}")
    width, height = _rectangle(p)
    x = np.arange(nx) * (width / nx)
    y = np.arange(ny) * (height / ny)
    grid = potential_grid(p, x, y)
    pdim, qdim = _table_shape(nx, ny, max_wave_x, max_wave_y)
    cx, _ = _transform_vectors(nx, pdim - 1)
    cy, _ = _transform_vectors(ny, qdim - 1)
    coeffs = (cx.T @ grid @ cy) / (nx * ny)
    return PotentialField(
        surface=p, nx=nx, ny=ny, width=width, height=height, coeffs=coeffs, grid=grid
    )


def potential_field(
    p: SurfaceParams, functions: Sequence[BasisFunction], cfg: AssemblyConfig
) -> PotentialField:
    """V on the configured grid, with a table covering every product of the functions.

    A product reaches the sum of two wave pairs; the even-parity rectangle
    is half as wide, so its x frequencies are half the wave integers.
    """
    need_x = 2 * max(abs(f.wave_x) for f in functions)
    need_y = 2 * max(abs(f.wave_y) for f in functions)
    if p.ell % 2 == 0:
        need_x //= 2
    nx, ny = cfg.grids_for(p)
    return cached_sample_potential(p, nx, ny, cfg.cache_dir, need_x, need_y)


def b_entry_quadrature(fld: PotentialField, ui: BasisFunction, uj: BasisFunction) -> float:
    """b_ij by the periodic trapezoid rule on the field's own grid (test oracle)."""
    if fld.grid is None:
        raise ValueError("field was loaded without grid samples; resample to use quadrature")
    half = 0.5 if fld.parity == "even" else 1.0
    cycles_x = (abs(ui.wave_x) + abs(uj.wave_x)) * half
    cycles_y = float(abs(ui.wave_y) + abs(uj.wave_y))
    if cycles_x >= fld.nx / 2 or cycles_y >= fld.ny / 2:
        raise NyquistError(
            f"grid {fld.nx}x{fld.ny} cannot resolve combined mode ({cycles_x}, {cycles_y}) cycles"
        )
    x = fld.x[:, None]
    y = fld.y[None, :]
    integrand = fld.grid * ui.values(x, y) * uj.values(x, y)
    cell = (fld.width / fld.nx) * (fld.height / fld.ny)
    return float(integrand.sum()) * cell


def _phase_blocks(fld: PotentialField, functions: Sequence[BasisFunction]):
    """Yield (positions, b block) for the sine and then the cosine functions.

    A same-phase pair reduces to the cosine coefficients at the wave
    difference and the wave sum: b_ij = n_i n_j area * 0.5 * (C[w_i - w_j]
    - C[w_i + w_j]) for sines and with + for cosines.  Working one block at
    a time keeps temporaries at the size of one block.
    """
    for phase in ("sin", "cos"):
        idx = np.array([r for r, f in enumerate(functions) if f.phase == phase], dtype=np.intp)
        if idx.size == 0:
            continue
        wx = np.array([functions[r].wave_x for r in idx])
        wy = np.array([functions[r].wave_y for r in idx])
        norm = np.array([functions[r].norm for r in idx])
        diff = fld.cos_coefficient(wx[:, None] - wx, wy[:, None] - wy)
        total = fld.cos_coefficient(wx[:, None] + wx, wy[:, None] + wy)
        value = 0.5 * (diff - total) if phase == "sin" else 0.5 * (diff + total)
        yield np.ix_(idx, idx), np.outer(norm, norm) * fld.area * value


def b_matrix(fld: PotentialField, functions: Sequence[BasisFunction]) -> np.ndarray:
    """b_ij = integral of V u_i u_j for every pair of the given functions.

    sin(A)cos(B) expands into pure sines, which integrate to zero against
    the even potential, so mixed-phase entries are exact zeros.
    """
    b = np.zeros((len(functions), len(functions)))
    for block, values in _phase_blocks(fld, functions):
        b[block] = values
    return b


def stability_matrix(fld: PotentialField, functions: Sequence[BasisFunction]) -> np.ndarray:
    """alpha_i delta_ij - b_ij restricted to the span of the given functions.

    Symmetric bit for bit, since b_ij and b_ji are computed by the same
    operations.  Mixed-phase entries are +0.0 and every other off-diagonal
    entry is exactly -b_ij.
    """
    a = np.zeros((len(functions), len(functions)))
    for block, values in _phase_blocks(fld, functions):
        a[block] = -values
    a[np.diag_indices_from(a)] += [f.alpha for f in functions]
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
    """
    basis = enumerate_basis(lattice(p), m)
    if fld is None:
        fld = potential_field(p, basis.functions, cfg or AssemblyConfig())
    provenance = {
        "surface": p.label,
        "H": p.H,
        "theta_degrees": p.theta_degrees,
        "m": m,
        "nx": fld.nx,
        "ny": fld.ny,
    }
    return GalerkinMatrix(
        m=m, entries=stability_matrix(fld, basis.functions), surface=p, provenance=provenance
    )


# --- potential-field cache -------------------------------------------------
#
# Binary layout: magic, version, the key (l, n, H, theta, nx, ny), the
# rectangle, the coefficient table shape, then the raw float64 coefficients.
# Raw bytes round-trip bit for bit, so a cache hit reproduces the assembly
# exactly.  The transform's low bits depend on the table extent, so the
# file name carries the table shape and only an exact match is a hit.

_CACHE_MAGIC = b"WNTPOT"
_CACHE_VERSION = 1
_HEADER = struct.Struct("<6sH i i d d i i d d i i")


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
        fld.width,
        fld.height,
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
    magic, version, ell, n, big_h, theta, nx, ny, width, height, pdim, qdim = _HEADER.unpack(
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
    p = build_surface(ell, n, big_h, theta)
    fld = PotentialField(
        surface=p, nx=nx, ny=ny, width=width, height=height, coeffs=coeffs, grid=None
    )
    return fld


def cached_sample_potential(
    p: SurfaceParams,
    nx: int,
    ny: int,
    cache_dir: "str | Path | None",
    max_wave_x: int = DEFAULT_MAX_WAVE,
    max_wave_y: int = DEFAULT_MAX_WAVE,
) -> PotentialField:
    """sample_potential with a directory-backed cache of coefficient tables.

    A missing or unreadable file is a miss: the table is sampled again and
    the file rewritten.
    """
    if cache_dir is None:
        return sample_potential(p, nx, ny, max_wave_x, max_wave_y)
    key = field_cache_key(p, nx, ny)
    shape = _table_shape(nx, ny, max_wave_x, max_wave_y)
    name = "pot_{}_{}_H{}_t{}_{}x{}_c{}x{}.wntpot".format(*key, *shape)
    path = Path(cache_dir) / name
    try:
        fld = read_field_cache(path)
    except (OSError, ValueError):
        fld = None
    if fld is not None and field_cache_key(fld.surface, fld.nx, fld.ny) == key and fld.coeffs.shape == shape:
        return fld
    fld = sample_potential(p, nx, ny, max_wave_x, max_wave_y)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_field_cache(fld, path)
    return fld
