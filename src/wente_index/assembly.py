"""Assembly of the truncated stability operator A_m = (alpha_i d_ij - b_ij).

b_ij integrates V u_i u_j over the torus.  V has x-period x_period/2 and
y-period y_period/2 (cn flips sign over a half period and V is even in it),
so everything assembly needs is the cosine-coefficient table of V on its own
period cell [0, x_period/2) x [0, y_period/2); the table does not depend on
the lattice parity of the torus.

Against the basis waves those coefficients sit on the lattice (2n, 2), so
b_ij vanishes unless w_i - w_j or w_i + w_j lies on it: A_m is block
diagonal over the sectors of (wave_x mod 2n, wave_y mod 2) up to sign,
split again by phase (the Floquet-Bloch reduction).  assemble returns
those blocks, each with its positions in the published order (published
index i is position i - 1), from one vectorized gather over every pair
within a sector; it is the only code that enumerates the basis and
samples V for the index computations.  GalerkinMatrix.principal scatters
a subspace restriction out of the blocks it meets and .entries the dense
matrix; b_matrix and stability_matrix are the same scatters on any
basis[pos].  Between sectors the form holds -0.0 for two functions of one
phase (the negated zero b_ij) and +0.0 across phases.

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
from typing import NamedTuple, Sequence

import numpy as np

from .basis import Basis, _physical_memory, enumerate_basis
from .surface import ParameterError, SurfaceParams, build_surface, lattice, potential_grid

__all__ = [
    "AssemblyConfig",
    "PotentialField",
    "GalerkinMatrix",
    "SectorBlock",
    "CoefficientRangeError",
    "NyquistError",
    "sample_potential",
    "cached_sample_potential",
    "potential_field",
    "b_entry_quadrature",
    "sector_positions",
    "gather_sectors",
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
# Peak bytes of a report per in-sector pair (a pair of functions in one
# sector): the gather peaks at about 66 (index arrays, wave sums, their
# coefficients and the blocks) at m = 1013 and 2113; the rest is headroom.
SECTOR_PAIR_BYTES = 80


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


class SectorBlock(NamedTuple):
    """One diagonal block: ascending positions (published index - 1) and the entries among them."""

    positions: np.ndarray
    matrix: np.ndarray


def sector_positions(basis: Basis, n: int) -> list[np.ndarray]:
    """Positions of each symmetry sector of the basis, ascending within a sector.

    A sector is a class of (wave_x mod 2n, wave_y mod 2) up to sign, split
    by phase.  b_ij needs a coefficient of V at w_i - w_j or w_i + w_j, zero
    off the wave lattice (2n, 2), so no entry couples two sectors.
    """
    step = 2 * n
    code = np.minimum(basis.wave_x % step, -basis.wave_x % step) * 2 + basis.wave_y % 2
    key = code * 2 + basis.sine
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def gather_sectors(fld: PotentialField, basis: Basis, sectors: list, form: bool = False) -> list[SectorBlock]:
    """b_ij, or with form alpha_i delta_ij - b_ij, for every pair within a sector, one block per sector.

    A same-phase pair reduces to the cosine coefficients at the wave
    difference and the wave sum: b_ij = n_i n_j area * 0.5 * (C[w_i - w_j]
    - C[w_i + w_j]) for sines and with + for cosines.  The pairs of all
    sectors go through one cos_coefficient call for the differences and one
    for the sums, so the lookup table is built once.
    """
    # the pairs of each sector in row-major order, sector after sector
    i = np.concatenate([np.repeat(s, len(s)) for s in sectors])
    j = np.concatenate([np.tile(s, len(s)) for s in sectors])
    wx, wy = basis.wave_x, basis.wave_y
    diff = fld.cos_coefficient(wx[i] - wx[j], wy[i] - wy[j])
    total = fld.cos_coefficient(wx[i] + wx[j], wy[i] + wy[j])
    np.negative(total, out=total, where=basis.sine[i])
    b = basis.norm[i] * basis.norm[j] * fld.area * (0.5 * (diff + total))
    if form:
        np.negative(b, out=b)
        diagonal = np.flatnonzero(i == j)
        b[diagonal] += basis.alpha[i[diagonal]]
    ends = np.cumsum([len(s) ** 2 for s in sectors])
    return [SectorBlock(s, b[e - len(s) ** 2 : e].reshape(len(s), -1)) for s, e in zip(sectors, ends)]


def _dense(blocks: Sequence[SectorBlock], sine: np.ndarray, pos: np.ndarray, zero: float) -> np.ndarray:
    """The principal submatrix at positions pos, scattered from the blocks it meets.

    Entries between sectors are `zero` for two functions of one phase and
    +0.0 across phases (sin(A) cos(B) integrates to zero against V).
    """
    sector = np.empty(len(sine), dtype=np.intp)
    for k, blk in enumerate(blocks):
        sector[blk.positions] = k
    sector = sector[pos]
    out = np.where(sine[pos, None] == sine[pos], zero, 0.0)
    for k in np.unique(sector).tolist():
        rows = np.flatnonzero(sector == k)
        inner = blocks[k].positions.searchsorted(pos[rows])
        out[rows[:, None], rows] = blocks[k].matrix[inner[:, None], inner]
    return out


def b_matrix(fld: PotentialField, basis: Basis) -> np.ndarray:
    """b_ij = integral of V u_i u_j for every pair of functions of the basis."""
    blocks = gather_sectors(fld, basis, sector_positions(basis, fld.surface.n))
    return _dense(blocks, basis.sine, np.arange(len(basis)), 0.0)


def stability_matrix(fld: PotentialField, basis: Basis) -> np.ndarray:
    """alpha_i delta_ij - b_ij restricted to the span of the basis.

    Symmetric bit for bit: b_ij and b_ji are computed by the same operations.
    """
    blocks = gather_sectors(fld, basis, sector_positions(basis, fld.surface.n), form=True)
    return _dense(blocks, basis.sine, np.arange(len(basis)), -0.0)


@dataclass(frozen=True)
class GalerkinMatrix:
    """A_m as its symmetry-sector blocks; every entry between sectors is zero."""

    m: int
    blocks: tuple[SectorBlock, ...]
    basis: Basis
    surface: SurfaceParams
    provenance: dict

    @property
    def entries(self) -> np.ndarray:
        """The dense m x m matrix (8 m^2 bytes, outside assemble's memory guard), scattered on each access."""
        return self.principal(np.arange(self.m))

    def principal(self, pos) -> np.ndarray:
        """The principal submatrix at positions pos, bit for bit that slice of entries."""
        return _dense(self.blocks, self.basis.sine, np.asarray(pos, dtype=np.intp), -0.0)


def _refuse_beyond_memory(m: int, pairs: float, blocks: str, largest) -> None:
    """ParameterError when that many in-sector pairs would not fit in physical memory."""
    need, have = SECTOR_PAIR_BYTES * pairs, _physical_memory()
    if need > have:
        raise ParameterError(
            f"m = {m} needs about {need / 2**30:.1f} GiB to assemble its {blocks} "
            f"(the largest has {largest} functions); this machine has {have / 2**30:.1f} GiB"
        )


def assemble(
    p: SurfaceParams,
    m: int,
    cfg: AssemblyConfig | None = None,
    fld: PotentialField | None = None,
) -> GalerkinMatrix:
    """Assemble the m x m truncation of -Laplacian - V as its sector blocks.

    A prebuilt field may be passed to reuse one potential pass across calls;
    otherwise one covering the basis is sampled, or read from the cache.
    An m whose in-sector pairs would not fit in physical memory raises
    ParameterError before V is sampled or any entry gathered; one that
    cannot fit whatever the sectors raises it before the basis is enumerated.
    """
    # wave_x classes 0..n up to sign, two wave_y parities and two phases make
    # at most 4(n + 1) sectors, so m functions form at least m^2 / (4(n + 1))
    # in-sector pairs
    most = 4 * (p.n + 1)
    _refuse_beyond_memory(m, m * m / most, f"at most {most} symmetry blocks", f"at least {-(-m // most)}")
    basis = enumerate_basis(lattice(p), m)
    sectors = sector_positions(basis, p.n)
    sizes = [len(s) for s in sectors]
    _refuse_beyond_memory(m, sum(k * k for k in sizes), f"{len(sizes)} symmetry blocks", max(sizes))
    if fld is None:
        fld = potential_field(p, basis, cfg or AssemblyConfig())
    blocks = tuple(gather_sectors(fld, basis, sectors, form=True))
    provenance = {
        "surface": p.label,
        "H": p.H,
        "theta_degrees": p.theta_degrees,
        "m": m,
        "nx": fld.nx,
        "ny": fld.ny,
    }
    return GalerkinMatrix(m=m, blocks=blocks, basis=basis, surface=p, provenance=provenance)


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
