"""Assembly of the truncated stability operator A_m = (alpha_i d_ij - b_ij).

b_ij integrates V u_i u_j over the torus.  V has x-period x_period/2 and
y-period y_period/2 (cn flips sign over a half period and V is even in it),
so everything assembly needs is the cosine-coefficient table of V on its own
period cell; the table does not depend on the lattice parity of the torus.

Those coefficients sit on the wave lattice (2n, 2), so b_ij vanishes unless
w_i - w_j or w_i + w_j lies on it: A_m is block diagonal over the sectors
of (wave_x mod 2n, wave_y mod 2) up to sign, split by phase (Floquet-Bloch).
V is even in y, so the mirror R: (x, y) -> (x, -y) commutes with A_m and
maps each sector to itself.  A sector whose mirror partners are all in the
basis splits into an even and an odd half in the orthonormal basis
(u_i +- u_Ri) / sqrt(2) (Fassler & Stiefel, ch. 5).  The fold is exact:
b_ij reads the waves only through |w_i -+ w_j| componentwise and alpha
through the squares of their frequencies, so A_{Ri,Rj} = sign_i sign_j
A_ij bit for bit and one row per mirror pair is gathered.

A class c = min(a mod 2n, -a mod 2n) other than 0 and n is complex: for two
functions of its sectors one of w_i -+ w_j has x wave +-2c mod 2n, off the
lattice, so with S = diag(+-1) (+1 where a = c mod 2n) the sine sector
block is S (cosine block) S bit for bit.  Mirror partners share a, so S
passes through the fold (Fassler & Stiefel, ch. 5, on complex-conjugate
characters in a real operator): the sine sector gathers nothing and the
cosine halves count twice.  An even m ends on a sine without its cosine,
and that sector is solved on its own.

assemble(p, m, cfg), the only builder of A_m, enumerates the basis, samples
V over it (or reads the cache) and returns the halves.  The one dense view,
stability_matrix on a field and any basis[pos] (published index i is
position i - 1; GalerkinMatrix.entries is it on the whole basis), gathers
every pair within a sector through the same kernel, gather_pairs, so its
bits do not depend on the fold or the twins.
"""

from __future__ import annotations

import os
import struct
import tempfile
from collections import namedtuple
from dataclasses import dataclass
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
    "mirror_partners",
    "gather_pairs",
    "stability_matrix",
    "assemble",
    "field_cache_key",
    "write_field_cache",
    "read_field_cache",
]

# Samples per period cell; resolves every catalogued potential (and theta up
# to 24.5 degrees) to about 1e-11 relative.
DEFAULT_GRID = 256
# Peak bytes of assemble per gathered pair (a gathered row against one function of its sector: the flat
# gather, the stacks and their fold) beyond one chunk of gather_pairs.  tracemalloc reads 20.8, 21.0 and
# 24.5 bytes per pair in all at 3/2@8065, 4/3@6001 and 4/3@4325; the rest is headroom.
SECTOR_PAIR_BYTES = 26
_CHUNK_PAIRS = 1 << 15
# One chunk's index arrays, wave sums and their coefficients, about 70 bytes per pair; the guard counts 80.
_CHUNK_BYTES = 80 * _CHUNK_PAIRS


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
    """

    surface: SurfaceParams
    nx: int
    ny: int
    coeffs: np.ndarray

    @property
    def area(self) -> float:
        """Area of the torus, the domain every b_ij integrates over."""
        return lattice(self.surface).cell_area


def _signed_table(fld: PotentialField, reach_x: int, reach_y: int) -> np.ndarray:
    """Coefficients at every signed wave |wave_x| <= reach_x, |wave_y| <= reach_y, row-major and flat.

    Wave (wx, wy) sits at (wx + reach_x) (2 reach_y + 1) + wy + reach_y;
    off the lattice (2n, 2) exact 0.0, on it beyond the stored table NaN.
    """
    step = 2 * fld.surface.n
    px, qy = np.abs(np.arange(-reach_x, reach_x + 1)), np.abs(np.arange(-reach_y, reach_y + 1))
    pdim, qdim = fld.coeffs.shape
    padded = np.full((max(reach_x // step + 1, pdim), max(reach_y // 2 + 1, qdim)), np.nan)
    padded[:pdim, :qdim] = fld.coeffs
    on = (px % step == 0)[:, None] & (qy % 2 == 0)
    return np.where(on, padded[px // step][:, qy // 2], 0.0).ravel()


def _read(fld: PotentialField, table: np.ndarray, width: int, at: np.ndarray) -> np.ndarray:
    """table[at] from a _signed_table of rows width long; CoefficientRangeError on a NaN."""
    values = table[at]
    if np.isnan(values).any():
        row, col = divmod(int(at.flat[np.argmax(np.isnan(values))]), width)
        wave = abs(row - len(table) // width // 2), abs(col - width // 2)
        raise CoefficientRangeError(f"coefficient {wave} outside stored range {fld.coeffs.shape}")
    return values


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
    cx = np.cos(2.0 * np.pi * np.outer(np.arange(nx), np.arange(pmax + 1)) / nx)
    cy = np.cos(2.0 * np.pi * np.outer(np.arange(ny), np.arange(qmax + 1)) / ny)
    coeffs = (cx.T @ grid @ cy) / (nx * ny)
    return PotentialField(surface=p, nx=nx, ny=ny, coeffs=coeffs)


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


def _sectors(basis: Basis, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each function's sector key, the positions sorted by it (stably) and the sector sizes.

    A sector is a class of (wave_x mod 2n, wave_y mod 2) up to sign, split by phase.
    """
    step = 2 * n
    key = (np.minimum(basis.wave_x % step, -basis.wave_x % step) * 2 + basis.wave_y % 2) * 2 + basis.sine
    sizes = np.bincount(key)
    return key, np.argsort(key, kind="stable"), sizes[sizes > 0]


def mirror_partners(basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """(partner, sign) with R u_i = sign_i u_{partner_i} for the mirror R: (x, y) -> (x, -y).

    A wave (a, b) maps to (a, -b) in the same phase with sign +1 (partner -1
    when not in the basis); a wave (0, b) maps to itself, sin(0, b) with -1.
    """
    a, b, sine = basis.wave_x, basis.wave_y, basis.sine
    span = 2 * int(np.abs(b).max()) + 1
    code, want = (a * span + b) * 2 + sine, (a * span - b) * 2 + sine
    order = np.argsort(code)
    found = order[np.searchsorted(code, want, sorter=order).clip(max=len(a) - 1)]
    partner = np.where(a == 0, np.arange(len(a)), np.where(code[found] == want, found, -1))
    return partner, np.where((a == 0) & sine, -1.0, 1.0)


def _pair_chunks(rows: np.ndarray, row_counts, cols: np.ndarray, col_counts):
    """(at, i, j) over every row and column of each group, group after group, row-major, in chunks of whole rows.

    at is the chunk's slice of the whole; a chunk holds at most _CHUNK_PAIRS pairs, or one row.
    A row's entries start at ends - width and read cols from its group's first.
    """
    width = np.repeat(col_counts, row_counts)
    ends = np.cumsum(width)
    shift = np.repeat(np.cumsum(col_counts) - col_counts, row_counts) - ends + width
    a = begin = 0
    while a < len(rows):
        b = max(a + 1, int(np.searchsorted(ends, begin + _CHUNK_PAIRS, side="right")))
        col = np.repeat(shift[a:b], width[a:b])
        col += np.arange(begin, ends[b - 1])
        yield slice(begin, ends[b - 1]), np.repeat(rows[a:b], width[a:b]), cols[col]
        a, begin = b, int(ends[b - 1])


def gather_pairs(fld: PotentialField, basis: Basis, chunks):
    """(at, i, j, a) per chunk (at, i, j): a = alpha_i delta_ij - b_ij at pairs (i[k], j[k]).

    A same-phase pair reduces to the cosine coefficients at the wave
    difference and the wave sum: b_ij = n_i n_j area * 0.5 * (C[w_i - w_j]
    - C[w_i + w_j]) for sines and with + for cosines.  Every pair reads one
    _signed_table, built once for all chunks, at the wave codes code_i -+
    code_j with code = wave_x W + wave_y; (i, j) and (j, i) take the same
    operations, so the result is bit-symmetric.
    """
    reach_x, reach_y = 2 * int(np.abs(basis.wave_x).max()), 2 * int(np.abs(basis.wave_y).max())
    table, width = _signed_table(fld, reach_x, reach_y), 2 * reach_y + 1
    code = basis.wave_x * width + basis.wave_y
    shifted = code + (reach_x * width + reach_y)
    for part, i, j in chunks:
        at, other = shifted[i], code[j]
        diff, total = _read(fld, table, width, at - other), _read(fld, table, width, at + other)
        np.negative(total, out=total, where=basis.sine[i])
        a = basis.norm[i] * basis.norm[j] * fld.area * (-0.5 * (diff + total))
        diagonal = np.flatnonzero(i == j)
        a[diagonal] += basis.alpha[i[diagonal]]
        yield part, i, j, a


def stability_matrix(fld: PotentialField, basis: Basis) -> np.ndarray:
    """alpha_i delta_ij - b_ij on the span of the basis (distinct functions), symmetric bit for bit.

    One gather within sectors; between sectors -0.0 in a phase, +0.0 across.
    """
    _, order, sizes = _sectors(basis, fld.surface.n)
    out = np.where(basis.sine[:, None] == basis.sine, -0.0, 0.0)
    for _, i, j, a in gather_pairs(fld, basis, _pair_chunks(order, sizes, order, sizes)):
        out[i, j] = a
    return out


# Rows gathered against their sector; the half sizes, ascending, and their copies; per half member (half
# after half): its row's offset in the gather, its column and its mirror's, its sign (+1 even, -1 odd, 0 self).
_Fold = namedtuple("_Fold", "rows row_counts order sizes half_sizes copies offset col mirror sign")


def _fold_plan(basis: Basis, n: int) -> _Fold:
    """Split each sector whose mirror partners are all in the basis; keep the others whole.

    A closed sector gathers the rows of its representatives (a pair member
    whose partner comes later, or a self-mirror) and splits into an even
    half (the pairs and the self-mirrors of sign +1) and an odd one (the
    pairs and those of sign -1).  The sine sector of a complex class that
    holds the cosine sector's modes gathers nothing: the cosine sector's
    halves count twice.  No array has more entries than the basis.
    """
    key, order, sizes = _sectors(basis, n)
    partner, mirror_sign = mirror_partners(basis)
    here, starts = np.arange(len(basis)), np.cumsum(sizes) - sizes
    closed = np.bincount(key[partner < 0], minlength=key.max() + 1)[key] == 0
    mirror = np.where(closed, partner, here)
    # a cosine sector holds the cosines of a subset of its sine sector's modes, all of them when the sizes agree
    cls, per_key = np.arange(key.max() + 2), np.bincount(key, minlength=key.max() + 2)
    twin = (cls % 2 == 1) & (cls // 4 % n != 0) & (per_key == np.roll(per_key, 1))
    pair, row = mirror != here, (mirror >= here) & ~twin[key]
    rows, row_counts = order[row[order]], np.add.reduceat(row[order], starts, dtype=np.intp)
    offset, col = np.zeros_like(here), np.empty_like(here)
    offset[rows] = np.cumsum(np.repeat(sizes, row_counts)) - np.repeat(sizes, row_counts)
    col[order] = here - np.repeat(starts, sizes)
    even = np.flatnonzero(row & (pair | (mirror_sign > 0) | ~closed))
    odd = np.flatnonzero(row & closed & (pair | (mirror_sign < 0)))
    members = np.concatenate([even, odd])
    half = np.concatenate([2 * key[even], 2 * key[odd] + 1])
    counts = np.bincount(half)
    pick = np.lexsort((members, half, counts[half]))
    members, half = members[pick], half[pick]
    halves = np.argsort(counts, kind="stable")[-np.count_nonzero(counts):]
    sign = np.where(pair[members], 1.0 - 2.0 * (half % 2), 0.0)
    member = offset[members], col[members], col[mirror[members]]
    return _Fold(rows, row_counts, order, sizes, counts[halves], 1 + twin[halves // 2 + 1], *member, sign)


def _half_stacks(fld: PotentialField, basis: Basis, plan: _Fold) -> tuple[tuple[np.ndarray, ...], tuple]:
    """The halves of A_m from one gather, as (count, k, k) stacks of ascending k, and their copies.

    In the basis (u_i +- u_Ri) / sqrt(2) of a pair and u_i of a self-mirror,
    with X = A[i, j] and Y = A[i, R j]: a pair-pair entry is X + Y in the
    even half and X - Y in the odd one, pair-self sqrt(2) X, self-self X.
    """
    chunks = _pair_chunks(plan.rows, plan.row_counts, plan.order, plan.sizes)
    flat = np.empty(int(plan.row_counts @ plan.sizes))
    for at, _, _, a in gather_pairs(fld, basis, chunks):
        flat[at] = a
    sizes, counts = np.unique(plan.half_sizes, return_counts=True)
    stacks, first = [], 0
    copies = np.split(plan.copies, np.cumsum(counts)[:-1])
    for k, g in zip(sizes.tolist(), counts.tolist()):
        at, first = slice(first, first + g * k), first + g * k
        start, sign = plan.offset[at].reshape(g, k, 1), plan.sign[at].reshape(g, k)
        pair = np.abs(sign)
        x = flat[start + plan.col[at].reshape(g, 1, k)]
        x *= np.where(pair[:, :, None] == pair[:, None, :], 1.0, np.sqrt(2.0))
        x += flat[start + plan.mirror[at].reshape(g, 1, k)] * (pair[:, :, None] * sign[:, None, :])
        stacks.append(x)
    return tuple(stacks), tuple(copies)


@dataclass(frozen=True)
class GalerkinMatrix:
    """A_m as its reflection halves, stacks of (count, k, k) ascending in k; entries regathers from fld."""

    m: int
    stacks: tuple[np.ndarray, ...]
    copies: tuple[np.ndarray, ...]  # copies[s][h] in {1, 2}: how often A_m holds the spectrum of stacks[s][h]
    basis: Basis
    fld: PotentialField

    @property
    def entries(self) -> np.ndarray:
        """The dense m x m matrix (8 m^2 bytes, outside the guard), regathered in row chunks on each access."""
        return stability_matrix(self.fld, self.basis)


def _refuse_beyond_memory(m: int, pairs: float, blocks: str, largest) -> None:
    """ParameterError when gathering that many pairs would not fit in physical memory."""
    need, have = SECTOR_PAIR_BYTES * pairs + _CHUNK_BYTES, _physical_memory()
    if need > have:
        raise ParameterError(
            f"m = {m} needs about {need / 2**30:.1f} GiB to assemble its {blocks} "
            f"(the largest has {largest} functions); this machine has {have / 2**30:.1f} GiB"
        )


def assemble(p: SurfaceParams, m: int, cfg: AssemblyConfig | None = None) -> GalerkinMatrix:
    """Assemble the m x m truncation of -Laplacian - V as its reflection halves.

    V is sampled over the basis, or read from the cache.  An m whose
    gathered pairs would not fit in physical memory raises ParameterError
    before V is sampled or any entry gathered; one that cannot fit whatever
    the sectors raises it before the basis is enumerated.
    """
    # wave_x classes 0..n up to sign, two wave_y parities and two phases make
    # at most 4(n + 1) sectors, so m functions form at least m^2 / (4(n + 1))
    # in-sector pairs; gathered sectors hold at least half (a skipped twin is
    # as large as its cosine) and read at least half of their rows
    most = 4 * (p.n + 1)
    least = m * m / (4 * most)
    _refuse_beyond_memory(m, least, f"at most {most} symmetry blocks", f"at least {-(-m // most)}")
    basis = enumerate_basis(lattice(p), m)
    plan = _fold_plan(basis, p.n)
    sizes = plan.sizes
    _refuse_beyond_memory(m, int(plan.row_counts @ sizes), f"{len(sizes)} symmetry blocks", max(sizes))
    fld = potential_field(p, basis, cfg or AssemblyConfig())
    stacks, copies = _half_stacks(fld, basis, plan)
    return GalerkinMatrix(m=m, stacks=stacks, copies=copies, basis=basis, fld=fld)


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
    """Load a cached coefficient table."""
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
    the file rewritten; an unusable directory raises ParameterError first.
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
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cache directory {cache_dir} is unusable: {exc.strerror}") from exc
    fld = sample_potential(p, nx, ny, pmax, qmax)
    write_field_cache(fld, path)
    return fld
