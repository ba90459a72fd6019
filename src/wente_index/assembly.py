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
A_ij bit for bit, and gather_pairs makes A_ij and A_ji the same bits.  So
only one function per mirror pair is gathered: each pair of these
representatives i <= j is read once as A_ij and once as A_{i,Rj}, which
give its entry in both halves, and each entry is mirrored.

A class c = min(a mod 2n, -a mod 2n) other than 0 and n is complex: for two
functions of its sectors one of w_i -+ w_j has x wave +-2c mod 2n, off the
lattice, so with S = diag(+-1) (+1 where a = c mod 2n) the sine sector
block is S (cosine block) S bit for bit.  Mirror partners share a, so S
passes through the fold (Fassler & Stiefel, ch. 5, on complex-conjugate
characters in a real operator): the sine sector gathers nothing and the
cosine halves count twice.  An even m ends on a sine without its cosine,
and that sector is solved on its own.

assemble(p, m, cfg), the only builder of A_m, enumerates the basis, samples
V over it (or reads the cache) and returns the labelled halves.  The one
dense view, stability_matrix on a field and any basis[pos] (published
index i is position i - 1; GalerkinMatrix.entries is it on the whole
basis), gathers each pair i <= j within a sector once through the same
kernel, gather_pairs, and mirrors it, so its bits do not depend on the fold
or the twins.  Every gather checks once, before its first pair, that the
stored table covers the lattice waves its products reach.
"""

from __future__ import annotations

import os
import re
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
    "HALF_LABEL",
    "CoefficientRangeError",
    "NyquistError",
    "sample_potential",
    "cached_sample_potential",
    "potential_field",
    "mirror_partners",
    "gather_pairs",
    "stability_matrix",
    "assemble",
    "write_field_cache",
    "read_field_cache",
]

# Samples per period cell; resolves every catalogued potential (and theta up
# to 24.5 degrees) to about 1e-11 relative.
DEFAULT_GRID = 256
# Representative pairs per chunk, each gathered twice (X and Y).  Twice as many raised perfbench's large_m op_s.p50
# from 15.9 to 18.3 ms (2-vCPU Xeon, 5 of 6 pairs) and the assemble peak at 3/2@2113 from 2.9 to 4.3 MB.
_CHUNK_PAIRS = 1 << 13
# One chunk's index arrays, its two gathers with their wave sums and coefficients, and the entries they fold into:
# tracemalloc reads 104 to 175 bytes per pair; the guard counts 200.
_CHUNK_BYTES = 200 * _CHUNK_PAIRS
# The signed table while _signed_table builds it: tracemalloc reads 18 to 26 bytes per wave (8 once built).  The
# basis and the fold plan hold 87 to 89 bytes per function, and the gather's wave codes 16 more.
_TABLE_BYTES, _FUNCTION_BYTES = 24, 128


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


def _table_shape(reach_x: int, reach_y: int, n: int) -> tuple[int, int]:
    """The cosine-coefficient table holding every lattice wave within the reach: wave (2n P, 2 Q) is (P, Q)."""
    return reach_x // (2 * n) + 1, reach_y // 2 + 1


def _signed_table(fld: PotentialField, reach_x: int, reach_y: int) -> np.ndarray:
    """Coefficients at every signed wave |wave_x| <= reach_x, |wave_y| <= reach_y, row-major and flat.

    Wave (wx, wy) sits at (wx + reach_x) (2 reach_y + 1) + wy + reach_y;
    off the lattice (2n, 2) exact 0.0.  CoefficientRangeError unless the
    stored table covers the lattice waves within the reach.
    """
    step, need = 2 * fld.surface.n, _table_shape(reach_x, reach_y, fld.surface.n)
    if need[0] > fld.coeffs.shape[0] or need[1] > fld.coeffs.shape[1]:
        raise CoefficientRangeError(f"the products need a coefficient table of shape {need}, stored {fld.coeffs.shape}")
    px, qy = np.abs(np.arange(-reach_x, reach_x + 1)), np.abs(np.arange(-reach_y, reach_y + 1))
    on = (px % step == 0)[:, None] & (qy % 2 == 0)
    return np.where(on, fld.coeffs[px // step][:, qy // 2], 0.0).ravel()


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


def _reach(basis: Basis) -> tuple[int, int]:
    """The largest |wave_x| and |wave_y| a product of two functions reaches: the extent of the table."""
    return 2 * int(np.abs(basis.wave_x).max()), 2 * int(np.abs(basis.wave_y).max())


def potential_field(p: SurfaceParams, basis: Basis, cfg: AssemblyConfig) -> PotentialField:
    """V on the configured grid, with a table covering every product of the functions (a sum of two waves)."""
    pdim, qdim = _table_shape(*_reach(basis), p.n)
    return cached_sample_potential(p, cfg.nx, cfg.ny, cfg.cache_dir, pdim - 1, qdim - 1)


def _sectors(basis: Basis, n: int) -> np.ndarray:
    """Each function's sector key: its class of (wave_x mod 2n, wave_y mod 2) up to sign, split by phase."""
    step = 2 * n
    return (np.minimum(basis.wave_x % step, -basis.wave_x % step) * 2 + basis.wave_y % 2) * 2 + basis.sine


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


def _pair_chunks(cols: np.ndarray, key: np.ndarray):
    """(i, j) per row i = cols[r] against cols[r:] within its key, row after row, in chunks of whole rows.

    cols is sorted by key[cols].  A chunk holds at most _CHUNK_PAIRS pairs, or one row.
    """
    key = key[cols]
    width = np.searchsorted(key, key, side="right") - np.arange(len(cols))
    ends = np.cumsum(width)
    shift = np.arange(len(cols)) - ends + width
    a = begin = 0
    while a < len(cols):
        b = max(a + 1, int(np.searchsorted(ends, begin + _CHUNK_PAIRS, side="right")))
        col = np.repeat(shift[a:b], width[a:b])
        col += np.arange(begin, ends[b - 1])
        yield np.repeat(cols[a:b], width[a:b]), cols[col]
        a, begin = b, int(ends[b - 1])


def gather_pairs(fld: PotentialField, basis: Basis, chunks):
    """(i, j, a) per chunk (i, j): a = alpha_i delta_ij - b_ij at pairs (i[k], j[k]).

    A same-phase pair reduces to the cosine coefficients at the wave
    difference and the wave sum: b_ij = n_i n_j area * 0.5 * (C[w_i - w_j]
    - C[w_i + w_j]) for sines and with + for cosines.  Every pair reads one
    _signed_table, built once for all chunks, at the wave codes code_i -+
    code_j with code = wave_x W + wave_y; (i, j) and (j, i) take the same
    operations, so the result is bit-symmetric.  The table is built, and its
    coverage checked, before the first chunk is drawn.
    """
    reach_x, reach_y = _reach(basis)
    table, width = _signed_table(fld, reach_x, reach_y), 2 * reach_y + 1
    code = basis.wave_x * width + basis.wave_y
    shifted = code + (reach_x * width + reach_y)
    for i, j in chunks:
        at, other = shifted[i], code[j]
        diff, total = table[at - other], table[at + other]
        np.negative(total, out=total, where=basis.sine[i])
        a = basis.norm[i] * basis.norm[j] * fld.area * (-0.5 * (diff + total))
        diagonal = np.flatnonzero(i == j)
        a[diagonal] += basis.alpha[i[diagonal]]
        yield i, j, a


def stability_matrix(fld: PotentialField, basis: Basis) -> np.ndarray:
    """alpha_i delta_ij - b_ij on the span of the basis (distinct functions), symmetric bit for bit.

    Each pair i <= j within a sector gathered once and mirrored; between sectors -0.0 in a phase, +0.0 across.
    """
    key = _sectors(basis, fld.surface.n)
    out = np.where(basis.sine[:, None] == basis.sine, -0.0, 0.0)
    for i, j, a in gather_pairs(fld, basis, _pair_chunks(np.argsort(key, kind="stable"), key)):
        out[i, j] = out[j, i] = a
    return out


# Each function's sector key; the representatives, sector after sector, each gathered against those of its sector
# from its own on; each function's mirror (itself in an open sector) and 1.0 for a pair member (0.0 self); per parity
# (even, odd) and function, where its row starts in the halves and its column within its half, -1 off the half; the
# half sizes, ascending, and their labels.
_Fold = namedtuple("_Fold", "key cols mirror pair row_at col_at half_sizes labels")

# A half's class c = min(+-wave_x mod 2n), wave_y mod 2, phase ("cos", "sin", or "both": a complex class's cosine
# half standing for its sine twin too) and mirror parity ("even", "odd", or "whole": a sector left open).
HALF_LABEL = np.dtype([("c", "i8"), ("y_parity", "i8"), ("phase", "U4"), ("mirror", "U5")])


def _fold_plan(basis: Basis, n: int) -> _Fold:
    """Split each sector whose mirror partners are all in the basis; keep the others whole.

    A closed sector's representatives (a pair member whose partner comes
    later, or a self-mirror) make an even half (the pairs and the
    self-mirrors of sign +1) and an odd one (the pairs and those of sign
    -1).  A sector kept whole is its own representatives.  The sine sector
    of a complex class that holds the cosine sector's modes gathers nothing:
    the cosine sector's halves, labelled "both", count twice.  No array has
    more entries than twice the basis.
    """
    key = _sectors(basis, n)
    partner, mirror_sign = mirror_partners(basis)
    here = np.arange(len(basis))
    opened = np.bincount(key[partner < 0], minlength=key.max() + 1) > 0
    closed = ~opened[key]
    mirror = np.where(closed, partner, here)
    # a cosine sector holds the cosines of a subset of its sine sector's modes, all of them when the sizes agree
    cls, per_key = np.arange(key.max() + 2), np.bincount(key, minlength=key.max() + 2)
    twin = (cls % 2 == 1) & (cls // 4 % n != 0) & (per_key == np.roll(per_key, 1))
    pair, row = mirror != here, (mirror >= here) & ~twin[key]
    cols = np.flatnonzero(row)[np.argsort(key[row], kind="stable")]
    even = np.flatnonzero(row & (pair | (mirror_sign > 0) | ~closed))
    odd = np.flatnonzero(row & closed & (pair | (mirror_sign < 0)))
    members = np.concatenate([even, odd])
    half = np.concatenate([2 * key[even], 2 * key[odd] + 1])
    counts = np.bincount(half)
    pick = np.lexsort((members, half, counts[half]))
    members, half = members[pick], half[pick]
    halves = np.argsort(counts, kind="stable")[-np.count_nonzero(counts):]
    k, half_sizes = counts[half], counts[halves]
    row_at, col_at = np.full((2, len(here)), -1), np.full((2, len(here)), -1)
    row_at[half % 2, members] = np.cumsum(k) - k
    col_at[half % 2, members] = np.arange(len(k)) - np.repeat(np.cumsum(half_sizes) - half_sizes, half_sizes)
    hkey, labels = halves // 2, np.empty(len(halves), HALF_LABEL)
    labels["c"], labels["y_parity"] = hkey // 4, hkey // 2 % 2
    labels["phase"] = np.where(twin[hkey + 1], "both", np.where(hkey % 2, "sin", "cos"))
    labels["mirror"] = np.where(opened[hkey], "whole", np.where(halves % 2, "odd", "even"))
    return _Fold(key, cols, mirror, pair.astype(float), row_at, col_at, half_sizes, labels)


def _half_stacks(fld: PotentialField, basis: Basis, plan: _Fold) -> tuple[tuple[np.ndarray, ...], tuple]:
    """The halves of A_m from one gather, as (count, k, k) stacks of ascending k, and their labels.

    In the basis (u_i +- u_Ri) / sqrt(2) of a pair and u_i of a self-mirror,
    with X = A[i, j] and Y = A[i, R j]: a pair-pair entry is X + Y in the
    even half and X - Y in the odd one, pair-self sqrt(2) X, self-self X.
    Each pair of representatives i <= j is gathered as X and as Y, and its
    entry in each half that holds both is written at (i, j) and (j, i), so
    the halves are symmetric bit for bit.  They lie row after row in one
    array, a member's row at row_at.
    """
    out = np.empty(int(plan.half_sizes @ plan.half_sizes))
    chunks = _pair_chunks(plan.cols, plan.key)
    # each chunk's X, then its Y
    gathered = gather_pairs(fld, basis, ((i, js) for i, j in chunks for js in (j, plan.mirror[j])))
    for (i, j, x), (_, _, y) in zip(gathered, gathered):
        pair = plan.pair[i]
        x *= np.where(pair == plan.pair[j], 1.0, np.sqrt(2.0))
        y *= pair * plan.pair[j]
        for row_at, col_at, entry in zip(plan.row_at, plan.col_at, (x + y, x - y)):
            both = np.flatnonzero((col_at[i] >= 0) & (col_at[j] >= 0))
            r, c, entry = i[both], j[both], entry[both]
            out[row_at[r] + col_at[c]] = entry
            out[row_at[c] + col_at[r]] = entry
    sizes, counts = np.unique(plan.half_sizes, return_counts=True)
    ends = np.cumsum(counts * sizes * sizes)
    stacks = [part.reshape(-1, size, size) for part, size in zip(np.split(out, ends[:-1]), sizes.tolist())]
    return tuple(stacks), tuple(np.split(plan.labels, np.cumsum(counts)[:-1]))


@dataclass(frozen=True)
class GalerkinMatrix:
    """A_m as its reflection halves, stacks of (count, k, k) ascending in k; entries regathers from fld."""

    m: int
    stacks: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]  # labels[s][h], a HALF_LABEL record: the symmetry of stacks[s][h]
    basis: Basis
    fld: PotentialField

    @property
    def copies(self) -> tuple[np.ndarray, ...]:  # copies[s][h]: how often A_m holds the spectrum of stacks[s][h]
        return tuple(1 + (labels["phase"] == "both") for labels in self.labels)

    @property
    def entries(self) -> np.ndarray:
        """The dense m x m matrix (8 m^2 bytes, outside the guard), regathered in row chunks on each access."""
        return stability_matrix(self.fld, self.basis)


def _refuse_beyond_memory(m: int, entries: float, blocks: str, largest, more: int = 0) -> None:
    """ParameterError when that many half entries plus more bytes would not fit in physical memory."""
    need, have = 8 * entries + _CHUNK_BYTES + more, _physical_memory()
    if need > have:
        raise ParameterError(
            f"m = {m} needs about {need / 2**30:.1f} GiB to assemble its {blocks} "
            f"(the largest has {largest} functions); this machine has {have / 2**30:.1f} GiB"
        )


def assemble(p: SurfaceParams, m: int, cfg: AssemblyConfig | None = None) -> GalerkinMatrix:
    """Assemble the m x m truncation of -Laplacian - V as its reflection halves.

    V is sampled over the basis, or read from the cache.  An m whose
    halves would not fit in physical memory raises ParameterError before V
    is sampled or any entry gathered; one that cannot fit whatever the
    sectors raises it before the basis is enumerated.
    """
    # wave_x classes 0..n up to sign, two wave_y parities and two phases make
    # at most 4(n + 1) sectors, so m functions form at least m^2 / (4(n + 1))
    # in-sector pairs; gathered sectors hold at least half (a skipped twin is
    # as large as its cosine), and the halves of a sector of s functions hold
    # at least s^2 / 2 entries: e^2 + o^2 with e + o = s
    most = 4 * (p.n + 1)
    _refuse_beyond_memory(m, m * m / (4 * most), f"at most {most} symmetry blocks", f"at least {-(-m // most)}")
    basis = enumerate_basis(lattice(p), m)
    plan, (reach_x, reach_y) = _fold_plan(basis, p.n), _reach(basis)
    more = _TABLE_BYTES * (2 * reach_x + 1) * (2 * reach_y + 1) + _FUNCTION_BYTES * m
    entries, sizes = int(plan.half_sizes @ plan.half_sizes), np.bincount(plan.key)
    _refuse_beyond_memory(m, entries, f"{np.count_nonzero(sizes)} symmetry blocks", sizes.max(), more)
    fld = potential_field(p, basis, cfg or AssemblyConfig())
    stacks, labels = _half_stacks(fld, basis, plan)
    return GalerkinMatrix(m=m, stacks=stacks, labels=labels, basis=basis, fld=fld)


# --- potential-field cache -------------------------------------------------
#
# A file's name is its key: the surface, the cell grid and the table shape.
# Version 3 holds the magic, the version and the raw float64 coefficients;
# a name that holds no key, or a magic, version or byte count that does not
# match the name, is a miss.  Raw bytes round-trip bit for bit, so a hit
# reproduces the assembly exactly; the transform's low bits depend on the
# table extent, so only a file of exactly the shape a run needs is a hit.

_CACHE_MAGIC, _CACHE_VERSION = b"WNTPOT", 3
_CACHE_NAME = "pot_{}_{}_H{}_t{}_{}x{}_c{}x{}.wntpot"
_CACHE_NAME_PARTS = r"pot_(\d+)_(\d+)_H([^_]+)_t([^_]+)_(\d+)x(\d+)_c(\d+)x(\d+)\.wntpot"


def _cache_name(p: SurfaceParams, nx: int, ny: int, shape: tuple[int, int]) -> str:
    return _CACHE_NAME.format(p.ell, p.n, p.H, p.theta_degrees, nx, ny, *shape)


def write_field_cache(fld: PotentialField, path: "str | Path") -> None:
    """Write atomically: readers see the old file or the complete new one."""
    body = np.ascontiguousarray(fld.coeffs, dtype="<f8").tobytes()
    path = Path(path)
    # the temporary name ends in .tmp, so cache listings never see it
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_CACHE_MAGIC + _CACHE_VERSION.to_bytes(2, "little") + body)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_field_cache(path: "str | Path") -> PotentialField:
    """Load the coefficient table a cache file's name describes; ValueError if the file does not hold it."""
    key = re.fullmatch(_CACHE_NAME_PARTS, os.path.basename(path))
    if key is None:
        raise ValueError(f"{path}: the name holds no cache key")
    ell, n, nx, ny, pdim, qdim = map(int, key.group(1, 2, 5, 6, 7, 8))
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:6] != _CACHE_MAGIC:
        raise ValueError(f"{path}: not a potential cache file")
    version = int.from_bytes(raw[6:8], "little")
    if version != _CACHE_VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    if len(raw) != 8 + 8 * pdim * qdim:
        raise ValueError(f"{path}: {len(raw) - 8} coefficient bytes, the name's shape holds {8 * pdim * qdim}")
    coeffs = np.frombuffer(raw, dtype="<f8", offset=8).reshape(pdim, qdim).copy()
    return PotentialField(build_surface(ell, n, float(key[3]), float(key[4])), nx, ny, coeffs)


def cached_sample_potential(
    p: SurfaceParams, nx: int, ny: int, cache_dir: "str | Path | None", pmax: int, qmax: int
) -> PotentialField:
    """sample_potential with a directory-backed cache of coefficient tables.

    A missing or unreadable file is a miss: the table is sampled again and
    the file rewritten.  A directory that cannot be made (checked before
    sampling) or written raises ParameterError.
    """
    if cache_dir is None:
        return sample_potential(p, nx, ny, pmax, qmax)
    path = os.path.join(cache_dir, _cache_name(p, nx, ny, (pmax + 1, qmax + 1)))
    try:
        return read_field_cache(path)
    except (OSError, ValueError):
        pass
    try:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        fld = sample_potential(p, nx, ny, pmax, qmax)
        write_field_cache(fld, path)
    except OSError as exc:
        raise ParameterError(f"cache directory {cache_dir} is unusable: {exc.strerror}") from exc
    return fld
