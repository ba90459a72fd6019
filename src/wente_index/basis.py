"""Laplacian eigenfunctions on the flat torus, in a fixed enumeration order.

For a lattice spanned by (a1, a2), (b1, b2) the eigenfunctions of -Laplacian
are sines and cosines of

    (2 pi / D) * ((m2 b2 - m1 a2) x + (m1 a1 - m2 b1) y),   D = a1 b2 - a2 b1,

over integer mode pairs (m1, m2), with eigenvalue the squared length of that
frequency vector.  Only one representative of each pair {(m1, m2), (-m1, -m2)}
is kept, the constant carries only the cosine phase, and every other mode
contributes a sine and a cosine, sine first.

The enumeration walks L1 shells of the integer wave pair (a, b) defined by
writing the angle as 2 pi (a x / W + b y / h) against the fundamental
rectangle widths W = a1 (odd parity) or 2 a1 (even parity) and h = b2:

    odd parity:   shells a + |b| = s,      s = 0, 1, 2, ...
    even parity:  shells a + |b| = 2 s,    s = 0, 1, 2, ...  (a + b is even)

inside a shell a descends, positive b precedes negative b, and the boundary
mode a = 0 is taken with positive b only.  The positive-sign convention on
that boundary is extrapolated past the explicitly tabulated low shells for
even parity; it cannot change any eigenvalue, only the sign of a basis
vector.

A basis of size m is one Basis of parallel arrays in that order: position
i holds the function with published (1-based) basis index i + 1, and
basis[pos] selects the sub-basis at an index array or slice of positions.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .surface import Lattice, ParameterError

__all__ = [
    "Basis",
    "enumerate_basis",
    "sorted_alpha_stream",
    "count_alpha_below",
    "shell_complete_size",
    "shells_holding",
    "is_shell_complete",
]

TWO_PI = 2.0 * math.pi
# Peak bytes per point of the (m1, m2) box in sorted_alpha_stream: two int64
# grids, the mask, and the kept halves while the grids are still alive.
_BOX_BYTES = 25


@dataclass(frozen=True, eq=False)
class Basis:
    """Laplacian eigenfunctions norm * (sin if sine else cos)(freq_x x + freq_y y).

    Parallel arrays, one entry per function in enumeration order.  wave_x
    and wave_y are the integer frequencies against the rectangle
    (n x_period, y_period); alpha is the eigenvalue.
    """

    wave_x: np.ndarray
    wave_y: np.ndarray
    sine: np.ndarray
    freq_x: np.ndarray
    freq_y: np.ndarray
    norm: np.ndarray
    alpha: np.ndarray

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, key) -> "Basis":
        """The sub-basis at a slice or an index array of positions."""
        return Basis(*(getattr(self, f.name)[key] for f in fields(self)))


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def shell_complete_size(parity: str, shells: int) -> int:
    """Basis size containing exactly `shells` full shells (shells >= 1)."""
    if shells < 1:
        raise ValueError("need at least one shell")
    if parity == "odd":
        return 2 * shells * shells - 2 * shells + 1
    return 4 * shells * shells - 4 * shells + 1


def shells_holding(parity: str, m: int) -> int:
    """Smallest number of full shells holding at least m functions (m >= 1)."""
    shells = 1
    while shell_complete_size(parity, shells) < m:
        shells += 1
    return shells


def is_shell_complete(parity: str, m: int) -> bool:
    return shell_complete_size(parity, shells_holding(parity, m)) == m


def _waves(parity: str, shells: int) -> tuple[np.ndarray, np.ndarray]:
    """Wave pairs (a, b) of the first `shells` shells, in enumeration order.

    Shell s > 0 of radius r (s odd parity, 2s even) holds 2r waves; its
    t-th is a = r - 1 - (t - 1) // 2 (floor), b = +-(r - a) with + at odd t,
    which gives (r, 0) first and (0, r) last.
    """
    s = np.arange(1, shells)
    radius = s if parity == "odd" else 2 * s
    r = np.repeat(radius, 2 * radius)
    t = np.arange(len(r)) - np.repeat(np.cumsum(2 * radius) - 2 * radius, 2 * radius) - 1
    a = r - 1 - t // 2
    b = np.where(t % 2 == 0, r - a, a - r)
    return np.concatenate([[0], a]), np.concatenate([[0], b])


def _frequencies(lat: Lattice, m1: np.ndarray, m2: np.ndarray):
    """(freq_x, freq_y, alpha) of the modes (m1, m2), elementwise."""
    d = lat.cell_area
    fx = TWO_PI * (m2 * lat.b2 - m1 * lat.a2) / d
    fy = TWO_PI * (m1 * lat.a1 - m2 * lat.b1) / d
    return fx, fy, fx * fx + fy * fy


def enumerate_basis(lat: Lattice, m: int) -> Basis:
    """First m eigenfunctions in enumeration order.

    A warning is issued when m cuts a shell in half: the span is then not
    symmetry-complete, which is harmless for the monotone eigenvalue bounds
    but makes results depend on the within-shell ordering.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not is_shell_complete(lat.parity, m):
        warnings.warn(f"basis size {m} does not complete a shell ({lat.parity} parity)", stacklevel=2)
    a, b = _waves(lat.parity, shells_holding(lat.parity, m))
    # lattice mode (m1, m2) of each wave pair
    fx, fy, alpha = _frequencies(lat, b, a if lat.parity == "odd" else (a + b) // 2)
    # the constant carries the cosine only, every other mode k the sine at
    # position 2k - 1 and the cosine at 2k
    mode = (np.arange(m) + 1) // 2
    area = abs(lat.cell_area)
    norm = np.full(m, math.sqrt(2.0 / area))
    norm[0] = math.sqrt(1.0 / area)
    return Basis(
        wave_x=a[mode],
        wave_y=b[mode],
        sine=np.arange(m) % 2 == 1,
        freq_x=fx[mode],
        freq_y=fy[mode],
        norm=norm,
        alpha=alpha[mode],
    )


def _mode_radius(lat: Lattice, limit: float) -> int:
    """Box radius in (m1, m2) guaranteed to contain every alpha < limit.

    A box beyond physical memory, or of no finite radius, raises ParameterError.
    """
    mat = np.array([[-lat.a2, lat.b2], [lat.a1, -lat.b1]])
    sigma_min = np.linalg.svd(mat, compute_uv=False)[-1]
    radius = math.sqrt(limit) * abs(lat.cell_area) / (TWO_PI * sigma_min)
    r = int(radius) + 1 if math.isfinite(radius) else math.inf
    need = _BOX_BYTES * (2.0 * r + 1) * (r + 1)
    have = _physical_memory()
    if need > have:
        raise ParameterError(
            f"alpha < {limit:.12g} needs about {need / 2**30:.4g} GiB to enumerate its mode box; "
            f"this machine has {have / 2**30:.1f} GiB"
        )
    return r


def sorted_alpha_stream(lat: Lattice, limit: float) -> np.ndarray:
    """Every Laplacian eigenvalue < limit, one entry per eigenfunction, ascending.

    The enumeration box is derived from the smallest singular value of the
    frequency map, so no mode below the limit can be missed.  Comparison
    with the limit is strict.  A box too large for physical memory raises
    ParameterError before anything is allocated.
    """
    if limit <= 0.0:
        return np.empty(0)
    r = _mode_radius(lat, limit)
    m1, m2 = np.meshgrid(np.arange(-r, r + 1), np.arange(0, r + 1), indexing="ij")
    keep = (m2 > 0) | ((m2 == 0) & (m1 > 0))
    # drop the full grids before the frequencies are formed
    m1, m2 = m1[keep], m2[keep]
    alpha = _frequencies(lat, m1, m2)[2]
    alpha = alpha[alpha < limit]
    # sine and cosine share each mode; the constant appears once.
    return np.concatenate([[0.0], np.repeat(np.sort(alpha), 2)])


def count_alpha_below(
    lat: Lattice, limits: Sequence[float], boundary_tol: float = 1e-9
) -> list[tuple[int, int]]:
    """Per limit: (#eigenvalues strictly below it, #eigenvalues within boundary_tol of it).

    One stream up to the largest limit (plus the band) holds every count.
    The second count flags comparisons too close to call at floating point
    accuracy; callers surface it instead of silently resolving the tie.
    """
    stream = sorted_alpha_stream(lat, max(limits) + 2.0 * boundary_tol + 1e-300)
    return [
        (int(np.sum(stream < v)), int(np.sum(np.abs(stream - v) <= boundary_tol))) for v in limits
    ]
