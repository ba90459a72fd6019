"""Laplacian eigenfunctions on the flat torus, in a fixed enumeration order.

A mode is an integer wave pair (a, b) against the rectangle width =
n x_period, height = y_period of the lattice: the functions sin and cos of

    2 pi (a x / width + b y / height),   eigenvalue (2 pi a / width)^2 + (2 pi b / height)^2,

with a + b even on an even-parity lattice, whose cell is half the
rectangle.  Only one of (a, b) and (-a, -b) is kept: a > 0, or a = 0 with
b > 0.  The constant carries only the cosine phase, and every other mode
contributes a sine and a cosine, sine first.

The enumeration walks L1 shells of the waves:

    odd parity:   shells a + |b| = s,      s = 0, 1, 2, ...
    even parity:  shells a + |b| = 2 s,    s = 0, 1, 2, ...

inside a shell a descends, positive b precedes negative b, and the boundary
mode a = 0 is taken with positive b only.  The positive-sign convention on
that boundary is extrapolated past the explicitly tabulated low shells for
even parity; it cannot change any eigenvalue, only the sign of a basis
vector.  Mirror partners (a, b) and (a, -b) share their eigenvalue bit for
bit.

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
# Peak bytes per point of the wave box in sorted_alpha_stream (the eigenvalue grid, its masks, the kept
# eigenvalues): tracemalloc reads 19.8 odd and 12.2 even on 0.5 to 2.6 million points; the rest is headroom.
_BOX_BYTES = 25


@dataclass(frozen=True, eq=False)
class Basis:
    """Laplacian eigenfunctions norm * (sin if sine else cos)(2 pi (wave_x x / width + wave_y y / height)).

    Parallel arrays, one entry per function in enumeration order.  wave_x
    and wave_y are the integer waves against the lattice's rectangle
    (n x_period, y_period); alpha is the eigenvalue.
    """

    wave_x: np.ndarray
    wave_y: np.ndarray
    sine: np.ndarray
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


def _eigenvalues(lat: Lattice, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(2 pi a / width)^2 + (2 pi b / height)^2 of the waves (a, b), broadcasting a against b."""
    fx = TWO_PI * a / lat.width
    fy = TWO_PI * b / lat.height
    return fx * fx + fy * fy


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
    # the constant carries the cosine only, every other mode k the sine at
    # position 2k - 1 and the cosine at 2k
    mode = (np.arange(m) + 1) // 2
    a, b = (w[mode] for w in _waves(lat.parity, shells_holding(lat.parity, m)))
    area = lat.cell_area
    norm = np.full(m, math.sqrt(2.0 / area))
    norm[0] = math.sqrt(1.0 / area)
    return Basis(wave_x=a, wave_y=b, sine=np.arange(m) % 2 == 1, norm=norm, alpha=_eigenvalues(lat, a, b))


def sorted_alpha_stream(lat: Lattice, limit: float) -> np.ndarray:
    """Every Laplacian eigenvalue < limit, one entry per eigenfunction, ascending.

    alpha < limit bounds |a| by width sqrt(limit) / 2 pi and |b| by height
    sqrt(limit) / 2 pi; the box reaches one wave past both, with the shells'
    half-plane rule.  Comparison with the limit is strict.  A box beyond
    physical memory, or of no finite size, raises ParameterError before
    anything is allocated.
    """
    if limit <= 0.0:
        return np.empty(0)
    reach = math.sqrt(limit) / TWO_PI
    box_a, box_b = lat.width * reach, lat.height * reach
    need, have = _BOX_BYTES * (box_a + 2.0) * (2.0 * box_b + 3.0), _physical_memory()
    if not need <= have:
        raise ParameterError(
            f"alpha < {limit:.12g} needs about {need / 2**30:.4g} GiB to enumerate its mode box; "
            f"this machine has {have / 2**30:.1f} GiB"
        )
    a, b = np.arange(int(box_a) + 2), np.arange(-int(box_b) - 1, int(box_b) + 2)
    alpha = _eigenvalues(lat, a[:, None], b)
    keep = alpha < limit
    keep[0, b <= 0] = False
    if lat.parity == "even":
        keep &= np.equal.outer(a % 2, b % 2)
    alpha = alpha[keep]
    alpha.sort()
    # sine and cosine share each mode; the constant appears once.
    stream = np.zeros(2 * len(alpha) + 1)
    stream[1::2] = stream[2::2] = alpha
    return stream


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
