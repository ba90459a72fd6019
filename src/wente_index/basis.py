"""Laplacian eigenfunctions on the flat torus, in shell order or cut at an eigenvalue.

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

A Basis is parallel arrays, and basis[pos] the sub-basis at an index array
or slice of positions.  One constructor builds both orders from a wave list:
enumerate_basis the first m functions of the shells (position i holds basis
index i + 1), cutoff_basis those with alpha < limit by ascending alpha.
Either span is a trial space for min-max (Reed & Simon IV, XIII.1).
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
    "cutoff_basis",
    "count_alpha_below",
    "shell_complete_size",
    "shells_holding",
    "is_shell_complete",
]

TWO_PI = 2.0 * math.pi
# Peak bytes per point of the wave box in cutoff_basis (the eigenvalue grid, its masks, the kept waves and the
# Basis built from them): tracemalloc reads 129.4 odd and 69.2 even on 0.9 to 2.7 million points; the rest is headroom.
_BOX_BYTES = 160


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
    """Smallest number of full shells holding at least m functions (1 for any m <= 1).

    s shells hold ((2s - 1)^2 + 1) / 2 functions on odd parity and (2s - 1)^2
    on even, so s is the least with 2s - 1 >= ceil(sqrt(N)), N = 2m - 1 resp. m.
    """
    need = 2 * m - 1 if parity == "odd" else m
    return (math.isqrt(max(need - 1, 0)) + 3) // 2


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


def _from_waves(lat: Lattice, a: np.ndarray, b: np.ndarray) -> Basis:
    """The constant's cosine, then each wave's sine and cosine: waves (a, b), the constant (0, 0) first."""
    # the constant carries the cosine only, every other mode k the sine at position 2k - 1 and the cosine at 2k
    mode = np.arange(1, 2 * len(a)) // 2
    norm = np.where(mode > 0, math.sqrt(2.0 / lat.cell_area), math.sqrt(1.0 / lat.cell_area))
    return Basis(a[mode], b[mode], np.arange(len(mode)) % 2 == 1, norm, _eigenvalues(lat, a, b)[mode])


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
    return _from_waves(lat, *_waves(lat.parity, shells_holding(lat.parity, m)))[:m]


def cutoff_basis(lat: Lattice, limit: float) -> Basis:
    """Every eigenfunction with alpha < limit, by ascending alpha, ties in the order of the mode box.

    alpha < limit bounds |a| by width sqrt(limit) / 2 pi and |b| by height
    sqrt(limit) / 2 pi; the box reaches one wave past both, with the shells'
    half-plane rule.  Comparison with the limit is strict, so a limit <= 0
    gives an empty basis.  A box beyond physical memory, or of no finite
    size, raises ParameterError before anything is allocated.
    """
    reach = math.sqrt(max(limit, 0.0)) / TWO_PI
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
    keep[0, b < 0] = False
    if lat.parity == "even":
        keep &= np.equal.outer(a % 2, b % 2)
    # the constant (0, 0), the one alpha of 0, sorts first
    at, bt = np.nonzero(keep)
    order = np.argsort(alpha[keep], kind="stable")
    return _from_waves(lat, a[at[order]], b[bt[order]])


def count_alpha_below(
    lat: Lattice, limits: Sequence[float], boundary_tol: float = 1e-9
) -> list[tuple[int, int]]:
    """Per limit: (#eigenvalues strictly below it, #eigenvalues within boundary_tol of it).

    One cutoff basis up to the largest limit (plus the band) holds every count.
    The second count flags comparisons too close to call at floating point
    accuracy; callers surface it instead of silently resolving the tie.
    """
    alpha = cutoff_basis(lat, max(limits) + 2.0 * boundary_tol + 1e-300).alpha
    return [
        (int(np.sum(alpha < v)), int(np.sum(np.abs(alpha - v) <= boundary_tol))) for v in limits
    ]
