"""Symmetric eigenvalues with a stated error bound, and negative counting.

A_m is an orthogonal sum of the reflection halves of its symmetry sectors,
so its spectrum is the union of theirs.  A complex class's sine half is
S H S for a cosine half H and signs S, so H (phase "both") is solved once
and counted twice.  half_spectra solves each stack of equal-size halves in
one batched call to LAPACK's symmetric eigenvalue solver, deterministic
for a fixed input; eigen_symmetric merges the stacks.
Each computed eigenvalue of a k x k half H lies within p(k) eps ||H||_2 of
the exact one (LAPACK Users' Guide, "Error bounds for the symmetric
eigenproblem"; Weyl's inequality, Demmel 5.2); residual_bound takes
p(k) = k and ||H||_2 <= ||H||_F, which S H S shares with H, so one bound
covers both copies.  Eigenvalues inside a zero band relative to ||A||,
never narrower than that bound, are reported as uncertain rather than
silently classified: the torus operator carries a six-dimensional kernel
whose truncated eigenvalues approach zero from above.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .assembly import GalerkinMatrix

__all__ = [
    "SpectrumEstimate",
    "HalfSpectra",
    "ZERO_TOL_RELATIVE",
    "half_spectra",
    "eigen_symmetric",
]

# Default zero band, relative to ||A||: small enough that the smallest
# genuine negatives seen in practice (a few 1e-2) are never swallowed.
ZERO_TOL_RELATIVE = 1.0e-6
_SYMMETRY_RTOL = 1.0e-12


@dataclass(frozen=True)
class SpectrumEstimate:
    m: int
    eigenvalues: np.ndarray  # ascending
    negative_count: int
    residual_bound: float  # max k eps ||H||_F over the halves: LAPACK's eigenvalue error bound
    # Up to six eigenvalues just above the negative and uncertain block (fewer
    # when the spectrum is that short).  For a converged truncation they
    # approach zero, since the kernel of the operator contains the normal
    # parts of the six ambient rigid motions, so their size measures
    # truncation quality.
    first_positive_six: tuple[float, ...]
    zero_tol: float
    uncertain_count: int

    @property
    def norm(self) -> float:
        return float(max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1])))

    @property
    def negative_range(self) -> tuple[float, float]:
        if self.negative_count == 0:
            return (0.0, 0.0)
        neg = self.eigenvalues[: self.negative_count]
        return (float(neg[0]), float(neg[-1]))


# One stack's (count, k) eigenvalues, each half's ascending; the halves' GalerkinMatrix labels (None for an
# ndarray: one half, counted once); the largest k eps ||H||_F over the stack, LAPACK's eigenvalue error bound.
HalfSpectra = namedtuple("HalfSpectra", "values labels bound")


def half_spectra(a: "GalerkinMatrix | np.ndarray") -> tuple[HalfSpectra, ...]:
    """Each stack of a GalerkinMatrix's halves solved, in its order (an ndarray is one stack of one half)."""
    stacks, labels = (a.stacks, a.labels) if isinstance(a, GalerkinMatrix) else ((np.asarray(a, float)[None],), (None,))
    out = []
    for stack, stack_labels in zip(stacks, labels):
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"expected a square matrix, got shape {stack.shape[1:]}")
        transpose = stack.transpose(0, 2, 1)
        if not np.array_equal(stack, transpose):
            scale = np.max(np.abs(stack), axis=(1, 2))
            asym = np.max(np.abs(stack - transpose), axis=(1, 2))
            if np.any(asym > _SYMMETRY_RTOL * np.where(scale > 0.0, scale, 1.0)):
                raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym.max():g}")
        bound = stack.shape[1] * math.ulp(1.0) * float(np.linalg.norm(stack, axis=(1, 2)).max())
        out.append(HalfSpectra(np.linalg.eigvalsh(stack), stack_labels, bound))
    return tuple(out)


def eigen_symmetric(a: "GalerkinMatrix | np.ndarray", zero_tol: float | None = None) -> SpectrumEstimate:
    """Full spectrum of a symmetric matrix: its half_spectra merged, each half's as often as its copies say.

    residual_bound is the largest bound of the stacks.  Eigenvalues within the reported band zero_tol (default
    ZERO_TOL_RELATIVE * ||A||, raised to residual_bound) of zero are uncertain, the rest below it negative.
    Raises ValueError for a matrix not symmetric to rounding accuracy, or a zero_tol that is negative or not finite.
    """
    if zero_tol is not None and not (math.isfinite(zero_tol) and zero_tol >= 0.0):
        raise ValueError(f"zero_tol must be a finite number >= 0, got {zero_tol}")
    spectra = half_spectra(a)
    copies = a.copies if isinstance(a, GalerkinMatrix) else (1,)
    values = np.sort(np.concatenate([np.repeat(h.values, c, axis=0).ravel() for h, c in zip(spectra, copies)]))
    bound = max(h.bound for h in spectra)
    if zero_tol is None:
        zero_tol = ZERO_TOL_RELATIVE * (float(max(abs(values[0]), abs(values[-1]))) or 1.0)
    zero_tol = max(zero_tol, bound)
    negative = int(np.sum(values < -zero_tol))
    uncertain = int(np.sum(np.abs(values) <= zero_tol))
    first_six = tuple(float(v) for v in values[negative + uncertain:][:6])
    return SpectrumEstimate(
        m=len(values),
        eigenvalues=values,
        negative_count=negative,
        residual_bound=bound,
        first_positive_six=first_six,
        zero_tol=zero_tol,
        uncertain_count=uncertain,
    )
