"""Symmetric eigendecomposition and negative-eigenvalue counting.

A_m is an orthogonal sum of the reflection halves of its symmetry sectors,
so its spectrum is the union of theirs.  A complex class's sine half is
S H S for a cosine half H and signs S, so H is solved once and counted
twice; the residual at (lambda, S v) is S times H's at (lambda, v), so
residual_bound covers the twin.  Each stack of equal-size halves goes to
LAPACK's symmetric solver (tridiagonalization followed by implicit-shift
iteration) in one batched call, deterministic for a fixed input.  Counting
negatives uses a relative zero tolerance: eigenvalues inside the tolerance
band are reported as uncertain rather than silently classified, since the
torus operator carries a six-dimensional kernel whose truncated eigenvalues
approach zero from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import GalerkinMatrix

__all__ = [
    "SpectrumEstimate",
    "ZERO_TOL_RELATIVE",
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
    residual_bound: float
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


def eigen_symmetric(a: "GalerkinMatrix | np.ndarray", zero_tol: float | None = None) -> SpectrumEstimate:
    """Full spectrum of a symmetric matrix with a residual certificate.

    A GalerkinMatrix is solved one stack of equal-size halves at a time and
    the spectra merged, each half's as often as its copies say; an ndarray
    is a stack of one.  residual_bound is the largest eigenpair residual
    over the halves solved; it covers their twins.  Eigenvalues within
    zero_tol of zero (default ZERO_TOL_RELATIVE * ||A||) are counted as
    uncertain, the rest below it as negative.  Raises ValueError when a
    matrix is not symmetric to rounding accuracy, or when zero_tol is
    negative or not finite (either would silently move the band).
    """
    if zero_tol is not None and not (math.isfinite(zero_tol) and zero_tol >= 0.0):
        raise ValueError(f"zero_tol must be a finite number >= 0, got {zero_tol}")
    solo = not isinstance(a, GalerkinMatrix)
    stacks, copies = ((np.asarray(a, float)[None],), (1,)) if solo else (a.stacks, a.copies)
    spectra, residuals = [], []
    for stack, copy in zip(stacks, copies):
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"expected a square matrix, got shape {stack.shape[1:]}")
        transpose = stack.transpose(0, 2, 1)
        if not np.array_equal(stack, transpose):
            scale = np.max(np.abs(stack), axis=(1, 2))
            asym = np.max(np.abs(stack - transpose), axis=(1, 2))
            if np.any(asym > _SYMMETRY_RTOL * np.where(scale > 0.0, scale, 1.0)):
                raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym.max():g}")
        values, vectors = np.linalg.eigh(stack)
        # column norms of A V - V diag(values), summed as np.linalg.norm sums them
        residual = np.matmul(stack, vectors)
        residual -= vectors * values[:, None, :]
        np.square(residual, out=residual)
        residuals.append(float(np.sqrt(residual.sum(axis=1)).max()))
        spectra.append(np.repeat(values, copy, axis=0).ravel())
    values = np.sort(np.concatenate(spectra))
    if zero_tol is None:
        zero_tol = ZERO_TOL_RELATIVE * (float(max(abs(values[0]), abs(values[-1]))) or 1.0)
    negative = int(np.sum(values < -zero_tol))
    uncertain = int(np.sum(np.abs(values) <= zero_tol))
    first_six = tuple(float(v) for v in values[negative + uncertain:][:6])
    return SpectrumEstimate(
        m=len(values),
        eigenvalues=values,
        negative_count=negative,
        residual_bound=float(max(residuals)),
        first_positive_six=first_six,
        zero_tol=zero_tol,
        uncertain_count=uncertain,
    )
