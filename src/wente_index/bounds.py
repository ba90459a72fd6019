"""Index bounds: nodal-domain count, potential sandwich, negative subspaces.

Three independent routes bound the Morse index of W_{l/n}:

* a nodal-domain argument applied to the rotational Jacobi field gives the
  closed-form lower bound 2n-2 (l odd) or n-2 (l even);
* replacing V by its constant extrema sandwiches the operator between two
  shifted Laplacians whose spectra are explicit lattice sums, giving
  mu - 1 <= Ind <= nu;
* a subspace of Laplacian eigenfunctions on which the quadratic form is
  negative definite certifies Ind >= N - 1; its restricted form is a
  principal submatrix of an assembled truncation A_M.

The Galerkin route (assembly + spectrum) sharpens these: the number k of
negative eigenvalues of A_m grows monotonically toward the true count, and
the volume constraint leaves the index as k-1 (at least 0) or k.

SUBSPACE_SETS records, for each catalogued surface that has one, a basis
selection whose restricted operator is negative definite at H = 1/2; these
selections are data (they were found by search), shipped so the certified
lower bounds can be reproduced directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .assembly import AssemblyConfig, GalerkinMatrix, assemble, stability_matrix
from .assembly import sample_potential  # noqa: F401  (perfbench/spans.py traces this name)
from .basis import count_alpha_below, shell_complete_size, shells_holding
from .basis import enumerate_basis  # noqa: F401  (perfbench/spans.py traces this name)
from .reference import REFERENCE_ESTIMATES
from .spectrum import eigen_symmetric
from .surface import ParameterError, SurfaceParams, lattice, potential_extrema

__all__ = [
    "ConsistencyError",
    "SandwichBounds",
    "SubspaceVerdict",
    "IndexReport",
    "SUBSPACE_SETS",
    "courant_bound",
    "potential_sandwich",
    "subspace_bound",
    "default_m",
    "full_report",
]

BOUNDARY_TOL = 1e-9


class ConsistencyError(RuntimeError):
    """A computed lower bound exceeded a computed upper bound."""


class SandwichBounds(NamedTuple):
    lower: int  # mu - 1
    upper: int  # nu
    near_boundary: int  # lattice eigenvalues within tolerance of either cutoff


class SubspaceVerdict(NamedTuple):
    negative_definite: bool
    implied_lower: int
    max_eigenvalue: float
    matrix: np.ndarray
    indices: tuple[int, ...]


# Basis selections certifying Ind >= N - 1 (negative definite at H = 1/2).
SUBSPACE_SETS: dict[str, tuple[int, ...]] = {
    "3/2": (1, 2, 3, 4, 5, 7, 8, 9, 17),
    "4/3": (*range(1, 10), 13),
    "5/3": (1, 2, 3, 5, 6, 7, 8, 9, 15, 16, 17, 29),
    "5/4": (*range(1, 24), *range(27, 36), 45),
    "7/4": (1, 2, 3, 5, 6, 7, 8, 9, 14, 15, 16, 17, 27, 28, 29, 45),
    "6/5": (*range(1, 20), 29),
    "7/5": (*range(1, 12), *range(14, 20), *range(26, 32), 43, 44, 45, 65),
    "8/5": (*range(1, 8), 10, 11, 12, 13, 29),
    "9/5": (1, 2, 3, 5, 6, 7, 8, 9, 14, 15, 16, 17, 26, 27, 28, 29, 43, 44, 45, 65),
    "8/7": (1, 2, 3, 4, 5, 10, 11, 12, 13),
    "10/7": (1, 2, 3, 4, 5, 10, 11, 12, 13),
    "12/7": (1, 2, 3, 4, 5, 10, 11, 12, 13),
}


def courant_bound(ell: int, n: int) -> int:
    """Nodal-domain lower bound for the index: 2n-2 (l odd) or n-2 (l even)."""
    return 2 * n - 2 if ell % 2 == 1 else n - 2


def potential_sandwich(p: SurfaceParams) -> SandwichBounds:
    """(mu - 1, nu): lattice eigenvalues strictly below V_min resp. V_max.

    Comparisons are strict; eigenvalues within BOUNDARY_TOL of either cutoff
    are tallied in near_boundary so reports can flag the ambiguity.  One
    mode stream up to V_max holds both counts.
    """
    (mu, near_min), (nu, near_max) = count_alpha_below(lattice(p), potential_extrema(p), BOUNDARY_TOL)
    return SandwichBounds(lower=mu - 1, upper=nu, near_boundary=near_min + near_max)


def subspace_bound(
    p: SurfaceParams,
    indices: Sequence[int],
    cfg: AssemblyConfig | None = None,
    form: GalerkinMatrix | None = None,
) -> SubspaceVerdict:
    """Check negative definiteness of the restricted form on the given span.

    The restriction to the 1-based basis indices is the stability matrix on
    those functions over the field of form when form holds them, otherwise
    of A_M assembled at the smallest shell-complete M >= max(indices): bit
    for bit a principal submatrix of A_M.  It counts as negative definite
    only when its top eigenvalue lies below -residual_bound, the solver's
    error bound.  A negative definite N-dimensional restriction implies
    Ind >= N - 1 (one dimension can be lost to the volume constraint).
    """
    indices = tuple(int(i) for i in indices)
    if not indices:
        raise ParameterError("at least one basis index is required")
    if len(set(indices)) != len(indices):
        raise ParameterError("basis indices must be distinct")
    if min(indices) < 1:
        raise ParameterError("basis indices are 1-based")
    if form is None or form.m < max(indices):
        form = assemble(p, default_m(p, max(indices)), cfg)
    mat = stability_matrix(form.fld, form.basis[np.array(indices) - 1])
    est = eigen_symmetric(mat)
    top = float(est.eigenvalues[-1])
    definite = top < -est.residual_bound
    return SubspaceVerdict(
        negative_definite=definite,
        implied_lower=len(mat) - 1 if definite else 0,
        max_eigenvalue=top,
        matrix=mat,
        indices=indices,
    )


def default_m(p: SurfaceParams, at_least: int = 81) -> int:
    """Smallest shell-complete basis size >= at_least for the surface parity."""
    if at_least < 1:
        raise ParameterError(f"basis size must be at least 1, got {at_least}")
    return shell_complete_size(p.parity, shells_holding(p.parity, at_least))


@dataclass(frozen=True)
class IndexReport:
    """Every bound for one surface, plus the Galerkin estimate at size m."""

    surface: str
    ell: int
    n: int
    H: float
    theta_degrees: float
    courant_lower: int
    sandwich_lower: int
    sandwich_upper: int
    subspace_lower: int | None
    galerkin_k: int
    index_estimate: tuple[int, int]
    m_used: int
    negative_range: tuple[float, float]
    first_positive_six: tuple[float, float]
    uncertain_count: int
    residual_bound: float
    zero_tol: float
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        """Every field by name, tuples as lists (the JSON layout)."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def full_report(
    p: SurfaceParams,
    m: int | None = None,
    cfg: AssemblyConfig | None = None,
    zero_tol: float | None = None,
) -> IndexReport:
    """Run every bound plus the Galerkin pipeline and cross-check consistency.

    m defaults to the surface's published truncation size, or default_m(p)
    without a reference row.  The subspace check uses the shipped certified
    set for the surface when one exists.  Inconsistent bounds raise
    ConsistencyError: they can only come from a numerical fault, never from
    the mathematics.
    """
    if m is None:
        m = {row.surface: row.m for row in REFERENCE_ESTIMATES}.get(p.label) or default_m(p)
    cfg = cfg or AssemblyConfig()
    notes: list[str] = []

    courant = courant_bound(p.ell, p.n)
    sandwich = potential_sandwich(p)
    if sandwich.near_boundary:
        notes.append(
            f"{sandwich.near_boundary} lattice eigenvalue(s) within {BOUNDARY_TOL} of a potential cutoff"
        )

    subspace_indices = SUBSPACE_SETS.get(p.label)
    # One matrix serves the Galerkin count and, when the selection lies
    # within the first m functions, the subspace check.
    matrix = assemble(p, m, cfg)
    subspace_lower: int | None = None
    if subspace_indices is not None:
        verdict = subspace_bound(p, subspace_indices, cfg, form=matrix)
        if verdict.negative_definite:
            subspace_lower = verdict.implied_lower
        else:
            notes.append("provided subspace is not negative definite; no bound taken from it")

    est = eigen_symmetric(matrix, zero_tol)
    k, uncertain = est.negative_count, est.uncertain_count
    if uncertain:
        notes.append(f"{uncertain} eigenvalue(s) within zero tolerance {est.zero_tol:g}; count is ambiguous")
    best_lower = max(
        [courant, sandwich.lower] + ([subspace_lower] if subspace_lower is not None else [])
    )
    if best_lower > k:
        # k grows monotonically with m, so an analytic bound above it only
        # means the truncation is not yet converged.
        notes.append(f"analytic lower bound {best_lower} exceeds Galerkin count at m={m}; increase m")
    six = est.first_positive_six
    if len(six) < 6:
        # the truncation is too small to show six values above the block
        notes.append(f"only {len(six)} eigenvalue(s) above the negative block at m={m}")

    report = IndexReport(
        surface=p.label,
        ell=p.ell,
        n=p.n,
        H=p.H,
        theta_degrees=p.theta_degrees,
        courant_lower=courant,
        sandwich_lower=sandwich.lower,
        sandwich_upper=sandwich.upper,
        subspace_lower=subspace_lower,
        galerkin_k=k,
        index_estimate=(max(k - 1, 0), k),
        m_used=m,
        negative_range=est.negative_range,
        first_positive_six=(six[0], six[-1]) if six else (float("nan"), float("nan")),
        uncertain_count=uncertain,
        residual_bound=est.residual_bound,
        zero_tol=est.zero_tol,
        notes=tuple(notes),
    )
    _check_consistency(report)
    return report


def _check_consistency(r: IndexReport) -> None:
    lowers = [r.courant_lower, r.sandwich_lower]
    if r.subspace_lower is not None:
        lowers.append(r.subspace_lower)
    best_lower = max(lowers)
    if best_lower > r.sandwich_upper:
        raise ConsistencyError(
            f"{r.surface}: lower bound {best_lower} exceeds upper bound {r.sandwich_upper}"
        )
    if r.index_estimate[1] > r.sandwich_upper:
        raise ConsistencyError(
            f"{r.surface}: Galerkin count {r.index_estimate[1]} exceeds upper bound {r.sandwich_upper}"
        )
