"""Morse index bounds and sharp Galerkin estimates for symmetric Wente tori.

The library turns a reduced fraction l/n in (1, 2) into the constants of the
corresponding constant-mean-curvature torus, assembles truncations of its
stability operator in the Laplacian eigenbasis of the conformal lattice, and
combines analytic bounds with negative-eigenvalue counts into index reports.
"""

from .elliptic import complete_K, jacobi_cn
from .surface import (
    CATALOG,
    THETA_BAR_DEGREES,
    Lattice,
    ParameterError,
    SurfaceParams,
    build_surface,
    catalog_surface,
    lattice,
    potential,
    potential_extrema,
)
from .basis import (
    Basis,
    cutoff_basis,
    enumerate_basis,
)
from .assembly import (
    AssemblyConfig,
    GalerkinMatrix,
    PotentialField,
    assemble,
    sample_potential,
)
from .spectrum import SpectrumEstimate, eigen_symmetric
from .bounds import (
    SUBSPACE_SETS,
    ConsistencyError,
    IndexReport,
    courant_bound,
    full_report,
    potential_sandwich,
    subspace_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "complete_K",
    "jacobi_cn",
    "CATALOG",
    "THETA_BAR_DEGREES",
    "Lattice",
    "ParameterError",
    "SurfaceParams",
    "build_surface",
    "catalog_surface",
    "lattice",
    "potential",
    "potential_extrema",
    "Basis",
    "enumerate_basis",
    "cutoff_basis",
    "AssemblyConfig",
    "GalerkinMatrix",
    "PotentialField",
    "assemble",
    "sample_potential",
    "SpectrumEstimate",
    "eigen_symmetric",
    "SUBSPACE_SETS",
    "ConsistencyError",
    "IndexReport",
    "courant_bound",
    "full_report",
    "potential_sandwich",
    "subspace_bound",
]
