"""Morse index bounds and sharp Galerkin estimates for symmetric Wente tori.

The library turns a reduced fraction l/n in (1, 2) into the constants of the
corresponding constant-mean-curvature torus, assembles truncations of its
stability operator in the Laplacian eigenbasis of the conformal lattice, and
combines analytic bounds with negative-eigenvalue counts into index reports.
"""

from .elliptic import EllipticModulus, complete_K, jacobi_cn
from .surface import (
    CATALOG,
    THETA_BAR_DEGREES,
    Lattice,
    ParameterError,
    SurfaceParams,
    build_surface,
    catalog_surface,
    lattice,
    load_catalog,
    potential,
    potential_extrema,
)
from .basis import (
    Basis,
    enumerate_basis,
    shell_complete_sizes,
    sorted_alpha_stream,
)
from .assembly import (
    AssemblyConfig,
    GalerkinMatrix,
    PotentialField,
    assemble,
    b_matrix,
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
    "EllipticModulus",
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
    "load_catalog",
    "potential",
    "potential_extrema",
    "Basis",
    "enumerate_basis",
    "shell_complete_sizes",
    "sorted_alpha_stream",
    "AssemblyConfig",
    "GalerkinMatrix",
    "PotentialField",
    "assemble",
    "b_matrix",
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
