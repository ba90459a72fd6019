"""Published reference values the library reproduces, as machine-readable data.

Two tables are shipped:

* REFERENCE_GEOMETRY - per surface: the ingested angle theta, the periods
  x_{ln}, y_{ln}, the potential extrema, the nodal-domain bound, and the
  sandwich bounds (mu - 1, nu), all at H = 1/2.  Periods are printed to two
  decimals and V_max to six significant figures in the source, so diff
  tolerances must respect that precision.

* REFERENCE_ESTIMATES - per surface: the certified subspace lower bound
  (where one is published), the truncation size m, the negative-eigenvalue
  count k of A_m, and the printed ranges of the negative block and of the
  six eigenvalues above it (three significant figures), again at H = 1/2.

The `table2` and `table3` CLI subcommands diff computed values against these
rows.  Field names mirror IndexReport where they overlap.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "GeometryRow",
    "EstimateRow",
    "REFERENCE_GEOMETRY",
    "REFERENCE_ESTIMATES",
    "estimate_row",
]


class GeometryRow(NamedTuple):
    surface: str
    theta_degrees: float
    x_period: float
    y_period: float
    v_min: float
    v_max: float
    courant_lower: int
    sandwich_lower: int
    sandwich_upper: int
    # decimal places the source prints for y_period (x_period always has 2);
    # a value printed as "39.1" can only be matched to half an ulp of that
    y_decimals: int = 2

    @property
    def y_tolerance(self) -> float:
        return max(0.01, 0.5 * 10.0 ** (-self.y_decimals))


class EstimateRow(NamedTuple):
    surface: str
    subspace_lower: int | None
    galerkin_k: int
    m: int
    negative_range: tuple[float, float]
    first_positive_six: tuple[float, float]


REFERENCE_GEOMETRY: tuple[GeometryRow, ...] = (
    GeometryRow("3/2", 17.7324, 2.56, 4.21, 2.0, 123.447, 2, 2, 213),
    GeometryRow("4/3", 12.7898, 3.28, 6.34, 2.0, 33.0184, 1, 6, 81),
    GeometryRow("5/3", 21.4807, 1.76, 2.64, 2.0, 680.157, 4, 2, 743),
    GeometryRow("5/4", 9.9285, 3.60, 7.90, 2.0, 17.9591, 6, 16, 169),
    GeometryRow("7/4", 22.8449, 1.33, 1.94, 2.0, 2200.7, 6, 2, 1815),
    GeometryRow("6/5", 8.0983, 3.79, 9.18, 2.0, 12.4273, 3, 14, 83),
    GeometryRow("7/5", 14.8978, 3.00, 5.38, 2.0, 54.5652, 8, 12, 351),
    GeometryRow("8/5", 20.1374, 2.08, 3.23, 2.0, 319.339, 3, 2, 433),
    GeometryRow("9/5", 23.4867, 1.07, 1.54, 2.0, 5426.0, 8, 2, 3569),
    GeometryRow("7/6", 6.8332, 3.91, 10.3, 2.0, 9.65614, 10, 38, 189, y_decimals=1),
    GeometryRow("11/6", 23.8382, 0.89, 1.28, 2.0, 11308.6, 10, 2, 6191),
    GeometryRow("8/7", 5.9081, 3.99, 11.3, 2.0, 8.01729, 5, 24, 97, y_decimals=1),
    GeometryRow("9/7", 11.1844, 3.47, 7.16, 2.0, 23.2959, 12, 28, 323),
    GeometryRow("10/7", 15.7491, 2.88, 5.02, 2.0, 68.2461, 5, 8, 277),
    GeometryRow("11/7", 19.4966, 2.22, 3.50, 2.0, 238.928, 12, 6, 1037),
    GeometryRow("12/7", 22.3044, 1.52, 2.24, 2.0, 1278.61, 5, 2, 1201),
    GeometryRow("13/7", 24.0512, 0.77, 1.10, 2.0, 21012.8, 12, 2, 9863),
    GeometryRow("21/20", 2.1359, 4.29, 20.2, 2.0, 3.54102, 38, 278, 491, y_decimals=1),
    GeometryRow("73/72", 0.6005, 4.40, 39.1, 2.0, 2.3828, 142, 1962, 2353, y_decimals=1),
)

REFERENCE_ESTIMATES: tuple[EstimateRow, ...] = (
    EstimateRow("3/2", 8, 11, 181, (-35.4, -1.47), (0.059, 0.65)),
    EstimateRow("4/3", 9, 10, 81, (-10.2, -0.63), (0.26, 0.47)),
    EstimateRow("5/3", 11, 12, 85, (-81.3, -50.6), (0.093, 5.75)),
    EstimateRow("5/4", 32, 34, 145, (-5.78, -0.035), (0.21, 0.32)),
    EstimateRow("7/4", 15, 16, 145, (-193.7, -108.5), (3.88, 11.3)),
    EstimateRow("6/5", 19, 20, 81, (-4.37, -0.76), (0.12, 0.19)),
    EstimateRow("7/5", 26, 27, 145, (-12.9, -0.72), (0.039, 0.42)),
    EstimateRow("8/5", 11, 12, 81, (-48.9, -0.89), (1.83, 4.21)),
    EstimateRow("9/5", 19, 20, 145, (-294.3, -169.7), (9.38, 21.1)),
    EstimateRow("7/6", None, 54, 145, (-3.82, -0.068), (0.11, 0.37)),
    EstimateRow("11/6", None, 24, 181, (-445.3, -254.5), (10.4, 21.9)),
    EstimateRow("8/7", 8, 35, 81, (-3.48, -0.024), (0.043, 0.38)),
    EstimateRow("9/7", None, 54, 145, (-6.24, -0.074), (0.092, 0.39)),
    EstimateRow("10/7", 8, 18, 81, (-12.1, -1.29), (0.33, 0.83)),
    EstimateRow("11/7", None, 35, 145, (-26.9, -0.037), (1.28, 3.10)),
    EstimateRow("12/7", 8, 14, 81, (-78.3, -57.4), (2.08, 10.6)),
    EstimateRow("13/7", None, 28, 181, (-503.0, -278.3), (24.8, 37.3)),
)


def estimate_row(surface: str) -> EstimateRow:
    for row in REFERENCE_ESTIMATES:
        if row.surface == surface:
            return row
    raise KeyError(surface)
