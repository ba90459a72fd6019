"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criterion 5's range clause is expected to fail on five endpoints; see the
notes in the repository README.  The computed values are grid-converged, the
gathered matrix matches a quadrature oracle on the same grid, and every
negative count matches; the five failing endpoints sit exactly where the
reference values carry the most numerical error (eigenvalues near zero at
the largest truncation sizes).
"""

import math
import time

import numpy as np
import pytest

from wente_index.assembly import AssemblyConfig, assemble, b_matrix, potential_field
from wente_index.basis import enumerate_basis
from wente_index.bounds import (
    SUBSPACE_SETS,
    courant_bound,
    default_m,
    full_report,
    potential_sandwich,
    subspace_bound,
)
from wente_index.elliptic import complete_K, jacobi_cn
from wente_index.reference import REFERENCE_ESTIMATES, REFERENCE_GEOMETRY, estimate_row
from wente_index.spectrum import eigen_symmetric
from wente_index.surface import build_surface, catalog_surface, lattice, potential_extrema

from oracles import b_entry_quadrature, basis_values

RANGE_RTOL = 0.02
ROW_SECONDS = 60.0

# Reproduction targets: published matrices and implied lower bounds.
W32_DIAGONAL = (-9.50, -7.99, -7.99, -1.36, -13.2, -8.70, -5.76, -5.76, -5.50)
W43_MATRIX = np.array(
    [
        [-5.17, 0, 0, 0, 0, 0, 0, 0, -3.23, 0],
        [0, -3.53, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, -3.53, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, -3.78, 0, -2.29, 0, 0, 0, 0],
        [0, 0, 0, 0, -3.78, 0, -2.29, 0, 0, 0],
        [0, 0, 0, -2.29, 0, -3.78, 0, 0, 0, 0],
        [0, 0, 0, 0, -2.29, 0, -3.78, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, -0.25, 0, 0],
        [-3.23, 0, 0, 0, 0, 0, 0, 0, -2.21, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, -1.97],
    ]
)
SUBSPACE_EXPECTED = {
    "5/3": 11, "5/4": 32, "7/4": 15, "6/5": 19, "7/5": 26, "8/5": 11, "9/5": 19,
    "8/7": 8, "10/7": 8, "12/7": 8,
}
COUNTS_REQUIRED = {"3/2": (181, 11), "4/3": (81, 10), "6/5": (81, 20), "8/5": (81, 12), "7/6": (145, 54)}


def _conclude(num: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {title}: {status}")
    for line in failures:
        print(f"    {line}")
    if failures:
        pytest.fail(f"criterion {num}: {len(failures)} check(s) failed", pytrace=False)


@pytest.fixture(scope="module")
def reference_reports():
    """full_report at the published truncation size, per reference surface."""
    out = {}
    for ref in REFERENCE_ESTIMATES:
        ell, n = map(int, ref.surface.split("/"))
        p = catalog_surface(ell, n)
        start = time.perf_counter()
        report = full_report(p, ref.m)
        out[ref.surface] = (report, time.perf_counter() - start)
    return out


def test_criterion_1_geometry():
    failures = []
    start = time.perf_counter()
    for ref in REFERENCE_GEOMETRY:
        ell, n = map(int, ref.surface.split("/"))
        p = catalog_surface(ell, n)
        v_min, v_max = potential_extrema(p)
        if abs(p.x_period - ref.x_period) > 0.01:
            failures.append(f"{ref.surface}: x {p.x_period:.4f} vs {ref.x_period}")
        if abs(p.y_period - ref.y_period) > ref.y_tolerance:
            failures.append(f"{ref.surface}: y {p.y_period:.4f} vs {ref.y_period}")
        if abs(v_max - ref.v_max) > 1e-3 * ref.v_max:
            failures.append(f"{ref.surface}: V_max {v_max:.6g} vs {ref.v_max}")
        if v_min != 4.0 * p.H:
            failures.append(f"{ref.surface}: V_min {v_min}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"geometry sweep took {elapsed:.2f}s (budget 1s)")
    _conclude(1, "periods and potential extrema for all 19 surfaces", failures)


def test_criterion_2_integer_bounds():
    failures = []
    for ref in REFERENCE_GEOMETRY:
        ell, n = map(int, ref.surface.split("/"))
        p = catalog_surface(ell, n)
        if courant_bound(ell, n) != ref.courant_lower:
            failures.append(f"{ref.surface}: nodal bound {courant_bound(ell, n)} vs {ref.courant_lower}")
        sandwich = potential_sandwich(p)
        if sandwich.lower != ref.sandwich_lower:
            failures.append(f"{ref.surface}: sandwich lower {sandwich.lower} vs {ref.sandwich_lower}")
        if sandwich.upper != ref.sandwich_upper:
            failures.append(f"{ref.surface}: sandwich upper {sandwich.upper} vs {ref.sandwich_upper}")
    _conclude(2, "integer bound columns for all 19 surfaces", failures)


def test_criterion_3_published_matrices():
    failures = []
    p32 = catalog_surface(3, 2)
    verdict32 = subspace_bound(p32, SUBSPACE_SETS["3/2"])
    sub = verdict32.matrix
    for r, expected in enumerate(W32_DIAGONAL):
        if abs(sub[r, r] - expected) > 0.05:
            failures.append(f"3/2 diagonal[{r}]: {sub[r, r]:.4f} vs {expected}")
    off = sub - np.diag(np.diag(sub))
    if np.max(np.abs(off)) > 0.05:
        failures.append(f"3/2 off-diagonal magnitude {np.max(np.abs(off)):.3g}")
    if not verdict32.negative_definite or verdict32.implied_lower != 8:
        failures.append(f"3/2 verdict {verdict32.negative_definite}, lower {verdict32.implied_lower}")

    p43 = catalog_surface(4, 3)
    verdict43 = subspace_bound(p43, SUBSPACE_SETS["4/3"])
    diff = np.abs(verdict43.matrix - W43_MATRIX)
    if np.max(diff) > 0.05:
        worst = np.unravel_index(np.argmax(diff), diff.shape)
        failures.append(f"4/3 entry {worst}: {verdict43.matrix[worst]:.4f} vs {W43_MATRIX[worst]}")
    if not verdict43.negative_definite or verdict43.implied_lower != 9:
        failures.append(f"4/3 verdict {verdict43.negative_definite}, lower {verdict43.implied_lower}")
    _conclude(3, "published 9x9 and 10x10 negative definite matrices", failures)


def test_criterion_4_published_subspace_bounds():
    failures = []
    for label, expected in SUBSPACE_EXPECTED.items():
        ell, n = map(int, label.split("/"))
        verdict = subspace_bound(catalog_surface(ell, n), SUBSPACE_SETS[label])
        if not verdict.negative_definite:
            failures.append(f"{label}: restriction not negative definite")
        elif verdict.implied_lower != expected:
            failures.append(f"{label}: implied lower {verdict.implied_lower} vs {expected}")
    _conclude(4, "published basis selections certify their lower bounds", failures)


def test_criterion_5_galerkin_estimates(reference_reports):
    failures = []
    for label, (m, expected_k) in COUNTS_REQUIRED.items():
        report, elapsed = reference_reports[label]
        ref = estimate_row(label)
        assert report.m_used == m
        if report.galerkin_k != expected_k:
            failures.append(f"{label}: count {report.galerkin_k} vs {expected_k}")
        for name, computed, target in (
            ("negative min", report.negative_range[0], ref.negative_range[0]),
            ("negative max", report.negative_range[1], ref.negative_range[1]),
            ("positive-six min", report.first_positive_six[0], ref.first_positive_six[0]),
            ("positive-six max", report.first_positive_six[1], ref.first_positive_six[1]),
        ):
            if abs(computed - target) > RANGE_RTOL * abs(target):
                failures.append(f"{label}: {name} {computed:.4g} vs {target} (> 2%)")
        if elapsed >= ROW_SECONDS:
            failures.append(f"{label}: row took {elapsed:.1f}s (budget {ROW_SECONDS}s)")
    _conclude(5, "negative counts exact and eigenvalue ranges within 2%", failures)


def test_criterion_6_monotone_truncation():
    failures = []
    p = catalog_surface(3, 2)
    previous = None
    for m in (13, 41, 85, 181):
        values = eigen_symmetric(assemble(p, m)).eigenvalues
        if previous is not None:
            rise = float(np.max(values[:13] - previous[:13]))
            if rise > 1e-9:
                failures.append(f"lambda_j rose by {rise:.3g} between truncations at m={m}")
        previous = values
    _conclude(6, "eigenvalues nonincreasing across nested truncations", failures)


def test_criterion_7_route_equivalence():
    failures = []
    rng = np.random.default_rng(7)
    for label in ("3/2", "4/3", "7/6"):
        ell, n = map(int, label.split("/"))
        p = catalog_surface(ell, n)
        m = 85 if p.ell % 2 == 1 else 81
        basis = enumerate_basis(lattice(p), m)
        fld = potential_field(p, basis, AssemblyConfig(nx=64, ny=64))
        gathered = b_matrix(fld, basis)
        for _ in range(50):
            i, j = (int(v) for v in rng.integers(0, m, size=2))
            bf = gathered[i, j]
            bq = b_entry_quadrature(fld, basis, i, j)
            if abs(bf - bq) > 1e-9 * max(1.0, abs(bf)):
                failures.append(f"{label}: entry ({i+1},{j+1}) gathered {bf:.3e} vs quadrature {bq:.3e}")
        # parity zero rule: exact in the gathered matrix, tiny on quadrature
        mixed = [(0, 1), (1, 2), (4, 7), (9, 12)]
        for i, j in mixed:
            if basis.sine[i] == basis.sine[j]:
                continue
            if gathered[i, j] != 0.0:
                failures.append(f"{label}: mixed-phase entry ({i+1},{j+1}) not exactly zero")
            if abs(b_entry_quadrature(fld, basis, i, j)) > 1e-10:
                failures.append(f"{label}: mixed-phase quadrature entry ({i+1},{j+1}) above 1e-10")
        # constant-row rule: cosine modes off the potential's frequency lattice
        for j in range(1, 30):
            if basis.sine[j]:
                continue
            if basis.wave_x[j] % (2 * p.n) == 0 and basis.wave_y[j] % 2 == 0:
                continue
            if gathered[0, j] != 0.0:
                failures.append(f"{label}: constant-row entry (1,{j+1}) not exactly zero")
            if abs(b_entry_quadrature(fld, basis, 0, j)) > 1e-10:
                failures.append(f"{label}: constant-row quadrature entry (1,{j+1}) above 1e-10")
    _conclude(7, "gathered matrix equals the quadrature oracle; zero rules hold", failures)


def test_criterion_8_property_suite(reference_reports):
    failures = []
    rng = np.random.default_rng(8)

    # elliptic identities
    if complete_K(0.0) != pytest.approx(math.pi / 2, rel=1e-15):
        failures.append("K(0) != pi/2")
    if jacobi_cn(1.0, 0.0) != pytest.approx(math.cos(1.0), abs=1e-15):
        failures.append("cn(u; 0) != cos u")
    for k in (0.2, 0.6, 0.9089):
        period = 4.0 * complete_K(k)
        u = rng.uniform(-20, 20, size=40)
        if np.max(np.abs(jacobi_cn(u + period, k) - jacobi_cn(u, k))) > 1e-11:
            failures.append(f"cn periodicity violated at k={k}")
        if not np.array_equal(jacobi_cn(-u, k), jacobi_cn(u, k)):
            failures.append(f"cn evenness violated at k={k}")

    # orthonormality on both lattice parities
    for label in ("3/2", "4/3"):
        ell, n = map(int, label.split("/"))
        p = catalog_surface(ell, n)
        m = 41 if p.ell % 2 == 1 else 49
        lat = lattice(p)
        basis = enumerate_basis(lat, m)
        width = p.n * p.x_period * (0.5 if p.ell % 2 == 0 else 1.0)
        x = (np.arange(256) * (width / 256))[:, None]
        y = (np.arange(256) * (p.y_period / 256))[None, :]
        cell = (width / 256) * (p.y_period / 256)
        vals = [basis_values(lat, basis, i, x, y) for i in range(30)]
        gram = np.array([[float(np.sum(a * b)) * cell for b in vals] for a in vals])
        if np.max(np.abs(gram - np.eye(30))) > 1e-10:
            failures.append(f"{label}: basis not orthonormal to 1e-10")

    # eigensolver residuals
    for label in ("3/2", "4/3"):
        report, _ = reference_reports[label]
        est = eigen_symmetric(assemble(catalog_surface(*map(int, label.split("/"))), 41 if label == "3/2" else 49))
        if est.residual_bound > 1e-10 * est.norm:
            failures.append(f"{label}: eigen residual {est.residual_bound:.3g}")

    # mean-curvature rescaling leaves counts alone
    for ell, n, m in ((3, 2, 41), (4, 3, 49)):
        k_half = eigen_symmetric(assemble(build_surface(ell, n, 0.5), m)).negative_count
        k_two = eigen_symmetric(assemble(build_surface(ell, n, 2.0), m)).negative_count
        if k_half != k_two:
            failures.append(f"{ell}/{n}: negative count changed under H rescaling")

    # bound consistency across the whole catalog
    for ref in REFERENCE_ESTIMATES:
        report, _ = reference_reports[ref.surface]
        best_lower = max(
            report.courant_lower, report.sandwich_lower, report.subspace_lower or 0
        )
        chain = (
            report.courant_lower <= report.galerkin_k
            and (report.subspace_lower or 0) <= report.galerkin_k
            and report.sandwich_lower <= report.galerkin_k - 1
            and best_lower <= report.index_estimate[1] <= report.sandwich_upper
        )
        if not chain:
            failures.append(f"{ref.surface}: bound chain violated")
    for ell, n in ((21, 20), (73, 72)):
        # no published truncation size: check the truncation-independent parts
        p = catalog_surface(ell, n)
        report = full_report(p, default_m(p))
        best_lower = max(report.courant_lower, report.sandwich_lower)
        if not (best_lower <= report.sandwich_upper and report.galerkin_k <= report.sandwich_upper):
            failures.append(f"{ell}/{n}: analytic bound chain violated")
    _conclude(8, "identity, orthonormality, residual, rescaling, consistency properties", failures)
