import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import wente_index.basis as basis_mod
from wente_index.basis import (
    count_alpha_below,
    cutoff_basis,
    enumerate_basis,
    is_shell_complete,
    shell_complete_size,
    shells_holding,
)
from wente_index.surface import CATALOG, ParameterError, catalog_surface, lattice, potential_extrema

from oracles import basis_values, mode_box_stream, shell_waves

TWO_PI = 2.0 * math.pi

# Golden ordering for the first 13 eigenfunctions, as wave pairs (a, b)
# against the rectangle (n * x_period, y_period), with sine always first.
ODD_FIRST_13 = [
    (0, 0, "cos"),
    (1, 0, "sin"), (1, 0, "cos"),
    (0, 1, "sin"), (0, 1, "cos"),
    (2, 0, "sin"), (2, 0, "cos"),
    (1, 1, "sin"), (1, 1, "cos"),
    (1, -1, "sin"), (1, -1, "cos"),
    (0, 2, "sin"), (0, 2, "cos"),
]
EVEN_FIRST_13 = [
    (0, 0, "cos"),
    (2, 0, "sin"), (2, 0, "cos"),
    (1, 1, "sin"), (1, 1, "cos"),
    (1, -1, "sin"), (1, -1, "cos"),
    (0, 2, "sin"), (0, 2, "cos"),
    (4, 0, "sin"), (4, 0, "cos"),
    (3, 1, "sin"), (3, 1, "cos"),
]
# SHA-256 of the int64 rows (wave_x, wave_y, sine) over a whole large basis,
# recorded from a scalar, function-by-function enumeration; any reordering,
# at any position, changes them.
ORDER_DIGESTS = {
    ("w32", 2113): "2d56f1dfe392c619b9fbd09f31fdc5c24d1041b6702ef71a09a94b12e6071f15",
    ("w43", 2025): "31ffa1a670373685cced64f1f73b122065617dfab2a20a2df95d21b7db43fd4c",
}


def _alpha(p, a, b):
    return 4.0 * math.pi**2 * ((a / (p.n * p.x_period)) ** 2 + (b / p.y_period) ** 2)


def _triples(basis):
    return [(int(a), int(b), "sin" if s else "cos") for a, b, s in zip(basis.wave_x, basis.wave_y, basis.sine)]


class TestOrdering:
    def test_odd_first_13(self, w32):
        basis = enumerate_basis(lattice(w32), 13)
        assert _triples(basis) == ODD_FIRST_13

    def test_even_first_13(self, w43):
        basis = enumerate_basis(lattice(w43), 25)
        assert _triples(basis[:13]) == EVEN_FIRST_13

    def test_odd_next_shell_prefix(self, w32):
        basis = enumerate_basis(lattice(w32), 25)[13:25:2]
        got = list(zip(basis.wave_x.tolist(), basis.wave_y.tolist()))
        assert got == [(3, 0), (2, 1), (2, -1), (1, 2), (1, -2), (0, 3)]

    @pytest.mark.parametrize("surface,m", sorted(ORDER_DIGESTS))
    def test_whole_order_is_pinned(self, surface, m, request):
        basis = enumerate_basis(lattice(request.getfixturevalue(surface)), m)
        rows = np.stack([basis.wave_x, basis.wave_y, basis.sine]).astype("<i8")
        assert hashlib.sha256(rows.tobytes()).hexdigest() == ORDER_DIGESTS[surface, m]

    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("m", [1, 7, 41, 85, 1013, 2113])
    def test_closed_form_shells_match_the_shell_walk(self, parity, m):
        shells = shells_holding(parity, m)
        a, b = basis_mod._waves(parity, shells)
        expected = shell_waves(parity, shells)
        assert np.array_equal(a, expected[:, 0]) and np.array_equal(b, expected[:, 1])
        assert a.dtype == b.dtype == expected.dtype

    def test_sub_basis_selects_positions(self, w32):
        basis = enumerate_basis(lattice(w32), 25)
        pos = np.array([16, 0, 8])  # published indices 17, 1, 9
        sub = basis[pos]
        assert len(sub) == 3
        for name in ("wave_x", "wave_y", "sine", "norm", "alpha"):
            assert np.array_equal(getattr(sub, name), getattr(basis, name)[pos]), name


class TestEigenvalues:
    def test_constant_mode(self, w32):
        f = enumerate_basis(lattice(w32), 1)
        assert f.alpha[0] == 0.0
        assert not f.sine[0]
        lat = lattice(w32)
        assert f.norm[0] == pytest.approx(math.sqrt(1.0 / lat.cell_area), rel=1e-15)

    def test_odd_u2(self, w32):
        f = enumerate_basis(lattice(w32), 5)[1:2]
        lat = lattice(w32)
        assert (f.wave_x[0], f.wave_y[0]) == (1, 0)
        assert f.alpha[0] == pytest.approx(_alpha(w32, 1, 0), rel=1e-13)
        assert f.norm[0] == pytest.approx(math.sqrt(2.0 / lat.cell_area), rel=1e-15)

    def test_even_u4(self, w43):
        f = enumerate_basis(lattice(w43), 9)[3:4]
        assert f.sine[0]
        assert (f.wave_x[0], f.wave_y[0]) == (1, 1)
        assert f.alpha[0] == pytest.approx(_alpha(w43, 1, 1), rel=1e-13)
        lat = lattice(w43)
        # |cell| = n x y / 2, so the normalization is sqrt(4/(n x y))
        assert f.norm[0] == pytest.approx(
            math.sqrt(4.0 / (w43.n * w43.x_period * w43.y_period)), rel=1e-13
        )
        assert lat.cell_area == pytest.approx(w43.n * w43.x_period * w43.y_period / 2, rel=1e-13)

    def test_alpha_equals_frequency_square_exactly(self, w32, w43):
        for p, m in ((w32, 41), (w43, 49), (w32, 2113), (w43, 2025)):
            lat = lattice(p)
            f = enumerate_basis(lat, m)
            # element by element in Python floats, the scalar formula
            for alpha, a, b in zip(f.alpha.tolist(), f.wave_x.tolist(), f.wave_y.tolist()):
                fx, fy = TWO_PI * a / lat.width, TWO_PI * b / lat.height
                assert alpha == fx * fx + fy * fy

    def test_even_parity_wave_sum_is_even(self, w43):
        f = enumerate_basis(lattice(w43), 81)
        assert np.all((f.wave_x + f.wave_y) % 2 == 0)


class TestOrthonormality:
    @pytest.mark.parametrize("surface", ["w32", "w43"])
    def test_first_30_orthonormal(self, surface, request):
        p = request.getfixturevalue(surface)
        lat = lattice(p)
        basis = enumerate_basis(lat, 41 if lat.parity == "odd" else 49)
        width = p.n * p.x_period * (0.5 if p.ell % 2 == 0 else 1.0)
        nx = ny = 256
        x = (np.arange(nx) * (width / nx))[:, None]
        y = (np.arange(ny) * (p.y_period / ny))[None, :]
        cell = (width / nx) * (p.y_period / ny)
        values = [basis_values(lat, basis, i, x, y) for i in range(30)]
        for i in range(30):
            for j in range(i, 30):
                integral = float(np.sum(values[i] * values[j])) * cell
                expected = 1.0 if i == j else 0.0
                assert integral == pytest.approx(expected, abs=1e-10), (i, j)

    def test_laplacian_eigenfunction_relation(self, w32, rng):
        # -Laplacian u = alpha u, checked by finite differences
        lat = lattice(w32)
        basis = enumerate_basis(lat, 13)
        h = 1e-5
        x0, y0 = 0.37, 0.81

        def u(x, y):
            return basis_values(lat, basis, 7, x, y)

        lap = (u(x0 + h, y0) + u(x0 - h, y0) + u(x0, y0 + h) + u(x0, y0 - h) - 4.0 * u(x0, y0)) / (h * h)
        assert -lap == pytest.approx(basis.alpha[7] * u(x0, y0), rel=1e-5)


class TestShellSizes:
    def test_odd_sizes(self):
        sizes = [1, 5, 13, 25, 41, 61, 85, 113, 145, 181]
        assert [shell_complete_size("odd", s) for s in range(1, 11)] == sizes
        assert [m for m in range(182) if is_shell_complete("odd", m)] == sizes

    def test_even_sizes(self):
        sizes = [1, 9, 25, 49, 81, 121]
        assert [shell_complete_size("even", s) for s in range(1, 7)] == sizes
        assert [m for m in range(146) if is_shell_complete("even", m)] == sizes

    def test_is_shell_complete(self):
        assert is_shell_complete("odd", 13)
        assert not is_shell_complete("odd", 14)
        assert is_shell_complete("even", 81)
        assert not is_shell_complete("even", 85)

    def test_warning_on_partial_shell(self, w32):
        with pytest.warns(UserWarning):
            enumerate_basis(lattice(w32), 7)

    def test_no_warning_on_complete_shell(self, w32, recwarn):
        enumerate_basis(lattice(w32), 13)
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]

    def test_shell_size_requires_positive(self):
        with pytest.raises(ValueError):
            shell_complete_size("odd", 0)

    def test_shells_holding(self):
        for parity, sizes in (("odd", [1, 5, 13, 25]), ("even", [1, 9, 25, 49])):
            for shells, size in enumerate(sizes, start=1):
                assert shells_holding(parity, size) == shells
                assert shells_holding(parity, size + 1) == shells + 1
        # the closed form is the least s whose shells hold m, at every size
        # up to 5000 and around shell sizes far past any loop
        for parity in ("odd", "even"):
            for m in range(1, 5001):
                s = shells_holding(parity, m)
                assert shell_complete_size(parity, s) >= m and (s == 1 or shell_complete_size(parity, s - 1) < m)
            for s in (10**6, 10**9 + 7, 10**30):
                size = shell_complete_size(parity, s)
                assert [shells_holding(parity, m) for m in (size - 1, size, size + 1)] == [s, s, s + 1]

    def test_enumeration_requires_positive_size(self, w32):
        with pytest.raises(ValueError):
            enumerate_basis(lattice(w32), 0)


class TestAlphaStream:
    # the eigenvalues of cutoff_basis, one entry per eigenfunction

    def test_tiny_limit_gives_only_constant(self, w32):
        basis = cutoff_basis(lattice(w32), 1e-6)
        assert _triples(basis) == [(0, 0, "cos")] and list(basis.alpha) == [0.0]

    def test_nonpositive_limit_empty(self, w32):
        assert len(cutoff_basis(lattice(w32), 0.0)) == 0
        assert len(cutoff_basis(lattice(w32), -1.0)) == 0

    def test_ascending(self, w32):
        stream = cutoff_basis(lattice(w32), 50.0).alpha
        assert np.all(np.diff(stream) >= 0.0)

    def test_counts_at_potential_extrema_3_2(self, w32):
        v_min, v_max = potential_extrema(w32)
        lat = lattice(w32)
        assert len(cutoff_basis(lat, v_max)) == 213
        assert len(cutoff_basis(lat, v_min)) == 3

    def test_agrees_with_enumeration(self, w32, w43):
        # Truncate the stream below the largest alpha guaranteed covered by
        # the enumerated shells: modes outside shell s have L1 radius > s,
        # hence alpha >= 4 pi^2 (s+1)^2 / (2 max(width, height)^2).
        for p, parity_shells in ((w32, 9), (w43, 5)):
            lat = lattice(p)
            m = shell_complete_size(lat.parity, parity_shells)
            alphas = np.sort(enumerate_basis(lat, m).alpha)
            radius = parity_shells - 1 if lat.parity == "odd" else 2 * (parity_shells - 1)
            extent = max(p.n * p.x_period, p.y_period)
            safe_limit = 4.0 * math.pi**2 * (radius + 1) ** 2 / (2.0 * extent**2)
            stream = cutoff_basis(lat, safe_limit).alpha
            truncated = alphas[alphas < safe_limit]
            np.testing.assert_allclose(stream, truncated, rtol=1e-12)

    def test_count_below_flags_boundary(self, w32):
        lat = lattice(w32)
        stream = cutoff_basis(lat, 100.0).alpha
        level = float(stream[5])
        [(below, near)] = count_alpha_below(lat, [level], boundary_tol=1e-9)
        assert near >= 1
        assert below == int(np.sum(stream < level))

    def test_count_below_reads_every_limit_from_one_stream(self, w32, monkeypatch):
        calls = []

        def counting(lat, limit):
            calls.append(limit)
            return build(lat, limit)

        build = basis_mod.cutoff_basis
        monkeypatch.setattr(basis_mod, "cutoff_basis", counting)
        lat = lattice(w32)
        full = build(lat, 101.0).alpha
        limits = (40.0, float(full[5]), 100.0)
        counts = count_alpha_below(lat, limits)
        assert len(calls) == 1 and calls[0] > 100.0
        expected = [(int(np.sum(full < v)), int(np.sum(np.abs(full - v) <= 1e-9))) for v in limits]
        assert counts == expected and counts[1][1] >= 1 and counts[0][1] == 0

    @pytest.mark.parametrize("limit", [1e3, float("inf"), float("nan")])
    def test_refuses_a_box_beyond_memory(self, w32, monkeypatch, limit):
        # alpha < 1e3 on 3/2 needs a box of 1215 waves, about 190 kB by the guard's rule
        monkeypatch.setattr(basis_mod, "_physical_memory", lambda: 1000)
        with pytest.raises(ParameterError, match="mode box"):
            cutoff_basis(lattice(w32), limit)

    @pytest.mark.parametrize("ell,n", [row[:2] for row in CATALOG], ids=[f"{ell}/{n}" for ell, n, _ in CATALOG])
    def test_wave_box_matches_the_mode_box(self, ell, n):
        # the lattice-mode enumeration in its singular-value box is the
        # reference: the same counts below V_min and V_max, the same stream
        # up to the rounding of the two frequency formulas
        p = catalog_surface(ell, n)
        lat = lattice(p)
        for limit in potential_extrema(p):
            assert len(cutoff_basis(lat, limit)) == len(mode_box_stream(lat, limit))
        limit = potential_extrema(p)[1] + 1.0
        stream, reference = cutoff_basis(lat, limit).alpha, mode_box_stream(lat, limit)
        np.testing.assert_allclose(stream, reference, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("ell,n,limit", [(7, 6, 1e5), (21, 20, 3e4), (10, 7, 3e5), (6, 5, 1e5)])
    def test_guard_charges_no_less_than_the_measured_peak(self, monkeypatch, ell, n, limit):
        # boxes of 0.9 to 2.7 million waves, odd and even lattices: the guard
        # refuses any memory below the tracemalloc peak of the enumeration
        lat = lattice(catalog_surface(ell, n))
        tracemalloc.start()
        try:
            basis = cutoff_basis(lat, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(basis_mod, "_physical_memory", lambda: peak - 1)
        with pytest.raises(ParameterError, match="mode box"):
            cutoff_basis(lat, limit)
        monkeypatch.setattr(basis_mod, "_physical_memory", lambda: 3 * peak)
        again = cutoff_basis(lat, limit)
        assert all(np.array_equal(getattr(again, k), getattr(basis, k)) for k in ("wave_x", "wave_y", "sine", "alpha"))

    @pytest.mark.parametrize("ell,n,shells", [(3, 2, 25), (4, 3, 13), (5, 3, 25), (7, 6, 25), (6, 5, 13)])
    def test_cutoff_holds_the_shell_functions_below_the_limit(self, ell, n, shells):
        # when the shells cover the limit, the cutoff basis holds exactly the
        # shell functions with alpha < limit, with the same alpha bits: a mode
        # past the last shell has |a| + |b| >= R, the next radius, so alpha >=
        # 4 pi^2 R^2 / (width^2 + height^2), the least of a^2 / width^2 +
        # b^2 / height^2 on a + b = R
        p = catalog_surface(ell, n)
        lat = lattice(p)
        shell = enumerate_basis(lat, shell_complete_size(lat.parity, shells))
        radius = shells if lat.parity == "odd" else 2 * shells
        limit = 4.0 * math.pi**2 * radius**2 / (lat.width**2 + lat.height**2)
        cut = cutoff_basis(lat, limit)
        below = np.flatnonzero(shell.alpha < limit)
        assert 100 < len(cut) == len(below) < len(shell)
        at = {triple: i for i, triple in enumerate(_triples(shell))}
        pos = np.array([at[triple] for triple in _triples(cut)])
        assert np.array_equal(np.sort(pos), below)
        assert np.array_equal(cut.alpha, shell.alpha[pos]) and np.array_equal(cut.norm, shell.norm[pos])
        assert np.all(np.diff(cut.alpha) >= 0.0)

    def test_multiplicity_pairs(self, w32):
        stream = cutoff_basis(lattice(w32), 30.0).alpha
        # every nonzero eigenvalue appears an even number of times (sin+cos)
        values, counts = np.unique(np.round(stream[1:], 12), return_counts=True)
        assert np.all(counts % 2 == 0)
