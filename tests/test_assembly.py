import dataclasses
import math

import numpy as np
import pytest

from wente_index.assembly import (
    AssemblyConfig,
    CoefficientRangeError,
    NyquistError,
    PotentialField,
    assemble,
    potential_field,
    field_cache_key,
    read_field_cache,
    sample_potential,
    stability_matrix,
    write_field_cache,
    cached_sample_potential,
)
from wente_index.basis import enumerate_basis
from wente_index.surface import build_surface, lattice, potential_extrema, potential_grid

from oracles import b_entry_quadrature, cell_grid, sector_positions, sine_channel_max

# The published 9x9 restriction for the 3/2 torus is diagonal; entries are
# printed to three significant figures.
W32_CERTIFIED_INDICES = (1, 2, 3, 4, 5, 7, 8, 9, 17)
W32_CERTIFIED_DIAGONAL = (-9.50, -7.99, -7.99, -1.36, -13.2, -8.70, -5.76, -5.76, -5.50)


def _entry(fld, basis, i, j):
    """One entry b_ij at basis positions i, j through the matrix kernel: alpha_i delta_ij - A_ij."""
    if i == j:
        return float(basis.alpha[i] - stability_matrix(fld, basis[[i]])[0, 0])
    return float(-stability_matrix(fld, basis[[i, j]])[0, 1])


def _loop_assemble(fld, basis):
    """Entry-by-entry reference: the scalar formula the kernel must reproduce bit for bit."""
    n = fld.surface.n

    def coeff(wave_x, wave_y):
        a, b = abs(wave_x), abs(wave_y)
        if a % (2 * n) != 0 or b % 2 != 0:
            return 0.0
        return float(fld.coeffs[a // (2 * n), b // 2])

    wave_x, wave_y, sine = basis.wave_x.tolist(), basis.wave_y.tolist(), basis.sine.tolist()
    norm, alpha = basis.norm.tolist(), basis.alpha.tolist()
    m = len(basis)
    a = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            if sine[i] != sine[j]:
                continue
            diff = coeff(wave_x[i] - wave_x[j], wave_y[i] - wave_y[j])
            total = coeff(wave_x[i] + wave_x[j], wave_y[i] + wave_y[j])
            value = 0.5 * (diff - total) if sine[i] else 0.5 * (diff + total)
            b = norm[i] * norm[j] * fld.area * value
            a[i, j] = -b
            a[j, i] = -b
        a[i, i] += alpha[i]
    return a


def _constant_field(p, value, nx=64, ny=64):
    """A PotentialField as if V were identically `value` (for contract tests), and its cell samples."""
    coeffs = np.zeros((32, 32))
    coeffs[0, 0] = float(value)
    return PotentialField(surface=p, nx=nx, ny=ny, coeffs=coeffs), np.full((nx, ny), float(value))


def _rectangle_coeffs(p, cell_nx, cell_ny, pmax, qmax):
    """Cosine table of V over the torus rectangle, by rectangle frequency.

    The layout cell sampling replaced: [0, n x_period) x [0, y_period) for
    odd l and half as wide for even l, sampled at the cell's spacing.  Cell
    frequency (P, Q) is rectangle frequency (cells_x P, 2 Q); the table runs
    to (cells_x pmax, 2 qmax).  Returns the table and cells_x.
    """
    cells_x = p.n if p.ell % 2 == 0 else 2 * p.n
    nx, ny = cells_x * cell_nx, 2 * cell_ny
    width = p.n * p.x_period * (0.5 if p.ell % 2 == 0 else 1.0)
    grid = potential_grid(p, np.arange(nx) * (width / nx), np.arange(ny) * (p.y_period / ny))
    cx = np.cos(2.0 * np.pi * np.outer(np.arange(nx), np.arange(cells_x * pmax + 1)) / nx)
    cy = np.cos(2.0 * np.pi * np.outer(np.arange(ny), np.arange(2 * qmax + 1)) / ny)
    return (cx.T @ grid @ cy) / (nx * ny), cells_x


class TestSampling:
    @pytest.mark.parametrize("bad", [(60, 128), (128, 100), (32, 32)])
    def test_grid_validation(self, w32, bad):
        with pytest.raises(ValueError):
            sample_potential(w32, *bad, 1, 1)

    @pytest.mark.parametrize("pmax,qmax,suggested", [(32, 0, 128), (0, 64, 256), (31, 63, 128)])
    def test_frequency_at_nyquist_names_the_grid(self, w32, pmax, qmax, suggested):
        # 64 samples resolve cell frequencies below 32; the message names
        # the grid, the frequency and the smallest grid that resolves it
        with pytest.raises(NyquistError, match=rf"cell grid 64x64 .* \({pmax}, {qmax}\).* --grid {suggested} "):
            sample_potential(w32, 64, 64, pmax, qmax)
        sample_potential(w32, suggested, suggested, pmax, qmax)

    def test_mean_coefficient_self_convergence(self, w32):
        coarse = sample_potential(w32, 256, 256, 8, 8)
        fine = sample_potential(w32, 512, 512, 8, 8)
        assert coarse.coeffs[0, 0] == pytest.approx(fine.coeffs[0, 0], abs=1e-9)

    def test_mean_against_plain_average(self, w32_field):
        assert w32_field.coeffs[0, 0] == pytest.approx(float(cell_grid(w32_field).mean()), rel=1e-13)

    def test_sine_channel_vanishes(self, w32_field, w43_field):
        assert sine_channel_max(w32_field, 12, 12) < 1e-10
        assert sine_channel_max(w43_field, 12, 12) < 1e-10

    def test_off_lattice_coefficients_vanish(self, w32, w43):
        # over the whole torus rectangle V carries only the frequencies of
        # its period cell; everything else is quadrature noise, which is why
        # sampling one cell loses nothing
        for p in (w32, w43):
            rect, step = _rectangle_coeffs(p, 64, 64, 3, 6)
            off = np.ones(rect.shape, dtype=bool)
            off[::step, ::2] = False
            assert np.max(np.abs(rect[off])) < 1e-10, p.label

    @pytest.mark.parametrize("surface", ["w32", "w43"])
    def test_cell_table_matches_rectangle_transform(self, surface, request):
        p = request.getfixturevalue(surface)
        cell = sample_potential(p, 64, 64, 8, 8).coeffs
        rect, step = _rectangle_coeffs(p, 64, 64, 8, 8)
        on = rect[::step, ::2]
        assert on.shape == cell.shape
        assert np.max(np.abs(on - cell)) <= 1e-12 * np.max(np.abs(cell))

    def test_area_is_the_torus_area(self, w32_field, w43_field):
        for fld in (w32_field, w43_field):
            p = fld.surface
            assert fld.area == lattice(p).cell_area
            # the lattice rectangle: 2n (odd l) or n (even l) cells wide, 2 high
            cells_x = 2 * p.n if p.ell % 2 == 1 else p.n
            assert fld.area == pytest.approx(cells_x * 0.5 * p.x_period * p.y_period, rel=1e-15)

    def test_coefficient_range_error(self, w32):
        fld = sample_potential(w32, 128, 128, pmax=0, qmax=2)
        basis = enumerate_basis(lattice(w32), 13)
        stability_matrix(fld, basis[4:5])  # wave (0, 1): its sums stay within the table
        with pytest.raises(CoefficientRangeError):
            stability_matrix(fld, basis[5:6])  # wave (2, 0): sum (4, 0) is cell frequency (1, 0)


class TestEntries:
    def test_constant_potential_b11(self, w32):
        fld, grid = _constant_field(w32, 3.25)
        basis = enumerate_basis(lattice(w32), 5)
        assert _entry(fld, basis, 0, 0) == pytest.approx(3.25, rel=1e-13)
        assert b_entry_quadrature(fld, basis, 0, 0, grid) == pytest.approx(3.25, rel=1e-13)

    def test_constant_potential_off_diagonal(self, w32):
        fld, grid = _constant_field(w32, 3.25)
        basis = enumerate_basis(lattice(w32), 5)
        # same phase, different modes: orthogonality kills the entry
        assert _entry(fld, basis, 1, 3) == pytest.approx(0.0, abs=1e-15)
        assert b_entry_quadrature(fld, basis, 1, 3, grid) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_phase_is_exact_zero_fourier(self, w32_field, w32):
        basis = enumerate_basis(lattice(w32), 13)
        assert _entry(w32_field, basis, 0, 1) == 0.0
        assert _entry(w32_field, basis, 3, 4) == 0.0

    def test_mixed_phase_small_on_quadrature(self, w32_field, w32):
        basis = enumerate_basis(lattice(w32), 13)
        for i, j in ((0, 1), (1, 2), (3, 6), (8, 11)):
            if basis.sine[i] == basis.sine[j]:
                continue
            assert abs(b_entry_quadrature(w32_field, basis, i, j)) < 1e-10

    def test_constant_row_zero_rule(self, w32_field, w32):
        # entries pairing the constant with a cosine mode vanish unless the
        # mode lies on the potential's own frequency lattice
        basis = enumerate_basis(lattice(w32), 25)
        for j in range(1, 25):
            if basis.sine[j]:
                continue
            on_lattice = basis.wave_x[j] % (2 * w32.n) == 0 and basis.wave_y[j] % 2 == 0
            if not on_lattice:
                assert _entry(w32_field, basis, 0, j) == 0.0
                assert abs(b_entry_quadrature(w32_field, basis, 0, j)) < 1e-10

    def test_mean_entry_matches_table(self, w32_field, w32):
        # alpha_1 - b_11 is the (1,1) entry of the published 9x9 matrix
        b11 = _entry(w32_field, enumerate_basis(lattice(w32), 5), 0, 0)
        assert 0.0 - b11 == pytest.approx(-9.50, abs=0.05)

    @pytest.mark.parametrize("surface", ["w32", "w43"])
    def test_fourier_equals_quadrature(self, surface, request, rng):
        p = request.getfixturevalue(surface)
        fld = request.getfixturevalue(f"{surface}_field")
        m = 41 if p.ell % 2 == 1 else 49
        basis = enumerate_basis(lattice(p), m)
        for _ in range(50):
            i, j = (int(v) for v in rng.integers(0, m, size=2))
            bf = _entry(fld, basis, i, j)
            bq = b_entry_quadrature(fld, basis, i, j)
            assert abs(bf - bq) <= 1e-9 * max(1.0, abs(bf)), (i, j)

    def test_nyquist_guard(self, w32):
        # 64 samples per cell resolve y waves below 64; the pair reaches 2 * 32
        fld = sample_potential(w32, 64, 64, pmax=31, qmax=31)
        basis = enumerate_basis(lattice(w32), 2113)
        high = int(np.argmax(np.abs(basis.wave_y)))
        assert abs(basis.wave_y[high]) == 32
        with pytest.raises(NyquistError):
            b_entry_quadrature(fld, basis, high, high)
        b_entry_quadrature(sample_potential(w32, 64, 128, 1, 1), basis, high, high)


class TestAssemble:
    def test_zero_potential_gives_diagonal(self, w32, monkeypatch):
        import wente_index.assembly as assembly_mod

        basis = enumerate_basis(lattice(w32), 13)
        fld, _ = _constant_field(w32, 0.0)
        monkeypatch.setattr(assembly_mod, "potential_field", lambda *args: fld)
        mat = assemble(w32, 13, AssemblyConfig(nx=128, ny=128))
        np.testing.assert_array_equal(mat.entries, np.diag(basis.alpha))

    def test_symmetric_bit_exact(self, w32, fast_cfg):
        mat = assemble(w32, 41, fast_cfg).entries
        assert np.array_equal(mat, mat.T)

    def test_parity_zero_structure(self, w32, fast_cfg):
        mat = assemble(w32, 41, fast_cfg).entries
        for i in range(41):
            for j in range(41):
                if (i + j) % 2 == 1:
                    assert mat[i, j] == 0.0

    def test_published_diagonal_restriction_w32(self, w32, fast_cfg):
        mat = assemble(w32, 25, fast_cfg).entries
        idx = [i - 1 for i in W32_CERTIFIED_INDICES if i <= 25]
        sub = mat[np.ix_(idx, idx)]
        off_diag = sub - np.diag(np.diag(sub))
        assert np.max(np.abs(off_diag)) < 1e-12
        for got, expected in zip(np.diag(sub), W32_CERTIFIED_DIAGONAL[: len(idx)]):
            assert got == pytest.approx(expected, abs=0.05)

    def test_grid_convergence(self, w32):
        coarse = assemble(w32, 41, AssemblyConfig(nx=256, ny=256)).entries
        fine = assemble(w32, 41, AssemblyConfig(nx=512, ny=512)).entries
        assert np.max(np.abs(coarse - fine)) <= 1e-8

    @pytest.mark.parametrize("surface,m", [("w32", 41), ("w43", 49)])
    def test_matches_scalar_reference(self, surface, m, request):
        p = request.getfixturevalue(surface)
        basis = enumerate_basis(lattice(p), m)
        matrix = assemble(p, m, AssemblyConfig(nx=256, ny=256))
        got = matrix.entries
        expected = _loop_assemble(matrix.fld, basis)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_quadrature_oracle_matches_assemble(self, w43):
        basis = enumerate_basis(lattice(w43), 25)
        cfg = AssemblyConfig(nx=64, ny=64)
        fld = potential_field(w43, basis, cfg)
        quad = np.array([[b_entry_quadrature(fld, basis, i, j) for j in range(25)] for i in range(25)])
        oracle = np.diag(basis.alpha) - quad
        assembled = assemble(w43, 25, cfg).entries
        assert np.max(np.abs(assembled - oracle)) <= 1e-9

    @pytest.mark.parametrize("ell,n,theta,rtol", [(13, 7, None, 1e-13), (3, 2, 24.5, 1e-10)])
    def test_default_grid_is_converged_for_peaked_potential(self, ell, n, theta, rtol):
        # the sharpest catalogued potential and a sharper one near the
        # largest admissible theta: doubling the default cell grid moves the
        # table at a report's extent by no more than rtol of its largest entry
        p = build_surface(ell, n, 0.5, theta)
        assert potential_extrema(p)[1] > 2e4
        basis = enumerate_basis(lattice(p), 181)
        default = potential_field(p, basis, AssemblyConfig())
        doubled = potential_field(p, basis, AssemblyConfig(nx=512, ny=512))
        assert default.nx == 256 and default.coeffs.shape == doubled.coeffs.shape
        scale = np.max(np.abs(doubled.coeffs))
        assert np.max(np.abs(default.coeffs - doubled.coeffs)) <= rtol * scale

    def test_memory_guard_refuses_before_sampling(self, w32, monkeypatch):
        import wente_index.assembly as assembly_mod
        from wente_index.assembly import _CHUNK_BYTES, SECTOR_PAIR_BYTES, mirror_partners
        from wente_index.surface import ParameterError

        def never(*args, **kwargs):
            raise AssertionError("sampled despite the guard")

        monkeypatch.setattr(assembly_mod, "cached_sample_potential", never)
        monkeypatch.setattr(assembly_mod, "gather_pairs", never)
        basis = enumerate_basis(lattice(w32), 1013)
        partner, _ = mirror_partners(basis)
        # a sector closed under the mirror gathers the rows of one function
        # per mirror pair and of each self-mirror, an open one every row; the
        # sine sector of a complex class (wave_x = +-1 mod 4) whose functions
        # all have their cosines gathers none
        pairs = 0
        for s in sector_positions(basis, w32.n):
            if basis.sine[s[0]] and basis.wave_x[s[0]] % 2 == 1 and s[-1] + 1 < len(basis):
                continue
            closed = np.all(partner[s] >= 0)
            pairs += len(s) * (int(np.sum(partner[s] >= s)) if closed else len(s))
        # the guard charges those pairs and one gather_pairs chunk, 3.53 MB; before
        # enumerating it charges the floor of 1013^2 / 48 pairs, 3.18 MB
        need = SECTOR_PAIR_BYTES * pairs + _CHUNK_BYTES
        monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: need - 1)
        with pytest.raises(ParameterError, match="m = 1013 needs about"):
            assemble(w32, 1013)
        monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: need)
        with pytest.raises(AssertionError, match="sampled"):
            assemble(w32, 1013)

    def test_memory_guard_refuses_before_enumerating(self, w32, monkeypatch):
        import wente_index.assembly as assembly_mod
        from wente_index.surface import ParameterError

        def never(*args, **kwargs):
            raise AssertionError("enumerated despite the guard")

        monkeypatch.setattr(assembly_mod, "enumerate_basis", never)
        # 3/2 has at most 12 sectors, so A_1200 holds at least 1200^2 / 12
        # in-sector pairs; at least half lie in gathered sectors (a skipped
        # sine twin is as large as its cosine), which gather at least half
        # their rows, and one gather_pairs chunk: 3.40 MB at SECTOR_PAIR_BYTES = 26
        need = assembly_mod.SECTOR_PAIR_BYTES * 1200**2 // 48 + assembly_mod._CHUNK_BYTES
        monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: need - 1)
        with pytest.raises(ParameterError, match=r"m = 1200 needs about .*at most 12 symmetry blocks"):
            assemble(w32, 1200)
        monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: need)
        with pytest.raises(AssertionError, match="enumerated"):
            assemble(w32, 1200)
        # a size far beyond any machine is refused at once
        monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: 8 * 2**30)
        with pytest.raises(ParameterError, match="m = 1000000000 needs about"):
            assemble(w32, 10**9)

    def test_potential_field_covers_assembly(self, w32, w43):
        # the field sampled for a basis has exactly the extent its products reach
        for p, m in ((w32, 41), (w43, 49)):
            basis = enumerate_basis(lattice(p), m)
            fld = potential_field(p, basis, AssemblyConfig(nx=256, ny=256))
            stability_matrix(fld, basis)
            widest = np.argmax(np.abs(basis.wave_y), keepdims=True)
            with pytest.raises(CoefficientRangeError):
                stability_matrix(dataclasses.replace(fld, coeffs=fld.coeffs[:, :-1]), basis[widest])


class TestCache:
    def test_round_trip_bit_exact(self, w32, tmp_path):
        fld = sample_potential(w32, 128, 128, 12, 12)
        target = tmp_path / "field.wntpot"
        write_field_cache(fld, target)
        loaded = read_field_cache(target)
        assert np.array_equal(loaded.coeffs, fld.coeffs)
        assert loaded.area == fld.area
        assert field_cache_key(loaded.surface, loaded.nx, loaded.ny) == field_cache_key(
            w32, 128, 128
        )

    def test_loaded_field_reproduces_fourier_entries(self, w32, tmp_path):
        fld = sample_potential(w32, 128, 128, 12, 12)
        target = tmp_path / "field.wntpot"
        write_field_cache(fld, target)
        loaded = read_field_cache(target)
        basis = enumerate_basis(lattice(w32), 13)
        assert np.array_equal(stability_matrix(loaded, basis), stability_matrix(fld, basis))

    def test_quadrature_on_a_loaded_field_samples_the_same_grid(self, w32, tmp_path):
        # the cache stores no samples; the oracle samples the cell grid itself
        fld = sample_potential(w32, 128, 128, 12, 12)
        target = tmp_path / "field.wntpot"
        write_field_cache(fld, target)
        loaded = read_field_cache(target)
        basis = enumerate_basis(lattice(w32), 5)
        assert b_entry_quadrature(loaded, basis, 1, 3) == b_entry_quadrature(fld, basis, 1, 3)

    def test_rejects_corrupt_files(self, w32, tmp_path):
        target = tmp_path / "bad.wntpot"
        target.write_bytes(b"NOTAPOT")
        with pytest.raises(ValueError):
            read_field_cache(target)
        fld = sample_potential(w32, 128, 128, 4, 4)
        write_field_cache(fld, target)
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_field_cache(target)

    def test_cached_sampling_hits(self, w32, tmp_path, monkeypatch):
        import wente_index.assembly as assembly_mod

        calls = {"n": 0}
        original = assembly_mod.sample_potential

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(assembly_mod, "sample_potential", counting)
        first = cached_sample_potential(w32, 128, 128, tmp_path, 8, 8)
        second = cached_sample_potential(w32, 128, 128, tmp_path, 8, 8)
        assert calls["n"] == 1
        assert np.array_equal(first.coeffs, second.coeffs)

    def test_cache_miss_on_different_grid(self, w32, tmp_path):
        cached_sample_potential(w32, 128, 128, tmp_path, 8, 8)
        finer = cached_sample_potential(w32, 256, 256, tmp_path, 8, 8)
        assert finer.nx == 256
        assert len(list(tmp_path.glob("*.wntpot"))) == 2

    def test_cache_hits_only_the_exact_table_shape(self, w32, tmp_path):
        # a larger stored table would change the transform's low bits
        cached_sample_potential(w32, 128, 128, tmp_path, 12, 12)
        smaller = cached_sample_potential(w32, 128, 128, tmp_path, 4, 4)
        assert smaller.coeffs.shape == (5, 5)
        assert np.array_equal(smaller.coeffs, sample_potential(w32, 128, 128, 4, 4).coeffs)
        assert len(list(tmp_path.glob("*.wntpot"))) == 2

    @pytest.mark.parametrize("damage", ["truncate", "magic", "version"])
    def test_unreadable_file_is_a_miss_and_rewritten(self, w32, tmp_path, damage):
        fresh = cached_sample_potential(w32, 128, 128, tmp_path, 8, 8)
        (path,) = tmp_path.glob("*.wntpot")
        raw = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(raw[:40])
        elif damage == "magic":
            path.write_bytes(b"XXXXXX" + raw[6:])
        else:
            path.write_bytes(raw[:6] + (99).to_bytes(2, "little") + raw[8:])
        again = cached_sample_potential(w32, 128, 128, tmp_path, 8, 8)
        assert np.array_equal(again.coeffs, fresh.coeffs)
        assert path.read_bytes() == raw

    def test_write_leaves_only_the_cache_file(self, w32, tmp_path):
        cached_sample_potential(w32, 128, 128, tmp_path, 8, 8)
        assert [p.suffix for p in tmp_path.iterdir()] == [".wntpot"]
