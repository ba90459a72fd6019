import dataclasses

import numpy as np
import pytest

import wente_index.assembly as assembly_mod
import wente_index.basis as basis_mod
import wente_index.bounds as bounds_mod
from wente_index.assembly import AssemblyConfig, assemble, shell_basis
from wente_index.bounds import (
    SUBSPACE_SETS,
    ConsistencyError,
    _check_consistency,
    courant_bound,
    default_m,
    full_report,
    potential_sandwich,
    subspace_bound,
)
from wente_index.reference import REFERENCE_GEOMETRY, estimate_row
from wente_index.spectrum import eigen_symmetric
from wente_index.surface import ParameterError, catalog_surface, potential_extrema

W43_PUBLISHED_MATRIX = np.array(
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


class TestCourant:
    @pytest.mark.parametrize("ell,n,expected", [(3, 2, 2), (4, 3, 1), (21, 20, 38), (73, 72, 142)])
    def test_examples(self, ell, n, expected):
        assert courant_bound(ell, n) == expected

    def test_all_catalog_rows(self):
        for ref in REFERENCE_GEOMETRY:
            ell, n = map(int, ref.surface.split("/"))
            assert courant_bound(ell, n) == ref.courant_lower, ref.surface


class TestSandwich:
    def test_w32(self, w32):
        bounds = potential_sandwich(w32)
        assert (bounds.lower, bounds.upper) == (2, 213)
        assert bounds.near_boundary == 0

    def test_extreme_row(self):
        bounds = potential_sandwich(catalog_surface(73, 72))
        assert (bounds.lower, bounds.upper) == (1962, 2353)

    def test_all_catalog_rows_integer_exact(self):
        for ref in REFERENCE_GEOMETRY:
            ell, n = map(int, ref.surface.split("/"))
            bounds = potential_sandwich(catalog_surface(ell, n))
            assert bounds.lower == ref.sandwich_lower, ref.surface
            assert bounds.upper == ref.sandwich_upper, ref.surface

    def test_lower_never_exceeds_upper(self):
        for ref in REFERENCE_GEOMETRY:
            ell, n = map(int, ref.surface.split("/"))
            bounds = potential_sandwich(catalog_surface(ell, n))
            assert bounds.lower <= bounds.upper

    def test_one_mode_box_serves_both_cutoffs(self, w32, monkeypatch):
        calls = []

        def counting(lat, limit):
            calls.append(limit)
            return build(lat, limit)

        build = basis_mod.cutoff_basis
        monkeypatch.setattr(basis_mod, "cutoff_basis", counting)
        assert tuple(potential_sandwich(w32)) == (2, 213, 0)
        assert len(calls) == 1 and calls[0] > potential_extrema(w32)[1]

    def test_equal_cutoffs_collapse(self, w32):
        # a constant potential has V_min == V_max, so mu == nu and the
        # sandwich collapses to (mu - 1, mu)
        from wente_index.basis import count_alpha_below
        from wente_index.surface import lattice

        lat = lattice(w32)
        (mu, _), (nu, _) = count_alpha_below(lat, [2.0, 2.0])
        assert mu == nu


class TestSubspace:
    def test_w32_published_set(self, w32, fast_cfg):
        verdict = subspace_bound(w32, SUBSPACE_SETS["3/2"], fast_cfg)
        assert verdict.negative_definite
        assert verdict.implied_lower == 8
        assert verdict.max_eigenvalue < 0.0

    def test_w43_published_set(self, w43, fast_cfg):
        verdict = subspace_bound(w43, SUBSPACE_SETS["4/3"], fast_cfg)
        assert verdict.negative_definite
        assert verdict.implied_lower == 9

    @pytest.mark.parametrize("surface,m", [("w32", 41), ("w43", 49)])
    def test_matrix_on_shared_field_is_block_of_assemble(self, surface, m, request):
        # the form gathered on the selected functions alone is bit for bit
        # the slice of the assembled matrix whose field it reads: A_m's in
        # the report, A_M's (M the smallest shell-complete size holding the
        # selection) in subspace_bound
        p = request.getfixturevalue(surface)
        pos = np.array(SUBSPACE_SETS[p.label]) - 1
        form = assemble(p, shell_basis(p, m))
        report = bounds_mod._restricted(form.fld, form.basis[pos], tuple(pos + 1)).matrix
        whole = assemble(p, shell_basis(p, default_m(p, pos.max() + 1)))
        standalone = subspace_bound(p, pos + 1).matrix
        for sub, direct in ((report, form.entries[np.ix_(pos, pos)]), (standalone, whole.entries[np.ix_(pos, pos)])):
            assert np.array_equal(sub, direct)
            assert np.array_equal(np.signbit(sub), np.signbit(direct))

    def test_form_too_small_is_assembled_to_a_full_shell(self, w32):
        # 3/2's set reaches index 17, beyond A_13; the report's verdict then
        # comes from A_25, the smallest shell-complete truncation holding it
        report = full_report(w32, 13)
        assert default_m(w32, 17) == 25
        assert report.subspace_lower == 8

    def test_w43_matrix_matches_published_entries(self, w43, fast_cfg):
        mat = subspace_bound(w43, SUBSPACE_SETS["4/3"], fast_cfg).matrix
        np.testing.assert_allclose(mat, W43_PUBLISHED_MATRIX, atol=0.05)

    def test_w32_prefix_ten_is_not_definite(self, w32, fast_cfg):
        verdict = subspace_bound(w32, range(1, 11), fast_cfg)
        assert not verdict.negative_definite
        assert verdict.implied_lower == 0

    def test_verdict_consistent_with_spectrum(self, w32, fast_cfg):
        verdict = subspace_bound(w32, SUBSPACE_SETS["3/2"], fast_cfg)
        est = eigen_symmetric(verdict.matrix)
        top = float(est.eigenvalues[-1])
        assert verdict.max_eigenvalue == pytest.approx(top, rel=1e-12)
        assert (top < -est.residual_bound) == verdict.negative_definite

    def test_top_eigenvalue_within_the_error_bound_is_not_definite(self, w32, fast_cfg, monkeypatch):
        # -1e-16 is below zero but within 2 eps ||diag(-1, -1e-16)||_F of it
        monkeypatch.setattr(bounds_mod, "stability_matrix", lambda fld, basis: np.diag([-1.0, -1e-16]))
        verdict = subspace_bound(w32, [1, 2], fast_cfg)
        assert verdict.max_eigenvalue == -1e-16
        assert not verdict.negative_definite
        assert verdict.implied_lower == 0

    @pytest.mark.parametrize("indices", [[], [0, 1], [1, 1, 2]])
    def test_invalid_index_lists(self, w32, indices, fast_cfg):
        with pytest.raises(ParameterError):
            subspace_bound(w32, indices, fast_cfg)


class TestFullReport:
    def test_w32_reference_row(self, w32):
        report = full_report(w32, 181)
        assert report.galerkin_k == 11
        assert report.index_estimate == (10, 11)
        assert report.courant_lower == 2
        assert (report.sandwich_lower, report.sandwich_upper) == (2, 213)
        assert report.subspace_lower == 8
        assert report.m_used == 181
        assert report.uncertain_count == 0

    def test_w76_reference_row(self, w76):
        report = full_report(w76, 145)
        assert report.index_estimate == (53, 54)

    def test_w137_reference_row(self):
        # the sharpest potential in the catalog, on the default cell grid
        report = full_report(catalog_surface(13, 7), 181)
        assert report.index_estimate == (27, 28)
        assert report.negative_range[0] == pytest.approx(-503.0, rel=0.02)
        assert report.negative_range[1] == pytest.approx(-278.3, rel=0.02)

    def test_invariants_on_reference_rows(self, w32, w43):
        for p, m in ((w32, 181), (w43, 81)):
            r = full_report(p, m)
            best_lower = max(
                x for x in (r.courant_lower, r.sandwich_lower, r.subspace_lower or 0)
            )
            assert r.courant_lower <= r.galerkin_k
            assert (r.subspace_lower or 0) <= r.galerkin_k
            assert r.sandwich_lower <= r.galerkin_k - 1
            assert best_lower <= r.index_estimate[1] <= r.sandwich_upper

    def test_default_m_is_shell_complete(self, w32, w43):
        assert default_m(w32) == 85
        assert default_m(w43) == 81

    def test_truncation_size_defaults_to_the_reference_row_or_default_m(self, w32):
        # 3/2 has a reference row, at m = 181; 21/20 has none
        assert estimate_row(w32.label).m == 181
        assert full_report(w32).to_dict() == full_report(w32, 181).to_dict()
        p = catalog_surface(21, 20)
        with pytest.raises(KeyError):
            estimate_row(p.label)
        assert full_report(p).to_dict() == full_report(p, default_m(p)).to_dict()

    @pytest.mark.parametrize("at_least", [0, -5])
    def test_default_m_rejects_sizes_below_one(self, w32, at_least):
        with pytest.raises(ParameterError, match="at least 1"):
            default_m(w32, at_least)
        assert default_m(w32, 1) == 1

    def test_underconverged_m_is_flagged_not_fatal(self):
        p = catalog_surface(21, 20)
        report = full_report(p, 25)
        assert any("increase m" in note for note in report.notes)

    def test_report_serializes(self, w32):
        import json

        report = full_report(w32, 41)
        payload = json.dumps(report.to_dict(), sort_keys=True)
        parsed = json.loads(payload)
        assert parsed["index_estimate"] == list(report.index_estimate)

    def test_consistency_check_raises_on_fabricated_violation(self, w32):
        report = full_report(w32, 41)
        broken = dataclasses.replace(report, sandwich_upper=1)
        with pytest.raises(ConsistencyError):
            _check_consistency(broken)

    def test_samples_potential_once_cold_and_never_warm(self, w32, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = assembly_mod.sample_potential

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(assembly_mod, "sample_potential", counting)
        monkeypatch.setattr(bounds_mod, "sample_potential", counting)
        cfg = AssemblyConfig(nx=256, ny=256, cache_dir=tmp_path)
        cold = full_report(w32, 41, cfg)
        assert calls["n"] == 1
        warm = full_report(w32, 41, cfg)
        assert calls["n"] == 1
        assert warm == cold
        full_report(w32, 41, AssemblyConfig(nx=256, ny=256))
        assert calls["n"] == 2

    def test_explicit_zero_tol_drives_every_count(self, w32):
        default = full_report(w32, 41)
        wide = full_report(w32, 41, zero_tol=1.0)
        assert wide.zero_tol == 1.0
        assert wide.galerkin_k + wide.uncertain_count >= default.galerkin_k
        assert wide.negative_range[1] < -1.0

    def test_index_estimate_is_never_negative(self):
        # a zero band wider than the spectrum counts k = 0 negatives; the index is at least 0
        assert full_report(catalog_surface(3, 2), zero_tol=1e300).index_estimate == (0, 0)

    @pytest.mark.parametrize("m,tail", [(13, 5), (1, 0)])
    def test_short_spectrum_is_noted(self, w32, m, tail):
        # A_13 of 3/2 has 8 negative eigenvalues and 5 above them; A_1 has
        # only its negative one
        report = full_report(w32, m)
        assert f"only {tail} eigenvalue(s) above the negative block at m={m}" in report.notes
        est = eigen_symmetric(assemble(w32, shell_basis(w32, m)))
        assert len(est.first_positive_six) == tail
        if tail:
            assert report.first_positive_six == (est.first_positive_six[0], est.first_positive_six[-1])
        else:
            assert all(np.isnan(report.first_positive_six))

    def test_h_independence_of_counts(self):
        from wente_index.surface import build_surface

        half = full_report(build_surface(3, 2, 0.5), 41)
        double = full_report(build_surface(3, 2, 2.0), 41)
        assert half.galerkin_k == double.galerkin_k
        assert half.sandwich_lower == double.sandwich_lower
        assert half.sandwich_upper == double.sandwich_upper
