"""The names the benchmark's tracer wraps, and how often a report calls them.

perfbench/spans.py replaces each (module, attribute) in its WRAPPED table
with a timing wrapper; a name that no longer resolves breaks the traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import wente_index.assembly as assembly_mod
import wente_index.bounds as bounds_mod
from wente_index.assembly import assemble
from wente_index.bounds import full_report
from wente_index.spectrum import eigen_symmetric
from wente_index.surface import catalog_surface

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.WRAPPED
    for module, attr, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(f"wente_index.{module}"), attr)), (module, attr)


@pytest.mark.parametrize(
    "ell,n,m,enumerations",
    [
        (3, 2, 181, 1),
        (4, 3, 81, 1),
        # 5/4's published selection reaches index 45, beyond A_25, so the
        # subspace check assembles its own shell-complete matrix
        (5, 4, 25, 2),
    ],
)
def test_report_enumerates_samples_and_gathers_once_per_matrix(monkeypatch, ell, n, m, enumerations):
    # gather_pairs is the one kernel pass behind a matrix: assemble's
    # reflection halves and each dense view (stability_matrix, here the
    # subspace restriction) call it once
    calls = {"enumerate_basis": 0, "cached_sample_potential": 0, "gather_pairs": 0, "stability_matrix": 0}

    def counting(name, orig):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(assembly_mod, name, counting(name, getattr(assembly_mod, name)))
    monkeypatch.setattr(bounds_mod, "enumerate_basis", counting("enumerate_basis", bounds_mod.enumerate_basis))
    full_report(catalog_surface(ell, n), m)
    assert calls == {
        "enumerate_basis": enumerations,
        "cached_sample_potential": enumerations,
        "gather_pairs": enumerations + 1,
        "stability_matrix": 1,
    }


def test_span_attributes_read_real_results():
    # a traced run reads these attributes from every assemble and eigensolve
    spans = _load_spans()
    p, m = catalog_surface(4, 3), 81
    matrix = assemble(p, m)
    attrs = spans._attrs("assembly.assemble", assemble, (p, m), {}, matrix)
    assert attrs["m"] == m
    assert m <= attrs["nonzero_upper"] <= m * (m + 1) // 2
    est = eigen_symmetric(matrix)
    assert spans._attrs("spectrum.eigen_symmetric", eigen_symmetric, (matrix,), {}, est) == {"m": m}
