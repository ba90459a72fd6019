"""The names the benchmark's tracer wraps, how often a report calls them, and the benchmark's own checks.

perfbench/spans.py replaces each (module, attribute) in its WRAPPED table
with a timing wrapper; a name that no longer resolves breaks the traced run.
perfbench/workloads.py checks every operation's output; an op that fails
those checks here would fail the benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import wente_index.assembly as assembly_mod
import wente_index.bounds as bounds_mod
from wente_index.assembly import assemble
from wente_index.bounds import full_report
from wente_index.spectrum import eigen_symmetric
from wente_index.surface import catalog_surface

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_perfbench("spans")
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
    # reflection halves and the dense view (stability_matrix, which
    # subspace_bound calls for its restriction) call it once
    calls = {"enumerate_basis": 0, "cached_sample_potential": 0, "gather_pairs": 0, "stability_matrix": 0}

    def counting(name, orig):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(assembly_mod, name, counting(name, getattr(assembly_mod, name)))
    for name in ("enumerate_basis", "stability_matrix"):
        monkeypatch.setattr(bounds_mod, name, counting(name, getattr(bounds_mod, name)))
    full_report(catalog_surface(ell, n), m)
    assert calls == {
        "enumerate_basis": enumerations,
        "cached_sample_potential": enumerations,
        "gather_pairs": enumerations + 1,
        "stability_matrix": 1,
    }


def test_span_attributes_read_real_results():
    # a traced run reads these attributes from every assemble and eigensolve
    spans = _load_perfbench("spans")
    p, m = catalog_surface(4, 3), 81
    matrix = assemble(p, m)
    attrs = spans._attrs("assembly.assemble", assemble, (p, m), {}, matrix)
    assert attrs["m"] == m
    assert m <= attrs["nonzero_upper"] <= m * (m + 1) // 2
    est = eigen_symmetric(matrix)
    assert spans._attrs("spectrum.eigen_symmetric", eigen_symmetric, (matrix,), {}, est) == {"m": m}


@pytest.fixture(scope="module")
def bench():
    """perfbench/workloads.py and the library namespace its workloads call."""
    workloads = _load_perfbench("workloads")
    saved = list(sys.path)
    try:
        lib = workloads.load_library(ROOT / "src")
    finally:
        sys.path[:] = saved
    return workloads, lib


def _failures(outcomes):
    return [(out.key, out.error, out.problems) for out in outcomes if out.failed]


def test_benchmark_catalog_pass_passes_its_checks(bench):
    workloads, lib = bench
    outcomes = workloads.CatalogWorkload(lib, seed=1).run_pass()[1]
    assert len(outcomes) == 19
    assert _failures(outcomes) == []


def test_benchmark_cache_warm_set_up_passes_its_checks(bench, tmp_path, monkeypatch):
    monkeypatch.delenv("WENTE_CACHE_DIR", raising=False)
    workloads, lib = bench
    outcomes = workloads.CacheWarmWorkload(lib, seed=1, cache_dir=tmp_path).set_up()
    assert len(outcomes) == 2 * 19
    assert _failures(outcomes) == []
    assert len(list(tmp_path.glob("*.wntpot"))) == 19


def test_benchmark_large_m_set_up_passes_its_checks(bench, monkeypatch):
    workloads, lib = bench
    outcomes = workloads.LargeMWorkload(lib, seed=1).set_up()
    assert len(outcomes) == 3
    assert _failures(outcomes) == []
    # a timed pass also runs the larger sizes, each of which gathers its
    # halves in more than one chunk, so the pinned counts and the residual
    # check cover the chunked gather
    chunks = []
    kernel = assembly_mod.gather_pairs

    def counting(fld, basis, pairs):
        for chunk in kernel(fld, basis, pairs):
            chunks[-1] += 1
            yield chunk

    monkeypatch.setattr(assembly_mod, "gather_pairs", counting)
    for label, sizes in workloads.LARGE_M_SIZES.items():
        chunks.append(0)
        assemble(catalog_surface(*map(int, label.split("/"))), sizes[-1])
        assert chunks[-1] > 2  # a chunk is gathered twice, as X and as Y
    outcomes = workloads.LargeMWorkload(lib, seed=1).run_pass()[1]
    assert sorted(out.key[1] for out in outcomes) == sorted(workloads.LARGE_M_SIZES.values())
    assert _failures(outcomes) == []
