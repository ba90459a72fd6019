"""A_m as symmetry-sector blocks: partition, bits, structural zeros, spectrum, memory guard.

The dense reference below is the gather the sector blocks replaced: one
m_s x m_s block per phase, every same-phase pair computed whether or not
its coefficients can be nonzero.  It knows nothing of the sectors, so the
zeros it leaves between them are an independent check of the sector key.
"""

import functools

import numpy as np
import pytest

import wente_index.assembly as assembly_mod
import wente_index.basis as basis_mod
from wente_index.assembly import AssemblyConfig, assemble, potential_field, sector_positions
from wente_index.basis import enumerate_basis
from wente_index.bounds import full_report
from wente_index.cli import main
from wente_index.spectrum import eigen_symmetric
from wente_index.surface import catalog_surface, lattice

CASES = [(3, 2, 1013), (4, 3, 1089), (7, 6, 1013), (13, 7, 181), (73, 72, 85)]
IDS = [f"{ell}/{n}@{m}" for ell, n, m in CASES]


def _dense_gather(fld, basis):
    """alpha_i delta_ij - b_ij over every same-phase pair, one phase block at a time."""
    a = np.zeros((len(basis), len(basis)))
    for sine in (True, False):
        idx = np.flatnonzero(basis.sine == sine)
        wx, wy, norm = basis.wave_x[idx], basis.wave_y[idx], basis.norm[idx]
        diff = fld.cos_coefficient(wx[:, None] - wx, wy[:, None] - wy)
        total = fld.cos_coefficient(wx[:, None] + wx, wy[:, None] + wy)
        value = 0.5 * (diff - total) if sine else 0.5 * (diff + total)
        a[np.ix_(idx, idx)] = -(np.outer(norm, norm) * fld.area * value)
    a[np.diag_indices_from(a)] += basis.alpha
    return a


@functools.lru_cache(maxsize=None)
def _case(ell, n, m):
    p = catalog_surface(ell, n)
    basis = enumerate_basis(lattice(p), m)
    fld = potential_field(p, basis, AssemblyConfig())
    return assemble(p, m, fld=fld), _dense_gather(fld, basis)


@pytest.mark.parametrize("ell,n,m", CASES, ids=IDS)
def test_blocks_partition_the_positions(ell, n, m):
    matrix, _ = _case(ell, n, m)
    positions = [blk.positions for blk in matrix.blocks]
    assert np.array_equal(np.sort(np.concatenate(positions)), np.arange(m))
    for pos, blk in zip(positions, matrix.blocks):
        assert np.all(np.diff(pos) > 0)
        assert blk.matrix.shape == (len(pos), len(pos))
        assert len(set(matrix.basis.sine[pos].tolist())) == 1


@pytest.mark.parametrize("ell,n,m", CASES, ids=IDS)
def test_entries_are_the_dense_gather_bit_for_bit(ell, n, m):
    matrix, dense = _case(ell, n, m)
    entries = matrix.entries
    assert np.array_equal(entries, dense)
    assert np.array_equal(np.signbit(entries), np.signbit(dense))


@pytest.mark.parametrize("ell,n,m", CASES, ids=IDS)
def test_every_entry_between_sectors_is_exactly_zero(ell, n, m):
    matrix, dense = _case(ell, n, m)
    inside = np.zeros((m, m), dtype=bool)
    for blk in matrix.blocks:
        inside[np.ix_(blk.positions, blk.positions)] = True
    assert not np.any(dense[~inside])
    # a truncation this size has at least one nonzero coupling off the diagonal
    assert np.any(dense[inside & ~np.eye(m, dtype=bool)])


@pytest.mark.parametrize("ell,n,m", CASES, ids=IDS)
def test_merged_spectrum_matches_the_dense_one(ell, n, m):
    matrix, _ = _case(ell, n, m)
    entries = matrix.entries
    sectors = eigen_symmetric(matrix)
    whole = eigen_symmetric(entries)
    scale = np.max(np.abs(np.linalg.eigvalsh(entries)))
    assert np.max(np.abs(sectors.eigenvalues - np.linalg.eigvalsh(entries))) <= 1e-11 * scale
    assert sectors.m == m
    assert (sectors.negative_count, sectors.uncertain_count) == (whole.negative_count, whole.uncertain_count)
    assert sectors.residual_bound <= 1e-8 * scale


def test_principal_is_the_slice_of_entries():
    matrix, _ = _case(13, 7, 181)
    pos = np.array([180, 3, 0, 77, 12, 13])
    sub = matrix.principal(pos)
    expected = matrix.entries[np.ix_(pos, pos)]
    assert np.array_equal(sub, expected)
    assert np.array_equal(np.signbit(sub), np.signbit(expected))


def _small_memory(monkeypatch, nbytes):
    monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: nbytes)
    monkeypatch.setattr(basis_mod, "_physical_memory", lambda: nbytes)


def test_guard_admits_3_2_at_2113_in_64_mib(monkeypatch):
    # the dense rule (6 matrices of 8 m^2 bytes, 214 MB) refused this size
    _small_memory(monkeypatch, 64 * 2**20)
    assert full_report(catalog_surface(3, 2), 2113).galerkin_k == 14


def test_guard_refuses_a_block_that_does_not_fit(monkeypatch, capsys):
    # 4325 functions in at most 12 sectors need at least 119 MiB, the 12
    # sectors 3/2 has 134 MiB: the exact count refuses, after enumerating
    _small_memory(monkeypatch, 128 * 2**20)
    p = catalog_surface(3, 2)
    largest = max(len(s) for s in sector_positions(enumerate_basis(lattice(p), 4325), 2))
    with pytest.raises(SystemExit) as info:
        main(["report", "--surface", "3/2", "--m", "4325"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: m = 4325 needs about")
    assert f"the largest has {largest} functions" in err
