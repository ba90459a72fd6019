"""A_m as the reflection halves of its symmetry sectors.

Partition, bits, structural zeros, the fold, the spectrum and the memory
guard.  The dense reference below is a gather that knows nothing of the
sectors: one m_s x m_s block per phase, every same-phase pair computed
whether or not its coefficients can be nonzero, each coefficient read
from the table by the lattice rule in oracles.py, not by the library's
gather.  The zeros it leaves between them are an independent check of the
sector key.
"""

import functools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import wente_index.assembly as assembly_mod
import wente_index.basis as basis_mod
from wente_index.assembly import AssemblyConfig, assemble, mirror_partners, potential_field, stability_matrix
from wente_index.basis import enumerate_basis
from wente_index.bounds import default_m, full_report
from wente_index.cli import main
from wente_index.reference import REFERENCE_ESTIMATES
from wente_index.spectrum import eigen_symmetric, half_spectra
from wente_index.surface import CATALOG, ParameterError, catalog_surface, lattice

from oracles import cos_coefficient, sector_positions

CASES = [(3, 2, 1013), (4, 3, 1089), (7, 6, 1013), (13, 7, 181), (73, 72, 85)]
IDS = [f"{ell}/{n}@{m}" for ell, n, m in CASES]
# every catalogued surface at its default size, the large-m sizes and the published table3 sizes
FOLD_CASES = [(ell, n, default_m(catalog_surface(ell, n))) for ell, n, _ in CATALOG] + [
    (3, 2, 1013),
    (3, 2, 2113),
    (7, 6, 1013),
    (7, 6, 2113),
    (4, 3, 1089),
    (4, 3, 2025),
]
FOLD_CASES += sorted(
    {(*map(int, row.surface.split("/")), row.m) for row in REFERENCE_ESTIMATES} - set(FOLD_CASES)
)
FOLD_IDS = [f"{ell}/{n}@{m}" for ell, n, m in FOLD_CASES]


def _dense_gather(fld, basis):
    """alpha_i delta_ij - b_ij over every same-phase pair, one phase block at a time."""
    a = np.zeros((len(basis), len(basis)))
    for sine in (True, False):
        idx = np.flatnonzero(basis.sine == sine)
        wx, wy, norm = basis.wave_x[idx], basis.wave_y[idx], basis.norm[idx]
        diff = cos_coefficient(fld, wx[:, None] - wx, wy[:, None] - wy)
        total = cos_coefficient(fld, wx[:, None] + wx, wy[:, None] + wy)
        value = 0.5 * (diff - total) if sine else 0.5 * (diff + total)
        a[np.ix_(idx, idx)] = -(np.outer(norm, norm) * fld.area * value)
    a[np.diag_indices_from(a)] += basis.alpha
    return a


def _sector_sizes(matrix):
    """{(c, wave_y mod 2, phase): functions} of every sector, read from the halves' labels.

    A closed sector's even and odd halves add up to it, an open one is its
    whole half, and a half of phase "both" stands for a cosine sector and
    its sine twin alike.
    """
    sizes = Counter()
    for stack, labels in zip(matrix.stacks, matrix.labels):
        for label in labels:
            for phase in ("cos", "sin") if label["phase"] == "both" else (label["phase"],):
                sizes[int(label["c"]), int(label["y_parity"]), phase] += stack.shape[1]
    return dict(sizes)


def _functions(matrix):
    """Functions the halves account for, a half of phase "both" twice."""
    return sum(_sector_sizes(matrix).values())


def _twinned(matrix):
    """Functions of the sine twins, which the halves of phase "both" stand for."""
    return sum(
        stack.shape[1] * int(np.count_nonzero(labels["phase"] == "both"))
        for stack, labels in zip(matrix.stacks, matrix.labels)
    )


def _label(basis, n, pos):
    """(c, wave_y mod 2, phase) of the sector at positions pos, from its first function."""
    a = int(basis.wave_x[pos[0]])
    return min(a % (2 * n), -a % (2 * n)), int(basis.wave_y[pos[0]] % 2), "sin" if basis.sine[pos[0]] else "cos"


@functools.lru_cache(maxsize=None)
def _case(ell, n, m):
    matrix = assemble(catalog_surface(ell, n), m)
    return matrix, _dense_gather(matrix.fld, matrix.basis)


@pytest.mark.parametrize("ell,n,m", CASES, ids=IDS)
def test_blocks_partition_the_positions(ell, n, m):
    matrix, _ = _case(ell, n, m)
    sectors = sector_positions(matrix.basis, n)
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(m))
    # the halves' labels name the same sectors, each of the same size
    assert _sector_sizes(matrix) == {_label(matrix.basis, n, pos): len(pos) for pos in sectors}
    for pos in sectors:
        assert np.all(np.diff(pos) > 0)
        assert len(set(matrix.basis.sine[pos].tolist())) == 1
    # the halves come in stacks of one size each, ascending
    sizes = [stack.shape[1] for stack in matrix.stacks]
    assert sizes == sorted(set(sizes))
    assert all(stack.shape[1:] == (k, k) for stack, k in zip(matrix.stacks, sizes))
    assert [len(labels) for labels in matrix.labels] == [len(stack) for stack in matrix.stacks]
    doubled = [(labels["phase"] == "both").tolist() for labels in matrix.labels]
    assert [c.tolist() for c in matrix.copies] == [[2 if twin else 1 for twin in both] for both in doubled]
    assert _functions(matrix) == m


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
    for pos in sector_positions(matrix.basis, n):
        inside[np.ix_(pos, pos)] = True
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
    assert np.max(np.abs(sectors.eigenvalues - np.linalg.eigvalsh(entries))) <= 1e-13 * scale
    assert sectors.m == m
    assert (sectors.negative_count, sectors.uncertain_count) == (whole.negative_count, whole.uncertain_count)
    assert sectors.residual_bound <= 1e-8 * scale


def test_principal_is_the_slice_of_entries():
    # the dense view on a sub-basis, as subspace_bound reads it, is that principal submatrix of entries
    matrix, _ = _case(13, 7, 181)
    pos = np.array([180, 3, 0, 77, 12, 13])
    sub = stability_matrix(matrix.fld, matrix.basis[pos])
    expected = matrix.entries[np.ix_(pos, pos)]
    assert np.array_equal(sub, expected)
    assert np.array_equal(np.signbit(sub), np.signbit(expected))


@functools.lru_cache(maxsize=None)
def _fold_case(ell, n, m):
    return assemble(catalog_surface(ell, n), m)


@pytest.mark.parametrize("ell,n,m", FOLD_CASES, ids=FOLD_IDS)
def test_residual_bound_covers_the_eigenvector_solver(ell, n, m):
    # eigh reaches each half's eigenvalues by another LAPACK path; the bound
    # allows each to be off by it, and the two differ by less than one bound
    matrix = _fold_case(ell, n, m)
    gap = max(float(np.max(np.abs(np.linalg.eigvalsh(s) - np.linalg.eigh(s)[0]))) for s in matrix.stacks)
    assert eigen_symmetric(matrix).residual_bound >= gap


@pytest.mark.parametrize("ell,n,m", FOLD_CASES, ids=FOLD_IDS)
def test_sector_blocks_are_their_own_mirror_images(ell, n, m):
    # the fold reads one row per mirror pair, so each sector block of A_m
    # must be its own mirror image bit for bit, diagonal included (on the
    # even-parity lattices a lattice-mode frequency formula once gave
    # partners alphas a last bit apart), and mirror partners share alpha
    matrix = _fold_case(ell, n, m)
    basis = matrix.basis
    partner, sign = mirror_partners(basis)
    assert np.all(partner >= 0)
    a = matrix.entries
    for pos in sector_positions(basis, n):
        block = a[np.ix_(pos, pos)]
        image = sign[pos, None] * a[np.ix_(partner[pos], partner[pos])] * sign[pos]
        assert np.array_equal(image, block)
    assert np.array_equal(basis.alpha[partner], basis.alpha)


@pytest.mark.parametrize("ell,n", [(6, 5), (8, 5), (12, 7)], ids=["6/5", "8/5", "12/7"])
def test_closed_sector_blocks_of_a_m_are_their_own_mirror_images(ell, n):
    # diagonal included: on these even-parity lattices the lattice-mode
    # frequency formula gave partners alphas a last bit apart
    p = catalog_surface(ell, n)
    basis = enumerate_basis(lattice(p), default_m(p))
    partner, sign = mirror_partners(basis)
    a = stability_matrix(potential_field(p, basis, AssemblyConfig()), basis)
    closed = 0
    for pos in sector_positions(basis, n):
        if np.all(partner[pos] >= 0):
            block = a[np.ix_(pos, pos)]
            image = sign[pos, None] * a[np.ix_(partner[pos], partner[pos])] * sign[pos]
            assert np.array_equal(image, block)
            closed += 1
    assert closed > 0


@pytest.mark.parametrize("ell,n,m", FOLD_CASES, ids=FOLD_IDS)
def test_halves_hold_every_function_and_the_dense_spectrum(ell, n, m):
    matrix = _fold_case(ell, n, m)
    assert _functions(matrix) == m
    dense = np.linalg.eigvalsh(matrix.entries)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(eigen_symmetric(matrix).eigenvalues - dense)) <= 1e-13 * scale


def _labelled_spectrum(matrix):
    """(eigenvalue, label) of every eigenvalue of A_m, a half's as often as its copies say."""
    return [
        (float(value), tuple(label.tolist()))
        for spectra, copies in zip(half_spectra(matrix), matrix.copies)
        for values, label, copy in zip(spectra.values, spectra.labels, copies)
        for value in np.repeat(values, copy)
    ]


@pytest.mark.parametrize(
    "ell,n,m", [(3, 2, 2113), (4, 3, 2025), (7, 6, 2113)], ids=["3/2@2113", "4/3@2025", "7/6@2113"]
)
def test_the_six_smallest_eigenvalues_lie_in_the_kernel_classes(ell, n, m):
    # the truncated kernel: two in class n, wave_y odd, sine, one per mirror
    # half, and four in class 2n - l, wave_y even, a cosine twin counted
    # twice, two per mirror half (5/3 is not converged at this size)
    spectrum = sorted(_labelled_spectrum(_fold_case(ell, n, m)), key=lambda pair: abs(pair[0]))
    c = 2 * n - ell
    kernel = [(n, 1, "sin", "even"), (n, 1, "sin", "odd")] + 2 * [(c, 0, "both", "even"), (c, 0, "both", "odd")]
    assert Counter(label for _, label in spectrum[:6]) == Counter(kernel)


@pytest.mark.parametrize(
    "ell,n,ladder,totals",
    [
        (3, 2, (181, 1013, 2113), (11, 14, 14)),
        (4, 3, (81, 1089, 2025), (10, 10, 10)),
        (7, 6, (145, 1013, 2113), (54, 54, 54)),
    ],
    ids=["3/2", "4/3", "7/6"],
)
def test_no_half_loses_a_negative_as_m_grows(ell, n, ladder, totals):
    # shell-complete truncations nest each half in the next one's, so by
    # interlacing no half's count below a fixed shift may fall; the report's
    # zero band grows with ||A||, so a fixed -1e-3 is the shift
    before = Counter()
    for m, total in zip(ladder, totals):
        counts = Counter()
        for value, label in _labelled_spectrum(_fold_case(ell, n, m)):
            counts[label] += value < -1e-3
        assert [label for label in before if counts[label] < before[label]] == []
        assert sum(counts.values()) == total
        before = counts


@pytest.mark.parametrize("ell,n,m,opened", [(3, 2, 100, True), (4, 3, 50, False), (4, 3, 52, True)])
def test_a_sector_open_under_the_mirror_stays_whole(ell, n, m, opened):
    # a size that cuts a shell can leave partners out of the basis; 4/3 at
    # m = 50 adds only sin(8, 0) to four full shells, its own mirror image
    with pytest.warns(UserWarning, match="does not complete a shell"):
        matrix = _fold_case(ell, n, m)
    partner, _ = mirror_partners(matrix.basis)
    open_sectors = [pos for pos in sector_positions(matrix.basis, n) if np.any(partner[pos] < 0)]
    assert bool(open_sectors) == opened
    halves = [half for stack in matrix.stacks for half in stack]
    entries = matrix.entries
    for pos in open_sectors:
        whole = np.linalg.eigvalsh(entries[np.ix_(pos, pos)])
        scale = max(1.0, np.max(np.abs(whole)))
        assert any(
            len(half) == len(pos) and np.max(np.abs(np.linalg.eigvalsh(half) - whole)) <= 1e-13 * scale
            for half in halves
        )
    est, dense = eigen_symmetric(matrix), eigen_symmetric(entries)
    assert (est.negative_count, est.uncertain_count) == (dense.negative_count, dense.uncertain_count)


def _complex_twins(basis, n):
    """(sine positions, cosine positions, S) of each complex-class sine sector; S is None when open.

    Class c of wave_x mod 2n up to sign, neither 0 nor n; the sector is closed
    when each sine's cosine (the next position) is in the basis, and then S
    is +1 where wave_x = c mod 2n and -1 where it is -c.
    """
    twins = []
    for pos in sector_positions(basis, n):
        a = int(basis.wave_x[pos[0]])
        c = min(a % (2 * n), -a % (2 * n))
        if basis.sine[pos[0]] and c % n:
            closed = pos[-1] + 1 < len(basis)
            sign = np.where(basis.wave_x[pos] % (2 * n) == c, 1.0, -1.0) if closed else None
            twins.append((pos, pos + 1 if closed else None, sign))
    return twins


@pytest.mark.parametrize("ell,n,m", FOLD_CASES, ids=FOLD_IDS)
def test_complex_sine_sectors_are_sign_images_of_their_cosines(ell, n, m):
    # one of w_i -+ w_j is off the lattice for two functions of a complex
    # class, so a sine block is S (cosine block) S bit for bit and its
    # spectrum is counted from the cosine's halves twice
    matrix = _fold_case(ell, n, m)
    basis, entries = matrix.basis, matrix.entries
    doubled = 0
    for sine, cosine, sign in _complex_twins(basis, n):
        assert sign is not None
        assert not np.any(basis.sine[cosine]) and np.array_equal(basis.wave_x[sine], basis.wave_x[cosine])
        block = entries[np.ix_(sine, sine)]
        image = sign[:, None] * entries[np.ix_(cosine, cosine)] * sign
        assert np.array_equal(block, image)
        assert np.array_equal(np.signbit(block), np.signbit(image))
        doubled += len(cosine)
    assert doubled > 0
    assert _twinned(matrix) == doubled


@pytest.mark.filterwarnings("ignore:basis size")
@pytest.mark.parametrize("ell,n,m", [(3, 2, 100), (4, 3, 52), (7, 6, 52)])
def test_a_sine_sector_without_all_its_cosines_is_solved_on_its_own(ell, n, m):
    # an even m ends on a sine whose cosine is not in the basis; its sector
    # has one function more than its cosine sector and counts only itself
    matrix = _fold_case(ell, n, m)
    twins = _complex_twins(matrix.basis, n)
    (open_pos,) = [sine for sine, cosine, _ in twins if cosine is None]
    assert open_pos[-1] == m - 1
    closed = sum(len(sine) for sine, cosine, _ in twins if cosine is not None)
    assert _twinned(matrix) == closed
    assert _functions(matrix) == m
    entries = matrix.entries
    dense = np.linalg.eigvalsh(entries)
    est, whole = eigen_symmetric(matrix), eigen_symmetric(entries)
    assert np.max(np.abs(est.eigenvalues - dense)) <= 1e-13 * np.max(np.abs(dense))
    assert (est.negative_count, est.uncertain_count) == (whole.negative_count, whole.uncertain_count)


def _gathered_rows(basis, n):
    """(sector, representatives, first) of each gathered sector; first[f] is the position of f's representative.

    A closed sector's representatives are the pair members whose partner
    comes later and the self-mirrors; an open sector is its own
    representatives; a complex sine sector with all its cosines is left out.
    """
    partner, _ = mirror_partners(basis)
    twins = {tuple(sine.tolist()) for sine, cosine, _ in _complex_twins(basis, n) if cosine is not None}
    rows = []
    for pos in sector_positions(basis, n):
        if tuple(pos.tolist()) not in twins:
            first = np.minimum(pos, partner[pos]) if np.all(partner[pos] >= 0) else pos
            rows.append((pos, pos[first == pos], first))
    return rows


@pytest.mark.filterwarnings("ignore:basis size")
@pytest.mark.parametrize("ell,n,m", FOLD_CASES + [(3, 2, 100), (4, 3, 52)], ids=FOLD_IDS + ["3/2@100", "4/3@52"])
def test_halves_are_the_fold_of_the_dense_sector_blocks(ell, n, m):
    # with X = A[i, j] and Y = A[i, R j] of the dense view over a sector's
    # representatives, the even half is X + Y between pair members and the
    # odd one X - Y, sqrt(2) X between a pair member and a self-mirror, X
    # between self-mirrors; an open sector is its own block.  Halves come
    # ascending in size, then by sector and parity, bit for bit, each
    # labelled with its sector, "both" for a twin, and its mirror parity
    matrix = _fold_case(ell, n, m)
    basis, a = matrix.basis, matrix.entries
    partner, sign = mirror_partners(basis)
    doubled = {tuple(cosine.tolist()) for _, cosine, _ in _complex_twins(basis, n) if cosine is not None}
    expected = []
    for number, (pos, reps, _) in enumerate(_gathered_rows(basis, n)):
        closed = np.all(partner[pos] >= 0)
        mirror = partner if closed else np.arange(m)
        pair = mirror[reps] != reps
        even, odd = reps[pair | (sign[reps] > 0) | ~closed], reps[closed & (pair | (sign[reps] < 0))]
        for parity, (mem, h) in enumerate([(even, 1.0), (odd, -1.0)]):
            if len(mem) == 0:
                continue
            x, y, one = a[np.ix_(mem, mem)], a[np.ix_(mem, mirror[mem])], mirror[mem] != mem
            fold = np.where(one[:, None] & one, x + h * y, np.where(one[:, None] == one, x, np.sqrt(2.0) * x))
            c, y_parity, phase = _label(basis, n, pos)
            phase = "both" if tuple(pos.tolist()) in doubled else phase
            label = c, y_parity, phase, ("even", "odd")[parity] if closed else "whole"
            expected.append((len(mem), 2 * number + parity, fold, label))
    expected.sort(key=lambda half: half[:2])
    got = [
        (half, label.tolist())
        for stack, labels in zip(matrix.stacks, matrix.labels)
        for half, label in zip(stack, labels)
    ]
    assert len(got) == len(expected)
    for (half, label), (k, _, fold, want) in zip(got, expected):
        assert half.shape == (k, k) and label == want
        assert half.tobytes() == fold.tobytes()


@pytest.mark.filterwarnings("ignore:basis size")
@pytest.mark.parametrize(
    "ell,n,m,pairs",
    [(3, 2, 2113, 76273), (4, 3, 2025, 91091), (3, 2, 100, None), (4, 3, 52, None), (7, 6, 52, None)],
    ids=["3/2@2113", "4/3@2025", "3/2@100", "4/3@52", "7/6@52"],
)
def test_each_row_gathers_its_sector_from_its_own_column_on(monkeypatch, ell, n, m, pairs):
    # a sector's columns run representative, partner, ... by the
    # representatives' positions, so a row's own column counts the functions
    # whose representative comes before it; the gather reads size - column
    p = catalog_surface(ell, n)
    want = sum(
        len(pos) - int(np.sum(first < row)) for pos, reps, first in _gathered_rows(enumerate_basis(lattice(p), m), n)
        for row in reps
    )
    gathered = []
    kernel = assembly_mod.gather_pairs

    def counting(fld, basis, chunks):
        for part, i, j, a in kernel(fld, basis, chunks):
            gathered.append(len(i))
            yield part, i, j, a

    monkeypatch.setattr(assembly_mod, "gather_pairs", counting)
    assemble(p, m)
    assert sum(gathered) == want
    assert pairs is None or want == pairs


def _small_memory(monkeypatch, nbytes):
    monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: nbytes)
    monkeypatch.setattr(basis_mod, "_physical_memory", lambda: nbytes)


def test_guard_admits_3_2_at_2113_in_64_mib(monkeypatch):
    # the dense rule (6 matrices of 8 m^2 bytes, 214 MB) refused this size
    _small_memory(monkeypatch, 64 * 2**20)
    assert full_report(catalog_surface(3, 2), 2113).galerkin_k == 14


def test_guard_refuses_a_block_that_does_not_fit(monkeypatch, capsys):
    # 5305 functions in at most 12 sectors gather at least 5305^2 / 96
    # pairs (9.8 MB at SECTOR_PAIR_BYTES = 28 and one 1.6 MB chunk); the 12
    # sectors of 3/2 gather 464491 (16.3 MB with the signed table and the
    # functions, the sine twins excluded): in 12 MiB (12.6 MB) the exact
    # count refuses, after enumerating
    _small_memory(monkeypatch, 12 * 2**20)
    p = catalog_surface(3, 2)
    largest = max(len(s) for s in sector_positions(enumerate_basis(lattice(p), 5305), 2))
    with pytest.raises(SystemExit) as info:
        main(["report", "--surface", "3/2", "--m", "5305"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: m = 5305 needs about")
    assert f"the largest has {largest} functions" in err


@pytest.mark.filterwarnings("ignore:basis size")
@pytest.mark.parametrize(
    "ell,n,m",
    [(3, 2, 2113), (4, 3, 2025), (3, 2, 4325), (73, 72, 7225)],
    ids=["3/2@2113", "4/3@2025", "3/2@4325", "73/72@7225"],
)
def test_guard_charges_no_less_than_the_measured_peak(monkeypatch, ell, n, m):
    # the guard refuses any memory below the tracemalloc peak of the
    # gather it guards (V sampled beforehand), and admits twice that peak;
    # at 73/72@7225 the signed table (57,117 waves, almost all off the
    # lattice) outweighs the 39,669 gathered pairs
    p = catalog_surface(ell, n)
    fld = potential_field(p, enumerate_basis(lattice(p), m), AssemblyConfig())
    monkeypatch.setattr(assembly_mod, "potential_field", lambda *args: fld)
    tracemalloc.start()
    try:
        assemble(p, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: peak - 1)
    with pytest.raises(ParameterError, match=f"m = {m} needs about"):
        assemble(p, m)
    monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: 2 * peak)
    assert _functions(assemble(p, m)) == m


@pytest.mark.filterwarnings("ignore:basis size")
@pytest.mark.parametrize(
    "ell,n,m", [(3, 2, 2113), (4, 3, 2025), (3, 2, 100), (3, 2, 181)], ids=["3/2@2113", "4/3@2025", "3/2@100", "3/2@181"]
)
@pytest.mark.parametrize("chunk", [1, 7, -1], ids=["1", "7", "widest-1"])
def test_row_chunks_gather_the_bits_of_one_gather(monkeypatch, ell, n, m, chunk):
    # chunks of one row, of a few rows, and of all rows but the widest, which
    # stands alone, give the halves (3/2@100 ends on an open sine sector) and
    # the dense entries, signed zeros included, of a single gather
    p = catalog_surface(ell, n)

    def gathered():
        matrix = assemble(p, m)
        dense = matrix.entries.tobytes() if m == 181 else None
        return [s.tobytes() for s in matrix.stacks], [labels.tolist() for labels in matrix.labels], dense

    monkeypatch.setattr(assembly_mod, "_CHUNK_PAIRS", m * m)
    whole = gathered()
    widest = max(_sector_sizes(assemble(p, m)).values())
    monkeypatch.setattr(assembly_mod, "_CHUNK_PAIRS", chunk if chunk > 0 else widest - 1)
    assert gathered() == whole
