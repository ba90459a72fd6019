"""The Jacobi fields of the translations, from the closed form of the surface alone.

phi = 4 artanh(f g), with f = gamma cn_k(alpha x) and g = gamma_bar
cn_kbar(alpha_bar y), solves the sinh-Gordon equation
Delta phi + 4 H sinh phi = 0, and V = 4 H cosh phi.  Differentiating it
in x and in y, -Laplacian - V annihilates d phi / dx and d phi / dy, two
fields periodic on the lattice for every theta and H (Pinkall & Sterling,
Ann. Math. 130, 1989).  Their coefficients on the basis come from one FFT
of phi on the lattice rectangle and share no code with assembly, so A_m
must hold them ever closer to its kernel as m grows; a wrong norm, area,
coefficient or sector key in the gather breaks that.
"""

import numpy as np
import pytest

from wente_index.assembly import assemble, mirror_partners
from wente_index.basis import enumerate_basis
from wente_index.elliptic import jacobi_cn
from wente_index.surface import CATALOG, catalog_surface, lattice


def _phi(p, x, y):
    f = p.gamma * jacobi_cn(x * p.alpha, p.k)
    g = p.gamma_bar * jacobi_cn(y * p.alpha_bar, p.k_bar)
    return 4.0 * np.arctanh(f * g)


def _laplacian(p, x, y, h):
    """The five-point centred difference of phi at spacing h."""
    around = _phi(p, x + h, y) + _phi(p, x - h, y) + _phi(p, x, y + h) + _phi(p, x, y - h)
    return (around - 4.0 * _phi(p, x, y)) / (h * h)


@pytest.mark.parametrize("ell,n", [(ell, n) for ell, n, _ in CATALOG], ids=[f"{ell}/{n}" for ell, n, _ in CATALOG])
def test_phi_solves_sinh_gordon(ell, n, rng):
    # the residual of the difference Laplacian is its h^2 error: it falls
    # fourfold per halving of h, and Richardson's extrapolation removes it
    # to below 1e-7 of |Delta phi|; 4 H replaced by 4.04 H leaves 1e-2 of it
    p = catalog_surface(ell, n)
    x, y = rng.uniform(0.0, p.x_period, 20), rng.uniform(0.0, p.y_period, 20)
    source = 4.0 * p.H * np.sinh(_phi(p, x, y))
    h = 1e-3
    coarse = np.max(np.abs(_laplacian(p, x, y, h) + source))
    fine_laplacian = _laplacian(p, x, y, h / 2)
    fine = np.max(np.abs(fine_laplacian + source))
    assert 3.5 < coarse / fine < 4.5
    extrapolated = (4.0 * (fine_laplacian + source) - (_laplacian(p, x, y, h) + source)) / 3.0
    assert np.max(np.abs(extrapolated)) <= 1e-7 * np.max(np.abs(fine_laplacian))


# odd-parity sizes from the default to the large-m ladder, and the even-parity ones of 4/3
KERNEL_CASES = {"3/2": (181, 1013, 2113), "4/3": (81, 1089, 2025), "7/6": (145, 1013, 2113)}
# samples of phi over the lattice rectangle; the coefficients of the derivatives decay to rounding well inside
SAMPLES = (1024, 512)


def _translation_fields(p, basis):
    """Coefficients of d phi / dx and d phi / dy on the basis, and the square of their L2 norms on the torus.

    With F the FFT of phi on the rectangle over its sample count, the
    derivative in x has F_x = i kx F, and the torus integral of a lattice-
    periodic field against cos (sin) of wave (a, b) is cell_area times
    Re F_x[a, b] (-Im F_x[a, b]).
    """
    lat, (nx, ny) = lattice(p), SAMPLES
    x, y = np.arange(nx) * (lat.width / nx), np.arange(ny) * (lat.height / ny)
    spectrum = np.fft.fft2(_phi(p, x[:, None], y[None, :])) / (nx * ny)
    kx = 2.0 * np.pi * np.fft.fftfreq(nx, 1.0 / nx) / lat.width
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, 1.0 / ny) / lat.height
    fields = []
    for derivative in (1j * kx[:, None] * spectrum, 1j * ky[None, :] * spectrum):
        at = derivative[basis.wave_x % nx, basis.wave_y % ny]
        coeffs = basis.norm * lat.cell_area * np.where(basis.sine, -at.imag, at.real)
        fields.append((coeffs, lat.cell_area * np.sum(np.abs(derivative) ** 2)))
    return fields


@pytest.mark.parametrize("label", KERNEL_CASES)
def test_translation_fields_are_kernel_vectors_of_a_m(label):
    p = catalog_surface(*map(int, label.split("/")))
    quotients = []
    for m in KERNEL_CASES[label]:
        basis = enumerate_basis(lattice(p), m)
        partner, sign = mirror_partners(basis)
        # both fields are odd powers of f g differentiated once: sines of
        # class wave_x = n (mod 2n) with wave_y odd, one sector of A_m
        support = (basis.wave_x % (2 * p.n) == p.n) & (basis.wave_y % 2 == 1) & basis.sine
        entries = assemble(p, m).entries
        row = []
        for (coeffs, norm2), parity in zip(_translation_fields(p, basis), (1.0, -1.0)):
            length = np.sqrt(coeffs @ coeffs)
            assert np.max(np.abs(coeffs[~support])) <= 1e-14 * length
            # d phi / dx is even under the mirror (x, y) -> (x, -y), d phi / dy odd
            assert np.max(np.abs(sign * coeffs[partner] - parity * coeffs)) <= 1e-14 * length
            captured = (coeffs @ coeffs) / norm2
            assert captured <= 1.0 + 1e-12
            if m >= 1013:
                assert captured >= 0.9997
            row.append(coeffs @ entries @ coeffs / (coeffs @ coeffs))
        quotients.append(row)
    # the Rayleigh quotients fall with m toward the kernel; a b_ij scaled by
    # 1.02 leaves them between -0.06 and -0.33
    quotients = np.abs(quotients)
    assert np.all(np.diff(quotients, axis=0) < 0.0)
    assert np.all(quotients[-1] < 1e-3)
