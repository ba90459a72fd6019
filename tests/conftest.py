import numpy as np
import pytest

from wente_index import catalog_surface, lattice, sample_potential
from wente_index.assembly import AssemblyConfig


@pytest.fixture(scope="session")
def w32():
    return catalog_surface(3, 2)


@pytest.fixture(scope="session")
def w43():
    return catalog_surface(4, 3)


@pytest.fixture(scope="session")
def w76():
    return catalog_surface(7, 6)


@pytest.fixture(scope="session")
def w32_field(w32):
    return sample_potential(w32, 64, 64, pmax=31, qmax=31)


@pytest.fixture(scope="session")
def w43_field(w43):
    return sample_potential(w43, 64, 64, pmax=31, qmax=31)


@pytest.fixture(scope="session")
def fast_cfg():
    """Assembly on the default cell grid, written out."""
    return AssemblyConfig(nx=256, ny=256)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
