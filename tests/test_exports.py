"""Every exported name resolves, so a deleted helper cannot linger in an __all__."""

import importlib
import pkgutil

import pytest

import wente_index

MODULES = sorted(info.name for info in pkgutil.iter_modules(wente_index.__path__))


def test_package_exports_resolve():
    assert [name for name in wente_index.__all__ if not hasattr(wente_index, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve_and_star_import_works(module):
    mod = importlib.import_module(f"wente_index.{module}")
    exported = getattr(mod, "__all__", ())  # the CLI module declares none
    assert [name for name in exported if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from wente_index.{module} import *", namespace)
    assert set(exported) <= set(namespace)
