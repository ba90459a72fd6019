"""Every exported name resolves, so a deleted helper cannot linger in an __all__.

Every module imports only the standard library, numpy and the package itself.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_the_standard_library_numpy_and_itself(module):
    # numpy is the one declared dependency; scipy is often installed but is not declared
    tree = ast.parse((Path(wente_index.__path__[0]) / f"{module}.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    allowed = sys.stdlib_module_names | {"numpy", "wente_index"}
    assert sorted(name for name in imported if name.split(".")[0] not in allowed) == []
