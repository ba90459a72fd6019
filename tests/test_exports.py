"""Every exported name resolves, so a deleted helper cannot linger in an __all__.

Every module-level name is read somewhere in the package or exported, so a
dead helper cannot linger either.

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


def test_every_module_level_name_is_loaded_or_exported():
    # a function, class or assigned name that no code in the package reads and no __all__ lists is dead
    defined, loaded, exported = set(), set(), set()
    for path in sorted(Path(wente_index.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = {t.id for t in ast.walk(node) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
                defined |= names
                if "__all__" in names:
                    exported |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                loaded |= {alias.name.rpartition(".")[2] for alias in node.names}
    assert sorted(defined - loaded - exported - {"__all__"}) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_the_standard_library_numpy_and_itself(module):
    # numpy is the one declared dependency; scipy is often installed but is not declared
    tree = ast.parse((Path(wente_index.__path__[0]) / f"{module}.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    allowed = sys.stdlib_module_names | {"numpy", "wente_index"}
    assert sorted(name for name in imported if name.split(".")[0] not in allowed) == []
