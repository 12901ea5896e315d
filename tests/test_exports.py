"""Every exported name resolves: each module's ``__all__`` and every name the
package ``__init__`` imports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import dwlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(dwlab.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dwlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"dwlab.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(dwlab))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"dwlab.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"dwlab.{node.module}.{alias.name}"
            assert hasattr(dwlab, alias.asname or alias.name)
