"""Every exported name resolves: each module's ``__all__`` and every name the
package ``__init__`` imports; and every name of an ``__all__`` is read by
library code, unless it is kept on purpose."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


# Exported names that no other library code reads, kept on purpose.
READ_ONLY_BY_USERS = {
    "generate": "the lab's field generator entry point",
    "WeightGenerator": "the lab's field generator specification",
    "maximizing_vector_bound": "the inequality of acceptance criterion 2c",
    "martingale_square_check": "the stopped martingale square bound of acceptance criterion 2d",
    "reconstruct": "the inverse of haar_decompose in the Haar demo's identities",
    "subtree_parseval_residual": "the subtree Parseval identity of the Haar demo",
}


def test_every_export_has_a_library_reader():
    # A public name that only tests read belongs in tests/conftest.py, not in
    # the package.
    read = set()
    for path in Path(dwlab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"dwlab.{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"dwlab.{name}"), "__all__", ())
        if attr not in read and attr not in READ_ONLY_BY_USERS
    ]
    assert not unread, f"exported but read by no library module: {unread}"
    stale = sorted(READ_ONLY_BY_USERS.keys() & read)
    assert not stale, f"kept as unread, but a library module reads them: {stale}"
