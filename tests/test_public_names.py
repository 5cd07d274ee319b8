"""Every name a levygof module exports in `__all__` must exist, and the
private names one module imports from another are a fixed set.

A stale entry makes `from levygof import *` (or from the module) raise, so a
removal that forgets `__all__` fails here. A new private import between
modules fails `test_private_cross_module_imports` until the set is edited.
"""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import levygof

MODULES = ["levygof"] + [f"levygof.{m.name}" for m in pkgutil.iter_modules(levygof.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)  # noqa: S102
    assert set(module.__all__) <= set(namespace)


# (importing module, module imported from, private name)
PRIVATE_IMPORTS = {
    ("distributions", "condmoments", "_check_scale"),
    ("distributions", "condmoments", "_erfcinv"),
    ("cli", "montecarlo", "_check_diagnostic"),
    ("cli", "montecarlo", "_check_level"),
}


def test_private_cross_module_imports():
    found = set()
    for path in Path(levygof.__path__[0]).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found |= {(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS
