"""Every name a levygof module exports in `__all__` must exist.

A stale entry makes `from levygof import *` (or from the module) raise, so a
removal that forgets `__all__` fails here.
"""
import importlib
import pkgutil

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
