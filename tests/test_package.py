import importlib
import pkgutil

import pytest

import curvewave as cw

MODULES = ["curvewave"] + [f"curvewave.{m.name}" for m in pkgutil.iter_modules(cw.__path__) if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # every public module states its exports in __all__, and each one is
    # defined there, so ``from <module> import *`` works; the package
    # itself has no __all__ and star-imports its public names
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None or name == "curvewave"
    assert [n for n in exported or [] if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
