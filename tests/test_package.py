"""Package-wide checks of the public interface and of the test suite's
layout."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import fracctrl
from support import imported_modules

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracctrl.__path__))


def test_modules_found():
    assert {"cli", "control", "diagnostics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a name left in __all__ after its definition was deleted breaks
    # `from fracctrl.<module> import *`
    module = importlib.import_module(f"fracctrl.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if
               not hasattr(module, n)]
    assert missing == []


def test_no_test_module_imports_another():
    # a test module that imports another fails to collect with it: shared
    # test code lives in tests/support.py
    found = [(path.name, name)
             for path in sorted(Path(__file__).parent.glob("*.py"))
             for name in imported_modules(path) if name.startswith("test_")]
    assert found == []
