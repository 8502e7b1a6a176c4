"""Package-wide checks of the public interface."""

import importlib
import pkgutil

import pytest

import fracctrl

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
