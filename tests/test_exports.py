"""Every name in a module's __all__ exists, so a removed name cannot linger there."""

import importlib
import pkgutil

import pytest

import hypermatch

MODULES = sorted(f"hypermatch.{info.name}" for info in pkgutil.iter_modules(hypermatch.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", ()):
        getattr(mod, export)
