import importlib
import pkgutil

import pytest

import bfwave

# the command-line module is an entry point and lists no public names
MODULES = ["bfwave"] + [
    f"bfwave.{m.name}" for m in pkgutil.iter_modules(bfwave.__path__) if m.name != "cli"
]


@pytest.mark.parametrize("name", MODULES)
def test_listed_names_resolve(name):
    # a name removed from a module but still listed in __all__ fails here
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
