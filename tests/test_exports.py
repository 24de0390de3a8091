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


@pytest.mark.parametrize(
    "module, name",
    [
        ("bfwave", "step"),
        ("bfwave.leapfrog", "step"),
        ("bfwave.diagnostics", "lyapunov_value"),
        ("bfwave.diagnostics", "hidden_regularity_ratio"),
    ],
)
def test_one_home_per_name(module, name):
    # the stepped wave reference lives in tests/stepped.py, the two
    # functionals in bfwave.observer alone
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("bfwave", "OscillatorState"),
        ("bfwave.observer", "OscillatorState"),
        ("bfwave.observer", "ZERO_OSC"),
        ("bfwave.grid", "_OMEGA_MAX"),
        ("bfwave.forward", "_CSV_BLOCK"),
        ("bfwave.leapfrog", "_carried_power"),
    ],
)
def test_removed_parts_stay_gone(module, name):
    # an oscillator start is any (z1, z2) pair, check_resonance is the one omega
    # bound, a measurement block is half of _G17_CELLS rows, and a power of S is
    # built from the identity
    assert not hasattr(importlib.import_module(module), name)


def test_stepped_reference_resolves():
    from stepped import step

    from bfwave.observer import hidden_regularity_ratio, lyapunov_value

    assert callable(step) and callable(hidden_regularity_ratio) and callable(lyapunov_value)
