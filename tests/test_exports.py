import ast
import functools
import importlib
import pkgutil
from pathlib import Path

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
        ("bfwave.observer", "oscillator_drive"),
        ("bfwave.leapfrog", "reversed_state"),
        ("bfwave.leapfrog", "_held_bytes"),
        ("bfwave.leapfrog", "_content"),
        ("bfwave.observer", "_state_vector"),
        ("bfwave.observer", "run_plant_cycle"),
        ("bfwave.observer", "CascadeResult"),
        ("bfwave.observer", "_power_rows"),
        ("bfwave", "LeapfrogState"),
        ("bfwave.leapfrog", "LeapfrogState"),
        ("bfwave.leapfrog", "continuation_level"),
    ],
)
def test_removed_parts_stay_gone(module, name):
    # an oscillator start is any (z1, z2) pair, check_resonance is the one omega
    # bound, a measurement block is half of _G17_CELLS rows, and a power of S is
    # built from the identity; the oscillator runs only inside the cascade (the
    # tests drive it alone through tests/two_stage.py), the one turn is
    # leapfrog._turned_wave, the kept store counts its bytes as they come and go
    # and makes its own keys, the observer step advances velocity-basis states,
    # which need no encoding, the one cascade run returns the truth cycle itself,
    # the monitor's power rows are a free block plan (leapfrog._block_plan), and
    # the one wave state is the velocity-basis vector, whose level pair
    # leapfrog._from_velocity_basis gives as plain arrays
    assert not hasattr(importlib.import_module(module), name)


@functools.lru_cache(maxsize=1)
def _package_uses() -> frozenset[str]:
    """Every name the package's code reads, as a Name or an attribute.

    Import lines and export lists hold no Name, and a top-level statement
    that defines a name does not count its own uses of it, so a name counts
    only where other code uses it.
    """
    used = set()
    for path in Path(bfwave.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = {getattr(stmt, "name", None)}
            if isinstance(stmt, ast.Assign):
                own |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    used.add(name)
    return frozenset(used)


@pytest.mark.parametrize("name", MODULES)
def test_listed_names_are_used_by_the_package(name):
    # a public name that only tests or scripts use belongs with them
    unused = [n for n in importlib.import_module(name).__all__ if n not in _package_uses()]
    assert not unused, f"{name}.__all__ lists names no package code uses: {unused}"


def test_stepped_reference_resolves():
    from stepped import step

    from bfwave.observer import hidden_regularity_ratio, lyapunov_value

    assert callable(step) and callable(hidden_regularity_ratio) and callable(lyapunov_value)


def _package_trees() -> dict[str, ast.Module]:
    """Every module of the package, parsed, by its name."""
    paths = Path(bfwave.__file__).parent.glob("*.py")
    return {path.stem: ast.parse(path.read_text()) for path in paths}


def _is_functools(node: ast.AST, name: str) -> bool:
    """Whether node reads functools.<name>, or name as imported from functools."""
    if isinstance(node, ast.Attribute):
        return node.attr == name and getattr(node.value, "id", None) == "functools"
    return getattr(node, "id", None) == name or isinstance(node, ast.alias) and node.name == name


def test_no_lru_cache_in_the_package():
    # the set-up a process keeps (one-step parts, plans, powers) lives in
    # leapfrog's one store, bounded by its bytes, not in caches of their own
    uses = [
        f"{module}:{node.lineno}"
        for module, tree in _package_trees().items()
        for node in ast.walk(tree)
        if _is_functools(node, "lru_cache")
    ]
    assert not uses, uses


def test_cache_only_on_builders_of_no_arguments():
    # functools.cache keeps an item per argument tuple, unbounded and outside the
    # store: only a builder that takes no arguments, and so keeps one item, uses it
    cached, uses = {}, 0
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            uses += _is_functools(node, "cache")
            if isinstance(node, ast.FunctionDef) and any(
                _is_functools(d, "cache") for d in node.decorator_list
            ):
                a = node.args
                cached[module, node.name] = [*a.posonlyargs, *a.args, *a.kwonlyargs]
                cached[module, node.name] += [p for p in (a.vararg, a.kwarg) if p]
    assert sorted(cached) == [("cli", "_parser"), ("forward", "_g17_tables")]
    assert not any(cached.values()), cached
    assert uses == len(cached)  # a decorator each, no functools.cache(build) elsewhere
