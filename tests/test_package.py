"""Package layout: each shared helper has exactly one definition."""

import importlib
import pkgutil

import adqc


def test_shared_public_names_are_one_object():
    """A public module-level name bound in more than one adqc module is the
    same object everywhere: a second definition of a shared constant or
    helper (rather than an import of the first) fails."""
    modules = [adqc] + [importlib.import_module(f"adqc.{m.name}") for m in pkgutil.iter_modules(adqc.__path__)]
    bound: dict[str, dict[int, list[str]]] = {}
    for module in modules:
        for name, value in vars(module).items():
            if not name.startswith("_"):
                bound.setdefault(name, {}).setdefault(id(value), []).append(module.__name__)
    copies = {name: sorted(where.values()) for name, where in bound.items() if len(where) > 1}
    assert copies == {}
