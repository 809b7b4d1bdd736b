"""The package's public surface: pinvtte.__all__ re-exports exactly what the
library modules export, so a deletion cannot leave a stale name behind."""

from __future__ import annotations

import importlib
import pkgutil

import pinvtte

# the CLI module exports only its entry point, which the package does not
# re-export
LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pinvtte.__path__) if info.name != "cli"
)


def test_all_is_union_of_module_exports():
    union = {"__version__"}
    for name in LIBRARY_MODULES:
        union |= set(importlib.import_module(f"pinvtte.{name}").__all__)
    assert len(pinvtte.__all__) == len(set(pinvtte.__all__))
    assert set(pinvtte.__all__) == union


def test_every_export_imports():
    namespace: dict = {}
    exec("from pinvtte import *", namespace)
    assert [name for name in pinvtte.__all__ if name not in namespace] == []
    for modname in LIBRARY_MODULES:
        mod = importlib.import_module(f"pinvtte.{modname}")
        for name in mod.__all__:
            assert namespace[name] is getattr(mod, name), f"{modname}.{name}"
