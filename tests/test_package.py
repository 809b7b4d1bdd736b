"""The package's public surface: pinvtte.__all__ re-exports exactly what the
library modules export, so a deletion cannot leave a stale name behind, and
no public function takes a graph or a model beside a lift that already holds
it."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

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


def _annotated_types(hint) -> set:
    """hint and, for a union or generic such as ClusterStats | None, its
    arguments."""
    return {hint, *typing.get_args(hint)}


def _functions_taking(*kinds) -> list[str]:
    """Public functions with a parameter of each of the given types."""
    found = []
    for name in pinvtte.__all__:
        fn = getattr(pinvtte, name)
        if not inspect.isfunction(fn):
            continue
        hints = typing.get_type_hints(fn)
        hints.pop("return", None)
        types = set().union(*map(_annotated_types, hints.values()))
        if all(types & kind for kind in kinds):
            found.append(name)
    return found


def test_no_function_takes_a_graph_beside_its_lift():
    lifts = {pinvtte.ClusterStats, pinvtte.ClusterAggregatedModel}
    assert _functions_taking({pinvtte.InterferenceGraph}, lifts) == []


def test_no_function_takes_a_model_beside_its_lift():
    lift = {pinvtte.ClusterAggregatedModel}
    assert _functions_taking({pinvtte.LowOrderModel}, lift) == []
