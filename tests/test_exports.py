"""Every name a module of the package exports must exist: the tracer in
perfbench/ calls getattr on each ``__all__`` entry, and so does
``from orthoql.<module> import *``.  Every per-layer metric that
perfbench/layers.py names must still be traced, or it would read 0
unnoticed once its function is gone."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import orthoql
from orthoql.subspace import Subspace

# __main__ runs the command line on import, and exports nothing.
MODULES = ["orthoql"] + [
    f"orthoql.{info.name}" for info in pkgutil.iter_modules(orthoql.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# Per-layer names that a benchmark change drops, with the functions they
# traced: until then their metrics read 0.
RETIRED = {"linalg.solve", "linalg.gram_projection"}

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literals(filename, *names):
    """The values of the top-level literal assignments ``names`` in a
    perfbench file, read from its source without importing it."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    found = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names
    }
    return [found[name] for name in names]


def _traced_names():
    """Every span name the perfbench tracer can record today: the
    exported functions of its span modules, its extra functions and its
    method spans, each only if it still resolves."""
    span_modules, extra, methods = _literals(
        "tracer.py", "SPAN_MODULES", "EXTRA_FUNCTIONS", "METHOD_SPANS"
    )
    names = set()
    for layer in span_modules:
        module = importlib.import_module(f"orthoql.{layer}")
        names |= {f"{layer}.{f}" for f in module.__all__ if inspect.isfunction(getattr(module, f))}
    for (modname, fname), name in extra.items():
        if hasattr(importlib.import_module(modname), fname):
            names.add(name)
    for (modname, cname, attr), name in methods.items():
        if attr in vars(getattr(importlib.import_module(modname), cname)):
            names.add(name)
    return names


def test_every_method_span_resolves():
    # The tracer reads cls.__dict__[attr] and wraps a property's getter.
    (methods,) = _literals("tracer.py", "METHOD_SPANS")
    for modname, cname, attr in methods:
        assert attr in vars(getattr(importlib.import_module(modname), cname)), (cname, attr)
    assert isinstance(vars(Subspace)["projector"], property)
    assert inspect.isfunction(vars(Subspace)["distance_sq"])


def test_every_per_layer_name_is_traced_or_retired():
    calls_and_self, self_only, hit_ratios = _literals(
        "layers.py", "CALLS_AND_SELF", "SELF_ONLY", "HIT_RATIOS"
    )
    traced = _traced_names()
    untraced = {n for n in calls_and_self + self_only + hit_ratios if n not in traced}
    assert untraced - RETIRED == set()
