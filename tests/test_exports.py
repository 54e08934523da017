"""Every name a module of the package exports must exist: the tracer in
perfbench/ calls getattr on each ``__all__`` entry, and so does
``from orthoql.<module> import *``."""

import importlib
import pkgutil

import pytest

import orthoql

# __main__ runs the command line on import, and exports nothing.
MODULES = ["orthoql"] + [
    f"orthoql.{info.name}" for info in pkgutil.iter_modules(orthoql.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
