"""A process imports only what it runs.  Importing the package imports
none of its modules: each public name, and each submodule, is resolved
the first time it is read.  A module loads only the modules it imports,
and the command line loads the law suites and the generators only for
the commands that run suites or draw instances."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthoql

# The submodules that ``import orthoql`` has always exposed as attributes.
SUBMODULES = (
    "errors",
    "generators",
    "kernel",
    "laws",
    "linalg",
    "ortho",
    "partial_op",
    "quotient",
    "scalars",
    "subspace",
)


def fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports the
    package from this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'orthoql'))"


def test_importing_the_subspaces_loads_only_what_they_need():
    loaded = fresh(f"import sys, orthoql.subspace; {LOADED}").split()
    assert loaded == [
        "orthoql",
        "orthoql.errors",
        "orthoql.kernel",
        "orthoql.linalg",
        "orthoql.scalars",
        "orthoql.subspace",
    ]


def test_an_op_command_loads_no_law_suite_and_no_generator(tmp_path):
    path = tmp_path / "instances.json"
    document = {
        "field": "Q",
        "ambient_dim": 2,
        "subspaces": {"A": {"basis": [["1", "0"]]}, "B": {"basis": [["1", "1"]]}},
    }
    path.write_text(json.dumps(document))
    code = (
        "import contextlib, io, sys, orthoql.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert orthoql.cli.main(['op', '--file', {str(path)!r}, 'meet', 'A', 'B']) == 0\n"
        + LOADED
    )
    loaded = fresh(code).split()
    assert "orthoql.cli" in loaded and "orthoql.subspace" in loaded
    assert "orthoql.laws" not in loaded and "orthoql.generators" not in loaded


def test_every_name_resolves_to_its_home_modules_object():
    # Each name is read through the package before its home module is
    # imported directly; its home is the submodule whose __all__ lists it.
    code = f"""
import importlib, json, orthoql
names = list(orthoql.__all__) + {list(SUBMODULES)!r}
read = {{name: getattr(orthoql, name) for name in names}}
bad = []
for sub in {list(SUBMODULES)!r}:
    module = importlib.import_module("orthoql." + sub)
    if read[sub] is not module:
        bad.append(sub)
    for name in getattr(module, "__all__", ()):
        if name in orthoql.__all__ and read[name] is not getattr(module, name):
            bad.append(name)
homed = {{n for s in {list(SUBMODULES)!r} for n in importlib.import_module("orthoql." + s).__all__}}
print(json.dumps([bad, sorted(set(orthoql.__all__) - homed)]))
"""
    assert json.loads(fresh(code)) == [[], []]


def test_dir_lists_every_name_and_star_import_binds_them():
    assert set(orthoql.__all__) | set(SUBMODULES) <= set(dir(orthoql))
    namespace = {}
    exec("from orthoql import *", namespace)
    assert all(namespace[name] is getattr(orthoql, name) for name in orthoql.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as caught:
        orthoql.x
    assert str(caught.value) == "module 'orthoql' has no attribute 'x'"
    # The benchmark's run record reads this optional attribute.
    assert getattr(orthoql, "BACKEND", None) is None
