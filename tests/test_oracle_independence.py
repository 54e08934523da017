"""The oracle stays independent of the package: ``tests/oracle.py``
imports nothing from ``orthoql`` and nothing from the shared test
plumbing in ``conftest``, so no helper is shared with the code it checks."""

import ast
from pathlib import Path

FORBIDDEN = ("orthoql", "conftest")


def forbidden_imports(source: str) -> list[str]:
    """The modules named anywhere in ``source`` by an ``import``
    statement or an ``__import__`` / ``import_module`` call that are
    relative or lie under a forbidden top-level name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # A relative import reaches the test package's neighbours.
            names = [node.module or "."] if node.level == 0 else ["." * node.level]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called not in ("__import__", "import_module"):
                continue
            names = [str(node.args[0].value)]
        else:
            continue
        found += [n for n in names if n.startswith(".") or n.split(".")[0] in FORBIDDEN]
    return found


def test_the_oracle_imports_nothing_from_the_package():
    source = (Path(__file__).parent / "oracle.py").read_text()
    assert forbidden_imports(source) == []


def test_the_import_check_sees_every_form():
    for line in (
        "import orthoql",
        "import orthoql.linalg as la",
        "from orthoql import linalg",
        "from orthoql.scalars import Field",
        "from conftest import to_vec",
        "import conftest",
        "from . import conftest",
        "def f():\n    from orthoql.kernel import rref_gauss",
        "mod = __import__('orthoql.linalg')",
        "import importlib\nm = importlib.import_module('conftest')",
    ):
        assert forbidden_imports(line), line
    allowed = "from fractions import Fraction\nimport itertools\nfrom typing import Optional"
    assert forbidden_imports(allowed) == []
