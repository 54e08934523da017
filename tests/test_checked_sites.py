"""Where the package still builds through a checked constructor.

The public ``Matrix``, ``Vector`` and ``Matrix.from_rows`` coerce every
entry; a result whose entries are already exact scalars of its field is
built with ``Matrix._of``/``Vector._of`` instead.  This pins, by call
site, every checked construction left inside the package, so that a
re-check that creeps back in fails here without a timing run, and a site
that moves to ``Matrix._of``/``Vector._of`` must leave this list with it."""

import ast
from collections import Counter
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "orthoql"
CHECKED = {"Matrix", "Vector"}

# The one boundary entry point: spanning rows handed to the public
# ``Subspace`` as lists or vectors.
BOUNDARY = {"subspace.Subspace.__init__": 1}

# Lattice sites whose entries are already exact but are still coerced:
# ``rref``'s canonical basis, the stacked and joined bases, ``_meet``'s
# coefficient rows, the one-row matrix of ``contains`` and ``Matrix.row``.
# They wait on ROADMAP item 1, since a faster lattice-q6 pass grows that
# workload's sample buffer and so its ``peak_rss_mb``.
LATTICE = {
    "linalg.rref": 1,
    "subspace._stacked": 1,
    "subspace.Subspace._join": 1,
    "subspace.Subspace._meet": 1,
    "subspace.Subspace.contains": 1,
    "linalg.Matrix.row": 1,
}


def checked_calls(source: str) -> Counter:
    """The calls in ``source`` of ``Matrix(…)``, ``Vector(…)`` or
    ``<anything>.from_rows(…)``, counted by the qualified name of the
    function they are in; code outside any function is ``<module>``."""
    calls = Counter()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope != "<module>" else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in CHECKED) or (
                isinstance(func, ast.Attribute) and func.attr == "from_rows"
            ):
                calls[scope] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return calls


def test_the_checked_construction_sites_are_the_listed_ones():
    sites = Counter()
    for path in sorted(SOURCES.glob("*.py")):
        for scope, count in checked_calls(path.read_text()).items():
            sites[f"{path.stem}.{scope}"] += count
    assert sites == Counter(BOUNDARY) + Counter(LATTICE)


def test_the_check_sees_every_checked_call():
    cases = {
        "def f(a):\n    return Matrix(a.field, 1, 1, [1])": {"f": 1},
        "def f(a):\n    return Vector(a.field, [1]), Vector(a.field, [2])": {"f": 2},
        "def f(a):\n    return Matrix.from_rows(a.field, [[1]])": {"f": 1},
        "def f(a):\n    return linalg.Matrix.from_rows(a.field, [[1]])": {"f": 1},
        "class A:\n    def f(self):\n        return Vector(self.field, [])": {"A.f": 1},
        "def f():\n    def g(x):\n        return Matrix(x, 0, 0, [])\n    return g": {"f.g": 1},
        "m = Matrix(Field.Q, 0, 0, [])": {"<module>": 1},
        "def f(a):\n    return Matrix._of(a.field, 1, 1, [a])": {},
        "def f(a):\n    return Vector._of(a.field, [a])": {},
        "def f(a):\n    return Subspace(a.field, 2, a)": {},
    }
    for source, want in cases.items():
        assert checked_calls(source) == Counter(want), source
