"""One module owns the integer form of exact scalars.  Outside
``scalars.py``, only ``linalg._form`` reads a scalar's parts
(``numerator``, ``denominator``, ``_a``, ``_b``, ``_d``), and only
``linalg._scalars`` turns ints back into Gaussian rationals through
``_gaussian``.  Products, row reduction and operator images all go
through those two, so the layout of a scalar as ints is decided once."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "orthoql"
PARTS = {"numerator", "denominator", "_a", "_b", "_d"}
BUILDER = "_gaussian"


def uses(source: str) -> tuple[set[str], set[str]]:
    """The qualified names of the functions in ``source`` that read a
    scalar part (as an attribute or through ``getattr``) and of those
    that name ``_gaussian``; code outside any function is ``<module>``."""
    readers, builders = set(), set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope != "<module>" else node.name
        if isinstance(node, ast.Attribute):
            if node.attr in PARTS:
                readers.add(scope)
            if node.attr == BUILDER:
                builders.add(scope)
        elif isinstance(node, ast.Name) and node.id == BUILDER:
            builders.add(scope)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in PARTS
        ):
            readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return readers, builders


def test_only_linalg_form_reads_parts_and_only_linalg_scalars_builds():
    readers, builders = set(), set()
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "scalars.py":
            continue
        read, built = uses(path.read_text())
        readers |= {f"{path.stem}.{name}" for name in read}
        builders |= {f"{path.stem}.{name}" for name in built}
    assert readers == {"linalg._form"}
    assert builders == {"linalg._scalars"}


def test_the_check_sees_every_form():
    cases = {
        "def f(x):\n    return x.numerator": ({"f"}, set()),
        "def f(x):\n    return getattr(x, '_d')": ({"f"}, set()),
        "class A:\n    def f(self, x):\n        return x._a + x._b": ({"A.f"}, set()),
        "def f():\n    def g(x):\n        return x.denominator\n    return g": ({"f.g"}, set()),
        "y = z._d": ({"<module>"}, set()),
        "def f():\n    return _gaussian(1, 0, 1)": (set(), {"f"}),
        "def f():\n    return scalars._gaussian(1, 0, 1)": (set(), {"f"}),
        "def f(xs):\n    return list(map(_gaussian, xs, xs, xs))": (set(), {"f"}),
    }
    for source, want in cases.items():
        assert uses(source) == want, source
    allowed = "from orthoql.scalars import _gaussian\n\ndef f(x):\n    return x.re + x.im"
    assert uses(allowed) == (set(), set())


# --- each subspace clears its basis once --------------------------------------

def basis_clearings(source: str) -> int:
    """The calls in ``source`` that hand ``_form`` the entries of some
    object's ``basis`` (``x.basis.entries``, for any expression ``x``)."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "_form":
            continue
        count += sum(
            isinstance(arg, ast.Attribute)
            and arg.attr == "entries"
            and isinstance(arg.value, ast.Attribute)
            and arg.value.attr == "basis"
            for arg in node.args
        )
    return count


def test_only_subspace_clears_a_basis():
    # ``Subspace._basis_form`` keeps the integer form of its canonical
    # basis; every other reader takes it from there.
    clearings = {
        path.name: basis_clearings(path.read_text()) for path in sorted(SOURCES.glob("*.py"))
    }
    assert clearings.pop("subspace.py") == 1
    assert all(count == 0 for count in clearings.values()), clearings


def test_the_basis_check_sees_every_form():
    cases = {
        "_form(field, dom.basis.entries)": 1,
        "_form(f, p.dom.basis.entries)": 1,
        "linalg._form(f, q.dom.meet(r).basis.entries)": 1,
        "_form(f, basis.entries)": 0,
        "_form(f, dom.basis)": 0,
        "_form(f, images.entries)": 0,
        "rref(dom.basis.entries)": 0,
    }
    for source, want in cases.items():
        assert basis_clearings(source) == want, source
