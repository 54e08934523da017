"""Only reachable code in ``src/``: every function and method of the
package is entered by a fixed set of commands, or is on a short list.

The commands run in this process under ``sys.setprofile``, which sees
every Python function a call enters, nested functions and generators
included.  They are a fresh import of every module, every ``op`` on
subspaces and on pairs, ``project``, ``quotient`` and ``roundtrip`` from
a file and drawn, each in both output formats, ``check --laws all`` on a
``Q`` file, on a ``Q(i)`` file, drawn over ``Q`` and, through
``cmd_check``, drawn over ``Q(i)``, a few malformed inputs, and the
README's session and transcripts.  A function that none of them enters
fails the gate unless it is a protocol dunder, a name the benchmark
traces, or on one of the two lists below, so code that a change leaves
unreachable fails in that change."""

import ast
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

import test_partial_op
import test_readme
from orthoql import cli
from orthoql.scalars import Field
from test_exports import _literals
from test_mutants import MUTANTS, _swap
from test_violation_paths import FILES

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "orthoql"
README = (ROOT / "README.md").read_text(encoding="utf-8")

# Library API that no command reaches, kept because the README documents
# it, by the name the README uses.  Each entry must be named there and
# must still be unreached: one that a command reaches leaves this list.
DOCUMENTED = {
    # The checked constructors and scaling of the public matrix types.
    "linalg.Matrix.from_rows": "Matrix.from_rows",
    "linalg.Matrix.zero": "Matrix.zero",
    "linalg.Matrix.scaled": "scaled",
    "linalg.Vector.scaled": "scaled",
    # Connectives and projections of complemented quantum logic.
    "ortho.o_iff": "o_iff",
    "ortho.o_not": "o_not",
    "partial_op.identity_on": "identity_on",
    "partial_op.total_identity": "total_identity",
    "partial_op.proj_minus": "proj_minus",
    "partial_op.proj_implies": "proj_implies",
    "partial_op.proj_iff": "proj_iff",
    "partial_op.proj_not": "proj_not",
    "partial_op.proj_leq": "proj_leq",
    "partial_op.proj_orthogonal": "proj_orthogonal",
    # A partial projection has norm one exactly when its fixed part is nonzero.
    "partial_op.norm_sq_is_one": "norm_sq_is_one",
    # The squared norm of the quotient's classes.
    "quotient.QuotientSpace.q_norm_sq": "q_norm_sq",
}

# Paths that only a failing law, or a verdict nobody reports, reaches;
# ``violation_drivers`` below runs the tests that drive them.
VIOLATION_PATHS = {
    "partial_op.op_eq_witness",
    "partial_op.check_order.<locals>.sample",
    "partial_op.commuting_calculus.<locals>.detail",
}


def traced_by_the_benchmark() -> set:
    """The functions and methods that perfbench/tracer.py patches by
    name, and those that a perfbench/layers.py metric names, read from
    their source.  A metric of an unreached function would read 0."""
    methods, extra, ops, counters = _literals(
        "tracer.py", "METHOD_SPANS", "EXTRA_FUNCTIONS", "GAUSSIAN_OPS", "METHOD_COUNTERS"
    )
    names = {f"{m.split('.')[-1]}.{c}.{a}" for m, c, a in [*methods, *counters]}
    names |= {f"{m.split('.')[-1]}.{f}" for m, f in extra}
    names |= {f"scalars.GaussianRational.{op}" for op in ops}
    for group in _literals("layers.py", "CALLS_AND_SELF", "SELF_ONLY", "HIT_RATIOS"):
        names |= set(group)
    return names


def protocol(name: str) -> bool:
    """Whether ``name`` is a dunder that the language calls on a caller's
    behalf (a module's ``__dir__``, a class's ``__hash__``, ...); a
    constructor is not one, so a class nothing builds still fails."""
    last = name.rsplit(".", 1)[-1]
    return last.startswith("__") and last.endswith("__") and last not in ("__init__", "__new__")


# --- what the package defines ---------------------------------------------

def defined() -> dict:
    """Every function and method of ``src/orthoql``, nested ones included,
    as (file, first line) -> ``module.qualname``.  A decorated function's
    code starts at its first decorator."""
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = ".".join([path.stem, *scope, child.name])
                visit(child, path, scope + [child.name, "<locals>"])
            else:
                visit(child, path, scope)

    for path in sorted(SOURCES.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, [])
    return found


DEFINED = defined()


# --- the command set --------------------------------------------------------

Q_FILE = {
    "field": "Q",
    "ambient_dim": 3,
    "subspaces": {
        "A": {"basis": [["1", "0", "0"]]},
        "B": {"basis": [["0", "1", "0"]]},
        "C": {"basis": [["1", "1", "0"], ["0", "0", "1/2"]]},
        "D": {"basis": [["0", "0", "1"]]},
        "H": {"basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        "Z": {"basis": []},
    },
    "ortho": {
        "P": {"one": "A", "zero": "B"},
        "R": {"one": "C", "zero": "Z"},
        "S": {"one": "D", "zero": "A"},
        "T": {"one": "Z", "zero": "H"},
    },
    "operators": {
        "U": {"dom": "C", "matrix": [["1", "2", "0"], ["0", "1", "0"], ["3", "0", "-1"]]},
        "V": {"dom": "H", "matrix": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "2/3"]]},
    },
}

QI_FILE = {
    "field": "Qi",
    "ambient_dim": 2,
    "subspaces": {
        "A": {"basis": [["1", "1i"]]},
        "B": {"basis": [["1", "-1i"]]},
        "F": {"basis": [["1", "0"], ["0", "1"]]},
        "Z": {"basis": []},
    },
    "ortho": {"P": {"one": "A", "zero": "B"}, "R": {"one": "F", "zero": "Z"}},
    "operators": {"U": {"dom": "A", "matrix": [["1/2+1i", "0"], ["0", "-1i"]]}},
}

BAD_FILES = {
    "not-json": "{",
    "skew-pair": json.dumps(
        {
            "field": "Q",
            "ambient_dim": 2,
            "subspaces": {"A": {"basis": [["1", "0"]]}, "B": {"basis": [["1", "1"]]}},
            "ortho": {"P": {"one": "A", "zero": "B"}},
        }
    ),
    "bad-scalar": json.dumps(
        {"field": "Qi", "ambient_dim": 1, "subspaces": {"A": {"basis": [["1 2"]]}}}
    ),
}


def commands(folder: Path) -> list:
    """The argument lists of the command set, with its files saved in ``folder``."""
    files = {}
    for name, text in [("q", json.dumps(Q_FILE)), ("qi", json.dumps(QI_FILE)), *BAD_FILES.items()]:
        files[name] = folder / f"{name}.json"
        files[name].write_text(text, encoding="utf-8")
    q, qi = str(files["q"]), str(files["qi"])
    runs = []
    for op in ("meet", "join", "minus", "implies"):
        runs += [["op", "--file", q, op, "A", "C"], ["op", "--file", q, f"o{op}", "P", "S"]]
    runs += [["op", "--file", q, "neg", "C"], ["op", "--file", q, "neg", "R"]]
    runs += [["op", "--file", qi, "meet", "A", "F"], ["op", "--file", qi, "join", "P", "R"]]
    runs += [
        ["project", "--file", q, "P", "(2, 3, 0)"],
        ["project", "--file", q, "P", "(0, 0, 1)"],
        ["project", "--file", qi, "P", "(1, 1/2-1i)"],
        ["quotient", "--file", q, "P", "(2, 3, 0)", "(5, 3, 0)"],
        ["quotient", "--file", q, "P", "(2, 3, 1)", "(5, 3, 0)"],
        ["quotient", "--file", qi, "P", "(1, 0)", "(0, 1)"],
        ["roundtrip", "--file", q],
        ["roundtrip", "--file", qi],
        ["roundtrip", "--random", "3", "4", "1"],
    ]
    runs = [argv + fmt for argv in runs for fmt in ([], ["--format", "json"])]
    # Each law run once, in one format or the other.
    runs += [
        ["check", "--file", q, "--laws", "all"],
        ["check", "--file", qi, "--laws", "all", "--format", "json"],
        ["check", "--random", "3", "4", "1", "--laws", "all"],
    ]
    # Malformed input, which exits 2.
    runs += [
        ["op", "--file", str(folder / "missing.json"), "neg", "A"],
        *(["op", "--file", str(files[name]), "neg", "A"] for name in BAD_FILES),
        ["op", "--file", q, "frob", "A", "B"],
        ["op", "--file", q, "meet", "A", "P"],
        ["op", "--file", q, "meet", "(A", "B)"],
        ["op", "--file", q, "meet", "A", "X"],
        ["project", "--file", q, "X", "(1, 0, 0)"],
        ["project", "--file", q, "P", "(1, 0)"],
        ["quotient", "--file", q, "X", "(1, 0, 0)", "(1, 0, 0)"],
        ["check", "--file", q, "--laws", "bogus"],
        ["check", "--file", q, "--random", "2", "1", "1"],
        ["check", "--random", "17", "1", "1"],
        ["check", "--random", "-1", "1", "1"],
        ["op", "neg", "A"],
    ]
    return runs


def import_afresh() -> None:
    """Run each module's code once more, in a namespace of its own, as a
    fresh import would: what it calls at import time (the law suites'
    decorator) is entered too.  ``__main__`` runs the command line
    instead, and defines no function."""
    for path in sorted(SOURCES.glob("*.py")):
        if path.stem != "__main__":
            name = "orthoql" if path.stem == "__init__" else f"orthoql.{path.stem}"
            code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
            exec(code, {"__name__": name, "__package__": "orthoql"})


@contextlib.contextmanager
def quiet():
    """Capture stdout and stderr; yield the captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        yield err


def run_command_set(folder: Path) -> None:
    import_afresh()
    with quiet() as err:
        # A cached parser would enter none of its builder's code.
        cli._build_parser.cache_clear()
        for argv in commands(folder):
            assert cli.main(argv) in (0, 2), argv
        assert cli.cmd_check(None, (2, 3, 5), "all", "text", Field.Qi) == 0
        test_readme.test_the_python_session_shows_its_values()
        demo = folder / "demo.json"
        (instances,) = test_readme.blocks("json")
        demo.write_text(instances, encoding="utf-8")
        for argv, _ in test_readme.TRANSCRIPTS:
            assert cli.main([str(demo) if a == "demo.json" else a for a in argv]) == 0
    assert "internal error" not in err.getvalue()


def violation_drivers(folder: Path) -> None:
    """What drives the violation paths: the order suite under the standing
    mutant of ``proj_compl``, as tests/test_violation_paths.py runs it,
    and a non-commuting pair's witness detail, from tests/test_partial_op.py."""
    path = folder / "ordered.json"
    path.write_text(json.dumps(FILES[Field.Q]), encoding="utf-8")
    fn, old, new, _ = MUTANTS["complement-is-the-projection-itself"]
    with pytest.MonkeyPatch.context() as patch, quiet():
        _swap(patch, fn, old, new)
        assert cli.main(["check", "--file", str(path), "--laws", "order"]) == 1
    test_partial_op.test_non_commuting_pair_meets_no_hypothesis_and_names_a_witness()


def unreached_by(run, folder: Path) -> set:
    """The package's functions that ``run(folder)`` never enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run(folder)
    finally:
        sys.setprofile(previous)
    entered = {(c.co_filename, c.co_firstlineno) for c in codes}
    return {name for key, name in DEFINED.items() if key not in entered}


@pytest.fixture(scope="module")
def unreached(tmp_path_factory) -> set:
    return unreached_by(run_command_set, tmp_path_factory.mktemp("reachability"))


def test_every_function_is_entered_or_listed(unreached):
    listed = set(DOCUMENTED) | VIOLATION_PATHS | traced_by_the_benchmark()
    assert sorted(name for name in unreached - listed if not protocol(name)) == []


def test_every_listed_name_exists_and_is_still_unreached(unreached):
    listed = set(DOCUMENTED) | VIOLATION_PATHS
    assert listed - set(DEFINED.values()) == set()
    assert listed - unreached == set()


@pytest.mark.parametrize("name", DOCUMENTED)
def test_a_documented_name_is_in_the_readme(name):
    spelling = re.escape(DOCUMENTED[name])
    assert re.search(rf"`[^`]*\b{spelling}\b[^`]*`", README), DOCUMENTED[name]


def test_each_violation_path_is_entered_by_its_driver(tmp_path):
    assert VIOLATION_PATHS & unreached_by(violation_drivers, tmp_path) == set()
