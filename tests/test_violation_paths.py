"""The order calculus's violation details, reached through ``cli.main``.

A correct package never violates an order clause, so the code that
writes a violation's detail runs only when something upstream is wrong:
the composite witnesses of ``lescomp1_i`` (``op_eq_witness`` of both
composites), the ``sample`` text and the failing branches of
``lescomp1_iiia`` and ``lescomp1_iva``.  A detail that raised would
turn exit 1 into an internal error.  Here a standing mutant of
``proj_compl``, outside ``check_order``, returns each projection in
place of its complement, so that the unchanged
``check_order`` finds every such violation on one ordered pair, and the
run must print each one and exit 1 with no error line.

The lattice suites and ``check_pls`` name a violation's operands by
their reprs, which ``LawResult.record`` builds only for a violation.
So a run where every law holds builds no repr at all, and under the
standing meet mutant every clql and complql violation that the command
prints names its operands byte for byte as the f-string over the same
window of the loaded file does."""

import json
from fractions import Fraction

import pytest

from orthoql import scalars
from orthoql.cli import load_instances, main
from orthoql.generators import (
    clql_triples,
    complql_triples,
    random_partial_operator,
    random_scalar,
    rng_from,
)
from orthoql.laws import check_clql, check_complql, check_pls
from orthoql.linalg import Matrix, Vector
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import PartialOperator
from orthoql.scalars import Field, GaussianRational
from orthoql.subspace import Subspace
from test_mutants import MUTANTS, _swap

# One ordered pair l <= m with l's one-part strictly inside m's, and the
# same pairs in the other order, which are not ordered.
FILES = {
    Field.Q: {
        "field": "Q",
        "ambient_dim": 3,
        "subspaces": {
            "E1": {"basis": [["1", "0", "0"]]},
            "E2": {"basis": [["0", "1", "0"]]},
            "Plane": {"basis": [["1", "0", "0"], ["0", "1", "0"]]},
            "Zero": {"basis": []},
        },
        "ortho": {"L": {"one": "E1", "zero": "E2"}, "M": {"one": "Plane", "zero": "Zero"}},
    },
    Field.Qi: {
        "field": "Qi",
        "ambient_dim": 2,
        "subspaces": {
            "A": {"basis": [["1", "1i"]]},
            "B": {"basis": [["1", "-1i"]]},
            "Full": {"basis": [["1", "0"], ["0", "1"]]},
            "Zero": {"basis": []},
        },
        "ortho": {"L": {"one": "A", "zero": "B"}, "M": {"one": "Full", "zero": "Zero"}},
    },
}

# The text line of each clause: one violation on the ordered pair, and
# none where the clause holds or, for the other order, is not applicable.
LINES = {
    "lescomp1_i": "instances=2 hypothesis_met=2 violations=1",
    "lescomp1_iia": "instances=2 hypothesis_met=1 violations=1",
    "lescomp1_iiia": "instances=2 hypothesis_met=1 violations=1",
    "lescomp1_iva": "instances=2 hypothesis_met=1 violations=1",
    "lescomp1_meet": "instances=2 hypothesis_met=1 violations=0",
    "result": "VIOLATIONS (unexpected violations: 4)",
}


@pytest.mark.parametrize("field", FILES)
def test_each_order_violation_detail_is_printed(field, tmp_path, monkeypatch, capsys):
    path = tmp_path / "ordered.json"
    path.write_text(json.dumps(FILES[field]))
    argv = ["check", "--file", str(path), "--laws", "order"]
    fn, old, new, _ = MUTANTS["complement-is-the-projection-itself"]
    _swap(monkeypatch, fn, old, new)

    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert dict(line.split(": ", 1) for line in out.splitlines()) == LINES
    assert err.startswith("elapsed: ") and "error:" not in err

    assert main([*argv, "--format", "json"]) == 1
    out, err = capsys.readouterr()
    laws = json.loads(out)["laws"]
    (composite,) = laws["lescomp1_i"]["violations"]
    assert composite["operands"] == "pair #0"
    assert composite["witness"].startswith("order=True composites=False witness_one=")
    assert "witness_zero=('value', Vector[" in composite["witness"]
    for clause in ("lescomp1_iiia", "lescomp1_iva"):
        (violation,) = laws[clause]["violations"]
        assert violation["witness"].startswith(f"sample Vector[{field.value}](")
    assert "error:" not in err


# --- operand text, built only for a violation -------------------------------

# Every repr and text form that a law's operand text can reach.
TEXT_FORMS = [
    (Subspace, "__repr__"),
    (OrthoSubspace, "__repr__"),
    (PartialOperator, "__repr__"),
    (Vector, "__repr__"),
    (Matrix, "__repr__"),
    (GaussianRational, "__repr__"),
    (GaussianRational, "__str__"),
    (Fraction, "__repr__"),
    (Fraction, "__str__"),
    (scalars, "scalar_text"),
]


@pytest.fixture
def text_calls(monkeypatch):
    """The calls of each of ``TEXT_FORMS`` from now on, one entry each."""
    calls = []
    for owner, name in TEXT_FORMS:
        real = getattr(owner, name)

        def counted(*args, real=real):
            calls.append(real)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_run_that_holds_builds_no_operand_text(field, text_calls):
    dim = 4 if field is Field.Q else 3
    rng = rng_from(7)
    reports = [
        check_clql(clql_triples(rng, field, dim, 6)),
        check_complql(complql_triples(rng, field, dim, 6)),
        check_pls(
            [random_partial_operator(rng, field, dim, total=(i % 3 == 0)) for i in range(6)],
            [random_scalar(rng, field) for _ in range(6)],
        ),
    ]
    assert all(report.ok for report in reports)
    assert text_calls == []


# Two crossing planes A and B of F^3, their common line C, and the pairs
# L = (A, A⊥), M = (B, B⊥) and N = (C, a line of C⊥).  The meet mutant
# takes A ∧ B to zero, which breaks lattice laws on every window.
LATTICE_FILES = {
    Field.Q: {
        "field": "Q",
        "ambient_dim": 3,
        "subspaces": {
            "A": {"basis": [["1", "0", "0"], ["0", "1", "0"]]},
            "B": {"basis": [["0", "1", "0"], ["0", "0", "1"]]},
            "C": {"basis": [["0", "1", "0"]]},
            "E1": {"basis": [["1", "0", "0"]]},
            "E3": {"basis": [["0", "0", "1"]]},
            "E13": {"basis": [["1", "0", "0"], ["0", "0", "1"]]},
        },
        "ortho": {
            "L": {"one": "A", "zero": "E3"},
            "M": {"one": "B", "zero": "E1"},
            "N": {"one": "C", "zero": "E13"},
        },
    },
    Field.Qi: {
        "field": "Qi",
        "ambient_dim": 3,
        "subspaces": {
            "A": {"basis": [["1", "1i", "0"], ["0", "0", "1"]]},
            "B": {"basis": [["1", "0", "0"], ["0", "1", "0"]]},
            "C": {"basis": [["1", "1i", "0"]]},
            "P": {"basis": [["1", "-1i", "0"]]},
            "E3": {"basis": [["0", "0", "1"]]},
        },
        "ortho": {
            "L": {"one": "A", "zero": "P"},
            "M": {"one": "B", "zero": "E3"},
            "N": {"one": "C", "zero": "P"},
        },
    },
}

# (field, suite) -> the unexpected violations the run reports.
VIOLATED = {
    (Field.Q, "clql"): 10,
    (Field.Q, "complql"): 5,
    (Field.Qi, "clql"): 12,
    (Field.Qi, "complql"): 1,
}


def eager_texts(values: dict) -> set:
    """The f-string of each window of three of the named values, taken
    in name order, as the command forms its triples."""
    items = [values[name] for name in sorted(values)]
    n = len(items)
    windows = [[items[(i + j) % n] for j in range(3)] for i in range(n)]
    return {f"L={l!r} M={m!r} N={r!r}" for l, m, r in windows}


@pytest.mark.parametrize("suite", ["clql", "complql"])
@pytest.mark.parametrize("field", LATTICE_FILES)
def test_a_violation_names_its_operands_as_the_eager_text(
    field, suite, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(LATTICE_FILES[field]))
    loaded = load_instances(str(path))
    want = eager_texts(loaded.subspaces if suite == "clql" else loaded.ortho)
    argv = ["check", "--file", str(path), "--laws", suite]
    fn, old, new, _ = MUTANTS["meet-of-incomparables-is-zero"]
    _swap(monkeypatch, fn, old, new)
    count = VIOLATED[field, suite]

    assert main(argv) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[-1] == f"result: VIOLATIONS (unexpected violations: {count})"
    assert sum(int(line.rsplit("violations=", 1)[1]) for line in lines[:-1]) == count
    assert "error:" not in err

    assert main([*argv, "--format", "json"]) == 1
    out, _ = capsys.readouterr()
    violations = [v for law in json.loads(out)["laws"].values() for v in law["violations"]]
    assert len(violations) == count
    assert {v["operands"] for v in violations} <= want
    assert all(v["witness"] == "" for v in violations)
