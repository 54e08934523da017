"""The package's five records (``Violation``, ``LawResult``,
``LawReport``, ``Counterexample`` and ``InstanceFile``) are plain slotted
classes that behave as generated records do: the same constructor
parameters and defaults, field-wise equality, ``Name(field=value, ...)``
text and no hash.  Importing the command line loads no class generator,
and so none of the source-reading modules it would pull in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from orthoql.cli import InstanceFile
from orthoql.laws import Counterexample, LawReport, LawResult, Violation
from orthoql.scalars import Field
from orthoql.subspace import Subspace

UNLOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_class_generator():
    # A fresh interpreter, importing the package from this checkout's src/.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = f"import sys, orthoql.cli; print(*[m for m in {UNLOADED!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def line():
    return Subspace(Field.Q, 2, [[1, 0]])


def test_each_record_writes_its_fields_in_order():
    result = LawResult("clql1", 3, 2, [Violation("L=a", "w")])
    cases = [
        (Violation("L=a"), "Violation(operands='L=a', witness='')"),
        (LawResult("clql1"), "LawResult(law='clql1', instances=0, hypothesis_met=0, violations=[])"),
        (result, (
            "LawResult(law='clql1', instances=3, hypothesis_met=2, "
            "violations=[Violation(operands='L=a', witness='w')])"
        )),
        (LawReport(), "LawReport(results={})"),
        (LawReport({"clql1": result}), f"LawReport(results={{'clql1': {result!r}}})"),
        (Counterexample("distributivity", {"L": line()}, line(), line(), "note"), (
            f"Counterexample(law='distributivity', operands={{'L': {line()!r}}}, "
            f"lhs={line()!r}, rhs={line()!r}, note='note')"
        )),
        (InstanceFile(Field.Qi, 0, {}, {}, {}), (
            "InstanceFile(field=<Field.Qi: 'Qi'>, ambient_dim=0, subspaces={}, ortho={}, "
            "operators={})"
        )),
    ]
    for record, text in cases:
        assert repr(record) == text


def test_a_record_takes_its_defaults_and_keywords():
    assert Violation(operands="x").witness == ""
    result = LawResult(law="comm")
    assert (result.law, result.instances, result.hypothesis_met, result.violations) == (
        "comm", 0, 0, []
    )
    assert LawResult("comm", 1, 1, []) == LawResult(
        violations=[], hypothesis_met=1, instances=1, law="comm"
    )
    assert LawReport().results == {}
    assert Counterexample("d", {}, line(), line()).note == ""
    with pytest.raises(TypeError):
        LawResult()
    with pytest.raises(TypeError):
        Violation("a", "b", "c")
    with pytest.raises(TypeError):
        InstanceFile(Field.Q, 1, {}, {})


def test_two_fresh_records_share_no_container():
    a, b = LawResult("clql1"), LawResult("clql1")
    a.record(True, False, "operands")
    assert a.violations == [Violation("operands")] and b.violations == []
    r, s = LawReport(), LawReport()
    r.result("clql1")
    assert list(r.results) == ["clql1"] and s.results == {}


def test_records_are_equal_field_by_field():
    assert LawResult("clql1", 1, 1) == LawResult("clql1", 1, 1)
    for other in (
        LawResult("clql2", 1, 1),
        LawResult("clql1", 2, 1),
        LawResult("clql1", 1, 0),
        LawResult("clql1", 1, 1, [Violation("x")]),
    ):
        assert LawResult("clql1", 1, 1) != other
    assert Violation("a", "b") == Violation("a", "b") != Violation("a", "c")
    assert LawReport({"x": LawResult("x")}) == LawReport({"x": LawResult("x")}) != LawReport()
    subspaces = {"A": line()}
    assert InstanceFile(Field.Q, 2, subspaces, {}, {}) == InstanceFile(Field.Q, 2, subspaces, {}, {})
    assert InstanceFile(Field.Q, 2, subspaces, {}, {}) != InstanceFile(Field.Qi, 2, subspaces, {}, {})
    assert Counterexample("d", {}, line(), line()) == Counterexample("d", {}, line(), line())
    assert Counterexample("d", {}, line(), line()) != Counterexample("d", {}, line(), line(), "n")


def test_a_record_equals_no_other_class():
    # Equal fields, another class: equality is not even tried.
    assert Violation("a", "b") != ("a", "b")
    assert Violation("a", "b").__eq__(("a", "b")) is NotImplemented
    assert LawReport() != LawResult("x")


def test_records_are_unhashable():
    records = (
        Violation("a"),
        LawResult("clql1"),
        LawReport(),
        Counterexample("d", {}, line(), line()),
        InstanceFile(Field.Q, 0, {}, {}, {}),
    )
    for record in records:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_records_hold_only_their_fields():
    result = LawResult("clql1")
    with pytest.raises(AttributeError):
        result.lawname = "clql1"
    assert not hasattr(result, "__dict__")
