"""An instance file costs what the command reads.

``load_instances`` checks the whole file, whichever objects a command
names: a defect anywhere exits 2 with its one line.  It builds nothing:
each subspace, pair and operator is built the first time a command
reads it, and kept.  These tests count ``Subspace.__init__`` calls, the
one place a file's subspace is built."""

import json

import pytest

from orthoql.cli import load_instances, main
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import PartialOperator
from orthoql.scalars import Field, GaussianRational
from orthoql.subspace import Subspace

FIELDS = [Field.Q, Field.Qi]


def many(field):
    """A file of eight subspaces, three pairs and two operators over
    ``field``, in dimension 3."""
    i = "1" if field is Field.Q else "1i"
    return {
        "field": field.value,
        "ambient_dim": 3,
        "subspaces": {
            "A": {"basis": [["1", "0", "0"]]},
            "B": {"basis": [["0", "1", "1/2"], ["0", "2", "1"]]},
            "C": {"basis": [["1", i, "0"], ["0", "0", "1"]]},
            "D": {"basis": [["0", "0", "0"], ["1", "1", "1"]]},
            "E": {"basis": []},
            "P1": {"basis": [["1", "0", "0"]]},
            "P0": {"basis": [["0", "1", "0"], ["0", "2", "0"]]},
            "Full": {"basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        },
        "ortho": {
            "P": {"one": "P1", "zero": "P0"},
            "R": {"one": "E", "zero": "Full"},
            "S": {"one": "A", "zero": "P0"},
        },
        "operators": {
            "T": {"dom": "B", "matrix": [["1", "0", "0"], ["0", i, "0"], ["0", "0", "-2/3"]]},
            "U": {"dom": "C", "matrix": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]},
        },
    }


def only(payload, subspaces, ortho=()):
    """``payload`` cut down to the named subspaces and pairs."""
    return dict(
        payload,
        subspaces={k: payload["subspaces"][k] for k in subspaces},
        ortho={k: payload["ortho"][k] for k in ortho},
        operators={},
    )


def write(tmp_path, stem, payload):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def subspace_builds(monkeypatch):
    """The rows handed to ``Subspace.__init__`` from now on, one per call."""
    calls = []
    init = Subspace.__init__

    def counted(self, field, ambient_dim, rows=()):
        calls.append(rows)
        init(self, field, ambient_dim, rows)

    monkeypatch.setattr(Subspace, "__init__", counted)
    return calls


def builds_of(calls, capsys, argv):
    """The ``Subspace.__init__`` calls, exit status and stdout of ``main(argv)``."""
    del calls[:]
    code = main(argv)
    return len(calls), code, capsys.readouterr().out


@pytest.mark.parametrize("field", FIELDS)
def test_a_load_builds_nothing_and_names_build_nothing(field, tmp_path, subspace_builds):
    inst = load_instances(write(tmp_path, "many", many(field)))
    assert len(inst.subspaces) == 8 and len(inst.ortho) == 3 and len(inst.operators) == 2
    assert "A" in inst.subspaces and "P" not in inst.subspaces and "P" in inst.ortho
    assert list(inst.subspaces) == list(many(field)["subspaces"])
    assert sorted(inst.ortho) == ["P", "R", "S"] and sorted(inst.operators) == ["T", "U"]
    assert inst.subspaces.get("Nope") is None and inst.ortho.get("A") is None
    assert subspace_builds == []


@pytest.mark.parametrize("field", FIELDS)
def test_a_meet_builds_the_two_subspaces_it_names(field, tmp_path, subspace_builds, capsys):
    payload = many(field)
    inst = load_instances(write(tmp_path, "many", payload))
    a, b = inst.subspaces["A"], inst.subspaces["B"]
    assert len(subspace_builds) == 2
    assert a == Subspace(field, 3, [[1, 0, 0]]) and b.rank == 1

    argv = ["op", "meet", "A", "B", "--file"]
    got = builds_of(subspace_builds, capsys, [*argv, write(tmp_path, "many", payload)])
    alone = builds_of(subspace_builds, capsys, [*argv, write(tmp_path, "ab", only(payload, "AB"))])
    assert got == alone and got[1] == 0


@pytest.mark.parametrize("field", FIELDS)
def test_a_projection_builds_only_its_pairs_parts(field, tmp_path, subspace_builds, capsys):
    payload = many(field)
    inst = load_instances(write(tmp_path, "many", payload))
    pair = inst.ortho["P"]
    assert len(subspace_builds) == 2
    assert pair.one is inst.subspaces["P1"] and pair.zero is inst.subspaces["P0"]
    assert len(subspace_builds) == 2

    argv = ["project", "P", "(1, 2, 0)", "--file"]
    got = builds_of(subspace_builds, capsys, [*argv, write(tmp_path, "many", payload)])
    cut = only(payload, ["P1", "P0"], ["P"])
    alone = builds_of(subspace_builds, capsys, [*argv, write(tmp_path, "p", cut)])
    assert got == alone and got[1] == 0


@pytest.mark.parametrize("field", FIELDS)
def test_a_name_read_twice_is_the_same_object(field, tmp_path, subspace_builds):
    inst = load_instances(write(tmp_path, "many", many(field)))
    for section, kind in (
        (inst.subspaces, Subspace),
        (inst.ortho, OrthoSubspace),
        (inst.operators, PartialOperator),
    ):
        for name in section:
            first = section[name]
            assert isinstance(first, kind) and section[name] is first
            assert dict(section.items())[name] is first
    # Each of the eight subspaces once, however many pairs and operators share it.
    assert len(subspace_builds) == 8


@pytest.mark.parametrize("field", FIELDS)
def test_a_loaded_file_reads_as_the_objects_its_rows_span(field, tmp_path):
    inst = load_instances(write(tmp_path, "many", many(field)))
    i = 1 if field is Field.Q else GaussianRational(0, 1)
    assert inst.subspaces["C"] == Subspace(field, 3, [[1, i, 0], [0, 0, 1]])
    assert inst.subspaces["D"] == Subspace(field, 3, [[1, 1, 1]])
    assert inst.ortho["R"].is_total and inst.ortho["P"].dom == Subspace(field, 3, [[1, 0, 0], [0, 1, 0]])
    t = inst.operators["T"]
    assert t.dom is inst.subspaces["B"] and t.field is field


# Each defect in an object that the commands below do not name, with the
# line that it has always exited 2 with.
DEFECTS = {
    "non-orthogonal pair": (
        ("ortho", "X", {"one": "A", "zero": "D"}),
        "ortho pair 'X': components of an orthogonal pair must be orthogonal",
    ),
    "unknown pair reference": (
        ("ortho", "X", {"one": "A", "zero": "Nope"}),
        "ortho pair 'X': zero references unknown subspace 'Nope'",
    ),
    "unknown operator domain": (
        ("operators", "X", {"dom": "Nope", "matrix": [["1", "0", "0"]] * 3}),
        "operator 'X': dom references unknown subspace 'Nope'",
    ),
    "bad scalar in an operator matrix": (
        ("operators", "X", {"dom": "A", "matrix": [["1", "0", "0"], ["0", "x", "0"], ["0", "0", "1"]]}),
        "operator 'X': row 1: cannot parse 'x' as a scalar over {field}",
    ),
    "short operator matrix": (
        ("operators", "X", {"dom": "A", "matrix": [["1", "0", "0"], ["0", "1", "0"]]}),
        "operator 'X': matrix must have 3 rows",
    ),
}
COMMANDS = [
    ["op", "neg", "A"],
    ["op", "join", "P", "R"],
    ["project", "P", "(1, 0, 0)"],
    ["quotient", "P", "(1, 0, 0)", "(0, 1, 0)"],
]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("defect", DEFECTS)
def test_a_defect_in_an_object_no_command_names_still_exits_2(field, defect, tmp_path, capsys):
    (section, name, body), line = DEFECTS[defect]
    payload = many(field)
    payload[section] = dict(payload[section], **{name: body})
    path = write(tmp_path, "bad", payload)
    for argv in COMMANDS:
        assert main([*argv, "--file", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line.format(field=field.value)}\n"
    # The same commands on the file without the defect succeed.
    path = write(tmp_path, "good", many(field))
    for argv in COMMANDS:
        assert main([*argv, "--file", path]) == 0
        capsys.readouterr()
