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
run must print each one and exit 1 with no error line."""

import json

import pytest

from orthoql.cli import main
from orthoql.scalars import Field
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
