"""Fuzzing the command line's input boundary: whatever the instance file
or the vector text holds, a run ends with exit 0, or with exit 2 and
exactly one ``error:`` line on stderr; never a traceback, a law
violation (exit 1) or an internal error (exit 3).

Each example starts from a well-formed instance file and then replaces
or deletes up to two of its parts with arbitrary JSON, so that both the
computing paths and the rejecting paths are reached."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from orthoql.cli import main

VALID_Q = ["0", "1", "-1", "2", "1/2", "-3/4", "5/3"]
VALID_QI = VALID_Q + ["i", "-2i", "1+i", "1/2-1/3i"]

ODD_SCALAR = st.one_of(
    st.sampled_from(["1/0", "i", "1+i", " 1 ", "", "1/", "--1", "1.5", "0x1"]),
    st.from_regex(r"[+-]?\d{1,4}(/\d{1,3})?([+-]\d{1,3}(/\d{1,3})?i)?", fullmatch=True),
    st.text(max_size=6),
)

JSON_ANY = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 5), ODD_SCALAR),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=12,
)

NAMES = st.sampled_from(["A", "B", "C"])
PAIRS = st.sampled_from(["P", "R"])


@st.composite
def well_formed(draw):
    """A valid file: A and B are spans of disjoint coordinate axes, so the
    pairs (A, B) and (B, A) are orthogonal; C and the operator are random."""
    field = draw(st.sampled_from(["Q", "Qi"]))
    dim = draw(st.integers(1, 3))
    scalar = st.sampled_from(VALID_QI if field == "Qi" else VALID_Q)
    nonzero = scalar.filter(lambda t: t != "0")
    row = st.lists(scalar, min_size=dim, max_size=dim)
    axes = draw(st.permutations(range(dim)))
    cut, end = sorted(draw(st.lists(st.integers(0, dim), min_size=2, max_size=2)))

    def axis_rows(idx):
        return [[draw(nonzero) if j == i else "0" for j in range(dim)] for i in idx]

    return {
        "field": field,
        "ambient_dim": dim,
        "subspaces": {
            "A": {"basis": axis_rows(axes[:cut])},
            "B": {"basis": axis_rows(axes[cut:end])},
            "C": {"basis": draw(st.lists(row, max_size=dim))},
        },
        "ortho": {"P": {"one": "A", "zero": "B"}, "R": {"one": "B", "zero": "A"}},
        "operators": {
            "T": {"dom": draw(NAMES), "matrix": draw(st.lists(row, min_size=dim, max_size=dim))}
        },
    }


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def instance_bodies(draw):
    body = draw(well_formed())
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(body))))
        value = draw(JSON_ANY)
        if not path:
            body = value
            continue
        parent = body
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return body


def vector_texts(dim):
    scalar = st.one_of(st.sampled_from(VALID_QI), ODD_SCALAR)
    return st.one_of(
        st.lists(st.sampled_from(VALID_Q), min_size=dim, max_size=dim).map(
            lambda parts: "(" + ",".join(parts) + ")"
        ),
        st.builds(
            lambda parts, brackets: brackets[0] + ",".join(parts) + brackets[1],
            st.lists(scalar, max_size=4),
            st.sampled_from([("(", ")"), ("[", "]"), ("", ""), ("(", "]")]),
        ),
        st.text(max_size=12),
    )


@st.composite
def cases(draw):
    body = draw(instance_bodies())
    dim = body.get("ambient_dim") if isinstance(body, dict) else None
    vector = vector_texts(dim if type(dim) is int and 0 <= dim <= 3 else 3)
    command = draw(
        st.one_of(
            st.just(["roundtrip"]),
            st.tuples(st.sampled_from(["meet", "join", "minus", "implies", "neg"]), NAMES, NAMES),
            st.tuples(st.sampled_from(["ojoin", "oimplies", "oneg"]), PAIRS, PAIRS),
            st.tuples(st.just("project"), PAIRS, vector),
            st.tuples(st.just("quotient"), PAIRS, vector, vector),
            st.sampled_from(["clql", "order", "pls"]).map(lambda law: ["check", "--laws", law]),
        )
    )
    if command[0] in ("project", "quotient", "roundtrip", "check"):
        argv = list(command)
    else:
        # Unary operations take one operand.
        argv = ["op", *command[: 2 if command[0] in ("neg", "oneg") else 3]]
    return body, argv


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Derandomized so that every run of the suite sees the same examples;
# the example count keeps the test to a few seconds.
@settings(max_examples=250, deadline=5000, derandomize=True, database=None)
@given(case=cases(), fmt=st.sampled_from(["text", "json"]))
def test_any_instance_file_and_vector_exits_0_or_2(case, fmt):
    body, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instances.json"
        path.write_text(json.dumps(body))
        code, out, err = run_cli([*argv, "--file", str(path), "--format", fmt])
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
