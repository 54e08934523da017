"""Validity is checked once, where entries enter: the public ``Matrix``,
``Vector`` and ``Matrix.from_rows`` coerce and refuse, while arithmetic
results (sums, products, transposes, reindexing), already exact
scalars of their field, are built with ``Matrix._of``/``Vector._of`` and
coerce nothing.  So are the rows, matrices and vectors that the file
loader reads, whose entries ``Field.parse`` has just built.  ``rref``'s
canonical basis is still coerced (see ``test_checked_sites``).  The
session-wide ``scalar_contract`` fixture checks what those unchecked
builds hold, and these tests count the ``coerce`` calls.  The public
path's refusals are held by ``test_boundary`` and ``test_scalars``."""

import json
from fractions import Fraction as F

import pytest

from orthoql.cli import _parse_vector, load_instances, main
from orthoql.linalg import Matrix, Vector, _kernel_rows, matrix_inverse, rref
from orthoql.partial_op import PartialOperator, _spanning_samples
from orthoql.scalars import Field, GaussianRational
from orthoql.subspace import Subspace

FIELDS = [Field.Q, Field.Qi]


def operands(field):
    """Vectors, matrices, a reduced basis, a plane and an operator on it
    over ``field``, built on the public path."""
    x = Vector(field, [F(1, 2), -2, 3])
    y = Vector(field, [F(-2, 3), 0, 1])
    a = Matrix(field, 2, 3, [1, F(1, 2), 0, -1, 2, F(3, 4)])
    b = Matrix(field, 2, 3, [0, 1, F(-1, 5), 2, 2, 1])
    c = Matrix(field, 3, 2, [1, 0, F(2, 3), 1, -1, 4])
    g = Matrix(field, 2, 2, [2, 1, 1, 3])
    if field is Field.Qi:
        i = GaussianRational(0, 1)
        x, a = x + Vector(field, [i, 0, -i]), a.scaled(i + 1)
    plane = Subspace(field, 3, a)
    op = PartialOperator(plane, plane.basis @ c @ a)
    return dict(x=x, y=y, a=a, b=b, c=c, g=g, reduced=rref(a), plane=plane, op=op)


# Each arithmetic result built unchecked, with the number of ``coerce``
# calls it may make: ``scaled`` coerces its one factor, nothing else does.
SWITCHED = {
    "vector +": (0, lambda o: o["x"] + o["y"]),
    "vector -": (0, lambda o: o["x"] - o["y"]),
    "vector neg": (0, lambda o: -o["x"]),
    "vector scaled": (1, lambda o: o["x"].scaled(F(-3, 2))),
    "matrix +": (0, lambda o: o["a"] + o["b"]),
    "matrix -": (0, lambda o: o["a"] - o["b"]),
    "matrix neg": (0, lambda o: -o["a"]),
    "matrix scaled": (1, lambda o: o["a"].scaled(2)),
    "matrix @ matrix": (0, lambda o: o["a"] @ o["c"]),
    "matrix @ vector": (0, lambda o: o["a"] @ o["x"]),
    "transpose": (0, lambda o: o["a"].transpose()),
    "conj_transpose": (0, lambda o: o["a"].conj_transpose()),
    "conj": (0, lambda o: o["a"].conj()),
    "identity": (0, lambda o: Matrix.identity(o["a"].field, 3)),
    "zero": (0, lambda o: Matrix.zero(o["a"].field, 2, 3)),
    "_kernel_rows": (0, lambda o: _kernel_rows(*o["reduced"])),
    "PartialOperator.matrix": (0, lambda o: o["op"].matrix),
    "_spanning_samples": (0, lambda o: _spanning_samples(o["plane"])),
    "Subspace.projector": (0, lambda o: o["plane"].projector),
    "Subspace.project": (0, lambda o: o["plane"].project(o["x"])),
}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SWITCHED)
def test_an_arithmetic_result_coerces_nothing(name, field, coerce_calls):
    calls, op = SWITCHED[name]
    o = operands(field)
    del coerce_calls[:]
    op(o)
    assert len(coerce_calls) == calls


@pytest.mark.parametrize("field", FIELDS)
def test_a_solution_is_read_off_the_reduction_uncoerced(field, coerce_calls):
    """``matrix_inverse`` builds ``[g | I]`` unchecked, from entries that
    are already exact, and coerces only its reduced form, which ``rref``
    builds on the public path; the inverse adds nothing."""
    g = operands(field)["g"]
    del coerce_calls[:]
    x = matrix_inverse(g)
    assert g @ x == Matrix.identity(field, 2)
    assert len(coerce_calls) == g.nrows * 2 * g.ncols


# A subspace, a pair and an operator over each field, as files give them.
FILES = {
    Field.Q: {
        "field": "Q",
        "ambient_dim": 3,
        "subspaces": {
            "A": {"basis": [["1", "1/2", "0"], ["2", "1", "3"]]},
            "B": {"basis": [["-1", "2", "0"]]},
            "Zero": {"basis": []},
        },
        "ortho": {"P": {"one": "A", "zero": "Zero"}, "R": {"one": "B", "zero": "Zero"}},
        "operators": {
            "T": {"dom": "A", "matrix": [["1", "0", "-2/3"], ["0", "1", "0"], ["5", "0", "1"]]}
        },
    },
    Field.Qi: {
        "field": "Qi",
        "ambient_dim": 2,
        "subspaces": {"A": {"basis": [["1", "1i"]]}, "B": {"basis": [["1", "-1i"]]}},
        "ortho": {"P": {"one": "A", "zero": "B"}},
        "operators": {"T": {"dom": "A", "matrix": [["1/2", "1-1/3i"], ["0", "2i"]]}},
    },
}


@pytest.mark.parametrize("field", FIELDS)
def test_a_file_is_loaded_with_no_second_check(field, tmp_path, coerce_calls, rref_calls):
    """``Field.parse`` builds each scalar of a file or a vector argument
    exact, and the loader stores what it parsed with no second check:
    once every loaded value has been read, and so built, the only
    entries coerced are those of the canonical bases that ``rref``
    builds for the file's nonzero subspaces."""
    path = tmp_path / "instances.json"
    path.write_text(json.dumps(FILES[field]))
    del coerce_calls[:]
    inst = load_instances(str(path))
    for section in (inst.subspaces, inst.ortho, inst.operators):
        for name in section:
            section[name]
    x = _parse_vector(field, inst.ambient_dim, ", ".join(["1/3"] * inst.ambient_dim))
    calls = len(coerce_calls)
    assert len(rref_calls) == 2
    assert calls == sum(len(rref(m)[0].entries) for (m,) in rref_calls)
    assert set(inst.subspaces) == set(FILES[field]["subspaces"]) and set(inst.operators) == {"T"}
    assert x == Vector(field, [F(1, 3)] * inst.ambient_dim)


@pytest.mark.parametrize("field", FIELDS)
def test_the_public_constructors_still_coerce(field, coerce_calls):
    kind = F if field is Field.Q else GaussianRational
    built = [
        Vector(field, [1, F(1, 2)]),
        Matrix(field, 1, 2, [1, F(1, 2)]),
        Matrix.from_rows(field, [[1, F(1, 2)]]),
    ]
    assert len(coerce_calls) == 6
    for m in built:
        assert [type(e) for e in m.entries] == [kind, kind]
        assert list(m.entries) == [1, F(1, 2)]


# ``coerce`` calls of one in-process ``check --random 4 4 7 --laws SUITE``,
# at most.  They were 4,138, 4,555 and 2,350 while every arithmetic
# result still went through the public constructor, and 669, 218 and 216
# while the generators' draws did; what is left comes from ``rref``'s
# canonical bases and the other checked sites of ``test_checked_sites``.
# A re-coercion that creeps back in fails here without a timing run.
CHECK_COERCE_CEILING = {"comm": 637, "pls": 154, "order": 216}


@pytest.mark.parametrize("suite", CHECK_COERCE_CEILING)
def test_a_check_run_coerces_no_more_than_it_does_now(suite, coerce_calls, capsys):
    assert main(["check", "--random", "4", "4", "7", "--laws", suite]) == 0
    assert len(coerce_calls) <= CHECK_COERCE_CEILING[suite]
