"""One rule at every public entry: an operand carries its field and its
dimension, and a routine or constructor handed one over another space
refuses it.

``TABLE`` has one row per way into the package, named after the entry
of ``orthoql.__all__`` it goes through (``Subspace``,
``Subspace.contains``, ...).  ``EXEMPT`` names each public name that
takes no operand able to disagree with another, with the reason.  A
public name in neither fails the test, so new API cannot skip the
boundary.

A row is a call and the kinds of its arguments (``SAMPLES``).  The call
must succeed on arguments over one space, Q^3 or Q(i)^3.  Then each
argument in turn is replaced:
- by one over the other field, and the call raises AmbientMismatch;
- by one of another dimension, and the call raises the row's class:
  DimensionMismatch where a vector or matrix shape is at stake, and
  AmbientMismatch between subspace-level operands, as ``errors``
  defines them;
- where numbers enter (entries, a scalar, a dimension), by a float, and
  the call raises TypeError.  A built operand holds no float: its own
  row refused it;
- where a vector, matrix or subspace enters, by a float, and the call
  raises TypeError: a float is no operand.
A kind written with a leading "." is context: built like the others,
but never replaced.  One written with a leading "@" takes every probe
but the float, which raises AttributeError there before any check: a
method's receiver, which Python looks the method up on.  The
operand over the other field has real entries, so only the field rule
can refuse it; a bare scalar is not an operand and keeps its own rule
(``GaussianRational(3, 0)`` enters Q as 3).
"""

import operator
from typing import NamedTuple, Optional

import pytest

import orthoql
from orthoql import (
    AmbientMismatch,
    DimensionMismatch,
    Field,
    GaussianRational,
    Matrix,
    OrthoSubspace,
    PartialOperator,
    PartialProjection,
    QuotientSpace,
    Subspace,
    Vector,
    check_catalog,
    check_clql,
    check_comm,
    check_complql,
    check_lescomp,
    check_order,
    check_pls,
    commuting_calculus,
    compose,
    coperp_rel,
    cor7_calculus,
    decompose,
    find_counterexample,
    inner,
    o_eq,
    o_iff,
    o_implies,
    o_join,
    o_leq,
    o_meet,
    o_minus,
    o_neq,
    o_perp,
    op_eq,
    op_neq,
    perp_rel,
    pls_add,
    pls_scale,
    pls_sub,
    proj_iff,
    proj_implies,
    proj_join,
    proj_leq,
    proj_meet,
    proj_minus,
    proj_orthogonal,
    projection_of,
    total_identity,
    total_zero,
)

N = 3


def unit(field, n, *ones):
    """The vector with ones at the given coordinates that exist in n."""
    return Vector(field, [1 if i in ones else 0 for i in range(n)])


def plane(field, n):
    return Subspace(field, n, [unit(field, n, 0), unit(field, n, 1, 2)])


def pair(field, n):
    return OrthoSubspace(Subspace(field, n, [unit(field, n, 0)]), Subspace(field, n, [unit(field, n, 1)]))


class Kind(NamedTuple):
    build: object  # (field, n) -> a sample argument
    sized: bool  # whether a sample of another dimension is a probe
    floated: Optional[object] = None  # the float probe, where numbers enter
    fielded: bool = True  # whether a sample over the other field is a probe


SAMPLES = {
    "F": Kind(lambda f, n: f, False),
    # A dimension and a bare scalar carry no field.
    "n": Kind(lambda f, n: n, False, 2.5, False),
    "k": Kind(lambda f, n: 2, False, 0.5, False),
    # Vector entries, Matrix.from_rows rows: no dimension to disagree with.
    "xs": Kind(lambda f, n: unit(f, n, 0, 1), False, [0.5]),
    "rs": Kind(lambda f, n: [unit(f, n, 0), unit(f, n, 1, 2)], False, [[0.5]]),
    # Matrix entries for an n x n matrix, Subspace rows in ambient dimension n.
    "entries": Kind(lambda f, n: Vector(f, Matrix.identity(f, n).entries), True, [0.5]),
    "rows": Kind(lambda f, n: [unit(f, n, 0), unit(f, n, 1, 2)], True, [[0.5, 0, 0]]),
    # A vector, matrix or subspace: a float in its place is no operand.
    "x": Kind(lambda f, n: unit(f, n, 0), True, 0.5),
    "m": Kind(lambda f, n: Matrix.identity(f, n), True, 0.5),
    # The images of the plane's two basis rows.
    "I": Kind(lambda f, n: Matrix.from_rows(f, [unit(f, n, 1), unit(f, n, 0)]), True, 0.5),
    "S": Kind(plane, True, 0.5),
    "L": Kind(lambda f, n: Subspace(f, n, [unit(f, n, 0)]), True, 0.5),
    "M": Kind(lambda f, n: Subspace(f, n, [unit(f, n, 1)]), True, 0.5),
    "P": Kind(pair, True),
    "T": Kind(lambda f, n: PartialOperator.from_matrix(plane(f, n), Matrix.identity(f, n).scaled(2)), True),
    "p": Kind(lambda f, n: projection_of(pair(f, n)), True),
}

# Kinds whose wrong dimension is a vector or matrix shape.
SHAPED = {"entries", "rows", "x", "m", "I"}


class Row(NamedTuple):
    name: str
    call: object
    kinds: str
    dim_error: Optional[type] = None  # default: from the kinds, see SHAPED

    @property
    def expected_dim_error(self):
        if self.dim_error is not None:
            return self.dim_error
        shaped = any(k in SHAPED for k in self.kinds.split())
        return DimensionMismatch if shaped else AmbientMismatch


TABLE = [
    # linalg and scalars
    Row("Vector", Vector, "F xs"),
    Row("Vector.__add__", operator.add, "x x"),
    Row("Vector.__sub__", operator.sub, "x x"),
    Row("Vector.scaled", lambda x, k: x.scaled(k), ".x k"),
    Row("Matrix", Matrix, "F n n entries"),
    Row("Matrix.from_rows", Matrix.from_rows, "F rs"),
    Row("Matrix.identity", Matrix.identity, ".F n"),
    Row("Matrix.zero", Matrix.zero, ".F n n"),
    Row("Matrix.__add__", operator.add, "m m"),
    Row("Matrix.__sub__", operator.sub, "m m"),
    Row("Matrix.__matmul__", operator.matmul, "m m"),
    Row("Matrix.__matmul__ (vector)", operator.matmul, "m x"),
    Row("Matrix.scaled", lambda m, k: m.scaled(k), ".m k"),
    Row("inner", inner, "x x"),
    Row("GaussianRational", GaussianRational, "k k"),
    # subspaces
    Row("Subspace", Subspace, "F n rows"),
    Row("Subspace (matrix)", Subspace, "F n m"),
    Row("Subspace.zero", Subspace.zero, ".F n"),
    Row("Subspace.full", Subspace.full, ".F n"),
    Row("Subspace.contains", lambda s, x: s.contains(x), "@S x"),
    Row("Subspace.meet", lambda a, b: a.meet(b), "@S S"),
    Row("Subspace.join", lambda a, b: a.join(b), "@S S"),
    Row("Subspace.leq", lambda a, b: a.leq(b), "@S S"),
    Row("Subspace.__and__", operator.and_, "S S"),
    Row("Subspace.__or__", operator.or_, "S S"),
    Row("Subspace.__le__", operator.le, "S S"),
    Row("Subspace.__ge__", operator.ge, "S S"),
    Row("Subspace.project", lambda s, x: s.project(x), "@S x"),
    Row("Subspace.distance_sq", lambda s, x: s.distance_sq(x), "@S x"),
    Row("perp_rel", perp_rel, "S S"),
    Row("coperp_rel", coperp_rel, "S S"),
    # orthogonal pairs
    Row("OrthoSubspace", OrthoSubspace, "L M"),
    Row("OrthoSubspace.bottom", OrthoSubspace.bottom, ".F n"),
    Row("OrthoSubspace.top", OrthoSubspace.top, ".F n"),
    Row("OrthoSubspace.leq", lambda a, b: a.leq(b), "P P"),
    *(Row(f.__name__, f, "P P") for f in (o_meet, o_join, o_minus, o_implies, o_iff, o_leq, o_perp)),
    # operators and projections
    Row("PartialOperator", PartialOperator, "S I", AmbientMismatch),
    Row("PartialOperator.from_matrix", PartialOperator.from_matrix, "S m", AmbientMismatch),
    Row("PartialOperator.__call__", lambda t, x: t(x), "T x"),
    Row("PartialProjection.from_matrix", PartialProjection.from_matrix, "S m", AmbientMismatch),
    Row("total_identity", total_identity, ".F n"),
    Row("total_zero", total_zero, ".F n"),
    Row("decompose", decompose, "P x"),
    *(Row(f.__name__, f, "T T") for f in (op_eq, op_neq, compose, pls_add, pls_sub)),
    Row("pls_scale", pls_scale, "k .T"),
    Row("o_neq", o_neq, "P P"),
    *(
        Row(f.__name__, f, "p p")
        for f in (proj_meet, proj_join, proj_minus, proj_implies, proj_iff, proj_leq, proj_orthogonal)
    ),
    Row("check_order", check_order, "P P"),
    Row("commuting_calculus", commuting_calculus, "p p"),
    Row("cor7_calculus", cor7_calculus, "P P"),
    # quotients
    Row("QuotientSpace.q_iso", lambda b, x: QuotientSpace(b).q_iso(x), "P x"),
    Row("QuotientSpace.q_eq", lambda b, x, y: QuotientSpace(b).q_eq(x, y), "P x x"),
    Row("QuotientSpace.q_inner", lambda b, x, y: QuotientSpace(b).q_inner(x, y), "P x x"),
    Row("QuotientSpace.q_norm_sq", lambda b, x: QuotientSpace(b).q_norm_sq(x), "P x"),
    # law runs: each mixes its operands, so one operand is replaced at a time
    Row("check_clql", lambda a, b, c: check_clql([(a, b, c)]), "S S S"),
    Row("check_complql", lambda a, b, c: check_complql([(a, b, c)]), "P P P"),
    Row("check_pls", lambda t, u, k: check_pls([t, u], [k]), "T T k"),
    Row("check_lescomp", lambda l, m: check_lescomp([(l, m)]), "P P"),
    Row("check_comm", lambda p, q, l, m: check_comm([(p, q)], [(l, m)]), "p p P P"),
    Row("check_catalog", lambda f, n: check_catalog("distributivity", n, f), ".F n"),
    Row("find_counterexample", lambda f, n: find_counterexample("distributivity", n, f), ".F n"),
]

ONE_OPERAND = "one operand, whose field and dimension are its own"
EXEMPT = {
    **dict.fromkeys(
        ["AmbientMismatch", "DimensionMismatch", "NotInDomain", "OrthoQLError", "ParseError", "SingularGram"],
        "an exception class",
    ),
    **dict.fromkeys(["CLQL_LAWS", "COMPLQL_LAWS", "FAILING_LAWS", "PLS_LAWS"], "a tuple of law names"),
    "Field": "the field tag itself",
    "Scalar": "a type alias",
    "Counterexample": "a record of the operands a search found; it computes nothing",
    "LawReport": "a tally of law verdicts",
    "LawResult": "a tally of law verdicts",
    "o_eq": "== of pairs: answers False across spaces, as == does",
    **dict.fromkeys(
        [
            "norm_sq",
            "identity_on",
            "zero_on",
            "projection_of",
            "subspaces_of",
            "o_neg",
            "o_not",
            "proj_compl",
            "proj_not",
            "pls_negate",
            "pls_zero_of",
            "norm_sq_is_one",
        ],
        ONE_OPERAND,
    ),
}


def test_every_public_name_has_a_row_or_a_reason():
    public = set(orthoql.__all__)
    rowed = {row.name.split(".")[0].split()[0] for row in TABLE}
    assert public - rowed - set(EXEMPT) == set()
    assert (rowed | set(EXEMPT)) - public == set()
    assert rowed & set(EXEMPT) == set()


def _other(field):
    return Field.Qi if field is Field.Q else Field.Q


@pytest.mark.parametrize("row", TABLE, ids=lambda row: row.name)
@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_an_operand_from_another_space_is_refused(row, field):
    kinds = row.kinds.split()
    good = [SAMPLES[k.lstrip(".@")].build(field, N) for k in kinds]
    row.call(*good)
    for i, k in enumerate(kinds):
        if k.startswith("."):
            continue
        kind = SAMPLES[k.lstrip("@")]

        def with_arg(value):
            return lambda: row.call(*good[:i], value, *good[i + 1 :])

        if kind.fielded:
            with pytest.raises(AmbientMismatch):
                with_arg(kind.build(_other(field), N))()
        if kind.sized:
            with pytest.raises(row.expected_dim_error):
                with_arg(kind.build(field, N - 1))()
        if kind.floated is not None and not k.startswith("@"):
            with pytest.raises(TypeError):
                with_arg(kind.floated)()


EQUALITIES = [
    ("Vector.__eq__", "x"),
    ("Matrix.__eq__", "m"),
    ("Subspace.__eq__", "S"),
    ("OrthoSubspace.__eq__", "P"),
    ("PartialOperator.__eq__", "T"),
    ("o_eq", "P"),
]


@pytest.mark.parametrize("name, kind", EQUALITIES, ids=[name for name, _ in EQUALITIES])
def test_equality_answers_false_across_spaces(name, kind):
    eq = o_eq if name == "o_eq" else operator.eq
    build = SAMPLES[kind].build
    assert eq(build(Field.Q, N), build(Field.Q, N))
    assert not eq(build(Field.Q, N), build(Field.Qi, N))
    assert not eq(build(Field.Q, N), build(Field.Q, N - 1))


DIMENSION_CASES = {
    "Subspace(Q, 2.5)": (lambda: Subspace(Field.Q, 2.5), TypeError),
    "Subspace(Qi, 2.0, rows)": (lambda: Subspace(Field.Qi, 2.0, [[1, 0]]), TypeError),
    "Subspace(Q, True)": (lambda: Subspace(Field.Q, True), TypeError),
    "Subspace(Q, -1)": (lambda: Subspace(Field.Q, -1), ValueError),
    "Matrix(Q, -1, -1, [1])": (lambda: Matrix(Field.Q, -1, -1, [1]), ValueError),
    "Matrix(Q, 0, -2, [])": (lambda: Matrix(Field.Q, 0, -2, []), ValueError),
    "Matrix(Q, True, 1, [1])": (lambda: Matrix(Field.Q, True, 1, [1]), TypeError),
    "Matrix(Qi, 1, 1.0, [1])": (lambda: Matrix(Field.Qi, 1, 1.0, [1]), TypeError),
    "Matrix.identity(Q, -1)": (lambda: Matrix.identity(Field.Q, -1), ValueError),
    "Matrix.zero(Q, True, 1)": (lambda: Matrix.zero(Field.Q, True, 1), TypeError),
    "Matrix.zero(Qi, 1, -1)": (lambda: Matrix.zero(Field.Qi, 1, -1), ValueError),
    "find_counterexample(law, True)": (lambda: find_counterexample("distributivity", True), TypeError),
    "find_counterexample(law, 2.0)": (lambda: find_counterexample("distributivity", 2.0), TypeError),
    "find_counterexample(law, -1)": (lambda: find_counterexample("distributivity", -1), ValueError),
    "find_counterexample(law, 4, budget=True)": (
        lambda: find_counterexample("modularity", 4, budget=True),
        TypeError,
    ),
    "find_counterexample(law, 4, budget=2.5)": (
        lambda: find_counterexample("modularity", 4, budget=2.5),
        TypeError,
    ),
    "find_counterexample(law, 4, budget=-1)": (
        lambda: find_counterexample("modularity", 4, budget=-1),
        ValueError,
    ),
    "find_counterexample(law, 1, budget=-1)": (
        lambda: find_counterexample("distributivity", 1, budget=-1),
        ValueError,
    ),
    "check_catalog(law, True, Q)": (lambda: check_catalog("distributivity", True, Field.Q), TypeError),
    "check_catalog(law, -1, Q)": (lambda: check_catalog("distributivity", -1, Field.Q), ValueError),
}


@pytest.mark.parametrize("case", DIMENSION_CASES)
def test_a_dimension_is_a_nonnegative_int(case):
    build, error = DIMENSION_CASES[case]
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("case", [case for case in DIMENSION_CASES if "budget" in case])
def test_a_bad_budget_is_refused_by_name(case):
    """The search budget is refused with a message that names it, not
    with the one for a dimension."""
    build, error = DIMENSION_CASES[case]
    with pytest.raises(error, match="budget"):
        build()
