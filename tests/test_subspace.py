"""Canonical subspaces: lattice operations, distances, orthogonality."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import sub_to_oracle, to_vec
from orthoql.errors import AmbientMismatch, DimensionMismatch
from orthoql import scalars
from orthoql.generators import (
    random_member,
    random_partial_operator,
    random_scalar,
    random_subspace,
    random_vector,
    rng_from,
)
from orthoql.linalg import Matrix, Vector, matrix_inverse, norm_sq
from orthoql.partial_op import compose
from orthoql.scalars import Field, GaussianRational as G
from orthoql.subspace import Subspace, coperp_rel, perp_rel


def q3(*rows):
    return Subspace(Field.Q, 3, rows)


def test_spanning_sets_collapse_to_one_representative():
    assert q3([2, 4, 0]) == q3([1, 2, 0])
    assert q3([1, 0, 0], [1, 1, 0]) == q3([0, 1, 0], [1, 0, 0])
    assert q3([1, 2, 3], [2, 4, 6]).rank == 1
    assert hash(q3([2, 4, 0])) == hash(q3([1, 2, 0]))


small = st.integers(-2, 2)
ENTRIES = {Field.Q: small, Field.Qi: st.builds(G, small, small)}


@st.composite
def spanning_sets(draw):
    """A field, an ambient dimension and up to three spanning rows."""
    field = draw(st.sampled_from([Field.Q, Field.Qi]))
    n = draw(st.integers(1, 4))
    row = st.lists(ENTRIES[field], min_size=n, max_size=n)
    return field, n, draw(st.lists(row, max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spanning_sets(), spanning_sets(), st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_equality_and_hash_are_those_of_the_canonical_basis(case, other, scales):
    field, n, rows = case
    a = Subspace(field, n, rows)
    # Another spanning set of the same space: the rows rescaled and
    # reversed, with the sum of the first two and a zero row added.
    respanned = [[k * e for e in row] for k, row in zip(scales, rows)][::-1]
    respanned += [[x + y for x, y in zip(*rows[:2])]] if len(rows) > 1 else []
    b = Subspace(field, n, respanned + [[0] * n])
    assert a == b and hash(a) == hash(b)
    # Any second space is equal exactly when its canonical basis is.
    c = Subspace(*other[:2], other[2])
    assert (a == c) == (c.field is field and c.ambient_dim == n and c.basis == a.basis)
    assert a != c or hash(a) == hash(c)
    # The same rows padded with a zero coordinate: the zero spaces of
    # two dimensions have the same integer form, and still differ.
    assert a != Subspace(field, n + 1, [row + [0] for row in rows])
    if field is Field.Q:
        assert a != Subspace(Field.Qi, n, rows)


def test_equal_integer_forms_in_different_ambients_differ():
    line, plane = Subspace(Field.Q, 4, [[1, 0, 0, 1]]), Subspace.full(Field.Q, 2)
    assert line._basis_form == plane._basis_form
    assert line != plane and plane != line
    assert Subspace.zero(Field.Q, 2) != Subspace.zero(Field.Q, 3)
    assert Subspace.zero(Field.Q, 2) != Subspace.zero(Field.Qi, 2)


def test_meet_join_perp_known():
    a = q3([1, 0, 0], [0, 1, 0])
    b = q3([0, 1, 0], [0, 0, 1])
    assert a.meet(b) == q3([0, 1, 0])
    assert a.join(b).is_full
    assert a.perp() == q3([0, 0, 1])
    assert q3().perp().is_full
    assert Subspace.full(Field.Q, 3).perp().is_zero


def test_perp_over_gaussians():
    s = Subspace(Field.Qi, 2, [[G(1), G(0, 1)]])
    assert s.perp() == Subspace(Field.Qi, 2, [[G(1), G(0, -1)]])
    # Double complement restores the line.
    assert s.perp().perp() == s


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_perp_is_one_elimination(field, rref_calls):
    rng = rng_from(23)
    w = G(0, 1) if field is Field.Qi else F(1, 2)
    subs = [
        Subspace(field, 4),
        Subspace(field, 4, [[1, w, 0, 2]]),
        Subspace(field, 4, [[0, 1, w, 0], [0, 0, 3, -1]]),
        Subspace(field, 4, [[w, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, w]]),
        Subspace.full(field, 4),
    ] + [random_subspace(rng, field, 4) for _ in range(12)]
    assert {s.rank for s in subs} == {0, 1, 2, 3, 4}
    for s in subs:
        del rref_calls[:]
        comp = s.perp()
        # The bounds swap, read off the ranks: nothing is reduced.
        assert len(rref_calls) == (0 if s.is_full or s.is_zero else 1)
        assert sub_to_oracle(comp) == oracle.s_perp(sub_to_oracle(s), 4)


def _nonzero_scalar(rng, field):
    while True:
        k = random_scalar(rng, field)
        if not scalars.is_zero(k):
            return k


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_span_has_one_canonical_form(field):
    """The span of a built matrix is the span of the same rows given as
    lists, and neither moves when the rows are permuted and each is
    scaled by a nonzero scalar."""
    rng = rng_from(31)
    dependent = 0
    for _ in range(60):
        rows = [random_vector(rng, field, 4) for _ in range(rng.randint(0, 6))]
        span = Subspace(field, 4, Matrix(field, len(rows), 4, [e for r in rows for e in r]))
        assert span == Subspace(field, 4, [list(r) for r in rows])
        moved = [r.scaled(_nonzero_scalar(rng, field)) for r in rng.sample(rows, len(rows))]
        assert Subspace(field, 4, moved) == span
        assert Subspace(field, 4, Matrix(field, len(moved), 4, [e for r in moved for e in r])) == span
        assert sub_to_oracle(span) == oracle.span([to_vec(r) for r in rows], 4)
        dependent += span.rank < len(rows)
    assert dependent > 0


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_lattice_operations_and_compose_build_no_vector(field, vector_builds):
    """meet, join, perp and compose hand matrices from one linear-algebra
    call to the next, with no row taken out as a ``Vector``."""
    rng = rng_from(37)
    subs = [random_subspace(rng, field, 4) for _ in range(10)]
    subs += [
        Subspace.zero(field, 4),
        Subspace(field, 4, [[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 1]]),
        Subspace.full(field, 4),
    ]
    ops = [random_partial_operator(rng, field, 4) for _ in range(6)]
    assert {s.rank for s in subs} == {0, 1, 2, 3, 4}
    del vector_builds[:]
    for a in subs:
        a.perp()
        for b in subs:
            a.meet(b)
            a.join(b)
    for t in ops:
        for u in ops:
            compose(t, u)
    assert vector_builds == []


def test_membership_and_coefficients():
    a = q3([1, 2, 0], [0, 0, 1])
    x = Vector(Field.Q, [F(3), F(6), F(-1)])
    assert a.contains(x)
    # x is 3 times the first basis row minus the second.
    assert a.basis.row(0).scaled(3) - a.basis.row(1) == x
    assert not a.contains(Vector(Field.Q, [F(0), F(1), F(0)]))
    assert q3().contains(Vector(Field.Q, [F(0)] * 3))
    assert not q3().contains(x)


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_first_outside_names_the_first_row_the_oracle_finds_outside(field):
    """Over spaces of every rank, the zero space and the full space
    included, rows that mix members, zero rows and drawn rows: the index
    is that of the first row outside, None when there is none."""
    rng = rng_from(41)
    n = 4

    def draw(sub):
        kind = rng.randrange(3)
        if kind == 0:
            return random_member(rng, sub)
        return Vector(field, [0] * n) if kind == 1 else random_vector(rng, field, n)

    seen = set()
    for r in range(n + 1):
        for _ in range(6):
            sub = _space_of_rank(rng, field, n, r)
            basis = sub_to_oracle(sub)
            for _ in range(5):
                rows = [draw(sub) for _ in range(rng.randint(0, 5))]
                m = Matrix(field, len(rows), n, [e for row in rows for e in row])
                outside = [i for i, x in enumerate(rows) if not oracle.member(basis, to_vec(x), n)]
                want = outside[0] if outside else None
                assert sub._first_outside(m) == want
                if not rows:
                    seen.add("no rows")
                elif want is None:
                    seen.add("all inside")
                elif want == 0:
                    seen.add("at 0")
                else:
                    seen.add("after a member")
                    if any(x.is_zero for x in rows[:want]):
                        seen.add("after a zero row")
    assert seen == {"no rows", "all inside", "at 0", "after a member", "after a zero row"}


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_first_outside_refuses_other_spaces_and_reduces_at_most_once(field, rref_calls):
    other = Field.Qi if field is Field.Q else Field.Q
    plane = Subspace(field, 3, [[1, 0, 0], [0, 1, 1]])
    with pytest.raises(AmbientMismatch):
        plane._first_outside(Matrix.identity(other, 3))
    with pytest.raises(DimensionMismatch):
        plane._first_outside(Matrix.identity(field, 2))
    del rref_calls[:]
    assert plane._first_outside(Matrix(field, 0, 3, [])) is None
    assert Subspace.zero(field, 3).leq(plane)
    assert rref_calls == []
    rows = Matrix.from_rows(field, [[1, 0, 0], [0, 2, 2], [0, 0, 1], [0, 1, 0]])
    assert plane._first_outside(rows) == 2
    assert len(rref_calls) == 1


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_leq_is_at_most_one_reduction(field, rref_calls):
    rng = rng_from(43)
    subs = [_space_of_rank(rng, field, 4, r) for r in range(5) for _ in range(2)]
    for a in subs:
        for b in subs:
            del rref_calls[:]
            assert a.leq(b) == oracle.s_leq(sub_to_oracle(a), sub_to_oracle(b), 4)
            assert len(rref_calls) <= 1


def _bounds_and_planes(field):
    """Fresh operands of field^4, nothing cached on them: the zero space,
    the full space, a plane, and another plane of the same rank."""
    w = G(0, 1) if field is Field.Qi else F(1, 2)
    return {
        "zero": Subspace.zero(field, 4),
        "full": Subspace.full(field, 4),
        "plane": Subspace(field, 4, [[1, w, 0, 2], [0, 1, w, -1]]),
        "other plane": Subspace(field, 4, [[0, 1, 0, w], [1, 0, 3, 0]]),
    }


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_bound_operand_is_read_off_the_ranks(field, rref_calls):
    """Every ordered pair of operands agrees with the oracle, and an
    operation with a zero or full operand reduces nothing; nor does
    ``leq`` between spaces of equal rank."""
    names = list(_bounds_and_planes(field))
    seen = set()
    for x in names:
        for y in names:
            a, b = _bounds_and_planes(field)[x], _bounds_and_planes(field)[y]
            oa, ob = sub_to_oracle(a), sub_to_oracle(b)
            bound = bool({x, y} & {"zero", "full"})
            outside = [i for i, row in enumerate(ob) if not oracle.member(oa, row, 4)]
            orthogonal = oracle.orthogonal(oa, ob)
            cases = [
                ("meet", lambda: sub_to_oracle(a.meet(b)), oracle.s_meet(oa, ob, 4), bound),
                ("join", lambda: sub_to_oracle(a.join(b)), oracle.s_join(oa, ob, 4), bound),
                ("leq", lambda: a.leq(b), oracle.s_leq(oa, ob, 4), bound or a.rank == b.rank),
                ("perp", lambda: sub_to_oracle(a.perp()), oracle.s_perp(oa, 4), x in ("zero", "full")),
                (
                    "first outside",
                    lambda: a._first_outside(b.basis),
                    outside[0] if outside else None,
                    x == "full" or y == "zero",
                ),
                ("perp_rel", lambda: perp_rel(a, b), orthogonal, True),
                ("coperp_rel", lambda: coperp_rel(a, b)[0], not orthogonal, True),
            ]
            for op, compute, want, free in cases:
                del rref_calls[:]
                assert compute() == want, (op, x, y)
                assert not rref_calls if free else rref_calls, (op, x, y)
            if orthogonal:
                assert coperp_rel(a, b) == (False, None)
            if a.rank == b.rank and not bound:
                seen.add("equal" if a == b else "equal rank, not contained")
    # The distinct planes refute a leq that answers True on equal ranks.
    assert seen == {"equal", "equal rank, not contained"}


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_the_full_space_is_the_canonical_identity(field, rref_calls):
    for n in range(4):
        full = Subspace.full(field, n)
        assert rref_calls == []
        spanned = Subspace(field, n, Matrix.identity(field, n))
        assert (full.basis, full.pivots) == (spanned.basis, spanned.pivots)
        assert full == spanned and hash(full) == hash(spanned) and full.is_full
        assert repr(full) == repr(spanned)
        del rref_calls[:]


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_membership_builds_no_vector(field, vector_builds):
    rng = rng_from(47)
    subs = [_space_of_rank(rng, field, 4, r) for r in range(5) for _ in range(2)]
    xs = [random_vector(rng, field, 4) for _ in range(3)] + [random_member(rng, s) for s in subs]
    del vector_builds[:]
    for a in subs:
        assert [a.contains(x) for x in xs] == [Subspace(field, 4, [x]).leq(a) for x in xs]
        for b in subs:
            a.leq(b)
    assert vector_builds == []


def test_distance_known():
    line = q3([1, 0, 0])
    x = Vector(Field.Q, [F(2), F(3), F(0)])
    assert line.distance_sq(x) == F(9)
    assert line.project(x) == Vector(Field.Q, [F(2), F(0), F(0)])
    assert Subspace.full(Field.Q, 3).distance_sq(x) == F(0)
    assert q3().distance_sq(x) == norm_sq(x)


def test_projector_shape():
    diag = q3([1, 1, 0])
    p = diag.projector
    assert p @ p == p
    assert p.conj_transpose() == p
    x = Vector(Field.Q, [F(1), F(1), F(0)])
    assert p @ x == x


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_projector_matches_the_inverse_route_and_the_oracle(field):
    rng = rng_from(62)
    w = G(0, 1) if field is Field.Qi else F(1, 2)
    subs = [
        Subspace(field, 3),
        Subspace(field, 3, [[1, w, 2]]),
        Subspace(field, 3, [[1, 0, w], [0, 3, -1]]),
        Subspace.full(field, 3),
    ] + [random_subspace(rng, field, 3) for _ in range(16)]
    assert {s.rank for s in subs} == {0, 1, 2, 3}
    for sub in subs:
        p = sub.projector
        # B has the basis as columns; B^H is the conjugated basis.
        b, bh = sub.basis.transpose(), sub.basis.conj()
        assert p == b @ matrix_inverse(bh @ b) @ bh
        basis = sub_to_oracle(sub)
        for j in range(3):
            e = tuple(oracle.num(1 if i == j else 0) for i in range(3))
            assert to_vec(p.transpose().row(j)) == oracle.project_onto(e, basis, 3)


def test_lattice_matches_oracle():
    rng = rng_from(101)
    for field, dim in ((Field.Q, 3), (Field.Q, 4), (Field.Qi, 3)):
        for _ in range(30):
            a = random_subspace(rng, field, dim)
            b = random_subspace(rng, field, dim)
            oa, ob = sub_to_oracle(a), sub_to_oracle(b)
            assert sub_to_oracle(a.meet(b)) == oracle.s_meet(oa, ob, dim)
            assert sub_to_oracle(a.join(b)) == oracle.s_join(oa, ob, dim)
            assert sub_to_oracle(a.perp()) == oracle.s_perp(oa, dim)
            assert a.leq(b) == oracle.s_leq(oa, ob, dim)
            x = random_vector(rng, field, dim)
            assert a.contains(x) == oracle.member(oa, to_vec(x), dim)


def test_distance_matches_oracle():
    rng = rng_from(7)
    for _ in range(40):
        dim = rng.randint(1, 4)
        sub = random_subspace(rng, Field.Q, dim)
        x = random_vector(rng, Field.Q, dim)
        assert sub.distance_sq(x) == oracle.distance_sq(
            to_vec(x), sub_to_oracle(sub), dim
        )


def test_everything_is_located_at_finite_dimension():
    rng = rng_from(55)
    for _ in range(25):
        sub = random_subspace(rng, Field.Q, 4)
        assert sub.is_located_total()
        assert sub.meet(sub.perp()).is_zero
        assert sub.join(sub.perp()).is_full


def test_orthogonality_relations():
    assert perp_rel(q3([1, 0, 0]), q3([0, 1, 0]))
    assert perp_rel(q3(), q3([1, 2, 3]))
    assert not perp_rel(q3([1, 0, 0]), q3([1, 1, 0]))
    apart, witness = coperp_rel(
        Subspace(Field.Q, 2, [[1, 0]]), Subspace(Field.Q, 2, [[1, 1]])
    )
    assert apart
    x, y = witness
    assert x == Vector(Field.Q, [F(1), F(0)]) and y == Vector(Field.Q, [F(1), F(1)])
    no, nothing = coperp_rel(q3([1, 0, 0]), q3([0, 0, 1]))
    assert not no and nothing is None


def _space_of_rank(rng, field, n, r, within=None):
    """A subspace of field^n of rank r, spanned by drawn rows, or by
    drawn combinations of ``within``'s basis rows; over Q(i) every drawn
    scalar has a nonzero imaginary part."""

    def scalar():
        re = rng.choice([-2, -1, 1, 2])
        return G(re, rng.choice([-2, -1, 1, 2])) if field is Field.Qi else F(re)

    rows, space = [], Subspace(field, n)
    while space.rank < r:
        if within is None:
            rows.append([scalar() for _ in range(n)])
        else:
            combo = Vector(field, [0] * n)
            for b in within.basis.rows():
                combo = combo + b.scaled(scalar())
            rows.append(list(combo))
        space = Subspace(field, n, rows)
    return space


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_orthogonality_matches_the_oracle(field):
    # Every pair of ranks in dimensions 0-4, with b drawn freely, inside
    # a's orthocomplement, or as a mix of both, plus pairs whose first
    # basis rows are orthogonal.  The witness must be the first basis
    # pair, row-major, with a nonzero inner product.
    rng = rng_from(131)
    w = G(0, 1) if field is Field.Qi else F(1, 2)
    cases = [
        (Subspace(field, 3, [[1, 0, 0], [0, 1, 0]]), Subspace(field, 3, [[0, 1, w]])),
        (Subspace(field, 3, [[1, 0, w]]), Subspace(field, 3, [[0, 1, 0], [0, 0, 1]])),
    ]
    for n in range(5):
        for ra in range(n + 1):
            a = _space_of_rank(rng, field, n, ra)
            comp = a.perp()
            for rb in range(n + 1):
                mixed = _space_of_rank(rng, field, n, min(rb, 1, comp.rank), comp).join(
                    _space_of_rank(rng, field, n, max(rb - 1, 0))
                )
                cases += [
                    (a, _space_of_rank(rng, field, n, rb)),
                    (a, _space_of_rank(rng, field, n, min(rb, comp.rank), comp)),
                    (a, mixed),
                ]
    seen = set()
    for a, b in cases:
        oa, ob = sub_to_oracle(a), sub_to_oracle(b)
        pairs = [(i, j) for i in range(len(oa)) for j in range(len(ob))]
        hits = [(i, j) for i, j in pairs if not oracle.ciszero(oracle.inner(oa[i], ob[j]))]
        assert perp_rel(a, b) == oracle.orthogonal(oa, ob) == (not hits)
        apart, witness = coperp_rel(a, b)
        assert apart == bool(hits)
        if not hits:
            assert witness is None
            seen.add("orthogonal" if a.rank and b.rank else "trivial")
            continue
        i, j = hits[0]
        assert (to_vec(witness[0]), to_vec(witness[1])) == (oa[i], ob[j])
        seen.add("first is not last" if hits[0] != hits[-1] else "one witness")
        seen.add("first is not (0, 0)" if hits[0] != (0, 0) else "at (0, 0)")
    assert seen == {
        "orthogonal", "trivial", "first is not last", "one witness", "first is not (0, 0)", "at (0, 0)"
    }


def test_operator_sugar():
    a = q3([1, 0, 0])
    b = q3([0, 1, 0])
    assert (a | b) == q3([1, 0, 0], [0, 1, 0])
    assert (a & b).is_zero
    assert a <= (a | b)
    assert (a | b) >= b


def test_ambient_checks():
    with pytest.raises(AmbientMismatch):
        q3([1, 0, 0]).meet(Subspace(Field.Q, 2, [[1, 0]]))
    with pytest.raises(AmbientMismatch):
        q3([1, 0, 0]).join(Subspace(Field.Qi, 3, [[G(1), G(0), G(0)]]))


def test_zero_ambient_dimension():
    z = Subspace(Field.Q, 0)
    assert z.is_zero and z.is_full
    assert z.perp() == z
    assert z.contains(Vector(Field.Q, []))
