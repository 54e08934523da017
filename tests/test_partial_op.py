"""Partial operators and projections: splitting, apartness, composition,
order, commutation, and the operator algebra."""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import conjugated, form_values, sub_to_oracle, to_mat, to_num, to_vec
from draws import random_member, random_partial_projection
from orthoql.errors import AmbientMismatch, NotInDomain
from orthoql.generators import (
    cayley_unitary,
    commuting_pairs,
    ordered_ortho_pairs,
    orthogonal_total_pair,
    random_ortho,
    random_partial_operator,
    random_scalar,
    random_subspace,
    rng_from,
)
from orthoql.laws import check_pls
from orthoql.linalg import Matrix, Vector, null_space
from orthoql.ortho import (
    OrthoSubspace,
    o_eq,
    o_iff,
    o_join,
    o_leq,
    o_minus,
    o_neg,
    o_not,
    o_perp,
)
from orthoql.partial_op import (
    PartialOperator,
    PartialProjection,
    check_order,
    commuting_calculus,
    compose,
    cor7_calculus,
    decompose,
    identity_on,
    norm_sq_is_one,
    op_eq,
    op_eq_witness,
    op_neq,
    pls_add,
    pls_negate,
    pls_scale,
    pls_zero_of,
    proj_compl,
    proj_iff,
    proj_implies,
    proj_join,
    proj_leq,
    proj_meet,
    proj_minus,
    proj_not,
    proj_orthogonal,
    projection_of,
    subspaces_of,
    total_identity,
    total_zero,
    zero_on,
    _apply,
    _first_difference,
    _raw_sum_covers,
)
from orthoql.scalars import Field, GaussianRational as G, scalar_text
from orthoql.subspace import Subspace, _shared_results


def qs(*rows):
    return Subspace(Field.Q, 3, rows)


def qv(*entries):
    return Vector(Field.Q, [F(e) for e in entries])


# A strictly partial pair, a total pair above it, and a partial pair for
# the splitting examples.
L = OrthoSubspace(qs([1, 0, 0]), qs([0, 1, 0], [0, 0, 1]))
M = OrthoSubspace(qs([1, 0, 0], [0, 1, 0]), qs([0, 0, 1]))
HALF = OrthoSubspace(qs([1, 0, 0]), qs([0, 1, 0]))


# --- construction and canonical storage ---------------------------------

def test_matrix_is_stored_up_to_domain():
    dom = qs([1, 0, 0])
    a = PartialOperator.from_matrix(dom, Matrix.identity(Field.Q, 3))
    m = Matrix.from_rows(Field.Q, [[1, 5, -2], [0, 7, 0], [0, 0, 3]])
    b = PartialOperator.from_matrix(dom, m)
    # Both act as the identity on the domain, so they are the same map.
    assert op_eq(a, b)
    assert a.matrix == b.matrix


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_equal_operators_built_from_different_matrices_hash_alike(field):
    rng = rng_from(97)
    for dom in domains(field):
        off = random_matrix(rng, field) @ (Matrix.identity(field, 3) - dom.projector)
        a = PartialOperator.from_matrix(dom, random_matrix(rng, field))
        b = PartialOperator.from_matrix(Subspace(field, 3, dom.basis.rows()), a.matrix + off)
        assert a == b and hash(a) == hash(b)


def test_operators_on_different_ambient_spaces_compare_unequal():
    # ``==`` compares (domain, images), as ``__hash__`` does and as the
    # equality of subspaces and pairs does, so another field or dimension
    # makes another operator.  ``op_eq`` keeps raising on that mismatch.
    ops = [total_identity(Field.Q, 2), total_identity(Field.Q, 3), total_identity(Field.Qi, 2)]
    for i, t in enumerate(ops):
        assert ops.index(t) == i
        for j, u in enumerate(ops):
            assert (t == u) is (i == j) and (t != u) is (i != j)
            assert (t.dom == u.dom) is (i == j) and (t.pair == u.pair) is (i == j)
            if i != j:
                with pytest.raises(AmbientMismatch):
                    op_eq(t, u)
    assert total_zero(Field.Q, 2) not in ops
    rebuilt = PartialOperator.from_matrix(Subspace.full(Field.Qi, 2), Matrix.identity(Field.Qi, 2))
    assert rebuilt in ops and ops.index(rebuilt) == 2


def test_building_operators_computes_no_projector_of_a_domain(gram_solve_calls):
    # An operator is its domain plus images, and a projection whose pair
    # has a zero part has the basis or zero as its images, so nothing
    # here solves the Gram system of any domain, operand or result.  A
    # projection with both parts nonzero takes its images from one Gram
    # solve of its one-part, and of nothing else.  Each builder makes
    # fresh operands, so no solve kept by an earlier one is read.
    m = Matrix.from_rows(Field.Q, [[1, 2, 0], [0, 1, 0], [3, 0, 1]])

    def plane():
        return qs([1, 2, 0], [0, 1, 1])

    def other():
        return qs([1, 0, 0], [0, 0, 1])

    def combined(combine):
        t, u = PartialOperator.from_matrix(plane(), m), PartialOperator.from_matrix(other(), m)
        assert t.dom != u.dom
        return [t, u, combine(t, u)]

    builders = {
        "identity_on": lambda: [identity_on(plane())],
        "zero_on": lambda: [zero_on(plane())],
        "PartialOperator": lambda: [PartialOperator.from_matrix(plane(), m)],
        "PartialProjection": lambda: [
            PartialProjection.from_matrix(plane(), Matrix.identity(Field.Q, 3))
        ],
        "both parts nonzero": lambda: [
            PartialProjection(OrthoSubspace(qs([1, 2, 0]), qs([2, -1, 0], [0, 0, 1])))
        ],
        "compose": lambda: combined(compose),
        "pls_add": lambda: combined(pls_add),
    }
    for name, build in builders.items():
        del gram_solve_calls[:]
        ops = build()
        assert [t.dom._gram for t in ops] == [None] * len(ops), name
        one_parts = [t.pair.one for t in ops if isinstance(t, PartialProjection)]
        solved = [a for a in one_parts if a._gram is not None]
        assert len(gram_solve_calls) == len(solved) == (name == "both parts nonzero"), name
        assert all(t.pair.zero._gram is None for t in ops if isinstance(t, PartialProjection)), name


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_images_of_another_shape_or_field_are_rejected(field):
    other = Field.Qi if field is Field.Q else Field.Q
    for dom in domains(field):
        r, n = dom.rank, dom.ambient_dim
        wrong = [
            Matrix.zero(field, r + 1, n),
            Matrix.zero(field, r, n + 1),
            Matrix.zero(field, r, n - 1),
            Matrix.zero(other, r, n),
        ]
        if r < n:
            # An ambient matrix is images only on the full space.
            wrong.append(Matrix.identity(field, n))
        for images in wrong:
            with pytest.raises(AmbientMismatch, match="images"):
                PartialOperator(dom, images)
        general = PartialOperator.from_matrix(dom, Matrix.zero(field, n, n))
        assert_same_operator(PartialOperator(dom, Matrix.zero(field, r, n)), general)
    with pytest.raises(
        AmbientMismatch, match=r"^3x3 Q images on a rank 1 Q domain in ambient dimension 3$"
    ):
        PartialOperator(qs([1, 0, 0]), Matrix.identity(Field.Q, 3))


def test_from_matrix_keeps_its_messages_and_its_class():
    dom = qs([1, 0, 0])
    for cls in (PartialOperator, PartialProjection):
        with pytest.raises(AmbientMismatch, match=r"^2x3 matrix on ambient dimension 3$"):
            cls.from_matrix(dom, Matrix.zero(Field.Q, 2, 3))
        with pytest.raises(AmbientMismatch, match=r"^3x2 matrix on ambient dimension 3$"):
            cls.from_matrix(dom, Matrix.zero(Field.Q, 3, 2))
        with pytest.raises(AmbientMismatch, match=r"^Qi matrix over Q domain$"):
            cls.from_matrix(dom, Matrix.zero(Field.Qi, 3, 3))
        assert type(cls.from_matrix(dom, Matrix.identity(Field.Q, 3))) is cls


def built_projections(field, n):
    """Projections from every constructor that builds one from a pair:
    on every split of field^n along its axes, and on drawn pairs."""
    rng = rng_from(83 + n)
    axes = [list(r) for r in Matrix.identity(field, n).rows()]
    pairs = [
        OrthoSubspace(Subspace(field, n, axes[:a]), Subspace(field, n, axes[a:b]))
        for a in range(n + 1)
        for b in range(a, n + 1)
    ]
    pairs += [random_ortho(rng, field, n) for _ in range(8)]
    out = []
    for pair, other in zip(pairs, pairs[1:] + pairs[:1]):
        p, q = projection_of(pair), projection_of(other)
        out += [p, proj_compl(p), identity_on(p.dom), zero_on(p.dom)]
        out += [proj_meet(p, q), proj_join(p, q), proj_meet(q, proj_compl(p))]
    return out


def test_projection_constructors_run_the_projection_checks():
    # The projection checks run only in from_matrix; every projection a
    # constructor builds from its pair must pass them, and the pair read
    # back off its images must be the stored one.
    ranks = set()
    for field in (Field.Q, Field.Qi):
        for n in range(5):
            for q in built_projections(field, n):
                again = PartialProjection.from_matrix(q.dom, q.matrix)
                assert o_eq(again.pair, q.pair)
                assert_same_operator(again, q)
                ranks.add((field, n, q.pair.one.rank, q.pair.zero.rank))
    # Every split of every dimension turns up, over both fields.
    splits = {(n, a, b) for n in range(5) for a in range(n + 1) for b in range(n + 1 - a)}
    assert ranks == {(f, *split) for f in (Field.Q, Field.Qi) for split in splits}


def test_application_respects_the_domain():
    t = identity_on(qs([1, 0, 0], [0, 1, 0]))
    assert t(qv(2, 3, 0)) == qv(2, 3, 0)
    with pytest.raises(NotInDomain):
        t(qv(0, 0, 1))
    assert total_identity(Field.Q, 3).is_total
    assert not t.is_total


# --- splitting along a pair ----------------------------------------------

def test_split_known_vector():
    one_part, zero_part = decompose(HALF, qv(2, 3, 0))
    assert one_part == qv(2, 0, 0)
    assert zero_part == qv(0, 3, 0)
    with pytest.raises(NotInDomain):
        decompose(HALF, qv(0, 0, 1))


def test_split_matches_oracle():
    rng = rng_from(3)
    for _ in range(40):
        pair = random_ortho(rng, Field.Q, 3)
        x = random_member(rng, pair.dom)
        l1, l0 = decompose(pair, x)
        assert l1 + l0 == x
        assert pair.one.contains(l1) and pair.zero.contains(l0)
        want = oracle.decompose(
            sub_to_oracle(pair.one), sub_to_oracle(pair.zero), to_vec(x), 3
        )
        assert want is not None
        assert (to_vec(l1), to_vec(l0)) == want


# --- the pair/projection correspondence ----------------------------------

def test_roundtrips_both_ways():
    rng = rng_from(19)
    for field in (Field.Q, Field.Qi):
        for _ in range(25):
            pair = random_ortho(rng, field, 3)
            p = projection_of(pair)
            # Read the pair back off the validated images, not off p.
            back = subspaces_of(PartialProjection.from_matrix(p.dom, p.matrix))
            assert o_eq(back, pair)
            assert op_eq(projection_of(back), p)
            assert pair.is_total == p.is_total


def test_an_accepted_matrix_reads_its_pair_unchecked(coperp_calls):
    """The three projection checks make the parts read off the images
    orthogonal, so ``from_matrix`` proves no orthogonality again; the
    session-wide pair contract asserts it."""
    for field in (Field.Q, Field.Qi):
        projections = built_projections(field, 3)
        del coperp_calls[:]
        for q in projections:
            assert PartialProjection.from_matrix(q.dom, q.matrix).pair == q.pair
        assert coperp_calls == []


CLOSURE = "map its domain into itself"
IDEMPOTENT = "idempotent on its domain"
SELF_ADJOINT = "self-adjoint on its domain"
I = G(0, 1)

# One matrix per rejected property, over Q and over Q(i), on the plane
# spanned by e1 and e2.
REJECTED = [
    # e1 leaves the plane.
    (Field.Q, [[0, 0, 0], [0, 0, 0], [1, 0, 0]], CLOSURE),
    # Scaling by 2 keeps the plane but is not idempotent.
    (Field.Q, [[2, 0, 0], [0, 2, 0], [0, 0, 0]], IDEMPOTENT),
    # A quarter turn keeps the plane; its square is -1 there.
    (Field.Q, [[0, -1, 0], [1, 0, 0], [0, 0, 0]], IDEMPOTENT),
    # The shear e2 -> e1 is an oblique, not an orthogonal, projection.
    (Field.Q, [[1, 1, 0], [0, 0, 0], [0, 0, 0]], SELF_ADJOINT),
    (Field.Qi, [[0, 0, 0], [0, 0, 0], [I, 0, 0]], CLOSURE),
    # Multiplication by i: its square is -1 on the plane.
    (Field.Qi, [[I, 0, 0], [0, I, 0], [0, 0, 0]], IDEMPOTENT),
    (Field.Qi, [[1, I, 0], [0, 0, 0], [0, 0, 0]], SELF_ADJOINT),
    # v v^T / (v^T v) for v = (2, i): idempotent and symmetric, not Hermitian.
    (Field.Qi, [[F(4, 3), F(2, 3) * I, 0], [F(2, 3) * I, F(-1, 3), 0], [0, 0, 0]], SELF_ADJOINT),
]


def test_projection_validation():
    for field, rows, message in REJECTED:
        dom = Subspace(field, 3, [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match=message):
            PartialProjection.from_matrix(dom, Matrix.from_rows(field, rows))
    # The identity on a line passes all three checks.
    line = Subspace(Field.Q, 3, [[1, 0, 0]])
    accepted = PartialProjection.from_matrix(line, Matrix.identity(Field.Q, 3))
    assert accepted.matrix == Matrix.from_rows(Field.Q, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_projection_validation_checks_every_basis_vector():
    # The first basis vector (1, 1, 0) is fixed; the second, e3, is sent
    # to e1, outside the domain.
    dom = Subspace(Field.Q, 3, [[1, 1, 0], [0, 0, 1]])
    m = Matrix.from_rows(Field.Q, [[F(1, 2), F(1, 2), 1], [F(1, 2), F(1, 2), 0], [0, 0, 0]])
    with pytest.raises(ValueError, match=CLOSURE):
        PartialProjection.from_matrix(dom, m)
    # Over Q(i): (1, i, 0) is fixed, e3 is sent to e1, outside the domain.
    dom = Subspace(Field.Qi, 3, [[1, I, 0], [0, 0, 1]])
    half = F(1, 2)
    m = Matrix.from_rows(
        Field.Qi, [[half, -half * I, 1], [half * I, half, 0], [0, 0, 0]]
    )
    with pytest.raises(ValueError, match=CLOSURE):
        PartialProjection.from_matrix(dom, m)
    # Over Q^4: e1 and e2 are fixed, the third basis vector e3 goes to e4.
    dom = Subspace(Field.Q, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    with pytest.raises(ValueError, match=CLOSURE):
        PartialProjection.from_matrix(dom, Matrix.from_rows(Field.Q, rows))


def test_validation_reports_the_first_failing_basis_vector():
    # Column by column, closure before idempotence: e1 -> 2 e1 breaks
    # idempotence first, e2 -> e3 breaks closure only on the second column.
    dom = qs([1, 0, 0], [0, 1, 0])
    rows = [[2, 0, 0], [0, 0, 0], [0, 1, 0]]
    with pytest.raises(ValueError, match=IDEMPOTENT):
        PartialProjection.from_matrix(dom, Matrix.from_rows(Field.Q, rows))
    rows = [[0, 0, 0], [0, 2, 0], [1, 0, 0]]
    with pytest.raises(ValueError, match=CLOSURE):
        PartialProjection.from_matrix(dom, Matrix.from_rows(Field.Q, rows))


def test_proj_compl_refuses_a_plain_operator():
    # A plain operator has no pair, even when its images are those of a
    # projection, so it has no complement projection.
    dom = Subspace(Field.Q, 3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(AttributeError):
        proj_compl(PartialOperator(dom, dom.basis))


# --- special constructors against the general one --------------------------

def domains(field):
    """A zero, a line, a plane and the full space of field^3."""
    w = I if field is Field.Qi else F(1, 2)
    return [
        Subspace(field, 3),
        Subspace(field, 3, [[1, w, 2]]),
        Subspace(field, 3, [[1, 0, w], [0, 3, -1]]),
        Subspace.full(field, 3),
    ]


def pairs_on(dom):
    """Orthogonal pairs whose domain is ``dom``."""
    zero = Subspace.zero(dom.field, dom.ambient_dim)
    pairs = [OrthoSubspace(dom, zero), OrthoSubspace(zero, dom)]
    if dom.rank:
        line = Subspace(dom.field, dom.ambient_dim, [dom.basis.row(0)])
        pairs.append(OrthoSubspace(line, line.perp().meet(dom)))
    return pairs


def random_matrix(rng, field):
    return Matrix(field, 3, 3, [random_scalar(rng, field) for _ in range(9)])


def assert_same_operator(built, general):
    """Same class, same domain, and the same exact images and matrix
    entries, text included."""
    assert type(built) is type(general)
    assert built.dom == general.dom
    for got, want in ((built.images, general.images), (built.matrix, general.matrix)):
        assert got == want
        assert [scalar_text(e) for e in got.entries] == [scalar_text(e) for e in want.entries]


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_projection_constructors_match_the_general_path(field):
    for dom in domains(field):
        general = PartialProjection.from_matrix
        assert_same_operator(identity_on(dom), general(dom, Matrix.identity(field, 3)))
        assert_same_operator(zero_on(dom), general(dom, Matrix.zero(field, 3, 3)))
        for pair in pairs_on(dom):
            assert pair.dom == dom
            p = projection_of(pair)
            assert_same_operator(p, general(pair.dom, pair.one.projector))
            assert_same_operator(proj_compl(p), general(p.dom, p.dom.projector - p.matrix))


def kernel_pair(p):
    """The pair of ``p`` by the kernel definition: the fixed space is
    null(M - I) and the zero part is null(M) inside the domain."""
    n = p.ambient_dim
    one = Subspace(p.field, n, null_space(p.matrix - Matrix.identity(p.field, n)).rows())
    return one, Subspace(p.field, n, null_space(p.matrix).rows()).meet(p.dom)


def general_projections(field):
    """Projections built by ``PartialProjection.from_matrix(dom, M)`` on
    a zero, a line, a plane and the full domain: from the one-part's
    projector plus a term that vanishes on the domain, and the same
    pushed through a unitary."""
    rng = rng_from(67)
    out = []
    for dom in domains(field):
        off = Matrix.identity(field, 3) - dom.projector
        for pair in pairs_on(dom):
            p = PartialProjection.from_matrix(dom, pair.one.projector + off)
            out += [p, conjugated(p, cayley_unitary(rng, field, 3))]
    return out


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_pair_read_off_images_matches_the_kernel_definition(field):
    rng = rng_from(71)
    projections = general_projections(field) + [
        random_partial_projection(rng, field, 3, total=bool(i % 2)) for i in range(12)
    ]
    ranks = set()
    for p in projections:
        one, zero = kernel_pair(p)
        pair = subspaces_of(p)
        assert pair.one == one and pair.zero == zero
        assert pair.dom == p.dom
        ranks.add(p.dom.rank)
    assert ranks == {0, 1, 2, 3}


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_linear_structure_constructors_match_the_general_path(field):
    rng = rng_from(61)
    doms = domains(field)
    for dom in doms:
        general = PartialOperator.from_matrix
        t = general(dom, random_matrix(rng, field))
        for k in (random_scalar(rng, field), field.zero):
            assert_same_operator(pls_scale(k, t), general(t.dom, t.matrix.scaled(k)))
        assert_same_operator(pls_negate(t), general(t.dom, -t.matrix))
        # Equal domains held by a distinct object, then by the same object:
        # the sum keeps the first operand's domain.
        twin = Subspace(field, 3, dom.basis.rows())
        assert twin == dom and twin is not dom
        for other in (twin, dom):
            u = general(other, random_matrix(rng, field))
            s = pls_add(t, u)
            assert_same_operator(s, general(dom.meet(other), t.matrix + u.matrix))
            assert s.dom is t.dom
        # Unequal domains meet.
        for other in doms:
            if other != dom:
                u = general(other, random_matrix(rng, field))
                assert_same_operator(pls_add(t, u), general(dom.meet(other), t.matrix + u.matrix))


def int_form(field, rows):
    """An integer form of the entries of ``rows``: their numerators over
    twice a common denominator, so that the form is not primitive."""
    parts = [part for e in rows.entries for part in to_num(e)[: 1 if field is Field.Q else 2]]
    den = 2 * lcm(*(part.denominator for part in parts))
    return den, [part.numerator * (den // part.denominator) for part in parts]


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_values_read_off_images_match_the_matrix(field):
    # ``_apply`` takes rows as an integer form and gives their values as
    # one.  Rows in the domain, rows off it, and no rows at all: the
    # values are those of the ambient matrix.
    rng = rng_from(83)
    for dom in domains(field):
        ops = [PartialOperator.from_matrix(dom, random_matrix(rng, field))]
        ops += [projection_of(pair) for pair in pairs_on(dom)]
        for t in ops:
            for rows in (dom.basis, random_matrix(rng, field), Matrix(field, 0, 3, [])):
                want = tuple(map(to_num, (rows @ t.matrix.transpose()).entries))
                assert form_values(field, *_apply(t, int_form(field, rows))) == want
            for x in dom.basis.rows():
                assert t(x) == t.matrix @ x


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_every_route_to_an_operator_stores_one_primitive_form(field):
    # The same operator reached by different routes: the general and
    # public constructors, the linear structure, composition with an
    # identity, and projections of equal pairs.  Composition and a sum
    # with a scaled-away copy build non-primitive forms first.
    k = I if field is Field.Qi else F(2, 3)
    for dom in domains(field):
        for pair in pairs_on(dom):
            p = projection_of(pair)
            routes = [
                PartialOperator.from_matrix(dom, pair.one.projector),
                PartialProjection.from_matrix(dom, pair.one.projector),
                PartialOperator(dom, p.images),
                projection_of(OrthoSubspace(pair.one, pair.zero)),
                pls_add(p, zero_on(dom)),
                pls_add(p, pls_scale(0, p)),
                pls_scale(1, p),
                pls_scale(1 / k, pls_scale(k, p)),
                pls_negate(pls_negate(p)),
                compose(identity_on(dom), p),
                compose(p, identity_on(dom)),
                compose(total_identity(field, 3), p),
            ]
            for t in routes:
                assert (t.dom, t.den, t.nums) == (p.dom, p.den, p.nums)
                assert t == p and hash(t) == hash(p)
                assert t.den > 0 and gcd(t.den, *t.nums) == 1
            width = 1 if field is Field.Q else 2
            assert len(p.nums) == width * dom.rank * 3


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_the_operator_algebra_never_yields_a_projection(field):
    # Each result below is a projection as a map, yet stays a plain
    # operator: a PartialProjection is built only from its pair, or by
    # from_matrix.
    for dom in domains(field):
        for pair in pairs_on(dom):
            p = projection_of(pair)
            built = [
                (PartialOperator(p.dom, p.images), p),
                (pls_add(p, zero_on(dom)), p),
                (pls_scale(1, p), p),
                (pls_negate(pls_negate(p)), p),
                (compose(p, p), p),
                (pls_zero_of(p), zero_on(dom)),
            ]
            for t, want in built:
                assert type(t) is PartialOperator and op_eq(t, want)


# --- equality and apartness ----------------------------------------------

@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_membership_in_operators_builds_no_vector_but_the_witness(field, vector_builds):
    """``from_matrix`` decides closure with no ``Vector``, whether it
    accepts or rejects, and ``op_eq_witness`` builds only the witness it
    returns."""
    rng = rng_from(53)
    doms = [random_ortho(rng, field, 3).dom for _ in range(4)]
    cases = [(p.dom, p.matrix) for p in (random_partial_projection(rng, field, 3) for _ in range(6))]
    plane = Subspace(field, 3, [[1, 0, 0], [0, 1, 0]])
    cases += [(plane, Matrix.from_rows(field, rows)) for f, rows, _ in REJECTED if f is field]
    ops = [random_partial_operator(rng, field, 3) for _ in range(4)]
    ops += [make(d) for d in doms for make in (zero_on, identity_on)]
    del vector_builds[:]
    outcomes = set()
    for dom, m in cases:
        try:
            PartialProjection.from_matrix(dom, m)
            outcomes.add("accepted")
        except ValueError as e:
            outcomes.add(next(m for m in (CLOSURE, IDEMPOTENT, SELF_ADJOINT) if m in str(e)))
    assert outcomes == {"accepted", CLOSURE, IDEMPOTENT, SELF_ADJOINT}
    assert vector_builds == []
    kinds = set()
    for t in ops:
        for u in ops:
            del vector_builds[:]
            w = op_eq_witness(t, u)
            assert vector_builds == ([] if w is None else [w[1]])
            assert all(v is w[1] for v in vector_builds)
            kinds.add(None if w is None else w[0])
    assert kinds == {None, "domain", "value"}


def test_apartness_finds_a_domain_witness():
    t = zero_on(qs([1, 0, 0], [0, 1, 0]))
    u = zero_on(qs([1, 0, 0], [0, 0, 1]))
    apart, witness = op_neq(t, u)
    assert apart and witness == qv(0, 1, 0)
    assert not op_eq(t, u)


def test_the_first_witness_is_the_first_basis_row():
    # Two basis rows witness in each case; the answer is the first in
    # the canonical (RREF) order of the basis that is scanned.
    full, line = qs([1, 0, 0], [0, 1, 0], [0, 0, 1]), qs([1, 0, 0])
    plane = qs([1, 0, 1], [0, 1, 1])
    # Both basis rows of the plane lie outside the line and outside the
    # zero space, and both rows of the line's orthocomplement are
    # orthogonal to the line.
    assert op_eq_witness(zero_on(plane), zero_on(line)) == ("domain", qv(1, 0, 1))
    assert op_eq_witness(zero_on(qs()), zero_on(plane)) == ("domain", qv(1, 0, 1))
    assert op_eq_witness(identity_on(plane), zero_on(plane)) == ("value", qv(1, 0, 1))
    assert op_neq(zero_on(full), zero_on(line)) == (True, qv(0, 1, 0))
    assert op_neq(zero_on(line), zero_on(full)) == (True, qv(0, 1, 0))
    assert op_neq(identity_on(plane), zero_on(plane)) == (True, qv(1, 0, 1))


def test_apartness_finds_a_value_witness():
    t = total_zero(Field.Q, 3)
    u = total_identity(Field.Q, 3)
    apart, witness = op_neq(t, u)
    assert apart and witness == qv(1, 0, 0)
    assert t.matrix @ witness != u.matrix @ witness


def test_equality_and_apartness_can_both_decline():
    t = zero_on(Subspace(Field.Q, 2, [[1, 0]]))
    u = zero_on(Subspace(Field.Q, 2, [[1, 1]]))
    assert not op_eq(t, u)
    apart, witness = op_neq(t, u)
    assert not apart and witness is None


def test_apartness_is_extensional():
    rng = rng_from(41)
    for _ in range(30):
        t = random_partial_operator(rng, Field.Q, 3)
        u = random_partial_operator(rng, Field.Q, 3)
        noise = Matrix.identity(Field.Q, 3) - u.dom.projector
        v = PartialOperator.from_matrix(u.dom, u.matrix + noise)
        assert op_eq(u, v)
        if op_neq(t, u)[0]:
            assert op_neq(t, v)[0]


def test_zero_assignment_is_strongly_extensional():
    rng = rng_from(59)
    for _ in range(30):
        t = random_partial_operator(rng, Field.Q, 3)
        u = random_partial_operator(rng, Field.Q, 3)
        if op_neq(pls_zero_of(t), pls_zero_of(u))[0]:
            assert op_neq(t, u)[0]


def first_difference_by_vector(a, b, basis):
    for v in basis.rows():
        if a @ v != b @ v:
            return v
    return None


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_first_difference_matches_a_per_vector_loop(field):
    # b differs from a only off the span of the first k basis rows, so
    # the first differing row is row k, for every k including none.  As
    # total operators, a and b are the matrices themselves, so the loop
    # over matrix-vector products stays the reference.
    rng = rng_from(89)
    full = Subspace.full(field, 3)
    positions = set()
    for dom in domains(field):
        for k in range(dom.rank + 1):
            a = random_matrix(rng, field)
            kept = Subspace(field, 3, dom.basis.rows()[:k])
            b = a + random_matrix(rng, field) @ (Matrix.identity(field, 3) - kept.projector)
            want = first_difference_by_vector(a, b, dom.basis)
            t, u = PartialOperator.from_matrix(full, a), PartialOperator.from_matrix(full, b)
            assert _first_difference(t, u, dom) == want
            positions.add(None if want is None else dom.basis.rows().index(want))
    assert positions == {None, 0, 1, 2}


# --- composition ----------------------------------------------------------

def test_composition_domains_differ_by_order():
    p = projection_of(HALF)
    q = projection_of(OrthoSubspace(qs([1, 0, 0]), qs([0, 0, 1])))
    qp = compose(q, p)
    pq = compose(p, q)
    assert qp.dom == qs([1, 0, 0], [0, 1, 0])
    assert pq.dom == qs([1, 0, 0], [0, 0, 1])
    apart, witness = op_neq(qp, pq)
    assert apart and witness == qv(0, 1, 0)


def test_projections_are_idempotent_under_composition():
    rng = rng_from(6)
    for _ in range(20):
        p = projection_of(random_ortho(rng, Field.Q, 3))
        assert op_eq(compose(p, p), p)


def per_column_domain(q, p):
    """dom(q after p) built one kernel vector at a time."""
    n = p.ambient_dim
    b_t = p.dom.basis.transpose()
    outside = (Matrix.identity(p.field, n) - q.dom.projector) @ p.matrix
    ker = null_space(outside @ b_t)
    return Subspace(p.field, n, [list(b_t @ k) for k in ker.rows()])


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_composition_domain_matches_the_per_column_construction(field):
    rng = rng_from(73)
    ops = [PartialOperator.from_matrix(dom, random_matrix(rng, field)) for dom in domains(field)]
    ops += [projection_of(random_ortho(rng, field, 3)) for _ in range(4)]
    for q in ops:
        for p in ops:
            qp = compose(q, p)
            assert qp.dom == per_column_domain(q, p)
            # The images are those of the general path, bit for bit.
            assert_same_operator(qp, PartialOperator.from_matrix(qp.dom, q.matrix @ p.matrix))


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_total_outer_domain_keeps_the_inner_one(field, rref_calls):
    rng = rng_from(79)
    full = Subspace.full(field, 3)
    outer = [PartialOperator.from_matrix(full, random_matrix(rng, field)) for _ in range(3)]
    outer += [projection_of(OrthoSubspace.total_from(dom)) for dom in domains(field)]
    inner = [PartialOperator.from_matrix(dom, random_matrix(rng, field)) for dom in domains(field)]
    inner += [projection_of(random_ortho(rng, field, 3)) for _ in range(4)] + outer
    for q in outer:
        for p in inner:
            del rref_calls[:]
            qp = compose(q, p)
            assert rref_calls == []
            assert_same_operator(qp, PartialOperator.from_matrix(p.dom, q.matrix @ p.matrix))


def test_composition_restricts_the_domain():
    # The domain keeps exactly the vectors whose image lands inside the
    # second factor's domain.
    t = identity_on(qs([1, 0, 0], [0, 1, 0]))
    u = identity_on(qs([0, 1, 0]))
    ut = compose(u, t)
    assert ut.dom == qs([0, 1, 0])
    assert ut(qv(0, 5, 0)) == qv(0, 5, 0)


# --- the order characterization -------------------------------------------

PASSES = (True, True)
NOT_MET = (False, True)
ORDER_CLAUSES = ("lescomp1_i", "lescomp1_iia", "lescomp1_meet", "lescomp1_iiia", "lescomp1_iva")


def verdicts(clauses):
    """clause -> (applicable, holds), dropping the details."""
    return {c: (applicable, holds) for c, (applicable, holds, _) in clauses.items()}


def failing(clauses):
    return [c for c, (applicable, holds, _) in clauses.items() if applicable and not holds]


def test_ordered_pair_passes_every_clause():
    clauses = check_order(L, M)
    assert o_leq(L, M)
    assert verdicts(clauses) == {c: PASSES for c in ORDER_CLAUSES}, clauses


def test_unordered_pair_skips_the_conditional_clauses():
    clauses = check_order(M, L)
    assert not o_leq(M, L)
    assert verdicts(clauses) == {"lescomp1_i": PASSES, **{c: NOT_MET for c in ORDER_CLAUSES[1:]}}
    assert clauses["lescomp1_iia"][2] == "pairs are not ordered"
    # The composite equalities fail concretely, with a witness.
    p_l1 = projection_of(M)
    p_m1 = projection_of(L)
    w = op_eq_witness(compose(p_m1, p_l1), p_l1)
    assert w is not None


def test_order_suite_on_generated_pairs():
    rng = rng_from(91)
    for l, m in ordered_ortho_pairs(rng, Field.Q, 4, 15):
        clauses = check_order(l, m)
        assert o_leq(l, m)
        assert verdicts(clauses) == {c: PASSES for c in ORDER_CLAUSES}, clauses
    bad = 0
    from orthoql.generators import non_ordered_ortho_pairs

    for l, m in non_ordered_ortho_pairs(rng, Field.Q, 3, 15):
        clauses = check_order(l, m)
        assert not o_leq(l, m)
        assert verdicts(clauses) == {"lescomp1_i": PASSES, **{c: NOT_MET for c in ORDER_CLAUSES[1:]}}
        bad += 1
    assert bad == 15


def test_order_requires_matching_ambients():
    with pytest.raises(AmbientMismatch):
        check_order(L, OrthoSubspace.top(Field.Q, 2))


# --- commutation ------------------------------------------------------------

COMM_CLAUSES = ("comm1_i", "comm1_ii", "comm1_iii", "comm1_iv")


def test_commuting_coordinate_projections():
    p = projection_of(OrthoSubspace.total_from(qs([1, 0, 0])))
    q = projection_of(OrthoSubspace.total_from(qs([0, 1, 0])))
    clauses = commuting_calculus(p, q)
    assert verdicts(clauses) == {c: PASSES for c in COMM_CLAUSES}, clauses


def test_non_commuting_pair_meets_no_hypothesis_and_names_a_witness():
    p = projection_of(OrthoSubspace.total_from(Subspace(Field.Q, 2, [[1, 1]])))
    q = projection_of(OrthoSubspace.total_from(Subspace(Field.Q, 2, [[1, 0]])))
    clauses = commuting_calculus(p, q)
    assert verdicts(clauses) == {c: NOT_MET for c in COMM_CLAUSES}
    witness = op_eq_witness(compose(p, q), compose(q, p))
    assert witness is not None
    # The detail is a callable, resolved only where a verdict is reported.
    for _, _, detail in clauses.values():
        assert detail() == f"the composites differ: witness={witness}"


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_raw_sum_check_is_one_elimination(field, rref_calls):
    a = Subspace(field, 4, [[1, 0, I if field is Field.Qi else 2, 0], [0, 1, 0, 0]])
    for b in (Subspace(field, 4, [[0, 0, 1, 1], [1, 1, 1, 1]]), a, Subspace.zero(field, 4)):
        with _shared_results():
            assert a.join(b).rank >= 2
            del rref_calls[:]
            assert _raw_sum_covers(a, b)
            assert len(rref_calls) == 1


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_raw_sum_check_matches_the_oracle(field):
    # Each basis row of the oracle's join must solve [aᵀ | bᵀ] c == row.
    rng = rng_from(61)
    for _ in range(30):
        a, b = random_subspace(rng, field, 3), random_subspace(rng, field, 3)
        cols = sub_to_oracle(a) + sub_to_oracle(b)
        system = tuple(tuple(col[i] for col in cols) for i in range(3))
        join = oracle.s_join(sub_to_oracle(a), sub_to_oracle(b), 3)
        want = all(oracle.solve_naive(system, row) is not None for row in join)
        assert _raw_sum_covers(a, b) == want


def test_commutation_suite_on_generated_pairs():
    rng = rng_from(17)
    gated = 0
    for p, q in commuting_pairs(rng, Field.Q, 4, 20):
        clauses = commuting_calculus(p, q)
        assert failing(clauses) == [], clauses
        assert all(clauses[c][0] for c in COMM_CLAUSES[:3])
        if clauses["comm1_iv"][:2] == PASSES:
            gated += 1
    assert gated > 0


def test_total_orthogonal_pairs_add_up():
    rng = rng_from(37)
    fired = 0
    for _ in range(20):
        l, m = orthogonal_total_pair(rng, Field.Q, 3)
        clauses = cor7_calculus(l, m)
        assert failing(clauses) == [], clauses
        if clauses["cor7_iii"][:2] == PASSES:
            fired += 1
            p = pls_add(projection_of(l), projection_of(m))
            assert op_eq(p, projection_of(o_join(l, m)))
    assert fired > 0


def test_cor7_skips_when_not_orthogonal():
    clauses = cor7_calculus(M, M)
    assert verdicts(clauses) == {c: NOT_MET for c in ("cor7_i", "cor7_ii", "cor7_iii")}


# --- lattice structure carried through projections --------------------------

def test_complement_agrees_with_the_pair_route():
    rng = rng_from(71)
    for _ in range(20):
        pair = random_ortho(rng, Field.Q, 3)
        p = projection_of(pair)
        assert op_eq(proj_compl(p), projection_of(o_neg(pair)))
        assert op_eq(proj_meet(p, p), p)
        assert op_eq(proj_join(p, p), p)


def pairs_with_extreme_ranks(field, rng):
    """Seeded pairs of field^3 plus the bottom, the top, the pair with
    domain {0}, and a full-rank one-part over an empty zero-part."""
    zero, full = Subspace.zero(field, 3), Subspace.full(field, 3)
    pairs = [
        OrthoSubspace.bottom(field, 3),
        OrthoSubspace.top(field, 3),
        OrthoSubspace(zero, zero),
        OrthoSubspace(zero, Subspace(field, 3, [[0, 1, 0]])),
        OrthoSubspace(Subspace(field, 3, [[1, 0, 0], [0, 1, 0]]), zero),
    ]
    return pairs + [random_ortho(rng, field, 3) for _ in range(6)]


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_projection_connectives_agree_with_the_pair_connectives(field):
    pairs = pairs_with_extreme_ranks(field, rng_from(29))
    assert {a.one.rank for a in pairs} >= {0, 3} and {a.dom.rank for a in pairs} >= {0, 3}
    for a in pairs:
        p = projection_of(a)
        assert subspaces_of(proj_not(p)) == o_not(a)
        for b in pairs:
            q = projection_of(b)
            assert subspaces_of(proj_minus(p, q)) == o_minus(a, b)
            assert subspaces_of(proj_iff(p, q)) == o_iff(a, b)
            assert proj_orthogonal(p, q) == o_perp(a, b)


def test_projection_order_reflects_pair_order():
    p = projection_of(L)
    q = projection_of(M)
    assert proj_leq(p, q)
    assert not proj_leq(q, p)
    assert o_leq(subspaces_of(p), subspaces_of(q))


# --- the operator algebra ----------------------------------------------------

def test_addition_meets_domains():
    t = identity_on(qs([1, 0, 0], [0, 1, 0]))
    u = identity_on(qs([0, 1, 0], [0, 0, 1]))
    s = pls_add(t, u)
    assert s.dom == qs([0, 1, 0])
    assert s(qv(0, 2, 0)) == qv(0, 4, 0)


def test_local_zero_is_not_the_total_zero():
    t = identity_on(qs([1, 0, 0]))
    z = pls_zero_of(t)
    assert z.dom == t.dom
    assert op_eq(pls_scale(F(0), t), z)
    apart, _ = op_neq(z, total_zero(Field.Q, 3))
    assert apart


def test_perturbed_inverse_is_rejected():
    t = identity_on(qs([1, 0, 0], [0, 1, 0]))
    good = pls_negate(t)
    assert op_eq(pls_add(t, good), pls_zero_of(t))
    bumped = pls_add(good, identity_on(qs([1, 0, 0])))
    # The bump shrinks the domain or moves a value, so the defining
    # equations fail.
    assert not (
        op_eq(pls_add(t, bumped), pls_zero_of(t))
        and op_eq(pls_zero_of(bumped), pls_zero_of(t))
    )


def test_algebra_suite_is_clean():
    rng = rng_from(47)
    ops = [
        random_partial_operator(rng, Field.Q, 3, total=(i % 3 == 0))
        for i in range(30)
    ]
    ks = [random_scalar(rng, Field.Q) for _ in range(30)]
    report = check_pls(ops, ks)
    assert report.ok, report.summary()
    assert report.results["cor_pls1_vi"].hypothesis_met > 0
    assert report.results["pl5"].hypothesis_met > 0
    assert report.results["prp_pls1_iv"].hypothesis_met > 0


def test_algebra_suite_over_gaussians():
    rng = rng_from(48)
    ops = [
        random_partial_operator(rng, Field.Qi, 2, total=(i % 3 == 0))
        for i in range(12)
    ]
    ks = [random_scalar(rng, Field.Qi) for _ in range(12)]
    report = check_pls(ops, ks)
    assert report.ok, report.summary()


def test_the_algebra_suite_rejects_an_empty_scalar_list():
    with pytest.raises(ValueError, match=r"nonempty scalar list ks"):
        check_pls([total_identity(Field.Q, 2)], [])
    # With no operators no scalar is read.
    report = check_pls([], [])
    assert report.ok and all(r.instances == 0 for r in report.results.values())


# --- the norm certificate ------------------------------------------------------

@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_norm_form_is_the_gram_matrix_of_what_images_miss(field):
    # <b_i, b_j> - <M b_i, M b_j> = <b_i - M b_i, b_j - M b_j>, in the
    # oracle's arithmetic, on the basis of every domain.
    rng = rng_from(79)
    for _ in range(15):
        p = random_partial_projection(rng, field, 4)
        m = to_mat(p.matrix)
        basis = [to_vec(b) for b in p.dom.basis.rows()]
        images = [oracle.mat_vec(m, b) for b in basis]
        missed = [oracle.vsub(b, mb) for b, mb in zip(basis, images)]
        for i in range(len(basis)):
            for j in range(len(basis)):
                form = oracle.csub(
                    oracle.inner(basis[i], basis[j]), oracle.inner(images[i], images[j])
                )
                assert form == oracle.inner(missed[i], missed[j])
        assert norm_sq_is_one(p) == subspaces_of(p).one.is_strict


def test_norm_is_one_exactly_when_something_is_fixed():
    assert norm_sq_is_one(projection_of(L))
    assert norm_sq_is_one(total_identity(Field.Q, 3))
    assert not norm_sq_is_one(zero_on(qs([1, 0, 0])))
    assert not norm_sq_is_one(total_zero(Field.Q, 3))
    rng = rng_from(83)
    for _ in range(20):
        pair = random_ortho(rng, Field.Q, 3)
        assert norm_sq_is_one(projection_of(pair)) == pair.one.is_strict


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_norm_certificate_matches_the_oracle(field):
    # ||p|| = 1 in the oracle's arithmetic, for the projection of each
    # drawn pair in dimensions 0-4, its complement, and the zero and the
    # identity map on its domain; and the complement of a pair's
    # projection is the projection of the pair's negation.
    rng = rng_from(89)
    seen = set()
    for n in range(5):
        for _ in range(12):
            pair = random_ortho(rng, field, n)
            p = projection_of(pair)
            assert proj_compl(p) == projection_of(o_neg(pair))
            for q in (p, proj_compl(p), zero_on(pair.dom), identity_on(pair.dom)):
                dom = to_mat(q.dom.basis)
                values = tuple(oracle.mat_vec(to_mat(q.matrix), b) for b in dom)
                expected = oracle.norm_is_one(dom, values)
                assert norm_sq_is_one(q) == expected
                kills = q.images != q.dom.basis
                seen.add((expected, kills, q.dom.rank > 0))
    assert seen == {(True, True, True), (True, False, True), (False, True, True), (False, False, False)}


# --- against the oracle's model of partial operators ---------------------------

SMALL = st.sampled_from([1, -1, 2, 0, -2])


@st.composite
def spans(draw, field, n):
    """A subspace of field^n spanned by k drawn rows, 0 <= k <= n."""
    k = draw(st.sampled_from(range(n + 1)))
    entry = st.builds(G, SMALL, SMALL) if field is Field.Qi else SMALL
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return Subspace(field, n, rows)


@st.composite
def matrices(draw, field, n):
    entry = st.builds(G, SMALL, SMALL) if field is Field.Qi else SMALL
    return Matrix(field, n, n, draw(st.lists(entry, min_size=n * n, max_size=n * n)))


@st.composite
def operator_cases(draw):
    """Two partial operators and two partial projections on field^n.  Each
    projection gets an arbitrary matrix off its domain, and each operator
    an equal twin built from a different matrix."""
    field = draw(st.sampled_from([Field.Q, Field.Qi]))
    n = draw(st.sampled_from([3, 4, 2, 1]))
    eye = Matrix.identity(field, n)
    ops, twins, projs = [], [], []
    for _ in range(2):
        dom = draw(spans(field, n))
        t = PartialOperator.from_matrix(dom, draw(matrices(field, n)))
        ops.append(t)
        off = draw(matrices(field, n)) @ (eye - dom.projector)
        twins.append(PartialOperator.from_matrix(dom, t.matrix + off))
        one = draw(spans(field, n))
        zero = draw(spans(field, n)).meet(one.perp())
        pair = OrthoSubspace(one, zero)
        off = draw(matrices(field, n)) @ (eye - pair.dom.projector)
        projs.append(PartialProjection.from_matrix(pair.dom, one.projector + off))
    return n, ops, twins, projs


def as_oracle(t):
    """An operator as the oracle sees it: its domain basis and its values
    on that basis."""
    return to_mat(t.dom.basis), tuple(to_vec(t.matrix @ b) for b in t.dom.basis.rows())


def pair_to_oracle(pair):
    return sub_to_oracle(pair.one), sub_to_oracle(pair.zero)


@st.composite
def apartness_cases(draw):
    """Two partial operators on field^n.  The second one's domain is the
    first's, a drawn one, or their meet or join, and its matrix is the
    first's or a drawn one, so every kind of witness turns up."""
    field = draw(st.sampled_from([Field.Q, Field.Qi]))
    n = draw(st.sampled_from([3, 2, 4, 1]))
    t_dom, drawn = draw(spans(field, n)), draw(spans(field, n))
    u_dom = draw(st.sampled_from([t_dom, drawn, t_dom.meet(drawn), t_dom.join(drawn)]))
    a = draw(matrices(field, n))
    b = a if draw(st.booleans()) else draw(matrices(field, n))
    return n, PartialOperator.from_matrix(t_dom, a), PartialOperator.from_matrix(u_dom, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(apartness_cases())
def test_apartness_agrees_with_the_oracle(case):
    n, t, u = case
    views = (*as_oracle(t), *as_oracle(u))
    apart, witness = op_neq(t, u)
    assert apart == oracle.op_apart(*views, n)
    if apart:
        assert any(witness)
        assert oracle.apart_at(*views, to_vec(witness), n)
    else:
        assert witness is None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(operator_cases())
def test_operator_layer_agrees_with_the_oracle(case):
    n, ops, twins, projs = case

    def pair_of(t):
        return oracle.projection_pair(*as_oracle(t), n)

    for t, twin in zip(ops, twins):
        assert op_eq(t, twin) and oracle.op_eq(*as_oracle(t), *as_oracle(twin), n)
    everything = ops + projs
    for q in everything:
        for p in everything:
            q_view, p_view = as_oracle(q), as_oracle(p)
            assert op_eq(q, p) == oracle.op_eq(*q_view, *p_view, n)
            qp = compose(q, p)
            assert sub_to_oracle(qp.dom) == oracle.compose_domain(q_view[0], *p_view, n)
            for x, value in zip(*as_oracle(qp)):
                assert value == oracle.op_apply(*q_view, oracle.op_apply(*p_view, x, n), n)

    for p in projs:
        assert pair_to_oracle(subspaces_of(p)) == pair_of(p)
        assert pair_of(proj_compl(p)) == oracle.o_neg(pair_of(p))
        assert pair_of(proj_not(p)) == oracle.o_not(pair_of(p), n)
        for q in projs:
            a, b = pair_of(p), pair_of(q)
            assert pair_of(proj_meet(p, q)) == oracle.o_meet(a, b, n)
            assert pair_of(proj_join(p, q)) == oracle.o_join(a, b, n)
            assert pair_of(proj_minus(p, q)) == oracle.o_minus(a, b, n)
            assert pair_of(proj_implies(p, q)) == oracle.o_implies(a, b, n)
            assert pair_of(proj_iff(p, q)) == oracle.o_iff(a, b, n)
            assert proj_leq(p, q) == oracle.o_leq(a, b, n)
            assert proj_orthogonal(p, q) == oracle.o_leq(a, oracle.o_neg(b), n)
