"""Partial operators and projections: splitting, apartness, composition,
order, commutation, and the operator algebra."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import sub_to_oracle, to_mat, to_vec
from orthoql.errors import AmbientMismatch, NotInDomain
from orthoql.generators import (
    cayley_unitary,
    commuting_pairs,
    conjugated,
    ordered_ortho_pairs,
    orthogonal_total_pair,
    random_ortho,
    random_partial_operator,
    random_partial_projection,
    random_scalar,
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
    _first_difference,
)
from orthoql.scalars import Field, GaussianRational as G, scalar_text
from orthoql.subspace import Subspace


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
    a = PartialOperator(dom, Matrix.identity(Field.Q, 3))
    b = PartialOperator(dom, Matrix.from_rows(Field.Q, [[1, 5, -2], [0, 7, 0], [0, 0, 3]]))
    # Both act as the identity on the domain, so they are the same map.
    assert op_eq(a, b)
    assert a.matrix == b.matrix


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_equal_operators_built_from_different_matrices_hash_alike(field):
    rng = rng_from(97)
    for dom in domains(field):
        off = random_matrix(rng, field) @ (Matrix.identity(field, 3) - dom.projector)
        a = PartialOperator(dom, random_matrix(rng, field))
        b = PartialOperator(Subspace(field, 3, dom.basis.rows()), a.matrix + off)
        assert a == b and hash(a) == hash(b)


def test_building_operators_computes_no_projector_of_a_domain():
    # An operator is its domain plus images, so nothing here needs the
    # orthogonal projector onto any domain, operand or result.
    m = Matrix.from_rows(Field.Q, [[1, 2, 0], [0, 1, 0], [3, 0, 1]])

    def plane():
        return qs([1, 2, 0], [0, 1, 1])

    def other():
        return qs([1, 0, 0], [0, 0, 1])

    built = {
        "identity_on": [identity_on(plane())],
        "zero_on": [zero_on(plane())],
        "PartialOperator": [PartialOperator(plane(), m)],
        "PartialProjection": [PartialProjection(plane(), Matrix.identity(Field.Q, 3))],
    }
    for name, combine in (("compose", compose), ("pls_add", pls_add)):
        t, u = PartialOperator(plane(), m), PartialOperator(other(), m)
        assert t.dom != u.dom
        built[name] = [t, u, combine(t, u)]
    for name, ops in built.items():
        assert [t.dom._projector for t in ops] == [None] * len(ops), name


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
        coeffs = [random_scalar(rng, Field.Q) for _ in range(pair.dom.rank)]
        x = pair.dom.member_from_coefficients(coeffs)
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
            assert o_eq(subspaces_of(p), pair)
            assert op_eq(projection_of(subspaces_of(p)), p)
            assert pair.is_total == p.is_total


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
            PartialProjection(dom, Matrix.from_rows(field, rows))
    # The identity on a line passes all three checks.
    accepted = PartialProjection(Subspace(Field.Q, 3, [[1, 0, 0]]), Matrix.identity(Field.Q, 3))
    assert accepted.matrix == Matrix.from_rows(Field.Q, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_projection_validation_checks_every_basis_vector():
    # The first basis vector (1, 1, 0) is fixed; the second, e3, is sent
    # to e1, outside the domain.
    dom = Subspace(Field.Q, 3, [[1, 1, 0], [0, 0, 1]])
    m = Matrix.from_rows(Field.Q, [[F(1, 2), F(1, 2), 1], [F(1, 2), F(1, 2), 0], [0, 0, 0]])
    with pytest.raises(ValueError, match=CLOSURE):
        PartialProjection(dom, m)
    # Over Q(i): (1, i, 0) is fixed, e3 is sent to e1, outside the domain.
    dom = Subspace(Field.Qi, 3, [[1, I, 0], [0, 0, 1]])
    half = F(1, 2)
    m = Matrix.from_rows(
        Field.Qi, [[half, -half * I, 1], [half * I, half, 0], [0, 0, 0]]
    )
    with pytest.raises(ValueError, match=CLOSURE):
        PartialProjection(dom, m)
    # Over Q^4: e1 and e2 are fixed, the third basis vector e3 goes to e4.
    dom = Subspace(Field.Q, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    with pytest.raises(ValueError, match=CLOSURE):
        PartialProjection(dom, Matrix.from_rows(Field.Q, rows))


def test_validation_reports_the_first_failing_basis_vector():
    # Column by column, closure before idempotence: e1 -> 2 e1 breaks
    # idempotence first, e2 -> e3 breaks closure only on the second column.
    dom = qs([1, 0, 0], [0, 1, 0])
    rows = [[2, 0, 0], [0, 0, 0], [0, 1, 0]]
    with pytest.raises(ValueError, match=IDEMPOTENT):
        PartialProjection(dom, Matrix.from_rows(Field.Q, rows))
    rows = [[0, 0, 0], [0, 2, 0], [1, 0, 0]]
    with pytest.raises(ValueError, match=CLOSURE):
        PartialProjection(dom, Matrix.from_rows(Field.Q, rows))


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
    """Same class, same domain, and the same exact entries, text included."""
    assert type(built) is type(general)
    assert built.dom == general.dom
    assert built.matrix == general.matrix
    texts = [scalar_text(e) for e in built.matrix.entries]
    assert texts == [scalar_text(e) for e in general.matrix.entries]


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_projection_constructors_match_the_general_path(field):
    for dom in domains(field):
        assert_same_operator(identity_on(dom), PartialProjection(dom, Matrix.identity(field, 3)))
        assert_same_operator(zero_on(dom), PartialProjection(dom, Matrix.zero(field, 3, 3)))
        for pair in pairs_on(dom):
            assert pair.dom == dom
            p = projection_of(pair)
            assert_same_operator(p, PartialProjection(pair.dom, pair.one.projector))
            assert_same_operator(
                proj_compl(p), PartialProjection(p.dom, p.dom.projector - p.matrix)
            )


def kernel_pair(p):
    """The pair of ``p`` by the kernel definition: the fixed space is
    null(M - I) and the zero part is null(M) inside the domain."""
    n = p.ambient_dim

    def col_span(k):
        return Subspace(p.field, n, [list(k.col(j)) for j in range(k.ncols)])

    one = col_span(null_space(p.matrix - Matrix.identity(p.field, n)))
    return one, col_span(null_space(p.matrix)).meet(p.dom)


def general_projections(field):
    """Projections built by ``PartialProjection(dom, M)`` on a zero, a
    line, a plane and the full domain: from the one-part's projector
    plus a term that vanishes on the domain, and the same pushed through
    a unitary."""
    rng = rng_from(67)
    out = []
    for dom in domains(field):
        off = Matrix.identity(field, 3) - dom.projector
        for pair in pairs_on(dom):
            p = PartialProjection(dom, pair.one.projector + off)
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
        t = PartialOperator(dom, random_matrix(rng, field))
        for k in (random_scalar(rng, field), field.zero):
            assert_same_operator(pls_scale(k, t), PartialOperator(t.dom, t.matrix.scaled(k)))
        assert_same_operator(pls_negate(t), PartialOperator(t.dom, -t.matrix))
        # Equal domains held by a distinct object, then by the same object:
        # the sum keeps the first operand's domain.
        twin = Subspace(field, 3, dom.basis.rows())
        assert twin == dom and twin is not dom
        for other in (twin, dom):
            u = PartialOperator(other, random_matrix(rng, field))
            s = pls_add(t, u)
            assert_same_operator(s, PartialOperator(dom.meet(other), t.matrix + u.matrix))
            assert s.dom is t.dom
        # Unequal domains meet.
        for other in doms:
            if other != dom:
                u = PartialOperator(other, random_matrix(rng, field))
                assert_same_operator(
                    pls_add(t, u), PartialOperator(dom.meet(other), t.matrix + u.matrix)
                )


# --- equality and apartness ----------------------------------------------

def test_apartness_finds_a_domain_witness():
    t = zero_on(qs([1, 0, 0], [0, 1, 0]))
    u = zero_on(qs([1, 0, 0], [0, 0, 1]))
    apart, witness = op_neq(t, u)
    assert apart and witness == qv(0, 1, 0)
    assert not op_eq(t, u)


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
        v = PartialOperator(u.dom, u.matrix + noise)
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
    # the first differing row is row k, for every k including none.
    rng = rng_from(89)
    positions = set()
    for dom in domains(field):
        for k in range(dom.rank + 1):
            a = random_matrix(rng, field)
            kept = Subspace(field, 3, dom.basis.rows()[:k])
            b = a + random_matrix(rng, field) @ (Matrix.identity(field, 3) - kept.projector)
            want = first_difference_by_vector(a, b, dom.basis)
            assert _first_difference(a, b, dom.basis) == want
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
    """dom(q after p) built one kernel column at a time."""
    n = p.ambient_dim
    b_t = p.dom.basis.transpose()
    outside = (Matrix.identity(p.field, n) - q.dom.projector) @ p.matrix
    ker = null_space(outside @ b_t)
    return Subspace(p.field, n, [list(b_t @ ker.col(j)) for j in range(ker.ncols)])


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_composition_domain_matches_the_per_column_construction(field):
    rng = rng_from(73)
    ops = [PartialOperator(dom, random_matrix(rng, field)) for dom in domains(field)]
    ops += [projection_of(random_ortho(rng, field, 3)) for _ in range(4)]
    for q in ops:
        for p in ops:
            assert compose(q, p).dom == per_column_domain(q, p)


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
    for _, _, detail in clauses.values():
        assert detail == f"the composites differ: witness={witness}"


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
        t = PartialOperator(dom, draw(matrices(field, n)))
        ops.append(t)
        twins.append(PartialOperator(dom, t.matrix + draw(matrices(field, n)) @ (eye - dom.projector)))
        one = draw(spans(field, n))
        zero = draw(spans(field, n)).meet(one.perp())
        pair = OrthoSubspace(one, zero)
        off = draw(matrices(field, n)) @ (eye - pair.dom.projector)
        projs.append(PartialProjection(pair.dom, one.projector + off))
    return n, ops, twins, projs


def as_oracle(t):
    """An operator as the oracle sees it: its domain basis and its values
    on that basis."""
    return to_mat(t.dom.basis), tuple(to_vec(t.matrix @ b) for b in t.dom.basis.rows())


def pair_to_oracle(pair):
    return sub_to_oracle(pair.one), sub_to_oracle(pair.zero)


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
