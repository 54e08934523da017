"""Unitary covariance of the subspace lattice, distances, operators and
quotients.

Every notion here is a Hilbert-space notion, so it commutes with a
unitary change of coordinates U: meet(UA, UB) == U·meet(A, B), likewise
for join and perp, UA <= UB exactly when A <= B, distances to UA from Ux
are distances to A from x, and the composite of the transported
operators U q Uᴴ after U p Uᴴ is the transported composite, domain
included.  The projection of the moved pair is the conjugated
projection, equality and apartness of operators survive the move (a
witness moves to a witness), the split of Ux is the moved split of x,
and inner products of classes do not move.  These relations consult no
oracle.  Over Q(i) only a non-real U can expose a conjugate in the
wrong slot, so every Q(i) unitary drawn here has a non-real entry.
"""

import pytest

from conftest import conjugated
from orthoql.generators import (
    cayley_unitary,
    random_member,
    random_ortho,
    random_partial_operator,
    random_partial_projection,
    random_subspace,
    random_subspace_within,
    random_vector,
    rng_from,
)
from orthoql.linalg import Matrix
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import PartialOperator, compose, decompose, op_eq, op_neq, projection_of
from orthoql.quotient import QuotientSpace
from orthoql.scalars import Field, conj
from orthoql.subspace import Subspace


def unitary(rng, field, n):
    """A Cayley unitary of size n; over Q(i), one with a non-real entry."""
    while True:
        u = cayley_unitary(rng, field, n)
        if field is Field.Q or any(e.im != 0 for e in u.entries):
            return u


def moved(u, sub):
    """U·sub, spanned by U b for the basis rows b of sub."""
    return Subspace(sub.field, sub.ambient_dim, (sub.basis @ u.transpose()).rows())


def moved_op(u, t):
    """U t Uᴴ on U·dom(t)."""
    return PartialOperator.from_matrix(moved(u, t.dom), u @ t.matrix @ u.conj_transpose())


def moved_pair(u, pair):
    """U·pair, part by part."""
    return OrthoSubspace(moved(u, pair.one), moved(u, pair.zero))


def shows_apart(t, s, x):
    """Whether x witnesses op_neq(t, s): nonzero, and in one domain and
    orthogonal to the other, or in both with different images."""
    if x.is_zero:
        return False
    in_t, in_s = t.dom.contains(x), s.dom.contains(x)
    if in_t and in_s:
        return t(x) != s(x)
    return (in_t and s.dom.perp().contains(x)) or (in_s and t.dom.perp().contains(x))


def sharing_operands(rng, field, n):
    """Two subspaces of a shared part plus one or more vectors of their
    own, none of them full, so the meet is a proper nonzero part of both."""
    shared = [random_vector(rng, field, n) for _ in range(rng.randint(1, n - 2))]

    def own():
        return [random_vector(rng, field, n) for _ in range(rng.randint(1, n - 1 - len(shared)))]

    return Subspace(field, n, shared + own()), Subspace(field, n, shared + own())


def pivot_split_operands(rng, field, n):
    """Two subspaces of equal rank sharing one vector, whose canonical
    bases have different pivot sets: the second one's own vector is zero
    on the first two coordinates, so its second pivot lies past the
    first one's."""
    shared = random_vector(rng, field, n)
    own = [field.zero, field.zero] + list(random_vector(rng, field, n - 2))
    return (
        Subspace(field, n, [shared, random_vector(rng, field, n)]),
        Subspace(field, n, [shared, own]),
    )


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_meet_commutes_with_a_unitary(field):
    rng = rng_from(101)
    seen = set()
    for k in range(40):
        n = rng.randint(3, 4)
        u = unitary(rng, field, n)
        if k % 2:
            a, b = random_subspace(rng, field, n), random_subspace(rng, field, n)
        else:
            a, b = sharing_operands(rng, field, n)
        m = a.meet(b)
        assert moved(u, a).meet(moved(u, b)) == moved(u, m)
        seen.add((a.rank == b.rank, 0 < m.rank < min(a.rank, b.rank)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_meet_of_different_pivot_sets_commutes_with_a_unitary(field):
    rng = rng_from(105)
    for _ in range(6):
        u = unitary(rng, field, 4)
        a, b = pivot_split_operands(rng, field, 4)
        m = a.meet(b)
        assert a.rank == b.rank == 2 and a.pivots != b.pivots and m.rank == 1
        assert moved(u, a).meet(moved(u, b)) == moved(u, m)


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_join_perp_leq_and_distance_commute_with_a_unitary(field):
    rng = rng_from(107)
    seen = set()
    for k in range(24):
        n = rng.randint(2, 4)
        u = unitary(rng, field, n)
        b = random_subspace(rng, field, n)
        a = random_subspace_within(rng, b) if k % 2 else random_subspace(rng, field, n)
        ua, ub = moved(u, a), moved(u, b)
        assert ua.join(ub) == moved(u, a.join(b))
        assert ua.perp() == moved(u, a.perp())
        assert ua.leq(ub) == a.leq(b)
        x = random_vector(rng, field, n)
        assert ua.distance_sq(u @ x) == a.distance_sq(x)
        seen.add((a.leq(b), 0 < a.rank < n))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_compose_commutes_with_a_unitary(field):
    rng = rng_from(103)
    proper = 0
    for k in range(60):
        n = rng.randint(2, 4)
        u = unitary(rng, field, n)
        draw = random_partial_projection if k % 2 else random_partial_operator
        q, p = draw(rng, field, n), draw(rng, field, n)
        qp = compose(q, p)
        moved_qp = compose(moved_op(u, q), moved_op(u, p))
        assert moved_qp.dom == moved(u, qp.dom)
        assert moved_qp == moved_op(u, qp)
        proper += 0 < qp.dom.rank < p.dom.rank
    assert proper >= 5


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_projection_of_commutes_with_a_unitary(field):
    rng = rng_from(109)
    both_parts = 0
    for _ in range(16):
        n = rng.randint(2, 4)
        u = unitary(rng, field, n)
        pair = random_ortho(rng, field, n)
        assert projection_of(moved_pair(u, pair)) == conjugated(projection_of(pair), u)
        both_parts += pair.one.rank > 0 and pair.zero.rank > 0
    assert both_parts >= 3


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_op_eq_and_op_neq_commute_with_a_unitary(field):
    rng = rng_from(111)
    seen = set()
    for k in range(30):
        n = rng.randint(2, 4)
        u = unitary(rng, field, n)
        draw = random_partial_projection if k % 2 else random_partial_operator
        t = draw(rng, field, n)
        s = t if k % 5 == 0 else draw(rng, field, n)
        ut, us = moved_op(u, t), moved_op(u, s)
        assert op_eq(ut, us) == op_eq(t, s)
        apart, witness = op_neq(t, s)
        assert op_neq(ut, us)[0] == apart
        if apart:
            assert shows_apart(t, s, witness)
            assert shows_apart(ut, us, u @ witness)
        seen.add((op_eq(t, s), apart))
    assert seen == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_decompose_and_q_inner_commute_with_a_unitary(field):
    rng = rng_from(113)
    for _ in range(16):
        n = rng.randint(2, 4)
        u = unitary(rng, field, n)
        pair = random_ortho(rng, field, n)
        x, y = random_member(rng, pair.dom), random_member(rng, pair.dom)
        up = moved_pair(u, pair)
        l1, l0 = decompose(pair, x)
        assert decompose(up, u @ x) == (u @ l1, u @ l0)
        value = QuotientSpace(pair).q_inner(x, y)
        assert QuotientSpace(up).q_inner(u @ x, u @ y) == value
        # The same number as the Gram entry <U z(x), U z(y)> of the moved
        # zero-components, read off a matrix product: linear in the first
        # slot, conjugate-linear in the second.
        zx, zy = up.zero.project(u @ x), up.zero.project(u @ y)
        gram = Matrix(field, 1, n, zx.entries) @ Matrix(field, n, 1, [conj(e) for e in zy])
        assert gram.entry(0, 0) == value
