"""Quotients of pair domains by the one-part: equivalence, isometry onto
the zero-part, and the contraction property."""

from fractions import Fraction as F

import pytest

import oracle
from conftest import sub_to_oracle, to_num, to_vec
from orthoql.errors import NotInDomain
from orthoql.generators import (
    quotient_samples,
    random_member,
    random_ortho,
    random_vector,
    rng_from,
)
from orthoql.linalg import Vector, inner, norm_sq
from orthoql.ortho import OrthoSubspace
from orthoql.quotient import QuotientSpace
from orthoql.scalars import Field
from orthoql.subspace import Subspace


def qv(*entries):
    return Vector(Field.Q, [F(e) for e in entries])


BASE = OrthoSubspace(
    Subspace(Field.Q, 3, [[1, 0, 0]]), Subspace(Field.Q, 3, [[0, 1, 0]])
)


def test_worked_example():
    q = QuotientSpace(BASE)
    x = qv(2, 3, 0)
    y = qv(5, 3, 0)
    # The one-components differ but both collapse to (0, 3, 0).
    assert q.q_eq(x, y)
    assert q.q_inner(x, y) == F(9)
    assert q.q_norm_sq(x) == F(9)
    assert q.q_iso(x) == qv(0, 3, 0)
    assert not q.q_eq(x, qv(0, 1, 0))


def test_misses_of_the_carrier_are_rejected():
    q = QuotientSpace(BASE)
    with pytest.raises(NotInDomain):
        q.q_iso(qv(0, 0, 1))
    with pytest.raises(NotInDomain):
        q.q_inner(qv(1, 0, 0), qv(1, 1, 1))


def test_equivalence_laws():
    rng = rng_from(5)
    for q, x, y, z in quotient_samples(rng, Field.Q, 4, 25):
        assert q.q_eq(x, x)
        assert q.q_eq(x, y) == q.q_eq(y, x)
        if q.q_eq(x, y) and q.q_eq(y, z):
            assert q.q_eq(x, z)


def test_classes_absorb_the_one_part():
    rng = rng_from(23)
    for q, x, y, _ in quotient_samples(rng, Field.Q, 4, 25):
        if not q.base.one.is_strict:
            continue
        shift = q.base.one.basis.row(0)
        assert q.q_eq(x, x + shift)
        assert q.q_inner(x + shift, y) == q.q_inner(x, y)


def test_isometry_onto_the_zero_part():
    rng = rng_from(47)
    for q, x, y, _ in quotient_samples(rng, Field.Qi, 3, 25):
        ix, iy = q.q_iso(x), q.q_iso(y)
        assert q.base.zero.contains(ix)
        assert q.q_inner(x, y) == inner(ix, iy)
        assert q.q_norm_sq(x) == norm_sq(ix)
        # Classes separate exactly when their canonical representatives do.
        assert q.q_eq(x, y) == (ix == iy)


def test_viewing_is_a_contraction():
    rng = rng_from(68)
    hit_equality = False
    for q, x, _, _ in quotient_samples(rng, Field.Q, 4, 30):
        assert q.q_norm_sq(x) <= norm_sq(x)
        if q.base.zero.is_strict:
            b = q.base.zero.basis.row(0)
            assert q.q_norm_sq(b) == norm_sq(b)
            hit_equality = True
    assert hit_equality


def test_total_pairs_recover_distance():
    rng = rng_from(90)
    total = QuotientSpace(
        OrthoSubspace.total_from(Subspace(Field.Q, 3, [[1, 1, 0]]))
    )
    cases = [(total, qv(2, 0, 1), qv(0, 1, 0))]
    cases += [
        (q, x, y)
        for q, x, y, _ in quotient_samples(rng, Field.Q, 3, 25)
        if q.base.is_total
    ]
    for q, x, y in cases:
        d = x - y
        assert q.q_norm_sq(d) == q.base.one.distance_sq(d)


@pytest.mark.parametrize("field, dim", [(Field.Q, 4), (Field.Qi, 3)])
def test_classes_agree_with_the_oracle_split(field, dim):
    # The class of x is the zero part of the oracle's split of x along
    # the base pair; a vector the split does not reach has no class.
    rng = rng_from(31)
    seen = {"same class": 0, "other class": 0, "outside": 0}
    for _ in range(30):
        base = random_ortho(rng, field, dim)
        q = QuotientSpace(base)
        x = random_member(rng, base.dom)
        xs = [x, x + random_member(rng, base.one), random_member(rng, base.dom)]
        xs.append(random_vector(rng, field, dim))
        one, zero = sub_to_oracle(base.one), sub_to_oracle(base.zero)
        splits = [oracle.decompose(one, zero, to_vec(v), dim) for v in xs]
        for x, sx in zip(xs, splits):
            for y, sy in zip(xs, splits):
                if sx is None or sy is None:
                    for relation in (q.q_eq, q.q_inner):
                        with pytest.raises(NotInDomain):
                            relation(x, y)
                    seen["outside"] += 1
                    continue
                assert q.q_eq(x, y) == (sx[1] == sy[1])
                assert to_num(q.q_inner(x, y)) == oracle.inner(sx[1], sy[1])
                seen["same class" if x != y and sx[1] == sy[1] else "other class"] += 1
    assert all(seen.values()), seen
