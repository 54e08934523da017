"""Sanity checks for the instance generators: determinism, validity of
what they emit, and coverage of the hypotheses the law suites gate on."""

import random
from fractions import Fraction

import pytest

from conftest import conjugated
from draws import quotient_samples, random_member, random_partial_projection, random_vector
from orthoql.generators import (
    cayley_unitary,
    clql_triples,
    commuting_pairs,
    complql_triples,
    non_ordered_ortho_pairs,
    ordered_ortho_pairs,
    orthogonal_total_pair,
    random_ortho,
    random_partial_operator,
    random_scalar,
    random_subspace,
    random_subspace_within,
    rng_from,
)
from orthoql.linalg import Matrix
from orthoql.ortho import OrthoSubspace, o_leq, o_neg
from orthoql.partial_op import PartialProjection, compose, op_eq, projection_of
from orthoql.scalars import Field, GaussianRational
from orthoql.subspace import Subspace, perp_rel


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_drawn_scalar_is_the_two_randint_fraction_from_the_same_stream(field):
    # The table draw must consume the random stream exactly as the
    # fraction of two randint calls did, scalar by scalar.
    def written_out(rng):
        def frac():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

        return GaussianRational(frac(), frac()) if field is Field.Qi else frac()

    kind = GaussianRational if field is Field.Qi else Fraction
    for seed in range(200):
        drawn, want = random.Random(seed), random.Random(seed)
        for _ in range(8):
            x = random_scalar(drawn, field)
            assert type(x) is kind and x == written_out(want), seed
            assert drawn.getstate() == want.getstate(), seed


def test_same_seed_same_stream():
    a = [random_subspace(rng_from(7), Field.Q, 4) for _ in range(5)]
    b = [random_subspace(rng_from(7), Field.Q, 4) for _ in range(5)]
    assert a == b
    ta = ordered_ortho_pairs(rng_from(11), Field.Qi, 3, 6)
    tb = ordered_ortho_pairs(rng_from(11), Field.Qi, 3, 6)
    assert ta == tb


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_drawn_span_is_one_matrix_in_the_row_by_row_draw_order(field, vector_builds):
    """``random_subspace`` and ``random_subspace_within`` build no
    ``Vector`` and span what drawing one vector or member per row spans,
    leaving the stream where that would."""
    for seed in range(20):
        rng = rng_from(seed)
        del vector_builds[:]
        sub = random_subspace(rng, field, 4)
        within = random_subspace_within(rng, sub)
        assert vector_builds == []
        after = rng.random()
        rng = rng_from(seed)
        rows = [random_vector(rng, field, 4) for _ in range(rng.randint(0, 4))]
        assert sub == Subspace(field, 4, rows)
        members = [random_member(rng, sub) for _ in range(rng.randint(0, sub.rank))]
        assert within == Subspace(field, 4, members)
        assert rng.random() == after


def test_members_and_nested_subspaces_land_inside():
    rng = rng_from(2)
    for _ in range(20):
        s = random_subspace(rng, Field.Q, 4)
        assert random_subspace_within(rng, s) <= s
        assert s.contains(random_member(rng, s))


def test_ortho_pairs_are_orthogonal():
    rng = rng_from(3)
    for field in (Field.Q, Field.Qi):
        for _ in range(15):
            pair = random_ortho(rng, field, 3)
            assert perp_rel(pair.one, pair.zero)


def test_ordered_pairs_are_ordered():
    rng = rng_from(13)
    pairs = ordered_ortho_pairs(rng, Field.Q, 4, 20)
    assert len(pairs) == 20
    assert all(o_leq(l, m) for l, m in pairs)
    assert any(m.is_total for _, m in pairs)
    assert any(not m.is_total for _, m in pairs)


def test_non_ordered_pairs_are_not():
    rng = rng_from(29)
    pairs = non_ordered_ortho_pairs(rng, Field.Q, 3, 20)
    assert len(pairs) == 20
    assert not any(o_leq(l, m) for l, m in pairs)


def test_orthogonal_totals():
    rng = rng_from(31)
    for _ in range(15):
        l, m = orthogonal_total_pair(rng, Field.Q, 3)
        assert l.is_total and m.is_total
        assert o_leq(l, o_neg(m))


def test_triples_cover_the_gated_hypotheses():
    rng = rng_from(37)
    triples = complql_triples(rng, Field.Q, 3, 25)
    assert len(triples) == 25
    assert any(
        l.is_total and m.is_total and o_leq(l, o_neg(m)) for l, m, _ in triples
    )
    assert any(l.is_total and m.is_total and o_leq(l, m) for l, m, _ in triples)
    assert any(l == m for l, m, _ in triples)
    assert len(clql_triples(rng, Field.Q, 3, 10)) == 10


def test_cayley_matrices_are_unitary():
    for field in (Field.Q, Field.Qi):
        rng = rng_from(43)
        for _ in range(10):
            u = cayley_unitary(rng, field, 3)
            assert u.conj_transpose() @ u == Matrix.identity(field, 3)


def test_commuting_pairs_commute():
    rng = rng_from(53)
    for p, q in commuting_pairs(rng, Field.Q, 4, 15):
        assert op_eq(compose(p, q), compose(q, p))


def reference_commuting_pairs(rng, field, dim, count):
    """The matrix route to the pairs of ``commuting_pairs``: coordinate
    projections, each conjugated by the shared unitary when one is drawn
    and read back through ``from_matrix``, each marked by whether a
    unitary was drawn."""

    def coordinate(support, fixed):
        def axes(idx):
            return Subspace(field, dim, [[int(i == j) for i in range(dim)] for j in sorted(idx)])

        return projection_of(OrthoSubspace(axes(fixed), axes(support - fixed)))

    out = []
    while len(out) < count:
        s1 = {j for j in range(dim) if rng.randint(0, 1)}
        t1 = {j for j in s1 if rng.randint(0, 1)}
        for _ in range(8):
            s2 = {j for j in range(dim) if rng.randint(0, 1)}
            t2 = {j for j in s2 if rng.randint(0, 1)}
            if (t1 & s2) | (s1 - t1) == (t2 & s1) | (s2 - t2):
                break
        else:
            s2 = set(s1)
            t2 = {j for j in s2 if rng.randint(0, 1)}
        p, q = coordinate(s1, t1), coordinate(s2, t2)
        drawn = bool(rng.randint(0, 1))
        if drawn:
            u = cayley_unitary(rng, field, dim)
            p, q = conjugated(p, u), conjugated(q, u)
        out.append((p, q, drawn))
    return out


@pytest.mark.parametrize("field, dim", [(Field.Q, 3), (Field.Q, 4), (Field.Qi, 3)])
def test_commuting_pairs_are_those_of_the_matrix_route(field, dim):
    """Drawing each projection as a pair of spans of the unitary's
    columns gives, pair for pair, the projections that conjugating
    coordinate projections gives, and leaves the stream where it would."""
    unitaries = []
    for seed in range(5):
        rng, ref_rng = rng_from(seed), rng_from(seed)
        got = commuting_pairs(rng, field, dim, 4)
        want = reference_commuting_pairs(ref_rng, field, dim, 4)
        assert rng.getstate() == ref_rng.getstate()
        for pair, (*ref, drawn) in zip(got, want):
            for p, r in zip(pair, ref):
                assert (p.dom, p.images, p.pair) == (r.dom, r.images, r.pair)
            unitaries.append(drawn)
    # Both branches ran: the identity and a Cayley unitary.
    assert len(unitaries) == 20 and set(unitaries) == {True, False}


def test_generated_pairs_are_built_unchecked(coperp_calls, monkeypatch):
    """The generators' pairs are orthogonal by construction, so none is
    checked again, and commuting projections never go through
    ``from_matrix``; the session-wide pair contract asserts each pair."""
    matrices = []
    real = PartialProjection.from_matrix

    def counted(cls, dom, matrix):
        matrices.append(matrix)
        return real(dom, matrix)

    monkeypatch.setattr(PartialProjection, "from_matrix", classmethod(counted))
    rng = rng_from(71)
    for field, dim in ((Field.Q, 4), (Field.Qi, 3)):
        del coperp_calls[:]
        [random_ortho(rng, field, dim) for _ in range(6)]
        ordered_ortho_pairs(rng, field, dim, 6)
        non_ordered_ortho_pairs(rng, field, dim, 6)
        complql_triples(rng, field, dim, 10)
        commuting_pairs(rng, field, dim, 6)
        assert coperp_calls == [] and matrices == []


def test_operators_respect_the_total_flag():
    rng = rng_from(61)
    assert random_partial_operator(rng, Field.Q, 3, total=True).is_total
    assert random_partial_projection(rng, Field.Qi, 3, total=True).is_total
    partials = [random_partial_operator(rng, Field.Q, 3) for _ in range(12)]
    assert any(not t.is_total for t in partials)


def test_quotient_samples_lie_in_the_carrier():
    rng = rng_from(67)
    for q, x, y, z in quotient_samples(rng, Field.Q, 3, 15):
        for v in (x, y, z):
            assert q.carrier.contains(v)
