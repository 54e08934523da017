"""Orthogonal pairs: the complemented lattice and its law suite."""

import pytest

import oracle
from conftest import sub_to_oracle
from orthoql import generators, laws
from orthoql.errors import AmbientMismatch
from orthoql.generators import _modular_triples, complql_triples, random_ortho, rng_from
from orthoql.laws import (
    COMPLQL_LAWS,
    check_clql,
    check_complql,
    find_counterexample,
)
from orthoql.ortho import (
    OrthoSubspace,
    o_eq,
    o_iff,
    o_implies,
    o_join,
    o_leq,
    o_meet,
    o_minus,
    o_neg,
    o_not,
    o_perp,
)
from orthoql.scalars import Field
from orthoql.subspace import Subspace


def qs(*rows):
    return Subspace(Field.Q, 3, rows)


L = OrthoSubspace(qs([1, 0, 0]), qs([0, 1, 0]))
M = OrthoSubspace(qs([1, 0, 0], [0, 1, 0]), qs([0, 0, 1]))
BOT = OrthoSubspace.bottom(Field.Q, 3)
TOP = OrthoSubspace.top(Field.Q, 3)


def test_constructor_rejects_non_orthogonal_components():
    with pytest.raises(ValueError):
        OrthoSubspace(qs([1, 0, 0]), qs([1, 1, 0]))
    with pytest.raises(AmbientMismatch):
        OrthoSubspace(qs([1, 0, 0]), Subspace(Field.Q, 2, [[0, 1]]))


def test_componentwise_operations():
    assert o_neg(L).one == L.zero and o_neg(L).zero == L.one
    both = o_meet(L, M)
    assert both.one == qs([1, 0, 0])
    assert both.zero == qs([0, 1, 0], [0, 0, 1])
    either = o_join(L, M)
    assert either.one == qs([1, 0, 0], [0, 1, 0])
    assert either.zero.is_zero
    assert o_eq(o_minus(M, L), o_meet(M, o_neg(L)))
    assert o_eq(o_implies(L, M), o_join(o_neg(L), M))
    assert o_eq(o_iff(L, M), o_meet(o_implies(L, M), o_implies(M, L)))


def test_bottom_implies_anything():
    for pair in (L, M, TOP, BOT):
        assert o_eq(o_implies(BOT, pair), TOP)
    assert o_eq(o_not(BOT), TOP)
    assert o_eq(o_not(TOP), BOT)


def test_order_and_domains():
    below = OrthoSubspace(qs([1, 0, 0]), qs([0, 1, 0], [0, 0, 1]))
    assert o_leq(below, M)
    assert not o_leq(M, below)
    # One-parts nest but the zero-parts point the wrong way, so the
    # pairs are not ordered.
    assert not o_leq(L, M)
    assert L.dom == qs([1, 0, 0], [0, 1, 0])
    assert M.is_total and not L.is_total
    assert o_leq(BOT, L) and o_leq(L, TOP)
    # Comparability can fail in both directions at once.
    other = OrthoSubspace(qs([0, 0, 1]), qs([1, 0, 0]))
    assert not o_leq(L, other) and not o_leq(other, L)


def test_local_bounds():
    z = L.local_zero()
    o = L.local_one()
    assert z.one.is_zero and z.zero == L.dom
    assert o.one == L.dom and o.zero.is_zero
    assert o_leq(z, L) and o_leq(L, o)


def test_orthogonality_of_pairs():
    a = OrthoSubspace.total_from(qs([1, 0, 0]))
    b = OrthoSubspace.total_from(qs([0, 1, 0]))
    assert o_perp(a, b) and o_perp(b, a)
    assert not o_perp(a, a)


def test_matches_oracle_on_random_pairs():
    rng = rng_from(77)
    for field, dim in ((Field.Q, 3), (Field.Qi, 3)):
        for _ in range(25):
            a = random_ortho(rng, field, dim)
            b = random_ortho(rng, field, dim)
            oa = (sub_to_oracle(a.one), sub_to_oracle(a.zero))
            ob = (sub_to_oracle(b.one), sub_to_oracle(b.zero))
            got = o_meet(a, b)
            want = oracle.o_meet(oa, ob, dim)
            assert (sub_to_oracle(got.one), sub_to_oracle(got.zero)) == want
            got = o_join(a, b)
            want = oracle.o_join(oa, ob, dim)
            assert (sub_to_oracle(got.one), sub_to_oracle(got.zero)) == want
            assert o_leq(a, b) == oracle.o_leq(oa, ob, dim)
            assert a.is_total == oracle.o_total(oa, dim)


def test_law_suite_is_clean_on_generated_triples():
    rng = rng_from(13)
    report = check_complql(complql_triples(rng, Field.Q, 3, 40))
    assert report.ok, report.summary()
    for law in COMPLQL_LAWS:
        assert report.results[law].instances > 0
    # The conditional laws must actually fire on this mix.
    assert report.results["complql7"].hypothesis_met > 0
    assert report.results["complql8"].hypothesis_met > 0
    assert report.results["wedgetotal"].hypothesis_met > 0
    assert report.results["corcomplql_viii"].hypothesis_met > 0


def test_subspace_law_suite_is_clean():
    from orthoql.generators import clql_triples

    rng = rng_from(29)
    report = check_clql(clql_triples(rng, Field.Q, 3, 40))
    assert report.ok, report.summary()
    assert report.results["clql7"].hypothesis_met > 0
    assert report.results["modular_closed"].hypothesis_met > 0


def test_distributivity_counterexample_is_the_classic_one():
    ce = find_counterexample("distributivity", 2)
    assert ce is not None
    assert ce.operands["L"] == Subspace(Field.Q, 2, [[1, 0]])
    assert ce.operands["M"] == Subspace(Field.Q, 2, [[0, 1]])
    assert ce.operands["N"] == Subspace(Field.Q, 2, [[1, 1]])
    assert ce.lhs == ce.operands["L"]
    assert ce.rhs.is_zero
    assert "distributivity" in ce.summary()


def test_heyting_counterexample_detects_the_gap():
    ce = find_counterexample("heyting_adjunction", 2)
    assert ce is not None
    assert ce.operands["K"] == Subspace(Field.Q, 2, [[1, 0]])
    assert ce.operands["L"] == Subspace(Field.Q, 2, [[1, 1]])
    assert ce.operands["M"].is_zero
    # One side of the adjunction holds, the other fails.
    k, l, m = ce.operands["K"], ce.operands["L"], ce.operands["M"]
    assert k.meet(l).leq(m)
    assert not k.leq(l.perp().join(m))


def test_modularity_has_no_counterexample_here():
    assert find_counterexample("modularity", 2) is None
    assert find_counterexample("modularity", 3) is None
    assert find_counterexample("modularity", 3, Field.Qi) is None
    assert find_counterexample("modularity", 4, budget=50) is None


@pytest.fixture
def modularity_gaps(monkeypatch):
    """The triples the modularity search evaluates from now on."""
    calls = []
    real = laws._modularity_gap

    def counted(l, m, n):
        calls.append((l, m, n))
        return real(l, m, n)

    monkeypatch.setattr(laws, "_modularity_gap", counted)
    return calls


@pytest.fixture
def meet_mutant(monkeypatch):
    """A wrong ``meet``: the zero space whenever neither operand contains
    the other.  Degenerate modularity triples cannot tell it apart."""
    real = Subspace._meet

    def mutant(self, other):
        if self._leq(other) or other._leq(self):
            return real(self, other)
        return Subspace.zero(self.field, self.ambient_dim)

    monkeypatch.setattr(Subspace, "_meet", mutant)


@pytest.mark.parametrize("field, dim", [(Field.Q, 3), (Field.Q, 4), (Field.Qi, 3), (Field.Q, 8)])
def test_modularity_search_tries_only_non_degenerate_triples(modularity_gaps, field, dim):
    assert find_counterexample("modularity", dim, field) is None
    assert modularity_gaps
    for l, m, n in modularity_gaps:
        ol, om, on = (sub_to_oracle(s) for s in (l, m, n))
        # 0 < N < L < H and 0 < M < H.
        assert oracle.s_leq(on, ol, dim)
        assert 0 < oracle.rank(on) < oracle.rank(ol) < dim
        assert 0 < oracle.rank(om) < dim
        for other in (ol, on):
            assert not oracle.s_leq(om, other, dim)
            assert not oracle.s_leq(other, om, dim)


def test_modularity_search_cost_is_bounded_by_its_budget(modularity_gaps, monkeypatch):
    draws = []
    real = generators.random_scalar

    def counted(rng, field):
        draws.append(field)
        return real(rng, field)

    monkeypatch.setattr(generators, "random_scalar", counted)
    # No triple in two dimensions is non-degenerate, so nothing is drawn.
    assert find_counterexample("modularity", 2) is None
    assert draws == [] and modularity_gaps == []
    assert find_counterexample("modularity", 16, budget=8) is None
    assert 0 < len(modularity_gaps) <= 8


@pytest.mark.parametrize("field, dim", [(Field.Q, 4), (Field.Qi, 3)])
def test_modularity_search_exposes_a_wrong_meet(meet_mutant, field, dim):
    ce = find_counterexample("modularity", dim, field)
    assert ce is not None and ce.law == "modularity"
    assert ce.lhs != ce.rhs


def test_modular_closed_exposes_a_wrong_meet_on_modular_triples(meet_mutant):
    report = check_clql(_modular_triples(rng_from(7), Field.Q, 4, 16))
    assert report.results["modular_closed"].violations


def test_counterexample_search_edges():
    assert find_counterexample("distributivity", 1) is None
    with pytest.raises(ValueError):
        find_counterexample("associativity", 3)


def test_padding_carries_counterexamples_to_higher_dimension():
    ce = find_counterexample("distributivity", 5)
    assert ce is not None and ce.operands["L"].ambient_dim == 5
