"""The table of results that one law run shares (lattice results,
orthogonality checks and projections): it changes no answer, never
mixes fields, and lives exactly as long as the outermost run."""

import pytest

from orthoql import laws, subspace
from orthoql.errors import AmbientMismatch
from orthoql.generators import (
    commuting_pairs,
    random_ortho,
    random_partial_operator,
    random_subspace,
    rng_from,
)
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import (
    identity_on,
    proj_compl,
    proj_join,
    proj_meet,
    projection_of,
    total_zero,
    zero_on,
)
from orthoql.scalars import Field
from orthoql.subspace import Subspace, _shared_results, perp_rel


def copy(s):
    """A fresh object equal to ``s``, with nothing cached on it."""
    return Subspace(s.field, s.ambient_dim, s.basis.rows())


def copy_pair(pair):
    """A fresh pair equal to ``pair``, built and checked again."""
    return OrthoSubspace(copy(pair.one), copy(pair.zero))


def lattice_results(a, b):
    return (a.meet(b), a.join(b), a.leq(b), b.leq(a), a.perp(), b.perp(), a.projector, b.projector)


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_shared_results_change_no_answer(field):
    rng = rng_from(41)
    spaces = [random_subspace(rng, field, 3) for _ in range(8)]
    pairs = [(a, b) for a in spaces for b in spaces]
    want = [lattice_results(copy(a), copy(b)) for a, b in pairs]
    again = [lattice_results(copy(a), copy(b)) for a, b in pairs]
    # Outside a run nothing is shared: equal operands get fresh results.
    assert all(x is not y for w, g in zip(want, again) for x, y in zip(w[:2], g[:2]))
    with _shared_results():
        first = [lattice_results(copy(a), copy(b)) for a, b in pairs]
        second = [lattice_results(copy(a), copy(b)) for a, b in pairs]
    assert first == want and second == want
    # The second pass over fresh copies finds every result in the table.
    assert all(x is y for f, s in zip(first, second) for x, y in zip(f, s))


def test_shared_results_keep_the_fields_apart():
    # Equal real entries over Q and Q(i).  A real GaussianRational equals
    # and hashes like its Fraction, so only the field tells them apart.
    rows, line = [[1, 2, 0], [0, 1, -1]], [[1, 0, 3]]
    q, lq = Subspace(Field.Q, 3, rows), Subspace(Field.Q, 3, line)
    qi, lqi = Subspace(Field.Qi, 3, rows), Subspace(Field.Qi, 3, line)
    assert q.basis.entries == qi.basis.entries
    assert hash(q.basis.entries) == hash(qi.basis.entries)
    with _shared_results():
        for a, b in ((q, lq), (qi, lqi)):
            got = [a.meet(b), a.join(b), b.join(a), a.perp(), b.perp()]
            assert [s.field for s in got] == [a.field] * len(got)
            assert a.projector.field is a.field and b.projector.field is a.field
            assert got == [copy(a).meet(copy(b)), a.join(b), b.join(a), a.perp(), b.perp()]


def suites():
    """Each law-suite entry point with small operands."""
    rng = rng_from(43)
    f = Field.Q
    spaces = [random_subspace(rng, f, 3) for _ in range(3)]
    pairs = [random_ortho(rng, f, 3) for _ in range(3)]
    ops = [random_partial_operator(rng, f, 3) for _ in range(3)]
    [(p, q)] = commuting_pairs(rng, f, 3, 1)
    return {
        "clql": lambda: laws.check_clql([tuple(spaces)]),
        "complql": lambda: laws.check_complql([tuple(pairs)]),
        "pls": lambda: laws.check_pls(ops, [f.one]),
        "lescomp": lambda: laws.check_lescomp([tuple(pairs[:2])]),
        "comm": lambda: laws.check_comm(
            [(p, q), (projection_of(pairs[0]), projection_of(pairs[1]))], [tuple(pairs[:2])]
        ),
        "catalog": lambda: laws.check_catalog("distributivity", 2, f),
    }


def test_every_suite_runs_inside_one_table_and_drops_it(monkeypatch):
    seen = []
    record = laws.LawResult.record

    def spy(self, *args, **kwargs):
        seen.append(subspace._results)
        return record(self, *args, **kwargs)

    monkeypatch.setattr(laws.LawResult, "record", spy)
    for name, run in suites().items():
        seen.clear()
        run()
        assert seen, name
        assert seen[0] is not None and all(t is seen[0] for t in seen), name
        assert subspace._results is None, name


def test_a_suite_that_raises_drops_the_table():
    a = Subspace(Field.Q, 3, [[1, 0, 0]])
    for other in (Subspace(Field.Q, 2, [[1, 0]]), Subspace(Field.Qi, 3, [[1, 0, 0]])):
        with pytest.raises(AmbientMismatch):
            laws.check_clql([(a, other, a)])
        assert subspace._results is None


def test_a_nested_scope_reuses_the_outer_table():
    a = Subspace(Field.Q, 3, [[1, 2, 0], [0, 0, 1]])
    b = Subspace(Field.Q, 3, [[1, 0, 1]])
    with _shared_results():
        table = subspace._results
        met = a.meet(b)
        with _shared_results():
            assert subspace._results is table
            assert copy(a).meet(copy(b)) is met
        assert subspace._results is table
        size = len(table)
        laws.check_clql([(a, b, a)])
        assert subspace._results is table and len(table) > size
        with pytest.raises(AmbientMismatch):
            laws.check_clql([(a, Subspace(Field.Q, 2), a)])
        assert subspace._results is table
    assert subspace._results is None


# --- orthogonality checks and projections ------------------------------

def spaces_and_pairs(field, seed):
    """Drawn spaces, orthogonal and not, and drawn pairs of Q^3 or Q(i)^3."""
    rng = rng_from(seed)
    pairs = [random_ortho(rng, field, 3) for _ in range(6)]
    spaces = [random_subspace(rng, field, 3) for _ in range(4)]
    spaces += [s for p in pairs[:2] for s in (p.one, p.zero)]
    return spaces, pairs


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_run_checks_each_unordered_pair_of_spaces_once(field, coperp_calls):
    a, b = Subspace(field, 3, [[1, 2, 0]]), Subspace(field, 3, [[2, -1, 5]])
    c = Subspace(field, 3, [[1, 1, 1]])
    with _shared_results():
        got = [perp_rel(x, y) for x, y in ((a, b), (b, a), (copy(a), copy(b)), (copy(b), copy(a)))]
        assert got == [True] * 4 and len(coperp_calls) == 1
        got = [perp_rel(x, y) for x, y in ((a, c), (c, a), (copy(c), copy(a)))]
        assert got == [False] * 3 and len(coperp_calls) == 2
    # Outside a run every call computes.
    assert [perp_rel(a, b), perp_rel(b, a), perp_rel(a, b)] == [True] * 3
    assert len(coperp_calls) == 5


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_run_builds_each_projection_once(field, projection_builds):
    _, (pair, other, *_) = spaces_and_pairs(field, 47)
    with _shared_results():
        p = projection_of(pair)
        assert projection_of(copy_pair(pair)) is p and len(projection_builds) == 1
        q = projection_of(other)
        c = proj_compl(p)
        assert proj_compl(projection_of(copy_pair(pair))) is c and len(projection_builds) == 3
        # The complement of the complement is the projection of the first pair.
        assert proj_compl(c) is p and len(projection_builds) == 3
        meet, join = proj_meet(p, q), proj_join(p, q)
        assert proj_meet(p, projection_of(copy_pair(other))) is meet
        assert proj_join(p, q) is join and len(projection_builds) == 5
    # Outside a run every call builds.
    fresh = [projection_of(pair), projection_of(pair), proj_compl(p), proj_compl(p)]
    assert fresh[0] is not fresh[1] and fresh[2] is not fresh[3]
    assert fresh == [p, p, c, c] and len(projection_builds) == 9


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_run_builds_each_identity_and_zero_map_once(field, projection_builds, rref_calls):
    dom = Subspace(field, 3, [[1, 0, 2], [0, 1, 1]])
    with _shared_results():
        maps = [identity_on(dom), zero_on(dom), total_zero(field, 3)]
        again = [identity_on(copy(dom)), zero_on(copy(dom)), total_zero(field, 3)]
        assert all(x is y for x, y in zip(again, maps)) and len(projection_builds) == 3
    # The total zero map reduces nothing: the full space is the identity.
    del rref_calls[:]
    assert total_zero(field, 3).dom.is_full and rref_calls == []


def test_a_run_still_refuses_operands_over_another_space(coperp_calls, projection_builds):
    a, b = Subspace(Field.Q, 3, [[1, 0, 0]]), Subspace(Field.Q, 3, [[0, 1, 0]])
    other_field, other_dim = Subspace(Field.Qi, 3, [[0, 1, 0]]), Subspace(Field.Q, 2, [[0, 1]])
    pair = OrthoSubspace(a, b)
    with _shared_results():
        assert perp_rel(a, b) and perp_rel(b, a)
        for bad in (other_field, other_dim):
            for x, y in ((a, bad), (bad, a), (b, bad), (bad, b)):
                with pytest.raises(AmbientMismatch):
                    perp_rel(x, y)
            with pytest.raises(AmbientMismatch):
                OrthoSubspace(a, bad)
        # Equal entries over Q(i) are another pair, with its own check and
        # its own projection.
        complex_pair = OrthoSubspace(Subspace(Field.Qi, 3, [[1, 0, 0]]), other_field)
        p, cp = projection_of(pair), projection_of(complex_pair)
        assert p.field is Field.Q and cp.field is Field.Qi
        assert p is not cp and len(projection_builds) == 2
    # The pair outside the run, the first check inside it, the Q(i) pair.
    assert len(coperp_calls) == 3


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_shared_checks_and_projections_change_no_answer(field):
    spaces, pairs = spaces_and_pairs(field, 53)

    def answers():
        orthogonal = [perp_rel(copy(a), copy(b)) for a in spaces for b in spaces]
        projections = [projection_of(copy_pair(l)) for l in pairs]
        projections += [proj_compl(p) for p in projections]
        projections += [f(p, q) for f in (proj_meet, proj_join) for p in projections for q in projections]
        return orthogonal, [(p.dom, p.images, p.pair) for p in projections]

    want = answers()
    assert True in want[0] and False in want[0]
    with _shared_results():
        assert answers() == want
        assert answers() == want
