"""Where each cached result lives.  One law run shares a table of
``meet``, ``join`` and ``leq`` results between equal operands: it
changes no answer, never mixes fields, and lives exactly as long as the
outermost run.  A subspace keeps its own orthocomplement and the Gram
solve behind every projection onto it, a projection keeps its pair while the pair keeps nothing of its
projection, and only the public pair constructor checks orthogonality;
the connectives' pairs are orthogonal by construction."""

import gc
from contextlib import nullcontext

import pytest

from orthoql import laws, subspace
from orthoql.errors import AmbientMismatch
from orthoql.generators import (
    commuting_pairs,
    non_ordered_ortho_pairs,
    ordered_ortho_pairs,
    orthogonal_total_pair,
    random_ortho,
    random_partial_operator,
    random_subspace,
    rng_from,
)
from orthoql.ortho import (
    OrthoSubspace,
    o_iff,
    o_implies,
    o_join,
    o_meet,
    o_minus,
    o_neg,
    o_not,
    o_perp,
)
from orthoql.linalg import Vector
from orthoql.partial_op import (
    decompose,
    identity_on,
    proj_compl,
    proj_iff,
    proj_implies,
    proj_join,
    proj_meet,
    proj_minus,
    proj_not,
    proj_orthogonal,
    projection_of,
    subspaces_of,
    total_zero,
    zero_on,
)
from orthoql.quotient import QuotientSpace
from orthoql.scalars import Field
from orthoql.subspace import Subspace, _shared_results, perp_rel


def copy(s):
    """A fresh object equal to ``s``, with nothing cached on it."""
    return Subspace(s.field, s.ambient_dim, s.basis.rows())


def copy_pair(pair):
    """A fresh pair equal to ``pair``, built and checked again."""
    return OrthoSubspace(copy(pair.one), copy(pair.zero))


def lattice_results(a, b):
    return (a.meet(b), a.join(b), a.leq(b), b.leq(a))


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
        for a in spaces:
            copy(a).perp(), copy(a).projector
        # The table holds the binary lattice results and nothing else.
        assert {key[0] for key in subspace._results} == {"meet", "join", "leq"}
    assert first == want and second == want
    # The second pass over fresh copies finds every result in the table.
    assert all(x is y for f, s in zip(first, second) for x, y in zip(f, s))


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_subspace_keeps_its_orthocomplement_and_projector(field, gram_solve_calls):
    # Every projection onto a subspace reads one Gram solve of its basis,
    # made the first time it is needed and kept on the subspace object.
    rng = rng_from(59)
    spaces = [random_subspace(rng, field, 3) for _ in range(8)]
    assert any(0 < a.rank < 3 for a in spaces)
    x = Vector(field, [1, -2, 3])
    with _shared_results():
        for a in spaces:
            solves = 0 if a.is_zero or a.is_full else 1
            del gram_solve_calls[:]
            pair = OrthoSubspace(a, a.perp())
            a.projector, a.project(x), a.distance_sq(x), decompose(pair, x)
            QuotientSpace(o_neg(pair)).q_iso(x)
            # A projection with a as its one-part, twice.
            projection_of(pair), projection_of(pair)
            assert a.perp() is a.perp() and a.projector == a.projector
            assert len(gram_solve_calls) == solves
            # An equal space is another object with its own caches.
            twin = copy(a)
            assert twin.perp() == a.perp() and twin.perp() is not a.perp()
            assert twin.projector == a.projector
            assert len(gram_solve_calls) == 2 * solves
    assert [a.perp() for a in spaces] == [copy(a).perp() for a in spaces]


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
def test_a_pair_is_checked_once_per_construction(field, coperp_calls):
    a, b = Subspace(field, 3, [[1, 2, 0]]), Subspace(field, 3, [[2, -1, 5]])
    c = Subspace(field, 3, [[1, 1, 1]])
    for run in (_shared_results, nullcontext):
        del coperp_calls[:]
        with run():
            pairs = [OrthoSubspace(a, b), OrthoSubspace(b, a), OrthoSubspace(copy(a), copy(b))]
            assert len(coperp_calls) == 3 and OrthoSubspace(a, b) == pairs[0]
            assert len(coperp_calls) == 4
            for one, zero in ((a, c), (c, a)):
                with pytest.raises(ValueError, match="must be orthogonal"):
                    OrthoSubspace(one, zero)
            assert len(coperp_calls) == 6
            # perp_rel computes every time; nothing shares its answer.
            assert [perp_rel(a, b), perp_rel(b, a), perp_rel(a, c)] == [True, True, False]
            assert len(coperp_calls) == 9


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_connectives_build_their_pairs_unchecked(field, coperp_calls):
    _, pairs = spaces_and_pairs(field, 61)
    del coperp_calls[:]
    built = []
    for a in pairs:
        built += [o_neg(a), a.local_zero(), a.local_one(), OrthoSubspace.total_from(a.one)]
        built += [f(a, b) for f in (o_meet, o_join) for b in pairs]
    assert coperp_calls == []
    # Each is the pair that the checked constructor accepts.
    assert all(OrthoSubspace(p.one, p.zero) == p for p in built)
    assert len(coperp_calls) == len(built)


# Each projection connective is the projection of its pair connective,
# taking 1 or 2 operands, so it builds exactly one projection;
# orthogonality builds none.
CONNECTIVES = [
    (proj_compl, o_neg, 1),
    (proj_meet, o_meet, 2),
    (proj_join, o_join, 2),
    (proj_minus, o_minus, 2),
    (proj_implies, o_implies, 2),
    (proj_iff, o_iff, 2),
    (proj_not, o_not, 1),
]


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_every_projection_call_builds_one_projection(field, projection_builds):
    _, (pair, other, *_) = spaces_and_pairs(field, 47)
    with _shared_results():
        p, again = projection_of(pair), projection_of(pair)
        # The projection keeps its pair, and the pair keeps nothing of it.
        assert again == p and again is not p and len(projection_builds) == 2
        assert subspaces_of(p) is pair and subspaces_of(again) is pair
        q, c = projection_of(other), proj_compl(p)
        for proj_f, pair_f, arity in CONNECTIVES:
            del projection_builds[:]
            got = proj_f(*(p, q)[:arity])
            assert projection_builds == [got], proj_f.__name__
            assert got.pair == pair_f(*(pair, other)[:arity]), proj_f.__name__
        del projection_builds[:]
        assert [proj_orthogonal(p, c), proj_orthogonal(p, q)] == [True, o_perp(pair, other)]
        assert projection_builds == []
    # Outside a run each call builds its projection too.
    assert projection_of(pair) == p and len(projection_builds) == 1


def test_pairs_and_projections_leave_no_cyclic_garbage():
    # A pair that kept its projection, which keeps the pair, was freed
    # only by the cycle collector: 64 objects for one drawn pair.
    gc.collect()
    gc.disable()
    try:
        pair = random_ortho(rng_from(3), Field.Q, 3)
        p = projection_of(pair)
        c = proj_compl(p)
        # The order and comm suites, on operands drawn as check --random draws them.
        rng = rng_from(7)
        ordered = ordered_ortho_pairs(rng, Field.Q, 3, 2) + non_ordered_ortho_pairs(rng, Field.Q, 3, 2)
        laws.check_lescomp(ordered)
        rng = rng_from(7)
        commuting = commuting_pairs(rng, Field.Q, 3, 4)
        laws.check_comm(commuting, [orthogonal_total_pair(rng, Field.Q, 3) for _ in range(4)])
        del pair, p, c, ordered, commuting
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_identity_and_zero_maps_check_their_pair_and_reduce_nothing(
    field, coperp_calls, projection_builds, rref_calls
):
    dom = Subspace(field, 3, [[1, 0, 2], [0, 1, 1]])
    del rref_calls[:]
    maps = [identity_on(dom), zero_on(dom), total_zero(field, 3)]
    # Each pair comes through the checked constructor and is built once.
    assert len(coperp_calls) == 3 and len(projection_builds) == 3
    # Each call builds the map again from the pair it keeps.
    assert all(projection_of(m.pair) == m and subspaces_of(m) is m.pair for m in maps)
    assert len(projection_builds) == 6
    # A zero part is read off the rank, and the full space is the identity.
    assert maps[2].dom.is_full and rref_calls == []


def test_a_run_still_refuses_operands_over_another_space(coperp_calls, projection_builds):
    a, b = Subspace(Field.Q, 3, [[1, 0, 0]]), Subspace(Field.Q, 3, [[0, 1, 0]])
    other_field, other_dim = Subspace(Field.Qi, 3, [[0, 1, 0]]), Subspace(Field.Q, 2, [[0, 1]])
    pair = OrthoSubspace(a, b)
    assert len(coperp_calls) == 1
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
        del coperp_calls[:]
        complex_pair = OrthoSubspace(Subspace(Field.Qi, 3, [[1, 0, 0]]), other_field)
        p, cp = projection_of(pair), projection_of(complex_pair)
        assert p.field is Field.Q and cp.field is Field.Qi
        assert p is not cp and len(projection_builds) == 2 and len(coperp_calls) == 1


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
