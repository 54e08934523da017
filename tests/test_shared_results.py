"""The table of lattice results that one law run shares: it changes no
answer, never mixes fields, and lives exactly as long as the outermost
run."""

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
from orthoql.partial_op import projection_of
from orthoql.scalars import Field
from orthoql.subspace import Subspace, _shared_results


def copy(s):
    """A fresh object equal to ``s``, with nothing cached on it."""
    return Subspace(s.field, s.ambient_dim, s.basis.rows())


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
