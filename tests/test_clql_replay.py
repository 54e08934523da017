"""The oracle recomputes every verdict of the lattice suite on the
operands that ``check --random`` draws.

The headline digests pin the package's own verdicts, so a verdict that
was wrong when it was pinned would stay pinned.  Here each law of
``CLQL_LAWS`` is written from its meaning in the oracle's lattice
operations (``s_meet``, ``s_join``, ``s_perp``, ``s_leq``, ``s_eq``), on
the triples that ``clql_triples`` draws from seed 7: over ``Q^4``, as
``check --random 4 60 7 --laws clql`` draws them, and over ``Q(i)^3``.
The per-law counts of instances, of instances that meet the law's
hypothesis and of violations must equal those of ``laws.check_clql``."""

import pytest

import oracle
from conftest import sub_to_oracle
from orthoql.generators import clql_triples, rng_from
from orthoql.laws import CLQL_LAWS, check_clql
from orthoql.scalars import Field

COUNT = 60


def lattice_verdicts(l, m, n, nc):
    """(law, applicable, holds) for each law of the suite on the triple
    (L, M, N) of canonical spans in dimension ``nc``."""
    meet, join, perp = oracle.s_meet, oracle.s_join, oracle.s_perp
    leq, eq = oracle.s_leq, oracle.s_eq
    top, bottom = oracle.full(nc), ()
    lm, l_or_m, lp, mp = meet(l, m, nc), join(l, m, nc), perp(l, nc), perp(m, nc)
    # L ^ M is the greatest lower bound of L and M, L v M their least upper bound.
    below_both = not (leq(n, l, nc) and leq(n, m, nc)) or leq(n, lm, nc)
    above_both = not (leq(l, n, nc) and leq(m, n, nc)) or leq(l_or_m, n, nc)
    yield "clql1", True, leq(lm, l, nc) and leq(lm, m, nc) and below_both and (
        leq(l, l_or_m, nc) and leq(m, l_or_m, nc) and above_both
    )
    yield "clql2", True, leq(bottom, l, nc) and leq(l, top, nc)
    # The orthocomplement reverses the order, is an involution and a complement.
    yield "clql3", True, leq(l, m, nc) == leq(mp, lp, nc)
    yield "clql4", True, eq(l, perp(lp, nc), nc)
    yield "clql5", True, eq(meet(l, lp, nc), bottom, nc)
    yield "clql6", True, eq(join(l, lp, nc), top, nc)
    # Orthomodularity: A <= B gives B = A v (B ^ A-perp).  The pair
    # (L, L v M) is always ordered; (L, M) only when L <= M.
    yield "clql7", True, eq(l_or_m, join(l, meet(l_or_m, lp, nc), nc), nc)
    ordered = leq(l, m, nc)
    yield "clql7", ordered, not ordered or eq(m, join(l, meet(m, lp, nc), nc), nc)
    # Each side of each distributive law bounds the other one way.
    yield "semidistributive", True, leq(
        join(l, meet(m, n, nc), nc), meet(l_or_m, join(l, n, nc), nc), nc
    ) and leq(join(lm, meet(l, n, nc), nc), meet(l, join(m, n, nc), nc), nc)
    # Modularity: K <= L gives L ^ (M v K) = (L ^ M) v K.  N ^ L is always
    # below L; N itself only when N <= L.
    for k, applicable in ((meet(n, l, nc), True), (n, leq(n, l, nc))):
        holds = eq(meet(l, join(m, k, nc), nc), join(lm, k, nc), nc)
        yield "modular_closed", applicable, not applicable or holds
    yield "demorgan_join", True, eq(perp(l_or_m, nc), meet(lp, mp, nc), nc)
    yield "demorgan_meet_geq", True, leq(join(lp, mp, nc), perp(lm, nc), nc)
    yield "demorgan_meet_eq", True, eq(perp(lm, nc), join(lp, mp, nc), nc)
    # Every subspace is located: with its orthocomplement it spans the space.
    yield "located", True, eq(join(l, lp, nc), top, nc)


def oracle_counts(triples, nc):
    """Per law, [instances, hypothesis met, violations] as the oracle
    decides them."""
    counts = {law: [0, 0, 0] for law in CLQL_LAWS}

    def record(law, applicable, holds):
        row = counts[law]
        row[0] += 1
        row[1] += applicable
        row[2] += applicable and not holds

    if triples:
        # The ambient space is a nontrivial lattice: its bottom is not its top.
        record("clql0", nc >= 1, not oracle.s_eq((), oracle.full(nc), nc))
    for triple in triples:
        spans = [oracle.span(sub_to_oracle(s), nc) for s in triple]
        for verdict in lattice_verdicts(*spans, nc):
            record(*verdict)
    return counts


@pytest.fixture(scope="module", params=[(Field.Q, 4), (Field.Qi, 3)], ids=["Q4", "Qi3"])
def replay(request):
    field, dim = request.param
    triples = clql_triples(rng_from(7), field, dim, COUNT)
    return field, oracle_counts(triples, dim), check_clql(triples).results


def test_the_oracle_gives_every_verdict_count_of_the_suite(replay):
    _, want, results = replay
    got = {law: [r.instances, r.hypothesis_met, len(r.violations)] for law, r in results.items()}
    assert got == want


def test_every_law_meets_its_hypothesis(replay):
    field, want, _ = replay
    assert [law for law, (_, met, _) in want.items() if met == 0] == []
    assert sum(bad for _, _, bad in want.values()) == 0
    # clql7 is tried twice per triple; the raw pair (L, M) is ordered on
    # 24 of the 60 drawn triples over Q and on 23 over Q(i).
    assert want["clql7"][:2] == [2 * COUNT, 84 if field is Field.Q else 83]
