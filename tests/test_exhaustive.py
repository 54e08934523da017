"""Bounded-exhaustive law checks on two finite families of subspaces.

Every subspace of Q^3 spanned by vectors with entries in {-1, 0, 1} is
one of 40: the zero space, 13 lines, 25 planes and the whole space.
Every subspace of Q(i)^2 spanned by vectors with entries in {0, ±1, ±i}
is one of 8: the zero space, 6 lines and the whole space.  A family is
small enough to check completely, and deterministically: the
small-scope hypothesis (Jackson & Damon 1996; Andoni, Daniliuc,
Khurshid & Marinov 2003) and bounded-exhaustive testing (Boyapati,
Khurshid & Marinov 2002).

A random draw is mostly degenerate: a bound operand, or operands
comparable in a way that settles the law by the lattice axioms alone.
Here the lattice slice takes the general triples, three proper and
pairwise incomparable subspaces, and the pair slices take the ordered
pairs of proper orthogonal pairs, whose parts are both nonzero.  Each permutation of coordinates
that also multiplies them by units of the entry set (the 48 signed
permutations of Q^3, 32 such maps of Q(i)^2) is unitary and maps its
family onto itself.  Every law is a Hilbert-space statement, so such a
map carries an instance onto one with the same verdict, and each slice
checks one operand tuple per orbit.  Unitary covariance itself is
checked by ``test_covariance``.  A seeded sample of the family is
checked against ``tests/oracle.py``, and ``test_mutants`` holds the
mutants that a slice of the family kills.
"""

import functools
import itertools
import operator
import random

import pytest

import oracle
from conftest import sub_to_oracle, to_vec
from orthoql.laws import CLQL_LAWS, check_clql, check_comm, check_complql, check_lescomp
from orthoql.linalg import Matrix, _first_nonorthogonal, _form
from orthoql.ortho import OrthoSubspace, o_join, o_leq, o_meet, o_minus
from orthoql.partial_op import projection_of
from orthoql.scalars import Field, GaussianRational
from orthoql.subspace import Subspace, perp_rel

I = GaussianRational(0, 1)
# field -> (ambient dimension, the nonzero entries of the spanning vectors)
SPACES = {Field.Q: (3, (1, -1)), Field.Qi: (2, (1, -1, I, -I))}


def directions(n, units):
    """One spanning vector per line: those whose first nonzero entry is 1."""
    return [
        v
        for v in itertools.product((0,) + units, repeat=n)
        if any(v) and next(e for e in v if e) == 1
    ]


def family(field):
    """Every subspace spanned by entry-set vectors, in a fixed order.  A
    subspace of dimension k is spanned by k of any spanning set, so the
    spans of at most n directions are all of them."""
    n, units = SPACES[field]
    lines = directions(n, units)
    spans = (c for k in range(n + 1) for c in itertools.combinations(lines, k))
    return list(dict.fromkeys(Subspace(field, n, rows) for rows in spans))


def orbit_reps(tuples, table):
    """The first of ``tuples`` of indices in each orbit under ``table``,
    for tuples that hold whole orbits."""
    seen, reps = set(), []
    for t in tuples:
        if t not in seen:
            reps.append(t)
            seen.update(tuple(g[x] for x in t) for g in table)
    return reps


class Family:
    """A family, its orthogonal pairs and its slices, by index.

    A member is the span of the family lines it contains, so those lines
    decide its order, its orthogonality and its images under the
    symmetries: each maps lines to lines."""

    def __init__(self, field):
        n, units = SPACES[field]
        self.subs = family(field)
        vectors = directions(n, units)
        lines = [Subspace(field, n, [v]) for v in vectors]
        held = [frozenset(d for d, line in enumerate(lines) if line.leq(s)) for s in self.subs]
        index = {h: k for k, h in enumerate(held)}
        line_index = {line: d for d, line in enumerate(lines)}
        table = []
        for perm in itertools.permutations(range(n)):
            for scale in itertools.product(units, repeat=n):
                image = [
                    line_index[Subspace(field, n, [[scale[j] * v[perm[j]] for j in range(n)]])]
                    for v in vectors
                ]
                table.append([index[frozenset(image[d] for d in h)] for h in held])
        size = range(len(self.subs))
        proper = [a for a in size if self.subs[a].is_strict and not self.subs[a].is_full]
        apart = [[not (held[a] <= held[b] or held[b] <= held[a]) for b in size] for a in size]
        self.general = [
            (a, b, c)
            for a, b, c in itertools.product(proper, repeat=3)
            if apart[a][b] and apart[a][c] and apart[b][c]
        ]
        self.triples = orbit_reps(self.general, table)
        perp = [[perp_rel(x, y) for y in lines] for x in lines]
        self.orthogonal = [
            (a, b) for a in size for b in size if all(perp[x][y] for x in held[a] for y in held[b])
        ]
        # A pair with a zero part is its domain's local bottom or top.
        proper_pairs = [(a, b) for a, b in self.orthogonal if a in proper and b in proper]
        self.proper = [OrthoSubspace(self.subs[a], self.subs[b]) for a, b in proper_pairs]
        pair_index = {p: k for k, p in enumerate(proper_pairs)}
        pair_table = [[pair_index[(g[a], g[b])] for a, b in proper_pairs] for g in table]
        pair_pairs = itertools.product(range(len(proper_pairs)), repeat=2)
        self.pair_pairs = orbit_reps(list(pair_pairs), pair_table)

    def subspace_triples(self, triples):
        return [tuple(self.subs[x] for x in t) for t in triples]

    def pairs(self, pair_pairs):
        return [(self.proper[x], self.proper[y]) for x, y in pair_pairs]


@functools.cache
def built(field) -> Family:
    return Family(field)


# --- the slices, run by the tests below and by ``test_mutants`` ----------

def clql_slice(fam, triples=None):
    return check_clql(fam.subspace_triples(fam.triples if triples is None else triples))


def complql_slice(fam):
    # The third operand, l ^ -m, lies below l, as perp2_iii's hypothesis asks.
    return check_complql([(l, m, o_minus(l, m)) for l, m in fam.pairs(fam.pair_pairs)])


def order_slice(fam):
    return check_lescomp(fam.pairs(fam.pair_pairs))


def comm_slice(fam):
    pairs = fam.pairs(fam.pair_pairs)
    return check_comm([(projection_of(l), projection_of(m)) for l, m in pairs], pairs)


SUITES = {"complql": complql_slice, "order": order_slice, "comm": comm_slice}


# --- the families ------------------------------------------------------

def test_the_families_have_their_known_sizes():
    q3, qi2 = built(Field.Q), built(Field.Qi)
    assert [sum(s.rank == r for s in q3.subs) for r in range(4)] == [1, 13, 25, 1]
    assert [sum(s.rank == r for s in qi2.subs) for r in range(3)] == [1, 6, 1]
    assert (len(q3.orthogonal), len(qi2.orthogonal)) == (153, 21)
    assert (len(q3.general), len(qi2.general)) == (36_540, 120)
    # One tuple per orbit: far fewer than the tuples themselves.
    assert (len(q3.triples), len(q3.pair_pairs)) == (1_719, 391)
    assert (len(qi2.triples), len(qi2.pair_pairs)) == (15, 7)


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_the_family_and_its_orthogonal_pairs_agree_with_the_oracle(field):
    n, units = SPACES[field]
    lines = [to_vec(v) for v in directions(n, units)]
    combos = (c for k in range(n + 1) for c in itertools.combinations(lines, k))
    spans = {oracle.span(list(c), n) for c in combos}
    fam = built(field)
    assert {sub_to_oracle(s) for s in fam.subs} == spans and len(spans) == len(fam.subs)
    mats = [sub_to_oracle(s) for s in fam.subs]
    orthogonal = [
        (a, b) for a, x in enumerate(mats) for b, y in enumerate(mats) if oracle.orthogonal(x, y)
    ]
    assert fam.orthogonal == orthogonal


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_every_orthogonal_pair_has_the_domain_its_parts_join_to(field):
    # ``dom`` reads a total domain off the ranks; each pair is built
    # anew, so its domain is not yet known, and the join comes from the
    # parts themselves.
    n = SPACES[field][0]
    fam = built(field)
    for a, b in fam.orthogonal:
        one, zero = fam.subs[a], fam.subs[b]
        pair = OrthoSubspace(one, zero)
        assert pair.dom == one.join(zero), (a, b)
        assert pair.is_total == oracle.o_total((sub_to_oracle(one), sub_to_oracle(zero)), n)


def spanning_sets(field):
    """Three spanning sets of each family member, as matrices of raw
    rows: the first combination of directions that spans it, then that
    with a zero row added, and with a dependent row (the sum of its
    first and last rows) added."""
    n, units = SPACES[field]
    first = {}
    for k in range(n + 1):
        for rows in itertools.combinations(directions(n, units), k):
            first.setdefault(Subspace(field, n, rows), list(rows))
    zero = (0,) * n
    sets = []
    for rows in first.values():
        dependent = tuple(map(operator.add, rows[0], rows[-1])) if rows else zero
        sets.append(
            [
                Matrix(field, len(r), n, [e for row in r for e in row])
                for r in (rows, rows + [zero], rows + [dependent])
            ]
        )
    return sets


def orthogonal_rows(a: Matrix, b: Matrix) -> bool:
    """The file loader's verdict on two sets of spanning rows."""
    xs, ys = (_form(m.field, m.entries)[1] for m in (a, b))
    return _first_nonorthogonal(a.field, xs, ys, a.ncols) is None


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_orthogonality_on_spanning_rows_agrees_with_perp_rel(field):
    # The file loader decides a pair on its parts' spanning rows, with no
    # basis reduced; zero and dependent rows change no verdict.  Each
    # spanning set of each member meets one of every other member's, and
    # every pairing of the three kinds occurs.
    n = SPACES[field][0]
    sets = spanning_sets(field)
    subs = built(field).subs
    assert [[Subspace(field, n, m) for m in member] for member in sets] == [[s] * 3 for s in subs]
    orthogonal = 0
    for x, a_sets in zip(subs, sets):
        for j, (y, b_sets) in enumerate(zip(subs, sets)):
            for k, a in enumerate(a_sets):
                got = orthogonal_rows(a, b_sets[(j + k) % 3])
                assert got == perp_rel(x, y)
                orthogonal += got
    assert orthogonal == 3 * len(built(field).orthogonal)


# --- the law slices ------------------------------------------------------

@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_every_lattice_law_holds_on_the_general_triples(field):
    fam = built(field)
    report = clql_slice(fam)
    assert report.ok, report.summary()
    # Each triple meets every unconditional law's hypothesis.
    for law in CLQL_LAWS[1:]:
        assert report.results[law].hypothesis_met >= len(fam.triples), law


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
@pytest.mark.parametrize("suite", SUITES)
def test_every_pair_law_holds_on_the_pairs_of_proper_pairs(suite, field):
    report = SUITES[suite](built(field))
    assert report.ok, report.summary()
    # Every law meets its hypothesis somewhere.
    assert all(r.hypothesis_met for r in report.results.values()), report.summary()


# --- the oracle ---------------------------------------------------------

@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_a_seeded_sample_agrees_with_the_oracle(field):
    """Meets, joins, orthocomplements and five lattice laws of a seeded
    sample of triples, and the pair connectives of a seeded sample of
    pairs of proper pairs, against the oracle's definition-unfolded ones."""
    fam = built(field)
    n = SPACES[field][0]
    rng = random.Random(f"exhaustive-{field.value}")
    for _ in range(24):
        l, m, k = (rng.choice(fam.subs) for _ in range(3))
        ol, om, ok = map(sub_to_oracle, (l, m, k))
        assert sub_to_oracle(l.meet(m)) == oracle.s_meet(ol, om, n)
        assert sub_to_oracle(l.join(m)) == oracle.s_join(ol, om, n)
        assert sub_to_oracle(l.perp()) == oracle.s_perp(ol, n)
        distributive = l.meet(m.join(k)) == l.meet(m).join(l.meet(k))
        assert distributive == oracle.law_distributive(ol, om, ok, n)
        assert (l.join(m).perp() == l.perp().meet(m.perp())) == oracle.law_de_morgan_join(ol, om, n)
        assert (l.meet(m).perp() == l.perp().join(m.perp())) == oracle.law_de_morgan_meet(ol, om, n)
        small, big = l.meet(k), l.join(m)
        assert oracle.law_modular(ol, om, sub_to_oracle(small), n)
        assert l.meet(m.join(small)) == l.meet(m).join(small)
        assert oracle.law_orthomodular(ol, sub_to_oracle(big), n)
        assert big == l.join(big.meet(l.perp()))
    for _ in range(12):
        l, m = (rng.choice(fam.proper) for _ in range(2))
        ol, om = ((sub_to_oracle(p.one), sub_to_oracle(p.zero)) for p in (l, m))
        for got, want in ((o_meet(l, m), oracle.o_meet), (o_join(l, m), oracle.o_join)):
            assert (sub_to_oracle(got.one), sub_to_oracle(got.zero)) == want(ol, om, n)
        assert o_leq(l, m) == oracle.o_leq(ol, om, n)
