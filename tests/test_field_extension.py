"""Q sits inside Q(i): a Q instance is a Q(i) instance with zero
imaginary parts, and every operation must mean the same over both.  So
for each operation on subspaces, pairs, vectors and operators, the
lifted Q result equals the Q(i) result on the lifted operands, compared
as values; and each law suite reports the same counts on lifted
instances.  This needs no oracle, and it holds the two fields' separate
clearing, product and leading-one code to one answer."""

from fractions import Fraction

import pytest

from draws import random_member, random_vector
from orthoql.generators import (
    commuting_pairs,
    non_ordered_ortho_pairs,
    ordered_ortho_pairs,
    orthogonal_total_pair,
    random_ortho,
    random_partial_operator,
    random_scalar,
    random_subspace,
    rng_from,
)
from orthoql.laws import check_comm, check_lescomp, check_pls
from orthoql.linalg import Matrix, Vector
from orthoql.ortho import OrthoSubspace, o_join, o_meet, o_neg
from orthoql.partial_op import (
    PartialOperator,
    PartialProjection,
    compose,
    decompose,
    norm_sq_is_one,
    op_eq,
    op_neq,
    projection_of,
)
from orthoql.quotient import QuotientSpace
from orthoql.scalars import Field
from orthoql.subspace import Subspace, coperp_rel


def lift(x):
    """The Q(i) object with the values of the Q object ``x``."""
    if isinstance(x, Vector):
        return Vector(Field.Qi, x.entries)
    if isinstance(x, Matrix):
        return Matrix(Field.Qi, x.nrows, x.ncols, x.entries)
    if isinstance(x, Subspace):
        return Subspace(Field.Qi, x.ambient_dim, lift(x.basis))
    if isinstance(x, OrthoSubspace):
        return OrthoSubspace(lift(x.one), lift(x.zero))
    if isinstance(x, PartialProjection):
        return projection_of(lift(x.pair))
    if isinstance(x, PartialOperator):
        return PartialOperator(lift(x.dom), lift(x.images))
    if isinstance(x, Fraction):
        return Field.Qi.coerce(x)
    if isinstance(x, tuple):
        return tuple(lift(e) for e in x)
    assert x is None or type(x) is bool, x
    return x


def operands():
    """Q^3 operands by kind: spaces, among them orthogonal and
    non-orthogonal parts; orthogonal pairs; vectors, in and out of the
    spaces; each pair with two members of its domain; partial operators,
    total and not, and projections, one of them zero."""
    rng = rng_from(67)
    pairs = [random_ortho(rng, Field.Q, 3) for _ in range(4)]
    spaces = [random_subspace(rng, Field.Q, 3) for _ in range(4)]
    spaces += [s for p in pairs[:2] for s in (p.one, p.zero)]
    vectors = [random_vector(rng, Field.Q, 3) for _ in range(2)]
    vectors += [random_member(rng, s) for s in spaces[:3]]
    members = [(p, random_member(rng, p.dom), random_member(rng, p.dom)) for p in pairs]
    projections = [projection_of(p) for p in pairs + [pairs[0].local_zero()]]
    operators = [random_partial_operator(rng, Field.Q, 3, total=t) for t in (False, False, True)]
    return {
        "space": [(a,) for a in spaces],
        "spaces": [(a, b) for a in spaces for b in spaces],
        "pair": [(p,) for p in pairs],
        "pairs": [(p, q) for p in pairs for q in pairs],
        "space, vector": [(a, x) for a in spaces for x in vectors],
        "pair, members": members,
        "projection": [(p,) for p in projections],
        "operators": [(t, u) for t in operators + projections[:2] for u in operators + projections[:2]],
    }


def projection_values(pair):
    """The domain, images and pair of the projection of ``pair``."""
    p = projection_of(pair)
    return p.dom, p.images, p.pair


OPERATIONS = {
    "perp": ("space", lambda a: a.perp()),
    "projector": ("space", lambda a: a.projector),
    "meet": ("spaces", lambda a, b: a.meet(b)),
    "join": ("spaces", lambda a, b: a.join(b)),
    "leq": ("spaces", lambda a, b: a.leq(b)),
    "coperp_rel": ("spaces", coperp_rel),
    "contains": ("space, vector", lambda a, x: a.contains(x)),
    "distance_sq": ("space, vector", lambda a, x: a.distance_sq(x)),
    "projection_of": ("pair", projection_values),
    "o_neg": ("pair", o_neg),
    "o_meet": ("pairs", o_meet),
    "o_join": ("pairs", o_join),
    "decompose": ("pair, members", lambda p, x, y: decompose(p, x)),
    "q_inner": ("pair, members", lambda p, x, y: QuotientSpace(p).q_inner(x, y)),
    "norm_sq_is_one": ("projection", norm_sq_is_one),
    "compose": ("operators", compose),
    "op_eq": ("operators", op_eq),
    "op_neq": ("operators", op_neq),
}


@pytest.mark.parametrize("name", OPERATIONS)
def test_the_lifted_q_result_is_the_q_i_result(name):
    kind, op = OPERATIONS[name]
    cases = operands()[kind]
    answers = set()
    for args in cases:
        lifted = tuple(lift(x) for x in args)
        assert all(x.field is Field.Qi for x in lifted)
        got = op(*args)
        assert lift(got) == op(*lifted), (name, args)
        answers.add(got[0] if isinstance(got, tuple) else got)
    if name in ("leq", "coperp_rel", "contains", "norm_sq_is_one", "op_eq", "op_neq"):
        # Both answers occur, so for coperp_rel and op_neq a lifted
        # witness was compared.
        assert answers >= {True, False}, name


def pls_instances(rng):
    ops = [random_partial_operator(rng, Field.Q, 3, total=(i % 3 == 0)) for i in range(6)]
    return ops, [random_scalar(rng, Field.Q) for _ in ops]


def lescomp_instances(rng):
    return (ordered_ortho_pairs(rng, Field.Q, 3, 3) + non_ordered_ortho_pairs(rng, Field.Q, 3, 3),)


def comm_instances(rng):
    return commuting_pairs(rng, Field.Q, 3, 4), [orthogonal_total_pair(rng, Field.Q, 3) for _ in range(4)]


# Each suite, with Q^3 instances drawn as ``check --random`` draws them.
SUITES = {
    "pls": (check_pls, pls_instances),
    "lescomp": (check_lescomp, lescomp_instances),
    "comm": (check_comm, comm_instances),
}


@pytest.mark.parametrize("suite", SUITES)
def test_a_law_suite_counts_the_same_on_lifted_instances(suite):
    """Per law, the same ``instances``, ``hypothesis_met`` and violation
    count over Q and over the lifted Q(i) instances; the hypotheses are
    met somewhere, so the comparison is not of empty counts."""
    check, draw = SUITES[suite]
    args = draw(rng_from(71))
    lifted = [[lift(x) for x in arg] for arg in args]

    def counts(report):
        return {
            law: (r.instances, r.hypothesis_met, len(r.violations))
            for law, r in report.results.items()
        }

    got = counts(check(*args))
    assert got == counts(check(*lifted))
    assert sum(met for _, met, _ in got.values()) > 0, got
