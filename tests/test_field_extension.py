"""Q sits inside Q(i): a Q instance is a Q(i) instance with zero
imaginary parts, and every operation must mean the same over both.  So
for each operation whose result is cached, the lifted Q result equals
the Q(i) result on the lifted operands, compared as values.  This needs
no oracle, and it holds the two fields' separate clearing, product and
leading-one code to one answer."""

import pytest

from orthoql.generators import random_ortho, random_subspace, rng_from
from orthoql.linalg import Matrix, Vector
from orthoql.ortho import OrthoSubspace, o_join, o_meet, o_neg
from orthoql.partial_op import projection_of
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
    if isinstance(x, tuple):
        return tuple(lift(e) for e in x)
    assert x is None or type(x) is bool, x
    return x


def operands():
    """Spaces of Q^3, among them orthogonal and non-orthogonal parts, and
    orthogonal pairs of Q^3."""
    rng = rng_from(67)
    pairs = [random_ortho(rng, Field.Q, 3) for _ in range(4)]
    spaces = [random_subspace(rng, Field.Q, 3) for _ in range(4)]
    spaces += [s for p in pairs[:2] for s in (p.one, p.zero)]
    return spaces, pairs


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
    "projection_of": ("pair", projection_values),
    "o_neg": ("pair", o_neg),
    "o_meet": ("pairs", o_meet),
    "o_join": ("pairs", o_join),
}


@pytest.mark.parametrize("name", OPERATIONS)
def test_the_lifted_q_result_is_the_q_i_result(name):
    kind, op = OPERATIONS[name]
    spaces, pairs = operands()
    pool = spaces if kind.startswith("space") else pairs
    if kind in ("space", "pair"):
        cases = [(x,) for x in pool]
    else:
        cases = [(x, y) for x in pool for y in pool]
    for args in cases:
        lifted = tuple(lift(x) for x in args)
        assert all(x.field is Field.Qi for x in lifted)
        assert lift(op(*args)) == op(*lifted), (name, args)
    if name == "coperp_rel":
        # Both answers occur, so a lifted witness was compared.
        assert {op(*args)[0] for args in cases} == {True, False}
