"""Pairs of orthogonal subspaces with lattice and complement structure.

An element is a pair (one, zero) of subspaces that are orthogonal to
each other: "one" carries the vectors regarded as fully inside, "zero"
the vectors regarded as fully outside, and their join is the domain on
which membership is decided.  Pairs where the domain is the whole
ambient space are called total.  Orthogonal parts are independent, so a
pair whose ranks add up to the ambient dimension is total, and its
domain is read off the ranks as ``Subspace.full`` with no join
computed; every reader of ``dom`` (``is_total``, ``local_zero``,
``local_one`` and the projection built on the pair) takes it from
there.  The complement simply swaps the two
components, which makes it an involution by construction; the
interesting content is how it interacts with meet and join, and that
is what the law battery in :mod:`orthoql.laws` exercises.

``OrthoSubspace`` holds a pair, its domain and its order, and nothing
of its projection; each connective is one module function
(``o_meet``, ``o_join``, ``o_neg`` and those built from them),
componentwise on the subspace lattice.  This module is the one place
that derives ``o_minus``, ``o_implies``, ``o_iff``, ``o_not`` and
``o_perp``; the projection connectives of :mod:`orthoql.partial_op` are
each one call through them.  Negation keeps its operand's domain, since
dom(¬A) = A0 ∨ A1 = dom(A), so the complement of a pair whose domain is
known joins nothing again.
A pair is checked where its parts come from a caller: the public
constructor ``OrthoSubspace(one, zero)`` checks that they are
orthogonal, and so do ``bottom`` and ``top``.  A pair whose parts the
package built orthogonal is made with ``OrthoSubspace._of``, unchecked.
The connectives are one such place: negation swaps the parts, and
a1 ∧ b1 lies in a1 ⊥ a0 and in b1 ⊥ b0, so it is orthogonal to a0 ∨ b0
(join is dual); their operands' spaces are still checked inside
``meet`` and ``join``.  The generators are another, since each draws
its zero-part inside the complement of its one-part or spans
orthonormal columns, and ``PartialProjection.from_matrix`` is the
third, whose projection checks make the parts it reads orthogonal.
"""

from __future__ import annotations

from orthoql.scalars import Field
from orthoql.subspace import Subspace, perp_rel

__all__ = [
    "OrthoSubspace",
    "o_meet",
    "o_join",
    "o_neg",
    "o_minus",
    "o_implies",
    "o_iff",
    "o_not",
    "o_leq",
    "o_eq",
    "o_perp",
]


class OrthoSubspace:
    """An orthogonal pair of subspaces of a common ambient space."""

    __slots__ = ("one", "zero", "_dom")

    def __init__(self, one: Subspace, zero: Subspace):
        # perp_rel raises AmbientMismatch for parts of different spaces.
        if not perp_rel(one, zero):
            raise ValueError("components of an orthogonal pair must be orthogonal")
        self.one, self.zero = one, zero
        self._dom = None

    @classmethod
    def _of(cls, one: Subspace, zero: Subspace) -> "OrthoSubspace":
        """The pair (one, zero), unchecked: its parts are orthogonal by construction."""
        pair = cls.__new__(cls)
        pair.one, pair.zero = one, zero
        pair._dom = None
        return pair

    # --- constructors --------------------------------------------------

    @classmethod
    def bottom(cls, field: Field, ambient_dim: int) -> "OrthoSubspace":
        """The total pair with empty one-part: everything is outside."""
        return cls(Subspace.zero(field, ambient_dim), Subspace.full(field, ambient_dim))

    @classmethod
    def top(cls, field: Field, ambient_dim: int) -> "OrthoSubspace":
        """The total pair with full one-part: everything is inside."""
        return cls(Subspace.full(field, ambient_dim), Subspace.zero(field, ambient_dim))

    @classmethod
    def total_from(cls, one: Subspace) -> "OrthoSubspace":
        """The unique total pair with the given one-part."""
        return cls._of(one, one.perp())

    # --- structure -------------------------------------------------------

    @property
    def field(self) -> Field:
        return self.one.field

    @property
    def ambient_dim(self) -> int:
        return self.one.ambient_dim

    @property
    def dom(self) -> Subspace:
        """Join of the two components: where membership is settled.  The
        parts are orthogonal, so independent: when their ranks add up to
        the ambient dimension the join is the whole space, with no
        elimination."""
        if self._dom is None:
            one, zero = self.one, self.zero
            if one.rank + zero.rank == one.ambient_dim:
                self._dom = Subspace.full(one.field, one.ambient_dim)
            else:
                self._dom = one.join(zero)
        return self._dom

    @property
    def is_total(self) -> bool:
        return self.dom.is_full

    def local_zero(self) -> "OrthoSubspace":
        """The least element of the interval this pair lives in."""
        return OrthoSubspace._of(Subspace.zero(self.field, self.ambient_dim), self.dom)

    def local_one(self) -> "OrthoSubspace":
        """The greatest element of the interval this pair lives in."""
        return OrthoSubspace._of(self.dom, Subspace.zero(self.field, self.ambient_dim))

    def __eq__(self, other):
        if not isinstance(other, OrthoSubspace):
            return NotImplemented
        return self.one == other.one and self.zero == other.zero

    def __hash__(self):
        return hash((self.one, self.zero))

    def __repr__(self):
        return f"OrthoSubspace(one={self.one!r}, zero={self.zero!r})"

    def leq(self, other: "OrthoSubspace") -> bool:
        return self.one.leq(other.one) and other.zero.leq(self.zero)


def o_meet(a: OrthoSubspace, b: OrthoSubspace) -> OrthoSubspace:
    return OrthoSubspace._of(a.one & b.one, a.zero | b.zero)


def o_join(a: OrthoSubspace, b: OrthoSubspace) -> OrthoSubspace:
    return OrthoSubspace._of(a.one | b.one, a.zero & b.zero)


def o_neg(a: OrthoSubspace) -> OrthoSubspace:
    # dom(¬A) = A0 ∨ A1 = dom(A): the negation keeps its operand's domain.
    neg = OrthoSubspace._of(a.zero, a.one)
    neg._dom = a._dom
    return neg


def o_minus(a: OrthoSubspace, b: OrthoSubspace) -> OrthoSubspace:
    return o_meet(a, o_neg(b))


def o_implies(a: OrthoSubspace, b: OrthoSubspace) -> OrthoSubspace:
    return o_join(o_neg(a), b)


def o_iff(a: OrthoSubspace, b: OrthoSubspace) -> OrthoSubspace:
    return o_meet(o_implies(a, b), o_implies(b, a))


def o_not(a: OrthoSubspace) -> OrthoSubspace:
    """Implication into the bottom pair (not the same as neg in general)."""
    return o_implies(a, OrthoSubspace.bottom(a.field, a.ambient_dim))


def o_leq(a: OrthoSubspace, b: OrthoSubspace) -> bool:
    return a.leq(b)


def o_eq(a: OrthoSubspace, b: OrthoSubspace) -> bool:
    return a == b


def o_perp(a: OrthoSubspace, b: OrthoSubspace) -> bool:
    """Orthogonality of pairs: a sits below the complement of b."""
    return a.leq(o_neg(b))
