"""The quotient of the domain of an orthogonal pair by its one-part.

Vectors of the domain represent their own classes: two representatives
are identified when their zero-components agree, and the inner product
of classes is the inner product of those components.  Mapping a class
to its zero-component is then a linear isometry onto the zero-part,
and viewing a domain vector as its class is a contraction.
"""

from __future__ import annotations

from fractions import Fraction

from orthoql.errors import NotInDomain
from orthoql.linalg import Vector, inner, norm_sq
from orthoql.ortho import OrthoSubspace
from orthoql.scalars import Scalar
from orthoql.subspace import Subspace

__all__ = ["QuotientSpace"]


class QuotientSpace:
    """dom(pair) with equality and inner product read off the zero-part."""

    __slots__ = ("base",)

    def __init__(self, base: OrthoSubspace):
        self.base = base

    @property
    def carrier(self) -> Subspace:
        return self.base.dom

    def _checked(self, x: Vector) -> Vector:
        if not self.carrier.contains(x):
            raise NotInDomain(f"{x!r} does not represent a class of this quotient")
        return self.base.zero.project(x)

    def q_iso(self, x: Vector) -> Vector:
        """Canonical representative: the zero-component of x."""
        return self._checked(x)

    def q_eq(self, x: Vector, y: Vector) -> bool:
        return self._checked(x) == self._checked(y)

    def q_inner(self, x: Vector, y: Vector) -> Scalar:
        return inner(self._checked(x), self._checked(y))

    def q_norm_sq(self, x: Vector) -> Fraction:
        return norm_sq(self._checked(x))

    def __repr__(self):
        return f"QuotientSpace(base={self.base!r})"
