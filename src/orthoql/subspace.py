"""Linear subspaces of Q^n and Q(i)^n with decidable lattice structure.

A subspace is stored as the reduced row-echelon basis of its spanning
set, which is the unique canonical representative of the space, so
equality is bit-equality.  Meet is computed from the definition (pairs
of coefficient vectors producing a common element), join as the span
of stacked bases, and the orthocomplement as a kernel; every operation
is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from orthoql import scalars
from orthoql.errors import AmbientMismatch, DimensionMismatch
from orthoql.linalg import (
    Matrix,
    Vector,
    gram_projection,
    inner,
    norm_sq,
    null_space,
    rref,
    solve,
)
from orthoql.scalars import Field, Scalar

__all__ = ["Subspace", "perp_rel", "coperp_rel"]


class Subspace:
    """A subspace of the ambient space, canonically presented."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_perp", "_projector")

    def __init__(self, field: Field, ambient_dim: int, rows: Iterable = ()):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        self.field = field
        self.ambient_dim = ambient_dim
        vectors = [list(r) for r in rows]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"spanning vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        self.pivots: tuple[int, ...] = ()
        if vectors:
            reduced, rank, self.pivots = rref(Matrix.from_rows(field, vectors))
            self.basis = Matrix.from_rows(field, [list(reduced.row(i)) for i in range(rank)])
            if rank == 0:
                self.basis = Matrix(field, 0, ambient_dim, [])
        else:
            self.basis = Matrix(field, 0, ambient_dim, [])
        self._perp = None
        self._projector = None

    # --- constructors ------------------------------------------------

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim)

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).rows())

    # --- basic structure ---------------------------------------------

    @property
    def rank(self) -> int:
        return self.basis.nrows

    @property
    def is_zero(self) -> bool:
        return self.rank == 0

    @property
    def is_full(self) -> bool:
        return self.rank == self.ambient_dim

    @property
    def is_strict(self) -> bool:
        """Contains a nonzero vector."""
        return self.rank >= 1

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        rows = "; ".join(repr(list(map(scalars.scalar_text, r))) for r in self.basis.rows())
        return f"Subspace[{self.field.value}^{self.ambient_dim}; {rows or '0'}]"

    def _check_ambient(self, other: "Subspace"):
        if self.field is not other.field or self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"{self.field.value}^{self.ambient_dim} vs "
                f"{other.field.value}^{other.ambient_dim}"
            )

    # --- membership ----------------------------------------------------

    def coefficients_of(self, x: Vector) -> Optional[Vector]:
        """Coefficients of x over the canonical basis, or None."""
        if x.dim != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of dim {x.dim} in ambient dimension {self.ambient_dim}"
            )
        if self.rank == 0:
            return Vector(self.field, []) if x.is_zero else None
        return solve(self.basis.transpose(), x)

    def contains(self, x: Vector) -> bool:
        return self.coefficients_of(x) is not None

    def member_from_coefficients(self, coeffs: Sequence[Scalar]) -> Vector:
        coeffs = list(coeffs)
        if len(coeffs) != self.rank:
            raise DimensionMismatch("one coefficient per basis vector")
        acc = Vector(self.field, [self.field.zero] * self.ambient_dim)
        for k, row in zip(coeffs, self.basis.rows()):
            acc = acc + row.scaled(k)
        return acc

    # --- lattice operations --------------------------------------------

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection, from the definition: common values u@A = v@B.

        The pairs (u, v) of coefficient vectors with u@A - v@B = 0 form
        the kernel of the stacked transposed bases; the u-halves then
        sweep out exactly the intersection.
        """
        self._check_ambient(other)
        if self.rank == 0 or other.rank == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        stacked = Matrix.from_cols(
            self.field,
            [list(r) for r in self.basis.rows()]
            + [list((-rv) for rv in r) for r in other.basis.rows()],
        )
        ker = null_space(stacked)
        vectors = []
        for t in range(ker.ncols):
            coeffs = [ker.entry(k, t) for k in range(self.rank)]
            vectors.append(list(self.member_from_coefficients(coeffs)))
        return Subspace(self.field, self.ambient_dim, vectors)

    def join(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both (sums are closed here)."""
        self._check_ambient(other)
        rows = [list(r) for r in self.basis.rows()] + [list(r) for r in other.basis.rows()]
        return Subspace(self.field, self.ambient_dim, rows)

    def perp(self) -> "Subspace":
        """Orthocomplement {x : <x, b> = 0 for every basis vector b}."""
        if self._perp is None:
            if self.rank == 0:
                self._perp = Subspace.full(self.field, self.ambient_dim)
            else:
                ker = null_space(self.basis.conj())
                cols = [list(ker.col(j)) for j in range(ker.ncols)]
                self._perp = Subspace(self.field, self.ambient_dim, cols)
        return self._perp

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if self.rank > other.rank:
            return False
        return all(other.contains(b) for b in self.basis.rows())

    def __and__(self, other):
        return self.meet(other)

    def __or__(self, other):
        return self.join(other)

    def __le__(self, other):
        return self.leq(other)

    def __ge__(self, other):
        return other.leq(self)

    # --- metric structure ------------------------------------------------

    @property
    def projector(self) -> Matrix:
        """Ambient matrix of the orthogonal projection onto this space."""
        if self._projector is None:
            if self.rank == 0:
                self._projector = Matrix.zero(self.field, self.ambient_dim, self.ambient_dim)
            else:
                self._projector = gram_projection(self.basis.transpose())
        return self._projector

    def project(self, x: Vector) -> Vector:
        if x.dim != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of dim {x.dim} in ambient dimension {self.ambient_dim}"
            )
        return self.projector @ x

    def distance_sq(self, x: Vector) -> Fraction:
        """Squared distance from x to this subspace; 0 iff contained."""
        return norm_sq(x - self.project(x))

    def is_located_total(self) -> bool:
        """Whether this space joins with its orthocomplement to the whole
        ambient space.  True for every subspace at finite dimension; the
        predicate exists to make that fact checkable rather than assumed."""
        return self.join(self.perp()).is_full


def perp_rel(a: Subspace, b: Subspace) -> bool:
    """Whether every vector of ``a`` is orthogonal to every vector of ``b``.

    Checking basis pairs suffices, by (bi)linearity of the inner product.
    """
    a._check_ambient(b)
    return all(
        scalars.is_zero(inner(x, y)) for x in a.basis.rows() for y in b.basis.rows()
    )


def coperp_rel(a: Subspace, b: Subspace):
    """Witnessed non-orthogonality.

    Returns ``(True, (x, y))`` for some basis pair with <x, y> != 0,
    or ``(False, None)`` when the spaces are orthogonal.
    """
    a._check_ambient(b)
    for x in a.basis.rows():
        for y in b.basis.rows():
            if not scalars.is_zero(inner(x, y)):
                return True, (x, y)
    return False, None
