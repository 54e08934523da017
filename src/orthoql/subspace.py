"""Linear subspaces of Q^n and Q(i)^n with decidable lattice structure.

A subspace is stored as the reduced row-echelon basis of its spanning
set, which is the unique canonical representative of the space, so
equality is bit-equality.  Meet is computed from the definition (pairs
of coefficient vectors producing a common element), join as the span
of stacked bases, and the orthocomplement read off the canonical basis;
every operation is exact.

Because the canonical basis is an exact structural key, a law run can
share lattice results between equal operands: inside a
``_shared_results()`` block, ``meet``, ``join``, ``leq``, ``perp`` and
``projector`` first look their result up in one table keyed by the
operation and its operands (whose equality includes the field), and
store it there when they compute it.  Equal operands have equal results,
so the table changes no answer.  It lives exactly as long as the
outermost block; a nested block reuses it, and outside any block there
is no table and every operation computes its result afresh.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Optional

from orthoql import scalars
from orthoql.errors import AmbientMismatch, DimensionMismatch
from orthoql.linalg import (
    Matrix,
    Vector,
    _kernel_rows,
    gram_projection,
    norm_sq,
    null_space,
    rref,
    solve,
)
from orthoql.scalars import Field

__all__ = ["Subspace", "perp_rel", "coperp_rel"]

# The results of the open law run, keyed by (operation, *operands); None
# when no ``_shared_results`` block is open.
_results: Optional[dict] = None


@contextmanager
def _shared_results():
    """Share lattice results among equal operands until the outermost
    block closes, which drops the table."""
    global _results
    if _results is not None:
        yield
        return
    _results = {}
    try:
        yield
    finally:
        _results = None


def _shared(op: str, compute, *operands):
    """``compute(*operands)``, taken from or stored in the open table."""
    table = _results
    if table is None:
        return compute(*operands)
    key = (op, *operands)
    try:
        return table[key]
    except KeyError:
        result = table[key] = compute(*operands)
        return result


class Subspace:
    """A subspace of the ambient space, canonically presented."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_perp", "_projector", "_hash")

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
        if vectors:
            self.basis, self.pivots = rref(Matrix.from_rows(field, vectors))
        else:
            self.basis, self.pivots = Matrix(field, 0, ambient_dim, []), ()
        self._perp = None
        self._projector = None
        self._hash = None

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
        if self._hash is None:
            self._hash = hash((self.field, self.ambient_dim, self.basis))
        return self._hash

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

    def contains(self, x: Vector) -> bool:
        if x.field is not self.field:
            raise AmbientMismatch(f"{x.field.value} vector in {self.field.value}^{self.ambient_dim}")
        if x.dim != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of dim {x.dim} in ambient dimension {self.ambient_dim}"
            )
        if self.rank == 0:
            return x.is_zero
        return solve(self.basis.transpose(), x) is not None

    # --- lattice operations --------------------------------------------

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection, from the definition: common values u@A = -w@B.

        The pairs (u, w) of coefficient vectors with u@A + w@B = 0 are
        the kernel rows of the transposed stack of the two bases; with
        the u-halves as the rows of U, the rows of U @ A span exactly the
        intersection.
        """
        self._check_ambient(other)
        return _shared("meet", Subspace._meet, self, other)

    def _meet(self, other: "Subspace") -> "Subspace":
        if self.rank == 0 or other.rank == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        r, k = self.rank, self.rank + other.rank
        stacked = Matrix(self.field, k, self.ambient_dim, self.basis.entries + other.basis.entries)
        ker = null_space(stacked.transpose())
        halves = [e for i in range(ker.nrows) for e in ker.entries[i * k : i * k + r]]
        u = Matrix(self.field, ker.nrows, r, halves)
        return Subspace(self.field, self.ambient_dim, (u @ self.basis).rows())

    def join(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both (sums are closed here)."""
        self._check_ambient(other)
        return _shared("join", Subspace._join, self, other)

    def _join(self, other: "Subspace") -> "Subspace":
        rows = [list(r) for r in self.basis.rows()] + [list(r) for r in other.basis.rows()]
        return Subspace(self.field, self.ambient_dim, rows)

    def perp(self) -> "Subspace":
        """Orthocomplement {x : <x, b> = 0 for every basis vector b}."""
        if self._perp is None:
            self._perp = _shared("perp", Subspace._orthocomplement, self)
        return self._perp

    def _orthocomplement(self) -> "Subspace":
        # <x, b> = 0 for every basis row b is conj(basis) @ x = 0, and the
        # conjugate of the RREF basis is reduced with the same pivots, so
        # its kernel is read off the free columns.
        rows = _kernel_rows(self.basis.conj(), self.pivots)
        return Subspace(self.field, self.ambient_dim, rows)

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return _shared("leq", Subspace._leq, self, other)

    def _leq(self, other: "Subspace") -> bool:
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
            self._projector = _shared("projector", Subspace._gram_projector, self)
        return self._projector

    def _gram_projector(self) -> Matrix:
        if self.rank == 0:
            return Matrix.zero(self.field, self.ambient_dim, self.ambient_dim)
        return gram_projection(self.basis.transpose())

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
    return not coperp_rel(a, b)[0]


def coperp_rel(a: Subspace, b: Subspace):
    """Witnessed non-orthogonality.

    Returns ``(True, (x, y))`` for the first basis pair, in row-major
    order, with <x, y> != 0, or ``(False, None)`` when the spaces are
    orthogonal.  Entry (i, j) of ``a.basis @ b.basis^H`` is <a_i, b_j>.
    """
    a._check_ambient(b)
    products = a.basis @ b.basis.conj_transpose()
    for k, value in enumerate(products.entries):
        if not scalars.is_zero(value):
            i, j = divmod(k, b.rank)
            return True, (a.basis.row(i), b.basis.row(j))
    return False, None
