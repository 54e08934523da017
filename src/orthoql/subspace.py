"""Linear subspaces of Q^n and Q(i)^n with decidable lattice structure.

A subspace is stored as the reduced row-echelon basis of its spanning
set, the unique canonical representative of the space.  The first
time it is compared or hashed, or its basis is read as ints, it clears
that basis once into its integer form ``(den, nums)`` (``linalg._form``)
and keeps it: exact and unique per space, since the basis is.
Equality compares that form, the field and the ambient dimension (the
form alone does not fix the width of a row), and the hash hashes the
same, so both run on ints.  ``partial_op`` reads the form for every
operator built on the space.  A span computed here (a product, stacked
bases, a kernel) goes to ``rref`` as the matrix it already is.
Everything is exact: meet
comes from the definition (coefficient pairs giving a common element),
join is the span of stacked bases, the orthocomplement is read off the
basis, and ``_first_outside`` alone decides whether rows lie in a space.
An operation with a zero or full operand is read off the ranks with no
elimination, and containment between spaces of equal rank is a bitwise
comparison of their bases, since equal-rank containment is equality.

The subspace owns its orthogonal projection.  For its basis rows ``O``
it solves ``X = (O Oᴴ)⁻¹ O`` once, on ints (``linalg._gram_solve``),
the first time a projection is asked for, and keeps ``X``; the one
private method ``_projection`` then maps the integer form of any rows
``y`` to ``y Oᴴ X``.  ``project``, ``distance_sq``, ``projector``
(built from the identity rows on each read), ``partial_op.decompose``,
the quotient's ``q_iso`` and the images of every partial projection
whose one-part this is all go through it.

Because the canonical basis is an exact structural key, a law run can
share results between equal operands: inside a ``_shared_results()``
block, ``meet``, ``join`` and ``leq``, which the law suites repeat on
equal operands that are distinct objects, first look their result up in
one table keyed by the operation and its operands (whose equality
includes the field and the ambient dimension), and store it there when
they compute it.  Equal operands have equal results, so the table
changes no answer.  It lives exactly as long as the outermost block; a
nested block reuses it, and outside any block there is no table and
every operation computes its result afresh.  ``perp`` and the Gram
solve are kept on the subspace.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from orthoql import scalars
from orthoql.errors import AmbientMismatch, DimensionMismatch
from orthoql.linalg import (
    Matrix,
    Vector,
    _check_field,
    _check_size,
    _columns,
    _conjugates,
    _form,
    _gram_solve,
    _kernel_rows,
    _own,
    _products,
    _rows,
    _scalars,
    norm_sq,
    null_space,
    rref,
)
from orthoql.scalars import Field

__all__ = ["Subspace", "perp_rel", "coperp_rel"]

# The results of the open law run, keyed by (operation, *operands); None
# when no ``_shared_results`` block is open.
_results: Optional[dict] = None


@contextmanager
def _shared_results():
    """Share results among equal operands until the outermost
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


def _stacked(a: Matrix, b: Matrix) -> Matrix:
    """``[aᵀ | bᵀ]``: the rows of ``a`` and then those of ``b`` as columns."""
    n, x, y = a.ncols, a.entries, b.entries
    return Matrix(a.field, n, a.nrows + b.nrows, [e for i in range(n) for e in x[i::n] + y[i::n]])


class Subspace:
    """A subspace of the ambient space, canonically presented."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_perp", "_gram", "_ints", "_hash")

    def __init__(self, field: Field, ambient_dim: int, rows: Matrix | Iterable = ()):
        """The span of ``rows``: spanning vectors (lists or ``Vector``s),
        or a built ``Matrix`` whose rows span the space.  A matrix
        over another field or of another width is refused; its entries
        were checked when it was built and are not coerced again."""
        _check_size(ambient_dim)
        self.field = field
        self.ambient_dim = ambient_dim
        if isinstance(rows, Matrix):
            self._check_rows(rows)
        else:
            vectors = [list(_own(field, r)) for r in rows]
            for v in vectors:
                if len(v) != ambient_dim:
                    raise DimensionMismatch(
                        f"spanning vector of length {len(v)} in ambient dimension {ambient_dim}"
                    )
            rows = Matrix(field, len(vectors), ambient_dim, [e for v in vectors for e in v])
        self.basis, self.pivots = rref(rows) if rows.nrows else (rows, ())
        self._perp = None
        self._gram = None
        self._ints = None
        self._hash = None

    # --- constructors ------------------------------------------------

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim)

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        """The whole space: the identity is its own RREF, so nothing is reduced."""
        s = cls.__new__(cls)
        s.field, s.ambient_dim = field, ambient_dim
        s.basis, s.pivots = Matrix.identity(field, ambient_dim), tuple(range(ambient_dim))
        s._perp = s._gram = s._ints = s._hash = None
        return s

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

    @property
    def _basis_form(self) -> tuple[int, tuple[int, ...]]:
        """The integer form ``(den, nums)`` of the canonical basis, cleared
        once and kept: exact, and unique per space, since the basis is."""
        if self._ints is None:
            den, nums = _form(self.field, self.basis.entries)
            self._ints = den, tuple(nums)
        return self._ints

    def __eq__(self, other):
        # The form alone does not give the shape: span{(1, 0, 0, 1)} in
        # Q^4 and Q^2 itself have the same one.
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient_dim == other.ambient_dim
            and self._basis_form == other._basis_form
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.ambient_dim, self._basis_form))
        return self._hash

    def __repr__(self):
        rows = "; ".join(repr(list(map(scalars.scalar_text, r))) for r in self.basis.rows())
        return f"Subspace[{self.field.value}^{self.ambient_dim}; {rows or '0'}]"

    def _check_ambient(self, other: "Subspace"):
        _check_field(self, other)
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"{self.field.value}^{self.ambient_dim} vs "
                f"{other.field.value}^{other.ambient_dim}"
            )

    def _check_rows(self, rows: Matrix):
        _check_field(self, rows)
        if rows.ncols != self.ambient_dim:
            raise DimensionMismatch(f"rows of width {rows.ncols} in dimension {self.ambient_dim}")

    # --- membership ----------------------------------------------------

    def contains(self, x: Vector) -> bool:
        """Whether x lies in this space; a vector over the other field is refused."""
        _check_field(self, x)
        return self._first_outside(Matrix(self.field, 1, self.ambient_dim, x)) is None

    def _first_outside(self, rows: Matrix) -> Optional[int]:
        """The index of the first of ``rows`` outside this space, or None,
        from one ``rref`` of ``[basisᵀ | rowsᵀ]``: the basis columns are
        independent, so the first pivot right of them is in that row's column."""
        self._check_rows(rows)
        if not rows.nrows or self.is_full:
            return None
        pivots, r = rref(_stacked(self.basis, rows))[1], self.rank
        return pivots[r] - r if len(pivots) > r else None

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
        if self.is_zero or other.is_full:
            return self
        if other.is_zero or self.is_full:
            return other
        r, k = self.rank, self.rank + other.rank
        ker = null_space(_stacked(self.basis, other.basis))
        halves = [e for i in range(ker.nrows) for e in ker.entries[i * k : i * k + r]]
        u = Matrix(self.field, ker.nrows, r, halves)
        return Subspace(self.field, self.ambient_dim, u @ self.basis)

    def join(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both (sums are closed here)."""
        self._check_ambient(other)
        return _shared("join", Subspace._join, self, other)

    def _join(self, other: "Subspace") -> "Subspace":
        if self.is_full or other.is_zero:
            return self
        if other.is_full or self.is_zero:
            return other
        n, rows = self.ambient_dim, self.basis.entries + other.basis.entries
        return Subspace(self.field, n, Matrix(self.field, self.rank + other.rank, n, rows))

    def perp(self) -> "Subspace":
        """Orthocomplement {x : <x, b> = 0 for every basis vector b}."""
        if self._perp is None:
            if self.is_zero:
                self._perp = Subspace.full(self.field, self.ambient_dim)
            elif self.is_full:
                self._perp = Subspace.zero(self.field, self.ambient_dim)
            else:
                # <x, b> = 0 for every basis row b is conj(basis) @ x = 0, and
                # the conjugate of the RREF basis is reduced with the same
                # pivots, so its kernel is read off the free columns.
                rows = _kernel_rows(self.basis.conj(), self.pivots)
                self._perp = Subspace(self.field, self.ambient_dim, rows)
        return self._perp

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return _shared("leq", Subspace._leq, self, other)

    def _leq(self, other: "Subspace") -> bool:
        if self.is_zero or other.is_full:
            return True
        if self.rank >= other.rank:
            # Canonical bases make equal-rank containment equality.
            return self.rank == other.rank and self.basis == other.basis
        return other._first_outside(self.basis) is None

    def __and__(self, other):
        return self.meet(other)

    def __or__(self, other):
        return self.join(other)

    def __le__(self, other):
        return self.leq(other)

    def __ge__(self, other):
        return other.leq(self) if isinstance(other, Subspace) else NotImplemented

    # --- metric structure ------------------------------------------------

    def _projection(self, rows: tuple[int, Sequence[int]]) -> tuple[int, list[int]]:
        """The integer form of the orthogonal projections onto this space
        of the rows of the integer form ``rows``.

        For the basis rows ``O`` a row ``y`` goes to ``y Oᴴ X``, with
        ``X = (O Oᴴ)⁻¹ O`` from one integer Gram solve, solved the first
        time it is needed and then kept.  A zero or full space reads the
        answer off the ranks: zero, or the rows themselves."""
        den, nums = rows
        if self.is_full:
            return den, list(nums)
        if self.is_zero:
            return 1, [0] * len(nums)
        field, n = self.field, self.ambient_dim
        _, basis = self._basis_form
        if self._gram is None:
            self._gram = _gram_solve(field, basis, n)
        dx, x = self._gram
        inner = _products(field, _rows(field, nums, n), _conjugates(field, _rows(field, basis, n)))
        return den * dx, _products(field, _rows(field, inner, self.rank), _columns(field, x, n))

    @property
    def projector(self) -> Matrix:
        """Ambient matrix of the orthogonal projection onto this space,
        built on each read: its column j is the projection of the j-th
        identity row."""
        field, n = self.field, self.ambient_dim
        identity = Matrix.identity(field, n)
        den, nums = self._projection(_form(field, identity.entries))
        return Matrix._of(field, n, n, _scalars(field, den, nums)).transpose()

    def project(self, x: Vector) -> Vector:
        """The orthogonal projection of x onto this space."""
        if not isinstance(x, Vector):
            raise TypeError(f"{type(x).__name__} is not a vector")
        _check_field(self, x)
        if x.dim != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of dimension {x.dim} in ambient dimension {self.ambient_dim}"
            )
        den, nums = self._projection(_form(self.field, x.entries))
        return Vector._of(self.field, _scalars(self.field, den, nums))

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
    Subspace._check_ambient(a, b)
    if a.is_zero or b.is_zero:
        return False, None
    products = a.basis @ b.basis.conj_transpose()
    for k, value in enumerate(products.entries):
        if not scalars.is_zero(value):
            i, j = divmod(k, b.rank)
            return True, (a.basis.row(i), b.basis.row(j))
    return False, None
