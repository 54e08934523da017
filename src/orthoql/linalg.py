"""Exact vectors and matrices over Q and Q(i).

Everything here is an immutable value; operations return fresh
objects, over the one field of their operands (mixing Q and Q(i) raises
``AmbientMismatch``), so no routine dispatches on an entry's type.
Products clear denominators once per left row and once per right column
and accumulate every dot product in Python ints.  Row reduction hands
the integer elimination loop to ``kernel.rref_gauss`` and finishes the
canonical form (leading ones) by dividing each eliminated integer row
by its pivot in integer arithmetic (Gaussian integers over Q(i)).  Over
Q each output entry is one exact fraction; over Q(i) the integer triple
(real part, imaginary part, denominator) of each product or reduced
entry goes straight to the scalar's reducing routine, and denominators
are cleared from the stored triples, so no fraction is built on that
path.  A given row space always produces the same bits.

Every basis is a row matrix, one basis vector per row: ``rref`` returns
the canonical basis of a row space (its nonzero reduced rows, one per
pivot, with no zero rows), and ``null_space`` returns one kernel vector
per row.  ``rref`` is the only elimination: null spaces, solutions,
inverses and projectors are all read off one reduced form each, and
``_solve_block`` is the one reduction of an augmented ``[a | b]``
behind ``solve``, ``matrix_inverse`` and ``gram_projection``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from orthoql import scalars
from orthoql.errors import AmbientMismatch, DimensionMismatch, SingularGram
from orthoql.kernel import rref_gauss
from orthoql.scalars import Field, GaussianRational, Scalar, _gaussian

__all__ = [
    "Vector",
    "Matrix",
    "inner",
    "norm_sq",
    "rref",
    "null_space",
    "solve",
    "gram_projection",
    "matrix_inverse",
]


class Vector:
    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable):
        self.field = field
        self.entries = tuple(field.coerce(e) for e in entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return all(scalars.is_zero(e) for e in self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        _check_dims(self, other)
        return Vector(self.field, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        _check_dims(self, other)
        return Vector(self.field, (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return Vector(self.field, (-a for a in self.entries))

    def scaled(self, k) -> "Vector":
        k = self.field.coerce(k)
        return Vector(self.field, (k * a for a in self.entries))

    def __rmul__(self, k):
        return self.scaled(k)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field is other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = ", ".join(scalars.scalar_text(e) for e in self.entries)
        return f"Vector[{self.field.value}]({body})"


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, nrows: int, ncols: int, entries: Iterable):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = tuple(field.coerce(e) for e in entries)
        if len(self.entries) != nrows * ncols:
            raise DimensionMismatch(
                f"{nrows}x{ncols} matrix needs {nrows * ncols} entries, "
                f"got {len(self.entries)}"
            )

    # --- constructors ---------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        return cls(field, len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols, [field.zero] * (nrows * ncols))

    # --- access ----------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> Vector:
        return Vector(self.field, self.entries[i * self.ncols : (i + 1) * self.ncols])

    def col(self, j: int) -> Vector:
        return Vector(self.field, (self.entries[i * self.ncols + j] for i in range(self.nrows)))

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    @property
    def is_zero(self) -> bool:
        return all(scalars.is_zero(e) for e in self.entries)

    # --- arithmetic -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _check_shape(self, other)
        return Matrix(
            self.field,
            self.nrows,
            self.ncols,
            (a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _check_shape(self, other)
        return Matrix(
            self.field,
            self.nrows,
            self.ncols,
            (a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self):
        return Matrix(self.field, self.nrows, self.ncols, (-a for a in self.entries))

    def scaled(self, k) -> "Matrix":
        k = self.field.coerce(k)
        return Matrix(self.field, self.nrows, self.ncols, (k * a for a in self.entries))

    def __matmul__(self, other):
        if not isinstance(other, (Vector, Matrix)):
            return NotImplemented
        _check_field(self, other)
        if isinstance(other, Vector):
            if other.dim != self.ncols:
                raise DimensionMismatch(
                    f"matrix has {self.ncols} columns, vector has dim {other.dim}"
                )
            return Vector(self.field, _product(self, [other.entries]))
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        p = other.ncols
        cols = [other.entries[j::p] for j in range(p)]
        return Matrix(self.field, self.nrows, p, _product(self, cols))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.ncols,
            self.nrows,
            (self.entry(i, j) for j in range(self.ncols) for i in range(self.nrows)),
        )

    def conj_transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.ncols,
            self.nrows,
            (scalars.conj(self.entry(i, j)) for j in range(self.ncols) for i in range(self.nrows)),
        )

    def conj(self) -> "Matrix":
        return Matrix(self.field, self.nrows, self.ncols, (scalars.conj(e) for e in self.entries))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field is other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(scalars.scalar_text(self.entry(i, j)) for j in range(self.ncols))
            for i in range(self.nrows)
        )
        return f"Matrix[{self.field.value} {self.nrows}x{self.ncols}]({body})"


def _check_field(a, b):
    if a.field is not b.field:
        raise AmbientMismatch(f"{a.field.value} operand with a {b.field.value} operand")


def _check_dims(a: Vector, b: Vector):
    _check_field(a, b)
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension {a.dim} vs {b.dim}")


def _check_shape(a: Matrix, b: Matrix):
    _check_field(a, b)
    if a.nrows != b.nrows or a.ncols != b.ncols:
        raise DimensionMismatch(
            f"shape {a.nrows}x{a.ncols} vs {b.nrows}x{b.ncols}"
        )


# --- exact products on integers -----------------------------------------

def _cleared(entries: Sequence[Fraction]) -> tuple[int, list[int]]:
    """A common denominator of ``entries`` and their numerators over it."""
    den = lcm(*(e.denominator for e in entries))
    return den, [e.numerator * (den // e.denominator) for e in entries]


def _cleared_parts(entries: Sequence[GaussianRational]) -> tuple[int, list[int], list[int]]:
    """A common denominator of the Q(i) ``entries`` and the numerators
    of their real and imaginary parts over it."""
    den = lcm(*(e._d for e in entries))
    return den, [e._a * (den // e._d) for e in entries], [e._b * (den // e._d) for e in entries]


def _product(a: Matrix, cols: Sequence[Sequence[Scalar]]) -> list[Scalar]:
    """Entries of ``a`` times each column in ``cols``, row-major.

    Every left row and every right column is brought to one denominator
    once; each dot product then runs on Python ints and the exact result
    is built once per output part.
    """
    m = a.ncols
    rows = [a.entries[i * m : (i + 1) * m] for i in range(a.nrows)]
    if a.field is Field.Q:
        left = [_cleared(r) for r in rows]
        right = [_cleared(c) for c in cols]
        return [
            Fraction(sum(map(mul, x, y)), dx * dy) for dx, x in left for dy, y in right
        ]
    left = [_cleared_parts(r) for r in rows]
    right = [_cleared_parts(c) for c in cols]
    return [
        _gaussian(
            sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
            sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)),
            dx * dy,
        )
        for dx, xr, xi in left
        for dy, yr, yi in right
    ]


# --- inner product ----------------------------------------------------

def inner(x: Vector, y: Vector) -> Scalar:
    """Inner product, linear in the first argument: sum of x_i * conj(y_i)."""
    _check_dims(x, y)
    acc = x.field.zero
    for a, b in zip(x.entries, y.entries):
        acc = acc + a * scalars.conj(b)
    return acc


def norm_sq(x: Vector) -> Fraction:
    """Squared norm as a plain Fraction (always real, always >= 0)."""
    return sum((scalars.abs_sq(a) for a in x.entries), Fraction(0))


# --- row reduction ----------------------------------------------------

def _integral_rows(m: Matrix) -> list[list[int]]:
    """Clear denominators per row.  Row scaling preserves the row space,
    and the canonical form is unique per row space, so scaling is safe."""
    data = []
    for i in range(m.nrows):
        row = m.entries[i * m.ncols : (i + 1) * m.ncols]
        flat = [0] * (2 * m.ncols)
        if m.field is Field.Q:
            flat[0::2] = _cleared(row)[1]
        else:
            _, flat[0::2], flat[1::2] = _cleared_parts(row)
        data.append(flat)
    return data


def _leading_one_row(field: Field, row: list[int], c: int) -> list[Scalar]:
    """Divide an eliminated integer row by its pivot entry in column c.

    Over Q(i) the division stays on integers until the last step:
    (er + ei i) / (pr + pi i) = ((er pr + ei pi) + (ei pr - er pi) i) / (pr^2 + pi^2).
    """
    if field is Field.Q:
        # Real input rows stay real through integer elimination.
        piv = row[2 * c]
        return [Fraction(row[j], piv) for j in range(0, len(row), 2)]
    pr, pi = row[2 * c], row[2 * c + 1]
    d = pr * pr + pi * pi
    return [
        _gaussian(er * pr + ei * pi, ei * pr - er * pi, d) for er, ei in zip(row[0::2], row[1::2])
    ]


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """The canonical basis of the row space of ``m`` and its pivot columns.

    The basis is the unique canonical representative of the row space:
    its nonzero reduced rows, one per pivot, with leading entries one and
    pivot columns clear elsewhere.  Its row count is the rank of ``m``.
    """
    if m.nrows == 0:
        return m, ()
    rows, pivots = rref_gauss(_integral_rows(m), m.ncols)
    out: list[Scalar] = []
    for row, c in zip(rows, pivots):
        out.extend(_leading_one_row(m.field, row, c))
    return Matrix(m.field, len(pivots), m.ncols, out), tuple(pivots)


def _kernel_rows(basis: Matrix, pivots: Sequence[int]) -> list[list[Scalar]]:
    """Basis of {x : basis @ x = 0} for a canonical basis with these
    pivots, read off the free columns: one vector per free column f,
    e_f - sum_i basis[i][f] e_(pivot i)."""
    n, field = basis.ncols, basis.field
    rows = []
    for f in range(n):
        if f in pivots:
            continue
        v = [field.zero] * n
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = -basis.entry(i, f)
        rows.append(v)
    return rows


def null_space(m: Matrix) -> Matrix:
    """Basis of {x : m @ x = 0}, one basis vector per row."""
    rows = _kernel_rows(*rref(m))
    return Matrix(m.field, len(rows), m.ncols, [e for r in rows for e in r])


def _solve_block(a: Matrix, b: Matrix) -> tuple[Optional[Matrix], int]:
    """One reduction of ``[a | b]``.  Returns the canonical X with
    ``a @ X == b`` (free variables 0), or None when a column of ``b``
    lies outside the column space of ``a``, together with the rank of
    ``a``: the pivots left of the block."""
    if a.nrows != b.nrows:
        raise DimensionMismatch(f"matrix has {a.nrows} rows, right-hand side has {b.nrows}")
    n, p = a.ncols, b.ncols
    w = n + p
    aug = []
    for i in range(a.nrows):
        aug += a.entries[i * n : (i + 1) * n]
        aug += b.entries[i * p : (i + 1) * p]
    basis, pivots = rref(Matrix(a.field, a.nrows, w, aug))
    rank = sum(1 for c in pivots if c < n)
    if rank < len(pivots):
        return None, rank
    x = [a.field.zero] * (n * p)
    for i, c in enumerate(pivots):
        x[c * p : (c + 1) * p] = basis.entries[i * w + n : (i + 1) * w]
    return Matrix(a.field, n, p, x), rank


def solve(m: Matrix, b: Vector) -> Optional[Vector]:
    """Canonical solution of m @ x = b (free variables 0), or None."""
    if m.nrows != b.dim:
        raise DimensionMismatch(f"matrix has {m.nrows} rows, vector has dim {b.dim}")
    x, _ = _solve_block(m, Matrix(m.field, b.dim, 1, b.entries))
    return None if x is None else Vector(m.field, x.entries)


# --- inverses and projections -----------------------------------------

def matrix_inverse(g: Matrix) -> Matrix:
    """Inverse of a square matrix; raises SingularGram when singular."""
    n = g.nrows
    if n != g.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    x, rank = _solve_block(g, Matrix.identity(g.field, n))
    if rank < n:
        raise SingularGram("matrix is singular")
    return x


def gram_projection(basis: Matrix) -> Matrix:
    """Orthogonal projector onto the column space of ``basis``.

    Columns must be independent; the result P satisfies P @ P = P,
    conj-transpose(P) = P and P @ b = b for every basis column b.
    """
    n = basis.nrows
    r = basis.ncols
    if r == 0:
        return Matrix.zero(basis.field, n, n)
    bh = basis.conj_transpose()
    # X = G^-1 B^H from one reduction of [G | B^H]; G = B^H B is
    # singular exactly when the columns are dependent.
    x, rank = _solve_block(bh @ basis, bh)
    if rank < r:
        raise SingularGram("basis columns are dependent")
    return basis @ x
