"""Exact vectors and matrices over Q and Q(i).

Everything here is an immutable value; operations return fresh
objects, over the one field of their operands (mixing Q and Q(i) raises
``AmbientMismatch``), so no routine dispatches on an entry's type.
Exact scalars become ints and come back in one place, the integer-form
section: a form ``(den, nums)`` holds scalars as ``nums / den``, one int
per entry over Q and the real and imaginary parts side by side over
Q(i).  Only ``_form`` reads a scalar's parts and only ``_scalars``
builds scalars back; a ``Subspace`` keeps the form of its canonical
basis, and ``partial_op`` holds its operator images in the same form.
A product clears each operand once with ``_form``, runs every dot
product on Python ints and builds each output entry once.
Row reduction clears each row with ``_form``, hands the integer
elimination loop to ``kernel.rref_gauss`` and finishes the canonical
form (leading ones) by dividing each eliminated integer row by its
pivot in integer arithmetic (Gaussian integers over Q(i)), through
``_scalars``.  Over Q(i) no fraction is built on either path.  A given
row space always produces the same bits.

Every basis is a row matrix, one basis vector per row: ``rref`` returns
the canonical basis of a row space (its nonzero reduced rows, one per
pivot, with no zero rows), and ``null_space`` returns the matrix of
kernel rows that ``_kernel_rows`` reads off it; no routine takes rows
out as vectors to build another matrix.  ``kernel.rref_gauss`` is the
only elimination loop: null spaces, inverses and projections are all
read off one reduced form each.  ``matrix_inverse`` reduces ``[g | I]``
once, through ``rref``.  Projections run on the integer Gram solve
``_gram_solve``: for the integer rows ``O`` of a subspace's basis it
forms ``G = O Oᴴ`` on ints, reduces ``[G | O]`` once and divides each
row by its pivot, which gives ``X = G⁻¹ O`` as one integer form with no
scalar built.  Its one caller is ``Subspace``, which keeps ``X`` and
maps rows ``y`` to their projections ``y Oᴴ X``.  Subspace membership
needs no solution and reads pivots only.

Validity is checked once, where entries enter.  The public ``Vector``,
``Matrix`` and ``Matrix.from_rows`` check sizes, refuse a vector over
the other field and coerce every entry; ``identity`` and ``zero`` check
their sizes.  Arithmetic results (sums, differences, negations,
``scaled``, which coerces its one factor, products, transposes,
conjugates, kernel rows, the ``[g | I]`` block that ``matrix_inverse``
reduces, and inverses) are already exact scalars of their field and
are built with the private ``Matrix._of`` and ``Vector._of``, which
store them with no check.  ``rref``'s output and ``row`` still go
through the public constructors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from orthoql import scalars
from orthoql.errors import AmbientMismatch, DimensionMismatch, SingularGram
from orthoql.kernel import rref_gauss
from orthoql.scalars import Field, Scalar, _gaussian

__all__ = [
    "Vector",
    "Matrix",
    "inner",
    "norm_sq",
    "rref",
    "null_space",
    "matrix_inverse",
]


class Vector:
    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable):
        self.field = field
        self.entries = tuple(field.coerce(e) for e in _own(field, entries))

    @classmethod
    def _of(cls, field: Field, entries: Iterable) -> "Vector":
        """The vector of ``entries``, already exact scalars of ``field``,
        stored as they are: no field or coerce check."""
        v = object.__new__(cls)
        v.field = field
        v.entries = tuple(entries)
        return v

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
        return Vector._of(self.field, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        _check_dims(self, other)
        return Vector._of(self.field, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Vector._of(self.field, [-a for a in self.entries])

    def scaled(self, k) -> "Vector":
        k = self.field.coerce(k)
        return Vector._of(self.field, [k * a for a in self.entries])

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
        _check_size(nrows, ncols)
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = tuple(field.coerce(e) for e in _own(field, entries))
        if len(self.entries) != nrows * ncols:
            raise DimensionMismatch(
                f"{nrows}x{ncols} matrix needs {nrows * ncols} entries, "
                f"got {len(self.entries)}"
            )

    # --- constructors ---------------------------------------------

    @classmethod
    def _of(cls, field: Field, nrows: int, ncols: int, entries: Iterable) -> "Matrix":
        """The ``nrows`` x ``ncols`` matrix of ``entries``, already exact
        scalars of ``field`` in row-major order, stored as they are: no
        size, field or coerce check."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.entries = tuple(entries)
        return m

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(_own(field, r)) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        return cls(field, len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        _check_size(n)
        one, zero = field.one, field.zero
        return cls._of(field, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        _check_size(nrows, ncols)
        return cls._of(field, nrows, ncols, [field.zero] * (nrows * ncols))

    # --- access ----------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> Vector:
        return Vector(self.field, self.entries[i * self.ncols : (i + 1) * self.ncols])

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
        return Matrix._of(
            self.field, self.nrows, self.ncols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _check_shape(self, other)
        return Matrix._of(
            self.field, self.nrows, self.ncols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self):
        return Matrix._of(self.field, self.nrows, self.ncols, [-a for a in self.entries])

    def scaled(self, k) -> "Matrix":
        k = self.field.coerce(k)
        return Matrix._of(self.field, self.nrows, self.ncols, [k * a for a in self.entries])

    def __matmul__(self, other):
        if not isinstance(other, (Vector, Matrix)):
            return NotImplemented
        _check_field(self, other)
        if isinstance(other, Vector):
            if other.dim != self.ncols:
                raise DimensionMismatch(
                    f"matrix has {self.ncols} columns, vector has dim {other.dim}"
                )
            return Vector._of(self.field, _product(self, other.entries, 1))
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        p = other.ncols
        return Matrix._of(self.field, self.nrows, p, _product(self, other.entries, p))

    def transpose(self) -> "Matrix":
        n, e = self.ncols, self.entries
        return Matrix._of(self.field, n, self.nrows, [x for j in range(n) for x in e[j::n]])

    def conj_transpose(self) -> "Matrix":
        t = self.transpose()
        return t if self.field is Field.Q else t.conj()

    def conj(self) -> "Matrix":
        return Matrix._of(self.field, self.nrows, self.ncols, [scalars.conj(e) for e in self.entries])

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


def _own(field: Field, source):
    """``source``, whose entries enter ``field``, unless it is a vector over the other field."""
    if isinstance(source, Vector) and source.field is not field:
        raise AmbientMismatch(f"{source.field.value} vector entering {field.value}")
    return source


def _check_size(*sizes) -> None:
    """Refuse a dimension that is not a nonnegative int (a bool is not one)."""
    for n in sizes:
        if type(n) is not int:
            raise TypeError(f"{type(n).__name__} {n!r} is not a dimension")
        if n < 0:
            raise ValueError(f"dimension {n} must be nonnegative")


def _check_field(a, b):
    for x in (a, b):
        if not isinstance(getattr(x, "field", None), Field):
            raise TypeError(f"{type(x).__name__} is not an operand over a field")
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


# --- integer forms ----------------------------------------------------------
#
# An integer form (den, nums) holds exact scalars as nums / den: one int
# per entry over Q, and over Q(i) the real and imaginary parts of each
# entry side by side, as in ``rref_gauss`` rows.  Only ``_form`` reads a
# scalar's parts and only ``_scalars`` builds scalars back, so products,
# row reduction, the Gram solve and the operator images of ``partial_op``
# share one layout.

def _width(field: Field) -> int:
    """The ints per entry of an integer form over ``field``."""
    return 1 if field is Field.Q else 2


def _form(field: Field, entries: Sequence[Scalar]) -> tuple[int, list[int]]:
    """The integer form of ``entries`` over their least common denominator."""
    if field is Field.Q:
        den = lcm(*(e.denominator for e in entries))
        return den, [e.numerator * (den // e.denominator) for e in entries]
    den = lcm(*(e._d for e in entries))
    nums = []
    for e in entries:
        k = den // e._d
        nums += (e._a * k, e._b * k)
    return den, nums


def _scalars(field: Field, den: int, nums: Sequence[int]) -> list[Scalar]:
    """The exact scalars that the integer form ``(den, nums)`` holds."""
    if field is Field.Q:
        return [Fraction(x, den) for x in nums]
    return [_gaussian(a, b, den) for a, b in zip(nums[0::2], nums[1::2])]


def _rows(field: Field, nums: Sequence[int], n: int, cols: Optional[Sequence[int]] = None) -> list:
    """The rows of width ``n`` of the integer numerators ``nums``, each
    cut down to the columns ``cols`` when they are given: over Q each a
    list of ints, over Q(i) each a pair (real parts, imaginary parts)."""
    w = _width(field) * n
    rows = [nums[i : i + w] for i in range(0, len(nums), w)] if w else []
    if field is Field.Q:
        return rows if cols is None else [[x[c] for c in cols] for x in rows]
    if cols is None:
        return [(x[0::2], x[1::2]) for x in rows]
    return [([x[2 * c] for c in cols], [x[2 * c + 1] for c in cols]) for x in rows]


def _columns(field: Field, nums: Sequence[int], p: int) -> list:
    """The columns of the integer numerators ``nums`` of a matrix with
    ``p`` columns, shaped as ``_rows`` shapes rows."""
    if field is Field.Q:
        return [nums[j::p] for j in range(p)]
    return [(nums[2 * j :: 2 * p], nums[2 * j + 1 :: 2 * p]) for j in range(p)]


def _products(field: Field, rows: Sequence, cols: Sequence) -> list[int]:
    """The dot product of each row with each column, row-major, in
    integer arithmetic, rows and columns shaped as ``_rows`` gives them."""
    if field is Field.Q:
        return [sum(map(mul, x, y)) for x in rows for y in cols]
    out = []
    for xr, xi in rows:
        for yr, yi in cols:
            out += (
                sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
                sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)),
            )
    return out


def _conjugates(field: Field, shaped: Sequence) -> list:
    """The complex conjugates of rows or columns shaped as ``_rows``
    gives them: over Q the same lists, over Q(i) the imaginary parts
    negated."""
    if field is Field.Q:
        return list(shaped)
    return [(re, [-x for x in im]) for re, im in shaped]


def _product(a: Matrix, b: Sequence[Scalar], p: int) -> list[Scalar]:
    """Entries of ``a`` times the ``a.ncols`` x ``p`` matrix of entries
    ``b``, row-major.

    Each operand is brought to one denominator once; each dot product
    then runs on Python ints and the exact result is built once per
    output entry.
    """
    field, m = a.field, a.ncols
    if m == 0:
        return [field.zero] * (a.nrows * p)
    dx, x = _form(field, a.entries)
    dy, y = _form(field, b)
    return _scalars(field, dx * dy, _products(field, _rows(field, x, m), _columns(field, y, p)))


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
    if not isinstance(x, Vector):
        raise TypeError(f"{type(x).__name__} is not a vector")
    return sum((scalars.abs_sq(a) for a in x.entries), Fraction(0))


# --- row reduction ----------------------------------------------------

def _integral_rows(m: Matrix) -> list[list[int]]:
    """The integer form of each row, with zero imaginary halves over Q.
    Row scaling preserves the row space, and the canonical form is
    unique per row space, so clearing each row on its own is safe."""
    n, data = m.ncols, []
    for i in range(m.nrows):
        _, nums = _form(m.field, m.entries[i * n : (i + 1) * n])
        if m.field is Field.Q:
            flat = [0] * (2 * n)
            flat[0::2] = nums
            nums = flat
        data.append(nums)
    return data


def _leading_one_row(field: Field, row: list[int], c: int) -> list[Scalar]:
    """Divide an eliminated integer row by its pivot entry in column c.

    Over Q(i) the division stays on integers until the last step:
    (er + ei i) / (pr + pi i) = ((er pr + ei pi) + (ei pr - er pi) i) / (pr^2 + pi^2).
    """
    if field is Field.Q:
        # Real input rows stay real through integer elimination.
        return _scalars(field, row[2 * c], row[0::2])
    pr, pi = row[2 * c], row[2 * c + 1]
    er, ei, nums = row[0::2], row[1::2], [0] * len(row)
    nums[0::2] = [a * pr + b * pi for a, b in zip(er, ei)]
    nums[1::2] = [b * pr - a * pi for a, b in zip(er, ei)]
    return _scalars(field, pr * pr + pi * pi, nums)


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


def _kernel_rows(basis: Matrix, pivots: Sequence[int]) -> Matrix:
    """Basis of {x : basis @ x = 0} for a canonical basis with these
    pivots, read off the free columns: one row per free column f,
    e_f - sum_i basis[i][f] e_(pivot i)."""
    n, field = basis.ncols, basis.field
    free = [f for f in range(n) if f not in pivots]
    entries = []
    for f in free:
        v = [field.zero] * n
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = -basis.entry(i, f)
        entries += v
    return Matrix._of(field, len(free), n, entries)


def null_space(m: Matrix) -> Matrix:
    """Basis of {x : m @ x = 0}, one basis vector per row."""
    return _kernel_rows(*rref(m))


# --- inverses and projections -----------------------------------------

def matrix_inverse(g: Matrix) -> Matrix:
    """Inverse of a square matrix; raises SingularGram when singular.

    ``[g | I]`` is reduced once: when ``g`` is invertible its pivots are
    the first ``n`` columns and the reduced block is ``[I | g⁻¹]``."""
    field, n = g.field, g.nrows
    if n != g.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    block = []
    for i in range(n):
        block += g.entries[i * n : (i + 1) * n]
        block += [field.one if j == i else field.zero for j in range(n)]
    reduced, pivots = rref(Matrix._of(field, n, 2 * n, block))
    if pivots != tuple(range(n)):
        raise SingularGram("matrix is singular")
    inverse = []
    for i in range(n):
        inverse += reduced.entries[i * 2 * n + n : (i + 1) * 2 * n]
    return Matrix._of(field, n, n, inverse)


def _gram_solve(field: Field, rows: Sequence[int], n: int) -> tuple[int, list[int]]:
    """The integer form of ``X = G⁻¹ O`` for the integer rows ``O``, at
    least one, of width ``n``, with ``G = O Oᴴ``; raises SingularGram
    when ``G`` is singular, that is when the rows are dependent.

    A row ``y`` goes to its orthogonal projection ``y Oᴴ X`` onto the
    row space of ``O``, and ``Oᴴ X`` is the same for every positive
    multiple of ``O``, so the rows' own denominator never enters.
    ``G`` is formed on ints and ``[G | O]`` reduced once by
    ``rref_gauss``; each reduced row is then divided by its pivot over
    the least common multiple of the pivots.
    The pivots are real over Q(i) too: ``G`` is Hermitian positive
    definite, so each is a Schur complement of ``G``, which is real,
    times the real pivots and gcds its row was scaled by.
    """
    shaped = _rows(field, rows, n)
    r = len(shaped)
    gram = _products(field, shaped, _conjugates(field, shaped))
    w = _width(field)
    block = []
    for i in range(r):
        row = gram[i * w * r : (i + 1) * w * r] + list(rows[i * w * n : (i + 1) * w * n])
        if field is Field.Q:
            # Zero imaginary halves, as ``rref_gauss`` rows carry them.
            flat = [0] * (2 * len(row))
            flat[0::2] = row
            row = flat
        block.append(row)
    reduced, pivots = rref_gauss(block, r + n)
    if pivots != list(range(r)):
        raise SingularGram("rows are dependent")
    den = lcm(*(row[2 * i] for i, row in enumerate(reduced)))
    # Over Q only the real halves of the reduced rows belong to the form.
    step, nums = (2 if field is Field.Q else 1), []
    for i, row in enumerate(reduced):
        k = den // row[2 * i]
        nums += [x * k for x in row[2 * r :: step]]
    return den, nums
