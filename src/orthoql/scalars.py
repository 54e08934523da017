"""Exact scalar arithmetic for the two coefficient fields.

Rational scalars are plain :class:`fractions.Fraction` values.  Complex
scalars are :class:`GaussianRational` values: a Gaussian integer over
one positive denominator, held as three ints and reduced by one routine,
``_gaussian``, which every arithmetic result and ``linalg``'s products
and reductions go through.  Their parts are read as fractions through
``re`` and ``im``.  Both kinds are immutable, always reduced, and
compared bit for bit: there is no tolerance anywhere in this package.
Because no scalar changes once built, ``Field.zero`` and ``Field.one``
hand out one shared constant per field instead of building a new one on
each read.
"""

from __future__ import annotations

import enum
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from orthoql.errors import OrthoQLError, ParseError

__all__ = [
    "Field",
    "GaussianRational",
    "Scalar",
    "abs_sq",
    "conj",
    "scalar_text",
]

Scalar = Union[Fraction, "GaussianRational"]

# A rational is two groups, its signed numerator and its optional
# denominator; the imaginary part of a full Q(i) scalar carries its sign.
_RAT = r"([+-]?\d+)(?:/(\d+))?"
_REAL_RE = re.compile(rf"^{_RAT}$")
_FULL_RE = re.compile(rf"^{_RAT}([+-]\d+)(?:/(\d+))?i$")
_IMAG_RE = re.compile(rf"^{_RAT}i$")
# Whitespace between two digits: dropping it would join two numerals.
_SPLIT_RE = re.compile(r"\d\s+\d")


def _frac_text(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        # Exact results can outgrow CPython's integer-string limit even
        # when every input stayed within it.
        raise OrthoQLError(
            f"an exact result has more than {sys.get_int_max_str_digits()} digits, "
            "past the integer-string limit, and cannot be printed"
        ) from None


class GaussianRational:
    """A complex number a + b*i with exact rational parts.

    Stored as three ints ``(a, b, d)`` meaning ``(a + b i) / d``, with
    ``d > 0`` and ``gcd(a, b, d) = 1``, so equal values have equal
    triples.  ``re`` and ``im`` read the parts as fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        # Both parts over their least common denominator.
        re = re if type(re) is Fraction else _rational(re)
        im = im if type(im) is Fraction else _rational(im)
        p, q = re.denominator, im.denominator
        d = lcm(p, q)
        return _gaussian(re.numerator * (d // p), im.numerator * (d // q), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def _lift(other):
        """``other`` as a GaussianRational, or None when it is no exact
        scalar; a bool is none, so comparing with one answers False."""
        if isinstance(other, GaussianRational):
            return other
        if type(other) is bool:
            return None
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self._a, -self._b, self._d)

    def abs_sq(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _gaussian(
            self._a * o._d + o._a * self._d, self._b * o._d + o._b * self._d, self._d * o._d
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _gaussian(
            self._a * o._d - o._a * self._d, self._b * o._d - o._b * self._d, self._d * o._d
        )

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _gaussian(
            self._a * o._a - self._b * o._b, self._a * o._b + self._b * o._a, self._d * o._d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        m = o.abs_sq()
        if m == 0:
            raise ZeroDivisionError("division by zero scalar")
        # x / y = x conj(y) / |y|^2, and |y|^2 is a positive fraction.
        n = self * o.conjugate()
        return _gaussian(n._a * m.denominator, n._b * m.denominator, n._d * m.numerator)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _gaussian(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # Matches hash(Fraction) when purely real, so mixed-type keys work.
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        sign = "+" if self._b >= 0 else "-"
        return f"{_frac_text(self.re)}{sign}{_frac_text(abs(self.im))}i"


def _rational(value) -> Fraction:
    """``Fraction(value)`` for an int (not a bool) or a Fraction, else TypeError."""
    if not isinstance(value, (Fraction, int)) or type(value) is bool:
        raise TypeError(f"{type(value).__name__} {value!r} is not an exact rational")
    return Fraction(value)


def _gaussian(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b i) / d`` for ints with ``d != 0``, reduced to its
    canonical triple.  Every ``GaussianRational`` is made here."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    z = object.__new__(GaussianRational)
    if g == 1:
        z._a, z._b, z._d = a, b, d
    else:
        z._a, z._b, z._d = a // g, b // g, d // g
    return z


def conj(a: Scalar) -> Scalar:
    """Complex conjugate; real scalars are fixed points."""
    if isinstance(a, GaussianRational):
        return a.conjugate()
    return a


def abs_sq(a: Scalar) -> Fraction:
    """Squared modulus as a plain Fraction, nonnegative."""
    if isinstance(a, GaussianRational):
        return a.abs_sq()
    return a * a


def scalar_text(a: Scalar) -> str:
    """Canonical text form: "p/q" for rationals, "a/b+c/di" otherwise."""
    if isinstance(a, GaussianRational):
        return str(a)
    return _frac_text(a)


# Each field's zero and one, built once and shared: scalars are immutable.
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)
_QI_ZERO, _QI_ONE = GaussianRational(0), GaussianRational(1)


class Field(enum.Enum):
    """Coefficient field tag.  All scalars in one computation share one."""

    Q = "Q"
    Qi = "Qi"

    @property
    def zero(self) -> Scalar:
        return _Q_ZERO if self is Field.Q else _QI_ZERO

    @property
    def one(self) -> Scalar:
        return _Q_ONE if self is Field.Q else _QI_ONE

    def coerce(self, value) -> Scalar:
        """Normalize an int, a Fraction or a GaussianRational into this
        field's scalar type; anything else raises TypeError, and a
        genuinely complex value raises ValueError over Q."""
        if isinstance(value, GaussianRational):
            if self is Field.Qi:
                return value
            if value._b:
                raise ValueError(f"{value} is not rational")
            return value.re
        return _rational(value) if self is Field.Q else GaussianRational(value)

    def parse(self, text: str) -> Scalar:
        """The scalar that ``text`` writes, built from the integer groups
        of the one match that validated it: "p", "p/q", and over Q(i)
        also "p/q+r/si" and "r/si".  Spaces around the signs, the slash
        and the text are dropped, but whitespace between two digits is
        refused, so "1 2" is never read as 12.  A Q(i) scalar is reduced
        straight from those ints to its canonical triple, with no
        fraction built."""
        if _split_numeral(text):
            raise ParseError(f"{text!r} has whitespace between two digits")
        t = text.strip().replace(" ", "")
        try:
            m = _REAL_RE.match(t)
            if m:
                if self is Field.Q:
                    return _fraction(*m.groups())
                return _gaussian_of(*m.groups(), "0", None)
            if self is Field.Qi:
                m = _FULL_RE.match(t)
                if m:
                    return _gaussian_of(*m.groups())
                m = _IMAG_RE.match(t)
                if m:
                    return _gaussian_of("0", None, *m.groups())
        except ZeroDivisionError:
            raise ParseError(f"{text!r} has a zero denominator") from None
        except ValueError:
            # CPython refuses to convert integer strings past its digit
            # limit (sys.get_int_max_str_digits, 4300 by default).
            raise ParseError(f"scalar of {len(t)} characters has too many digits") from None
        raise ParseError(f"cannot parse {text!r} as a scalar over {self.value}")


def _split_numeral(text: str) -> bool:
    """Whether ``text`` holds whitespace between two digits."""
    return _SPLIT_RE.search(text) is not None


def _fraction(num: str, den: Optional[str]) -> Fraction:
    """The fraction of a matched numerator group and denominator group."""
    return Fraction(int(num), int(den) if den else 1)


def _gaussian_of(a: str, b: Optional[str], c: str, d: Optional[str]) -> GaussianRational:
    """``a/b + (c/d) i`` from matched numerator and denominator groups
    (an absent denominator is 1), as the triple ``(a d + c b i) / b d``.
    The groups are read in ``_fraction``'s order, so a text that is both
    overlong and over zero fails as the fractions did."""
    (a, b), (c, d) = _ints(a, b), _ints(c, d)
    return _gaussian(a * d, c * b, b * d)


def _ints(num: str, den: Optional[str]) -> tuple[int, int]:
    """The numerator and nonzero denominator of a matched rational."""
    n, d = int(num), int(den) if den else 1
    if not d:
        raise ZeroDivisionError("zero denominator")
    return n, d
