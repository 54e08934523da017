"""Exact scalar arithmetic for the two coefficient fields.

Rational scalars are plain :class:`fractions.Fraction` values, complex
scalars are :class:`GaussianRational` pairs of fractions.  Both are
immutable, always reduced, and compared bit for bit: there is no
tolerance anywhere in this package.
"""

from __future__ import annotations

import enum
import re
import sys
from fractions import Fraction
from typing import Union

from orthoql.errors import OrthoQLError, ParseError

__all__ = [
    "Field",
    "GaussianRational",
    "Scalar",
    "abs_sq",
    "conj",
    "is_zero",
    "scalar_text",
]

Scalar = Union[Fraction, "GaussianRational"]

_RAT = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = re.compile(rf"^({_RAT})$")
_FULL_RE = re.compile(rf"^({_RAT})([+-]\d+(?:/\d+)?)i$")
_IMAG_RE = re.compile(rf"^({_RAT})i$")


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
    """A complex number a + b*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Parts that are already exact fractions are kept as they are.
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _lift(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d = o.abs_sq()
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        n = self * o.conjugate()
        return GaussianRational(n.re / d, n.im / d)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Matches hash(Fraction) when purely real, so mixed-type keys work.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"{_frac_text(self.re)}{sign}{_frac_text(abs(self.im))}i"


def conj(a: Scalar) -> Scalar:
    """Complex conjugate; real scalars are fixed points."""
    if isinstance(a, GaussianRational):
        return a.conjugate()
    return a


def is_zero(a: Scalar) -> bool:
    return not a


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


class Field(enum.Enum):
    """Coefficient field tag.  All scalars in one computation share one."""

    Q = "Q"
    Qi = "Qi"

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self is Field.Q else GaussianRational(0)

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self is Field.Q else GaussianRational(1)

    def coerce(self, value) -> Scalar:
        """Normalize ints and fractions into this field's scalar type.

        Rejects genuinely complex values when the field is Q.
        """
        if self is Field.Q:
            if isinstance(value, GaussianRational):
                if value.im != 0:
                    raise ValueError(f"{value} is not rational")
                return value.re
            return Fraction(value)
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value))

    def parse(self, text: str) -> Scalar:
        t = text.strip().replace(" ", "")
        try:
            m = _REAL_RE.match(t)
            if m:
                return self.coerce(Fraction(t))
            if self is Field.Qi:
                m = _FULL_RE.match(t)
                if m:
                    return GaussianRational(Fraction(m.group(1)), Fraction(m.group(2)))
                m = _IMAG_RE.match(t)
                if m:
                    return GaussianRational(0, Fraction(m.group(1)))
        except ZeroDivisionError:
            raise ParseError(f"{text!r} has a zero denominator") from None
        except ValueError:
            # CPython refuses to convert integer strings past its digit
            # limit (sys.get_int_max_str_digits, 4300 by default).
            raise ParseError(f"scalar of {len(t)} characters has too many digits") from None
        raise ParseError(f"cannot parse {text!r} as a scalar over {self.value}")
