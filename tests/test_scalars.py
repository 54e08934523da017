"""Field arithmetic and the text form of scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orthoql.errors import ParseError
from orthoql.scalars import (
    Field,
    GaussianRational,
    abs_sq,
    conj,
    is_zero,
    scalar_text,
)

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
gaussians = st.builds(GaussianRational, fractions, fractions)


@given(gaussians, gaussians, gaussians)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + GaussianRational(0) == a
    assert a * GaussianRational(1) == a
    assert a + (-a) == GaussianRational(0)


@given(gaussians)
def test_division_inverts_multiplication(a):
    if not is_zero(a):
        assert (a * a) / a == a
        assert a / a == GaussianRational(1)


@given(gaussians, gaussians)
def test_conjugation(a, b):
    assert conj(conj(a)) == a
    assert conj(a * b) == conj(a) * conj(b)
    assert a * conj(a) == GaussianRational(abs_sq(a))
    assert abs_sq(a) >= 0


@given(gaussians)
def test_text_roundtrip_qi(a):
    assert Field.Qi.parse(scalar_text(a)) == a


@given(fractions)
def test_text_roundtrip_q(q):
    assert Field.Q.parse(scalar_text(q)) == q


def test_parse_forms():
    assert Field.Q.parse("2/4") == Fraction(1, 2)
    assert Field.Q.parse("-3") == Fraction(-3)
    assert Field.Qi.parse("3+2i") == GaussianRational(3, 2)
    assert Field.Qi.parse("1/2-1/3i") == GaussianRational(
        Fraction(1, 2), Fraction(-1, 3)
    )
    assert Field.Qi.parse("-2i") == GaussianRational(0, -2)
    assert Field.Qi.parse("5") == GaussianRational(5, 0)


@pytest.mark.parametrize("bad", ["", "i", "1+i", "one", "2/", "1..2", "2+3j"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        Field.Qi.parse(bad)


def test_q_rejects_imaginary():
    with pytest.raises(ParseError):
        Field.Q.parse("1+2i")
    with pytest.raises(ValueError):
        Field.Q.coerce(GaussianRational(1, 1))
    assert Field.Q.coerce(GaussianRational(3, 0)) == Fraction(3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(2, 3) / 0


def test_mixed_arithmetic_with_plain_numbers():
    a = GaussianRational(1, 2)
    assert 1 + a == GaussianRational(2, 2)
    assert 2 * a == GaussianRational(2, 4)
    assert a - Fraction(1, 2) == GaussianRational(Fraction(1, 2), 2)
    assert Fraction(1) / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_field_constants():
    assert is_zero(Field.Q.zero) and is_zero(Field.Qi.zero)
    assert Field.Q.one == Fraction(1)
    assert Field.Qi.one == GaussianRational(1)
    assert scalar_text(Field.Q.coerce(7)) == "7/1"
    assert scalar_text(Field.Qi.coerce(7)) == "7/1+0/1i"
