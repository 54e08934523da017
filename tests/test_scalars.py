"""Field arithmetic and the text form of scalars."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import is_canonical, to_num
from orthoql.cli import cmd_check, main
from orthoql.errors import AmbientMismatch, ParseError
from orthoql.linalg import Matrix, Vector, inner
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import decompose, identity_on
from orthoql.quotient import QuotientSpace
from orthoql.scalars import (
    Field,
    GaussianRational,
    _gaussian,
    abs_sq,
    conj,
    scalar_text,
)
from orthoql.subspace import Subspace

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
    if a:
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


# The pieces of the accepted forms: Unicode digits ("٣"), leading zeros,
# signs and numerators of hundreds of digits all turn up.
numerators = st.one_of(
    st.from_regex(r"[+-]?\d+", fullmatch=True),
    # A long numeral is a short one repeated: drawing hundreds of digits
    # one by one is slow.
    st.builds(
        lambda sign, digits, k: sign + digits * k,
        st.sampled_from(["", "+", "-"]),
        st.from_regex(r"\d{1,4}", fullmatch=True),
        st.integers(60, 120),
    ),
)
signed = st.from_regex(r"[+-]\d+", fullmatch=True)
denominators = st.one_of(st.just(""), st.from_regex(r"/\d+", fullmatch=True)).filter(
    lambda d: not d or int(d[1:])
)
rationals = st.builds(str.__add__, numerators, denominators)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rationals)
def test_a_rational_parses_as_its_fraction(text):
    got = Field.Q.parse(text)
    assert type(got) is Fraction and got == Fraction(text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rationals, st.builds(str.__add__, signed, denominators), st.sampled_from(["re", "full", "im"]))
def test_a_gaussian_rational_parses_part_by_part(re_text, im_text, form):
    text, want = {
        "re": (re_text, (Fraction(re_text), 0)),
        "full": (f"{re_text}{im_text}i", (Fraction(re_text), Fraction(im_text))),
        "im": (f"{re_text}i", (0, Fraction(re_text))),
    }[form]
    z = Field.Qi.parse(text)
    assert is_canonical(z) and (z.re, z.im) == want


# Numerator and denominator groups: signs, zeros, a leading zero, a
# denominator that cancels and one that is zero.
SWEEP_NUMERATORS = ("0", "-0", "+0", "1", "+2", "-3", "6", "-12")
SWEEP_DENOMINATORS = (None, "1", "2", "3", "4", "6", "08", "0")


def sweep():
    """(text, real groups, imaginary groups) of every "p", "p/q", "r/si"
    and "p/q±r/si" over the groups above."""
    rats = [(n, d) for n in SWEEP_NUMERATORS for d in SWEEP_DENOMINATORS]

    def text(n, d):
        return n if d is None else f"{n}/{d}"

    for x in rats:
        yield text(*x), x, ("0", None)
        yield text(*x) + "i", ("0", None), x
        for n, d in rats:
            signed = n if n[0] in "+-" else "+" + n
            yield f"{text(*x)}{text(signed, d)}i", x, (signed, d)


def test_a_gaussian_rational_parses_to_the_triple_of_its_fractions():
    # Field.parse reduces the matched ints straight to the triple; the
    # parts as fractions, put together by the constructor, must agree.
    checked = 0
    for text, re_groups, im_groups in sweep():
        try:
            want = GaussianRational(*(Fraction(int(n), int(d or 1)) for n, d in (re_groups, im_groups)))
        except ZeroDivisionError:
            with pytest.raises(ParseError, match="zero denominator"):
                Field.Qi.parse(text)
            continue
        z = Field.Qi.parse(text)
        assert (z._a, z._b, z._d) == (want._a, want._b, want._d), text
        checked += 1
    assert checked == 2 * 56 + 56 * 56


def test_unicode_digits_leading_zeros_and_signs_parse():
    assert Field.Q.parse("٣/٠٤") == Fraction(3, 4)
    assert Field.Q.parse("-007/014") == Fraction(-1, 2)
    assert Field.Qi.parse("+2/4-٣i") == GaussianRational(Fraction(1, 2), -3)


@pytest.mark.parametrize("field, text", [
    (Field.Q, "1/0"), (Field.Q, "0/0"), (Field.Qi, "1/0"), (Field.Qi, "0/0"),
    (Field.Qi, "1+1/0i"), (Field.Qi, "2/0i"), (Field.Qi, "1/0+1i"),
])
def test_a_zero_denominator_is_a_parse_error(field, text):
    with pytest.raises(ParseError, match="zero denominator"):
        field.parse(text)


@pytest.mark.parametrize("field, form", [
    (Field.Q, "{}"), (Field.Q, "-{}/7"), (Field.Qi, "{}"), (Field.Qi, "-{}/7"),
    (Field.Qi, "{}i"), (Field.Qi, "1+{}i"), (Field.Qi, "1/2-3/{}i"),
])
def test_a_numeral_past_the_digit_limit_is_a_parse_error(field, form):
    with pytest.raises(ParseError, match="too many digits"):
        field.parse(form.format("7" * (sys.get_int_max_str_digits() + 1)))


@pytest.mark.parametrize("bad", ["", "i", "1+i", "one", "2/", "1..2", "2+3j"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        Field.Qi.parse(bad)


@pytest.mark.parametrize("field", list(Field))
@pytest.mark.parametrize("text", ["1 2", "1/2 3", "1 2/3 4", " -1  2 ", "1/2\t3", "٣ ٤"])
def test_whitespace_between_two_digits_is_a_parse_error(field, text):
    # Dropping it would join two numerals: "1 2" would read as 12.
    with pytest.raises(ParseError, match="whitespace between two digits"):
        field.parse(text)


@pytest.mark.parametrize("field", list(Field))
def test_whitespace_elsewhere_is_dropped(field):
    half = Fraction(1, 2)
    cases = {" 1 ": 1, "1 /2": half, "1/ 2": half, "- 1": -1, " + 3 / 6 ": half}
    for text, want in cases.items():
        assert field.parse(text) == field.coerce(want), text
    if field is Field.Qi:
        assert field.parse("1/2 + 1/3i") == GaussianRational(Fraction(1, 2), Fraction(1, 3))
        assert field.parse(" - 2 i") == GaussianRational(0, -2)


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
    assert not Field.Q.zero and not Field.Qi.zero
    # One shared zero and one per field: scalars are immutable.
    assert all(f.zero is f.zero and f.one is f.one for f in Field)
    assert Field.Q.one == Fraction(1)
    assert Field.Qi.one == GaussianRational(1)
    assert scalar_text(Field.Q.coerce(7)) == "7/1"
    assert scalar_text(Field.Qi.coerce(7)) == "7/1+0/1i"


def test_a_law_run_leaves_the_shared_constants_as_they_were(capsys):
    # Every suite over Q through the command line, and over Q(i) through
    # cmd_check, since --random draws over Q only.
    assert main(["check", "--random", "3", "4", "7", "--laws", "all"]) == 0
    assert cmd_check(None, (3, 4, 7), "all", "text", Field.Qi) == 0
    assert capsys.readouterr().out.count("result: ok") == 2
    q, qi = Field.Q, Field.Qi
    assert [(type(x), x.numerator, x.denominator) for x in (q.zero, q.one)] == [
        (Fraction, 0, 1),
        (Fraction, 1, 1),
    ]
    assert [(type(z), z._a, z._b, z._d) for z in (qi.zero, qi.one)] == [
        (GaussianRational, 0, 0, 1),
        (GaussianRational, 1, 0, 1),
    ]


# --- Q(i) scalars against the oracle ---------------------------------------

ORACLE = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Few small parts, so that equal values and zero divisors turn up often.
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_gaussians = st.builds(GaussianRational, small, small)
plain_numbers = st.one_of(st.integers(-3, 3), small)


def assert_agrees(z, want):
    assert is_canonical(z)
    assert to_num(z) == want
    assert scalar_text(z) == oracle.ctext(want)


@ORACLE
@given(small_gaussians, small_gaussians)
def test_gaussian_arithmetic_agrees_with_the_oracle(x, y):
    a, b = to_num(x), to_num(y)
    assert_agrees(x, a)
    assert_agrees(x + y, oracle.cadd(a, b))
    assert_agrees(x - y, oracle.csub(a, b))
    assert_agrees(x * y, oracle.cmul(a, b))
    assert_agrees(-x, oracle.cneg(a))
    assert_agrees(x.conjugate(), oracle.cconj(a))
    assert abs_sq(x) == oracle.norm_sq((a,))
    if oracle.ciszero(b):
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_agrees(x / y, oracle.cdiv(a, b))
        # The same value reached along another route is the same triple.
        assert (x / y) * y == x
    assert (x == y) == (a == b)
    assert (x + y) - y == x


@ORACLE
@given(small_gaussians, plain_numbers)
def test_mixed_arithmetic_agrees_with_the_oracle(x, q):
    a, b = to_num(x), oracle.num(q)
    assert_agrees(x + q, oracle.cadd(a, b))
    assert_agrees(q + x, oracle.cadd(b, a))
    assert_agrees(x - q, oracle.csub(a, b))
    assert_agrees(q - x, oracle.csub(b, a))
    assert_agrees(q * x, oracle.cmul(b, a))
    if not oracle.ciszero(a):
        assert_agrees(q / x, oracle.cdiv(b, a))
    if q:
        assert_agrees(x / q, oracle.cdiv(a, b))
    assert (x == q) == (a == b)


@ORACLE
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60).filter(bool))
def test_the_normalising_routine_stores_the_canonical_triple(a, b, d):
    z = _gaussian(a, b, d)
    assert is_canonical(z)
    assert to_num(z) == (Fraction(a, d), Fraction(b, d))


@ORACLE
@given(small, small_gaussians)
def test_a_real_value_hashes_like_its_fraction(q, x):
    for z in (GaussianRational(q), x * x.conjugate() + q, (x + q) - x):
        r = z.re
        assert z.im == 0 and z == r
        assert hash(z) == hash(r)
        assert {r: "found"}[z] == "found"


# --- the Q invariant: no imaginary part enters a Q object --------------------

def test_a_complex_scalar_cannot_enter_a_q_object():
    i = GaussianRational(0, 1)
    attempts = [
        lambda: Vector(Field.Q, [1, i]),
        lambda: Vector(Field.Q, [1, 0]).scaled(i),
        lambda: Matrix(Field.Q, 1, 2, [i, 0]),
        lambda: Matrix.from_rows(Field.Q, [[1, 0], [0, i]]),
        lambda: Matrix.identity(Field.Q, 2).scaled(i),
        lambda: Subspace(Field.Q, 2, [[1, i]]),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError, match="is not rational"):
            attempt()


def test_a_real_gaussian_enters_a_q_object_as_a_fraction():
    three = GaussianRational(3, 0)
    v = Vector(Field.Q, [three, 1])
    m = Matrix.from_rows(Field.Q, [[three, 0], [0, 1]])
    s = Subspace(Field.Q, 2, [[1, three]])
    for e in (Field.Q.coerce(three), v[0], m.entry(0, 0), s.basis.entry(0, 1)):
        assert type(e) is Fraction and e == 3


# --- the boundary: exact scalars only, one field per operation --------------

@pytest.mark.parametrize("value", [0.1, True, "3/4", Decimal("0.1")])
def test_an_inexact_or_foreign_scalar_is_refused(value):
    name = type(value).__name__
    for build in (
        Field.Q.coerce,
        Field.Qi.coerce,
        GaussianRational,
        lambda v: GaussianRational(0, v),
        lambda v: Vector(Field.Q, [1, v]),
        lambda v: Vector(Field.Qi, [v]),
        lambda v: Matrix(Field.Q, 1, 2, [1, v]),
        lambda v: Matrix(Field.Qi, 1, 1, [v]),
        lambda v: Matrix.from_rows(Field.Q, [[v]]),
        lambda v: Matrix.from_rows(Field.Qi, [[1, v]]),
    ):
        with pytest.raises(TypeError, match=name):
            build(value)


def test_comparing_with_a_bool_answers_false():
    # A bool is no exact scalar, so it equals none, as a bool entry is refused.
    assert not GaussianRational(1) == True  # noqa: E712
    assert GaussianRational(0) not in [False]
    assert {True: "a"}.get(GaussianRational(1)) is None


def test_an_operand_over_the_other_field_is_refused():
    q2, qi2 = Matrix.identity(Field.Q, 2), Matrix.identity(Field.Qi, 2)
    x, z = Vector(Field.Q, [1, 0]), Vector(Field.Qi, [GaussianRational(0, 1), 0])
    line, complex_line = Subspace(Field.Q, 2, [[1, 0]]), Subspace(Field.Qi, 2, [[1, 0]])
    pair = OrthoSubspace.total_from(line)
    attempts = [
        lambda: q2 @ z,
        lambda: qi2 @ x,
        lambda: q2 @ qi2,
        lambda: qi2 @ q2,
        lambda: q2 + qi2,
        lambda: qi2 - q2,
        lambda: x + z,
        lambda: z - x,
        lambda: inner(x, z),
        lambda: inner(z, x),
        lambda: line.contains(z),
        lambda: complex_line.contains(x),
        lambda: line.project(z),
        lambda: line.distance_sq(z),
        lambda: complex_line.distance_sq(x),
        lambda: identity_on(line)(z),
        lambda: decompose(pair, z),
        lambda: QuotientSpace(pair).q_iso(z),
    ]
    for attempt in attempts:
        with pytest.raises(AmbientMismatch):
            attempt()
