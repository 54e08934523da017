"""Shared test plumbing: oracle bridging, the session-wide contracts,
acceptance-line reporting and a few shared builders."""

from fractions import Fraction
from math import gcd

import pytest

import oracle
from orthoql import linalg, partial_op, scalars, subspace
from orthoql.linalg import Matrix, Vector
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import PartialOperator, PartialProjection
from orthoql.scalars import Field, GaussianRational
from orthoql.subspace import Subspace

# Lines registered by the acceptance tests; echoed after the run so the
# one-line verdicts are visible in the terminal summary.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# --- bridges into the brute-force oracle's representation ---------------

def to_num(scalar):
    if isinstance(scalar, GaussianRational):
        return (scalar.re, scalar.im)
    return (Fraction(scalar), Fraction(0))


def is_canonical(z):
    """A Q(i) scalar stored as its canonical triple (a, b, d): d > 0 and
    gcd(a, b, d) = 1."""
    return type(z) is GaussianRational and z._d > 0 and gcd(z._a, z._b, z._d) == 1


def to_vec(v):
    return tuple(to_num(e) for e in v)


def to_mat(m):
    """The rows of ``m``, read off its entries with no ``Vector`` built."""
    n = m.ncols
    return tuple(to_vec(m.entries[i * n : (i + 1) * n]) for i in range(m.nrows))


def from_num(field, pair):
    if field is Field.Qi:
        return GaussianRational(pair[0], pair[1])
    assert pair[1] == 0
    return pair[0]


def from_vec(field, x):
    return Vector(field, [from_num(field, e) for e in x])


@pytest.fixture(scope="session", autouse=True)
def pair_contract():
    """Every pair that the package builds unchecked, with
    ``OrthoSubspace._of`` (the connectives, the generators and
    ``from_matrix``), has orthogonal parts, asserted in the oracle's own
    arithmetic once per distinct pair value for the whole session.  A
    value is keyed on its two parts, whose equality is that of their
    canonical bases, and is remembered only once it has passed."""
    build = OrthoSubspace._of
    seen = set()

    def checked(one, zero):
        pair = build(one, zero)
        key = (one, zero)
        if key in seen:
            return pair
        zeros = to_mat(zero.basis)
        for x in to_mat(one.basis):
            for y in zeros:
                assert oracle.ciszero(oracle.inner(x, y)), f"built unchecked: {pair!r}"
        seen.add(key)
        return pair

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OrthoSubspace, "_of", checked)
        yield


@pytest.fixture(scope="session", autouse=True)
def projection_contract():
    """Every projection built from its pair, with
    ``PartialProjection(pair)``, has the pair's domain, fixes the
    one-part and kills the zero-part, asserted in the oracle's own
    arithmetic once per distinct pair value, keyed on its two parts, for
    the whole session."""
    build = PartialProjection.__init__
    seen = set()

    def checked(self, pair):
        build(self, pair)
        n = pair.ambient_dim
        key = (pair.one, pair.zero)
        if key in seen:
            return
        # Canonical spans, as s_eq compares them: equal spaces are equal tuples.
        one, zero = oracle.span(to_mat(pair.one.basis), n), oracle.span(to_mat(pair.zero.basis), n)
        dom = to_mat(self.dom.basis)
        assert oracle.span(dom, n) == oracle.s_join(one, zero, n), f"domain of {self!r}"
        fixed, killed = oracle.projection_pair(dom, to_mat(self.images), n)
        assert fixed == one, f"fixed part of {self!r}"
        assert killed == zero, f"killed part of {self!r}"
        seen.add(key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PartialProjection, "__init__", checked)
        yield


def form_values(field, den, nums):
    """The values that the integer form ``(den, nums)`` of an operator's
    images holds, in the oracle's representation: one (re, im) pair of
    fractions per entry, the parts interleaved in ``nums`` over Q(i)."""
    if field is Field.Q:
        return tuple((Fraction(x, den), Fraction(0)) for x in nums)
    return tuple((Fraction(a, den), Fraction(b, den)) for a, b in zip(nums[0::2], nums[1::2]))


@pytest.fixture(scope="session", autouse=True)
def operator_contract():
    """Every operator, built with the public ``PartialOperator(dom,
    images)`` or unchecked with ``PartialOperator._of`` (the linear
    structure, composition and every projection), stores its images as
    a primitive integer form: ``den`` a positive int, ``nums`` a tuple of
    ``rank * n`` ints (twice that over Q(i)), none a bool, with ``gcd(den,
    *nums) == 1``, and ``images`` reads back as exact scalars of those
    values.  ``_of`` keeps the value it is given, and the public path the
    images it is given.  Asserted in the oracle's arithmetic once per
    distinct value, for the whole session."""
    build, init = PartialOperator._of, PartialOperator.__init__
    seen = set()

    def first_sight(t):
        key = (t.dom, t.den, t.nums)
        if key in seen:
            return False
        seen.add(key)
        den, nums, width = t.den, t.nums, 1 if t.field is Field.Q else 2
        assert type(den) is int and den > 0, f"denominator of {t!r}"
        assert type(nums) is tuple and all(type(x) is int for x in nums), f"numerators of {t!r}"
        assert len(nums) == width * t.dom.rank * t.ambient_dim, f"numerator count of {t!r}"
        assert gcd(den, *nums) == 1, f"not primitive: {den}, {nums}"
        images = t.images.entries
        assert exact_entries(t.field, images), f"images of {t!r}"
        assert tuple(map(to_num, images)) == form_values(t.field, den, nums), f"images of {t!r}"
        return True

    def of(cls, dom, den, nums):
        nums = tuple(nums)
        t = build(dom, den, nums)
        first_sight(t)
        # Dividing out the gcd keeps each value: nums[k] / den == t.nums[k] / t.den.
        assert len(t.nums) == len(nums) and all(
            x * t.den == y * den for x, y in zip(nums, t.nums)
        ), f"{t!r} built from {den}, {nums}"
        return t

    def checked(self, dom, images):
        init(self, dom, images)
        if first_sight(self):
            assert to_mat(self.images) == to_mat(images), f"{self!r} built from {images!r}"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PartialOperator, "_of", classmethod(of))
        patch.setattr(PartialOperator, "__init__", checked)
        yield


def exact_entries(field, entries):
    """Whether every entry is a scalar of ``field`` in its one exact
    form: exactly a ``Fraction`` over Q, a canonical triple over Q(i)."""
    if field is Field.Q:
        return all(type(e) is Fraction for e in entries)
    return all(is_canonical(e) for e in entries)


@pytest.fixture(scope="session", autouse=True)
def scalar_contract():
    """Every matrix and vector that the package builds unchecked, with
    ``Matrix._of`` or ``Vector._of`` (its arithmetic results), holds
    ``nrows * ncols`` entries, each already a scalar of its field in its
    one exact form, for the whole session."""
    matrix_of, vector_of = Matrix._of, Vector._of

    def matrix(cls, field, nrows, ncols, entries):
        m = matrix_of(field, nrows, ncols, entries)
        assert len(m.entries) == nrows * ncols, f"built unchecked: {nrows}x{ncols} {m!r}"
        assert exact_entries(field, m.entries), f"built unchecked: {m.entries!r}"
        return m

    def vector(cls, field, entries):
        v = vector_of(field, entries)
        assert exact_entries(field, v.entries), f"built unchecked: {v.entries!r}"
        return v

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "_of", classmethod(matrix))
        patch.setattr(Vector, "_of", classmethod(vector))
        yield


@pytest.fixture(scope="session", autouse=True)
def gaussian_contract():
    """Every ``GaussianRational`` that the package makes, through
    ``_gaussian`` at each module that binds it (``scalars`` for the
    arithmetic, ``linalg`` for products and reductions), holds its
    canonical triple: ``d > 0`` and ``gcd(a, b, d) == 1``, asserted once
    per distinct triple for the whole session."""
    build = scalars._gaussian
    seen = set()

    def checked(a, b, d):
        z = build(a, b, d)
        key = z._a, z._b, z._d
        if key not in seen:
            assert is_canonical(z), f"not canonical: {key}, made from {(a, b, d)}"
            seen.add(key)
        return z

    with pytest.MonkeyPatch.context() as patch:
        for module in (scalars, linalg):
            patch.setattr(module, "_gaussian", checked)
        yield


def _record_calls(monkeypatch, name):
    """The arguments handed to ``linalg.<name>`` from now on, one tuple
    per call, recorded at every module that binds it by name."""
    calls = []
    real = getattr(linalg, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (linalg, subspace, partial_op):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rref_calls(monkeypatch):
    """The matrices handed to ``rref`` from now on."""
    return _record_calls(monkeypatch, "rref")


@pytest.fixture
def gram_solve_calls(monkeypatch):
    """The integer rows handed to ``_gram_solve`` from now on: one call
    per Gram solve, which a subspace makes at most once."""
    return _record_calls(monkeypatch, "_gram_solve")


@pytest.fixture
def vector_builds(monkeypatch):
    """The ``Vector``s built from now on, checked or not."""
    built = []
    real, real_of = Vector.__init__, Vector._of

    def counted(self, field, entries):
        real(self, field, entries)
        built.append(self)

    def counted_of(cls, field, entries):
        built.append(real_of(field, entries))
        return built[-1]

    monkeypatch.setattr(Vector, "__init__", counted)
    monkeypatch.setattr(Vector, "_of", classmethod(counted_of))
    return built


@pytest.fixture
def coerce_calls(monkeypatch):
    """The values handed to ``Field.coerce`` from now on."""
    calls = []
    real = Field.coerce

    def counted(field, value):
        calls.append(value)
        return real(field, value)

    monkeypatch.setattr(Field, "coerce", counted)
    return calls


@pytest.fixture
def coperp_calls(monkeypatch):
    """The pairs of spaces whose orthogonality ``perp_rel`` computes
    from now on, through ``coperp_rel``."""
    calls = []
    real = subspace.coperp_rel

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(subspace, "coperp_rel", counted)
    return calls


@pytest.fixture
def projection_builds(monkeypatch):
    """The ``PartialProjection``s built from their pairs from now on."""
    built = []
    real = PartialProjection.__init__

    def counted(self, pair):
        real(self, pair)
        built.append(self)

    monkeypatch.setattr(PartialProjection, "__init__", counted)
    return built


def conjugated(p: PartialProjection, u: Matrix) -> PartialProjection:
    """The projection seen through the unitary change of coordinates u."""
    dom = Subspace(p.field, p.ambient_dim, p.dom.basis @ u.transpose())
    return PartialProjection.from_matrix(dom, u @ p.matrix @ u.conj_transpose())


def sub_to_oracle(sub: Subspace):
    return to_mat(sub.basis)


def oracle_to_sub(field, mat_rows, dim) -> Subspace:
    return Subspace(field, dim, [from_vec(field, row) for row in mat_rows])
