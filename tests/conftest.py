"""Shared test plumbing: oracle bridging and acceptance-line reporting."""

from fractions import Fraction
from math import gcd

import pytest

import oracle
from orthoql import linalg, subspace
from orthoql.linalg import Matrix, Vector
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import PartialProjection
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
    arithmetic for the whole session."""
    build = OrthoSubspace._of

    def checked(one, zero):
        pair = build(one, zero)
        zeros = to_mat(zero.basis)
        for x in to_mat(one.basis):
            for y in zeros:
                assert oracle.ciszero(oracle.inner(x, y)), f"built unchecked: {pair!r}"
        return pair

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OrthoSubspace, "_of", checked)
        yield


@pytest.fixture(scope="session", autouse=True)
def projection_contract():
    """Every projection built from its pair, with
    ``PartialProjection(pair)``, has the pair's domain, fixes the
    one-part and kills the zero-part, asserted in the oracle's own
    arithmetic once per distinct pair value for the whole session."""
    build = PartialProjection.__init__
    seen = set()

    def checked(self, pair):
        build(self, pair)
        n = pair.ambient_dim
        key = (pair.field, n, pair.one.basis.entries, pair.zero.basis.entries)
        if key in seen:
            return
        seen.add(key)
        # Canonical spans, as s_eq compares them: equal spaces are equal tuples.
        one, zero = oracle.span(to_mat(pair.one.basis), n), oracle.span(to_mat(pair.zero.basis), n)
        dom = to_mat(self.dom.basis)
        assert oracle.span(dom, n) == oracle.s_join(one, zero, n), f"domain of {self!r}"
        fixed, killed = oracle.projection_pair(dom, to_mat(self.images), n)
        assert fixed == one, f"fixed part of {self!r}"
        assert killed == zero, f"killed part of {self!r}"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PartialProjection, "__init__", checked)
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


def _record_calls(monkeypatch, name):
    """The arguments handed to ``linalg.<name>`` from now on, recorded at
    both of its binding sites, ``linalg`` and ``subspace``."""
    calls = []
    real = getattr(linalg, name)

    def counted(m):
        calls.append(m)
        return real(m)

    for module in (linalg, subspace):
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rref_calls(monkeypatch):
    """The matrices handed to ``rref`` from now on."""
    return _record_calls(monkeypatch, "rref")


@pytest.fixture
def gram_projection_calls(monkeypatch):
    """The bases handed to ``gram_projection`` from now on: one per
    orthogonal projector computed."""
    return _record_calls(monkeypatch, "gram_projection")


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


def sub_to_oracle(sub: Subspace):
    return to_mat(sub.basis)


def oracle_to_sub(field, mat_rows, dim) -> Subspace:
    return Subspace(field, dim, [from_vec(field, row) for row in mat_rows])
