"""Exact matrix products and Q(i) row reduction against the brute-force
oracle, on entries whose real and imaginary parts both have non-unit
denominators."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import is_canonical, to_mat, to_vec
from orthoql.linalg import Matrix, Vector, rref
from orthoql.scalars import Field, GaussianRational as G
from orthoql.subspace import Subspace

SHAPES = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (3, 4, 2), (4, 4, 4), (2, 5, 3)]


def fractional(rng):
    """A rational with an even, hence non-unit, denominator."""
    return F(rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]), rng.choice([2, 4, 6, 10, 12]))


def rand_fractional_matrix(rng, field, nrows, ncols):
    if field is Field.Qi:
        entries = [G(fractional(rng), fractional(rng)) for _ in range(nrows * ncols)]
        assert all(e.re.denominator > 1 and e.im.denominator > 1 for e in entries)
    else:
        entries = [fractional(rng) for _ in range(nrows * ncols)]
        assert all(e.denominator > 1 for e in entries)
    return Matrix(field, nrows, ncols, entries)


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
@pytest.mark.parametrize("n, m, p", SHAPES)
def test_matrix_product_matches_oracle_column_by_column(field, n, m, p):
    rng = random.Random(f"{field.value}-{n}-{m}-{p}")
    for _ in range(5):
        a = rand_fractional_matrix(rng, field, n, m)
        b = rand_fractional_matrix(rng, field, m, p)
        prod = a @ b
        assert (prod.field, prod.nrows, prod.ncols) == (field, n, p)
        assert len(prod.entries) == n * p
        for got, col in zip(to_mat(prod.transpose()), to_mat(b.transpose())):
            assert got == oracle.mat_vec(to_mat(a), col)


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
@pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (0, 0), (1, 1), (3, 4), (4, 4)])
def test_matrix_vector_product_matches_oracle(field, n, m):
    rng = random.Random(f"{field.value}-{n}-{m}")
    for _ in range(5):
        a = rand_fractional_matrix(rng, field, n, m)
        x = rand_fractional_matrix(rng, field, m, 1).transpose().row(0)
        y = a @ x
        assert isinstance(y, Vector) and y.field is field and y.dim == n
        assert to_vec(y) == oracle.mat_vec(to_mat(a), to_vec(x))


def test_known_products():
    a = Matrix(Field.Q, 1, 2, [F(1, 2), F(1, 3)])
    assert a @ Vector(Field.Q, [F(1, 5), F(1, 7)]) == Vector(Field.Q, [F(31, 210)])
    z = Matrix(Field.Qi, 1, 1, [G(F(1, 2), F(1, 3))])
    w = Matrix(Field.Qi, 1, 1, [G(F(1, 4), F(-1, 5))])
    # (1/2 + i/3)(1/4 - i/5) = (1/8 + 1/15) + (1/12 - 1/10) i
    assert (z @ w).entries == (G(F(23, 120), F(-1, 60)),)
    # Products are reduced fractions of the field's own scalar type.
    assert type((a @ a.transpose()).entry(0, 0)) is F
    assert (a @ a.transpose()).entry(0, 0) == F(13, 36)


def test_qi_rref_with_fractional_entries_matches_oracle():
    rng = random.Random("qi-rref")
    for nrows, ncols in [(1, 1), (2, 3), (3, 3), (3, 5), (4, 3)]:
        for _ in range(6):
            m = rand_fractional_matrix(rng, Field.Qi, nrows, ncols)
            rows = [list(r) for r in m.rows()]
            if nrows >= 3:
                # Make the last row a Gaussian combination of the first two,
                # so the rank is deficient and the basis has fewer rows.
                c0, c1 = G(fractional(rng), fractional(rng)), G(fractional(rng), fractional(rng))
                rows[-1] = [c0 * x + c1 * y for x, y in zip(rows[0], rows[1])]
            m = Matrix.from_rows(Field.Qi, rows)
            basis, pivots = rref(m)
            want_rows, want_pivots = oracle.naive_rref(to_mat(m))
            rank = len(want_pivots)
            assert pivots == tuple(want_pivots) and basis.nrows == rank
            assert to_mat(basis) == tuple(tuple(r) for r in want_rows[:rank])
            assert all(oracle.is_zero_vec(r) for r in want_rows[rank:])
            if nrows >= 3:
                assert rank < nrows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_qi_results_hold_canonical_triples_and_agree_with_the_oracle(data):
    parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))

    def qi(nrows, ncols):
        cells = st.lists(st.builds(G, parts, parts), min_size=nrows * ncols, max_size=nrows * ncols)
        return Matrix(Field.Qi, nrows, ncols, data.draw(cells))

    a, b = qi(r, k), qi(k, c)
    prod = a @ b
    gram = a @ a.conj_transpose()
    basis, _ = rref(a)
    proj = Subspace(Field.Qi, k, a).projector
    for m in (prod, gram, basis, proj):
        assert all(is_canonical(e) for e in m.entries)
    assert to_mat(prod) == oracle.mat_mul(to_mat(a), to_mat(b))
    assert all(gram.entry(i, i).im == 0 for i in range(r))
    want_rows, want_pivots = oracle.naive_rref(to_mat(a))
    assert to_mat(basis) == tuple(tuple(row) for row in want_rows[: len(want_pivots)])
    assert to_mat(proj) == oracle.gram_projection_matrix(to_mat(basis), k)
