"""Exact linear algebra against frozen values and the brute-force oracle."""

import random
from fractions import Fraction as F

import pytest

import oracle
from conftest import from_vec, to_mat, to_vec
from orthoql.errors import DimensionMismatch, SingularGram
from orthoql.linalg import (
    Matrix,
    Vector,
    _form,
    _gram_solve,
    inner,
    matrix_inverse,
    norm_sq,
    null_space,
    rref,
)
from orthoql.scalars import Field, GaussianRational as G, conj
from orthoql.subspace import Subspace


def rand_matrix(rng, field, nrows, ncols):
    if field is Field.Qi:
        entries = [
            G(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            for _ in range(nrows * ncols)
        ]
    else:
        entries = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nrows * ncols)]
    return Matrix(field, nrows, ncols, entries)


def test_rref_known():
    m = Matrix(Field.Q, 2, 2, [F(2), F(4), F(1), F(2)])
    basis, pivots = rref(m)
    # One row per pivot: the zero row of the reduced form is not returned.
    assert pivots == (0,)
    assert basis == Matrix(Field.Q, 1, 2, [F(1), F(2)])
    want_rows, want_pivots = oracle.naive_rref(to_mat(m))
    assert to_mat(basis) == tuple(tuple(r) for r in want_rows[: len(want_pivots)])
    # A matrix with no rows, or only zero rows, has an empty basis.
    for m in (Matrix(Field.Q, 0, 2, []), Matrix.zero(Field.Qi, 2, 3)):
        assert rref(m) == (Matrix(m.field, 0, m.ncols, []), ())


def test_null_space_known():
    m = Matrix(Field.Q, 1, 2, [F(1), F(1)])
    ns = null_space(m)
    assert ns.nrows == 1 and ns.ncols == 2
    assert list(ns.row(0)) == [F(-1), F(1)]
    # One row per free column: none for an invertible matrix, every unit
    # vector for a matrix with no rows.
    assert null_space(Matrix.identity(Field.Q, 3)) == Matrix(Field.Q, 0, 3, [])
    assert null_space(Matrix(Field.Qi, 0, 2, [])) == Matrix.identity(Field.Qi, 2)


def test_gram_projection_known():
    p = Subspace(Field.Q, 2, [[1, 1]]).projector
    assert p == Matrix(Field.Q, 2, 2, [F(1, 2)] * 4)


def test_gram_projection_rejects_dependent_columns():
    # The Gram solve behind every projector refuses dependent rows; a
    # subspace hands it only its canonical basis, which is independent.
    for field in (Field.Q, Field.Qi):
        rows = Matrix.from_rows(field, [[1, 2, 0], [2, 4, 0]])
        with pytest.raises(SingularGram):
            _gram_solve(field, _form(field, rows.entries)[1], 3)
        assert Subspace(field, 3, rows).projector == Subspace(field, 3, [[1, 2, 0]]).projector


def test_projection_matrix_properties():
    rng = random.Random(5)
    for field in (Field.Q, Field.Qi):
        for _ in range(25):
            dim = rng.randint(1, 4)
            k = rng.randint(0, dim)
            cols = rand_matrix(rng, field, dim, k)
            sub = Subspace(field, dim, cols.transpose())
            basis, p = sub.basis, sub.projector
            assert p @ p == p
            assert p.conj_transpose() == p
            for b in basis.rows():
                assert p @ b == b
            want = oracle.gram_projection_matrix(to_mat(basis), dim)
            assert to_mat(p) == want


def test_inner_is_linear_in_first_slot():
    rng = random.Random(9)
    for field in (Field.Q, Field.Qi):
        for _ in range(30):
            dim = rng.randint(1, 4)
            x = rand_matrix(rng, field, 1, dim).row(0)
            y = rand_matrix(rng, field, 1, dim).row(0)
            z = rand_matrix(rng, field, 1, dim).row(0)
            a = (
                G(F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
                if field is Field.Qi
                else F(rng.randint(-2, 2))
            )
            assert inner(x.scaled(a) + y, z) == a * inner(x, z) + inner(y, z)
            assert inner(z, x.scaled(a)) == conj(a) * inner(z, x)
            assert norm_sq(x) >= 0
            assert (norm_sq(x) == 0) == x.is_zero


def test_inner_conjugate_symmetry_over_qi():
    x = Vector(Field.Qi, [G(1, 2), G(0, -1)])
    y = Vector(Field.Qi, [G(3), G(1, 1)])
    assert inner(x, y) == inner(y, x).conjugate()
    # Multiplying the first slot by i rotates the value by i.
    i = G(0, 1)
    assert inner(x.scaled(i), y) == i * inner(x, y)


def test_rref_and_nullspace_match_oracle():
    rng = random.Random(31)
    for field in (Field.Q, Field.Qi):
        for _ in range(40):
            nrows = rng.randint(0, 4)
            ncols = rng.randint(1, 4)
            m = rand_matrix(rng, field, nrows, ncols)
            basis, pivots = rref(m)
            want_rows, want_pivots = oracle.naive_rref(to_mat(m))
            # Exactly one row per pivot, equal to the oracle's nonzero rows.
            assert pivots == tuple(want_pivots)
            assert to_mat(basis) == tuple(tuple(r) for r in want_rows[: len(want_pivots)])

            # One kernel vector per row, the oracle's back substitution.
            ns = null_space(m)
            ours = to_mat(ns)
            assert ns.ncols == ncols
            assert ours == oracle.plain_nullspace(to_mat(m), ncols)
            for row in ours:
                prod = oracle.mat_vec(to_mat(m), row)
                assert oracle.is_zero_vec(prod)


@pytest.mark.parametrize("field", [Field.Q, Field.Qi])
def test_matrix_inverse_matches_oracle_column_by_column(field):
    rng = random.Random(47)
    seen = set()
    for _ in range(80):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, field, n, n)
        if n > 1 and rng.randint(0, 1):
            # Repeat the first column last, so that a is singular.
            a = Matrix.from_rows(field, [list(r)[: n - 1] + [r[0]] for r in a.rows()])
        # Column j of the inverse solves a @ x == e_j.
        wants = [oracle.solve_naive(to_mat(a), e) for e in oracle.full(n)]
        singular = oracle.rank(to_mat(a)) < n
        assert singular == (None in wants)
        if singular:
            with pytest.raises(SingularGram):
                matrix_inverse(a)
        else:
            x = matrix_inverse(a)
            assert a @ x == Matrix.identity(field, n)
            assert list(to_mat(x.transpose())) == wants
        seen.add(singular)
    assert seen == {False, True}
    # No rows: the empty matrix is its own inverse.
    assert matrix_inverse(Matrix(field, 0, 0, [])) == Matrix(field, 0, 0, [])
    with pytest.raises(DimensionMismatch):
        matrix_inverse(Matrix.zero(field, 2, 3))


def test_det_and_inverse():
    eye = Matrix.identity(Field.Q, 3)
    assert matrix_inverse(eye) == eye
    swap = Matrix(Field.Q, 2, 2, [F(0), F(1), F(1), F(0)])
    assert matrix_inverse(swap) == swap
    sing = Matrix(Field.Q, 2, 2, [F(1), F(2), F(2), F(4)])
    with pytest.raises(SingularGram):
        matrix_inverse(sing)
    # The oracle's rank decides invertibility.  Each draw also yields a
    # singular twin whose last row is the sum of the first two.
    rng = random.Random(3)
    for _ in range(20):
        m = rand_matrix(rng, Field.Qi, 3, 3)
        rows = m.rows()
        twin = Matrix.from_rows(Field.Qi, rows[:2] + [rows[0] + rows[1]])
        for a in (m, twin):
            if oracle.rank(to_mat(a)) == 3:
                assert a @ matrix_inverse(a) == Matrix.identity(Field.Qi, 3)
            else:
                with pytest.raises(SingularGram):
                    matrix_inverse(a)


def test_shape_mismatches_raise():
    with pytest.raises(DimensionMismatch):
        Matrix(Field.Q, 2, 2, [F(1)])
    a = Vector(Field.Q, [F(1), F(2)])
    b = Vector(Field.Q, [F(1)])
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        inner(a, b)


def test_vector_matrix_algebra():
    rng = random.Random(8)
    for _ in range(20):
        a = rand_matrix(rng, Field.Q, 3, 3)
        b = rand_matrix(rng, Field.Q, 3, 3)
        c = rand_matrix(rng, Field.Q, 3, 3)
        assert (a @ b) @ c == a @ (b @ c)
        assert a.transpose().transpose() == a
        assert (a @ b).conj_transpose() == b.conj_transpose() @ a.conj_transpose()
    x = Vector(Field.Q, [F(1), F(2)])
    assert 2 * x == Vector(Field.Q, [F(2), F(4)])
    assert list(-x) == [F(-1), F(-2)]


def test_oracle_bridge_is_faithful():
    v = Vector(Field.Qi, [G(1, 2), G(F(1, 2))])
    assert from_vec(Field.Qi, to_vec(v)) == v
