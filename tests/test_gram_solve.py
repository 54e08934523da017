"""The integer Gram solve and the projections read off it, against the oracle.

``linalg._gram_solve`` takes the integer rows O of independent vectors
to X = (O Oᴴ)⁻¹ O as one integer form, and refuses dependent rows with
``SingularGram``, as ``matrix_inverse`` refuses a singular matrix.  A ``Subspace`` solves its own
basis once and maps rows y to y Oᴴ X: ``Subspace.projector`` is the
projection of the identity rows, and ``PartialProjection`` takes the
images of its domain basis from its one-part.  Each is compared with
the oracle, which solves the Gram system on fractions, over Q and Q(i),
for one-parts of every rank 1..n-1 and for domains that are and are not
the whole space."""

import random

import pytest

import oracle
from conftest import form_values, from_vec, oracle_to_sub, to_mat
from orthoql.errors import SingularGram
from orthoql.linalg import Matrix, _gram_solve
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import PartialProjection
from orthoql.scalars import Field
from orthoql.subspace import Subspace

FIELDS = [Field.Q, Field.Qi]


def width(field):
    return 1 if field is Field.Q else 2


def draw_ints(rng, field, r, n):
    """The integer rows of r vectors of width n, parts interleaved over Q(i)."""
    return [rng.randint(-3, 3) for _ in range(width(field) * r * n)]


def as_vectors(field, nums, n):
    """The rows of integer numerators, in the oracle's representation."""
    values = form_values(field, 1, nums)
    return tuple(values[i : i + n] for i in range(0, len(values), n))


def independent_draws(rng, field, n, r, count):
    """``count`` integer row sets of r independent vectors of width n."""
    out = []
    while len(out) < count:
        nums = draw_ints(rng, field, r, n)
        if oracle.rank(as_vectors(field, nums, n)) == r:
            out.append(nums)
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_the_gram_solve_solves_the_gram_system(field):
    # G X == O with G[i][j] = <O_i, O_j>, for every rank 1..n-1.
    rng = random.Random(f"gram-{field.value}")
    for n in (2, 3, 4):
        for r in range(1, n):
            for nums in independent_draws(rng, field, n, r, 4):
                rows = as_vectors(field, nums, n)
                den, x = _gram_solve(field, nums, n)
                assert type(den) is int and den > 0
                assert all(type(v) is int for v in x) and len(x) == len(nums)
                gram = tuple(tuple(oracle.inner(a, b) for b in rows) for a in rows)
                assert oracle.mat_mul(gram, as_vectors(field, x, n)) == tuple(
                    tuple(oracle.cmul(oracle.num(den), v) for v in row) for row in rows
                )


@pytest.mark.parametrize("field", FIELDS)
def test_the_gram_solve_refuses_dependent_rows(field):
    rng = random.Random(f"dependent-{field.value}")
    for n in (2, 3, 4):
        for r in range(1, n + 2):
            nums = draw_ints(rng, field, r, n)
            # The last row is the sum of the others, or zero when it is alone.
            w = width(field) * n
            nums[-w:] = [sum(nums[k::w][:-1]) for k in range(w)]
            assert oracle.rank(as_vectors(field, nums, n)) < r
            with pytest.raises(SingularGram):
                _gram_solve(field, nums, n)


@pytest.mark.parametrize("field", FIELDS)
def test_the_projector_matches_the_oracle(field):
    # Spanning rows drawn as they come, not in canonical form.
    rng = random.Random(f"projector-{field.value}")
    for n in (2, 3, 4):
        for r in range(1, n):
            for nums in independent_draws(rng, field, n, r, 3):
                rows = as_vectors(field, nums, n)
                got = Subspace(field, n, [from_vec(field, v) for v in rows]).projector
                assert to_mat(got) == oracle.gram_projection_matrix(rows, n)


@pytest.mark.parametrize("field", FIELDS)
def test_the_projector_of_a_dependent_or_zero_span(field):
    # Dependent spanning rows give the projector onto their span.
    for rows in ([[1, 2, 0], [2, 4, 0]], [[1, 0], [0, 1], [1, 1]]):
        n = len(rows[0])
        want = oracle.gram_projection_matrix(oracle.span(oracle.mat(rows), n), n)
        assert to_mat(Subspace(field, n, rows).projector) == want
    # The zero space projects everything to zero; Q^0 has a 0x0 projector.
    assert Subspace(field, 3, [[0, 0, 0]]).projector == Matrix.zero(field, 3, 3)
    assert Subspace.zero(field, 0).projector == Matrix(field, 0, 0, [])
    assert Subspace.full(field, 0).projector == Matrix(field, 0, 0, [])


@pytest.mark.parametrize("field", FIELDS)
def test_projection_images_match_the_oracle(field):
    # Each domain basis row goes to its orthogonal projection onto the
    # one-part.  The zero-part is cut down below the orthocomplement, so
    # most domains are not the whole space.
    rng = random.Random(f"images-{field.value}")
    seen = set()
    for n in (2, 3, 4):
        for r in range(1, n):
            for nums in independent_draws(rng, field, n, r, 3):
                one = oracle_to_sub(field, as_vectors(field, nums, n), n)
                perp = one.perp()
                for k in range(1, perp.rank + 1):
                    coeffs = Matrix(field, k, perp.rank, draw_ints(rng, Field.Q, k, perp.rank))
                    zero = Subspace(field, n, coeffs @ perp.basis)
                    if zero.is_zero:
                        continue
                    p = PartialProjection(OrthoSubspace(one, zero))
                    seen.add((r, p.dom.is_full))
                    want = tuple(
                        oracle.project_onto(b, to_mat(one.basis), n) for b in to_mat(p.dom.basis)
                    )
                    assert to_mat(p.images) == want
    assert {(1, True), (1, False), (2, True), (2, False), (3, True)} <= seen
