"""Seeded draws that only the tests use: vectors, members of a subspace,
total pairs, partial projections and quotient samples.  They draw from
``orthoql.generators``' scalars, so a seed draws what it did when they
lived there."""

import random

from orthoql.generators import random_ortho, random_scalar, random_subspace
from orthoql.linalg import Matrix, Vector
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import PartialProjection, projection_of
from orthoql.quotient import QuotientSpace
from orthoql.scalars import Field
from orthoql.subspace import Subspace


def random_vector(rng: random.Random, field: Field, dim: int) -> Vector:
    return Vector._of(field, [random_scalar(rng, field) for _ in range(dim)])


def random_member(rng: random.Random, sub: Subspace) -> Vector:
    coeffs = [random_scalar(rng, sub.field) for _ in range(sub.rank)]
    return (Matrix._of(sub.field, 1, sub.rank, coeffs) @ sub.basis).row(0)


def random_total_ortho(rng: random.Random, field: Field, dim: int) -> OrthoSubspace:
    return OrthoSubspace.total_from(random_subspace(rng, field, dim))


def random_partial_projection(
    rng: random.Random, field: Field, dim: int, total: bool = False
) -> PartialProjection:
    pair = (random_total_ortho if total else random_ortho)(rng, field, dim)
    return projection_of(pair)


def quotient_samples(
    rng: random.Random, field: Field, dim: int, count: int
) -> list[tuple[QuotientSpace, Vector, Vector, Vector]]:
    """Quotients with three random members of the carrier each."""
    out = []
    for _ in range(count):
        base = random_ortho(rng, field, dim)
        carrier = base.dom
        members = [random_member(rng, carrier) for _ in range(3)]
        out.append((QuotientSpace(base), *members))
    return out
