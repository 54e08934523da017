"""Seeded random instances for the law suites and the CLI.

Everything is driven by an explicit random.Random, so a seed pins the
whole sample.  Scalar entries are small rationals: numerators in
-3..3, denominators in 1..3, each taken from a table of those 21
fractions by two draws that consume the stream as two ``randint`` calls
would, so a seed draws the same scalars it always has (a Q(i) scalar is
two of them).  Besides plain uniform sampling there are
shaped generators whose outputs satisfy the hypotheses of the
conditional laws by construction (ordered pairs, orthogonal total
pairs, commuting projections); without them the conditional clauses
would be vacuous on random data.  Drawn scalars are exact by
construction, so every vector, row set and matrix built from them (the
drawn vectors, spanning rows, operator matrices and the skew-adjoint
matrix of a Cayley unitary) is stored with ``Matrix._of`` or
``Vector._of``, with no coerce.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from orthoql.linalg import Matrix, Vector, matrix_inverse
from orthoql.ortho import OrthoSubspace, o_neg
from orthoql.partial_op import PartialOperator, PartialProjection, projection_of
from orthoql.quotient import QuotientSpace
from orthoql.scalars import Field, GaussianRational, Scalar
from orthoql.subspace import Subspace

__all__ = [
    "rng_from",
    "random_scalar",
    "random_vector",
    "random_subspace",
    "random_member",
    "random_subspace_within",
    "random_ortho",
    "random_total_ortho",
    "orthogonal_total_pair",
    "clql_triples",
    "complql_triples",
    "ordered_ortho_pairs",
    "non_ordered_ortho_pairs",
    "random_partial_operator",
    "random_partial_projection",
    "cayley_unitary",
    "commuting_pairs",
    "quotient_samples",
]


def rng_from(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


# The drawn fractions p/q, p in -3..3 and q in 1..3, at [p + 3][q - 1].
_SMALL = tuple(tuple(Fraction(p, q) for q in (1, 2, 3)) for p in range(-3, 4))
_NUMERATORS, _DENOMINATORS = range(7), range(3)


def random_scalar(rng: random.Random, field: Field) -> Scalar:
    # rng.choice(range(w)) draws _randbelow(w), as rng.randint does over w
    # values, so the stream is the one that Fraction(randint(-3, 3),
    # randint(1, 3)) consumed.
    re = _SMALL[rng.choice(_NUMERATORS)][rng.choice(_DENOMINATORS)]
    if field is Field.Qi:
        return GaussianRational(re, _SMALL[rng.choice(_NUMERATORS)][rng.choice(_DENOMINATORS)])
    return re


def random_vector(rng: random.Random, field: Field, dim: int) -> Vector:
    return Vector._of(field, [random_scalar(rng, field) for _ in range(dim)])


def _random_rows(rng: random.Random, field: Field, k: int, ncols: int) -> Matrix:
    return Matrix._of(field, k, ncols, [random_scalar(rng, field) for _ in range(k * ncols)])


def random_subspace(rng: random.Random, field: Field, dim: int) -> Subspace:
    return Subspace(field, dim, _random_rows(rng, field, rng.randint(0, dim), dim))


def random_member(rng: random.Random, sub: Subspace) -> Vector:
    coeffs = [random_scalar(rng, sub.field) for _ in range(sub.rank)]
    return (Matrix._of(sub.field, 1, sub.rank, coeffs) @ sub.basis).row(0)


def _random_within(rng: random.Random, sub: Subspace, k: int) -> Subspace:
    """The span of k random combinations of the basis of ``sub``."""
    return Subspace(sub.field, sub.ambient_dim, _random_rows(rng, sub.field, k, sub.rank) @ sub.basis)


def random_subspace_within(rng: random.Random, sub: Subspace) -> Subspace:
    return _random_within(rng, sub, rng.randint(0, sub.rank))


def random_ortho(rng: random.Random, field: Field, dim: int) -> OrthoSubspace:
    one = random_subspace(rng, field, dim)
    zero = random_subspace_within(rng, one.perp())
    return OrthoSubspace._of(one, zero)


def random_total_ortho(rng: random.Random, field: Field, dim: int) -> OrthoSubspace:
    return OrthoSubspace.total_from(random_subspace(rng, field, dim))


def clql_triples(
    rng: random.Random, field: Field, dim: int, count: int
) -> list[tuple[Subspace, Subspace, Subspace]]:
    out = []
    for _ in range(count):
        out.append(
            (
                random_subspace(rng, field, dim),
                random_subspace(rng, field, dim),
                random_subspace(rng, field, dim),
            )
        )
    return out


def _modular_triples(
    rng: random.Random, field: Field, dim: int, count: int
) -> list[tuple[Subspace, Subspace, Subspace]]:
    """Triples (L, M, N) that meet the modular law's hypothesis and that
    the lattice axioms do not settle alone: 0 < N < L < H, 0 < M < H, and
    M comparable with neither L nor N.  N is drawn inside L, and a
    degenerate draw is drawn again.  Such a triple needs dim >= 3, so
    below that the list is empty."""
    if dim < 3:
        return []
    out = []
    while len(out) < count:
        l = Subspace(field, dim, _random_rows(rng, field, rng.randint(2, dim - 1), dim))
        if l.rank < 2:
            continue
        n = _random_within(rng, l, rng.randint(1, l.rank - 1))
        m = Subspace(field, dim, _random_rows(rng, field, rng.randint(1, dim - 1), dim))
        # N <= L, so M <= N would give M <= L and L <= M would give N <= M.
        if not (n.is_zero or m.is_zero or m.leq(l) or n.leq(m)):
            out.append((l, m, n))
    return out


def orthogonal_total_pair(
    rng: random.Random, field: Field, dim: int
) -> tuple[OrthoSubspace, OrthoSubspace]:
    """Two total pairs with the first below the complement of the second."""
    l1 = random_subspace(rng, field, dim)
    m1 = random_subspace_within(rng, l1.perp())
    return OrthoSubspace.total_from(l1), OrthoSubspace.total_from(m1)


def _ordered_pair(
    rng: random.Random, field: Field, dim: int, total: bool
) -> tuple[OrthoSubspace, OrthoSubspace]:
    """A pair ordered low-to-high; with total=True both ends are total.
    Both pairs are orthogonal by construction: m0 lies in m1.perp(), and
    l0 in l1.perp(), which contains m1.perp() since l1 lies in m1."""
    l1 = random_subspace(rng, field, dim)
    m1 = l1.join(random_subspace(rng, field, dim))
    if total:
        return OrthoSubspace.total_from(l1), OrthoSubspace.total_from(m1)
    m0 = random_subspace_within(rng, m1.perp())
    l0 = m0.join(random_subspace_within(rng, l1.perp()))
    return OrthoSubspace._of(l1, l0), OrthoSubspace._of(m1, m0)


def complql_triples(
    rng: random.Random, field: Field, dim: int, count: int
) -> list[tuple[OrthoSubspace, OrthoSubspace, OrthoSubspace]]:
    """Triples mixing plain random pairs with shaped instances that meet
    the hypotheses of the conditional laws."""
    out = []
    for k in range(count):
        n_pair = random_ortho(rng, field, dim)
        pattern = k % 5
        if pattern == 0:
            l, m = random_ortho(rng, field, dim), random_ortho(rng, field, dim)
        elif pattern == 1:
            l, m = orthogonal_total_pair(rng, field, dim)
        elif pattern == 2:
            l, m = _ordered_pair(rng, field, dim, total=True)
        elif pattern == 3:
            a, b = orthogonal_total_pair(rng, field, dim)
            l, m = o_neg(b), o_neg(a)
        else:
            l = random_total_ortho(rng, field, dim)
            m = l
        out.append((l, m, n_pair))
    return out


def ordered_ortho_pairs(
    rng: random.Random, field: Field, dim: int, count: int
) -> list[tuple[OrthoSubspace, OrthoSubspace]]:
    return [
        _ordered_pair(rng, field, dim, total=bool(k % 2)) for k in range(count)
    ]


def non_ordered_ortho_pairs(
    rng: random.Random, field: Field, dim: int, count: int
) -> list[tuple[OrthoSubspace, OrthoSubspace]]:
    """Pairs (l, m) with l not below m: none in dimension 0, whose only pair (0, 0) is ordered."""
    if dim == 0:
        return []
    out = []
    while len(out) < count:
        l = random_ortho(rng, field, dim)
        m = random_ortho(rng, field, dim)
        if not l.leq(m):
            out.append((l, m))
            continue
        if not m.leq(l):
            out.append((m, l))
    return out


def random_partial_operator(
    rng: random.Random, field: Field, dim: int, total: bool = False
) -> PartialOperator:
    dom = Subspace.full(field, dim) if total else random_subspace(rng, field, dim)
    entries = [random_scalar(rng, field) for _ in range(dim * dim)]
    return PartialOperator.from_matrix(dom, Matrix._of(field, dim, dim, entries))


def random_partial_projection(
    rng: random.Random, field: Field, dim: int, total: bool = False
) -> PartialProjection:
    pair = (random_total_ortho if total else random_ortho)(rng, field, dim)
    return projection_of(pair)


def cayley_unitary(rng: random.Random, field: Field, dim: int) -> Matrix:
    """A random unitary with exact entries: (I - A)(I + A)^-1 for a
    skew-adjoint A.  I + A is always invertible for such A, and the
    transform of a skew-adjoint matrix is unitary."""

    def frac() -> Fraction:
        return Fraction(rng.randint(-2, 2), rng.randint(1, 2))

    entries: list[list[Scalar]] = [[field.zero] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if field is Field.Qi:
                if i == j:
                    entries[i][j] = GaussianRational(Fraction(0), frac())
                else:
                    s, t = frac(), frac()
                    entries[i][j] = GaussianRational(s, t)
                    entries[j][i] = GaussianRational(-s, t)
            else:
                if i != j:
                    a = frac()
                    entries[i][j] = a
                    entries[j][i] = -a
    a = Matrix._of(field, dim, dim, [e for row in entries for e in row])
    eye = Matrix.identity(field, dim)
    return (eye - a) @ matrix_inverse(eye + a)


def _axis_projection(cols: Matrix, support: set[int], fixed: set[int]) -> PartialProjection:
    """The projection fixing the span of the rows of ``cols`` at ``fixed``
    and killing the span of those at ``support - fixed``.  The rows are
    the columns of a unitary, which are orthonormal, so the pair is
    orthogonal by construction."""
    n = cols.ncols

    def span(idx: set[int]) -> Subspace:
        rows = [e for j in sorted(idx) for e in cols.entries[j * n : (j + 1) * n]]
        return Subspace(cols.field, n, Matrix._of(cols.field, len(idx), n, rows))

    return projection_of(OrthoSubspace._of(span(fixed), span(support - fixed)))


def commuting_pairs(
    rng: random.Random, field: Field, dim: int, count: int
) -> list[tuple[PartialProjection, PartialProjection]]:
    """Pairs of commuting projections, simultaneously diagonal in the
    columns of a shared unitary: the identity, or a Cayley unitary.

    Each projection is drawn as its pair, the spans of two disjoint sets
    of the unitary's columns, so nothing is conjugated or checked again.
    Two such projections commute exactly when the domains of the two
    composites coincide as index sets, so candidates are rejection
    sampled on that criterion (sharing the support always works and is
    the fallback).
    """
    out = []
    axes = list(range(dim))
    while len(out) < count:
        s1 = {j for j in axes if rng.randint(0, 1)}
        t1 = {j for j in s1 if rng.randint(0, 1)}
        for _ in range(8):
            s2 = {j for j in axes if rng.randint(0, 1)}
            t2 = {j for j in s2 if rng.randint(0, 1)}
            d12 = (t1 & s2) | (s1 - t1)
            d21 = (t2 & s1) | (s2 - t2)
            if d12 == d21:
                break
        else:
            s2 = set(s1)
            t2 = {j for j in s2 if rng.randint(0, 1)}
        # The unitary's columns, as rows; the identity is its own transpose.
        if rng.randint(0, 1):
            cols = cayley_unitary(rng, field, dim).transpose()
        else:
            cols = Matrix.identity(field, dim)
        out.append((_axis_projection(cols, s1, t1), _axis_projection(cols, s2, t2)))
    return out


def quotient_samples(
    rng: random.Random, field: Field, dim: int, count: int
) -> list[tuple[QuotientSpace, Vector, Vector, Vector]]:
    """Quotients with three random members of the carrier each."""
    out = []
    for _ in range(count):
        base = random_ortho(rng, field, dim)
        q = QuotientSpace(base)
        carrier = base.dom
        out.append(
            (
                q,
                random_member(rng, carrier),
                random_member(rng, carrier),
                random_member(rng, carrier),
            )
        )
    return out
