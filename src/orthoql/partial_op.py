"""Partial linear operators and partial projections.

An operator acts only on the vectors of its domain subspace; values
elsewhere are deliberately meaningless.  It is built from, and stored
as, its domain and the images of the domain's canonical (RREF) basis
rows: ``PartialOperator(dom, images)``, images a rank x n matrix.  An
ambient n x n matrix M enters only through ``from_matrix``, as
``basis @ M^T``.  Equality is literal equality of (domain, images), and
no projector onto a domain is needed: y lies in the domain exactly when
``y == y[pivots] @ basis``, and rows go to ``rows[:, pivots] @ images``,
which is ``rows @ matrix^T`` exactly, for any rows, in the domain or
not.  So the partial linear structure and composition act on images
alone.

Projections defined on a domain that splits as (fixed part) + (killed
part) correspond exactly to orthogonal pairs of subspaces, and a
``PartialProjection`` is built from its pair and keeps it:
``PartialProjection(pair)`` takes the images of the pair's domain
basis under the one-part's orthogonal projector; ``projection_of`` is
that constructor, and ``subspaces_of`` reads the stored pair.  The
pair keeps nothing of its projection, so no reference cycle ties the
two together and each ``projection_of`` call builds one projection.
The logical operations act on pairs: each projection connective is
the projection of its pair connective from :mod:`orthoql.ortho`, so
``proj_compl`` is the projection of the negated pair, ``proj_minus``,
``proj_implies``, ``proj_iff`` and ``proj_not`` build one projection
each, and order and orthogonality are those of the pairs, with no
projection built.
``PartialProjection.from_matrix`` is the one place where a matrix
claims to be a projection: its images must map the domain into itself,
be idempotent and be self-adjoint, and the pair is then read off them
with no kernel computed, as the span of the images and of what they
leave out, basis row minus image.  Those checks make the two spans
orthogonal, so the pair is built unchecked, with ``OrthoSubspace._of``.

The calculus of composites for ordered pairs and for commuting
projections is checked clause by clause: each calculus returns a plain
map {clause: (applicable, holds, detail)}, in which a clause whose
hypothesis is not met has applicable False, and ``laws`` tallies those
maps into law reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from orthoql.errors import AmbientMismatch, NotInDomain
from orthoql.linalg import Matrix, Vector, _check_field, _solve_block, inner, norm_sq, null_space
from orthoql.ortho import OrthoSubspace, o_iff, o_implies, o_join, o_leq, o_meet, o_minus
from orthoql.ortho import o_neg, o_not, o_perp
from orthoql.scalars import Field, GaussianRational, Scalar
from orthoql.subspace import Subspace, _stacked, perp_rel

__all__ = [
    "PartialOperator",
    "PartialProjection",
    "identity_on",
    "zero_on",
    "total_identity",
    "total_zero",
    "decompose",
    "projection_of",
    "subspaces_of",
    "op_eq",
    "op_eq_witness",
    "op_neq",
    "o_neq",
    "compose",
    "proj_compl",
    "proj_meet",
    "proj_join",
    "proj_minus",
    "proj_implies",
    "proj_iff",
    "proj_not",
    "proj_leq",
    "proj_orthogonal",
    "pls_add",
    "pls_scale",
    "pls_negate",
    "pls_zero_of",
    "pls_sub",
    "norm_sq_is_one",
    "check_order",
    "commuting_calculus",
    "cor7_calculus",
]


class PartialOperator:
    """A linear map defined on a subspace of the ambient space."""

    __slots__ = ("dom", "images")

    def __init__(self, dom: Subspace, images: Matrix):
        _check_operands(dom, images)
        if (images.nrows, images.ncols, images.field) != (dom.rank, dom.ambient_dim, dom.field):
            raise AmbientMismatch(
                f"{images.nrows}x{images.ncols} {images.field.value} images on a rank"
                f" {dom.rank} {dom.field.value} domain in ambient dimension {dom.ambient_dim}"
            )
        self.dom = dom
        # Row i is the image of the domain's i-th basis row.
        self.images = images

    @classmethod
    def from_matrix(cls, dom: Subspace, matrix: Matrix):
        """The operator on ``dom`` that agrees there with ``matrix``."""
        _check_operands(dom, matrix)
        if matrix.nrows != dom.ambient_dim or matrix.ncols != dom.ambient_dim:
            raise AmbientMismatch(
                f"{matrix.nrows}x{matrix.ncols} matrix on ambient dimension {dom.ambient_dim}"
            )
        if matrix.field is not dom.field:
            raise AmbientMismatch(f"{matrix.field.value} matrix over {dom.field.value} domain")
        return cls(dom, dom.basis @ matrix.transpose())

    @property
    def matrix(self) -> Matrix:
        """The canonical ambient matrix: image i in the column of the
        domain's i-th pivot, zeros elsewhere.  It agrees with the operator
        on the domain; off the domain its values mean nothing."""
        n = self.ambient_dim
        entries = [self.field.zero] * (n * n)
        for i, c in enumerate(self.dom.pivots):
            entries[c::n] = self.images.entries[i * n : (i + 1) * n]
        return Matrix._of(self.field, n, n, entries)

    @property
    def field(self) -> Field:
        return self.dom.field

    @property
    def ambient_dim(self) -> int:
        return self.dom.ambient_dim

    @property
    def is_total(self) -> bool:
        return self.dom.is_full

    def __call__(self, x: Vector) -> Vector:
        if not self.dom.contains(x):
            raise NotInDomain(f"{x!r} is outside the domain")
        return _apply(self, Matrix(self.field, 1, x.dim, x.entries)).row(0)

    def __eq__(self, other):
        # Like ``__hash__``, and unlike ``op_eq``, operators on different
        # ambient spaces compare unequal instead of raising.
        if not isinstance(other, PartialOperator):
            return NotImplemented
        return self.dom == other.dom and self.images == other.images

    def __hash__(self):
        return hash((self.dom, self.images))

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(dom={self.dom!r}, matrix={self.matrix!r})"


class PartialProjection(PartialOperator):
    """A partial operator that is idempotent and self-adjoint on its
    domain and maps the domain into itself.

    It is built from its orthogonal pair, and keeps it: the domain is
    the pair's domain, and each basis row b goes to its orthogonal
    projection onto the one-part, so the zero-part is killed.  When one
    part is zero the images are read off the ranks: the basis itself, or
    zero.  The pair is orthogonal by the time it gets here, checked by
    its public constructor or built so, and nothing is re-checked;
    ``from_matrix`` is where a matrix claims to be a projection."""

    __slots__ = ("pair",)

    def __init__(self, pair: OrthoSubspace):
        dom = pair.dom
        if pair.zero.rank == 0:
            images = dom.basis
        elif pair.one.rank == 0:
            images = Matrix.zero(dom.field, dom.rank, dom.ambient_dim)
        else:
            images = dom.basis @ pair.one.projector.transpose()
        super().__init__(dom, images)
        self.pair = pair

    @classmethod
    def from_matrix(cls, dom: Subspace, matrix: Matrix):
        """The projection on ``dom`` that agrees there with ``matrix``,
        once the images pass the three projection checks; its pair is
        then read off the images, orthogonal by those checks."""
        images = PartialOperator.from_matrix(dom, matrix).images
        # An image in the domain has the coordinates C = images[:, pivots]
        # over its basis, and then C @ images is its image.
        outside, n = dom._first_outside(images), dom.ambient_dim
        twice = _at_pivots(images, dom) @ images
        for j in range(dom.rank):
            if j == outside:
                raise ValueError("projection must map its domain into itself")
            if twice.entries[j * n : (j + 1) * n] != images.entries[j * n : (j + 1) * n]:
                raise ValueError("projection must be idempotent on its domain")
        # S[b][c] = <M b, c>, and <M b, c> = <b, M c> for all b, c iff S = S^H.
        s = images @ dom.basis.conj_transpose()
        if s != s.conj_transpose():
            raise ValueError("projection must be self-adjoint on its domain")
        # p maps its domain onto the fixed part and 1 - p onto the killed
        # part, orthogonal since <Pb, c - Pc> = <Pb, c> - <P²b, c> = 0.
        fixed = Subspace(dom.field, dom.ambient_dim, images)
        killed = Subspace(dom.field, dom.ambient_dim, dom.basis - images)
        return cls(OrthoSubspace._of(fixed, killed))


def _check_operands(*operands) -> None:
    """Refuse, with TypeError, an operand that is no subspace or matrix
    (a float, say) before its shape is read; a field mismatch is left to
    the caller's message."""
    for x in operands:
        _check_field(x, x)


def _at_pivots(rows: Matrix, sub: Subspace) -> Matrix:
    """The columns of ``rows`` at the pivots of ``sub``: the coordinates
    over ``sub.basis`` of each row, when the row lies in ``sub``."""
    entries = [rows.entry(i, c) for i in range(rows.nrows) for c in sub.pivots]
    return Matrix._of(rows.field, rows.nrows, sub.rank, entries)


def _apply(t: PartialOperator, rows: Matrix) -> Matrix:
    """``rows @ t.matrix.transpose()``, read off the images: ``t.matrix``
    holds image i in the column of pivot i and zeros elsewhere, so each
    row's value is its pivot entries times the images."""
    return _at_pivots(rows, t.dom) @ t.images


# --- constructors ------------------------------------------------------

def identity_on(dom: Subspace) -> PartialProjection:
    """The identity as a partial map on ``dom``."""
    return projection_of(OrthoSubspace(dom, Subspace.zero(dom.field, dom.ambient_dim)))


def zero_on(dom: Subspace) -> PartialProjection:
    """The zero map on ``dom`` (distinct from zero maps on other domains)."""
    return projection_of(OrthoSubspace(Subspace.zero(dom.field, dom.ambient_dim), dom))


def total_identity(field: Field, ambient_dim: int) -> PartialProjection:
    return identity_on(Subspace.full(field, ambient_dim))


def total_zero(field: Field, ambient_dim: int) -> PartialProjection:
    return zero_on(Subspace.full(field, ambient_dim))


# --- the correspondence with orthogonal pairs ---------------------------

def decompose(pair: OrthoSubspace, x: Vector) -> tuple[Vector, Vector]:
    """Split x in dom(pair) as l1 + l0 with l1 in the one-part and l0 in
    the zero-part.  The split is unique because the parts are orthogonal."""
    if not pair.dom.contains(x):
        raise NotInDomain(f"{x!r} is outside the decidable domain")
    l1 = pair.one.project(x)
    return l1, x - l1


def projection_of(pair: OrthoSubspace) -> PartialProjection:
    """The partial projection with domain dom(pair) fixing the one-part
    and killing the zero-part.  It keeps the pair, and the pair keeps
    nothing of it, so each call builds the projection anew."""
    return PartialProjection(pair)


def subspaces_of(p: PartialProjection) -> OrthoSubspace:
    """The orthogonal pair of a partial projection: its fixed vectors
    and its kernel inside the domain."""
    return p.pair


# --- equality and apartness ---------------------------------------------

def op_eq(t: PartialOperator, u: PartialOperator) -> bool:
    """Same domain and same values on it (canonical forms make this a
    literal comparison)."""
    t.dom._check_ambient(u.dom)
    return t.dom == u.dom and t.images == u.images


def _first_difference(
    t: PartialOperator, u: PartialOperator, basis: Matrix
) -> Optional[Vector]:
    """The first basis row that ``t`` and ``u`` map to different
    vectors, or None when they agree on the span of ``basis``."""
    tv, uv, n = _apply(t, basis).entries, _apply(u, basis).entries, basis.ncols
    for j in range(basis.nrows):
        if tv[j * n : (j + 1) * n] != uv[j * n : (j + 1) * n]:
            return basis.row(j)
    return None


def op_eq_witness(t: PartialOperator, u: PartialOperator):
    """None when equal; otherwise ("domain", v) for a vector in one
    domain only, or ("value", v) for a common vector mapped differently."""
    t.dom._check_ambient(u.dom)
    if t.dom != u.dom:
        for a, b in ((t.dom, u.dom), (u.dom, t.dom)):
            i = b._first_outside(a.basis)
            if i is not None:
                return ("domain", a.basis.row(i))
    b = _first_difference(t, u, t.dom.basis)
    return None if b is None else ("value", b)


def op_neq(t: PartialOperator, u: PartialOperator) -> tuple[bool, Optional[Vector]]:
    """Witnessed apartness of partial operators.

    True with a nonzero witness x when x is in one domain and orthogonal
    to the other, or in both domains with different images.  This is
    finer than the failure of op_eq: domains that overlap obliquely
    without an orthogonal witness make both op_eq and op_neq false.
    """
    left = t.dom.meet(u.dom.perp())
    if left.is_strict:
        return True, left.basis.row(0)
    right = u.dom.meet(t.dom.perp())
    if right.is_strict:
        return True, right.basis.row(0)
    b = _first_difference(t, u, t.dom.meet(u.dom).basis)
    return b is not None, b


def o_neq(a: OrthoSubspace, b: OrthoSubspace) -> tuple[bool, Optional[Vector]]:
    """Apartness of orthogonal pairs, via their projections."""
    return op_neq(projection_of(a), projection_of(b))


# --- composition ---------------------------------------------------------

def compose(q: PartialOperator, p: PartialOperator) -> PartialOperator:
    """q after p, on the exact domain {x in dom(p) : p(x) in dom(q)}.

    For x = c @ basis, p(x) = c @ images lies in dom(q) exactly when
    c @ residual = 0, with residual = images - images[:, pivots of
    dom(q)] @ basis of dom(q), so the domain is the image of a kernel.
    A total outer domain keeps the inner one: every image lies in it.
    """
    q.dom._check_ambient(p.dom)
    if q.dom.is_full:
        return PartialOperator(p.dom, _apply(q, p.images))
    residual = p.images - _at_pivots(p.images, q.dom) @ q.dom.basis
    ker = null_space(residual.transpose())
    dom = Subspace(p.field, p.ambient_dim, ker @ p.dom.basis)
    return PartialOperator(dom, _apply(q, _apply(p, dom.basis)))


# --- logical operations on projections ------------------------------------

def proj_compl(p: PartialProjection) -> PartialProjection:
    """1 - p with 1 meaning the identity of dom(p): same domain,
    x mapped to x - p(x)."""
    return projection_of(o_neg(p.pair))


def proj_meet(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return projection_of(o_meet(p.pair, q.pair))


def proj_join(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return projection_of(o_join(p.pair, q.pair))


def proj_minus(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return projection_of(o_minus(p.pair, q.pair))


def proj_implies(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return projection_of(o_implies(p.pair, q.pair))


def proj_iff(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return projection_of(o_iff(p.pair, q.pair))


def proj_not(p: PartialProjection) -> PartialProjection:
    return projection_of(o_not(p.pair))


def proj_leq(p: PartialProjection, q: PartialProjection) -> bool:
    return o_leq(p.pair, q.pair)


def proj_orthogonal(p: PartialProjection, q: PartialProjection) -> bool:
    return o_perp(p.pair, q.pair)


# --- partial linear structure ---------------------------------------------

def pls_add(t: PartialOperator, u: PartialOperator) -> PartialOperator:
    """Pointwise sum on the meet of the domains."""
    t.dom._check_ambient(u.dom)
    if t.dom == u.dom:
        return PartialOperator(t.dom, t.images + u.images)
    dom = t.dom.meet(u.dom)
    return PartialOperator(dom, _apply(t, dom.basis) + _apply(u, dom.basis))


def pls_scale(k: Scalar, t: PartialOperator) -> PartialOperator:
    """Pointwise scaling; the domain is kept even when k is zero."""
    return PartialOperator(t.dom, t.images.scaled(k))


def pls_negate(t: PartialOperator) -> PartialOperator:
    return PartialOperator(t.dom, -t.images)


def pls_zero_of(t: PartialOperator) -> PartialOperator:
    """The zero map carried by the domain of t."""
    return PartialOperator(t.dom, Matrix.zero(t.field, t.dom.rank, t.ambient_dim))


def pls_sub(t: PartialOperator, u: PartialOperator) -> PartialOperator:
    return pls_add(t, pls_negate(u))


# --- norm certificate --------------------------------------------------

def norm_sq_is_one(p: PartialProjection) -> bool:
    """Whether the operator norm of p is exactly one.

    True precisely when the fixed space is nonzero; certified from both
    sides: the images span the fixed space, so a nonzero image attains
    the norm, and no vector exceeds it.  For the latter, with the domain
    basis rows B, their images I = B M^T and what the images leave out
    C = B - I, the matrix B B^H - I I^H of the quadratic form
    |x|^2 - |p(x)|^2 over domain coefficients must equal the Gram
    matrix C C^H, which is positive semidefinite.
    """
    basis, images = p.dom.basis, p.images
    missed = basis - images
    form = basis @ basis.conj_transpose() - images @ images.conj_transpose()
    return not images.is_zero and form == missed @ missed.conj_transpose()


# --- clause calculi ---------------------------------------------------

# The clauses each calculus decides, in the order it decides them.
ORDER_CLAUSES = ("lescomp1_i", "lescomp1_iia", "lescomp1_meet", "lescomp1_iiia", "lescomp1_iva")
COMM_CLAUSES = ("comm1_i", "comm1_ii", "comm1_iii", "comm1_iv")
COR7_CLAUSES = ("cor7_i", "cor7_ii", "cor7_iii")


def _spanning_samples(sub: Subspace) -> Matrix:
    # Basis vectors plus pairwise sums, one per row: enough to exercise
    # the inequalities off the coordinate axes of the basis.
    n = sub.ambient_dim
    rows = [sub.basis.entries[i * n : (i + 1) * n] for i in range(sub.rank)]
    rows += [tuple(x + y for x, y in zip(a, b)) for i, a in enumerate(rows) for b in rows[i + 1 :]]
    return Matrix._of(sub.field, len(rows), n, [e for x in rows for e in x])


def _real_or_none(v: Scalar) -> Optional[Fraction]:
    if isinstance(v, GaussianRational):
        return v.re if v.im == 0 else None
    return v


def check_order(l: OrthoSubspace, m: OrthoSubspace) -> dict:
    """Clause-by-clause check of the composite characterization of the
    order on orthogonal pairs, as {clause: (applicable, holds, detail)}.

    The unconditional clause is the biconditional: l <= m exactly when
    projecting into m after projecting into l changes nothing, and dually
    for the zero-parts.  The remaining clauses assume l <= m; otherwise
    they come back as hypothesis-not-met (applicable False, holds True).
    """
    p_l1 = projection_of(l)
    p_l0 = proj_compl(p_l1)
    p_m1 = projection_of(m)
    p_m0 = proj_compl(p_m1)
    ordered = o_leq(l, m)

    composites = op_eq(compose(p_m1, p_l1), p_l1) and op_eq(compose(p_l0, p_m0), p_m0)
    detail = ""
    if ordered != composites:
        w1 = op_eq_witness(compose(p_m1, p_l1), p_l1)
        w0 = op_eq_witness(compose(p_l0, p_m0), p_m0)
        detail = f"order={ordered} composites={composites} witness_one={w1} witness_zero={w0}"
    clauses = {"lescomp1_i": (True, ordered == composites, detail)}

    if not ordered:
        for clause in ORDER_CLAUSES[1:]:
            clauses[clause] = (False, True, "pairs are not ordered")
        return clauses

    meet = l.dom.meet(m.dom)

    c1 = compose(p_l1, p_m1)
    c0 = compose(p_m0, p_l0)
    doms_ok = c1.dom == meet and c0.dom == meet
    values_ok = (
        _first_difference(c1, p_l1, meet.basis) is None
        and _first_difference(c0, p_m0, meet.basis) is None
    )
    clauses["lescomp1_iia"] = (
        True,
        doms_ok and values_ok,
        f"domains_match={doms_ok} values_match={values_ok}",
    )

    middle = l.zero.meet(m.one)
    parts = (l.one, middle, m.zero)
    split_ok = (l.one.join(middle).join(m.zero) == meet) and all(
        perp_rel(a, b) for a, b in ((parts[0], parts[1]), (parts[0], parts[2]), (parts[1], parts[2]))
    )
    clauses["lescomp1_meet"] = (True, split_ok, "")

    samples = _spanning_samples(meet)
    # Per sample x: (p_l1(x), p_m1(x), p_m0(x), p_l0(x)).
    values = list(zip(*(_apply(t, samples).rows() for t in (p_l1, p_m1, p_m0, p_l0))))
    norm_ok = True
    norm_detail = ""
    for x, (l1, m1, m0, l0) in zip(samples.rows(), values):
        up = norm_sq(l1) <= norm_sq(m1)
        down = norm_sq(m0) <= norm_sq(l0)
        if not (up and down):
            norm_ok = False
            norm_detail = f"sample {x!r}"
            break
    clauses["lescomp1_iiia"] = (True, norm_ok, norm_detail)

    inner_ok = True
    inner_detail = ""
    for x, images in zip(samples.rows(), values):
        vals = [_real_or_none(inner(y, x)) for y in images]
        if any(v is None for v in vals) or not (vals[0] <= vals[1] and vals[2] <= vals[3]):
            inner_ok = False
            inner_detail = f"sample {x!r}"
            break
    clauses["lescomp1_iva"] = (True, inner_ok, inner_detail)
    return clauses


def _raw_sum_covers(a: Subspace, b: Subspace) -> bool:
    """Whether {x + y : x in a, y in b} already fills the join of a and b."""
    joined = a.join(b)
    if a.is_zero and b.is_zero:
        return joined.is_zero
    x, _ = _solve_block(_stacked(a.basis, b.basis), joined.basis.transpose())
    return x is not None


def commuting_calculus(p: PartialProjection, q: PartialProjection) -> dict:
    """The composite calculus of two commuting projections, as
    {clause: (applicable, holds, detail)}.

    Every clause assumes that p and q commute.  When the composites
    differ, all four clauses come back as hypothesis-not-met, and their
    detail names the ``op_eq_witness`` of the two composites.
    """
    qp = compose(q, p)
    pq = compose(p, q)
    if not op_eq(qp, pq):
        detail = f"the composites differ: witness={op_eq_witness(pq, qp)}"
        return {c: (False, True, detail) for c in COMM_CLAUSES}
    jp, jq = p.pair, q.pair

    meet_part = jp.one.meet(jq.one)
    join_part = jp.zero.join(jq.zero)
    dom_ok = pq.dom == meet_part.join(join_part) and perp_rel(meet_part, join_part)
    clauses = {
        "comm1_i": (True, dom_ok, ""),
        "comm1_ii": (True, _raw_sum_covers(jp.zero, jq.zero), ""),
        "comm1_iii": (True, op_eq(proj_meet(p, q), qp), ""),
    }

    cp = proj_compl(p)
    cq = proj_compl(q)
    if compose(cq, cp).dom != compose(cp, cq).dom:
        clauses["comm1_iv"] = (False, True, "complement composites have different domains")
    else:
        join_proj = proj_join(p, q)
        rhs = pls_sub(pls_add(p, q), qp)
        common = join_proj.dom.meet(rhs.dom)
        pointwise = _first_difference(join_proj, rhs, common.basis) is None
        ones_raw = _raw_sum_covers(jp.one, jq.one)
        clauses["comm1_iv"] = (
            True,
            pointwise and ones_raw,
            f"pointwise={pointwise} one_parts_raw_sum={ones_raw}",
        )
    return clauses


def cor7_calculus(l: OrthoSubspace, m: OrthoSubspace) -> dict:
    """Consequences of joining total pairs with l below the complement
    of m, as {clause: (applicable, holds, detail)}: the one-parts sum
    without closure, the projections compose to the total zero map, and
    the projection of the join is the sum of the projections."""
    l.one._check_ambient(m.one)
    if not (l.is_total and m.is_total and o_perp(l, m)):
        detail = "pairs are not total and orthogonal"
        return {c: (False, True, detail) for c in COR7_CLAUSES}
    p_l = projection_of(l)
    p_m = projection_of(m)
    return {
        "cor7_i": (True, _raw_sum_covers(l.one, m.one), ""),
        "cor7_ii": (True, op_eq(compose(p_l, p_m), total_zero(l.field, l.ambient_dim)), ""),
        "cor7_iii": (True, op_eq(projection_of(o_join(l, m)), pls_add(p_l, p_m)), ""),
    }
