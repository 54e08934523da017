"""Partial linear operators and partial projections.

An operator acts only on the vectors of its domain subspace; values
elsewhere are deliberately meaningless.  It is stored as its domain and
the images of the domain's canonical (RREF) basis rows, which fix it
and nothing else, so equality of operators is literal equality of
(domain, images) pairs.  Building, comparing and composing operators
needs no orthogonal projector onto a domain: y lies in the domain
exactly when ``y == y[pivots] @ basis``.  Every partial projection is
validated in full when it is built.

Projections defined on a domain that splits as (fixed part) + (killed
part) correspond exactly to orthogonal pairs of subspaces; the maps
``projection_of`` and ``subspaces_of`` realize the two directions of
that correspondence, and the logical operations on projections are
routed through it.  ``subspaces_of`` reads the pair off images, with
no kernel computed: a validated projection maps its domain onto its
fixed part, and ``1 - p`` maps it onto the killed part, so the images
of the basis rows span the one and what they leave out, basis row minus
image, spans the other.  The calculus of composites for ordered
pairs and for commuting projections is checked clause by clause: each
calculus returns a plain map {clause: (applicable, holds, detail)}, in
which a clause whose hypothesis is not met has applicable False, and
``laws`` tallies those maps into law reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from orthoql.errors import AmbientMismatch, NotInDomain
from orthoql.linalg import Matrix, Vector, inner, norm_sq, null_space, solve
from orthoql.ortho import OrthoSubspace, o_join, o_leq, o_meet, o_neg
from orthoql.scalars import Field, GaussianRational, Scalar
from orthoql.subspace import Subspace, perp_rel

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

    def __init__(self, dom: Subspace, matrix: Matrix):
        if matrix.nrows != dom.ambient_dim or matrix.ncols != dom.ambient_dim:
            raise AmbientMismatch(
                f"{matrix.nrows}x{matrix.ncols} matrix on ambient dimension {dom.ambient_dim}"
            )
        if matrix.field is not dom.field:
            raise AmbientMismatch(f"{matrix.field.value} matrix over {dom.field.value} domain")
        self.dom = dom
        # Row i is the image of the domain's i-th basis row.
        self.images = dom.basis @ matrix.transpose()

    @property
    def matrix(self) -> Matrix:
        """The canonical ambient matrix: image i in the column of the
        domain's i-th pivot, zeros elsewhere.  It agrees with the operator
        on the domain; off the domain its values mean nothing."""
        n = self.ambient_dim
        entries = [self.field.zero] * (n * n)
        for i, c in enumerate(self.dom.pivots):
            entries[c::n] = self.images.entries[i * n : (i + 1) * n]
        return Matrix(self.field, n, n, entries)

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
        return self.matrix @ x

    def __eq__(self, other):
        if not isinstance(other, PartialOperator):
            return NotImplemented
        return op_eq(self, other)

    def __hash__(self):
        return hash((self.dom, self.images))

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(dom={self.dom!r}, matrix={self.matrix!r})"


class PartialProjection(PartialOperator):
    """A partial operator that is idempotent and self-adjoint on its
    domain and maps the domain into itself."""

    def __init__(self, dom: Subspace, matrix: Matrix):
        super().__init__(dom, matrix)
        images = self.images
        # With C = images[:, pivots], C @ basis is what each image would
        # be if it lay in the domain, and then C @ images is its image.
        coords = _at_pivots(images, dom)
        kept, twice = coords @ dom.basis, coords @ images
        for j in range(dom.rank):
            if kept.row(j) != images.row(j):
                raise ValueError("projection must map its domain into itself")
            if twice.row(j) != images.row(j):
                raise ValueError("projection must be idempotent on its domain")
        # S[b][c] = <M b, c>, and <M b, c> = <b, M c> for all b, c iff S = S^H.
        s = images @ dom.basis.conj_transpose()
        if s != s.conj_transpose():
            raise ValueError("projection must be self-adjoint on its domain")


def _at_pivots(rows: Matrix, sub: Subspace) -> Matrix:
    """The columns of ``rows`` at the pivots of ``sub``: the coordinates
    over ``sub.basis`` of each row, when the row lies in ``sub``."""
    entries = [rows.entry(i, c) for i in range(rows.nrows) for c in sub.pivots]
    return Matrix(rows.field, rows.nrows, sub.rank, entries)


# --- constructors ------------------------------------------------------

def identity_on(dom: Subspace) -> PartialProjection:
    """The identity as a partial map on ``dom``."""
    return PartialProjection(dom, Matrix.identity(dom.field, dom.ambient_dim))


def zero_on(dom: Subspace) -> PartialProjection:
    """The zero map on ``dom`` (distinct from zero maps on other domains)."""
    n = dom.ambient_dim
    return PartialProjection(dom, Matrix.zero(dom.field, n, n))


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
    and killing the zero-part."""
    return PartialProjection(pair.dom, pair.one.projector)


def subspaces_of(p: PartialProjection) -> OrthoSubspace:
    """Recover the orthogonal pair of a partial projection: the fixed
    vectors and the kernel inside the domain, spanned by the images
    ``p(b)`` of the domain's basis rows and by ``b - p(b)``."""
    n, fixed, killed = p.ambient_dim, p.images, p.dom.basis - p.images
    return OrthoSubspace(Subspace(p.field, n, fixed.rows()), Subspace(p.field, n, killed.rows()))


# --- equality and apartness ---------------------------------------------

def op_eq(t: PartialOperator, u: PartialOperator) -> bool:
    """Same domain and same values on it (canonical forms make this a
    literal comparison)."""
    t.dom._check_ambient(u.dom)
    return t.dom == u.dom and t.images == u.images


def _first_difference(a: Matrix, b: Matrix, basis: Matrix) -> Optional[Vector]:
    """The first basis row that ``a`` and ``b`` map to different
    vectors, or None when they agree on the span of ``basis``."""
    gaps = (a - b) @ basis.transpose()
    r = basis.nrows
    for j in range(r):
        if any(gaps.entries[j::r]):
            return basis.row(j)
    return None


def op_eq_witness(t: PartialOperator, u: PartialOperator):
    """None when equal; otherwise ("domain", v) for a vector in one
    domain only, or ("value", v) for a common vector mapped differently."""
    t.dom._check_ambient(u.dom)
    if t.dom != u.dom:
        for b in t.dom.basis.rows():
            if not u.dom.contains(b):
                return ("domain", b)
        for b in u.dom.basis.rows():
            if not t.dom.contains(b):
                return ("domain", b)
    b = _first_difference(t.matrix, u.matrix, t.dom.basis)
    return None if b is None else ("value", b)


def op_neq(t: PartialOperator, u: PartialOperator) -> tuple[bool, Optional[Vector]]:
    """Witnessed apartness of partial operators.

    True with a nonzero witness x when x is in one domain and orthogonal
    to the other, or in both domains with different images.  This is
    finer than the failure of op_eq: domains that overlap obliquely
    without an orthogonal witness make both op_eq and op_neq false.
    """
    t.dom._check_ambient(u.dom)
    left = t.dom.meet(u.dom.perp())
    if left.is_strict:
        return True, left.basis.row(0)
    right = u.dom.meet(t.dom.perp())
    if right.is_strict:
        return True, right.basis.row(0)
    b = _first_difference(t.matrix, u.matrix, t.dom.meet(u.dom).basis)
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
    """
    q.dom._check_ambient(p.dom)
    residual = p.images - _at_pivots(p.images, q.dom) @ q.dom.basis
    ker = null_space(residual.transpose())
    dom = Subspace(p.field, p.ambient_dim, (ker.transpose() @ p.dom.basis).rows())
    return PartialOperator(dom, q.matrix @ p.matrix)


# --- logical operations on projections ------------------------------------

def proj_compl(p: PartialProjection) -> PartialProjection:
    """1 - p with 1 meaning the identity of dom(p): same domain,
    x mapped to x - p(x)."""
    return PartialProjection(p.dom, Matrix.identity(p.field, p.ambient_dim) - p.matrix)


def proj_meet(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return projection_of(o_meet(subspaces_of(p), subspaces_of(q)))


def proj_join(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return projection_of(o_join(subspaces_of(p), subspaces_of(q)))


def proj_minus(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return proj_meet(p, proj_compl(q))


def proj_implies(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return proj_join(proj_compl(p), q)


def proj_iff(p: PartialProjection, q: PartialProjection) -> PartialProjection:
    return proj_meet(proj_implies(p, q), proj_implies(q, p))


def proj_not(p: PartialProjection) -> PartialProjection:
    return proj_implies(p, total_zero(p.field, p.ambient_dim))


def proj_leq(p: PartialProjection, q: PartialProjection) -> bool:
    return o_leq(subspaces_of(p), subspaces_of(q))


def proj_orthogonal(p: PartialProjection, q: PartialProjection) -> bool:
    return proj_leq(p, proj_compl(q))


# --- partial linear structure ---------------------------------------------

def pls_add(t: PartialOperator, u: PartialOperator) -> PartialOperator:
    """Pointwise sum on the meet of the domains."""
    t.dom._check_ambient(u.dom)
    dom = t.dom if t.dom == u.dom else t.dom.meet(u.dom)
    return PartialOperator(dom, t.matrix + u.matrix)


def pls_scale(k: Scalar, t: PartialOperator) -> PartialOperator:
    """Pointwise scaling; the domain is kept even when k is zero."""
    return PartialOperator(t.dom, t.matrix.scaled(k))


def pls_negate(t: PartialOperator) -> PartialOperator:
    return PartialOperator(t.dom, -t.matrix)


def pls_zero_of(t: PartialOperator) -> PartialOperator:
    """The zero map carried by the domain of t."""
    return zero_on(t.dom)


def pls_sub(t: PartialOperator, u: PartialOperator) -> PartialOperator:
    return pls_add(t, pls_negate(u))


# --- norm certificate --------------------------------------------------

def norm_sq_is_one(p: PartialProjection) -> bool:
    """Whether the operator norm of p is exactly one.

    True precisely when the fixed space is nonzero; certified from both
    sides: a nonzero fixed vector attains the norm, and no vector
    exceeds it.  For the latter, with the domain basis rows B, their
    images I = B M^T and what the images leave out C = B - I, the
    matrix B B^H - I I^H of the quadratic form |x|^2 - |p(x)|^2 over
    domain coefficients must equal the Gram matrix C C^H, which is
    positive semidefinite.
    """
    one = subspaces_of(p).one
    if one.is_strict:
        l = one.basis.row(0)
        attained = (p.matrix @ l == l) and not l.is_zero
    else:
        attained = False
    basis, images = p.dom.basis, p.images
    missed = basis - images
    form = basis @ basis.conj_transpose() - images @ images.conj_transpose()
    bounded = form == missed @ missed.conj_transpose()
    return one.is_strict and attained and bounded


# --- clause calculi ---------------------------------------------------

# The clauses each calculus decides, in the order it decides them.
ORDER_CLAUSES = ("lescomp1_i", "lescomp1_iia", "lescomp1_meet", "lescomp1_iiia", "lescomp1_iva")
COMM_CLAUSES = ("comm1_i", "comm1_ii", "comm1_iii", "comm1_iv")
COR7_CLAUSES = ("cor7_i", "cor7_ii", "cor7_iii")


def _spanning_samples(sub: Subspace) -> list[Vector]:
    # Basis vectors plus pairwise sums: enough to exercise the
    # inequalities off the coordinate axes of the basis.
    basis = sub.basis.rows()
    samples = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            samples.append(basis[i] + basis[j])
    return samples


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
    l.one._check_ambient(m.one)
    p_l1 = projection_of(l)
    p_l0 = projection_of(o_neg(l))
    p_m1 = projection_of(m)
    p_m0 = projection_of(o_neg(m))
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
        _first_difference(c1.matrix, p_l1.matrix, meet.basis) is None
        and _first_difference(c0.matrix, p_m0.matrix, meet.basis) is None
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
    m_l1, m_m1, m_m0, m_l0 = (t.matrix for t in (p_l1, p_m1, p_m0, p_l0))
    norm_ok = True
    norm_detail = ""
    for x in samples:
        up = norm_sq(m_l1 @ x) <= norm_sq(m_m1 @ x)
        down = norm_sq(m_m0 @ x) <= norm_sq(m_l0 @ x)
        if not (up and down):
            norm_ok = False
            norm_detail = f"sample {x!r}"
            break
    clauses["lescomp1_iiia"] = (True, norm_ok, norm_detail)

    inner_ok = True
    inner_detail = ""
    for x in samples:
        vals = [
            _real_or_none(inner(m_l1 @ x, x)),
            _real_or_none(inner(m_m1 @ x, x)),
            _real_or_none(inner(m_m0 @ x, x)),
            _real_or_none(inner(m_l0 @ x, x)),
        ]
        if any(v is None for v in vals) or not (vals[0] <= vals[1] and vals[2] <= vals[3]):
            inner_ok = False
            inner_detail = f"sample {x!r}"
            break
    clauses["lescomp1_iva"] = (True, inner_ok, inner_detail)
    return clauses


def _raw_sum_covers(a: Subspace, b: Subspace) -> bool:
    """Whether {x + y : x in a, y in b} already fills the join of a and b."""
    joined = a.join(b)
    cols = [list(r) for r in a.basis.rows()] + [list(r) for r in b.basis.rows()]
    if not cols:
        return joined.is_zero
    stacked = Matrix.from_cols(a.field, cols)
    return all(solve(stacked, v) is not None for v in joined.basis.rows())


def commuting_calculus(p: PartialProjection, q: PartialProjection) -> dict:
    """The composite calculus of two commuting projections, as
    {clause: (applicable, holds, detail)}.

    Every clause assumes that p and q commute.  When the composites
    differ, all four clauses come back as hypothesis-not-met, and their
    detail names the ``op_eq_witness`` of the two composites.
    """
    p.dom._check_ambient(q.dom)
    qp = compose(q, p)
    pq = compose(p, q)
    if not op_eq(qp, pq):
        detail = f"the composites differ: witness={op_eq_witness(pq, qp)}"
        return {c: (False, True, detail) for c in COMM_CLAUSES}
    jp = subspaces_of(p)
    jq = subspaces_of(q)

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
        pointwise = _first_difference(join_proj.matrix, rhs.matrix, common.basis) is None
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
    if not (l.is_total and m.is_total and o_leq(l, o_neg(m))):
        detail = "pairs are not total and orthogonal"
        return {c: (False, True, detail) for c in COR7_CLAUSES}
    p_l = projection_of(l)
    p_m = projection_of(m)
    return {
        "cor7_i": (True, _raw_sum_covers(l.one, m.one), ""),
        "cor7_ii": (True, op_eq(compose(p_l, p_m), total_zero(l.field, l.ambient_dim)), ""),
        "cor7_iii": (True, op_eq(projection_of(o_join(l, m)), pls_add(p_l, p_m)), ""),
    }
