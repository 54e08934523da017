"""Partial linear operators and partial projections.

An operator acts only on the vectors of its domain subspace; values
elsewhere are deliberately meaningless.  It is built from its domain
and the images of the domain's canonical (RREF) basis rows:
``PartialOperator(dom, images)``, images a rank x n matrix.  An ambient
n x n matrix M enters only through ``from_matrix``, as ``basis @ M^T``.
The images are stored as one integer matrix over one denominator,
``(den, nums)``: a positive int and a flat tuple of int numerators,
real and imaginary parts side by side over Q(i), as in ``rref_gauss``
rows.  The forms and the integer products on them come from
``linalg`` (``_form``, ``_scalars``, ``_rows``, ``_columns`` and
``_products``), the one place where scalars become ints and back, and
the integer form of a domain basis is the one its ``Subspace`` keeps,
cleared once per space.  The
form is kept primitive (``gcd(den, *nums) == 1``), which makes it
unique per operator, so equality is literal equality of (domain, den,
nums) and compares ints.  ``images`` and ``matrix`` are
built from the form on each read, for the readers at the boundary.
No projector onto a domain is needed: y lies in the domain exactly
when ``y == y[pivots] @ basis``, and rows go to ``rows[:, pivots] @
images``, which is ``rows @ matrix^T`` exactly, for any rows, in the
domain or not.  So the partial linear structure, composition and the
order calculus's sample values act on the integer forms alone, and
the private ``PartialOperator._of`` stores each result with its gcd
divided out once, and with no division pass when that gcd is already 1.

Projections defined on a domain that splits as (fixed part) + (killed
part) correspond exactly to orthogonal pairs of subspaces, and a
``PartialProjection`` is built from its pair and keeps it:
``PartialProjection(pair)`` takes the images of the pair's domain
basis under the one-part's orthogonal projection, with no projector
built: for the one-part's integer rows O, the images of the domain
basis D are ``(D Oᴴ) X``, from ``Subspace._projection`` of the
one-part, which solves ``X = (O Oᴴ)⁻¹ O`` once per subspace and keeps
it, all on ints.  ``projection_of`` is that constructor, and
``subspaces_of``, its inverse in the library's API (no command calls
it), reads the stored pair.  The pair keeps nothing of
its projection, so no reference cycle ties the two together and each
``projection_of`` call builds one projection.
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

from math import gcd
from operator import add, mul
from typing import Optional, Sequence

from orthoql.errors import AmbientMismatch, NotInDomain
from orthoql.linalg import Matrix, Vector, _check_field, _columns, _form, _products, _rows
from orthoql.linalg import _scalars, _width, null_space, rref
from orthoql.ortho import OrthoSubspace, o_iff, o_implies, o_join, o_leq, o_meet, o_minus
from orthoql.ortho import o_neg, o_not, o_perp
from orthoql.scalars import Field, Scalar
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
    """A linear map defined on a subspace of the ambient space.

    Its images are held as one integer matrix over one denominator:
    image entry k is ``nums[k] / den`` over Q, and ``(nums[2k] +
    nums[2k+1] i) / den`` over Q(i), row-major, row i the image of the
    domain's i-th basis row.  The form is primitive, ``den > 0`` and
    ``gcd(den, *nums) == 1``, so it is unique per operator value.
    ``images`` and ``matrix`` are built from it on each read."""

    __slots__ = ("dom", "den", "nums")

    def __init__(self, dom: Subspace, images: Matrix):
        _check_operands(dom, images)
        if (images.nrows, images.ncols, images.field) != (dom.rank, dom.ambient_dim, dom.field):
            raise AmbientMismatch(
                f"{images.nrows}x{images.ncols} {images.field.value} images on a rank"
                f" {dom.rank} {dom.field.value} domain in ambient dimension {dom.ambient_dim}"
            )
        self.dom = dom
        # Entries in lowest terms over their least common denominator
        # leave the form primitive: a prime of the denominator divides
        # no numerator of an entry where it reaches its highest power.
        den, nums = _form(dom.field, images.entries)
        self.den, self.nums = den, tuple(nums)

    @classmethod
    def _of(cls, dom: Subspace, den: int, nums: Sequence[int]) -> "PartialOperator":
        """The operator on ``dom`` whose images are ``nums / den``, exact
        ints with ``den > 0`` laid out as the stored form, which is
        stored with their gcd divided out and no check."""
        t = object.__new__(cls)
        g = gcd(den, *nums)
        if g == 1:
            t.dom, t.den, t.nums = dom, den, tuple(nums)
        else:
            t.dom, t.den, t.nums = dom, den // g, tuple(x // g for x in nums)
        return t

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
    def images(self) -> Matrix:
        """The rank x n matrix of images, row i that of the domain's
        i-th basis row, built from the integer form."""
        entries = _scalars(self.field, self.den, self.nums)
        return Matrix._of(self.field, self.dom.rank, self.ambient_dim, entries)

    @property
    def matrix(self) -> Matrix:
        """The canonical ambient matrix: image i in the column of the
        domain's i-th pivot, zeros elsewhere.  It agrees with the operator
        on the domain; off the domain its values mean nothing."""
        n, images = self.ambient_dim, self.images.entries
        entries = [self.field.zero] * (n * n)
        for i, c in enumerate(self.dom.pivots):
            entries[c::n] = images[i * n : (i + 1) * n]
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
        den, nums = _apply(self, _form(self.field, x.entries))
        return Vector._of(self.field, _scalars(self.field, den, nums))

    def __eq__(self, other):
        # Like ``__hash__``, and unlike ``op_eq``, operators on different
        # ambient spaces compare unequal instead of raising.
        if not isinstance(other, PartialOperator):
            return NotImplemented
        return self.dom == other.dom and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.dom, self.den, self.nums))

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(dom={self.dom!r}, matrix={self.matrix!r})"


class PartialProjection(PartialOperator):
    """A partial operator that is idempotent and self-adjoint on its
    domain and maps the domain into itself.

    It is built from its orthogonal pair, and keeps it: the domain is
    the pair's domain, and each basis row b goes to its orthogonal
    projection onto the one-part, so the zero-part is killed, taken on
    integer forms with no projector built.  When one part is zero the
    images are read off the ranks: the basis itself, or zero.  The pair
    is orthogonal by the time it gets here, checked by its public
    constructor or built so, and nothing is re-checked;
    ``from_matrix`` is where a matrix claims to be a projection."""

    __slots__ = ("pair",)

    def __init__(self, pair: OrthoSubspace):
        dom = pair.dom
        if pair.zero.is_zero:
            # The domain is the one-part, so each basis row is its own image.
            den, nums = dom._basis_form
        else:
            den, nums = pair.one._projection(dom._basis_form)
        form = PartialOperator._of(dom, den, nums)
        self.dom, self.den, self.nums, self.pair = dom, form.den, form.nums, pair

    @classmethod
    def from_matrix(cls, dom: Subspace, matrix: Matrix):
        """The projection on ``dom`` that agrees there with ``matrix``,
        once the images pass the three projection checks; its pair is
        then read off the images, orthogonal by those checks."""
        t = PartialOperator.from_matrix(dom, matrix)
        images = t.images
        # An image in the domain has the coordinates images[:, pivots] over
        # its basis, and then t maps it to those coordinates times the
        # images: ``_apply`` of the images, over t.den squared.
        outside, w = dom._first_outside(images), _width(dom.field) * dom.ambient_dim
        _, twice = _apply(t, (t.den, t.nums))
        for j in range(dom.rank):
            if j == outside:
                raise ValueError("projection must map its domain into itself")
            once = t.nums[j * w : (j + 1) * w]
            if any(x != y * t.den for x, y in zip(twice[j * w : (j + 1) * w], once)):
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


# --- values on integer forms ------------------------------------------------

def _times(
    field: Field, n: int, rows: Sequence[int], pivots: Sequence[int], images: Sequence[int]
) -> list[int]:
    """The numerators of ``rows[:, pivots] @ images`` in integer
    arithmetic, for rows and images of width ``n`` and one image per pivot."""
    return _products(field, _rows(field, rows, n, pivots), _columns(field, images, n))


def _apply(t: PartialOperator, rows: tuple[int, Sequence[int]]) -> tuple[int, list[int]]:
    """The values of ``t`` at the rows of the integer form ``rows``, as
    an integer form over ``rows``' denominator times ``t.den``: each
    row's entries at the domain's pivots times the images, which is
    ``rows @ t.matrix.transpose()``, for any rows, in the domain or not."""
    den, nums = rows
    return den * t.den, _times(t.field, t.ambient_dim, nums, t.dom.pivots, t.nums)


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
    return t.dom == u.dom and t.den == u.den and t.nums == u.nums


def _first_difference(t: PartialOperator, u: PartialOperator, sub: Subspace) -> Optional[Vector]:
    """The first basis row of ``sub`` that ``t`` and ``u`` map to
    different vectors, or None when they agree on ``sub``."""
    rows = sub._basis_form
    (_, tv), (_, uv) = _apply(t, rows), _apply(u, rows)
    # Both values share the rows' denominator: compare tv / t.den with uv / u.den.
    dt, du, w = t.den, u.den, _width(sub.field) * sub.ambient_dim
    for j in range(sub.rank):
        if any(x * du != y * dt for x, y in zip(tv[j * w : (j + 1) * w], uv[j * w : (j + 1) * w])):
            return sub.basis.row(j)
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
    b = _first_difference(t, u, t.dom)
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
    b = _first_difference(t, u, t.dom.meet(u.dom))
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
    When the residual is zero, as under a total outer domain, every
    image lies in dom(q) and the inner domain is kept.
    """
    q.dom._check_ambient(p.dom)
    field, n = p.field, p.ambient_dim
    if not q.dom.is_full:
        # In integers: the images are p.nums / p.den and dom(q)'s basis is
        # basis / db, so the residual is this integer matrix over p.den * db,
        # and a positive multiple of it has the same kernel.
        db, basis = q.dom._basis_form
        inside = _times(field, n, p.nums, q.dom.pivots, basis)
        residual = [x * db - y for x, y in zip(p.nums, inside)]
        if any(residual):
            rows = Matrix._of(field, p.dom.rank, n, _scalars(field, 1, residual))
            dom = Subspace(field, n, null_space(rows.transpose()) @ p.dom.basis)
            return PartialOperator._of(dom, *_apply(q, _apply(p, dom._basis_form)))
    return PartialOperator._of(p.dom, *_apply(q, (p.den, p.nums)))


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
        dom, (dt, tv), (du, uv) = t.dom, (t.den, t.nums), (u.den, u.nums)
    else:
        dom = t.dom.meet(u.dom)
        (dt, tv), (du, uv) = _apply(t, dom._basis_form), _apply(u, dom._basis_form)
    return PartialOperator._of(dom, dt * du, [x * du + y * dt for x, y in zip(tv, uv)])


def pls_scale(k: Scalar, t: PartialOperator) -> PartialOperator:
    """Pointwise scaling; the domain is kept even when k is zero."""
    field = t.field
    dk, ks = _form(field, [field.coerce(k)])
    if field is Field.Q:
        nums = [ks[0] * x for x in t.nums]
    else:
        # (x + y i)(a + b i) = (ax - by) + (ay + bx) i, over dk times the denominator.
        (a, b), nums = ks, [0] * len(t.nums)
        xs, ys = t.nums[0::2], t.nums[1::2]
        nums[0::2] = [a * x - b * y for x, y in zip(xs, ys)]
        nums[1::2] = [a * y + b * x for x, y in zip(xs, ys)]
    return PartialOperator._of(t.dom, t.den * dk, nums)


def pls_negate(t: PartialOperator) -> PartialOperator:
    return PartialOperator._of(t.dom, t.den, [-x for x in t.nums])


def pls_zero_of(t: PartialOperator) -> PartialOperator:
    """The zero map carried by the domain of t."""
    return PartialOperator._of(t.dom, 1, (0,) * len(t.nums))


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
    return any(p.nums) and form == missed @ missed.conj_transpose()


# --- clause calculi ---------------------------------------------------

# The clauses each calculus decides, in the order it decides them.
ORDER_CLAUSES = ("lescomp1_i", "lescomp1_iia", "lescomp1_meet", "lescomp1_iiia", "lescomp1_iva")
COMM_CLAUSES = ("comm1_i", "comm1_ii", "comm1_iii", "comm1_iv")
COR7_CLAUSES = ("cor7_i", "cor7_ii", "cor7_iii")


def _spanning_samples(sub: Subspace) -> tuple[int, list]:
    """The integer rows of the basis vectors plus their pairwise sums,
    over the basis denominator: enough to exercise the inequalities off
    the coordinate axes of the basis."""
    den, nums = sub._basis_form
    w = _width(sub.field) * sub.ambient_dim
    rows = [nums[i * w : (i + 1) * w] for i in range(sub.rank)]
    rows += [tuple(map(add, a, b)) for i, a in enumerate(rows) for b in rows[i + 1 :]]
    return den, rows


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
        _first_difference(c1, p_l1, meet) is None
        and _first_difference(c0, p_m0, meet) is None
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

    ds, samples = _spanning_samples(meet)
    ops = (p_l1, p_m1, p_m0, p_l0)
    xs = [x for row in samples for x in row]
    values = [_apply(t, (ds, xs))[1] for t in ops]
    dl1, dm1, dm0, dl0 = (t.den for t in ops)
    # Sample j is x / ds for its integer row x, and t maps it to
    # v / (ds * t.den) for its integer row v.  So |t(x)|^2 is v.v over
    # (ds * t.den)^2 and Re <t(x), x> is v.x over ds^2 * t.den, both for
    # interleaved Q(i) rows too; the comparisons cross-multiply the dens.
    w = _width(meet.field) * meet.ambient_dim
    per_sample = [(x, [v[j * w : (j + 1) * w] for v in values]) for j, x in enumerate(samples)]

    def sample(x) -> str:
        return f"sample {Vector._of(meet.field, _scalars(meet.field, ds, x))!r}"

    norm_ok = True
    norm_detail = ""
    for x, vs in per_sample:
        l1, m1, m0, l0 = (sum(map(mul, v, v)) for v in vs)
        up = l1 * dm1 * dm1 <= m1 * dl1 * dl1
        down = m0 * dl0 * dl0 <= l0 * dm0 * dm0
        if not (up and down):
            norm_ok = False
            norm_detail = sample(x)
            break
    clauses["lescomp1_iiia"] = (True, norm_ok, norm_detail)

    inner_ok = True
    inner_detail = ""
    for x, vs in per_sample:
        l1, m1, m0, l0 = (sum(map(mul, v, x)) for v in vs)
        # Im <t(x), x> is v_im . x_re - v_re . x_im over Q(i).
        real = meet.field is Field.Q or all(
            sum(map(mul, v[1::2], x[0::2])) == sum(map(mul, v[0::2], x[1::2])) for v in vs
        )
        if not (real and l1 * dm1 <= m1 * dl1 and m0 * dl0 <= l0 * dm0):
            inner_ok = False
            inner_detail = sample(x)
            break
    clauses["lescomp1_iva"] = (True, inner_ok, inner_detail)
    return clauses


def _raw_sum_covers(a: Subspace, b: Subspace) -> bool:
    """Whether {x + y : x in a, y in b} already fills the join of a and b:
    one ``rref`` of ``[aᵀ | bᵀ | joinᵀ]``, with no pivot in the join's block."""
    joined = a.join(b)
    k, n = a.rank + b.rank, a.ambient_dim
    rows = a.basis.entries + b.basis.entries + joined.basis.entries
    pivots = rref(Matrix._of(a.field, k + joined.rank, n, rows).transpose())[1]
    return all(c < k for c in pivots)


def commuting_calculus(p: PartialProjection, q: PartialProjection) -> dict:
    """The composite calculus of two commuting projections, as
    {clause: (applicable, holds, detail)}.

    Every clause assumes that p and q commute.  When the composites
    differ, all four clauses come back as hypothesis-not-met, and their
    detail is a zero-argument callable that names the ``op_eq_witness``
    of the two composites: a verdict whose hypothesis is not met is
    never reported, so the witness is found only if it is asked for.
    """
    qp = compose(q, p)
    pq = compose(p, q)
    if not op_eq(qp, pq):

        def detail():
            return f"the composites differ: witness={op_eq_witness(pq, qp)}"

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
        pointwise = _first_difference(join_proj, rhs, common) is None
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
