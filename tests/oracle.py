"""Brute-force reference implementation used to cross-check the library.

Everything in this file unfolds definitions directly: textbook Gaussian
elimination over exact complex-rational pairs, membership by rank
comparison, intersection via the kernel/row-space duality of the plain
(bilinear, conjugation-free) dot product.  Nothing here imports the
package under test, and nothing here is shared with it.

Scalars are (re, im) pairs of Fraction.  Vectors are tuples of scalars,
matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

Num = tuple[Fraction, Fraction]
Vec = tuple[Num, ...]
Mat = tuple[Vec, ...]

ZERO: Num = (Fraction(0), Fraction(0))
ONE: Num = (Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------

def num(re, im=0) -> Num:
    return (Fraction(re), Fraction(im))


def cadd(a: Num, b: Num) -> Num:
    return (a[0] + b[0], a[1] + b[1])


def csub(a: Num, b: Num) -> Num:
    return (a[0] - b[0], a[1] - b[1])


# The product and quotient of two real scalars (both imaginary parts
# zero) are real, one Fraction operation each instead of six or more;
# that spares real elimination most of its work.

def cmul(a: Num, b: Num) -> Num:
    if not (a[1] or b[1]):
        return (a[0] * b[0], ZERO[1])
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cdiv(a: Num, b: Num) -> Num:
    if ciszero(b):
        raise ZeroDivisionError("oracle: division by zero scalar")
    if not (a[1] or b[1]):
        return (a[0] / b[0], ZERO[1])
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def cneg(a: Num) -> Num:
    return (-a[0], -a[1])


def cconj(a: Num) -> Num:
    return (a[0], -a[1])


def ciszero(a: Num) -> bool:
    return a[0] == 0 and a[1] == 0


def ctext(a: Num) -> str:
    """The text form "p/q+r/si" (or "p/q-r/si"), every part in lowest terms."""
    re, im = a
    sign = "-" if im < 0 else "+"
    return f"{re.numerator}/{re.denominator}{sign}{abs(im).numerator}/{abs(im).denominator}i"


def vec(*entries) -> Vec:
    out = []
    for e in entries:
        if isinstance(e, tuple):
            out.append((Fraction(e[0]), Fraction(e[1])))
        else:
            out.append((Fraction(e), Fraction(0)))
    return tuple(out)


def mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(vec(*row) for row in rows)


def vadd(x: Vec, y: Vec) -> Vec:
    return tuple(cadd(a, b) for a, b in zip(x, y))


def vsub(x: Vec, y: Vec) -> Vec:
    return tuple(csub(a, b) for a, b in zip(x, y))


def vscale(k: Num, x: Vec) -> Vec:
    return tuple(cmul(k, a) for a in x)


def vzero(n: int) -> Vec:
    return tuple(ZERO for _ in range(n))


def is_zero_vec(x: Vec) -> bool:
    return all(ciszero(a) for a in x)


def inner(x: Vec, y: Vec) -> Num:
    # Linear in the first slot, conjugated second slot.
    acc = ZERO
    for a, b in zip(x, y):
        acc = cadd(acc, cmul(a, cconj(b)))
    return acc


def norm_sq(x: Vec) -> Fraction:
    s = inner(x, x)
    assert s[1] == 0
    return s[0]


def mat_vec(m: Mat, x: Vec) -> Vec:
    return tuple(inner_plain(row, x) for row in m)


def inner_plain(x: Vec, y: Vec) -> Num:
    # Plain bilinear dot product, no conjugation.
    acc = ZERO
    for a, b in zip(x, y):
        acc = cadd(acc, cmul(a, b))
    return acc


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(inner_plain(row, col) for col in bt) for row in a)


# ---------------------------------------------------------------------------
# Naive Gaussian elimination
# ---------------------------------------------------------------------------

def naive_rref(rows: Sequence[Vec]) -> tuple[list[list[Num]], list[int]]:
    """Textbook reduced row echelon form; returns (all rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if not ciszero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [cdiv(e, pv) for e in m[r]]
        for i in range(len(m)):
            if i != r and not ciszero(m[i][c]):
                f = m[i][c]
                m[i] = [csub(e, cmul(f, p)) for e, p in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def span(rows: Sequence[Vec], ncols: int) -> Mat:
    """Canonical basis (nonzero RREF rows) of the row space."""
    reduced, pivots = naive_rref([r for r in rows if not is_zero_vec(r)])
    return tuple(tuple(reduced[i]) for i in range(len(pivots)))


def rank(rows: Sequence[Vec]) -> int:
    return len(naive_rref(list(rows))[1])


def plain_nullspace(rows: Sequence[Vec], ncols: int) -> Mat:
    """Basis of {x : m·x = 0} under the plain dot product, by free-variable
    back substitution."""
    reduced, pivots = naive_rref(list(rows))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [ZERO] * ncols
        x[fc] = ONE
        for i, pc in enumerate(pivots):
            x[pc] = cneg(reduced[i][fc])
        basis.append(tuple(x))
    return tuple(basis)


def member(basis: Mat, x: Vec, ncols: int) -> bool:
    if is_zero_vec(x):
        return True
    return rank(list(basis) + [x]) == rank(list(basis))


def solve_naive(m: Mat, b: Vec) -> Optional[Vec]:
    """Canonical solution of m·x = b (free variables 0), or None."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    aug = [list(row) + [bv] for row, bv in zip(m, b)]
    reduced, pivots = naive_rref([tuple(r) for r in aug])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i][ncols]
    return tuple(x)


# ---------------------------------------------------------------------------
# Subspaces: a subspace is just its canonical basis matrix (rows span)
# ---------------------------------------------------------------------------

def sub(rows: Sequence[Sequence], ncols: int) -> Mat:
    return span(mat(rows), ncols)


def s_meet(a: Mat, b: Mat, ncols: int) -> Mat:
    # x in rowspace(A) iff n·x = 0 for every n in the plain nullspace of A.
    constraints = list(plain_nullspace(a, ncols)) + list(plain_nullspace(b, ncols))
    return span(plain_nullspace(constraints, ncols), ncols)


def s_join(a: Mat, b: Mat, ncols: int) -> Mat:
    return span(list(a) + list(b), ncols)


def s_perp(a: Mat, ncols: int) -> Mat:
    conj_rows = [tuple(cconj(e) for e in row) for row in a]
    return span(plain_nullspace(conj_rows, ncols), ncols)


def s_leq(a: Mat, b: Mat, ncols: int) -> bool:
    return all(member(b, row, ncols) for row in a)


def s_eq(a: Mat, b: Mat, ncols: int) -> bool:
    return span(a, ncols) == span(b, ncols)


def full(ncols: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(ncols)) for i in range(ncols))


def distance_sq(x: Vec, basis: Mat, ncols: int) -> Fraction:
    """Squared distance of x to the row span, via the normal equations."""
    k = len(basis)
    if k == 0:
        return norm_sq(x)
    gram = tuple(tuple(inner(basis[j], basis[i]) for j in range(k)) for i in range(k))
    rhs = tuple(inner(x, basis[i]) for i in range(k))
    coeffs = solve_naive(gram, rhs)
    assert coeffs is not None
    best = vzero(ncols)
    for c, row in zip(coeffs, basis):
        best = vadd(best, vscale(c, row))
    return norm_sq(vsub(x, best))


def project_onto(x: Vec, basis: Mat, ncols: int) -> Vec:
    """Orthogonal projection of x onto the row span."""
    k = len(basis)
    if k == 0:
        return vzero(ncols)
    gram = tuple(tuple(inner(basis[j], basis[i]) for j in range(k)) for i in range(k))
    rhs = tuple(inner(x, basis[i]) for i in range(k))
    coeffs = solve_naive(gram, rhs)
    assert coeffs is not None
    best = vzero(ncols)
    for c, row in zip(coeffs, basis):
        best = vadd(best, vscale(c, row))
    return best


def gram_projection_matrix(cols: Mat, ncols: int) -> Mat:
    """Projection matrix onto the span of the given vectors (as columns):
    rows i of the result are e_i projected... computed columnwise."""
    out_cols = []
    for j in range(ncols):
        e = tuple(ONE if i == j else ZERO for i in range(ncols))
        out_cols.append(project_onto(e, cols, ncols))
    # out_cols[j] = P e_j, i.e. column j of P.
    return tuple(tuple(out_cols[j][i] for j in range(ncols)) for i in range(ncols))


def decompose(one: Mat, zero: Mat, x: Vec, ncols: int) -> Optional[tuple[Vec, Vec]]:
    """Split x = l1 + l0 with l1 in span(one), l0 in span(zero), by solving
    the stacked coefficient system; None when x is outside the sum."""
    cols = list(one) + list(zero)
    if not cols:
        return None if not is_zero_vec(x) else (vzero(ncols), vzero(ncols))
    system = tuple(tuple(cols[j][i] for j in range(len(cols))) for i in range(ncols))
    coeffs = solve_naive(system, x)
    if coeffs is None:
        return None
    l1 = vzero(ncols)
    for c, row in zip(coeffs[: len(one)], one):
        l1 = vadd(l1, vscale(c, row))
    l0 = vzero(ncols)
    for c, row in zip(coeffs[len(one):], zero):
        l0 = vadd(l0, vscale(c, row))
    return l1, l0


# ---------------------------------------------------------------------------
# Ortho pairs: (one, zero) with componentwise definitions
# ---------------------------------------------------------------------------

def o_meet(a, b, ncols):
    return (s_meet(a[0], b[0], ncols), s_join(a[1], b[1], ncols))


def o_join(a, b, ncols):
    return (s_join(a[0], b[0], ncols), s_meet(a[1], b[1], ncols))


def o_neg(a):
    return (a[1], a[0])


def o_minus(a, b, ncols):
    return o_meet(a, o_neg(b), ncols)


def o_implies(a, b, ncols):
    return o_join(o_neg(a), b, ncols)


def o_leq(a, b, ncols):
    return s_leq(a[0], b[0], ncols) and s_leq(b[1], a[1], ncols)


def o_eq(a, b, ncols):
    return s_eq(a[0], b[0], ncols) and s_eq(a[1], b[1], ncols)


def o_dom(a, ncols):
    return s_join(a[0], a[1], ncols)


def o_total(a, ncols):
    return s_eq(o_dom(a, ncols), full(ncols), ncols)


def o_iff(a, b, ncols):
    return o_meet(o_implies(a, b, ncols), o_implies(b, a, ncols), ncols)


def o_not(a, ncols):
    return o_implies(a, ((), full(ncols)), ncols)


def orthogonal(a: Mat, b: Mat) -> bool:
    return all(ciszero(inner(x, y)) for x in a for y in b)


# ---------------------------------------------------------------------------
# Partial operators: a domain basis plus the values on its rows
# ---------------------------------------------------------------------------

def combine(coeffs: Sequence[Num], rows: Sequence[Vec], ncols: int) -> Vec:
    acc = vzero(ncols)
    for c, row in zip(coeffs, rows):
        acc = vadd(acc, vscale(c, row))
    return acc


def op_apply(dom: Mat, values: Mat, x: Vec, ncols: int) -> Optional[Vec]:
    """t(x) by linearity from the values on the domain rows; None when x
    is outside the domain."""
    if not dom:
        return vzero(ncols) if is_zero_vec(x) else None
    coeffs = solve_naive(tuple(zip(*dom)), x)
    return None if coeffs is None else combine(coeffs, values, ncols)


def _where_combination_vanishes(dom: Mat, rows: Sequence[Vec], ncols: int) -> Mat:
    """span{sum c_i dom_i : sum c_i rows_i = 0}."""
    if not dom:
        return ()
    kernel = plain_nullspace(tuple(zip(*rows)), len(dom))
    return span([combine(c, dom, ncols) for c in kernel], ncols)


def compose_domain(q_dom: Mat, p_dom: Mat, p_values: Mat, ncols: int) -> Mat:
    """{x in dom p : p(x) in dom q}.  For x = sum c_i b_i, p(x) lies in
    the row space of q_dom iff every plain null vector n of q_dom has
    n·p(x) = sum c_i n·p(b_i) = 0."""
    nulls = plain_nullspace(q_dom, ncols)
    conditions = [tuple(inner_plain(n, v) for n in nulls) for v in p_values]
    return _where_combination_vanishes(p_dom, conditions, ncols)


def projection_pair(dom: Mat, values: Mat, ncols: int):
    """(fixed vectors, killed vectors) of a projection inside its domain."""
    moved = [vsub(v, b) for b, v in zip(dom, values)]
    return (
        _where_combination_vanishes(dom, moved, ncols),
        _where_combination_vanishes(dom, values, ncols),
    )


def det(m: Mat) -> Num:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return ONE
    acc = ZERO
    for j, a in enumerate(m[0]):
        term = cmul(a, det(tuple(row[:j] + row[j + 1 :] for row in m[1:])))
        acc = cadd(acc, term) if j % 2 == 0 else csub(acc, term)
    return acc


def norm_is_one(dom: Mat, values: Mat) -> bool:
    """||p|| = 1 for a projection with these values on the domain rows.

    Some value is nonzero, so a fixed vector attains 1; and nothing
    exceeds 1: |x|^2 - |p(x)|^2 >= 0 for x = sum c_i b_i, which is the
    Hermitian form F[i][j] = <b_i, b_j> - <p(b_i), p(b_j)> being positive
    semidefinite, that is, having no negative principal minor.
    """
    if all(is_zero_vec(v) for v in values):
        return False
    r = len(dom)
    form = [
        [csub(inner(dom[i], dom[j]), inner(values[i], values[j])) for j in range(r)]
        for i in range(r)
    ]
    for size in range(1, r + 1):
        for idx in combinations(range(r), size):
            minor = det(tuple(tuple(form[i][j] for j in idx) for i in idx))
            assert minor[1] == 0
            if minor[0] < 0:
                return False
    return True


def op_eq(t_dom: Mat, t_values: Mat, u_dom: Mat, u_values: Mat, ncols: int) -> bool:
    """Same domain and the same value at every vector of it."""
    return s_eq(t_dom, u_dom, ncols) and all(
        op_apply(u_dom, u_values, b, ncols) == v for b, v in zip(t_dom, t_values)
    )


def op_apart(t_dom: Mat, t_values: Mat, u_dom: Mat, u_values: Mat, ncols: int) -> bool:
    """Apartness: a nonzero vector in one domain orthogonal to the other,
    or a vector of both domains with different values."""
    for a, b in ((t_dom, u_dom), (u_dom, t_dom)):
        if s_meet(a, s_perp(b, ncols), ncols):
            return True
    return any(
        op_apply(t_dom, t_values, x, ncols) != op_apply(u_dom, u_values, x, ncols)
        for x in s_meet(t_dom, u_dom, ncols)
    )


def apart_at(t_dom: Mat, t_values: Mat, u_dom: Mat, u_values: Mat, x: Vec, ncols: int) -> bool:
    """Whether x witnesses apartness: x is nonzero and lies in one domain
    orthogonal to the other, or in both with different values."""
    if is_zero_vec(x):
        return False
    in_t, in_u = member(t_dom, x, ncols), member(u_dom, x, ncols)
    if (in_t and orthogonal((x,), u_dom)) or (in_u and orthogonal((x,), t_dom)):
        return True
    if not (in_t and in_u):
        return False
    return op_apply(t_dom, t_values, x, ncols) != op_apply(u_dom, u_values, x, ncols)


# ---------------------------------------------------------------------------
# Definition-unfolded law evaluation on subspace triples
# ---------------------------------------------------------------------------

def law_distributive(l, m, n, nc):
    return s_eq(s_meet(l, s_join(m, n, nc), nc), s_join(s_meet(l, m, nc), s_meet(l, n, nc), nc), nc)


def law_modular(l, m, n, nc):
    # Premise n <= l; callers filter.
    return s_eq(s_meet(l, s_join(m, n, nc), nc), s_join(s_meet(l, m, nc), n, nc), nc)


def law_orthomodular(l, m, nc):
    # Premise l <= m; callers filter.
    return s_eq(m, s_join(l, s_meet(m, s_perp(l, nc), nc), nc), nc)


def law_de_morgan_join(l, m, nc):
    return s_eq(s_perp(s_join(l, m, nc), nc), s_meet(s_perp(l, nc), s_perp(m, nc), nc), nc)


def law_de_morgan_meet(l, m, nc):
    return s_eq(s_perp(s_meet(l, m, nc), nc), s_join(s_perp(l, nc), s_perp(m, nc), nc), nc)
