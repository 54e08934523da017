"""The standing mutation suite: every named mutant stays killed.

Each row of ``MUTANTS`` is a one-place edit of a private function's
source, paired with the smallest fast probe known to catch it.  The
edit is compiled from the function's current source and swapped in as
the function's code, so every binding site sees it at once: ``linalg``
and ``subspace`` for ``_kernel_rows``, and the saved references through
which the contract fixtures of ``conftest`` call the real code.  The
contract fixtures stay on, and a probe may count a contract assertion as
its kill.  Each probe must pass under an unchanged recompiled copy of
its function, so that it cannot pass here by failing for another reason,
and must fail with an ``AssertionError`` under its mutant.  A row whose
text no longer occurs in the source fails, and is then rewritten against
the new code rather than dropped."""

import contextlib
import inspect
import io
import json
import tempfile
import textwrap
from fractions import Fraction
from types import CodeType

import pytest

import oracle
from conftest import to_mat, to_num, to_vec
import orthoql
from orthoql import errors, laws, linalg, ortho, partial_op, scalars, subspace
from orthoql.cli import load_instances, main
from orthoql.errors import ParseError
from orthoql.laws import LawResult, check_catalog, check_clql, check_complql
from orthoql.linalg import Matrix, Vector
from orthoql.ortho import OrthoSubspace
from orthoql.partial_op import PartialProjection, check_order, norm_sq_is_one, pls_add, pls_scale
from orthoql.partial_op import projection_of
from orthoql.scalars import Field, GaussianRational
from orthoql.subspace import Subspace
from test_exhaustive import Family, built, clql_slice


def q(n, *rows):
    return Subspace(Field.Q, n, rows)


# --- probes ----------------------------------------------------------------

def modular_search():
    # A real meet never breaks the modular law; check_catalog runs the
    # search through the law-suite runner.
    assert check_catalog("modularity", 3, Field.Q).results["modularity"].violations == []


def family_lattice():
    # The first general triples of the Q^3 family, each of three pairwise
    # incomparable subspaces, through the lattice suite.
    q3 = built(Field.Q)
    assert clql_slice(q3, q3.triples[:20]).ok


def family_norms():
    # A fresh Q(i)^2 family, so that the code under test builds its
    # subspaces too: the norm certificate of each proper projection
    # compares three Gram products of its basis, images and residues.
    assert all(norm_sq_is_one(projection_of(pair)) for pair in Family(Field.Qi).proper)


def complql_suite():
    l = OrthoSubspace(q(3, [1, 0, 0]), q(3, [0, 1, 0]))
    m = OrthoSubspace(q(3, [0, 1, 0]), q(3, [0, 0, 1]))
    n = OrthoSubspace(q(3, [1, 1, 0]), q(3, [0, 0, 1]))
    assert check_complql([(l, m, n), (m, n, l)]).ok


def products():
    a = Matrix(Field.Q, 1, 2, [Fraction(1, 2), Fraction(1, 3)])
    b = Matrix(Field.Q, 2, 1, [Fraction(1, 5), Fraction(1, 7)])
    assert (a @ b).entries == (Fraction(31, 210),)
    # Integer operands: every entry must still be a Fraction.
    assert (Matrix(Field.Q, 1, 1, [2]) @ Matrix(Field.Q, 1, 1, [3])).entries == (6,)


def gaussian_products():
    i = Matrix(Field.Qi, 1, 1, [GaussianRational(0, 1)])
    assert (i @ i).entries == (-1,)


def reduced_row():
    assert q(2, [2, 3]).basis.entries == (1, Fraction(3, 2))


def saved(document, use):
    """``use(path)`` with ``document`` saved as an instance file at ``path``."""
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/instances.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        return use(path)


def loaded_file():
    # Whole-number scalars in a Q file: the loader stores what the parser
    # builds with no second check, so each must be a Fraction already.
    document = {"field": "Q", "ambient_dim": 2, "subspaces": {"A": {"basis": [["2", "1/3"]]}}}
    assert saved(document, load_instances).subspaces["A"] == q(2, [6, 1])


def unnamed_skew_pair():
    # A pair whose parts are not orthogonal: the command names another
    # object, which loads fine, but the file is refused whole.
    document = {
        "field": "Q",
        "ambient_dim": 2,
        "subspaces": {"A": {"basis": [["1", "0"]]}, "B": {"basis": [["1", "1"]]}},
        "ortho": {"P": {"one": "A", "zero": "B"}},
    }
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert saved(document, lambda path: main(["op", "neg", "A", "--file", path])) == 2


def gaussian_parse():
    z = Field.Qi.parse("1/2+1/3i")
    assert (z._a, z._b, z._d) == (3, 2, 6)


def split_numeral():
    # With the space dropped, "1 2" would be read as 12.
    try:
        value = Field.Q.parse("1 2")
    except ParseError:
        return
    raise AssertionError(f"'1 2' parsed as {value}")


def record_equality():
    # Two results of one law that differ in their instance count alone.
    assert LawResult("clql1", 1) != LawResult("clql1", 2)


def resolved_name():
    # The package keeps a name once read; dropped from its namespace, the
    # name is resolved afresh, and the namespace is left as it was found.
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(vars(orthoql), "Subspace", Subspace)
        patch.delitem(vars(orthoql), "Subspace")
        assert orthoql.Subspace is orthoql.subspace.Subspace


def reduced_gaussian():
    # (1/2) * 2 is made as the triple (2, 0, 2) and reduced to (1, 0, 1).
    z = GaussianRational(Fraction(1, 2)) * 2
    assert (z._a, z._b, z._d) == (1, 0, 1)


def bool_comparison():
    # A bool is no exact scalar: comparing with one answers, and never raises.
    try:
        assert GaussianRational(1) != True  # noqa: E712
    except TypeError as exc:
        raise AssertionError(f"comparing with a bool raised {exc}") from None


def zero_matrix():
    assert Matrix.zero(Field.Q, 1, 2).entries == (0, 0)


def orthocomplement():
    assert q(2, [1, 0]).perp() == q(2, [0, 1])


def fifths():
    # Both parts nonzero, so the images come from the Gram solve: e1 and e2
    # go to 1/5 and 2/5 of (1, 2, 0).
    return PartialProjection(OrthoSubspace(q(3, [1, 2, 0]), q(3, [2, -1, 0])))


def projection():
    fifth = Fraction(1, 5)
    assert fifths().images == Matrix(Field.Q, 2, 3, [fifth, 2 * fifth, 0, 2 * fifth, 4 * fifth, 0])


def one_form():
    # A sum with a scaled-away copy holds p's values over p.den squared
    # until the gcd is divided out; then its form is p's own.
    p = fifths()
    t = pls_add(p, pls_scale(0, p))
    assert (t.den, t.nums) == (p.den, p.nums)


def scaled_values():
    p, k = fifths(), Fraction(2, 3)
    want = tuple(oracle.cmul((k, Fraction(0)), to_num(e)) for e in p.images.entries)
    assert tuple(map(to_num, pls_scale(k, p).images.entries)) == want


def ordered_norms():
    # p_l1 maps (1, 0) to (1/2, -1/2), of squared norm 1/2, which the
    # total identity m1 keeps at 1: the clause compares 2/4 with 1/1.
    l = OrthoSubspace(q(2, [1, -1]), q(2, [1, 1]))
    m = OrthoSubspace(Subspace.full(Field.Q, 2), Subspace.zero(Field.Q, 2))
    assert check_order(l, m)["lescomp1_iiia"] == (True, True, "")


def gaussian_projection():
    # The projection onto span{(1, 1 + i)} that kills span{(-1 + i, 1)}
    # maps e1 to (1, 1 + i) / 3 and e2 to (1 - i, 2) / 3.
    v, w = [1, GaussianRational(1, 1)], [GaussianRational(-1, 1), 1]
    p = PartialProjection(OrthoSubspace(Subspace(Field.Qi, 2, [v]), Subspace(Field.Qi, 2, [w])))
    third = Fraction(1, 3)
    want = [third, GaussianRational(third, third), GaussianRational(third, -third), 2 * third]
    assert p.images == Matrix(Field.Qi, 2, 2, want)


def gaussian_project():
    # A Q(i) vector projected onto a Q(i) plane of Q(i)^3, against the
    # oracle's normal equations.
    plane = Subspace(Field.Qi, 3, [[1, GaussianRational(0, 1), 0], [0, 1, GaussianRational(1, -1)]])
    x = Vector(Field.Qi, [GaussianRational(2, 1), 1, GaussianRational(0, 3)])
    assert to_vec(plane.project(x)) == oracle.project_onto(to_vec(x), to_mat(plane.basis), 3)


def distinct_ambients():
    # span{(1, 0, 0, 1)} in Q^4 and Q^2 itself have the same integer form.
    assert q(4, [1, 0, 0, 1]) != Subspace.full(Field.Q, 2)


def values():
    fifth = Fraction(1, 5)
    assert fifths()(Vector(Field.Q, [1, 0, 0])) == Vector(Field.Q, [fifth, 2 * fifth, 0])


def short_ranks():
    # Two orthogonal lines of Q^3: their ranks add up to 2, one short of
    # 3, so the pair is not total and its domain is the plane they span.
    pair = OrthoSubspace(q(3, [1, 0, 0]), q(3, [0, 1, 0]))
    assert not pair.is_total and pair.dom == q(3, [1, 0, 0], [0, 1, 0])


def clql_violation_text():
    # Under the meet mutant two crossing planes of Q^3 meet in zero, so
    # their common line N lies below both but not below their meet, and
    # clql1 fails; its violation names the operands as the f-string does.
    l, m, n = q(3, [1, 0, 0], [0, 1, 0]), q(3, [0, 1, 0], [0, 0, 1]), q(3, [0, 1, 0])
    with pytest.MonkeyPatch.context() as patch:
        _swap(patch, *MEET_OF_INCOMPARABLES_IS_ZERO)
        violations = check_clql([(l, m, n)]).results["clql1"].violations
    assert [v.operands for v in violations] == [f"L={l!r} M={m!r} N={n!r}"]


# --- the table -------------------------------------------------------------

# Three edits that more than one probe kills: (function, source text,
# mutated text).
MEET_OF_INCOMPARABLES_IS_ZERO = (
    subspace.Subspace._meet,
    "r, k = self.rank, self.rank + other.rank",
    "if not (self.leq(other) or other.leq(self)):\n"
    "        return Subspace.zero(self.field, self.ambient_dim)\n"
    "    r, k = self.rank, self.rank + other.rank",
)
PRODUCT_DROPS_DY = (linalg._product, "_scalars(field, dx * dy,", "_scalars(field, dx,")
PROJECTION_DROPS_THE_CONJUGATE = (
    subspace.Subspace._projection,
    "_conjugates(field, _rows(field, basis, n))",
    "_rows(field, basis, n)",
)

# name -> (function, source text, mutated text, probe).  The functions
# are read at import, before the contract fixtures wrap any of them.
MUTANTS = {
    "meet-of-incomparables-is-zero": (*MEET_OF_INCOMPARABLES_IS_ZERO, modular_search),
    "meet-of-incomparables-is-zero-on-the-family": (*MEET_OF_INCOMPARABLES_IS_ZERO, family_lattice),
    "cleared-takes-max-for-lcm": (
        linalg._form,
        "lcm(*(e.denominator",
        "max(*(e.denominator",
        products,
    ),
    "leading-one-divides-by-the-next-column": (
        linalg._leading_one_row,
        "_scalars(field, row[2 * c],",
        "_scalars(field, row[2 * c + 2],",
        reduced_row,
    ),
    "product-drops-dy": (*PRODUCT_DROPS_DY, products),
    "product-drops-dy-on-the-family": (*PRODUCT_DROPS_DY, family_norms),
    "product-returns-a-bare-int": (
        linalg._scalars,
        "[Fraction(x, den) for x in nums]",
        "[x if den == 1 else Fraction(x, den) for x in nums]",
        products,
    ),
    "parsed-whole-number-is-a-bare-int": (
        scalars._fraction,
        "return Fraction(int(num), int(den) if den else 1)",
        "return Fraction(int(num), int(den)) if den else int(num)",
        loaded_file,
    ),
    "file-pair-orthogonal-on-any-rows": (
        linalg._first_nonorthogonal,
        "return i, j",
        "return None",
        unnamed_skew_pair,
    ),
    "gaussian-parse-drops-a-denominator": (
        scalars._gaussian_of,
        "b * d",
        "d",
        gaussian_parse,
    ),
    "digit-space-check-skipped": (
        scalars._split_numeral,
        "return _SPLIT_RE.search(text) is not None",
        "return False",
        split_numeral,
    ),
    "record-equality-reads-the-first-field-only": (
        errors._Record.__eq__,
        "fields = self.__slots__",
        "fields = self.__slots__[:1]",
        record_equality,
    ),
    "package-name-resolves-to-its-module": (
        orthoql.__getattr__,
        "value = module if home == name else getattr(module, name)",
        "value = module",
        resolved_name,
    ),
    # Every triple then keeps its common factor; gaussian_contract's
    # canonical-triple check fails before the probe's own comparison.
    "gaussian-keeps-an-unreduced-triple": (
        scalars._gaussian,
        "if g == 1:",
        "if g >= 1:",
        reduced_gaussian,
    ),
    "gaussian-lifts-a-bool": (
        GaussianRational._lift,
        "if type(other) is bool:",
        "if False:",
        bool_comparison,
    ),
    "products-add-the-real-cross-term": (
        linalg._products,
        "sum(map(mul, xr, yr)) - sum(map(mul, xi, yi))",
        "sum(map(mul, xr, yr)) + sum(map(mul, xi, yi))",
        gaussian_products,
    ),
    "form-writes-the-real-part-twice": (
        linalg._form,
        "(e._a * k, e._b * k)",
        "(e._a * k, e._a * k)",
        gaussian_products,
    ),
    "join-zero-part-is-a-join": (
        ortho.o_join,
        "a.zero & b.zero",
        "a.zero | b.zero",
        complql_suite,
    ),
    "zero-matrix-of-int-zeros": (
        linalg.Matrix.zero.__func__,
        "[field.zero] * (nrows * ncols)",
        "[0] * (nrows * ncols)",
        zero_matrix,
    ),
    "kernel-row-writes-an-int-one": (
        linalg._kernel_rows,
        "v[f] = field.one",
        "v[f] = 1",
        orthocomplement,
    ),
    "projection-images-from-the-zero-part": (
        partial_op.PartialProjection.__init__,
        "pair.one._projection(dom._basis_form)",
        "pair.zero._projection(dom._basis_form)",
        projection,
    ),
    "projection-drops-the-conjugate": (*PROJECTION_DROPS_THE_CONJUGATE, gaussian_project),
    "projection-drops-the-conjugate-in-the-images": (
        *PROJECTION_DROPS_THE_CONJUGATE,
        gaussian_projection,
    ),
    "gram-drops-the-conjugate": (
        linalg._gram_solve,
        "_products(field, shaped, _conjugates(field, shaped))",
        "_products(field, shaped, shaped)",
        gaussian_projection,
    ),
    "subspace-equality-ignores-the-ambient-dimension": (
        subspace.Subspace.__eq__,
        "self.ambient_dim == other.ambient_dim",
        "True",
        distinct_ambients,
    ),
    # Every form then skips the division; operator_contract's
    # primitivity check fails before the probe's own comparison.
    "operator-form-keeps-its-gcd": (
        partial_op.PartialOperator._of.__func__,
        "if g == 1:",
        "if g >= 1:",
        one_form,
    ),
    "scale-multiplies-den-by-the-numerator": (
        partial_op.pls_scale,
        "t.den * dk",
        "t.den * ks[0]",
        scaled_values,
    ),
    "apply-drops-the-operator-denominator": (
        partial_op._apply,
        "return den * t.den,",
        "return den,",
        values,
    ),
    "complement-is-the-projection-itself": (
        partial_op.proj_compl,
        "projection_of(o_neg(p.pair))",
        "projection_of(p.pair)",
        ordered_norms,
    ),
    "order-norms-drop-the-denominators": (
        partial_op.check_order,
        "up = l1 * dm1 * dm1 <= m1 * dl1 * dl1",
        "up = l1 <= m1",
        ordered_norms,
    ),
    "dom-full-from-short-ranks": (
        ortho.OrthoSubspace.dom.fget,
        "== one.ambient_dim",
        ">= one.ambient_dim - 1",
        short_ranks,
    ),
    "violation-text-left-unresolved": (
        laws.LawResult.record,
        "Violation(_resolved(operands), ",
        "Violation(operands, ",
        clql_violation_text,
    ),
}


def _swap(monkeypatch, fn, old: str, new: str) -> None:
    """Give ``fn`` the code compiled from its source with ``old``, which
    must occur exactly once, replaced by ``new``.  The source is compiled
    inside a function that owns a ``__class__`` cell, so that a method
    calling ``super()`` keeps the same free variables."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__qualname__} no longer contains {old!r}"
    body = textwrap.indent(source.replace(old, new), "    ")
    module = compile("def _outer():\n    __class__ = None\n" + body, fn.__code__.co_filename, "exec")
    (outer,) = (c for c in module.co_consts if isinstance(c, CodeType))
    (code,) = (c for c in outer.co_consts if isinstance(c, CodeType) and c.co_name == fn.__name__)
    monkeypatch.setattr(fn, "__code__", code)


@pytest.mark.parametrize("fn, old, new, probe", MUTANTS.values(), ids=MUTANTS)
def test_probe_passes_on_an_unchanged_recompiled_copy(monkeypatch, fn, old, new, probe):
    _swap(monkeypatch, fn, old, old)
    probe()


@pytest.mark.parametrize("fn, old, new, probe", MUTANTS.values(), ids=MUTANTS)
def test_mutant_is_killed(monkeypatch, fn, old, new, probe):
    _swap(monkeypatch, fn, old, new)
    with pytest.raises(AssertionError):
        probe()
