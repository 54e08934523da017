"""Law suites for the subspace lattice, the orthocomplemented lattice and
the operator calculus.

Every suite the ``check`` command runs is a ``check_*`` function here,
and each returns a ``LawReport``: per law, the instances tried, how many
met the law's hypothesis, and the violations.  Each law is evaluated
instance by instance with exact arithmetic, so a "holds" verdict is a
finite proof for the tested operands and a violation comes with a
concrete witness.  Conditional laws first decide their hypothesis;
instances where it fails are counted as hypothesis-not-met, never as
passes, so coverage is visible in the report.  The clause calculi of
``partial_op`` (the order characterization, commuting projections and
Cor. 7) return plain {clause: (applicable, holds, detail)} maps, which
``check_lescomp`` and ``check_comm`` tally clause by clause.  A small
catalog of classical counterexamples (distributivity and the Heyting
adjunction) is kept separate: those laws are expected to fail, and the
finder must reproduce the standard witnesses.  ``check_catalog`` also
searches modularity, which holds at finite dimension, and it tags all
three laws expected-fail, modularity included: a modularity violation
would be reported but would not count towards the exit status.  Each
``check_*`` runs inside one ``subspace._shared_results`` block, so
equal operands share their meets, joins and orders for the length of
the run and no longer; a subspace keeps its own orthocomplement and
projector, and a pair keeps nothing of its projection, which is built
anew wherever a suite asks for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from orthoql.generators import _modular_triples
from orthoql.linalg import _check_size
from orthoql.ortho import (
    OrthoSubspace,
    o_eq,
    o_join,
    o_leq,
    o_meet,
    o_minus,
    o_neg,
    o_perp,
)
from orthoql.partial_op import (
    COMM_CLAUSES,
    COR7_CLAUSES,
    ORDER_CLAUSES,
    PartialOperator,
    PartialProjection,
    check_order,
    commuting_calculus,
    cor7_calculus,
    o_neq,
    op_eq,
    op_neq,
    pls_add,
    pls_negate,
    pls_scale,
    pls_zero_of,
    total_zero,
)
from orthoql.scalars import Field, Scalar
from orthoql.subspace import Subspace, _shared_results, perp_rel

__all__ = [
    "Violation",
    "LawResult",
    "LawReport",
    "check_clql",
    "check_complql",
    "check_pls",
    "check_lescomp",
    "check_comm",
    "Counterexample",
    "find_counterexample",
    "check_catalog",
    "CLQL_LAWS",
    "COMPLQL_LAWS",
    "PLS_LAWS",
    "FAILING_LAWS",
]


@dataclass
class Violation:
    operands: str
    witness: str = ""


@dataclass
class LawResult:
    law: str
    expected_fail: bool = False
    instances: int = 0
    hypothesis_met: int = 0
    violations: list = dc_field(default_factory=list)

    def record(self, applicable: bool, holds: bool, operands: str = "", witness: str = ""):
        self.instances += 1
        if applicable:
            self.hypothesis_met += 1
            if not holds:
                self.violations.append(Violation(operands, witness))

    @property
    def passed(self) -> bool:
        return not self.violations

    def line(self) -> str:
        tag = " [expected-fail]" if self.expected_fail else ""
        return (
            f"{self.law}: instances={self.instances} "
            f"hypothesis_met={self.hypothesis_met} violations={len(self.violations)}{tag}"
        )


@dataclass
class LawReport:
    results: dict = dc_field(default_factory=dict)

    def result(self, law: str, expected_fail: bool = False) -> LawResult:
        if law not in self.results:
            self.results[law] = LawResult(law, expected_fail)
        return self.results[law]

    def merge(self, other: "LawReport") -> "LawReport":
        for law, res in other.results.items():
            mine = self.result(law, res.expected_fail)
            mine.instances += res.instances
            mine.hypothesis_met += res.hypothesis_met
            mine.violations.extend(res.violations)
        return self

    @property
    def unexpected_violations(self) -> int:
        return sum(
            len(r.violations) for r in self.results.values() if not r.expected_fail
        )

    @property
    def ok(self) -> bool:
        return self.unexpected_violations == 0

    def summary(self) -> str:
        return "\n".join(self.results[law].line() for law in sorted(self.results))


CLQL_LAWS = (
    "clql0",
    "clql1",
    "clql2",
    "clql3",
    "clql4",
    "clql5",
    "clql6",
    "clql7",
    "semidistributive",
    "modular_closed",
    "demorgan_join",
    "demorgan_meet_geq",
    "demorgan_meet_eq",
    "located",
)

COMPLQL_LAWS = (
    "complql0",
    "complql1",
    "complql2",
    "complql3",
    "complql4",
    "complql5",
    "complql6",
    "complql7",
    "complql8",
    "corcomplql_i",
    "corcomplql_ii",
    "corcomplql_iii",
    "corcomplql_iv",
    "corcomplql_v",
    "corcomplql_vi",
    "corcomplql_vii",
    "corcomplql_viii",
    "wedgetotal",
    "swapalg1_i",
    "swapalg1_ii",
    "swapalg1_iii",
    "swapalg1_iv",
    "swapalg1_v",
    "swapalg1_vi",
    "swapalg1_vii",
    "swapalg1_viii",
    "perp2_i",
    "perp2_ii",
    "perp2_iii",
    "perp2_iv",
)

PLS_LAWS = (
    "pl_linear",
    "pl1",
    "pl2",
    "pl3",
    "pl4",
    "pl5",
    "cor_pls1_i",
    "cor_pls1_ii",
    "cor_pls1_iii",
    "cor_pls1_iv",
    "cor_pls1_v",
    "cor_pls1_vi",
    "prp_pls1_iv",
)

FAILING_LAWS = ("distributivity", "modularity", "heyting_adjunction")


# --- the subspace lattice ------------------------------------------------

@_shared_results()
def check_clql(instances: Sequence[tuple[Subspace, Subspace, Subspace]]) -> LawReport:
    """Evaluate the lattice laws on triples of plain subspaces."""
    report = LawReport()
    for law in CLQL_LAWS:
        report.result(law)
    for l, m, n in instances:
        # A triple over two spaces, or with no space, is refused before any law runs.
        Subspace._check_ambient(l, m)
        Subspace._check_ambient(l, n)
    if instances:
        first = instances[0][0]
        bottom = Subspace.zero(first.field, first.ambient_dim)
        top = Subspace.full(first.field, first.ambient_dim)
        report.result("clql0").record(
            first.ambient_dim >= 1, bottom != top, "ambient", ""
        )
    for l, m, n in instances:
        ops = f"L={l!r} M={m!r} N={n!r}"
        top = Subspace.full(l.field, l.ambient_dim)
        bottom = Subspace.zero(l.field, l.ambient_dim)
        meet = l.meet(m)
        join = l.join(m)

        glb = (
            meet.leq(l)
            and meet.leq(m)
            and (not (n.leq(l) and n.leq(m)) or n.leq(meet))
        )
        lub = (
            l.leq(join)
            and m.leq(join)
            and (not (l.leq(n) and m.leq(n)) or join.leq(n))
        )
        report.result("clql1").record(True, glb and lub, ops)

        report.result("clql2").record(True, bottom.leq(l) and l.leq(top), ops)

        report.result("clql3").record(
            True, l.leq(m) == m.perp().leq(l.perp()), ops
        )

        report.result("clql4").record(True, l == l.perp().perp(), ops)
        report.result("clql5").record(True, l.meet(l.perp()) == bottom, ops)
        report.result("clql6").record(True, l.join(l.perp()) == top, ops)

        # Orthomodular law.  The pair (l, l v m) always satisfies the
        # hypothesis, so every instance contributes a real check; the raw
        # pair contributes a second one whenever it happens to be ordered.
        big = join
        report.result("clql7").record(
            True, big == l.join(big.meet(l.perp())), ops
        )
        report.result("clql7").record(
            l.leq(m), not l.leq(m) or m == l.join(m.meet(l.perp())), ops
        )

        semi = (
            l.join(m.meet(n)).leq(l.join(m).meet(l.join(n)))
            and l.meet(m).join(l.meet(n)).leq(l.meet(m.join(n)))
        )
        report.result("semidistributive").record(True, semi, ops)

        # Modularity needs its smaller operand below the outer one; n ^ l
        # always qualifies, the raw n adds a second check when ordered.
        small = n.meet(l)
        report.result("modular_closed").record(
            True, l.meet(m.join(small)) == l.meet(m).join(small), ops
        )
        report.result("modular_closed").record(
            n.leq(l), not n.leq(l) or l.meet(m.join(n)) == l.meet(m).join(n), ops
        )

        report.result("demorgan_join").record(
            True, join.perp() == l.perp().meet(m.perp()), ops
        )
        report.result("demorgan_meet_geq").record(
            True, l.perp().join(m.perp()).leq(meet.perp()), ops
        )
        report.result("demorgan_meet_eq").record(
            True, meet.perp() == l.perp().join(m.perp()), ops
        )

        report.result("located").record(True, l.is_located_total(), ops)
    return report


# --- the orthocomplemented lattice ---------------------------------------

@_shared_results()
def check_complql(
    instances: Sequence[tuple[OrthoSubspace, OrthoSubspace, OrthoSubspace]],
) -> LawReport:
    """Evaluate the complemented-lattice laws on triples of orthogonal pairs."""
    report = LawReport()
    for law in COMPLQL_LAWS:
        report.result(law)
    if instances:
        first = instances[0][0]
        field, n = first.field, first.ambient_dim
        bottom = OrthoSubspace.bottom(field, n)
        top = OrthoSubspace.top(field, n)
        apart, witness = o_neq(bottom, top) if n >= 1 else (False, None)
        report.result("complql0").record(
            n >= 1,
            bottom.is_total and top.is_total and apart,
            "ambient",
            repr(witness),
        )
        report.result("corcomplql_iii").record(
            True, o_eq(o_neg(top), bottom) and o_eq(o_neg(bottom), top), "ambient"
        )
        report.result("swapalg1_iii").record(
            True,
            o_eq(bottom.local_zero(), bottom) and o_eq(top.local_one(), top),
            "ambient",
        )
    for l, m, n_pair in instances:
        ops = f"L={l!r} M={m!r} N={n_pair!r}"
        field, dim = l.field, l.ambient_dim
        bottom = OrthoSubspace.bottom(field, dim)
        top = OrthoSubspace.top(field, dim)
        meet = o_meet(l, m)
        join = o_join(l, m)
        parts: dict[str, tuple[bool, bool]] = {}

        glb = (
            o_leq(meet, l)
            and o_leq(meet, m)
            and (not (o_leq(n_pair, l) and o_leq(n_pair, m)) or o_leq(n_pair, meet))
        )
        lub = (
            o_leq(l, join)
            and o_leq(m, join)
            and (not (o_leq(l, n_pair) and o_leq(m, n_pair)) or o_leq(join, n_pair))
        )
        parts["complql1"] = (True, glb and lub)

        parts["complql2"] = (True, o_leq(bottom, l) and o_leq(l, top))
        parts["complql3"] = (True, o_leq(l, m) == o_leq(o_neg(m), o_neg(l)))
        parts["complql4"] = (True, o_eq(l, o_neg(o_neg(l))))
        parts["complql5"] = (
            True,
            o_eq(o_meet(l, o_neg(l)), l.local_zero())
            and o_eq(o_join(l, o_neg(l)), l.local_one()),
        )
        parts["complql6"] = (l.is_total, (not l.is_total) or o_neg(l).is_total)
        hyp7 = l.is_total and m.is_total and o_perp(l, m)
        parts["complql7"] = (hyp7, (not hyp7) or join.is_total)

        for law, (applicable, holds) in parts.items():
            report.result(law).record(applicable, holds, ops)

        hyp8 = l.is_total and o_leq(l, m)
        report.result("complql8").record(
            hyp8, (not hyp8) or o_eq(m, o_join(l, o_minus(m, l))), ops
        )

        hyp_ci = l.is_total and o_leq(l, m) and o_eq(o_minus(m, l), bottom)
        report.result("corcomplql_i").record(
            hyp_ci, (not hyp_ci) or o_eq(l, m), ops
        )

        report.result("corcomplql_ii").record(
            True,
            all((not applicable) or holds for applicable, holds in parts.values()),
            ops,
        )

        report.result("corcomplql_iv").record(
            True, o_eq(o_neg(join), o_meet(o_neg(l), o_neg(m))), ops
        )
        report.result("corcomplql_v").record(
            True, o_eq(o_neg(meet), o_join(o_neg(l), o_neg(m))), ops
        )

        both_total = l.is_total and m.is_total
        hyp_cvi = both_total and o_leq(l, m)
        report.result("corcomplql_vi").record(
            hyp_cvi, (not hyp_cvi) or o_minus(m, l).is_total, ops
        )
        hyp_cvii = both_total and o_perp(l, m)
        report.result("corcomplql_vii").record(
            hyp_cvii, (not hyp_cvii) or o_eq(m, o_minus(join, l)), ops
        )
        hyp_cviii = both_total and o_eq(o_neg(l), o_neg(m))
        report.result("corcomplql_viii").record(
            hyp_cviii, (not hyp_cviii) or o_eq(l, m), ops
        )

        hyp_wt = both_total and o_leq(o_neg(m), l)
        report.result("wedgetotal").record(
            hyp_wt, (not hyp_wt) or meet.is_total, ops
        )

        zl, ol = l.local_zero(), l.local_one()
        report.result("swapalg1_i").record(True, o_eq(o_neg(zl), ol), ops)
        report.result("swapalg1_ii").record(
            True, o_eq(o_neg(l).local_zero(), zl), ops
        )
        report.result("swapalg1_iv").record(
            True,
            o_eq(zl.local_zero(), zl) and o_eq(ol.local_zero(), zl),
            ops,
        )
        report.result("swapalg1_v").record(True, o_eq(o_join(bottom, l), l), ops)
        report.result("swapalg1_vi").record(True, o_eq(o_meet(zl, l), zl), ops)
        report.result("swapalg1_vii").record(
            True, o_eq(o_meet(top, l), l) and o_eq(o_meet(ol, l), l), ops
        )
        report.result("swapalg1_viii").record(True, o_eq(o_join(ol, l), ol), ops)

        report.result("perp2_i").record(
            both_total,
            (not both_total) or (o_perp(l, m) == perp_rel(l.one, m.one)),
            ops,
        )
        report.result("perp2_ii").record(
            True, o_perp(l, m) == o_perp(m, l), ops
        )
        hyp_p3 = o_perp(l, m) and o_leq(n_pair, l)
        report.result("perp2_iii").record(
            hyp_p3, (not hyp_p3) or o_perp(n_pair, m), ops
        )
        report.result("perp2_iv").record(
            True,
            o_perp(l, o_join(m, n_pair)) == (o_perp(l, m) and o_perp(l, n_pair)),
            ops,
        )
    return report


# --- the partial linear space of operators --------------------------------

@_shared_results()
def check_pls(
    ops: Sequence[PartialOperator], ks: Sequence[Scalar]
) -> LawReport:
    """Evaluate the partial-linear-space laws on a sample of operators.

    Each operator is combined with its successors in the list (wrapping
    around) where a law needs two or three operands, and with the
    scalar at the same index, so the whole evaluation is a function of
    the sample alone.
    """
    report = LawReport()
    for law in PLS_LAWS:
        report.result(law)
    if not ops:
        return report
    if not ks:
        raise ValueError("check_pls needs a nonempty scalar list ks, got []")
    field, dim = ops[0].field, ops[0].ambient_dim
    zero_elem = total_zero(field, dim)
    one = field.one

    # The zero of the whole structure is its own local zero.
    report.result("pl3").record(
        True, op_eq(pls_zero_of(zero_elem), zero_elem), "ambient"
    )

    count = len(ops)
    for idx, t in enumerate(ops):
        u = ops[(idx + 1) % count]
        w = ops[(idx + 2) % count]
        k = ks[idx % len(ks)]
        k2 = ks[(idx + 1) % len(ks)]
        opers = f"T=#{idx} U=#{(idx + 1) % count} k={k} k2={k2}"

        linear = (
            op_eq(pls_add(t, u), pls_add(u, t))
            and op_eq(pls_add(pls_add(t, u), w), pls_add(t, pls_add(u, w)))
            and op_eq(pls_scale(one, t), t)
            and op_eq(pls_scale(k * k2, t), pls_scale(k, pls_scale(k2, t)))
            and op_eq(pls_scale(k, pls_add(t, u)), pls_add(pls_scale(k, t), pls_scale(k, u)))
            and op_eq(pls_scale(k + k2, t), pls_add(pls_scale(k, t), pls_scale(k2, t)))
        )
        report.result("pl_linear").record(True, linear, opers)

        local = pls_zero_of(t)
        neg = pls_negate(t)
        report.result("pl1").record(
            True, op_eq(pls_scale(field.zero, t), local), opers
        )
        report.result("pl2").record(
            True,
            op_eq(pls_add(t, neg), local) and op_eq(pls_zero_of(neg), local),
            opers,
        )
        report.result("pl4").record(
            True, op_eq(pls_zero_of(local), local), opers
        )

        apart_kt, _ = op_neq(pls_scale(k, t), zero_elem)
        if apart_kt:
            apart_local, _ = op_neq(local, zero_elem)
            apart_t, _ = op_neq(t, zero_elem)
            concl = apart_local or (bool(k) and apart_t)
        else:
            concl = True
        report.result("pl5").record(apart_kt, concl, opers)

        report.result("cor_pls1_i").record(
            True, op_eq(pls_add(t, local), t), opers
        )

        # Uniqueness of the partial additive inverse: any candidate that
        # satisfies both defining equations must already equal -T.
        unique = True
        for cand in (neg, pls_add(neg, u), pls_negate(u)):
            defining = op_eq(pls_add(t, cand), local) and op_eq(
                pls_zero_of(cand), local
            )
            if defining and not op_eq(cand, neg):
                unique = False
        report.result("cor_pls1_ii").record(True, unique, opers)

        report.result("cor_pls1_iii").record(
            True, op_eq(pls_scale(-one, t), neg), opers
        )
        report.result("cor_pls1_iv").record(
            True,
            op_eq(pls_zero_of(pls_scale(k, t)), local)
            and op_eq(pls_scale(k, local), local),
            opers,
        )
        report.result("cor_pls1_v").record(
            True,
            op_eq(pls_add(local, pls_zero_of(u)), pls_zero_of(pls_add(t, u))),
            opers,
        )

        both_total = t.is_total and u.is_total
        closed = (not both_total) or (
            pls_add(t, u).is_total
            and pls_scale(k, t).is_total
            and neg.is_total
            and op_eq(local, zero_elem)
            and op_eq(pls_add(t, neg), zero_elem)
        )
        report.result("cor_pls1_vi").record(both_total, closed, opers)

    # A p-linear map between operator spaces is total exactly when its
    # values are all total; probe with one total map and two partial
    # controls, verifying p-linearity of each over the sample.
    candidates = [
        ("constant-zero", lambda t: zero_elem),
        ("pointwise-local-zero", pls_zero_of),
        ("identity", lambda t: t),
    ]
    for name, phi in candidates:
        plinear = op_eq(phi(zero_elem), zero_elem)
        for idx, t in enumerate(ops):
            u = ops[(idx + 1) % count]
            k = ks[idx % len(ks)]
            plinear = (
                plinear
                and op_eq(phi(pls_add(t, u)), pls_add(phi(t), phi(u)))
                and op_eq(phi(pls_scale(k, t)), pls_scale(k, phi(t)))
            )
        # Totality of the map and totality of all its values coincide by
        # definition, so the conclusion cannot fail on its own; what the
        # probe can falsify is p-linearity of the candidate.
        values_total = all(op_eq(pls_zero_of(phi(t)), zero_elem) for t in ops)
        report.result("prp_pls1_iv").record(values_total, plinear, f"phi={name}")
    return report


# --- the clause calculi of ordered pairs and commuting projections ---------

def _record_clauses(report: LawReport, clauses: dict, operands: str) -> None:
    for clause, (applicable, holds, detail) in clauses.items():
        report.result(clause).record(applicable, holds, operands, detail)


@_shared_results()
def check_lescomp(
    pairs: Sequence[tuple[OrthoSubspace, OrthoSubspace]],
) -> LawReport:
    """Evaluate the composite characterization of the order
    (``partial_op.check_order``) on pairs of orthogonal pairs."""
    report = LawReport()
    for law in ORDER_CLAUSES:
        report.result(law)
    for i, (l, m) in enumerate(pairs):
        _record_clauses(report, check_order(l, m), f"pair #{i}")
    return report


@_shared_results()
def check_comm(
    proj_pairs: Sequence[tuple[PartialProjection, PartialProjection]],
    total_pairs: Sequence[tuple[OrthoSubspace, OrthoSubspace]],
) -> LawReport:
    """Evaluate the commuting-projection calculus on pairs of projections
    and Cor. 7 on pairs of orthogonal pairs."""
    report = LawReport()
    for law in COMM_CLAUSES + COR7_CLAUSES:
        report.result(law)
    for i, (p, q) in enumerate(proj_pairs):
        _record_clauses(report, commuting_calculus(p, q), f"pair #{i}")
    for i, (l, m) in enumerate(total_pairs):
        _record_clauses(report, cor7_calculus(l, m), f"pair #{i}")
    return report


# --- counterexample catalog -----------------------------------------------

@dataclass
class Counterexample:
    law: str
    operands: dict
    lhs: Subspace
    rhs: Subspace
    note: str = ""

    def summary(self) -> str:
        binds = ", ".join(f"{k}={v!r}" for k, v in self.operands.items())
        text = f"{self.law} fails at {binds}: lhs={self.lhs!r} rhs={self.rhs!r}"
        return f"{text} ({self.note})" if self.note else text


def _padded(field: Field, dim: int, *entries: int) -> list:
    return [field.coerce(e) for e in entries] + [field.zero] * (dim - len(entries))


def _distributivity_gap(l: Subspace, m: Subspace, n: Subspace) -> Optional[Counterexample]:
    lhs = l.meet(m.join(n))
    rhs = l.meet(m).join(l.meet(n))
    if lhs != rhs:
        return Counterexample(
            "distributivity",
            {"L": l, "M": m, "N": n},
            lhs,
            rhs,
            "meet does not distribute over join",
        )
    return None


def _heyting_gap(k: Subspace, l: Subspace, m: Subspace) -> Optional[Counterexample]:
    below = k.meet(l).leq(m)
    arrow = k.leq(l.perp().join(m))
    if below != arrow:
        return Counterexample(
            "heyting_adjunction",
            {"K": k, "L": l, "M": m},
            k.meet(l),
            l.perp().join(m),
            "K^L <= M and K <= (L => M) disagree",
        )
    return None


def _modularity_gap(l: Subspace, m: Subspace, n: Subspace) -> Optional[Counterexample]:
    if not n.leq(l):
        return None
    lhs = l.meet(m.join(n))
    rhs = l.meet(m).join(n)
    if lhs != rhs:
        return Counterexample(
            "modularity", {"L": l, "M": m, "N": n}, lhs, rhs
        )
    return None


def find_counterexample(
    law: str,
    dim: int,
    field: Field = Field.Q,
    budget: int = 32,
    seed: int = 0,
) -> Optional[Counterexample]:
    """Search for a violating instance; None when none is found.

    Distributivity and the Heyting adjunction are tried on the standard
    two-dimensional witnesses, padded with zeros, which refute both in
    every dimension from 2 on; below 2 neither can fail.

    Modularity holds at finite dimension (sums of subspaces are closed),
    so its search is expected to come back empty, but it is a real one:
    it tries ``budget`` triples (L, M, N) drawn from ``seed`` with
    0 < N < L < H, 0 < M < H and M comparable with neither L nor N.
    Any other triple misses the hypothesis N <= L or is settled by the
    lattice axioms alone, so it could not expose a wrong ``meet`` or
    ``join``.  Such a triple needs three dimensions: at ``dim <= 2``
    nothing is drawn and the result is None.  ``check_catalog`` prints
    the same line whichever triples were tried, as long as none fails."""
    if law not in FAILING_LAWS:
        raise ValueError(f"unknown law {law!r}; expected one of {FAILING_LAWS}")
    _check_size(dim)
    if type(budget) is not int:
        raise TypeError(f"budget {budget!r} is not an int")
    if budget < 0:
        raise ValueError(f"budget {budget} must be nonnegative")
    if dim < 2:
        return None
    gap = {
        "distributivity": _distributivity_gap,
        "heyting_adjunction": _heyting_gap,
        "modularity": _modularity_gap,
    }[law]
    catalog = []
    if law == "distributivity":
        catalog.append(
            (
                Subspace(field, dim, [_padded(field, dim, 1, 0)]),
                Subspace(field, dim, [_padded(field, dim, 0, 1)]),
                Subspace(field, dim, [_padded(field, dim, 1, 1)]),
            )
        )
    elif law == "heyting_adjunction":
        catalog.append(
            (
                Subspace(field, dim, [_padded(field, dim, 1, 0)]),
                Subspace(field, dim, [_padded(field, dim, 1, 1)]),
                Subspace.zero(field, dim),
            )
        )
        catalog.append(
            (
                Subspace(field, dim, [_padded(field, dim, 1, 0)]),
                Subspace(field, dim, [_padded(field, dim, 1, 0)]),
                Subspace(field, dim, [_padded(field, dim, 1, 1)]),
            )
        )
    else:
        catalog = _modular_triples(random.Random(seed), field, dim, budget)
    for triple in catalog:
        found = gap(*triple)
        if found is not None:
            return found
    return None


@_shared_results()
def check_catalog(law: str, dim: int, field: Field) -> LawReport:
    """Search for a violation of one ``FAILING_LAWS`` entry in dimension
    ``max(dim, 2)`` and report it as an expected failure."""
    _check_size(dim)
    report = LawReport()
    res = report.result(law, expected_fail=True)
    found = find_counterexample(law, max(dim, 2), field)
    if found is None:
        res.record(True, True, "no violating instance found")
    else:
        binds = ", ".join(f"{k}={v!r}" for k, v in found.operands.items())
        res.record(True, False, binds, f"lhs={found.lhs!r} rhs={found.rhs!r}")
    return report
