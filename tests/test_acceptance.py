"""The package's headline guarantees, each checked end to end with exact
arithmetic and summarized as a single pass/fail line."""

import itertools
from fractions import Fraction as F

import oracle
from conftest import ACCEPTANCE_LINES, sub_to_oracle, to_vec
from orthoql.errors import NotInDomain
from orthoql.generators import (
    clql_triples,
    commuting_pairs,
    complql_triples,
    non_ordered_ortho_pairs,
    ordered_ortho_pairs,
    orthogonal_total_pair,
    quotient_samples,
    random_member,
    random_ortho,
    random_partial_operator,
    rng_from,
)
from orthoql.laws import (
    LawReport,
    check_clql,
    check_complql,
    check_pls,
    find_counterexample,
)
from orthoql.linalg import Vector, inner, norm_sq
from orthoql.ortho import OrthoSubspace, o_eq, o_leq, o_neg
from orthoql.partial_op import (
    PartialProjection,
    check_order,
    commuting_calculus,
    compose,
    cor7_calculus,
    decompose,
    norm_sq_is_one,
    op_eq,
    op_eq_witness,
    pls_add,
    pls_negate,
    pls_scale,
    projection_of,
    subspaces_of,
)
from orthoql.quotient import QuotientSpace
from orthoql.scalars import Field
from orthoql.subspace import Subspace


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def q2(*rows):
    return Subspace(Field.Q, 2, rows)


def test_criterion_1_catalog_counterexamples():
    ce = find_counterexample("distributivity", 2)
    d_ok = (
        ce is not None
        and ce.operands == {"L": q2([1, 0]), "M": q2([0, 1]), "N": q2([1, 1])}
        and ce.lhs == q2([1, 0])
        and ce.rhs == Subspace.zero(Field.Q, 2)
    )
    h = find_counterexample("heyting_adjunction", 2)
    h_ok = (
        h is not None
        and h.operands["K"] == q2([1, 0])
        and h.operands["L"] == q2([1, 1])
        and h.operands["M"] == Subspace.zero(Field.Q, 2)
        and h.operands["K"].meet(h.operands["L"]).leq(h.operands["M"])
        and not h.operands["K"].leq(h.operands["L"].perp().join(h.operands["M"]))
    )
    # The verdict machinery must tag these as expected failures, by the
    # law's name alone, that leave the overall outcome clean.
    report = LawReport()
    res = report.result("distributivity")
    res.record(True, False, ce.summary() if ce else "")
    tagged_ok = (
        res.expected_fail
        and not report.result("clql1").expected_fail
        and not res.passed
        and report.ok
        and report.unexpected_violations == 0
    )
    verdict(
        1,
        d_ok and h_ok and tagged_ok,
        "distributivity and adjunction counterexamples reproduced with exact operands",
    )


def test_criterion_2_subspace_lattice_laws():
    rng = rng_from(1002)
    report = check_clql(clql_triples(rng, Field.Q, 4, 200))
    report.merge(check_clql(clql_triples(rng, Field.Qi, 3, 200)))
    per_triple = report.results["clql1"].instances
    ok = report.ok and per_triple >= 400
    verdict(
        2,
        ok,
        f"lattice laws on {per_triple} triples (Q^4 and Qi^3), "
        f"violations={report.unexpected_violations}",
    )


def test_criterion_3_splitting():
    rng = rng_from(1003)
    checked = 0
    rejected = 0
    ok = True
    for k in range(200):
        field = Field.Qi if k % 2 else Field.Q
        dim = 3 if field is Field.Qi else 4
        pair = random_ortho(rng, field, dim)
        x = random_member(rng, pair.dom)
        l1, l0 = decompose(pair, x)
        ok &= l1 + l0 == x
        ok &= pair.one.contains(l1) and pair.zero.contains(l0)
        ok &= l1 == pair.one.project(x) and l0 == pair.zero.project(x)
        ok &= norm_sq(x) == norm_sq(l1) + norm_sq(l0)
        ok &= pair.one.distance_sq(x) == norm_sq(l0)
        ok &= pair.zero.distance_sq(x) == norm_sq(l1)
        got = oracle.decompose(
            sub_to_oracle(pair.one), sub_to_oracle(pair.zero), to_vec(x), dim
        )
        ok &= got == (to_vec(l1), to_vec(l0))
        if not pair.dom.is_full:
            outside = x + pair.dom.perp().basis.row(0)
            ok &= pair.dom.distance_sq(outside) > 0
            try:
                decompose(pair, outside)
                ok = False
            except NotInDomain:
                rejected += 1
        checked += 1
        if not ok:
            break
    verdict(
        3,
        ok and checked == 200,
        f"splitting on {checked} pairs, {rejected} outside-domain rejections, "
        f"all parts, distances, and oracle values exact",
    )


def test_criterion_4_pair_projection_bijection():
    rng = rng_from(1004)
    ok = True
    totals = stricts = 0
    for k in range(200):
        field = Field.Qi if k % 3 == 0 else Field.Q
        pair = random_ortho(rng, field, 3)
        p = projection_of(pair)
        # Read the pair back off the validated images, not off p.
        back = subspaces_of(PartialProjection.from_matrix(p.dom, p.matrix))
        ok &= o_eq(back, pair)
        ok &= op_eq(projection_of(back), p)
        ok &= pair.is_total == p.is_total
        ok &= pair.is_strict == norm_sq_is_one(p)
        totals += pair.is_total
        stricts += pair.is_strict
        if not ok:
            break
    verdict(
        4,
        ok,
        f"pair/projection roundtrips on 200 pairs "
        f"({totals} total, {stricts} strict), both directions exact",
    )


def test_criterion_5_pair_lattice_laws():
    rng = rng_from(1005)
    report = check_complql(complql_triples(rng, Field.Q, 3, 120))
    report.merge(check_complql(complql_triples(rng, Field.Qi, 2, 80)))
    hyp7 = report.results["complql7"].hypothesis_met
    hyp8 = report.results["complql8"].hypothesis_met
    ok = report.ok and hyp7 > 0 and hyp8 > 0
    verdict(
        5,
        ok,
        f"pair laws on 200 triples, violations={report.unexpected_violations}, "
        f"gated hypotheses met: complql7={hyp7}, complql8={hyp8}",
    )


def test_criterion_6_order_characterization():
    rng = rng_from(1006)
    ok = True
    for l, m in ordered_ortho_pairs(rng, Field.Q, 4, 100):
        clauses = check_order(l, m)
        ok &= o_leq(l, m)
        for clause in (
            "lescomp1_i",
            "lescomp1_iia",
            "lescomp1_meet",
            "lescomp1_iiia",
            "lescomp1_iva",
        ):
            ok &= clauses[clause][:2] == (True, True)
        if not ok:
            break
    witnesses = 0
    for l, m in non_ordered_ortho_pairs(rng, Field.Q, 3, 100):
        clauses = check_order(l, m)
        ok &= not o_leq(l, m)
        ok &= clauses["lescomp1_i"][:2] == (True, True)
        p_l1, p_m1 = projection_of(l), projection_of(m)
        p_l0, p_m0 = projection_of(o_neg(l)), projection_of(o_neg(m))
        w1 = op_eq_witness(compose(p_m1, p_l1), p_l1)
        w0 = op_eq_witness(compose(p_l0, p_m0), p_m0)
        witnesses += (w1 is not None) or (w0 is not None)
        if not ok:
            break
    ok &= witnesses == 100
    verdict(
        6,
        ok,
        "order clauses on 100 ordered pairs (meet identity on each) and "
        f"100 non-ordered pairs, composite witnesses={witnesses}",
    )


def test_criterion_7_commutation():
    rng = rng_from(1007)
    ok = True
    gated = 0
    for p, q in commuting_pairs(rng, Field.Q, 4, 100):
        clauses = commuting_calculus(p, q)
        for clause in ("comm1_i", "comm1_ii", "comm1_iii"):
            ok &= clauses[clause][:2] == (True, True)
        # comm1_iv holds, or its hypothesis is not met.
        applicable, holds, _ = clauses["comm1_iv"]
        ok &= holds
        gated += applicable
        if not ok:
            break
    cor_ok = 0
    for _ in range(100):
        l, m = orthogonal_total_pair(rng, Field.Q, 3)
        clauses = cor7_calculus(l, m)
        ok &= all(holds for _, holds, _ in clauses.values())
        cor_ok += clauses["cor7_ii"][:2] == clauses["cor7_iii"][:2] == (True, True)
        if not ok:
            break
    ok &= gated > 0 and cor_ok == 100
    verdict(
        7,
        ok,
        f"commuting calculus on 100 pairs (clause iv hypothesis met {gated} "
        f"times), total-orthogonal corollary on {cor_ok} pairs",
    )


def test_criterion_8_operator_algebra():
    rng = rng_from(1008)
    ops = [
        random_partial_operator(rng, Field.Q, 3, total=(i % 3 == 0))
        for i in range(200)
    ]
    ks = [Field.Q.coerce(c) for c in (2, F(-1, 2), 0, 3, F(5, 3))]
    report = check_pls(ops, ks)
    totals = [t for t in ops if t.is_total][:20]
    closed = all(
        pls_add(t, u).is_total
        and pls_scale(ks[0], t).is_total
        and pls_negate(t).is_total
        for t, u in zip(totals, totals[1:])
    )
    ok = (
        report.ok
        and closed
        and report.results["pl5"].hypothesis_met > 0
        and report.results["cor_pls1_vi"].hypothesis_met > 0
        and report.results["prp_pls1_iv"].hypothesis_met > 0
    )
    verdict(
        8,
        ok,
        f"linear-structure laws on 200 operators, "
        f"violations={report.unexpected_violations}, totals closed "
        f"under sum, scale, and negation",
    )


def test_criterion_9_quotients():
    rng = rng_from(1009)
    samples = quotient_samples(rng, Field.Q, 4, 120)
    samples += quotient_samples(rng, Field.Qi, 3, 80)
    ok = True
    total_cases = 0
    for q, x, y, z in samples:
        ok &= q.q_eq(x, x)
        ok &= q.q_eq(x, y) == q.q_eq(y, x)
        if q.q_eq(x, y) and q.q_eq(y, z):
            ok &= q.q_eq(x, z)
        if q.base.one.is_strict:
            shift = q.base.one.basis.row(0)
            ok &= q.q_eq(x, x + shift)
            ok &= q.q_inner(x + shift, y) == q.q_inner(x, y)
        ix, iy = q.q_iso(x), q.q_iso(y)
        ok &= q.base.zero.contains(ix)
        ok &= q.q_inner(x, y) == inner(ix, iy)
        ok &= q.q_norm_sq(x) <= norm_sq(x)
        if q.base.is_total:
            total_cases += 1
            d = x - y
            ok &= q.q_norm_sq(d) == q.base.one.distance_sq(d)
            ok &= q.q_eq(x, y) == (q.base.one.distance_sq(d) == 0)
        if not ok:
            break
    for k in range(10):
        base = OrthoSubspace.total_from(
            Subspace(Field.Q, 3, [[1, k, 0], [0, 0, 1]])
        )
        q = QuotientSpace(base)
        x = random_member(rng, base.dom)
        y = random_member(rng, base.dom)
        total_cases += 1
        ok &= q.q_norm_sq(x - y) == base.one.distance_sq(x - y)
        ok &= q.q_eq(x, y) == (base.one.distance_sq(x - y) == 0)
    verdict(
        9,
        ok and total_cases >= 10,
        f"quotient laws on {len(samples)} samples, distance agreement on "
        f"{total_cases} total pairs",
    )


def _sign_direction_reps():
    seen = set()
    directions = []
    for entries in itertools.product((-1, 0, 1), repeat=3):
        if all(e == 0 for e in entries):
            continue
        flipped = tuple(-e for e in entries)
        if flipped in seen:
            continue
        seen.add(entries)
        directions.append(entries)
    return directions


def test_criterion_10_oracle_equivalence():
    directions = _sign_direction_reps()
    assert len(directions) == 13
    reps = {}
    for size in range(4):
        for combo in itertools.combinations(directions, size):
            sub = Subspace(Field.Q, 3, combo)
            reps.setdefault(sub, sub_to_oracle(sub))
    disagreements = 0
    pairs = 0
    for a, oa in reps.items():
        if sub_to_oracle(a.perp()) != oracle.s_perp(oa, 3):
            disagreements += 1
        for b, ob in reps.items():
            pairs += 1
            if sub_to_oracle(a.meet(b)) != oracle.s_meet(oa, ob, 3):
                disagreements += 1
            if sub_to_oracle(a.join(b)) != oracle.s_join(oa, ob, 3):
                disagreements += 1
            if a.leq(b) != oracle.s_leq(oa, ob, 3):
                disagreements += 1
            if (a == b) != oracle.s_eq(oa, ob, 3):
                disagreements += 1

    rep_list = list(reps.items())
    law_checks = 0
    for i in range(0, len(rep_list), 5):
        for j in range(1, len(rep_list), 9):
            k = (i + j) % len(rep_list)
            (l, ol), (m, om), (n, on) = rep_list[i], rep_list[j], rep_list[k]
            lib_dist = l.meet(m.join(n)) == l.meet(m).join(l.meet(n))
            if lib_dist != oracle.law_distributive(ol, om, on, 3):
                disagreements += 1
            lib_dm = l.join(m).perp() == l.perp().meet(m.perp())
            if lib_dm != oracle.law_de_morgan_join(ol, om, 3):
                disagreements += 1
            lib_dm2 = l.meet(m).perp() == l.perp().join(m.perp())
            if lib_dm2 != oracle.law_de_morgan_meet(ol, om, 3):
                disagreements += 1
            # The remaining two laws carry an order premise, so feed
            # them pairs that satisfy it by construction.
            big = l.join(m)
            lib_ortho = big == l.join(big.meet(l.perp()))
            if lib_ortho != oracle.law_orthomodular(ol, sub_to_oracle(big), 3):
                disagreements += 1
            small = l.meet(n)
            lib_mod = l.meet(m.join(small)) == l.meet(m).join(small)
            if lib_mod != oracle.law_modular(ol, om, sub_to_oracle(small), 3):
                disagreements += 1
            law_checks += 5

    split_checks = 0
    for a, oa in rep_list:
        pair = OrthoSubspace.total_from(a)
        x = Vector(Field.Q, [F(1), F(-2), F(3)])
        l1, l0 = decompose(pair, x)
        want = oracle.decompose(oa, sub_to_oracle(a.perp()), to_vec(x), 3)
        if want != (to_vec(l1), to_vec(l0)):
            disagreements += 1
        split_checks += 1

    verdict(
        10,
        disagreements == 0,
        f"oracle agreement over {len(reps)} sign-vector subspaces: "
        f"{pairs} operation pairs, {law_checks} law evaluations, "
        f"{split_checks} splittings, disagreements={disagreements}",
    )
