"""Command-line front end: instance files, lattice operations, law runs.

Instance files are JSON: a coefficient field tag, an ambient dimension,
named subspaces given by spanning rows of scalar strings, named
orthogonal pairs referencing two subspace names, and named operators
referencing a domain name plus a square matrix.  Every load checks the
whole file, whichever objects the command names, so a file that loads
is safe to compute with: every scalar, shape, name and reference, and
the orthogonality of each pair, decided on its parts' spanning rows by
``linalg._first_nonorthogonal``, the test that ``coperp_rel`` runs on
bases (orthogonality is bilinear, so no basis is reduced for it).  The
named subspaces, pairs and operators are then built lazily: each the first
time a command reads it, and kept, so a command pays for the objects it
reads.  ``Field.parse`` is the one check of each scalar, in a file or
in a vector argument, run once per distinct text of a file: it builds
the entry exact, and the loader, once it has checked the shapes, stores
the parsed rows, matrices and vectors with ``Matrix._of``/``Vector._of``,
coercing nothing again.

Reports are printed to stdout and are byte-identical for identical
inputs; wall-clock timing goes to stderr, which keeps stdout
diff-friendly.  Exit status: 0 when every law that should hold does
hold, 1 when a violation was found (a library bug, not a user error),
2 for unusable input, 3 for an internal error (an exception orthoql
does not raise on purpose, also a library bug).  Every error exit
writes exactly one ``error:`` line to stderr.  The catalog laws are
tagged expected-fail and never affect the exit status: distributivity
and the Heyting adjunction, which fail on subspace lattices, and also
modularity, which holds at finite dimension.  So a violation that the
modularity search found would be printed but would still exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Mapping
from typing import TYPE_CHECKING, Optional, Sequence

from orthoql.errors import NotInDomain, OrthoQLError, ParseError, _Record
from orthoql.linalg import Matrix, Vector, _first_nonorthogonal, _form
from orthoql.ortho import (
    OrthoSubspace,
    o_eq,
    o_implies,
    o_join,
    o_meet,
    o_minus,
    o_neg,
)
from orthoql.partial_op import (
    PartialOperator,
    PartialProjection,
    decompose,
    op_eq,
    projection_of,
)
from orthoql.quotient import QuotientSpace
from orthoql.scalars import Field, scalar_text
from orthoql.subspace import Subspace

# The law suites and the generators are imported only where a suite runs
# or instances are drawn, so that the commands that do neither never
# load them.
if TYPE_CHECKING:
    from orthoql import laws

__all__ = [
    "EXIT_INTERNAL_ERROR",
    "MAX_DIM",
    "MAX_RANDOM_COUNT",
    "InstanceFile",
    "load_instances",
    "cmd_op",
    "cmd_check",
    "cmd_project",
    "cmd_roundtrip",
    "cmd_quotient",
    "main",
]


EXIT_INTERNAL_ERROR = 3

# Limits on the ambient dimension of a file or of ``--random DIM COUNT``,
# and on COUNT, so that a mistyped value is refused at once instead of
# starting a run whose exact arithmetic has no bound.
MAX_DIM = 16
MAX_RANDOM_COUNT = 10000

# --- instance files ----------------------------------------------------

class _Built(Mapping):
    """Named objects, each built from its checked source the first time
    it is read and then kept, so a name read twice is the same object.
    Membership, iteration and length read the names alone."""

    __slots__ = ("_build", "_sources", "_built")

    def __init__(self, build, sources: dict):
        self._build, self._sources, self._built = build, sources, {}

    def __getitem__(self, name):
        try:
            return self._built[name]
        except KeyError:
            source = self._sources[name]
        built = self._built[name] = self._build(source)
        return built

    def __contains__(self, name) -> bool:
        return name in self._sources

    def __iter__(self):
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)


class InstanceFile(_Record):
    """A loaded file: its field, its dimension and its named objects, as
    read-only mappings that ``load_instances`` fills lazily."""

    __slots__ = ("field", "ambient_dim", "subspaces", "ortho", "operators")

    def __init__(
        self, field: Field, ambient_dim: int, subspaces: Mapping, ortho: Mapping, operators: Mapping
    ):
        self.field, self.ambient_dim = field, ambient_dim
        self.subspaces, self.ortho, self.operators = subspaces, ortho, operators


def _parse_rows(fld: Field, dim: int, rows, where: str, parsed: dict) -> Matrix:
    """The matrix of ``rows``, each a list of ``dim`` scalar strings.
    ``Field.parse`` builds each entry exact, once per distinct text of
    the file (``parsed`` keeps what it built), and the shape is checked
    here, so the matrix is stored with no second check."""
    if not isinstance(rows, list):
        raise ParseError(f"{where}: expected a list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{where}: row {i} must list {dim} scalars")
        for s in row:
            text = str(s)
            x = parsed.get(text)
            if x is None:
                try:
                    x = parsed[text] = fld.parse(text)
                except ParseError as exc:
                    raise ParseError(f"{where}: row {i}: {exc}") from None
            out.append(x)
    return Matrix._of(fld, len(rows), dim, out)


def _section(raw: dict, key: str, path: str):
    """The (name, body) entries of one named section; every body must be
    a JSON object."""
    section = raw.get(key)
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ParseError(f"{path}: {key} must be an object")
    for name, body in section.items():
        if not isinstance(body, dict):
            raise ParseError(f"{path}: {key} entry {name!r} must be an object")
    return section.items()


def load_instances(path: str) -> InstanceFile:
    """The instance file at ``path``, checked whole: every scalar is
    parsed and every shape, name and reference checked, and each pair's
    parts are orthogonal on their spanning rows; the first defect raises
    ``ParseError``.  Each subspace, pair and operator is built from its
    checked rows the first time a command reads it, a pair's parts and
    an operator's domain as the file's subspaces of those names.  None
    of these builds can fail: they are the checked spans, an orthogonal
    pair of them, and a square matrix of the file's dimension on one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # Bytes that are not UTF-8, an integer past CPython's digit limit,
        # or nesting past its recursion limit.
        raise ParseError(f"{path} cannot be read as JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")

    try:
        fld = Field(raw.get("field"))
    except ValueError:
        raise ParseError(f"{path}: field must be \"Q\" or \"Qi\"") from None
    dim = raw.get("ambient_dim")
    if type(dim) is not int or dim < 0:
        raise ParseError(f"{path}: ambient_dim must be a nonnegative integer")
    if dim > MAX_DIM:
        raise ParseError(f"{path}: ambient_dim may be at most {MAX_DIM}")

    parsed = {}
    rows = {}
    for name, body in _section(raw, "subspaces", path):
        if "basis" not in body:
            raise ParseError(f"subspace {name!r}: missing key 'basis'")
        rows[name] = _parse_rows(fld, dim, body["basis"], f"subspace {name!r}", parsed)

    pairs = {}
    for name, body in _section(raw, "ortho", path):
        if name in rows:
            raise ParseError(f"ortho pair {name!r}: the name is already a subspace's")
        refs = []
        for key in ("one", "zero"):
            if key not in body:
                raise ParseError(f"ortho pair {name!r}: missing key {key!r}")
            ref = body[key]
            if not isinstance(ref, str) or ref not in rows:
                raise ParseError(
                    f"ortho pair {name!r}: {key} references unknown subspace {ref!r}"
                )
            refs.append(ref)
        xs, ys = (_form(fld, rows[ref].entries)[1] for ref in refs)
        if _first_nonorthogonal(fld, xs, ys, dim) is not None:
            raise ParseError(
                f"ortho pair {name!r}: components of an orthogonal pair must be orthogonal"
            )
        pairs[name] = tuple(refs)

    matrices = {}
    for name, body in _section(raw, "operators", path):
        if "dom" not in body:
            raise ParseError(f"operator {name!r}: missing key 'dom'")
        ref = body["dom"]
        if not isinstance(ref, str) or ref not in rows:
            raise ParseError(
                f"operator {name!r}: dom references unknown subspace {ref!r}"
            )
        if "matrix" not in body:
            raise ParseError(f"operator {name!r}: missing key 'matrix'")
        matrix = _parse_rows(fld, dim, body["matrix"], f"operator {name!r}", parsed)
        if matrix.nrows != dim:
            raise ParseError(f"operator {name!r}: matrix must have {dim} rows")
        matrices[name] = ref, matrix

    subspaces = _Built(functools.partial(Subspace, fld, dim), rows)

    def build_pair(refs):
        one, zero = refs
        return OrthoSubspace._of(subspaces[one], subspaces[zero])

    def build_operator(source):
        dom, matrix = source
        return PartialOperator.from_matrix(subspaces[dom], matrix)

    ortho, operators = _Built(build_pair, pairs), _Built(build_operator, matrices)
    return InstanceFile(fld, dim, subspaces, ortho, operators)


def _basis_payload(sub: Subspace) -> list:
    return [[scalar_text(e) for e in row] for row in sub.basis.rows()]


def _parse_vector(fld: Field, dim: int, text: str) -> Vector:
    t = text.strip()
    if t[:1] in "([" and t[-1:] in ")]":
        t = t[1:-1]
    parts = [p.strip() for p in t.split(",")] if t.strip() else []
    if len(parts) != dim:
        raise ParseError(f"vector {text!r}: expected {dim} comma-separated scalars")
    try:
        return Vector._of(fld, [fld.parse(p) for p in parts])
    except ParseError as exc:
        raise ParseError(f"vector {text!r}: {exc}") from None


def _vector_text(v: Vector) -> str:
    return "(" + ", ".join(scalar_text(e) for e in v) + ")"


# --- report rendering --------------------------------------------------

def _emit(payload: dict, lines: list, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _law_payload(report: laws.LawReport) -> dict:
    out = {}
    for law in sorted(report.results):
        res = report.results[law]
        out[law] = {
            "expected_fail": res.expected_fail,
            "instances": res.instances,
            "hypothesis_met": res.hypothesis_met,
            "violations": [
                {"operands": v.operands, "witness": v.witness}
                for v in res.violations
            ],
        }
    return out


# --- subcommands --------------------------------------------------------

# Each operation as (on subspaces, on orthogonal pairs).
_OPS = {
    "meet": (lambda a, b: a.meet(b), o_meet),
    "join": (lambda a, b: a.join(b), o_join),
    "minus": (lambda a, b: a.meet(b.perp()), o_minus),
    "implies": (lambda a, b: a.perp().join(b), o_implies),
    "neg": (lambda a: a.perp(), o_neg),
}


def cmd_op(inst: InstanceFile, tokens: Sequence[str], fmt: str) -> int:
    if not tokens:
        raise ParseError("empty expression; expected e.g. 'meet A B'")
    for tok in tokens:
        if "(" in tok or ")" in tok:
            raise ParseError("expressions do not nest; name the intermediate result")
    op = tokens[0].lower()
    plain = op[1:] if op.startswith("o") and op[1:] in _OPS else op
    if plain not in _OPS:
        raise ParseError(f"unknown operation {tokens[0]!r}")
    names = tokens[1:]
    want = 1 if plain == "neg" else 2
    if len(names) != want:
        raise ParseError(f"{plain} takes {want} operand name(s), got {len(names)}")

    args = [inst.subspaces.get(name, inst.ortho.get(name)) for name in names]
    for name, arg in zip(names, args):
        if arg is None:
            raise ParseError(f"unknown instance {name!r}")
    if len({type(arg) for arg in args}) > 1:
        raise ParseError("cannot mix subspaces and orthogonal pairs in one expression")

    on_subspaces, on_pairs = _OPS[plain]
    if isinstance(args[0], Subspace):
        parts = {"basis": on_subspaces(*args)}
    else:
        result = on_pairs(*args)
        parts = {"one": result.one, "zero": result.zero}
    payload = {
        "command": ["op", *tokens],
        "result": {key: _basis_payload(sub) for key, sub in parts.items()},
    }
    lines = [f"op {' '.join(tokens)}"]
    for key, sub in parts.items():
        lines.append(f"{key}:")
        lines += [f"  {_vector_text(r)}" for r in sub.basis.rows()] or ["  (empty)"]
    _emit(payload, lines, fmt)
    return 0


# Every suite, in the order ``all`` runs them, and then ``all``.
_SELECTORS = (
    "clql",
    "complql",
    "order",
    "comm",
    "pls",
    "distributivity",
    "modularity",
    "heyting",
    "all",
)


def _windows(items: list, size: int) -> list:
    n = len(items)
    if n == 0:
        return []
    return [tuple(items[(i + j) % n] for j in range(size)) for i in range(n)]


def _named_sorted(mapping: dict) -> list:
    return [mapping[name] for name in sorted(mapping)]


def _check_suite(
    selector: str,
    inst: Optional[InstanceFile],
    random_spec: Optional[tuple],
    fld: Field,
) -> laws.LawReport:
    from orthoql import laws
    from orthoql.generators import (
        clql_triples,
        commuting_pairs,
        complql_triples,
        non_ordered_ortho_pairs,
        ordered_ortho_pairs,
        orthogonal_total_pair,
        random_partial_operator,
        random_scalar,
        rng_from,
    )

    if random_spec is not None:
        dim, count, seed = random_spec
    else:
        dim, count, seed = None, 0, 0

    if selector == "clql":
        if inst is not None:
            triples = _windows(_named_sorted(inst.subspaces), 3)
        else:
            triples = clql_triples(rng_from(seed), fld, dim, count)
        return laws.check_clql(triples)

    if selector == "complql":
        if inst is not None:
            triples = _windows(_named_sorted(inst.ortho), 3)
        else:
            triples = complql_triples(rng_from(seed), fld, dim, count)
        return laws.check_complql(triples)

    if selector == "order":
        if inst is not None:
            pairs = _windows(_named_sorted(inst.ortho), 2)
        else:
            rng = rng_from(seed)
            pairs = ordered_ortho_pairs(rng, fld, dim, count // 2)
            pairs += non_ordered_ortho_pairs(rng, fld, dim, count - count // 2)
        return laws.check_lescomp(pairs)

    if selector == "comm":
        if inst is not None:
            cor7_pairs = _windows(_named_sorted(inst.ortho), 2)
            proj_pairs = _windows([projection_of(p) for p in _named_sorted(inst.ortho)], 2)
        else:
            rng = rng_from(seed)
            proj_pairs = commuting_pairs(rng, fld, dim, count)
            cor7_pairs = [orthogonal_total_pair(rng, fld, dim) for _ in range(count)]
        return laws.check_comm(proj_pairs, cor7_pairs)

    if selector == "pls":
        if inst is not None:
            ops = _named_sorted(inst.operators)
            ks = [inst.field.coerce(c) for c in (1, 0, -1, 2)]
        else:
            rng = rng_from(seed)
            ops = [
                random_partial_operator(rng, fld, dim, total=(i % 3 == 0))
                for i in range(count)
            ]
            ks = [random_scalar(rng, fld) for _ in range(max(count, 1))]
        return laws.check_pls(ops, ks)

    law = "heyting_adjunction" if selector == "heyting" else selector
    search_dim = dim if dim is not None else (inst.ambient_dim if inst else 2)
    return laws.check_catalog(law, search_dim, fld)


def cmd_check(
    inst: Optional[InstanceFile],
    random_spec: Optional[tuple],
    selector: str,
    fmt: str,
    fld: Field,
) -> int:
    if selector not in _SELECTORS:
        raise ParseError(
            f"unknown law selector {selector!r}; expected one of {', '.join(_SELECTORS)}"
        )
    from orthoql import laws

    selectors = _SELECTORS[:-1] if selector == "all" else (selector,)
    report = laws.LawReport()
    for sel in selectors:
        report.merge(_check_suite(sel, inst, random_spec, fld))

    payload = {
        "command": ["check", selector],
        "laws": _law_payload(report),
        "ok": report.ok,
        "unexpected_violations": report.unexpected_violations,
    }
    lines = report.summary().splitlines()
    lines.append(
        f"result: {'ok' if report.ok else 'VIOLATIONS'} "
        f"(unexpected violations: {report.unexpected_violations})"
    )
    _emit(payload, lines, fmt)
    return 0 if report.ok else 1


def cmd_project(inst: InstanceFile, name: str, vector_text: str, fmt: str) -> int:
    if name not in inst.ortho:
        raise ParseError(f"unknown orthogonal pair {name!r}")
    pair = inst.ortho[name]
    x = _parse_vector(inst.field, inst.ambient_dim, vector_text)
    try:
        l1, l0 = decompose(pair, x)
    except NotInDomain:
        payload = {"command": ["project", name], "x": _vector_text(x), "result": "NotInDomain"}
        _emit(payload, [f"project {name} {_vector_text(x)}", "NotInDomain"], fmt)
        return 0
    payload = {
        "command": ["project", name],
        "x": _vector_text(x),
        "one_part": _vector_text(l1),
        "zero_part": _vector_text(l0),
    }
    lines = [
        f"project {name} {_vector_text(x)}",
        f"one_part:  {_vector_text(l1)}",
        f"zero_part: {_vector_text(l0)}",
    ]
    _emit(payload, lines, fmt)
    return 0


def cmd_roundtrip(
    inst: Optional[InstanceFile], random_spec: Optional[tuple], fmt: str, fld: Field
) -> int:
    if inst is not None:
        pairs = [(name, inst.ortho[name]) for name in sorted(inst.ortho)]
    else:
        from orthoql.generators import random_ortho, rng_from

        dim, count, seed = random_spec
        rng = rng_from(seed)
        pairs = [(f"#{i}", random_ortho(rng, fld, dim)) for i in range(count)]
    verdicts = {}
    bad = 0
    for name, pair in pairs:
        p = projection_of(pair)
        # Re-validate the images and read the pair back off them.
        again = PartialProjection.from_matrix(p.dom, p.matrix)
        good = o_eq(again.pair, pair) and op_eq(again, p)
        verdicts[name] = "equal" if good else "MISMATCH"
        bad += 0 if good else 1
    payload = {"command": ["roundtrip"], "verdicts": verdicts, "mismatches": bad}
    lines = [f"{name}: {verdicts[name]}" for name, _ in pairs]
    lines.append(f"result: {'ok' if bad == 0 else 'MISMATCHES'} ({len(pairs)} instances)")
    _emit(payload, lines, fmt)
    return 0 if bad == 0 else 1


def cmd_quotient(
    inst: InstanceFile, name: str, x_text: str, y_text: str, fmt: str
) -> int:
    if name not in inst.ortho:
        raise ParseError(f"unknown orthogonal pair {name!r}")
    pair = inst.ortho[name]
    x = _parse_vector(inst.field, inst.ambient_dim, x_text)
    y = _parse_vector(inst.field, inst.ambient_dim, y_text)
    q = QuotientSpace(pair)
    try:
        equal = q.q_eq(x, y)
        inner_val = q.q_inner(x, y)
    except NotInDomain as exc:
        payload = {"command": ["quotient", name], "result": "NotInDomain", "detail": str(exc)}
        _emit(payload, [f"quotient {name}", f"NotInDomain: {exc}"], fmt)
        return 0
    payload = {
        "command": ["quotient", name],
        "x": _vector_text(x),
        "y": _vector_text(y),
        "equal": equal,
        "inner": scalar_text(inner_val),
    }
    lines = [
        f"quotient {name} {_vector_text(x)} {_vector_text(y)}",
        f"equal: {str(equal).lower()}",
        f"inner: {scalar_text(inner_val)}",
    ]
    _emit(payload, lines, fmt)
    return 0


# --- argument wiring -----------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="orthoql",
        description="exact lattice and partial-projection calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, random_ok=False):
        p.add_argument("--file", help="instance file (JSON)")
        if random_ok:
            p.add_argument(
                "--random",
                nargs=3,
                type=int,
                metavar=("DIM", "COUNT", "SEED"),
                help="generate instances over Q instead of reading a file "
                f"(DIM <= {MAX_DIM}, COUNT <= {MAX_RANDOM_COUNT})",
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt"
        )

    p_op = sub.add_parser("op", help="apply one lattice operation to named instances")
    add_common(p_op)
    p_op.add_argument("expr", nargs="+", help="operation followed by operand names")

    p_check = sub.add_parser("check", help="run law suites and report verdicts")
    add_common(p_check, random_ok=True)
    p_check.add_argument("--laws", default="all", help=f"one of {', '.join(_SELECTORS)}")

    p_project = sub.add_parser("project", help="split a vector along an orthogonal pair")
    add_common(p_project)
    p_project.add_argument("ortho", help="name of the orthogonal pair")
    p_project.add_argument("vector", help="vector like (2,3,0)")

    p_round = sub.add_parser(
        "roundtrip", help="verify the pair/projection correspondence on instances"
    )
    add_common(p_round, random_ok=True)

    p_quot = sub.add_parser("quotient", help="compare two vectors in a quotient")
    add_common(p_quot)
    p_quot.add_argument("ortho", help="name of the orthogonal pair")
    p_quot.add_argument("x", help="first vector")
    p_quot.add_argument("y", help="second vector")
    return parser


def _load_if_needed(args) -> Optional[InstanceFile]:
    # Only the subcommands that accept --random have the attribute.
    has_random = getattr(args, "random", None) is not None
    if args.file and has_random:
        raise ParseError("choose one of --file or --random, not both")
    if args.file:
        return load_instances(args.file)
    if not has_random:
        raise ParseError("an instance file is required (or --random where supported)")
    dim, count, seed = args.random
    if dim < 0 or count < 0:
        raise ParseError("--random needs a nonnegative dimension and count")
    if dim > MAX_DIM or count > MAX_RANDOM_COUNT:
        raise ParseError(
            f"--random allows a dimension up to {MAX_DIM} "
            f"and a count up to {MAX_RANDOM_COUNT}"
        )
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        inst = _load_if_needed(args)
        fld = inst.field if inst is not None else Field.Q
        spec = None if inst is not None else tuple(args.random)
        if args.command == "op":
            code = cmd_op(inst, args.expr, args.fmt)
        elif args.command == "check":
            code = cmd_check(inst, spec, args.laws, args.fmt, fld)
        elif args.command == "project":
            code = cmd_project(inst, args.ortho, args.vector, args.fmt)
        elif args.command == "roundtrip":
            code = cmd_roundtrip(inst, spec, args.fmt, fld)
        else:
            code = cmd_quotient(inst, args.ortho, args.x, args.y, args.fmt)
    except OrthoQLError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # repr keeps the report on one line.
        sys.stderr.write(f"error: internal error: {exc!r}\n")
        return EXIT_INTERNAL_ERROR
    sys.stderr.write(f"elapsed: {time.monotonic() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
