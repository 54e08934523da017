"""The four workloads of the orthoql benchmark.

Each workload turns the workload seed into a fixed list of units during
set-up; a pass runs every unit once, in order, in this process, one
caller at a time (a closed loop).  The package never sees the seed,
only the inputs made from it.  ``run`` returns a unit's output text (to
be digested; None for a unit judged by its outcome only) and its
outcome; ``expected`` says whether that outcome is the right one.

Nothing here imports orthoql at module level, so that set-up time
includes the package import.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

SUITES = (
    "clql",
    "complql",
    "order",
    "comm",
    "pls",
    "distributivity",
    "modularity",
    "heyting",
)
# Suites whose laws fail on Hilbert lattices, with the violation count
# ``check`` must report for each: the catalog refutes distributivity and
# the Heyting adjunction, and modularity holds at finite dimension.
EXPECTED_FAIL = {
    "distributivity": "distributivity: instances=1 hypothesis_met=1 violations=1 [expected-fail]",
    "heyting": "heyting_adjunction: instances=1 hypothesis_met=1 violations=1 [expected-fail]",
    "modularity": "modularity: instances=1 hypothesis_met=1 violations=0 [expected-fail]",
}
# The suites ``check`` answers from the counterexample catalog: a fixed
# search that uses neither the instance count nor the seed.
CATALOG = ("distributivity", "modularity", "heyting")

ROOT = Path(__file__).resolve().parent.parent


def seed_list(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def suite_units(seeds: list[int]) -> list[tuple[str, int]]:
    """(suite, seed) units: the seeded suites once per seed, and the
    catalog suites, which ignore the seed, once per pass."""
    return [(suite, s) for k, s in enumerate(seeds) for suite in SUITES if k == 0 or suite not in CATALOG]


def captured(fn, *args) -> tuple[str, str, object]:
    """Call ``fn(*args)``; return its stdout, its stderr and its exit
    code, or the name of the exception where the real command would
    have ended in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fn(*args)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - the unit's outcome, judged by expected()
            code = f"raised {type(exc).__name__}"
    return out.getvalue(), err.getvalue(), code


def rejected(out: str, err: str, code) -> bool:
    """The input-error contract: exit 2, nothing on stdout, one error line."""
    return code == 2 and out == "" and err.count("error:") == 1


def verdicts_ok(suite: str, text: str) -> bool:
    """Every law that should hold held, and each expected-fail law got
    the verdict the paper gives it."""
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("result: ok"):
        return False
    return suite not in EXPECTED_FAIL or EXPECTED_FAIL[suite] in lines


class Workload:
    """What the workloads share.  Set-up fills ``unit_list``."""

    warmup = False  # whether units share caches that an untimed pass fills
    unit_list: list

    def suite_of(self, unit):
        """The law suite a unit runs, if any."""
        return None

    def verify(self) -> list[str]:
        """Problems found by an independent check of the outputs."""
        return []


class CheckQ4(Workload):
    """The eight law suites over Q^4 through ``orthoql check --random``:
    the five seeded suites for each derived seed, the catalog suites once."""

    name = "check-q4"
    dim = 4
    count = 4
    seeds = 6

    def setup(self, seed: int, workdir: str) -> None:
        import orthoql.cli  # noqa: F401 - set-up includes the import

        self.unit_list = suite_units(seed_list(seed, self.seeds))

    def suite_of(self, unit) -> str:
        return unit[0]

    def argv(self, unit) -> list[str]:
        suite, s = unit
        return ["check", "--random", str(self.dim), str(self.count), str(s), "--laws", suite]

    def run(self, unit):
        from orthoql import cli

        out, _, code = captured(cli.main, self.argv(unit))
        return out, code

    def expected(self, unit, text, code) -> bool:
        return code == 0 and verdicts_ok(unit[0], text)


class CheckQi3(CheckQ4):
    """The eight law suites over Q(i)^3.

    ``check --random`` only draws over Q, so each unit calls ``check``'s
    own entry point, ``orthoql.cli.cmd_check``, with Field.Qi.
    """

    name = "check-qi3"
    dim = 3
    # More seeds than check-q4: with six, unit_p50_ms moved by ~10% from
    # seed to seed (interquartile range over median); with nine, by ~7%.
    seeds = 9

    def setup(self, seed: int, workdir: str) -> None:
        from orthoql.scalars import Field

        super().setup(seed, workdir)
        self.field = Field.Qi

    def run(self, unit):
        from orthoql import cli

        suite, s = unit
        out, _, code = captured(cli.cmd_check, None, (self.dim, self.count, s), suite, "text", self.field)
        return out, code


# --- lattice-q6 ------------------------------------------------------------

def small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_rows(rng: random.Random, dim: int, rank: int) -> list[list[Fraction]]:
    return [[small_rational(rng) for _ in range(dim)] for _ in range(rank)]


def combination(rng: random.Random, rows) -> list:
    """A random combination of the given rows (field scalars)."""
    acc = None
    for row in rows:
        k = small_rational(rng)
        term = [k * e for e in row]
        acc = term if acc is None else [a + b for a, b in zip(acc, term)]
    return acc


class LatticeQ6(Workload):
    """A seeded pool of subspaces and orthogonal pairs of Q^6, queried
    with a fixed mix of reads and writes.  Pool objects are reused, so
    their cached orthocomplements and projectors are hit."""

    name = "lattice-q6"
    dim = 6
    pool_size = 32
    ortho_size = 16
    vector_count = 32
    queries = 6000
    warmup = True
    oracle_sample = 24
    # op -> weight; reads first, then writes that build new canonical bases.
    MIX = {
        "leq": 24,
        "contains": 20,
        "distance_sq": 16,
        "o_leq": 10,
        "meet": 12,
        "join": 8,
        "perp": 4,
        "o_implies": 6,
    }

    def setup(self, seed: int, workdir: str) -> None:
        from orthoql.linalg import Vector
        from orthoql.ortho import OrthoSubspace
        from orthoql.scalars import Field
        from orthoql.subspace import Subspace

        rng = random.Random(seed)
        q, n = Field.Q, self.dim
        # Fixed shapes: the seed picks entries, operands and order, while
        # ranks and the count of each operation stay the same.
        self.pool = [Subspace(q, n, random_rows(rng, n, 1 + k % (n - 1))) for k in range(self.pool_size)]
        self.ortho = []
        for k in range(self.ortho_size):
            one = Subspace(q, n, random_rows(rng, n, 1 + k % (n - 2)))
            perp_rows = [list(r) for r in one.perp().basis.rows()]
            zero_rows = [combination(rng, perp_rows) for _ in range(len(perp_rows) - k % 3)]
            self.ortho.append(OrthoSubspace(one, Subspace(q, n, zero_rows)))
        self.vectors = []
        for k in range(self.vector_count):
            if k % 2:
                rows = [list(r) for r in self.pool[k].basis.rows()]
                self.vectors.append(Vector(q, combination(rng, rows)))
            else:
                self.vectors.append(Vector(q, random_rows(rng, n, 1)[0]))
        total = sum(self.MIX.values())
        self.unit_list = []
        for op, weight in self.MIX.items():
            size = len(self.ortho) if op.startswith("o_") else len(self.pool)
            second = len(self.vectors) if op in ("contains", "distance_sq") else size
            for _ in range(self.queries * weight // total):
                self.unit_list.append((op, rng.randrange(size), rng.randrange(second)))
        rng.shuffle(self.unit_list)
        self.oracle_units = rng.sample(
            [u for u in self.unit_list if u[0] in ("meet", "join", "perp", "leq", "distance_sq")],
            self.oracle_sample,
        )

    def result(self, unit):
        from orthoql import ortho

        op, i, j = unit
        if op == "o_leq":
            return ortho.o_leq(self.ortho[i], self.ortho[j])
        if op == "o_implies":
            return ortho.o_implies(self.ortho[i], self.ortho[j])
        a = self.pool[i]
        if op == "contains":
            return a.contains(self.vectors[j])
        if op == "distance_sq":
            return a.distance_sq(self.vectors[j])
        if op == "perp":
            return a.perp()
        return getattr(a, op)(self.pool[j])

    def run(self, unit):
        return render(self.result(unit)), 0

    def expected(self, unit, text, code) -> bool:
        return code == 0

    def verify(self) -> list[str]:
        """Compare a seeded sample of results with the independent oracle."""
        oracle = load_oracle()
        n = self.dim
        problems = []
        for unit in self.oracle_units:
            op, i, j = unit
            got = self.result(unit)
            a = to_oracle(self.pool[i].basis.rows())
            if op == "distance_sq":
                want = oracle.distance_sq(to_oracle([self.vectors[j]])[0], a, n)
                same = got == want
            elif op == "leq":
                same = got == oracle.s_leq(a, to_oracle(self.pool[j].basis.rows()), n)
            else:
                b = to_oracle(self.pool[j].basis.rows())
                want = {
                    "meet": lambda: oracle.s_meet(a, b, n),
                    "join": lambda: oracle.s_join(a, b, n),
                    "perp": lambda: oracle.s_perp(a, n),
                }[op]()
                same = oracle.s_eq(to_oracle(got.basis.rows()), want, n)
            if not same:
                problems.append(f"oracle disagrees on {unit}")
        return problems


def render(result) -> str:
    """Canonical text of a query result."""
    from orthoql.ortho import OrthoSubspace
    from orthoql.scalars import scalar_text
    from orthoql.subspace import Subspace

    def rows(sub):
        return ";".join(",".join(scalar_text(e) for e in r) for r in sub.basis.rows())

    if isinstance(result, OrthoSubspace):
        return f"one={rows(result.one)} zero={rows(result.zero)}"
    if isinstance(result, Subspace):
        return rows(result)
    if isinstance(result, bool):
        return str(result)
    return scalar_text(result)


def load_oracle():
    """tests/oracle.py, the package-independent reference, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def to_oracle(vectors) -> tuple:
    from orthoql.scalars import GaussianRational

    def pair(e):
        return (e.re, e.im) if isinstance(e, GaussianRational) else (Fraction(e), Fraction(0))

    return tuple(tuple(pair(e) for e in v) for v in vectors)


# --- cli-files -------------------------------------------------------------

# Malformed instance files.  The first four reproduce the input-boundary
# defects known when the benchmark was written (a subspace or pair body
# that is not an object, the scalar "1/0", "ambient_dim": true); they and
# the "1/0" vector in ``bad_commands`` miss the exit-2 contract and count
# as failed units until fixed.
BAD_FILES = {
    "body-not-object": {"field": "Q", "ambient_dim": 2, "subspaces": {"A": [["1", "0"]]}},
    "pair-not-object": {
        "field": "Q",
        "ambient_dim": 2,
        "subspaces": {"A": {"basis": [["1", "0"]]}},
        "ortho": {"P": ["A", "A"]},
    },
    "scalar-1/0": {"field": "Q", "ambient_dim": 2, "subspaces": {"A": {"basis": [["1/0", "1"]]}}},
    "ambient-dim-true": {"field": "Q", "ambient_dim": True, "subspaces": {"A": {"basis": [["1"]]}}},
    "top-level-list": [],
    "bad-field": {"field": "R", "ambient_dim": 2},
    "negative-dim": {"field": "Q", "ambient_dim": -1},
    "row-length": {"field": "Q", "ambient_dim": 4, "subspaces": {"A": {"basis": [["1", "2"]]}}},
    "bad-scalar": {"field": "Qi", "ambient_dim": 2, "subspaces": {"A": {"basis": [["abc", "1"]]}}},
    "not-orthogonal": {
        "field": "Q",
        "ambient_dim": 2,
        "subspaces": {"A": {"basis": [["1", "1"]]}},
        "ortho": {"P": {"one": "A", "zero": "A"}},
    },
    "unknown-ref": {
        "field": "Q",
        "ambient_dim": 2,
        "subspaces": {"A": {"basis": [["1", "0"]]}},
        "ortho": {"P": {"one": "A", "zero": "Z"}},
    },
}
SUITES_FOR_FILES = ("clql", "complql", "order", "comm", "pls", "distributivity", "heyting")
OPS = ("meet", "join", "minus", "implies", "neg")


def scalar_string(rng: random.Random, field) -> str:
    from orthoql.scalars import GaussianRational, scalar_text

    if field.value == "Qi":
        return scalar_text(GaussianRational(small_rational(rng), small_rational(rng)))
    return scalar_text(small_rational(rng))


class CliFiles(Workload):
    """Single ``orthoql`` commands on seeded Q^4 and Qi^3 instance files,
    in text and JSON formats, with a fixed share of malformed files,
    vectors and flags (each malformed command twice per pass)."""

    name = "cli-files"
    files_per_field = 3
    bad_rounds = 2

    def setup(self, seed: int, workdir: str) -> None:
        from orthoql.scalars import Field

        rng = random.Random(seed)
        self.files = {}
        good = []
        for field, dim in ((Field.Q, 4), (Field.Qi, 3)):
            for k in range(self.files_per_field):
                payload, members = self.instance_file(rng, field, dim)
                path = self.write(workdir, f"good-{field.value}-{k}", payload)
                self.files.setdefault(field.value, path)
                good += self.good_commands(rng, path, members)
        for label, payload in BAD_FILES.items():
            self.files[label] = self.write(workdir, label.replace("/", "-"), payload)
        broken = os.path.join(workdir, "invalid-json.json")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        self.files["invalid-json"] = broken

        self.unit_list = [(argv, True) for argv in good]
        self.unit_list += [(argv, False) for argv in self.bad_commands() * self.bad_rounds]
        rng.shuffle(self.unit_list)

    @staticmethod
    def write(workdir: str, stem: str, payload) -> str:
        path = os.path.join(workdir, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    @staticmethod
    def instance_file(rng: random.Random, field, dim: int):
        """A valid instance file of fixed shape (the seed picks entries,
        not ranks): five subspaces, three orthogonal pairs, two operators;
        plus three members of each pair's domain as vectors."""
        from orthoql.scalars import scalar_text
        from orthoql.subspace import Subspace

        def rows_text(rows):
            return [[scalar_text(field.coerce(e)) for e in row] for row in rows]

        def rand_rows(k):
            return [[field.parse(scalar_string(rng, field)) for _ in range(dim)] for _ in range(k)]

        subspaces = {name: rand_rows(1 + k % (dim - 1)) for k, name in enumerate("ABCDE")}
        ortho, members = {}, {}
        for k, name in enumerate("PRS"):
            one = Subspace(field, dim, rand_rows(1 + k % (dim - 1)))
            perp = [list(r) for r in one.perp().basis.rows()]
            zero = Subspace(field, dim, [combination(rng, perp) for _ in range(len(perp) - k % 2)])
            subspaces[f"{name}1"] = [list(r) for r in one.basis.rows()]
            subspaces[f"{name}0"] = [list(r) for r in zero.basis.rows()]
            ortho[name] = {"one": f"{name}1", "zero": f"{name}0"}
            dom_rows = subspaces[f"{name}1"] + subspaces[f"{name}0"]
            members[name] = [
                "(" + ", ".join(scalar_text(e) for e in combination(rng, dom_rows)) + ")" for _ in range(3)
            ]
        operators = {name: {"dom": dom, "matrix": rows_text(rand_rows(dim))} for name, dom in (("T", "B"), ("U", "C"))}
        payload = {
            "field": field.value,
            "ambient_dim": dim,
            "subspaces": {name: {"basis": rows_text(rows)} for name, rows in subspaces.items()},
            "ortho": ortho,
            "operators": operators,
        }
        return payload, members

    @staticmethod
    def good_commands(rng: random.Random, path: str, members: dict) -> list[list[str]]:
        """The same command mix for every file: each operation on
        subspaces and on pairs, three projections, three quotients and a
        roundtrip, in both formats; every suite's check, in one format."""
        pairs = sorted(members)
        cmds = []
        for op in OPS:
            arity = 1 if op == "neg" else 2
            cmds.append(["op", op, *rng.sample("ABCDE", arity)])
            cmds.append(["op", op, *rng.sample(pairs, arity)])
        for pair in pairs:
            cmds.append(["project", pair, rng.choice(members[pair])])
            cmds.append(["quotient", pair, *rng.sample(members[pair], 2)])
        cmds.append(["roundtrip"])
        out = [[cmd[0], "--file", path, "--format", fmt, *cmd[1:]] for cmd in cmds for fmt in ("text", "json")]
        for k, suite in enumerate(SUITES_FOR_FILES):
            out.append(["check", "--file", path, "--format", ("text", "json")[k % 2], "--laws", suite])
        return out

    def bad_commands(self) -> list[list[str]]:
        f = self.files
        cmds = [["op", "--file", f[label], "neg", "A"] for label in BAD_FILES if label != "pair-not-object"]
        cmds += [
            ["check", "--file", f["pair-not-object"], "--laws", "complql"],
            ["op", "--file", f["invalid-json"], "neg", "A"],
            ["project", "--file", f["Q"], "P", "(1/0, 0, 0, 0)"],
            ["project", "--file", f["Q"], "P", "(1, 2)"],
            ["quotient", "--file", f["Qi"], "P", "(1, x, 0)", "(0, 0, 0)"],
            ["op", "--file", f["Q"], "--format", "xml", "neg", "A"],
            ["op", "--file", f["Q"], "frob", "A", "B"],
            ["op", "--file", f["Q"], "meet", "A"],
            ["op", "--file", f["Q"], "meet", "A", "P"],
            ["op", "--file", f["Q"], "meet", "(A", "B)"],
            ["check", "--file", f["Q"], "--laws", "bogus"],
            ["op", "neg", "A"],
            ["check", "--file", f["Q"], "--random", "4", "2", "1"],
        ]
        return cmds

    def suite_of(self, unit):
        argv, well_formed = unit
        return argv[argv.index("--laws") + 1] if well_formed and argv[0] == "check" else None

    def run(self, unit):
        from orthoql import cli

        argv, well_formed = unit
        out, err, code = captured(cli.main, argv)
        if well_formed:
            return out, code
        # Malformed commands are judged by the exit-2 contract only and
        # not digested, so a fix to their handling changes no digest.
        return None, rejected(out, err, code)

    def expected(self, unit, text, outcome) -> bool:
        return outcome == 0 if unit[1] else outcome is True


WORKLOADS = {w.name: w for w in (CheckQ4, CheckQi3, LatticeQ6, CliFiles)}
