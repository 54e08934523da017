"""End-to-end checks of the command-line interface: file loading, the
operation calculator, law runs, projection, quotients, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orthoql import cli, laws
from orthoql.cli import main
from orthoql.partial_op import PartialProjection, proj_compl
from orthoql.scalars import Field

GOOD = {
    "field": "Q",
    "ambient_dim": 3,
    "subspaces": {
        "A": {"basis": [["1", "0", "0"]]},
        "B": {"basis": [["0", "1", "0"]]},
        "Plane": {"basis": [["1", "0", "0"], ["0", "1", "0"]]},
        "Axis": {"basis": [["0", "0", "1"]]},
        "Zero": {"basis": []},
        "Full": {"basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    },
    "ortho": {
        "L": {"one": "A", "zero": "B"},
        "M": {"one": "Plane", "zero": "Axis"},
        "Bottom": {"one": "Zero", "zero": "Full"},
    },
    "operators": {
        "T": {
            "dom": "Plane",
            "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
    },
}


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "instances.json"
    path.write_text(json.dumps(GOOD))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# --- the op calculator ---------------------------------------------------

def test_subspace_meet(good_file, capsys):
    code, out = run(capsys, "op", "meet", "Plane", "B", "--file", good_file)
    assert code == 0
    assert "(0/1, 1/1, 0/1)" in out


def test_pair_negation_accepts_the_prefixed_name(good_file, capsys):
    code, out = run(capsys, "op", "oneg", "L", "--file", good_file)
    assert code == 0
    one_block = out.split("zero:")[0]
    assert "(0/1, 1/1, 0/1)" in one_block


def test_implication_from_the_bottom_pair(good_file, capsys):
    code, out = run(capsys, "op", "implies", "Bottom", "L", "--file", good_file)
    assert code == 0
    # Everything follows from the bottom pair: the result is the top pair.
    one_block, zero_block = out.split("zero:")
    assert one_block.count("(") == 3
    assert "(empty)" in zero_block


def test_empty_result_prints_a_placeholder(good_file, capsys):
    code, out = run(capsys, "op", "meet", "A", "B", "--file", good_file)
    assert code == 0
    assert "(empty)" in out


def test_op_rejects_bad_expressions(good_file, capsys):
    for argv in (
        ["op", "frobnicate", "A", "B"],
        ["op", "meet", "A"],
        ["op", "meet", "A", "Nope"],
        ["op", "meet", "A", "L"],
        ["op", "meet", "(A", "B)"],
    ):
        code, _ = run(capsys, *argv, "--file", good_file)
        assert code == 2


def test_json_format_is_valid_json(good_file, capsys):
    code, out = run(
        capsys, "op", "join", "A", "B", "--file", good_file, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["basis"] == [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"]]


# --- law runs --------------------------------------------------------------

def test_check_file_instances(good_file, capsys):
    code, out = run(capsys, "check", "--file", good_file, "--laws", "complql")
    assert code == 0
    assert "result: ok" in out


def test_check_random_instances(capsys):
    code, out = run(
        capsys, "check", "--random", "3", "25", "42", "--laws", "clql"
    )
    assert code == 0
    assert "result: ok" in out


def test_gaussian_instance_files(tmp_path, capsys):
    qi = {
        "field": "Qi",
        "ambient_dim": 2,
        "subspaces": {
            "A": {"basis": [["1", "1i"]]},
            "B": {"basis": [["1", "-1i"]]},
        },
        "ortho": {"P": {"one": "A", "zero": "B"}},
        "operators": {},
    }
    path = tmp_path / "qi.json"
    path.write_text(json.dumps(qi))
    code, out = run(capsys, "check", "--file", str(path), "--laws", "complql")
    assert code == 0
    assert "result: ok" in out
    code, out = run(capsys, "op", "neg", "A", "--file", str(path))
    assert code == 0
    assert "0/1-1/1i" in out


def test_expected_failures_do_not_fail_the_run(capsys):
    code, out = run(
        capsys, "check", "--random", "2", "0", "0", "--laws", "distributivity"
    )
    assert code == 0
    assert "[expected-fail]" in out
    assert "violations=1" in out


def test_check_json_payload(capsys):
    code, out = run(
        capsys,
        "check",
        "--random", "3", "10", "5",
        "--laws", "order",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["unexpected_violations"] == 0
    assert payload["laws"]["lescomp1_i"]["violations"] == []


@pytest.mark.parametrize(
    "laws, clauses",
    [
        ("order", ["lescomp1_i", "lescomp1_iia", "lescomp1_iiia", "lescomp1_iva", "lescomp1_meet"]),
        ("comm", ["comm1_i", "comm1_ii", "comm1_iii", "comm1_iv", "cor7_i", "cor7_ii", "cor7_iii"]),
        ("clql", sorted(laws.CLQL_LAWS)),
        ("complql", sorted(laws.COMPLQL_LAWS)),
        ("pls", sorted(laws.PLS_LAWS)),
    ],
)
def test_order_and_comm_list_their_clauses_without_pairs(tmp_path, capsys, laws, clauses):
    # Like every other suite, with nothing to check each law still gets
    # its line, from a draw of none and from a file whose section is empty.
    if laws == "clql":
        # Pairs and operators name subspaces, so they go too.
        document = {"field": "Q", "ambient_dim": 3, "subspaces": {}}
    else:
        document = {**GOOD, "operators" if laws == "pls" else "ortho": {}}
    path = tmp_path / "empty-section.json"
    path.write_text(json.dumps(document))
    for where in (["--random", "3", "0", "5"], ["--file", str(path)]):
        code, out = run(capsys, "check", *where, "--laws", laws)
        assert code == 0
        assert out.splitlines() == [
            *(f"{c}: instances=0 hypothesis_met=0 violations=0" for c in clauses),
            "result: ok (unexpected violations: 0)",
        ]


def test_check_stdout_is_deterministic(capsys):
    argv = ["check", "--random", "3", "20", "11", "--laws", "all"]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


# sha256 of the exact stdout bytes of the law suites: a change to the
# lattice operations, the operator algebra, the clause calculi or the law
# reports must not move them.  The file's pairs include unordered and
# non-commuting ones, so they reach the hypothesis-not-met paths as well.
PINNED_STDOUT = {
    ("random", "clql", "text"): "2c74eb7d90a230b5185bfa2691c70696c4048bfaebdafcf989c05d0dcd31e824",
    ("random", "clql", "json"): "5946ef8cb93126f59c3b5dc2db574b84ee491c97024947f1c74e6559b059db26",
    ("random", "complql", "text"): "d3acfbcee8f88db524ea30b83d80bf30a981bf4fda28a5b83569062166994290",
    ("random", "complql", "json"): "ae9e893bc5631c2feee73a27fecdb1090e45315f00dbe01e4d7b02066e996a63",
    ("random", "pls", "text"): "8514dc6f0d9cbb3dcf7a7c548eeb26f70002f0571758e5dfadbbd54de8ec3e9d",
    ("random", "pls", "json"): "08a4f7adc390bc06098f28b7934362a0c9b955f21b03738cc8137f4b874b57bc",
    ("random", "order", "text"): "deb76e74ba1554f9b78ff86bea2b48862011034bc4b5a52ef4769b2acd313ce4",
    ("random", "order", "json"): "7b886b8623e366d91c2b0018d6fca76fab790dd1d167074a3b9c4484fb15013a",
    ("random", "comm", "text"): "ab365acd6ae0d3619a3c58754dd3ad53866c56fe9f06829cd53c8e3379caa1b7",
    ("random", "comm", "json"): "3500a70cd3b07b3a58eef5b0a28b0a68d82ea037047a6699acb3a53b4f9d093b",
    ("file", "order", "text"): "793fe49e971fca488b1ed496bd73b0c97e4279453c3afa4415f087793355be70",
    ("file", "order", "json"): "1fcdffbf67fc194214e7f39e36ca41b10d16d1b1886df93b519bd395c42ba5fd",
    ("file", "comm", "text"): "a9d417b70a4dd88c5dcb55b1e4a6e9bd93d937faf84b2167b62c45abe1f4e41e",
    ("file", "comm", "json"): "b4e439498c7e7b0d6f3aca6cfb8ea572485f950c9958ec184d5b1b1cb32d6418",
    ("file", "clql", "text"): "1ee082a98188ff31f721b54ae17834d09b420566f0222a910ce441d65c12bad6",
    ("file", "clql", "json"): "12c01c27918b8db7340e8498e35ec2e12d4ef0e57332f04f41dc875617d6f57f",
    ("file", "complql", "text"): "f0440f8f4d01670e6b38841b8eb560364456c3d62cc6611e96de3138dfe10176",
    ("file", "complql", "json"): "1643f82c872e6a613a81036856e53d26a4c8f54f5cf68a7f60d6ee2762d968fe",
    ("file", "pls", "text"): "1d928a44170b49fedeb405a0d504a7e94ff0f8d2611ff966a5bd9e097eb35e8b",
    ("file", "pls", "json"): "5b91aa8e53d49d71da2ed307e804c42b9efcef520906ca99cbb176f06f1eb464",
}

# The same guard over Q(i)^3, which the command line reaches only through
# ``cmd_check``'s field argument; "all" adds the order and comm suites.
PINNED_QI_STDOUT = {
    ("clql", "text"): "b8e6eca65f1dc5e9ec7200236d055d257e4b35f089fe8f42cc01c54a8d0158e2",
    ("clql", "json"): "59a069057bfa21fad6aa17db215aa9b86511a1d904e9707bcefa2847bf2d8772",
    ("complql", "text"): "22db51b7608967d0d57a9521fdccdd1b7f7addaa1cb6ab17f98479dc8f95b05c",
    ("complql", "json"): "1ab11af4edf3290a942540783c3de9c38f41c3a44fed9553f6edcc8059e47b8c",
    ("pls", "text"): "beb1fcda6404620450ceba4fdfc6232d939bb71e250a5ad90e3c84b4dbdee67b",
    ("pls", "json"): "317c5d885ff88854efeb2d597d231cd64a834e138ea9be2253f08637770fbffe",
    ("all", "text"): "5643da2242f449984476e3d3f53a096b0677da99296ff598019bb7615194bee3",
    ("all", "json"): "4c8b86785e8209e47331efab3f000efcbc15a9cbadcf350c7d8be0efef45ab36",
}


@pytest.mark.parametrize("source, laws, fmt", sorted(PINNED_STDOUT))
def test_check_stdout_bytes_are_pinned(good_file, capsys, source, laws, fmt):
    where = ["--random", "3", "6", "5"] if source == "random" else ["--file", good_file]
    code, out = run(capsys, "check", *where, "--laws", laws, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[source, laws, fmt]


@pytest.mark.parametrize("suite, fmt", sorted(PINNED_QI_STDOUT))
def test_check_stdout_bytes_over_qi_are_pinned(capsys, suite, fmt):
    code = cli.cmd_check(None, (3, 6, 5), suite, fmt, Field.Qi)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_QI_STDOUT[suite, fmt]


# The headline runs: every law suite over Q^4, and over Q^12, a dimension
# that no benchmark workload reaches.
PINNED_HEADLINE_STDOUT = {
    ("4", "60", "7"): "4a7c62689cbc4d3d2f1ab48dbb22f380f1b3f24f9941d4b8010e258863b44a61",
    ("12", "2", "7"): "5ecd966fef07d38e3c855e1981ff03598450909737bcc7591e4ac4b9813515d1",
}


@pytest.mark.parametrize("random", sorted(PINNED_HEADLINE_STDOUT), ids=" ".join)
def test_headline_check_stdout_bytes_are_pinned(capsys, random):
    code, out = run(capsys, "check", "--random", *random, "--laws", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HEADLINE_STDOUT[random]


# A file over Q(i)^3 for the op digests below: A and B are orthogonal
# complex lines, D a plane with a complex row.
QI_OPS = {
    "field": "Qi",
    "ambient_dim": 3,
    "subspaces": {
        "A": {"basis": [["1", "1i", "0"]]},
        "B": {"basis": [["1", "-1i", "0"]]},
        "C": {"basis": [["0", "0", "1"]]},
        "D": {"basis": [["1", "0", "1i"], ["0", "1", "0"]]},
    },
    "ortho": {"P": {"one": "A", "zero": "B"}, "R": {"one": "C", "zero": "A"}},
}

# Each operation of ``op`` on subspaces and on orthogonal pairs of GOOD
# and of QI_OPS; every stdout of one (source, kind, format) is hashed
# together, so one digest guards five commands.
OP_EXPRESSIONS = {
    ("good", "subspace"): [
        "meet Plane B", "join A Axis", "minus Plane A", "implies A B", "neg Plane",
    ],
    ("good", "ortho"): ["meet L M", "join L Bottom", "minus M L", "implies Bottom L", "neg M"],
    ("qi", "subspace"): ["meet A D", "join A C", "minus D A", "implies A D", "neg D"],
    ("qi", "ortho"): ["meet P R", "join P R", "minus P R", "implies R P", "neg P"],
}

PINNED_OP_STDOUT = {
    ("good", "ortho", "json"): "26c452aab9ac0d5102e8311c4e8449e65ae4963cd2547459ded02419572b5a4b",
    ("good", "ortho", "text"): "aa0c4b32aa21ccdd3fd9faee79b81453c72144b511cb7d564560ae0cb57f5c02",
    ("good", "subspace", "json"): "bb891c72059e9d30178bdc8117d937e7140832e9646626bc051682f072aa0adc",
    ("good", "subspace", "text"): "c9f0a9ce9123541863adeabc1fbfd526dd4a7805ee1bd7a747d9142a3749b145",
    ("qi", "ortho", "json"): "73289ce59dbbd6eb27f2740bb6427cd7268af7256a67d0e0905b1fb97afb8db7",
    ("qi", "ortho", "text"): "0bd8820f1fe5f2f588ba3b7ff39d2775d9fecf3a3d9b73e1fdd88f18b1851160",
    ("qi", "subspace", "json"): "58c45108dbb0464220a41adc4995781f4f9c83e5472abc11dfb10bb9e9bacf6f",
    ("qi", "subspace", "text"): "3a2562412d10a3ef176f22bcc2cc67e886cf5156f353213656805f373539ee2b",
}


@pytest.mark.parametrize("source, kind, fmt", sorted(PINNED_OP_STDOUT))
def test_op_stdout_bytes_are_pinned(tmp_path, capsys, source, kind, fmt):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps(GOOD if source == "good" else QI_OPS))
    digest = hashlib.sha256()
    for expr in OP_EXPRESSIONS[source, kind]:
        code, out = run(capsys, "op", *expr.split(), "--file", str(path), "--format", fmt)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == PINNED_OP_STDOUT[source, kind, fmt]


def test_a_failing_clause_detail_is_the_json_witness(good_file, capsys, monkeypatch):
    def broken_order(l, m):
        return {"lescomp1_i": (True, False, "made-up detail"), "lescomp1_iia": (False, True, "unused")}

    monkeypatch.setattr(laws, "check_order", broken_order)
    code, out = run(capsys, "check", "--file", good_file, "--laws", "order", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["unexpected_violations"] == 3
    assert payload["laws"]["lescomp1_i"]["violations"] == [
        {"operands": f"pair #{i}", "witness": "made-up detail"} for i in range(3)
    ]
    assert payload["laws"]["lescomp1_iia"]["violations"] == []


def test_unknown_selector(good_file, capsys):
    code, _ = run(capsys, "check", "--file", good_file, "--laws", "zorn")
    assert code == 2


# --- project and quotient ---------------------------------------------------

def test_project_splits(good_file, capsys):
    code, out = run(capsys, "project", "L", "(2,3,0)", "--file", good_file)
    assert code == 0
    assert "one_part:  (2/1, 0/1, 0/1)" in out
    assert "zero_part: (0/1, 3/1, 0/1)" in out


def test_project_outside_the_domain(good_file, capsys):
    code, out = run(capsys, "project", "L", "(0,0,1)", "--file", good_file)
    assert code == 0
    assert "NotInDomain" in out


def test_quotient_identifies_one_shifts(good_file, capsys):
    code, out = run(
        capsys, "quotient", "L", "(2,3,0)", "(5,3,0)", "--file", good_file
    )
    assert code == 0
    assert "equal: true" in out
    assert "inner: 9/1" in out


def test_quotient_rejects_outsiders(good_file, capsys):
    code, out = run(
        capsys, "quotient", "L", "(0,0,1)", "(0,0,1)", "--file", good_file
    )
    assert code == 0
    assert "NotInDomain" in out


# --- roundtrip ----------------------------------------------------------------

def test_roundtrip_file(good_file, capsys):
    code, out = run(capsys, "roundtrip", "--file", good_file)
    assert code == 0
    assert "result: ok (3 instances)" in out
    assert "MISMATCH" not in out


def test_roundtrip_random(capsys):
    code, out = run(capsys, "roundtrip", "--random", "3", "12", "3")
    assert code == 0
    assert "result: ok (12 instances)" in out


def test_roundtrip_reads_each_pair_back_off_the_images(good_file, capsys, monkeypatch):
    # roundtrip re-validates each projection's matrix and reads its pair
    # back; a read-back that returns the complement is a mismatch.
    read_back = PartialProjection.from_matrix
    monkeypatch.setattr(
        PartialProjection, "from_matrix", lambda dom, m: proj_compl(read_back(dom, m))
    )
    code, out = run(capsys, "roundtrip", "--file", good_file)
    assert code == 1
    assert out == "Bottom: MISMATCH\nL: MISMATCH\nM: MISMATCH\nresult: MISMATCHES (3 instances)\n"


# --- input validation -----------------------------------------------------------

def test_input_errors_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run(capsys, "check", "--file", str(bad_json))[0] == 2
    assert run(capsys, "check", "--file", str(tmp_path / "missing.json"))[0] == 2

    skew = dict(GOOD, ortho={"X": {"one": "A", "zero": "Full"}})
    skew_path = tmp_path / "skew.json"
    skew_path.write_text(json.dumps(skew))
    assert run(capsys, "check", "--file", str(skew_path))[0] == 2

    imag = json.loads(json.dumps(GOOD))
    imag["subspaces"]["A"]["basis"] = [["1+2i", "0", "0"]]
    imag_path = tmp_path / "imag.json"
    imag_path.write_text(json.dumps(imag))
    assert run(capsys, "check", "--file", str(imag_path))[0] == 2


def assert_rejected(capsys, *argv):
    """Exit 2, nothing on stdout, exactly one ``error:`` line on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


def write_instances(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("scalar", ["1/0", "1/0+1i", "2/0i", "1+1/0i"])
def test_zero_denominator_in_a_file(tmp_path, capsys, scalar):
    payload = {
        "field": "Qi",
        "ambient_dim": 2,
        "subspaces": {"A": {"basis": [[scalar, "1"]]}},
    }
    assert_rejected(capsys, "check", "--file", write_instances(tmp_path, payload))


@pytest.mark.parametrize("vector", ["(1/0,0,0)", "(1,0/0,0)"])
def test_zero_denominator_in_a_vector(good_file, capsys, vector):
    assert_rejected(capsys, "project", "L", vector, "--file", good_file)


def test_zero_denominator_in_a_gaussian_vector(tmp_path, capsys):
    payload = {
        "field": "Qi",
        "ambient_dim": 2,
        "subspaces": {"A": {"basis": [["1", "0"]]}, "B": {"basis": [["0", "1"]]}},
        "ortho": {"P": {"one": "A", "zero": "B"}},
    }
    path = write_instances(tmp_path, payload)
    assert_rejected(capsys, "project", "P", "(1/0+1i,0)", "--file", path)


@pytest.mark.parametrize("scalar", ["1+2i", "0-1/3i", "2i"])
def test_a_complex_scalar_cannot_enter_a_q_file(tmp_path, good_file, capsys, scalar):
    for section, name, key in (("subspaces", "A", "basis"), ("operators", "T", "matrix")):
        payload = json.loads(json.dumps(GOOD))
        payload[section][name][key][0][1] = scalar
        assert_rejected(capsys, "check", "--file", write_instances(tmp_path, payload))
    assert_rejected(capsys, "project", "L", f"(1,{scalar},0)", "--file", good_file)


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_a_space_between_two_digits_in_a_file(tmp_path, capsys, field):
    for section, name, key in (("subspaces", "A", "basis"), ("operators", "T", "matrix")):
        payload = json.loads(json.dumps(GOOD))
        payload["field"] = field
        payload[section][name][key][0][1] = "1 2"
        line = assert_rejected(capsys, "check", "--file", write_instances(tmp_path, payload))
        assert line.endswith("row 0: '1 2' has whitespace between two digits")


@pytest.mark.parametrize("vector", ["(1 2,0,0)", "(1,1/2 3,0)"])
def test_a_space_between_two_digits_in_a_vector(good_file, capsys, vector):
    line = assert_rejected(capsys, "project", "L", vector, "--file", good_file)
    assert line.startswith(f"error: vector {vector!r}: ") and "whitespace between two digits" in line
    assert_rejected(capsys, "quotient", "L", "(1,0,0)", vector, "--file", good_file)


@pytest.mark.parametrize("scalar", ["9" * 5000, "1/" + "7" * 5000 + "i"])
def test_overlong_scalar_in_a_file(tmp_path, capsys, scalar):
    # Past CPython's integer-string digit limit int() raises ValueError.
    payload = {
        "field": "Qi",
        "ambient_dim": 2,
        "subspaces": {"A": {"basis": [[scalar, "1"]]}},
    }
    assert_rejected(capsys, "check", "--file", write_instances(tmp_path, payload))


@pytest.mark.parametrize("scalar", ["9" * 5000, "1/" + "7" * 5000])
def test_overlong_scalar_in_a_vector(good_file, capsys, scalar):
    vector = f"({scalar},0,0)"
    assert_rejected(capsys, "project", "L", vector, "--file", good_file)
    assert_rejected(capsys, "quotient", "L", vector, "(1,0,0)", "--file", good_file)


def test_overlong_result_is_refused(good_file, capsys):
    # Each input stays inside the digit limit; their inner product does not.
    vector = "(0," + "9" * 3000 + ",0)"
    code = main(["quotient", "L", vector, vector, "--file", good_file])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"{sys.get_int_max_str_digits()} digits" in lines[0]


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"field": "Q", "ambient_dim": ' + b"9" * 5000 + b"}",
        b'{"field": "Q", "ambient_dim": 1, "subspaces": {"A": {"basis": [[' + b"9" * 5000 + b"]]}}}",
        b'{"field": "Q", "ambient_dim": 1, "subspaces": {"A": {"basis": [["\xff"]]}}}',
    ],
    ids=["deep-nesting", "overlong-ambient-dim", "overlong-bare-number", "not-utf8"],
)
def test_files_json_cannot_hold_are_rejected(tmp_path, capsys, content):
    # Nesting past the recursion limit, integers past the digit limit and
    # bytes that are not UTF-8 each name the file in one error line.
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert str(path) in assert_rejected(capsys, "op", "neg", "A", "--file", str(path))


@pytest.mark.parametrize(
    "section, body, message",
    [
        ("ortho", {"P": {"zero": "B"}}, "ortho pair 'P': missing key 'one'"),
        ("ortho", {"P": {"one": "A"}}, "ortho pair 'P': missing key 'zero'"),
        (
            "operators",
            {"T": {"matrix": GOOD["operators"]["T"]["matrix"]}},
            "operator 'T': missing key 'dom'",
        ),
        ("subspaces", {"A": {"bassis": [["1", "0", "0"]]}}, "subspace 'A': missing key 'basis'"),
        ("operators", {"T": {"dom": "Plane"}}, "operator 'T': missing key 'matrix'"),
    ],
)
def test_a_missing_key_is_named(tmp_path, capsys, section, body, message):
    payload = dict(GOOD, **{section: body})
    code = main(["check", "--file", write_instances(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_missing_key_is_named_at_dimension_zero(tmp_path, capsys):
    # An empty basis is the zero subspace; an absent one is an error, and
    # so is an absent matrix, even where every matrix has no rows.
    payload = {"field": "Q", "ambient_dim": 0, "subspaces": {"Z": {"basis": []}}}
    code = main(["op", "neg", "Z", "--file", write_instances(tmp_path, payload)])
    assert code == 0 and capsys.readouterr().out == "op neg Z\nbasis:\n  (empty)\n"
    for section, body, message in (
        ("subspaces", {"Z": {}}, "subspace 'Z': missing key 'basis'"),
        ("operators", {"T": {"dom": "Z"}}, "operator 'T': missing key 'matrix'"),
    ):
        code = main(["check", "--file", write_instances(tmp_path, dict(payload, **{section: body}))])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_a_pair_may_not_take_a_subspace_name(tmp_path, capsys):
    # Otherwise op would read the name as the subspace and project as
    # the pair.
    payload = dict(GOOD, ortho={"A": {"one": "A", "zero": "B"}})
    path = write_instances(tmp_path, payload)
    for argv in (["op", "neg", "A"], ["project", "A", "(1,0,0)"]):
        code = main([*argv, "--file", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: ortho pair 'A': the name is already a subspace's\n"


def test_one_parser_serves_every_call_as_a_fresh_one_would(good_file, capsys, monkeypatch):
    """``main`` reuses the parser it built first.  Successive calls with
    different subcommands, help requests and argparse's own errors
    print, and exit, exactly as they do with a parser built per call."""
    argvs = [
        ["op", "meet", "Plane", "B", "--file", good_file],
        ["check", "--random", "3", "2", "5", "--laws", "clql"],
        ["check", "--bogus"],
        ["op", "join", "A", "B", "--file", good_file, "--format", "json"],
        ["--help"],
        ["project", "L", "(2,3,0)", "--file", good_file],
        ["project", "--help"],
        [],
        ["roundtrip", "--random", "2", "1", "3", "--format", "yaml"],
        ["quotient", "L", "(1,0,0)", "(0,1,0)", "--file", good_file],
        ["op", "meet", "A", "B", "--file", good_file],
    ]

    def outcomes():
        seen = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            captured = capsys.readouterr()
            err = [line for line in captured.err.splitlines() if not line.startswith("elapsed: ")]
            seen.append((code, captured.out, err))
        return seen

    reused = outcomes()
    assert cli._build_parser() is cli._build_parser()
    assert outcomes() == reused
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert outcomes() == reused
    assert {code for code, _, _ in reused} >= {0, "exit 0", "exit 2"}


def test_unexpected_exception_exits_with_the_internal_error_code(good_file, capsys, monkeypatch):
    def broken(*args):
        raise KeyError("line one\nline two")

    monkeypatch.setattr(cli, "cmd_op", broken)
    code = main(["op", "meet", "A", "B", "--file", good_file])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL_ERROR
    assert code not in (0, 1, 2)
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: internal error: KeyError")


@pytest.mark.parametrize(
    "section, body",
    [
        ("subspaces", {"A": [["1", "0", "0"]]}),
        ("ortho", {"L": ["A", "B"]}),
        ("operators", {"T": "Plane"}),
        ("subspaces", [["1", "0", "0"]]),
        ("subspaces", []),
        ("ortho", False),
        ("ortho", {"L": {"one": ["A"], "zero": "B"}}),
        ("operators", {"T": {"dom": ["Plane"], "matrix": GOOD["operators"]["T"]["matrix"]}}),
    ],
)
def test_malformed_sections_are_rejected(tmp_path, capsys, section, body):
    payload = dict(GOOD, **{section: body})
    assert_rejected(capsys, "check", "--file", write_instances(tmp_path, payload))


def test_boolean_ambient_dim_is_rejected(tmp_path, capsys):
    payload = {"field": "Q", "ambient_dim": True, "subspaces": {"A": {"basis": [["1"]]}}}
    assert_rejected(capsys, "check", "--file", write_instances(tmp_path, payload))


def test_file_and_random_conflict(good_file, capsys):
    code, _ = run(
        capsys, "check", "--file", good_file, "--random", "3", "5", "1"
    )
    assert code == 2


def test_random_sizes_up_to_the_bound_are_accepted(capsys):
    # The catalog suites ignore COUNT and search at DIM, so both limits
    # are reached without a long run.
    dim, count = str(cli.MAX_DIM), str(cli.MAX_RANDOM_COUNT)
    for argv in (
        ["check", "--random", dim, "0", "0", "--laws", "distributivity"],
        ["check", "--random", "2", count, "0", "--laws", "heyting"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        assert "result: ok" in out


def test_random_sizes_past_the_bound_are_rejected(capsys):
    # Each command would also finish quickly if it were accepted: the
    # catalog suite ignores COUNT, and pairs in dimension 0 are trivial.
    dim, count = str(cli.MAX_DIM + 1), str(cli.MAX_RANDOM_COUNT + 1)
    for argv in (
        ["check", "--random", dim, "0", "0", "--laws", "heyting"],
        ["check", "--random", "2", count, "0", "--laws", "heyting"],
        ["check", "--random", dim, count, "0", "--laws", "heyting"],
        ["roundtrip", "--random", dim, "0", "0"],
        ["roundtrip", "--random", "0", count, "0"],
    ):
        assert_rejected(capsys, *argv)


def test_file_dimension_up_to_the_bound_is_accepted(tmp_path, capsys):
    payload = {"field": "Q", "ambient_dim": cli.MAX_DIM, "subspaces": {"A": {"basis": []}}}
    code, out = run(capsys, "op", "neg", "A", "--file", write_instances(tmp_path, payload))
    assert code == 0
    assert out.count("(") == cli.MAX_DIM


def test_file_dimension_past_the_bound_is_rejected(tmp_path, capsys):
    # Accepted, this file would build the identity of the whole space.
    payload = {"field": "Q", "ambient_dim": cli.MAX_DIM + 1, "subspaces": {"A": {"basis": []}}}
    for command in (["op", "neg", "A"], ["check"]):
        assert_rejected(capsys, *command, "--file", write_instances(tmp_path, payload))


def test_missing_source(capsys):
    assert run(capsys, "project", "L", "(1,0,0)")[0] == 2


# --- module entry point --------------------------------------------------------------

def run_module(*args, timeout=None):
    # The subprocess imports the package from this checkout's src/.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "orthoql", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def test_module_invocation():
    proc = run_module("check", "--random", "2", "5", "1", "--laws", "clql")
    assert proc.returncode == 0
    assert "result: ok" in proc.stdout
    assert "elapsed:" in proc.stderr


@pytest.mark.parametrize("suite", ["order", "all"])
def test_random_check_at_dimension_zero_ends(suite):
    # Q^0 has one orthogonal pair, and it is ordered, so the order suite
    # gets no unordered pairs instead of sampling for them forever.
    proc = run_module("check", "--random", "0", "3", "1", "--laws", suite, timeout=60)
    assert proc.returncode == 0
    assert "result: ok" in proc.stdout
