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
    ],
)
def test_order_and_comm_list_their_clauses_without_pairs(tmp_path, capsys, laws, clauses):
    # Like every other suite, with nothing to check each law still gets
    # its line.
    path = tmp_path / "no-pairs.json"
    path.write_text(json.dumps({**GOOD, "ortho": {}}))
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


# sha256 of the exact stdout bytes of the order and comm suites: a change
# to the clause calculi or to the law reports must not move them.  The
# file's pairs include unordered and non-commuting ones, so they reach
# the hypothesis-not-met paths as well.
PINNED_STDOUT = {
    ("random", "order", "text"): "deb76e74ba1554f9b78ff86bea2b48862011034bc4b5a52ef4769b2acd313ce4",
    ("random", "order", "json"): "7b886b8623e366d91c2b0018d6fca76fab790dd1d167074a3b9c4484fb15013a",
    ("random", "comm", "text"): "ab365acd6ae0d3619a3c58754dd3ad53866c56fe9f06829cd53c8e3379caa1b7",
    ("random", "comm", "json"): "3500a70cd3b07b3a58eef5b0a28b0a68d82ea037047a6699acb3a53b4f9d093b",
    ("file", "order", "text"): "793fe49e971fca488b1ed496bd73b0c97e4279453c3afa4415f087793355be70",
    ("file", "order", "json"): "1fcdffbf67fc194214e7f39e36ca41b10d16d1b1886df93b519bd395c42ba5fd",
    ("file", "comm", "text"): "a9d417b70a4dd88c5dcb55b1e4a6e9bd93d937faf84b2167b62c45abe1f4e41e",
    ("file", "comm", "json"): "b4e439498c7e7b0d6f3aca6cfb8ea572485f950c9958ec184d5b1b1cb32d6418",
}


@pytest.mark.parametrize("source, laws, fmt", sorted(PINNED_STDOUT))
def test_check_stdout_bytes_are_pinned(good_file, capsys, source, laws, fmt):
    where = ["--random", "3", "6", "5"] if source == "random" else ["--file", good_file]
    code, out = run(capsys, "check", *where, "--laws", laws, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[source, laws, fmt]


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
    "section, body, message",
    [
        ("ortho", {"P": {"zero": "B"}}, "ortho pair 'P': missing key 'one'"),
        ("ortho", {"P": {"one": "A"}}, "ortho pair 'P': missing key 'zero'"),
        (
            "operators",
            {"T": {"matrix": GOOD["operators"]["T"]["matrix"]}},
            "operator 'T': missing key 'dom'",
        ),
    ],
)
def test_a_missing_key_is_named(tmp_path, capsys, section, body, message):
    payload = dict(GOOD, **{section: body})
    code = main(["check", "--file", write_instances(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


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

def test_module_invocation():
    # The subprocess imports the package from this checkout's src/.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "orthoql", "check", "--random", "2", "5", "1", "--laws", "clql"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "result: ok" in proc.stdout
    assert "elapsed:" in proc.stderr
