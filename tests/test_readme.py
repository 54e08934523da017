"""The README's examples, run as written.

The Python session is executed statement by statement; every expression
with a trailing comment must evaluate to the value the comment shows
(``span{...}`` is the subspace those rows span).  Each ``$ orthoql ...``
transcript runs against the README's own instance file, saved as
``demo.json``, and must print the lines shown, where a ``...`` line
stands for any number of lines.
"""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from orthoql.cli import main
from orthoql.linalg import Vector
from orthoql.subspace import Subspace

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def plain(value):
    """Vectors and tuples of them as tuples of scalars."""
    if isinstance(value, (Vector, tuple)):
        return tuple(plain(v) for v in value)
    return value


def shown(comment, result):
    """The value a trailing comment shows, in the terms of ``result``."""
    if comment.startswith("span{"):
        rows = ast.literal_eval(f"[{comment[len('span{'):-1]}]")
        return Subspace(result.field, result.ambient_dim, rows)
    return eval(comment, {"Fraction": Fraction})


def test_the_python_session_shows_its_values():
    (session,) = blocks("python")
    lines = session.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(session).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        result = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        line = lines[node.end_lineno - 1]
        if "#" in line:
            comment = line.split("#", 1)[1].strip()
            assert plain(result) == shown(comment, result), line
            checked += 1
    assert checked == 4


def transcripts():
    (text,) = [b for b in blocks("text") if b.startswith("$ orthoql")]
    runs = []
    for chunk in text.strip().split("\n\n"):
        command, *out = chunk.splitlines()
        assert command.startswith("$ orthoql ")
        runs.append((shlex.split(command)[2:], out))
    return runs


TRANSCRIPTS = transcripts()


def matches(printed, expected):
    """Whether ``printed`` is ``expected`` with each ``...`` line standing
    for any run of lines."""
    pattern = "".join(".*" if line == "..." else re.escape(line + "\n") for line in expected)
    return re.fullmatch(pattern, printed, re.S) is not None


@pytest.fixture
def demo_file(tmp_path):
    (instances,) = blocks("json")
    path = tmp_path / "demo.json"
    path.write_text(instances)
    return str(path)


def test_there_are_four_transcripts():
    assert [argv[0] for argv, _ in TRANSCRIPTS] == ["op", "project", "quotient", "check"]


@pytest.mark.parametrize("argv, expected", TRANSCRIPTS, ids=[argv[0] for argv, _ in TRANSCRIPTS])
def test_a_transcript_prints_its_lines(argv, expected, demo_file, capsys):
    argv = [demo_file if a == "demo.json" else a for a in argv]
    assert main(argv) == 0
    assert matches(capsys.readouterr().out, expected)
